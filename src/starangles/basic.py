"""Concrete reduced basic construction for an inclusion B in A.

The big algebra, viewed as a ``d``-dimensional complex coordinate space
(``d = dim A``) under the inner product ``<x, y> = tr(E(x* y)) / n``,
carries left multiplication ``lambda(a)`` and the Jones projection ``e``
implementing the expectation: each is the image ``G^{1/2} X G^{-1/2}`` of
the coordinate matrix ``X`` of a linear map on A (left multiplication, E),
for the Gram matrix ``G`` of the inner product on A's basis; so is the
Jones projection ``e_P`` of a compatible intermediate, from its
expectation ``F_P``, which preserves the inner product. Products are
taken only on A's basis, once per construction: lambda is linear, so
lambda of any element is its A-coordinates times that stack. The basic
construction ``M1 = <lambda(A), e>`` is realized as the linear span of
``lambda(m_j b) e lambda(m_k)*`` over an orthonormal module basis
``{m_j}`` (``E(m_j* m_k) = delta_jk p_j``) and a basis of B. Since
``e lambda(a) e = lambda(E(a)) e``, the pieces for different pairs
``(j, k)`` are mutually orthogonal and the pair ``(j, k)`` spans a copy of
``p_j B p_k``, so ``M1 = sum_{j,k} p_j B p_k`` as an orthogonal direct sum
(Watatani, 1990). One small thin SVD per pair gives M1's orthonormal basis
and the dual expectation's value table on it: the minimum-norm extension
of ``lambda(x) e lambda(y) -> index^{-1} x y``. The family itself is not
kept; the dual is the ``CondExpectation`` with lambda of that table as its
values, so one application of ``E1`` goes through lambda(A)'s coordinates
like every other expectation of the tower. A first-floor algebra
``P1 = <lambda(A), e_P>``, the basic construction of P in A, is the same
pair span for ``F_P``, P and ``e_P``, without a table.
"""

from __future__ import annotations

import numpy as np

from . import algebra as alg
from . import linalg
from .algebra import Inclusion, StarAlgebra, commutant_within
from .errors import ArgumentError, ConstructionError, InvariantError
from .expectation import (
    CompatibleIntermediate,
    CondExpectation,
    _verify_expectation_axioms,
)
from .linalg import DEFAULT_TOLERANCES, Tolerances, adjoint, max_op_norm, op_norm
from .pimsner import ModuleBasis, WatataniIndex, orthonormal_basis, watatani_index


class BasicConstruction:
    """Matrix realization of lambda(A), e, M1 and the index data."""

    def __init__(
        self,
        source: CondExpectation,
        module_basis: ModuleBasis,
        index: WatataniIndex,
        gram_sqrt: np.ndarray,
        gram_inv_sqrt: np.ndarray,
    ):
        self.source = source
        self.module_basis = module_basis
        self.index = index
        self.rep_dim = source.big.dim
        self._gram_sqrt = gram_sqrt
        self._gram_inv_sqrt = gram_inv_sqrt
        self.lambda_stack = self._lambda_of_basis()
        self.e_proj = self._on_module(source.coefficient_matrix())
        self.lambda_algebra: StarAlgebra | None = None
        self.m1: StarAlgebra | None = None
        # values of the dual expectation on M1's basis, inside the big algebra
        self.dual_table: np.ndarray | None = None

    @property
    def dim_m1(self) -> int:
        return self.m1.dim

    def phi(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of an algebra element in the module picture."""
        return self._gram_sqrt @ self.source.big.coords(x)

    def _on_module(self, x: np.ndarray) -> np.ndarray:
        """``G^{1/2} x G^{-1/2}``: the operator of the map on A with coordinate matrix ``x``."""
        return self._gram_sqrt @ x @ self._gram_inv_sqrt

    def lambda_many(self, stack: np.ndarray) -> np.ndarray:
        """Left multiplication by each matrix in a stack: ``coords_A(stack) . lambda_stack``.

        lambda is linear, and an argument ``y`` outside A acts as its
        A-projection, since ``<a_r, y a_s> = <a_r a_s*, y>``.
        """
        coeffs = self.source.big.coords_many(np.asarray(stack, dtype=complex))
        return np.tensordot(coeffs, self.lambda_stack, axes=(1, 0))

    def _lambda_of_basis(self) -> np.ndarray:
        """lambda of A's basis, from the A-coordinates of the products ``a_i a_s``."""
        a = self.source.big
        n = a.ambient_dim
        out = np.empty((a.dim, self.rep_dim, self.rep_dim), dtype=complex)
        for part in linalg.batches(a.dim, n * n, a.dim):
            products = a.basis[part, None] @ a.basis
            # mult[i, r, s]: coordinate r of a_i a_s
            mult = a.coords_many(products.reshape(-1, n, n)).reshape(-1, a.dim, a.dim)
            out[part] = self._on_module(np.swapaxes(mult, 1, 2))
        return out


def build(exp: CondExpectation, tol: Tolerances = DEFAULT_TOLERANCES) -> BasicConstruction:
    """Build the reduced basic construction and verify its identities.

    M1 is the span of ``lambda(m_j b) e lambda(m_k)*`` over the module
    basis ``{m_j}`` and a basis of B, an orthogonal sum of one block per
    pair ``(j, k)`` (``_pair_blocks``). One batched thin SVD over the blocks
    (``_block_svd``, shared with ``first_floor_algebra``) gives M1's
    orthonormal basis, and ``dual_table``, the dual expectation's values on
    that basis, is read off the same factors; the family is then dropped.
    ``lambda`` of the module basis and of B's basis is computed once and
    shared by the checks and the family. The span lies inside ``<lambda(A), e>`` by construction; the
    build checks that it contains every ``lambda(a)`` and ``e``, so the two
    algebras are equal.
    """
    a, b = exp.big, exp.small
    d = a.dim

    module = orthonormal_basis(exp, tol)
    index = watatani_index(module, tol)

    gram = exp.state_gram(a, a)
    gram = (gram + adjoint(gram)) / 2.0
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= tol.rank_tol:
        raise ConstructionError("state faithfulness", float(eigs[0]))
    gram_sqrt = linalg.psd_calculus(gram, "sqrt", tol)
    gram_inv_sqrt = linalg.psd_calculus(gram, "pinv_sqrt", tol)

    bc = BasicConstruction(exp, module, index, gram_sqrt, gram_inv_sqrt)
    e_proj = bc.e_proj

    err = max(op_norm(e_proj @ e_proj - e_proj), op_norm(adjoint(e_proj) - e_proj))
    if err > tol.eq_tol:
        raise ConstructionError("jones projection idempotency", err)

    bc.lambda_algebra = alg.from_span(d, list(bc.lambda_stack), tol)

    fix = max(
        float(np.linalg.norm(e_proj @ bc.phi(x) - bc.phi(x))) for x in b.basis
    )
    if fix > tol.eq_tol:
        raise ConstructionError("e fixes the small algebra's coordinates", fix)

    compress = max_op_norm(
        e_proj @ bc.lambda_stack @ e_proj - bc.lambda_many(exp.values) @ e_proj, tol.eq_tol
    )
    if compress > tol.eq_tol:
        raise ConstructionError("e lambda(a) e = lambda(E(a)) e", compress)

    lam_m = bc.lambda_many(module.elements)
    lam_b = bc.lambda_many(b.basis)
    commutant = commutant_within(bc.lambda_algebra, [e_proj], tol)
    containment = commutant._max_span_residual(lam_b)
    if commutant.dim != b.dim or containment > tol.eq_tol:
        raise ConstructionError(
            "relative commutant of e inside lambda(A) equals lambda(B)",
            max(containment, float(abs(commutant.dim - b.dim))),
        )

    cover = (lam_m @ e_proj @ np.conj(lam_m.transpose(0, 2, 1))).sum(axis=0)
    cover_err = op_norm(cover - np.eye(d))
    if cover_err > tol.eq_tol:
        raise ConstructionError("sum of lambda(m_j) e lambda(m_j)* = 1", cover_err)

    # unbound, so the family is freed before M1's closure checks run
    m1_basis, u, s, keep = _block_svd(_pair_blocks(lam_m, lam_b, e_proj), tol)
    m, m_h = module.elements, np.conj(module.elements.transpose(0, 2, 1))
    pre = bc.index.inverse() @ m[:, None] @ b.basis[None]
    values = (pre[:, None] @ m_h[None, :, None]).reshape(-1, *b.basis.shape)
    bc.dual_table = _minimum_norm_table(u, s, keep, values, d, tol)
    bc.m1 = StarAlgebra(d, m1_basis, tol)
    generators = np.concatenate([bc.lambda_stack, e_proj[None]])
    contains = bc.m1._max_span_residual(generators)
    if contains > tol.eq_tol:
        raise ConstructionError("M1 contains lambda(A) and e", contains)
    return bc


def _pair_blocks(lam_m: np.ndarray, lam_s: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """Block ``j * J + k``: ``lambda(m_j s_t) proj lambda(m_k)*`` over S's basis ``s_t``.

    ``lam_m`` and ``lam_s`` are lambda of an orthonormal module basis of an
    expectation F onto S and of S's basis, ``proj`` is F's Jones projection.
    As ``proj lambda(a) proj = lambda(F(a)) proj`` and
    ``F(m_j* m_j') = delta_jj' p_j``, blocks of different pairs are orthogonal.
    """
    left = lam_m[:, None] @ lam_s[None]  # (j, t)
    right = proj @ np.conj(lam_m.transpose(0, 2, 1))  # (k,)
    return (left[:, None] @ right[None, :, None]).reshape(-1, *left.shape[1:])


def _block_svd(blocks: np.ndarray, tol: Tolerances):
    """Orthonormal basis ``sqrt(d) vh`` of the span of mutually orthogonal
    ``blocks`` (stacks of ``d x d`` matrices), from each block's thin SVD
    ``u diag(s) vh`` truncated at ``rank_tol`` times the largest ``s`` of all
    blocks (``keep``); orthogonal blocks make it the whole family's thin SVD.
    Returns ``(basis, u, s, keep)``.
    """
    d = blocks.shape[-1]
    # SVD of each block's tall transpose: blocks = vt^T diag(s) ut^T
    flat = blocks.reshape(*blocks.shape[:2], d * d)
    ut, s, vt = np.linalg.svd(np.swapaxes(flat, 1, 2), full_matrices=False)
    keep = s > tol.rank_tol * s.max()
    basis = np.swapaxes(ut, 1, 2)[keep]  # a copy, scaled in place: the largest array here
    basis *= np.sqrt(d)
    return basis.reshape(-1, d, d), np.swapaxes(vt, 1, 2), s, keep


def _minimum_norm_table(
    u: np.ndarray, s: np.ndarray, keep: np.ndarray, values: np.ndarray, d: int, tol: Tolerances
) -> np.ndarray:
    """The minimum-norm linear extension of ``values`` (one matrix per family
    member) on the basis ``_block_svd`` read off the factors ``u, s, keep``:
    ``sqrt(d) diag(1/s) u^H values``, concatenated over the blocks.

    The prescription is linear only if, on every block, it vanishes on the
    block's kernel, i.e. ``values = u u^H values``; otherwise this raises.
    """
    flat = values.reshape(*values.shape[:2], -1)
    coeffs = np.conj(np.swapaxes(u, 1, 2)) @ flat  # u^H values
    # a block whose u is square unitary is consistent with every prescription
    deficient = keep.sum(axis=1) < u.shape[1]
    if deficient.any():
        kept_u = u[deficient] * keep[deficient][:, None, :]
        drift = flat[deficient] - kept_u @ coeffs[deficient]
        inconsistency = max_op_norm(drift.reshape(-1, *values.shape[2:]), tol.eq_tol)
        if inconsistency > tol.eq_tol:
            raise ConstructionError("dual prescription consistency", inconsistency)
    return (coeffs[keep] * (np.sqrt(d) / s[keep])[:, None]).reshape(-1, *values.shape[2:])


def dual_expectation(
    bc: BasicConstruction, tol: Tolerances = DEFAULT_TOLERANCES
) -> CondExpectation:
    """The dual expectation ``E1: M1 -> lambda(A)``, with its axioms verified.

    Its value table is lambda of ``dual_table``, the minimum-norm extension
    of ``lambda(x) e lambda(y) -> index^{-1} x y`` on M1's basis.
    """
    dual = CondExpectation(
        inclusion=Inclusion(big=bc.m1, small=bc.lambda_algebra, tol=tol),
        values=bc.lambda_many(bc.dual_table),
    )
    _verify_expectation_axioms(dual, tol)
    return dual


def intermediate_jones_projection(
    bc: BasicConstruction,
    ci: CompatibleIntermediate,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> np.ndarray:
    """Jones projection of a compatible intermediate inside M1.

    ``e_P = G^{1/2} [F_P] G^{-1/2}`` as ``e`` is built from ``[E]``, with
    ``[F_P]`` on the construction's basis of A; it equals
    ``sum_j lambda(mu_j) e lambda(mu_j)*`` for every quasi-basis ``{mu_j}``
    of the restricted expectation.
    """
    a = bc.source.big
    if not (
        alg.same_span(ci.F.inclusion.big, a, tol)
        and alg.same_span(ci.E_restricted.inclusion.small, bc.source.small, tol)
    ):
        raise ArgumentError("intermediate was built for a different inclusion")
    e_p = bc._on_module(a.coords_many(ci.F.apply_many(a.basis)).T)
    proj_err = max(op_norm(e_p @ e_p - e_p), op_norm(adjoint(e_p) - e_p))
    if proj_err > tol.eq_tol:
        raise InvariantError(
            f"intermediate projection fails to be a projection ({proj_err:.3e})"
        )
    absorb = max(
        op_norm(e_p @ bc.e_proj - bc.e_proj), op_norm(bc.e_proj @ e_p - bc.e_proj)
    )
    if absorb > tol.eq_tol:
        raise InvariantError(f"e_P e = e = e e_P fails ({absorb:.3e})")
    return e_p


def first_floor_algebra(
    bc: BasicConstruction,
    ci: CompatibleIntermediate,
    e_p: np.ndarray,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> StarAlgebra:
    """``P1 = <lambda(A), e_P>``, the basic construction of P in A, inside M1.

    The pair span of ``lambda(mu_j p) e_P lambda(mu_k)*`` over a module basis
    ``{mu_j}`` of ``F_P`` and P's basis, as for M1: ``F_P`` preserves the
    state, so ``e_P lambda(a) e_P = lambda(F_P(a)) e_P``. Raises first unless
    the span contains every ``lambda(a)`` and ``e_p``, so that a wrong
    ``e_p`` is named as such.
    """
    d = bc.rep_dim
    lam_mu = bc.lambda_many(orthonormal_basis(ci.F, tol).elements)
    basis, *_ = _block_svd(_pair_blocks(lam_mu, bc.lambda_many(ci.P.basis), e_p), tol)
    rows = basis.reshape(len(basis), d * d)
    gens = np.concatenate([bc.lambda_stack, e_p[None]]).reshape(-1, d * d)
    outside = gens - np.conj(np.conj(gens) @ rows.T) @ rows / d
    contains = float(np.linalg.norm(outside, axis=1).max() / np.sqrt(d))
    if contains > tol.eq_tol:
        raise ConstructionError("P1 contains lambda(A) and e_P", contains)
    return StarAlgebra(d, basis, tol)
