"""Concrete reduced basic construction for an inclusion B in A.

The big algebra, viewed as a ``d``-dimensional complex coordinate space
(``d = dim A``) under the inner product ``<x, y> = tr(E(x* y)) / n``,
carries left multiplication ``lambda(a)`` and the Jones projection ``e``
implementing the expectation: each is the image ``G^{1/2} X G^{-1/2}`` of
the coordinate matrix ``X`` of a linear map on A (left multiplication, E),
for the Gram matrix ``G`` of the inner product on A's basis; so is the
Jones projection ``e_P`` of a compatible intermediate, from its
expectation ``F_P``, which preserves the inner product. The basic
construction ``M1 = <lambda(A), e>`` is realized as the linear span of
``lambda(m_j b) e lambda(m_k)*`` over an orthonormal module basis
``{m_j}`` (``E(m_j* m_k) = delta_jk p_j``) and a basis of B. Since
``e lambda(a) e = lambda(E(a)) e``, the pieces for different pairs
``(j, k)`` are mutually orthogonal and the pair ``(j, k)`` spans a copy of
``p_j B p_k``, so ``M1 = sum_{j,k} p_j B p_k`` as an orthogonal direct sum
(Watatani, 1990). One small thin SVD per pair gives M1's orthonormal basis
and the dual expectation's value table on it: the minimum-norm extension
of ``lambda(x) e lambda(y) -> index^{-1} x y``. The family itself is not
kept; evaluating the dual takes M1 coordinates, checks the residual and
contracts with the table.
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
        self.lambda_stack = self.lambda_many(source.big.basis)
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

    def lambda_of(self, m: np.ndarray) -> np.ndarray:
        """Matrix of left multiplication by ``m`` on the coordinates."""
        return self.lambda_many(np.asarray(m, dtype=complex)[None])[0]

    def lambda_many(self, stack: np.ndarray) -> np.ndarray:
        """``lambda_of`` of each matrix in a stack."""
        a = self.source.big
        n = a.ambient_dim
        stack = np.asarray(stack, dtype=complex)
        out = np.empty((len(stack), self.rep_dim, self.rep_dim), dtype=complex)
        for part in linalg.batches(len(stack), n * n, a.dim):
            products = stack[part, None] @ a.basis
            # mult[i, r, s]: coordinate r of stack[i] a_s
            mult = a.coords_many(products.reshape(-1, n, n)).reshape(-1, a.dim, a.dim)
            out[part] = self._on_module(np.swapaxes(mult, 1, 2))
        return out


def build(exp: CondExpectation, tol: Tolerances = DEFAULT_TOLERANCES) -> BasicConstruction:
    """Build the reduced basic construction and verify its identities.

    M1 is the span of ``lambda(m_j b) e lambda(m_k)*`` over the module
    basis ``{m_j}`` and a basis of B, an orthogonal sum of one block per
    pair ``(j, k)``. One batched thin SVD over the blocks gives M1's
    orthonormal basis and ``dual_table``, the dual expectation's values on
    that basis; the family is then dropped. ``lambda`` of the module basis
    and of B's basis is computed once and shared by the checks and the
    family. The span lies inside ``<lambda(A), e>`` by construction; the
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
    m1_basis, bc.dual_table = _minimum_norm_table(
        *_spanning_family(bc, lam_m, lam_b), d, tol
    )
    bc.m1 = StarAlgebra(d, m1_basis, tol)
    generators = np.concatenate([bc.lambda_stack, e_proj[None]])
    contains = bc.m1._max_span_residual(generators)
    if contains > tol.eq_tol:
        raise ConstructionError("M1 contains lambda(A) and e", contains)
    return bc


def _spanning_family(
    bc: BasicConstruction, lam_m: np.ndarray, lam_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """M1's spanning family, one block per module-basis pair, with its values.

    Block ``j * J + k`` holds ``lambda(m_j b_t) e lambda(m_k)*`` over B's
    basis ``b_t``, flattened to rows of length ``d^2``, and carries the
    prescribed values ``index^{-1} m_j b_t m_k*``; ``lam_m`` and ``lam_b``
    are ``lambda`` of the module basis and of B's basis. Blocks of different
    pairs are orthogonal: with ``e lambda(a) e = lambda(E(a)) e``, the
    inner product of two members reduces to ``E(m_j* m_j') = delta_jj' p_j``
    and ``E(m_k'* m_k) = delta_kk' p_k``.
    """
    b = bc.source.small
    module = bc.module_basis.elements
    module_h = np.conj(module.transpose(0, 2, 1))
    left = lam_m[:, None] @ lam_b[None]  # (j, t)
    right = bc.e_proj @ np.conj(lam_m.transpose(0, 2, 1))  # (k,)
    blocks = (left[:, None] @ right[None, :, None]).reshape(-1, b.dim, bc.rep_dim**2)
    pre = bc.index.inverse() @ module[:, None] @ b.basis[None]
    values = (pre[:, None] @ module_h[None, :, None]).reshape(-1, *b.basis.shape)
    return blocks, values


def _minimum_norm_table(
    blocks: np.ndarray, values: np.ndarray, d: int, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the span of mutually orthogonal ``blocks`` (each
    a stack of flattened ``d x d`` matrices) and the minimum-norm linear
    extension of ``values`` (one matrix per row) on it.

    With each block's thin SVD ``u diag(s) vh``, truncated at ``rank_tol``
    times the largest singular value of all blocks, the basis is
    ``sqrt(d) vh`` (orthonormal in the normalized Hilbert-Schmidt product)
    and its values are ``sqrt(d) diag(1/s) u^H values``, concatenated over
    the blocks. Orthogonal blocks make this the thin SVD of the whole family.
    The prescription is linear only if, on every block, it vanishes on the
    block's kernel, i.e. ``values = u u^H values``; otherwise this raises.
    """
    u, s, vh = np.linalg.svd(blocks, full_matrices=False)
    keep = s > tol.rank_tol * s.max()
    flat = values.reshape(*values.shape[:2], -1)
    coeffs = np.conj(np.swapaxes(u, 1, 2)) @ flat
    # a block whose u is square unitary is consistent with every prescription
    deficient = keep.sum(axis=1) < blocks.shape[1]
    if deficient.any():
        kept_u = u[deficient] * keep[deficient][:, None, :]
        drift = flat[deficient] - kept_u @ coeffs[deficient]
        inconsistency = max_op_norm(drift.reshape(-1, *values.shape[2:]), tol.eq_tol)
        if inconsistency > tol.eq_tol:
            raise ConstructionError("dual prescription consistency", inconsistency)
    basis = (vh[keep] * np.sqrt(d)).reshape(-1, d, d)
    table = (coeffs[keep] * (np.sqrt(d) / s[keep])[:, None]).reshape(-1, *values.shape[2:])
    return basis, table


class DualExpectation:
    """Expectation from M1 onto lambda(A), evaluated on M1's coordinates.

    Values are prescribed on a spanning family of M1 and extended by a
    minimum-norm solve, done once in ``build`` as the table of values on
    M1's orthonormal basis (an inconsistent prescription raises there).
    A call takes the argument's M1 coordinates ``c``, checks the residual
    of ``c`` against the argument, so an element outside M1 raises, and
    returns ``c`` contracted with the table: ``rank x d^2`` per argument.
    """

    def __init__(self, bc: BasicConstruction, tol: Tolerances = DEFAULT_TOLERANCES):
        self.bc = bc
        self._tol = tol
        lam_values = bc.lambda_many(bc.dual_table)
        self.expectation = CondExpectation(
            inclusion=Inclusion(big=bc.m1, small=bc.lambda_algebra),
            values=lam_values,
        )
        _verify_expectation_axioms(self.expectation, tol)

    def apply(self, t: np.ndarray) -> np.ndarray:
        """Value on an element of M1, returned inside the original big algebra."""
        return self.apply_many(np.asarray(t, dtype=complex)[None])[0]

    def apply_many(self, stack: np.ndarray) -> np.ndarray:
        m1 = self.bc.m1
        vecs = np.asarray(stack, dtype=complex).reshape(stack.shape[0], -1)
        coeffs = m1.coords_many(vecs)
        resid = np.linalg.norm(coeffs @ m1._flat - vecs, axis=1) / np.sqrt(m1.ambient_dim)
        worst = float(resid.max()) if resid.size else 0.0
        if worst > self._tol.eq_tol:
            raise ArgumentError(
                f"element is not in the basic construction's span (residual {worst:.3e})"
            )
        return np.tensordot(coeffs, self.bc.dual_table, axes=(1, 0))


def dual_expectation(
    bc: BasicConstruction, tol: Tolerances = DEFAULT_TOLERANCES
) -> DualExpectation:
    """Dual expectation of the construction, with its axioms verified."""
    return DualExpectation(bc, tol)


def theta(
    bc: BasicConstruction,
    x: np.ndarray,
    y: np.ndarray,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> np.ndarray:
    """Rank-one module operator ``lambda(x) e lambda(y)*``."""
    a = bc.source.big
    for name, m in (("x", x), ("y", y)):
        member, resid = a.contains(m, tol)
        if not member:
            raise ArgumentError(f"{name} is not in the big algebra (residual {resid:.3e})")
    return bc.lambda_of(x) @ bc.e_proj @ adjoint(bc.lambda_of(y))


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
