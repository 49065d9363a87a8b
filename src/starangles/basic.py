"""Concrete reduced basic construction for an inclusion B in A.

The big algebra, viewed as a ``d``-dimensional complex coordinate space
(``d = dim A``) under the inner product ``<x, y> = tr(E(x* y)) / n``,
carries left multiplication ``lambda(a)`` and Jones projections: each is
the image ``G^{1/2} X G^{-1/2}`` of the coordinate matrix ``X`` of a linear
map on A, for the Gram matrix ``G`` of the inner product on A's basis.
``jones_projection`` is that map for an expectation, ``e`` for E and
``e_P`` for the compatible expectation ``F_P`` of an intermediate. Products
are taken only on A's basis, once per construction: lambda is linear, so
lambda of any element is its A-coordinates times that stack.

Every floor algebra ``<lambda(A), e_F>``, for a state-preserving
expectation F of A onto S, is built by ``floor_algebra``: M1 for E and B,
a first-floor algebra ``P1`` for ``F_P`` and P, the basic construction of
P in A (Watatani, 1990). It is the linear span of
``lambda(m_j s) e_F lambda(m_k)*`` over an orthonormal module basis
``{m_j}`` of F (``F(m_j* m_k) = delta_jk p_j``) and a basis of S. Since
``e_F lambda(a) e_F = lambda(F(a)) e_F``, the pieces for different pairs
``(j, k)`` are mutually orthogonal and the pair ``(j, k)`` spans a copy of
``p_j S p_k``, an orthogonal direct sum. One small thin SVD per pair gives
the algebra's orthonormal basis, after the same four identities are
checked for every floor. For M1 the same factors give the dual
expectation's value table on that basis: the minimum-norm extension of
``lambda(x) e lambda(y) -> index^{-1} x y``. The family itself is not kept;
the dual is the ``CondExpectation`` with lambda of that table as its
values, so one application of ``E1`` goes through lambda(A)'s coordinates
like every other expectation of the tower.
"""

from __future__ import annotations

import numpy as np

from . import algebra as alg
from . import linalg
from .algebra import Inclusion, StarAlgebra, commutant_within
from .errors import ConstructionError
from .expectation import CondExpectation, _verify_expectation_axioms, _verify_faithful_state
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
        self.e_proj: np.ndarray | None = None
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

    def jones_projection(
        self, f: CondExpectation, tol: Tolerances = DEFAULT_TOLERANCES
    ) -> np.ndarray:
        """Jones projection ``G^{1/2} [F] G^{-1/2}`` of an expectation F on A,
        checked to be a projection.

        ``[F] = coords_A(F(a_s))^T`` is F's matrix on the construction's basis
        of A, whatever basis F's own table is indexed by. ``e`` is this map
        for E, and ``e_P`` for the compatible expectation ``F_P``; for a
        state-preserving F it equals ``sum_j lambda(mu_j) e lambda(mu_j)*``
        for every quasi-basis ``{mu_j}`` of the restriction of E to P.
        """
        a = self.source.big
        proj = self._on_module(a.coords_many(f.apply_many(a.basis)).T)
        err = max(op_norm(proj @ proj - proj), op_norm(adjoint(proj) - proj))
        if err > tol.eq_tol:
            raise ConstructionError("jones projection idempotency", err)
        return proj

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

    ``e`` is ``jones_projection(E)``, and M1 is ``floor_algebra`` for E, its
    module basis and ``e``. ``dual_table``, the dual expectation's values on
    M1's basis, is read off the block factors that built M1's basis.
    """
    a, b = exp.big, exp.small
    d = a.dim

    _verify_faithful_state(exp, tol)  # E may come unverified; later steps misreport it
    module = orthonormal_basis(exp, tol)
    index = watatani_index(module, tol)

    gram = exp.state_gram(a, a)
    gram = (gram + adjoint(gram)) / 2.0
    gram_sqrt = linalg.psd_calculus(gram, "sqrt", tol)
    gram_inv_sqrt = linalg.psd_calculus(gram, "pinv_sqrt", tol)

    bc = BasicConstruction(exp, module, index, gram_sqrt, gram_inv_sqrt)
    bc.e_proj = bc.jones_projection(exp, tol)
    bc.lambda_algebra = alg.from_span(d, list(bc.lambda_stack), tol)
    bc.m1, u, s, keep = floor_algebra(bc, exp, module, bc.e_proj, tol)
    m, m_h = module.elements, np.conj(module.elements.transpose(0, 2, 1))
    pre = bc.index.inverse() @ m[:, None] @ b.basis[None]
    values = (pre[:, None] @ m_h[None, :, None]).reshape(-1, *b.basis.shape)
    bc.dual_table = _minimum_norm_table(u, s, keep, values, d, tol)
    return bc


def floor_algebra(
    bc: BasicConstruction,
    f: CondExpectation,
    module: ModuleBasis,
    proj: np.ndarray,
    tol: Tolerances = DEFAULT_TOLERANCES,
):
    """``<lambda(A), proj>`` for a state-preserving expectation F of A onto S,
    an orthonormal module basis ``{m_j}`` of F and ``proj``, F's Jones
    projection: M1 for E, B and ``e``; ``P1`` for ``F_P``, P and ``e_P``.

    Four identities are checked first, under M1's names (``e`` for ``proj``,
    B for S): ``proj`` fixes S's coordinates,
    ``proj lambda(a) proj = lambda(F(a)) proj``, the relative commutant of
    ``proj`` in lambda(A) is lambda(S), and
    ``sum_j lambda(m_j) proj lambda(m_j)* = 1``. The pair blocks
    (``_pair_blocks``) and their batched thin SVD (``_block_svd``) give the
    algebra's orthonormal basis; the span lies inside ``<lambda(A), proj>``
    and is checked to contain every ``lambda(a)`` and ``proj``, so the two
    are equal. Returns the algebra and the block factors ``u, s, keep``.
    """
    a, small = bc.source.big, f.small
    fix = max(float(np.linalg.norm(proj @ bc.phi(x) - bc.phi(x))) for x in small.basis)
    if fix > tol.eq_tol:
        raise ConstructionError("e fixes the small algebra's coordinates", fix)

    lam_f = bc.lambda_many(f.apply_many(a.basis))
    compress = max_op_norm(proj @ bc.lambda_stack @ proj - lam_f @ proj, tol.eq_tol)
    if compress > tol.eq_tol:
        raise ConstructionError("e lambda(a) e = lambda(E(a)) e", compress)

    lam_m = bc.lambda_many(module.elements)
    lam_s = bc.lambda_many(small.basis)
    commutant = commutant_within(bc.lambda_algebra, [proj], tol)
    containment = commutant._max_span_residual(lam_s)
    if commutant.dim != small.dim or containment > tol.eq_tol:
        raise ConstructionError(
            "relative commutant of e inside lambda(A) equals lambda(B)",
            max(containment, float(abs(commutant.dim - small.dim))),
        )

    cover = (lam_m @ proj @ np.conj(lam_m.transpose(0, 2, 1))).sum(axis=0)
    cover_err = op_norm(cover - np.eye(bc.rep_dim))
    if cover_err > tol.eq_tol:
        raise ConstructionError("sum of lambda(m_j) e lambda(m_j)* = 1", cover_err)

    # unbound, so the family is freed before the algebra's closure checks run
    basis, u, s, keep = _block_svd(_pair_blocks(lam_m, lam_s, proj), tol)
    algebra = StarAlgebra(bc.rep_dim, basis, tol)
    contains = algebra._max_span_residual(np.concatenate([bc.lambda_stack, proj[None]]))
    if contains > tol.eq_tol:
        raise ConstructionError("M1 contains lambda(A) and e", contains)
    return algebra, u, s, keep


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
