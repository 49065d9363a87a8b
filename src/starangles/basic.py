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
checked for every floor. The pairs are streamed in ``linalg.batches``:
each batch's blocks are built, factored and written into one preallocated
basis array, so the family is never held whole. For M1 the same factors
give the dual expectation's values on that basis, held by their
A-coordinates ``D`` (``dual_coords``): the minimum-norm extension of
``lambda(x) e lambda(y)* -> lambda(index^{-1} x y*)``. The dual is the
``CondExpectation`` with ``W = D C``, for ``C`` the lambda(A)-coordinates
of lambda of A's basis, so one application of ``E1`` goes through
lambda(A)'s coordinates; ``dual_in_algebra`` reads ``E1`` in A from ``D``
itself, with no lambda inverted.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import linalg
from .algebra import Inclusion, StarAlgebra
from .errors import ConstructionError
from .expectation import CondExpectation, _verify_faithful_state
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
        # D: row u is the A-coordinates of the dual expectation's value on M1's m_u
        self.dual_coords: np.ndarray | None = None

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

    def dual_in_algebra(self, stack: np.ndarray) -> np.ndarray:
        """``E1`` of each matrix in a stack of M1, read in A: the ``a`` with
        ``lambda(a) = E1(x)``, ``(flat(x) conj(M1_flat)^T / d) D A_flat``.

        The first factor is x's M1-coordinates and row u of ``D`` the
        A-coordinates of ``E1(m_u)``, so no lambda is inverted."""
        a = self.source.big
        flat = np.asarray(stack, dtype=complex).reshape(len(stack), -1)
        return (flat @ self._dual_reader @ a._flat).reshape(-1, a.ambient_dim, a.ambient_dim)

    @cached_property
    def _dual_reader(self) -> np.ndarray:
        """``conj(M1_flat)^T D / d`` (``d^2 x dim A``)."""
        # conjugating the small product keeps no conjugate copy of M1's basis
        return np.conj(self.m1._flat.T @ np.conj(self.dual_coords)) / self.rep_dim

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
    module basis and ``e``. ``dual_coords``, the A-coordinates ``D`` of the
    elements whose lambda are the dual expectation's values on M1's basis, is
    read off the block factors that built M1's basis.

    lambda(A) takes no closure check. ``lambda(a_i) = G^{1/2} L_i G^{-1/2}``,
    with ``L_i`` left multiplication by ``a_i`` on A, so A's closure gives
    ``lambda(a_i) lambda(a_j) = lambda(a_i a_j)``, and ``phi(x* a y) =
    phi((a* x)* y)`` gives ``lambda(a)* = lambda(a*)``, to A's own residuals.
    M1 takes none either, and its relative commutant identity is read off
    commutators (``floor_algebra``), so ``build`` checks no product closure at
    all.
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
    lambda_basis = linalg.orthonormal_span(bc.lambda_stack, tol)
    bc.lambda_algebra = StarAlgebra._closed_by_construction(d, lambda_basis, tol)
    bc.m1, u, s, keep = floor_algebra(bc, exp, module, bc.e_proj, tol)
    m, m_h = module.elements, np.conj(module.elements.transpose(0, 2, 1))
    pre = bc.index.inverse(tol) @ m[:, None] @ b.basis[None]
    values = (pre[:, None] @ m_h[None, :, None]).reshape(-1, *b.basis.shape)
    bc.dual_coords = a.coords_many(_minimum_norm_table(u, s, keep, values, d, tol))
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
    ``sum_j lambda(m_j) proj lambda(m_j)* = 1``. The third is read off the
    commutators ``[lambda(s_t), proj]`` over S's basis: given the first two it
    is the statement that lambda(S) commutes with ``proj``. As 1 lies in S,
    the first gives ``proj 1^ = 1^`` for the vector ``1^`` of the unit. If
    ``lambda(a)`` commutes with ``proj``, the second gives ``lambda(a) proj =
    proj lambda(a) proj = lambda(F(a)) proj``, which applied to ``1^`` is
    ``(a - F(a))^ = 0``; the state is faithful, so ``a = F(a)`` lies in S.
    So ``{proj}' in lambda(A)`` lies in lambda(S), and the commutators give
    the reverse inclusion. The lemmas here and in ``dual_expectation`` use
    only that lambda(S) commutes with ``proj``. The pair blocks and their
    thin SVDs, streamed in batches (``_pair_basis``), give the algebra's
    orthonormal basis; the span lies inside ``<lambda(A), proj>`` and is
    checked to contain every ``lambda(a)`` and ``proj``, so the two are
    equal. Returns the algebra and the block factors ``u, s, keep``.

    The second and third identities close the span, so it takes no closure
    check (``StarAlgebra._closed_by_construction``). With lambda a
    *-homomorphism (``build``), F's values in S (``apply_many``) and
    ``x_jk(s) = lambda(m_j s) proj lambda(m_k)*``, the second gives
    ``x_jk(s) x_j'k'(s') = x_jk'(s F(m_k* m_j' s'))``, and lambda(S)
    commuting with ``proj`` gives ``x_jk(s)* = x_kj(s*)``. In floating point
    a product is off the pair span by ``lambda(m_j s) R lambda(m_k')*``, R the
    second identity's defect on ``m_k* m_j' s'``, an adjoint by
    ``lambda(m_k) [proj, lambda(s*)] lambda(m_j)*``, and the ``_pair_basis`` cut
    moves ``x_jk(s)`` by at most ``rank_tol s_max |coords(s)|``, for the
    largest singular value ``s_max``. A basis element is one block's pair
    elements over a kept singular value, so basis pairs see these over two.
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
    commute = max_op_norm(lam_s @ proj - proj @ lam_s, tol.eq_tol)
    if commute > tol.eq_tol:
        raise ConstructionError(
            "relative commutant of e inside lambda(A) equals lambda(B)", commute
        )

    cover = (lam_m @ proj @ np.conj(lam_m.transpose(0, 2, 1))).sum(axis=0)
    cover_err = op_norm(cover - np.eye(bc.rep_dim))
    if cover_err > tol.eq_tol:
        raise ConstructionError("sum of lambda(m_j) e lambda(m_j)* = 1", cover_err)

    basis, u, s, keep = _pair_basis(lam_m, lam_s, proj, tol)
    algebra = StarAlgebra._closed_by_construction(bc.rep_dim, basis, tol)
    contains = algebra._max_span_residual(np.concatenate([bc.lambda_stack, proj[None]]))
    if contains > tol.eq_tol:
        raise ConstructionError("M1 contains lambda(A) and e", contains)
    return algebra, u, s, keep


def _pair_basis(lam_m: np.ndarray, lam_s: np.ndarray, proj: np.ndarray, tol: Tolerances):
    """Orthonormal basis ``sqrt(d) vh`` of the span of the pair blocks
    ``lambda(m_j s_t) proj lambda(m_k)*`` (block ``j * J + k``, over S's basis
    ``s_t``), from each block's thin SVD ``u diag(s) vh`` truncated at
    ``rank_tol`` times the largest ``s`` of all blocks (``keep``). Returns
    ``(basis, u, s, keep)``.

    ``lam_m`` and ``lam_s`` are lambda of an orthonormal module basis of an
    expectation F onto S and of S's basis, ``proj`` is F's Jones projection.
    As ``proj lambda(a) proj = lambda(F(a)) proj`` and
    ``F(m_j* m_j') = delta_jj' p_j``, blocks of different pairs are orthogonal,
    so the blocks' SVDs together are the whole family's thin SVD. Each block's
    SVD is independent of the others, so the pairs go through
    ``linalg.batches``: a batch's blocks are built and factored, and their rows
    written into one preallocated basis array. The blocks are products on views
    of the two factors, written into one buffer that every batch reuses, so a
    batch allocates only its SVD's output. The cut needs every block's singular
    values, so rows it drops are taken out afterwards, by one copy of the kept
    rows that frees the full array.
    """
    count, size, d = len(lam_m), len(lam_s), proj.shape[0]  # J, dim S, d
    left = lam_m[:, None] @ lam_s[None]  # (j, t)
    right = proj @ np.conj(lam_m.transpose(0, 2, 1))  # (k,)
    basis = np.empty((count * count * size, d * d), dtype=complex)
    vt = np.empty((count * count, size, size), dtype=complex)
    s = np.empty((count * count, size))
    buffer = None  # the first batch is the largest
    for part in linalg.batches(count * count, d * d, size):
        if buffer is None:
            buffer = np.empty((part.stop - part.start, size, d, d), dtype=complex)
        blocks = buffer[: part.stop - part.start]
        # a batch is a run of pairs j * J + k: one product per j, on views of the factors
        for j in range(part.start // count, (part.stop - 1) // count + 1):
            lo, hi = max(part.start, j * count), min(part.stop, (j + 1) * count)
            np.matmul(
                left[j], right[lo - j * count : hi - j * count, None],
                out=blocks[lo - part.start : hi - part.start],
            )
        # SVD of each block's tall transpose: blocks = vt^T diag(s) ut^T
        flat = np.swapaxes(blocks.reshape(-1, size, d * d), 1, 2)
        ut, s[part], vt[part] = np.linalg.svd(flat, full_matrices=False)
        rows = slice(part.start * size, part.stop * size)
        basis[rows].reshape(-1, size, d * d)[:] = np.swapaxes(ut, 1, 2)
    keep = s > tol.rank_tol * s.max()
    if not keep.all():
        basis = basis[keep.ravel()]
    basis *= np.sqrt(d)
    return basis.reshape(-1, d, d), np.swapaxes(vt, 1, 2), s, keep


def _minimum_norm_table(
    u: np.ndarray, s: np.ndarray, keep: np.ndarray, values: np.ndarray, d: int, tol: Tolerances
) -> np.ndarray:
    """The minimum-norm linear extension of ``values`` (one matrix per family
    member) on the basis ``_pair_basis`` read off the factors ``u, s, keep``:
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
    """The dual expectation ``E1: M1 -> lambda(A)``,
    ``lambda(x) e lambda(y)* -> lambda(Ind^{-1} x y*)`` (Watatani, Mem. AMS 424,
    1990), certified by identities that ``build`` has checked; only its state's
    faithfulness is checked here.

    Its values are lambda of the minimum-norm extension of that prescription
    on the pair family ``x_jk(s) = lambda(m_j s) e lambda(m_k)*``, whose
    A-coordinates ``build`` keeps (``dual_coords``, ``D``); lambda is linear,
    so they are ``D`` times ``lambda_stack``, and ``W = D C`` for ``C`` the
    lambda(A)-coordinates of ``lambda_stack`` (``CondExpectation._spanned``).
    ``_minimum_norm_table``'s consistency check, block by block as the
    compression identity ``e lambda(a) e = lambda(E(a)) e`` makes the pair
    blocks orthogonal, makes it a linear map T on M1. The module basis is an
    exact quasi-basis, ``x = sum_i m_i E(m_i* x)`` (``orthonormal_basis``),
    and lambda(B) commutes with e (``floor_algebra``'s relative commutant,
    checked as exactly that commutator), so
    ``lambda(x) e lambda(y)* = sum_ik x_ik(E(m_i* x) E(m_k* y)*)`` and
    ``T(lambda(x) e lambda(y)*) = Ind^{-1} x y*`` for all x, y in A.
    ``watatani_index`` has checked that Ind is self-adjoint, central and
    invertible. The six axioms follow one at a time:

    - range: the values are lambda of A-coordinates (``lambda_stack``);
    - fixes lambda(A): by the cover identity ``sum_j lambda(m_j) e
      lambda(m_j)* = 1`` (``floor_algebra``),
      ``lambda(a) = sum_j lambda(a m_j) e lambda(m_j)* -> lambda(Ind^{-1} a Ind)
      = lambda(a)``, as Ind is central;
    - unitality and idempotency follow from range and fixes, as
      ``1 = lambda(1)``;
    - adjoint: ``lambda(y) e lambda(x)* -> lambda(Ind^{-1} y x*)``, which is
      ``lambda(Ind^{-1} x y*)*`` as Ind is self-adjoint and central;
    - bimodule: ``lambda(a) lambda(x) e lambda(y)* = lambda(a x) e lambda(y)*``
      and ``Ind`` central give ``E1(lambda(a) z) = lambda(a) E1(z)``, and the
      right side alike, with lambda a *-homomorphism (``build``).

    With the six axioms, ``lambda_min(rho) > rank_tol`` decides that E1 is
    positive and faithful (``expectation._state_min_eigenvalue``). In floating
    point each axiom holds to the residuals checked: the module basis'
    reconstruction residual and the cover identity's enter "fixes" times
    ``|a|``; the consistency residual and the ``_pair_basis`` cut, which moves
    a family member by at most ``rank_tol s_max`` times its coordinates, bound
    how far T is from the prescription on the family; Ind's self-adjointness
    and centrality residuals, times ``|Ind^{-1}| = 1 / lambda_min(Ind)``,
    enter "adjoint", "bimodule" and "fixes".
    """
    lam = bc.lambda_algebra
    dual = CondExpectation._spanned(
        Inclusion(big=bc.m1, small=lam, tol=tol), bc.dual_coords @ lam.coords_many(bc.lambda_stack)
    )
    _verify_faithful_state(dual, tol)
    return dual
