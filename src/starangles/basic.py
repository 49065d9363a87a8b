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
expectation F of A onto S, is the basic construction of S in A (Watatani,
1990): M1 for E and B, a first-floor algebra ``P1`` for ``F_P`` and P.
``_check_floor`` checks the three identities it rests on for every floor.
Its basis (``floor_algebra``) is the linear span of
``lambda(m_j s) e_F lambda(m_k)*`` over an orthonormal module basis
``{m_j}`` of F (``F(m_j* m_k) = delta_jk p_j``) and a basis of S. Since
``e_F lambda(a) e_F = lambda(F(a)) e_F``, the pieces for different pairs
``(j, k)`` are mutually orthogonal and the pair ``(j, k)`` spans a copy of
``p_j S p_k``, an orthogonal direct sum. One small thin SVD per pair gives
the algebra's orthonormal basis. The pairs are streamed in
``linalg.batches``: each batch's blocks are built, factored and written into
one preallocated basis array, so the family is never held whole.

``build`` checks M1's identities and builds no basis of it: ``m1`` is built
when first read, by ``dual_expectation`` or ``dim_m1``. The dual expectation
is read by the Pimsner-Popa push-down lemma: every x in M1 is
``sum_j lambda(b_j) e lambda(m_j)*`` for the ``b_j`` in A whose vectors are
``x phi(m_j)``, and ``E1(x) = lambda(Ind^{-1} sum_j b_j m_j*)``. That is
linear in x and reads only the module basis: ``dual_in_algebra`` reads
``E1`` in A through one ``d^2 x dim A`` matrix R, ``m1_residual`` decides
membership in M1 by the same identity, and the dual is the
``CondExpectation`` with ``W = (M1_flat R) C``, for ``C`` the
lambda(A)-coordinates of lambda of A's basis.
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
    """Matrix realization of lambda(A), e, M1 and the index data.

    M1's basis is built when first read (``m1``); ``dual_in_algebra`` and
    ``m1_residual`` read M1 by the push-down lemma, with no basis of it."""

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
        # set by build: its tolerances, and lambda of the module basis and of B's basis
        self._tol: Tolerances | None = None
        self._lam_m: np.ndarray | None = None
        self._lam_b: np.ndarray | None = None

    @cached_property
    def m1(self) -> StarAlgebra:
        """M1's orthonormal basis, built on first read from the identities ``build``
        checked (``floor_algebra``'s basis step)."""
        return _floor_basis(self, self._lam_m, self._lam_b, self.e_proj, self._tol)

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

    def m1_residual(self, x: np.ndarray) -> float:
        """``|x - sum_j lambda(b_j) e lambda(m_j)*|`` for the ``b_j`` in A whose
        vectors are ``x phi(m_j)``: zero exactly when x lies in M1, by the
        push-down lemma (``dual_expectation``). It reads only the module basis."""
        b = self._gram_inv_sqrt @ x @ self._module_vectors  # column j: coords_A(b_j)
        lam_b = np.tensordot(b.T, self.lambda_stack, axes=(1, 0))
        pushed = (lam_b @ self.e_proj @ np.conj(self._lam_m.transpose(0, 2, 1))).sum(axis=0)
        return op_norm(x - pushed)

    def dual_in_algebra(self, stack: np.ndarray) -> np.ndarray:
        """``E1`` of each matrix in a stack of M1, read in A: the ``a`` with
        ``lambda(a) = E1(x)``, ``flat(x) R A_flat`` for the push-down reader R,
        so no lambda is inverted and no basis of M1 is read."""
        a = self.source.big
        flat = np.asarray(stack, dtype=complex).reshape(len(stack), -1)
        return (flat @ self._dual_reader @ a._flat).reshape(-1, a.ambient_dim, a.ambient_dim)

    @cached_property
    def _dual_reader(self) -> np.ndarray:
        """R (``d^2 x dim A``): ``flat(x) R`` is the A-coordinates of
        ``E1(x) = Ind^{-1} sum_j b_j m_j*``, with ``coords_A(b_j) = G^{-1/2} x phi(m_j)``.

        ``R[(p, q), r] = sum_{s, j} G^{-1/2}[s, p] Phi[q, j] T[j, s, r]``, for
        ``Phi[:, j] = phi(m_j)`` and ``T[j, s]`` the A-coordinates of
        ``Ind^{-1} a_s m_j*``: ``J dim A`` products in A, one ``coords_many`` and
        two contractions of ``d^4`` multiply-adds."""
        a, m = self.source.big, self.module_basis.elements
        n, d = a.ambient_dim, self.rep_dim
        m_h = np.conj(m.transpose(0, 2, 1))
        products = self.index.inverse(self._tol) @ a.basis[None] @ m_h[:, None]  # (j, s)
        t = a.coords_many(products.reshape(-1, n, n)).reshape(len(m), d, d)
        over_j = np.tensordot(self._module_vectors, t, axes=(1, 0))  # (q, s, r)
        return np.tensordot(self._gram_inv_sqrt, over_j, axes=(0, 1)).reshape(d * d, d)

    @cached_property
    def _module_vectors(self) -> np.ndarray:
        """``Phi`` (``d x J``): column j is ``phi(m_j)``, the vector of the j-th module
        basis element."""
        return self._gram_sqrt @ self.source.big.coords_many(self.module_basis.elements).T

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

    ``e`` is ``jones_projection(E)``, and M1's identities are ``_check_floor``'s
    for E, its module basis and ``e``: they are the push-down lemma's hypotheses
    (``dual_expectation``). M1's basis is not built here, but on first read of
    ``m1``.

    lambda(A) takes no closure check. ``lambda(a_i) = G^{1/2} L_i G^{-1/2}``,
    with ``L_i`` left multiplication by ``a_i`` on A, so A's closure gives
    ``lambda(a_i) lambda(a_j) = lambda(a_i a_j)``, and ``phi(x* a y) =
    phi((a* x)* y)`` gives ``lambda(a)* = lambda(a*)``, to A's own residuals.
    M1 takes none either (``floor_algebra``), so ``build`` checks no product
    closure at all.
    """
    a = exp.big
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
    bc.lambda_algebra = StarAlgebra._closed_by_construction(a.dim, lambda_basis, tol)
    bc._tol = tol
    bc._lam_m, bc._lam_b = _check_floor(bc, exp, module, bc.e_proj, tol)
    return bc


def _check_floor(bc: BasicConstruction, f: CondExpectation, module: ModuleBasis, proj, tol):
    """The identities of ``<lambda(A), proj>`` for a state-preserving expectation
    F of A onto S, an orthonormal module basis ``{m_j}`` of F and ``proj``, F's
    Jones projection: M1's for E, B and ``e``; ``P1``'s for ``F_P``, P and ``e_P``.
    Returns lambda of the module basis and of S's basis.

    Three identities are checked, under M1's names (``e`` for ``proj``, B for
    S): ``proj`` fixes S's coordinates, the compression identity
    ``proj lambda(a) proj = lambda(F(a)) proj`` on A's basis, and the cover
    identity ``sum_j lambda(m_j) proj lambda(m_j)* = 1``.

    They imply that lambda(S) commutes with ``proj``. For s in S, F(s) = s, so
    the compression identity on s gives ``lambda(s) proj = proj lambda(s) proj``,
    and on ``s*`` ``proj lambda(s*) proj = lambda(s*) proj``, whose adjoint is
    ``proj lambda(s) proj = proj lambda(s)`` as ``proj`` is self-adjoint and
    ``lambda(s*) = lambda(s)*`` (``build``). In floating point, with ``delta``
    the compression residual checked on A's basis (operator norm),
    ``|[lambda(s), proj]| <= delta (|c(s)|_1 + |c(s*)|_1) + |s - F(s)| +
    |s* - F(s*)|``, for ``c`` the A-coordinates and ``|s - F(s)|`` F's "fixes"
    residual on S (lambda is isometric).

    So the relative commutant of ``proj`` in lambda(A) is lambda(S). As 1 lies
    in S, the first identity gives ``proj 1^ = 1^`` for the vector ``1^`` of
    the unit. If ``lambda(a)`` commutes with ``proj``, the compression identity
    gives ``lambda(a) proj = proj lambda(a) proj = lambda(F(a)) proj``, which
    applied to ``1^`` is ``(a - F(a))^ = 0``; the state is faithful, so
    ``a = F(a)`` lies in S. The commutation above is the reverse inclusion.
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
    cover = (lam_m @ proj @ np.conj(lam_m.transpose(0, 2, 1))).sum(axis=0)
    cover_err = op_norm(cover - np.eye(bc.rep_dim))
    if cover_err > tol.eq_tol:
        raise ConstructionError("sum of lambda(m_j) e lambda(m_j)* = 1", cover_err)
    return lam_m, bc.lambda_many(small.basis)


def floor_algebra(
    bc: BasicConstruction,
    f: CondExpectation,
    module: ModuleBasis,
    proj: np.ndarray,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> StarAlgebra:
    """``<lambda(A), proj>`` for a state-preserving expectation F of A onto S,
    an orthonormal module basis ``{m_j}`` of F and ``proj``, F's Jones
    projection: M1 for E, B and ``e``; ``P1`` for ``F_P``, P and ``e_P``.

    ``_check_floor`` checks its identities, then ``_floor_basis`` builds its
    basis: the pair blocks and their thin SVDs, streamed in batches
    (``_pair_basis``), give an orthonormal basis of a span that lies inside
    ``<lambda(A), proj>`` and is checked to contain every ``lambda(a)`` and
    ``proj``, so the two are equal.

    The compression identity and lambda(S) commuting with ``proj`` (derived in
    ``_check_floor``) close the span, so it takes no closure check
    (``StarAlgebra._closed_by_construction``). With lambda a *-homomorphism
    (``build``), F's values in S (``apply_many``) and
    ``x_jk(s) = lambda(m_j s) proj lambda(m_k)*``, the compression identity
    gives ``x_jk(s) x_j'k'(s') = x_jk'(s F(m_k* m_j' s'))``, and the
    commutation gives ``x_jk(s)* = x_kj(s*)``. In floating point a product is
    off the pair span by ``lambda(m_j s) R lambda(m_k')*``, R the compression
    identity's defect on ``m_k* m_j' s'``, an adjoint by
    ``lambda(m_k) [proj, lambda(s*)] lambda(m_j)*``, bounded in
    ``_check_floor``, and the ``_pair_basis`` cut moves ``x_jk(s)`` by at most
    ``rank_tol s_max |coords(s)|``, for the largest singular value ``s_max``. A
    basis element is one block's pair elements over a kept singular value, so
    basis pairs see these over two.
    """
    return _floor_basis(bc, *_check_floor(bc, f, module, proj, tol), proj, tol)


def _floor_basis(bc: BasicConstruction, lam_m, lam_s, proj, tol: Tolerances) -> StarAlgebra:
    """The floor algebra on ``_pair_basis``'s basis, checked to contain lambda(A)
    and ``proj``."""
    basis = _pair_basis(lam_m, lam_s, proj, tol)
    algebra = StarAlgebra._closed_by_construction(bc.rep_dim, basis, tol)
    contains = algebra._max_span_residual(np.concatenate([bc.lambda_stack, proj[None]]))
    if contains > tol.eq_tol:
        raise ConstructionError("M1 contains lambda(A) and e", contains)
    return algebra


def _pair_basis(lam_m: np.ndarray, lam_s: np.ndarray, proj: np.ndarray, tol: Tolerances):
    """Orthonormal basis ``sqrt(d) vh`` of the span of the pair blocks
    ``lambda(m_j s_t) proj lambda(m_k)*`` (block ``j * J + k``, over S's basis
    ``s_t``), from each block's thin SVD ``u diag(s) vh`` truncated at
    ``rank_tol`` times the largest ``s`` of all blocks.

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
        ut, s[part], _ = np.linalg.svd(flat, full_matrices=False)
        rows = slice(part.start * size, part.stop * size)
        basis[rows].reshape(-1, size, d * d)[:] = np.swapaxes(ut, 1, 2)
    keep = s > tol.rank_tol * s.max()
    if not keep.all():
        basis = basis[keep.ravel()]
    basis *= np.sqrt(d)
    return basis.reshape(-1, d, d)


def dual_expectation(
    bc: BasicConstruction, tol: Tolerances = DEFAULT_TOLERANCES
) -> CondExpectation:
    """The dual expectation ``E1: M1 -> lambda(A)`` (Watatani, Mem. AMS 424,
    1990), read by the Pimsner-Popa push-down lemma (Ann. Sci. ENS 19, 1986,
    Lemma 1.2) and certified by identities that ``build`` has checked; only its
    state's faithfulness is checked here.

    The lemma. M1 is spanned by the ``lambda(x) e lambda(y)*`` (``floor_algebra``,
    whose closure uses that lambda(B) commutes with e, derived in
    ``_check_floor``), and ``e lambda(a) e = lambda(E(a)) e`` gives
    ``lambda(x) e lambda(y)* e = lambda(x E(y*)) e``, so ``M1 e = lambda(A) e``.
    By the cover identity ``sum_j lambda(m_j) e lambda(m_j)* = 1``, every x in
    M1 is ``sum_j x lambda(m_j) e lambda(m_j)* = sum_j lambda(b_j) e
    lambda(m_j)*``, with ``x lambda(m_j) e = lambda(b_j) e``; applied to the
    vector ``1^`` of the unit, which e fixes as 1 lies in B, this reads
    ``phi(b_j) = x phi(m_j)``, which fixes ``b_j`` as the state is faithful.
    Each term lies in M1, so ``m1_residual`` is zero exactly on M1. Set
    ``E1(x) = lambda(Ind^{-1} sum_j b_j m_j*)``, linear in x. On
    ``x = lambda(u) e lambda(y)*``, ``x lambda(m_j) e = lambda(u E(y* m_j)) e``,
    and the module basis is an exact quasi-basis, ``y = sum_j m_j E(m_j* y)``
    (``orthonormal_basis``), so ``sum_j E(y* m_j) m_j* = y*`` and
    ``E1(lambda(u) e lambda(y)*) = lambda(Ind^{-1} u y*)``: Watatani's
    prescription. ``dual_in_algebra``'s reader R holds the map in A's
    coordinates, and ``W = (M1_flat R) C`` for ``C`` the lambda(A)-coordinates
    of ``lambda_stack`` (``CondExpectation._spanned``).

    ``watatani_index`` has checked that Ind is self-adjoint, central and
    invertible. The six axioms follow one at a time:

    - range: the values are lambda of elements of A (``lambda_stack``);
    - fixes lambda(A): for ``x = lambda(a)``, ``b_j`` has vector
      ``phi(a m_j)``, so ``b_j = a m_j`` and
      ``E1(lambda(a)) = lambda(Ind^{-1} a Ind) = lambda(a)``, as Ind is central;
    - unitality and idempotency follow from range and fixes, as
      ``1 = lambda(1)``;
    - adjoint: ``lambda(y) e lambda(u)* -> lambda(Ind^{-1} y u*)``, which is
      ``lambda(Ind^{-1} u y*)*`` as Ind is self-adjoint and central;
    - bimodule: ``b_j(lambda(a) x) = a b_j(x)`` and Ind central give
      ``E1(lambda(a) x) = lambda(a) E1(x)``; on the right,
      ``a m_j = sum_k m_k E(m_k* a m_j)`` and e fixing B's vectors give
      ``b_j(x lambda(a)) = sum_k b_k(x) E(m_k* a m_j)``, whose sum against
      ``m_j*`` is ``sum_k b_k m_k* a``, so ``E1(x lambda(a)) = E1(x) lambda(a)``;
      lambda is a *-homomorphism (``build``).

    With the six axioms, ``lambda_min(rho) > rank_tol`` decides that E1 is
    positive and faithful (``expectation._state_min_eigenvalue``). In floating
    point each axiom holds to the residuals checked: the cover identity's
    residual bounds how far x is from its push-down sum, times ``|x|``; the
    compression residual enters ``M1 e = lambda(A) e``; the module basis'
    reconstruction residual enters the prescription, "fixes" and the right
    module; Ind's self-adjointness and centrality residuals, times
    ``|Ind^{-1}| = 1 / lambda_min(Ind)``, enter "adjoint", "bimodule" and
    "fixes".
    """
    lam = bc.lambda_algebra
    w = (bc.m1._flat @ bc._dual_reader) @ lam.coords_many(bc.lambda_stack)
    dual = CondExpectation._spanned(Inclusion(big=bc.m1, small=lam, tol=tol), w)
    _verify_faithful_state(dual, tol)
    return dual
