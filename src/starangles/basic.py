"""Concrete reduced basic construction for an inclusion B in A.

The big algebra, viewed as a ``d``-dimensional complex coordinate space
(``d = dim A``) under the inner product ``<x, y> = tr(E(x* y)) / n``,
carries left multiplication ``lambda(a)`` and the Jones projection ``e``
implementing the expectation. The basic construction ``M1 = <lambda(A), e>``
is realized as the linear span of ``lambda(m_j b) e lambda(m_k)*`` over a
module basis ``{m_j}`` and a basis of B. One thin SVD of that family gives
M1's orthonormal basis and the dual expectation's value table on it: the
minimum-norm extension of ``lambda(x) e lambda(y) -> index^{-1} x y``.
The family itself is not kept; evaluating the dual takes M1 coordinates,
checks the residual and contracts with the table.
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
        self.lambda_stack = np.stack([self.lambda_of(x) for x in source.big.basis])
        self.e_proj = gram_sqrt @ source.coefficient_matrix() @ gram_inv_sqrt
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

    def lambda_of(self, m: np.ndarray) -> np.ndarray:
        """Matrix of left multiplication by ``m`` on the coordinates."""
        a = self.source.big
        products = np.asarray(m, dtype=complex) @ a.basis
        mult = a.coords_many(products).T
        return self._gram_sqrt @ mult @ self._gram_inv_sqrt


def build(exp: CondExpectation, tol: Tolerances = DEFAULT_TOLERANCES) -> BasicConstruction:
    """Build the reduced basic construction and verify its identities.

    M1 is the span of ``lambda(m_j b) e lambda(m_k)*`` over the module
    basis ``{m_j}`` and a basis of B. One thin SVD of that family gives
    M1's orthonormal basis and ``dual_table``, the dual expectation's
    values on that basis; the family is then dropped. The span lies inside
    ``<lambda(A), e>`` by construction; the build checks that it contains
    every ``lambda(a)`` and ``e``, so the two algebras are equal.
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

    compress = max(
        op_norm(
            e_proj @ bc.lambda_stack[s] @ e_proj - bc.lambda_of(exp.values[s]) @ e_proj
        )
        for s in range(d)
    )
    if compress > tol.eq_tol:
        raise ConstructionError("e lambda(a) e = lambda(E(a)) e", compress)

    commutant = commutant_within(bc.lambda_algebra, [e_proj], tol)
    lambda_b = np.stack([bc.lambda_of(x) for x in b.basis])
    containment = commutant._max_span_residual(lambda_b)
    if commutant.dim != b.dim or containment > tol.eq_tol:
        raise ConstructionError(
            "relative commutant of e inside lambda(A) equals lambda(B)",
            max(containment, float(abs(commutant.dim - b.dim))),
        )

    cover = sum(
        bc.lambda_of(m) @ e_proj @ adjoint(bc.lambda_of(m)) for m in module.elements
    )
    cover_err = op_norm(cover - np.eye(d))
    if cover_err > tol.eq_tol:
        raise ConstructionError("sum of lambda(m_j) e lambda(m_j)* = 1", cover_err)

    m1_basis, bc.dual_table = _spanning_family(bc, tol)
    bc.m1 = StarAlgebra(d, m1_basis, tol)
    generators = np.concatenate([bc.lambda_stack, e_proj[None]])
    contains = bc.m1._max_span_residual(generators)
    if contains > tol.eq_tol:
        raise ConstructionError("M1 contains lambda(A) and e", contains)
    return bc


def _spanning_family(bc: BasicConstruction, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """M1's orthonormal basis and the dual expectation's values on it.

    The family ``lambda(m_j b_t) e lambda(m_k)*`` in the order ``(j, t, k)``
    carries the prescribed values ``index^{-1} m_j b_t m_k*``.
    """
    b = bc.source.small
    module = np.stack(bc.module_basis.elements)
    module_h = np.conj(module.transpose(0, 2, 1))
    lam_m = np.stack([bc.lambda_of(m) for m in module])
    lam_b = np.stack([bc.lambda_of(x) for x in b.basis])
    left = lam_m[:, None] @ lam_b[None]
    right = bc.e_proj @ np.conj(lam_m.transpose(0, 2, 1))
    rows = (left[:, :, None] @ right).reshape(-1, bc.rep_dim**2)
    pre = bc.index.inverse() @ module[:, None] @ b.basis[None]
    values = (pre[:, :, None] @ module_h).reshape(-1, *module.shape[1:])
    return _minimum_norm_table(rows, values, bc.rep_dim, tol)


def _minimum_norm_table(
    rows: np.ndarray, values: np.ndarray, d: int, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the span of ``rows`` (flattened ``d x d``
    matrices) and the minimum-norm linear extension of ``values`` on it.

    With the rank-truncated thin SVD ``rows = u diag(s) vh``, the basis is
    ``sqrt(d) vh`` (orthonormal in the normalized Hilbert-Schmidt product)
    and its values are ``sqrt(d) diag(1/s) u^H values``. The prescription
    is linear only if it vanishes on the family's kernel, i.e. if
    ``values = u u^H values``; otherwise this raises.
    """
    u, s, vh = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.sum(s > tol.rank_tol * s[0]))
    u = u[:, :rank]
    flat = values.reshape(len(values), -1)
    coeffs = adjoint(u) @ flat
    if rank < len(rows):  # a square unitary u makes every prescription consistent
        drift = (flat - u @ coeffs).reshape(values.shape)
        inconsistency = max_op_norm(drift, tol.eq_tol)
        if inconsistency > tol.eq_tol:
            raise ConstructionError("dual prescription consistency", inconsistency)
    basis = (vh[:rank] * np.sqrt(d)).reshape(rank, d, d)
    table = (coeffs * (np.sqrt(d) / s[:rank])[:, None]).reshape(rank, *values.shape[1:])
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
        lam_values = np.stack([bc.lambda_of(v) for v in bc.dual_table])
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
    module_basis: ModuleBasis | None = None,
) -> np.ndarray:
    """Jones projection of a compatible intermediate inside M1.

    Computed as ``sum_j lambda(mu_j) e lambda(mu_j)*`` over a quasi-basis
    of the restricted expectation; the result depends only on the
    compatible expectation, not on the quasi-basis chosen.
    """
    exp = bc.source
    if not (
        alg.same_span(ci.F.inclusion.big, exp.big, tol)
        and alg.same_span(ci.E_restricted.inclusion.small, exp.small, tol)
    ):
        raise ArgumentError("intermediate was built for a different inclusion")
    mb = module_basis if module_basis is not None else orthonormal_basis(ci.E_restricted, tol)
    e_p = sum(
        bc.lambda_of(mu) @ bc.e_proj @ adjoint(bc.lambda_of(mu)) for mu in mb.elements
    )
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
    action = max(
        float(np.linalg.norm(e_p @ bc.phi(x) - bc.phi(ci.F.apply(x))))
        for x in exp.big.basis
    )
    if action > tol.eq_tol:
        raise InvariantError(
            f"e_P does not act as the compatible expectation ({action:.3e})"
        )
    return e_p
