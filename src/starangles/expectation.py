"""Conditional expectations on inclusions of matrix *-algebras.

An expectation is its basis-value table. Applying it goes through B's
coordinates: on first use the map ``K`` (``n^2 x dim B``) from a flattened
argument to the B-coordinates of its image is cached, so a call costs
``2 n^2 dim B`` per argument and returns a value exactly in span(B); the
table must not be mutated after the first apply. The state it induces,
``phi = tr o E / n``, is read off the table as a density ``rho`` in the big
algebra, ``phi(x) = tr(rho x) / n``. ``trace_preserving`` builds
the Hilbert-Schmidt projection (``rho = 1``); custom tables need no label.
The compatible expectation onto an intermediate is the ``phi``-orthogonal
projection onto it.

Every expectation built passes one axiom check; bimodularity is checked
as left and right modularity on basis pairs, exhaustively up to a budget
and on a seeded sample of that size above it (``verify`` reports coverage).
Each residual is a maximum over ``linalg.batches``: no table-sized temporary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import Inclusion, StarAlgebra
from .errors import ArgumentError, ConstructionError, IncompatibilityError
from .linalg import DEFAULT_TOLERANCES, Tolerances, adjoint, batches, max_op_norm, op_norm


@dataclass(frozen=True)
class CondExpectation:
    """Linear idempotent bimodule map ``E: A -> B`` packaged with its inclusion.

    ``values[s]`` is the image of the s-th basis element of the big
    algebra. Applying ``E`` is ``E(x) = (flat(x) K) flat(B)`` with
    ``K = conj(A_flat)^T W / n`` and ``W = coords_B(values)``: the table read
    in B's coordinates, cached on first use. For a table inside span(B)
    this is the table's own value on the argument's A-projection.
    """

    inclusion: Inclusion
    values: np.ndarray = field(repr=False)

    @property
    def big(self) -> StarAlgebra:
        return self.inclusion.big

    @property
    def small(self) -> StarAlgebra:
        return self.inclusion.small

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._apply_stack(np.asarray(x, dtype=complex)[None])[0]

    def apply_many(self, stack: np.ndarray) -> np.ndarray:
        return self._apply_stack(np.asarray(stack, dtype=complex))

    def _apply_stack(self, stack: np.ndarray) -> np.ndarray:
        n = self.big.ambient_dim
        return (self.small_coords_many(stack) @ self.small._flat).reshape(-1, n, n)

    def small_coords_many(self, stack: np.ndarray) -> np.ndarray:
        """B-coordinates ``flat(x) K`` of ``E(x)`` for each ``x`` in a stack: the first
        step of every apply, for callers that read ``E(x)`` in another picture."""
        n = self.big.ambient_dim
        flat = np.asarray(stack, dtype=complex).reshape(len(stack), n * n)
        return flat @ self._to_small_coords

    @cached_property
    def _to_small_coords(self) -> np.ndarray:
        """``K = conj(A_flat)^T W / n``, ``W = coords_B(values)`` built batch by batch."""
        a, b = self.big, self.small
        w = np.empty((a.dim, b.dim), dtype=complex)
        for part in batches(a.dim, a.ambient_dim**2):
            w[part] = b.coords_many(self.values[part])
        # conjugating the small product keeps no conjugate copy of A's basis
        return np.conj(a._flat.T @ np.conj(w)) / a.ambient_dim

    def coefficient_matrix(self) -> np.ndarray:
        """Matrix of ``E`` on the big algebra's coordinates, column-major."""
        return self.big.coords_many(self.values).T

    def state_gram(self, rows: StarAlgebra, cols: StarAlgebra) -> np.ndarray:
        """Gram matrix ``G[s, t] = phi(r_s* c_t)`` of the induced state.

        ``phi(x) = tr(rho x) / n`` on the big algebra, with density
        ``rho = sum_s phi(a_s) a_s*``, so ``phi(x* y) = <x rho*, y>``;
        ``rows`` and ``cols`` are subalgebras of the big algebra.
        """
        return np.conj(cols.coords_many(rows.basis @ self._density_adjoint()))

    def _density_adjoint(self) -> np.ndarray:
        """``rho*`` for the induced state's density ``rho = sum_s phi(a_s) a_s*``."""
        a = self.big
        phi = np.trace(self.values, axis1=1, axis2=2) / a.ambient_dim  # phi(a_s)
        return a.reconstruct(np.conj(phi))


def _axiom_residuals(exp: CondExpectation, tol: Tolerances):
    """Lazily yield ``(axiom, residual)`` for the six algebraic axioms, in order.

    Each is an upper bound on the operator-norm violation, exact once it
    reaches ``eq_tol``.
    """
    a, b = exp.big, exp.small
    if exp.values.shape != (a.dim, a.ambient_dim, a.ambient_dim):
        raise ArgumentError("value table shape does not match the big algebra")
    eq, entries = tol.eq_tol, a.ambient_dim**2

    def worst(count: int, residual) -> float:  # max_op_norm of residual(part), batch by batch
        return max(max_op_norm(residual(part), eq) for part in batches(count, entries))

    values, small = exp.values, b.basis
    yield "range containment", worst(
        a.dim, lambda p: values[p] - np.tensordot(b.coords_many(values[p]), small, axes=(1, 0))
    )
    yield "fixes the small algebra", worst(b.dim, lambda p: exp.apply_many(small[p]) - small[p])
    yield "unitality", op_norm(exp.apply(a.unit) - a.unit)
    yield "idempotency", worst(a.dim, lambda p: exp.apply_many(values[p]) - values[p])
    yield "adjoint preservation", worst(
        a.dim,
        lambda p: exp.apply_many(np.conj(np.swapaxes(a.basis[p], 1, 2)))
        - np.conj(np.swapaxes(values[p], 1, 2)),
    )
    yield "bimodule property", _bimodule_violation(exp, tol)


def _verify_expectation_axioms(exp: CondExpectation, tol: Tolerances = DEFAULT_TOLERANCES):
    """Raise ConstructionError naming the first violated axiom."""
    for prop, residual in _axiom_residuals(exp, tol):
        if residual > tol.eq_tol:
            raise ConstructionError(prop, residual)


def _bimodule_coverage(exp: CondExpectation) -> tuple[int, int]:
    """Module equations checked, and their total ``2 dim(B) dim(A)``."""
    total = 2 * exp.small.dim * exp.big.dim
    # a smaller budget on big algebras, where each equation costs more
    return min(total, 512 if exp.big.dim > 256 else 4096), total


def _bimodule_violation(exp: CondExpectation, tol: Tolerances) -> float:
    """Worst residual of ``E(b a) = b E(a)`` and ``E(a b) = E(a) b`` on basis pairs.

    Equivalent to ``E(b x c) = b E(x) c``, as ``1`` lies in B; a seeded
    sample of the equations above the budget.
    """
    a, b = exp.big, exp.small
    checked, total = _bimodule_coverage(exp)
    eqs = np.arange(total)
    if checked < total:
        eqs = np.sort(np.random.default_rng(20_260_402).choice(total, checked, replace=False))
    pairs = total // 2
    worst = 0.0
    for right, side in enumerate((eqs[eqs < pairs], eqs[eqs >= pairs] - pairs)):
        for part in batches(len(side), a.ambient_dim**2):
            i, s = np.divmod(side[part], a.dim)
            # the expected side is subtracted in place: on the upper floor this
            # check sets the dual's peak memory
            if right:
                residual = exp.apply_many(a.basis[s] @ b.basis[i])
                residual -= exp.values[s] @ b.basis[i]
            else:
                residual = exp.apply_many(b.basis[i] @ a.basis[s])
                residual -= b.basis[i] @ exp.values[s]
            worst = max(worst, max_op_norm(residual, tol.eq_tol))
    return worst


def trace_preserving(inc: Inclusion, tol: Tolerances = DEFAULT_TOLERANCES) -> CondExpectation:
    """Trace-preserving expectation: HS-orthogonal projection onto the span."""
    overlaps = inc.small.coords_many(inc.big.basis)  # (dimA, dimB)
    values = np.tensordot(overlaps, inc.small.basis, axes=(1, 0))
    exp = CondExpectation(inclusion=inc, values=values)
    _verify_expectation_axioms(exp, tol)
    return exp


def expectation_from_values(
    inc: Inclusion,
    values: Sequence[np.ndarray] | np.ndarray,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> CondExpectation:
    """Custom expectation from its values on the big algebra's basis."""
    stack = np.asarray(values, dtype=complex)
    exp = CondExpectation(inclusion=inc, values=stack)
    _verify_expectation_axioms(exp, tol)
    positivity, _ = _sampled_positivity(exp, samples=16, seed=5)
    if positivity > tol.eq_tol:
        raise ConstructionError("positivity", positivity)
    return exp


def _sampled_positivity(exp: CondExpectation, samples: int, seed: int) -> tuple[float, float]:
    """Worst negativity and least top eigenvalue of ``E(x* x)`` over seeded ``|x| = 1``."""
    a = exp.big
    rng = np.random.default_rng(seed)
    positivity = 0.0
    faithful_floor = np.inf
    for _ in range(max(1, samples)):
        x = a.random_element(rng)
        scale = max(op_norm(x), 1e-30)
        image = exp.apply(adjoint(x) @ x) / scale**2
        image = (image + adjoint(image)) / 2.0
        eigs = np.linalg.eigvalsh(image)
        positivity = max(positivity, float(-eigs[0]))
        faithful_floor = min(faithful_floor, float(eigs[-1]))
    return positivity, float(faithful_floor)


@dataclass(frozen=True)
class ExpectationReport:
    """Maximal violations found while checking an expectation's axioms.

    The six algebraic residuals are those of the construction-time check
    (norms as in ``_axiom_residuals``); ``bimodule_checked`` of the
    ``bimodule_total`` module equations were checked. ``state_symmetry``
    is the largest ``|phi(E(a_s)* a_t) - phi(a_s* E(a_t))|`` over basis
    pairs, for the induced state ``phi``; both sides equal
    ``tr(E(a_s)* E(a_t)) / n`` for every expectation.
    """

    idempotency: float
    unitality: float
    bimodule: float
    range_residual: float
    fixes_small: float
    adjoint_preservation: float
    positivity_violation: float
    faithfulness_floor: float
    state_symmetry: float
    samples: int
    bimodule_checked: int
    bimodule_total: int
    passed: bool


def verify(
    exp: CondExpectation,
    samples: int = 32,
    seed: int = 7,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ExpectationReport:
    """Diagnostic report on an expectation; never raises."""
    a = exp.big
    axioms = dict(_axiom_residuals(exp, tol))
    positivity, faithful_floor = _sampled_positivity(exp, samples, seed)
    # phi(x* y) = <x rho*, y> in the normalized Hilbert-Schmidt product
    rho_star = exp._density_adjoint()
    values_flat = exp.values.reshape(a.dim, -1)
    lhs = np.conj((exp.values @ rho_star).reshape(a.dim, -1)) @ a._flat.T
    rhs = np.conj((a.basis @ rho_star).reshape(a.dim, -1)) @ values_flat.T
    state_sym = float(np.abs(lhs - rhs).max()) / a.ambient_dim
    checked, total = _bimodule_coverage(exp)
    return ExpectationReport(
        idempotency=axioms["idempotency"],
        unitality=axioms["unitality"],
        bimodule=axioms["bimodule property"],
        range_residual=axioms["range containment"],
        fixes_small=axioms["fixes the small algebra"],
        adjoint_preservation=axioms["adjoint preservation"],
        positivity_violation=positivity,
        faithfulness_floor=faithful_floor,
        state_symmetry=state_sym,
        samples=samples,
        bimodule_checked=checked,
        bimodule_total=total,
        passed=(
            max(axioms.values()) < tol.eq_tol
            and positivity < tol.eq_tol
            and state_sym < tol.eq_tol
            and faithful_floor > tol.rank_tol
        ),
    )


@dataclass(frozen=True)
class CompatibleIntermediate:
    """Intermediate ``P`` with ``E_restricted o F = E`` (compatibility)."""

    P: StarAlgebra
    F: CondExpectation
    E_restricted: CondExpectation


def make_compatible(
    exp: CondExpectation,
    intermediate: StarAlgebra,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> CompatibleIntermediate:
    """Equip an intermediate subalgebra with its compatible expectation.

    The candidate ``F`` is the orthogonal projection of the big algebra
    onto the intermediate for the state ``phi`` induced by the expectation
    (for a trace-preserving expectation, the Hilbert-Schmidt projection).
    Compatibility ``E|_P o F = E`` makes ``F`` preserve ``phi``, which
    determines it, so failure of the verification means the intermediate
    is not compatible.
    """
    a, b = exp.big, exp.small
    p = intermediate
    # both inclusions check containment, B in P second, before any axiom check
    into_big = Inclusion(big=a, small=p, tol=tol)
    restricted = CondExpectation(
        inclusion=Inclusion(big=p, small=b, tol=tol), values=exp.apply_many(p.basis)
    )
    _verify_expectation_axioms(restricted, tol)

    gram = exp.state_gram(p, p)
    eigs = np.linalg.eigvalsh((gram + adjoint(gram)) / 2.0)
    if eigs[0] <= tol.rank_tol:
        raise IncompatibilityError("state degenerates on the intermediate", float(eigs[0]))
    coeffs = np.linalg.solve(gram, exp.state_gram(p, a))  # (dimP, dimA)
    f_values = np.tensordot(coeffs.T, p.basis, axes=(1, 0))
    f = CondExpectation(inclusion=into_big, values=f_values)
    try:
        _verify_expectation_axioms(f, tol)
    except ConstructionError as err:
        raise IncompatibilityError(
            f"projection onto the intermediate is not an expectation ({err.prop})",
            err.residual,
        ) from err

    compat = max_op_norm(restricted.apply_many(f.values) - exp.values, tol.eq_tol)
    if compat >= tol.eq_tol:
        raise IncompatibilityError("tower composition does not reproduce E", compat)
    return CompatibleIntermediate(P=p, F=f, E_restricted=restricted)


def ind_p_estimate(
    exp: CondExpectation,
    trials: int = 8,
    seed: int = 0,
    steps: int = 300,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """Estimate of the probabilistic index by stochastic ascent.

    For positive ``x`` the best constant ``gamma`` with
    ``gamma E(x) >= x`` is the top eigenvalue of
    ``E(x)^{-1/2} x E(x)^{-1/2}`` (pseudo-inverse square root), so the
    probabilistic index is the supremum of that quantity over the positive
    cone. Each trial starts from a random positive element ``x = y y*``
    and hill-climbs on its factor with multiplicative perturbations
    ``y -> w y``, so every iterate is positive by construction; the running
    best over trials is returned. The result is a lower estimate up to
    rounding: the ascent may fall short of the supremum. The algorithm is
    this library's own device, not a published procedure.
    """
    if trials < 1:
        raise ArgumentError("at least one trial is required")
    a = exp.big

    def rate(y: np.ndarray) -> float:
        # best gamma with gamma E(x) >= x for x = y y*, on the support of
        # E(x); the relative cutoff caps the conditioning so rounding stays
        # below the estimator's useful resolution
        x = y @ adjoint(y)
        x = (x + adjoint(x)) / 2.0
        h = exp.apply(x)
        w, v = np.linalg.eigh((h + adjoint(h)) / 2.0)
        cut = max(tol.rank_tol, 1e-7 * float(w[-1])) if w.size else tol.rank_tol
        inv_root = np.where(w > cut, 1.0 / np.sqrt(np.where(w > cut, w, 1.0)), 0.0)
        root = (v * inv_root) @ adjoint(v)
        m = root @ x @ root
        return float(np.linalg.eigvalsh((m + adjoint(m)) / 2.0)[-1])

    def normalized(y: np.ndarray) -> np.ndarray:
        return y / max(float(np.linalg.norm(y)), 1e-15)  # tr(y y*) = 1

    best = 1.0  # the unit always achieves gamma = 1
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(child)
        y = normalized(a.random_element(rng))
        gamma = rate(y)
        epsilon = 0.4
        for _ in range(steps):
            cand = normalized((a.unit + epsilon * a.random_element(rng)) @ y)
            cand_rate = rate(cand)
            if cand_rate > gamma:
                y, gamma = cand, cand_rate
            else:
                epsilon = max(epsilon * 0.985, 0.02)
        best = max(best, gamma)
    return best
