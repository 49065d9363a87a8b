"""Conditional expectations on inclusions of matrix *-algebras.

An expectation is held by the B-coordinates of its values on A's basis,
``W`` (``dim A x dim B``), and by its state on that basis, ``phi(a_s) =
tr(E(a_s)) / n``: the two things that applying it and its state read.
Applying it goes through B's coordinates: on first use the map ``K``
(``n^2 x dim B``) from a flattened argument to the B-coordinates of its
image is cached, so a call costs ``2 n^2 dim B`` per argument and returns a
value exactly in span(B). The state is read as a density ``rho`` in the
big algebra, ``phi(x) = tr(rho x) / n``. An expectation the library derives
is built from the coefficients its constructor already has: ``W`` is those
coefficients and ``phi(a_s) = sum_t W[s, t] tr(b_t) / n``, so no
``dim A x n x n`` table is formed. A table from outside is kept as given,
read one batch at a time, and must not be mutated after the first apply.
``trace_preserving`` builds the Hilbert-Schmidt projection (``rho = 1``);
custom tables need no label.
The compatible expectation onto an intermediate is the ``phi``-orthogonal
projection onto it.

Each expectation is certified by the theorem that defines it.
``trace_preserving`` is an expectation by construction, ``make_compatible``
decides compatibility by Takesaki's modular criterion, and the dual of a basic
construction (``basic.dual_expectation``) follows from Watatani's identities,
which the builder has already checked. Only a value table from outside
(``expectation_from_values``) runs the six-axiom engine: six algebraic axioms,
then the exact test ``lambda_min(rho) > rank_tol``, which with them decides
that E is positive and faithful (``_state_min_eigenvalue``). The bimodule
axiom is decided from two defect matrices of that state, which vanish exactly
for a bimodule map and bound every module residual (``_bimodule_violation``);
none of these checks samples. ``verify`` reports the same residuals for any
expectation. Each residual is a maximum over ``linalg.batches``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import Inclusion, StarAlgebra
from .errors import ArgumentError, ConstructionError, IncompatibilityError
from .linalg import DEFAULT_TOLERANCES, Tolerances, adjoint, batches, max_op_norm, op_norm


class CondExpectation:
    """Linear idempotent bimodule map ``E: A -> B`` packaged with its inclusion.

    It is held by ``small_coords``, the matrix ``W`` (``dim A x dim B``) whose
    row s is the B-coordinates of ``E(a_s)`` for the s-th basis element of the
    big algebra, and by its state on that basis, ``phi(a_s) = tr(E(a_s)) / n``.
    Applying ``E`` is ``E(x) = (flat(x) K) flat(B)`` with
    ``K = conj(A_flat)^T W / n``, cached on first use; for a table inside
    span(B) this is the table's own value on the argument's A-projection.

    A table from outside (``values``, ``dim A x n x n``) is kept as given, so
    the six-axiom engine and ``verify`` judge it as given; ``W`` and ``phi`` are
    read off it on first use. An expectation the library derives is built by
    ``_spanned`` straight from its ``W`` and keeps no table: its ``values`` are
    rebuilt as ``W . flat(B)`` on each read.
    """

    def __init__(self, inclusion: Inclusion, values: np.ndarray):
        self.inclusion = inclusion
        self._table = np.asarray(values, dtype=complex)

    @classmethod
    def _spanned(cls, inclusion: Inclusion, w: np.ndarray) -> CondExpectation:
        """The expectation with ``E(a_s) = sum_t W[s, t] b_t`` on B's basis ``b_t``,
        held by ``W`` and its state ``phi(a_s) = sum_t W[s, t] tr(b_t) / n``; no
        value table is formed."""
        exp = cls.__new__(cls)
        exp.inclusion, exp._table = inclusion, None
        b = inclusion.small
        traces = np.trace(b.basis, axis1=1, axis2=2) / b.ambient_dim
        exp._held = (w, w @ traces)
        return exp

    @property
    def big(self) -> StarAlgebra:
        return self.inclusion.big

    @property
    def small(self) -> StarAlgebra:
        return self.inclusion.small

    @property
    def values(self) -> np.ndarray:
        """``E(a_s)`` for each basis element of the big algebra: the table as given,
        or ``W . flat(B)``, rebuilt on each read, for a derived expectation."""
        if self._table is not None:
            return self._table
        n = self.big.ambient_dim
        return (self.small_coords @ self.small._flat).reshape(-1, n, n)

    @property
    def small_coords(self) -> np.ndarray:
        """``W``: row s is the B-coordinates of ``E(a_s)``."""
        return self._held[0]

    @cached_property
    def _held(self) -> tuple[np.ndarray, np.ndarray]:
        """``(W, phi)`` of a table from outside, ``W = coords_B(values)`` and
        ``phi(a_s) = tr(values[s]) / n``, read on first use one batch at a time."""
        a, b = self.big, self.small
        n = a.ambient_dim
        w = np.empty((a.dim, b.dim), dtype=complex)
        phi = np.empty(a.dim, dtype=complex)
        for part in batches(a.dim, n * n):
            table = self._table[part].reshape(-1, n, n)
            w[part] = b.coords_many(table)
            phi[part] = np.trace(table, axis1=1, axis2=2) / n
        return w, phi

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
        """``K = conj(A_flat)^T W / n``."""
        a = self.big
        # conjugating the small product keeps no conjugate copy of A's basis
        return np.conj(a._flat.T @ np.conj(self.small_coords)) / a.ambient_dim

    def state_gram(self, rows: StarAlgebra, cols: StarAlgebra) -> np.ndarray:
        """Gram matrix ``G[s, t] = phi(r_s* c_t)`` of the induced state.

        ``phi(x) = tr(rho x) / n`` on the big algebra, with density
        ``rho = sum_s phi(a_s) a_s*``, so ``phi(x* y) = <x rho*, y>``;
        ``rows`` and ``cols`` are subalgebras of the big algebra.
        """
        return np.conj(cols.coords_many(rows.basis @ self._density_adjoint()))

    def _density_adjoint(self) -> np.ndarray:
        """``rho*`` for the induced state's density ``rho = sum_s phi(a_s) a_s*``."""
        return self.big.reconstruct(np.conj(self._held[1]))


def _axiom_residuals(exp: CondExpectation, tol: Tolerances):
    """Lazily yield ``(axiom, residual)`` for the six algebraic axioms, in order.

    Each is an upper bound on the operator-norm violation, exact once it
    reaches ``eq_tol``; the bimodule one is ``_bimodule_violation``'s bound.
    """
    a, b = exp.big, exp.small
    if exp.values.shape != (a.dim, a.ambient_dim, a.ambient_dim):
        raise ArgumentError("value table shape does not match the big algebra")
    if not np.isfinite(exp.values).all():
        raise ArgumentError("value table has a non-finite entry")
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
    yield "bimodule property", _bimodule_violation(exp)


def _verify_expectation_axioms(exp: CondExpectation, tol: Tolerances = DEFAULT_TOLERANCES):
    """Raise ConstructionError naming the first violated axiom or an unfaithful state."""
    for prop, residual in _axiom_residuals(exp, tol):
        if residual > tol.eq_tol:
            raise ConstructionError(prop, residual)
    _verify_faithful_state(exp, tol)


def _state_min_eigenvalue(exp: CondExpectation) -> float:
    """Least eigenvalue of the induced state's density ``rho``.

    ``phi(x) = tr(rho x) / n`` with ``rho = sum_s phi(a_s) a_s*``, which lies
    in A, and so do its spectral projections. For x in A,
    ``phi(x* x) = tr(x rho x*) / n >= lambda_min(rho) tr(x x*) / n``, with
    equality at rho's bottom spectral projection. So ``lambda_min(rho)``
    equals the least eigenvalue of ``state_gram(A, A)`` (A's basis is
    orthonormal), and bounds that of any subalgebra's Gram from below.

    If E satisfies the six axioms, E is positive and faithful exactly when
    ``lambda_min(rho) > 0``. Forward: ``phi = tr o E / n`` is then faithful,
    so its minimum ``lambda_min(rho)`` on the unit sphere is positive. Back:
    phi is positive and faithful by the bound above. For ``x >= 0`` let
    ``q`` in B project onto the negative part of the self-adjoint ``E(x)``.
    By bimodularity ``phi(q E(x) q) = phi(E(q x q))``, and ``phi o E = phi``
    by idempotency, so it equals ``phi(q x q) >= 0``; as ``q E(x) q <= 0``
    and phi is faithful, ``q E(x) q = 0``, so ``E(x) >= 0``. And
    ``E(x* x) = 0`` gives ``phi(x* x) = 0``, so ``x = 0``. A table that is
    not adjoint-preserving is read by ``rho``'s Hermitian part.
    """
    rho_star = exp._density_adjoint()
    return float(np.linalg.eigvalsh((rho_star + adjoint(rho_star)) / 2.0)[0])


def _verify_faithful_state(exp: CondExpectation, tol: Tolerances) -> None:
    """Raise ``ConstructionError("state faithfulness")`` unless ``lambda_min(rho) > rank_tol``."""
    floor = _state_min_eigenvalue(exp)
    if floor <= tol.rank_tol:
        raise ConstructionError("state faithfulness", floor)


def _bimodule_violation(exp: CondExpectation) -> float:
    """Upper bound ``2 n max(|M_L|, |M_R|) / lambda`` (``inf`` if ``lambda <= 0``)
    on the operator norm of ``E(b a) - b E(a)`` and ``E(a b) - E(a) b`` over all
    basis pairs of B and A; with ``1`` in B these give ``E(b x c) = b E(x) c``.

    Here ``E`` is ``apply``, so ``E(a_s) = W[s] . B`` (``small_coords``),
    ``phi = tr o E / n``, ``|.|_2`` is the normalized Hilbert-Schmidt norm (both
    bases orthonormal), and ``lambda`` is the least eigenvalue of
    ``G_BB = state_gram(B, B)``'s Hermitian part. Lemma: the defect
    ``D(b', x) = phi(b'* (x - E x))`` (b' in B, x in A) is on the bases
    ``M_L = state_gram(B, A) - G_BB W^T``, so ``|D(b', x)| <= |M_L| |b'|_2 |x|_2``
    in spectral norm. For b in B and x in A, ``y = E(b x) - b E(x)`` lies in B
    and ``phi(b'* y) = D(b* b', x) - D(b', b x)`` for all b' in B; at ``b' = y``,
    ``lambda |y|_2^2 <= |phi(y* y)| <= 2 |M_L| |b|_op |x|_2 |y|_2``. On basis
    pairs ``|b|_op <= sqrt(n)``, ``|x|_2 = 1`` and ``|y|_op <= sqrt(n) |y|_2``,
    so ``|y|_op <= 2 n |M_L| / lambda``. The right side mirrors it with
    ``M_R[u, s] = phi((a_s - E a_s) b_u)``, ``y = E(x b) - E(x) b`` and
    ``b' = y*`` in B, as ``phi(y y*) >= lambda |y|_2^2``. Converse: for a
    bimodular E, ``phi(b* E(x)) = tr(b* E(x)) / n = phi(b* x)`` and likewise
    on the right, so ``M_L = M_R = 0`` and no true expectation is rejected;
    ``make_compatible``'s ``F = solve(G_PP, G_PA)`` is exactly the projection
    onto P with ``M_L = 0``.

    As ``phi(z* x) = <z rho*, x>``, row u of ``M_L`` is ``<z_u, a_s> -
    sum_v W[s, v] <z_u, b_v>`` for ``z_u = b_u rho*``, and of ``M_R`` the same
    for ``z_u = rho* b_u*``: ``2 dim B (n^3 + n^2 dim A)`` in all, whatever the
    number of module equations, in batches over B's basis.
    """
    a, b = exp.big, exp.small
    g_bb = exp.state_gram(b, b)
    floor = float(np.linalg.eigvalsh((g_bb + adjoint(g_bb)) / 2.0)[0])
    if floor <= 0.0:
        return np.inf
    rho_star, w_t = exp._density_adjoint(), exp.small_coords.T

    def defect_norm(stack_of) -> float:
        """Spectral norm of the defect matrix of ``z_u = stack_of(b_u)``."""
        m = np.empty((b.dim, a.dim), dtype=complex)
        for part in batches(b.dim, a.ambient_dim**2):
            z = stack_of(b.basis[part])
            m[part] = np.conj(a.coords_many(z)) - np.conj(b.coords_many(z)) @ w_t
        return op_norm(m)

    left = defect_norm(lambda bs: bs @ rho_star)
    right = defect_norm(lambda bs: rho_star @ np.conj(np.swapaxes(bs, 1, 2)))
    return 2.0 * a.ambient_dim * max(left, right) / floor


def trace_preserving(inc: Inclusion, tol: Tolerances = DEFAULT_TOLERANCES) -> CondExpectation:
    """Trace-preserving expectation: the Hilbert-Schmidt orthogonal projection
    onto B, an expectation by construction.

    It is ``make_compatible``'s theorem for the trace, ``rho = 1``: the modular
    group is trivial, so the trace-preserving expectation onto the unital
    *-subalgebra B exists, is unique, and is the trace-orthogonal projection.
    Its values are the overlaps ``<b_t, a_s>`` times B's basis, so they lie in
    span(B) by construction, and its state ``tr / n`` is faithful; no check
    runs, and ``tol`` is unused.
    """
    return CondExpectation._spanned(inc, inc.small.coords_many(inc.big.basis))


def expectation_from_values(
    inc: Inclusion,
    values: Sequence[np.ndarray] | np.ndarray,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> CondExpectation:
    """Custom expectation from its values on the big algebra's basis, checked by
    the six-axiom engine and the state's faithfulness: the one table here that
    no theorem certifies."""
    exp = CondExpectation(inclusion=inc, values=np.asarray(values, dtype=complex))
    _verify_expectation_axioms(exp, tol)
    return exp


@dataclass(frozen=True)
class ExpectationReport:
    """Maximal violations found while checking an expectation's axioms.

    The six algebraic residuals are those ``expectation_from_values`` checks
    (norms as in ``_axiom_residuals``; ``bimodule`` bounds every module equation
    on basis pairs, by ``_bimodule_violation``'s lemma). ``state_symmetry``
    is the largest ``|phi(E(a_s)* a_t) - phi(a_s* E(a_t))|`` over basis
    pairs, for the induced state ``phi``; both sides equal
    ``tr(E(a_s)* E(a_t)) / n`` for every expectation.
    ``state_min_eigenvalue`` is ``lambda_min(rho)``; with the six axioms E is
    positive and faithful exactly when it exceeds 0 (``passed``: ``rank_tol``).
    """

    idempotency: float
    unitality: float
    bimodule: float
    range_residual: float
    fixes_small: float
    adjoint_preservation: float
    state_min_eigenvalue: float
    state_symmetry: float
    passed: bool


def verify(exp: CondExpectation, tol: Tolerances = DEFAULT_TOLERANCES) -> ExpectationReport:
    """Diagnostic report on an expectation; raises only on a malformed value table."""
    a, values = exp.big, exp.values
    axioms = dict(_axiom_residuals(exp, tol))
    state_floor = _state_min_eigenvalue(exp)
    # phi(x* y) = <x rho*, y> in the normalized Hilbert-Schmidt product
    rho_star = exp._density_adjoint()
    values_flat = values.reshape(a.dim, -1)
    lhs = np.conj((values @ rho_star).reshape(a.dim, -1)) @ a._flat.T
    rhs = np.conj((a.basis @ rho_star).reshape(a.dim, -1)) @ values_flat.T
    state_sym = float(np.abs(lhs - rhs).max()) / a.ambient_dim
    return ExpectationReport(
        idempotency=axioms["idempotency"],
        unitality=axioms["unitality"],
        bimodule=axioms["bimodule property"],
        range_residual=axioms["range containment"],
        fixes_small=axioms["fixes the small algebra"],
        adjoint_preservation=axioms["adjoint preservation"],
        state_min_eigenvalue=state_floor,
        state_symmetry=state_sym,
        passed=(
            max(axioms.values()) < tol.eq_tol
            and state_sym < tol.eq_tol
            and state_floor > tol.rank_tol
        ),
    )


@dataclass(frozen=True)
class CompatibleIntermediate:
    """Intermediate ``B in P in A`` with its compatible expectation ``F: A -> P``,
    ``E_restricted o F = E``, and ``E_restricted``, the restriction of E to P.

    ``make_compatible`` builds both from Takesaki's theorem; neither table
    runs the six-axiom engine, and ``verify`` is their diagnostic.
    ``expectation`` is the E it was built for: the one whose
    ``Inclusion(P, B)`` and ``E|_P o F = E`` ``make_compatible`` checked, so
    an ``AngleContext`` admits the intermediate by that object alone.
    """

    P: StarAlgebra
    F: CondExpectation
    E_restricted: CondExpectation
    expectation: CondExpectation

    def _composition_residual(self, tol: Tolerances) -> float:
        """``max_s |E|_P(F(a_s)) - E(a_s)|`` over the basis ``a_s`` that F is indexed
        by, as ``max_op_norm`` decides it against ``eq_tol``. The map is linear, so on
        a basis of ``expectation``'s big algebra this decides ``E|_P o F = E``.
        ``E|_P`` reads its argument's P-coordinates, so ``E|_P(F(a_s))`` has the
        B-coordinates ``(W_F W_{E|_P})[s]``, and no ``F(a_s)`` is formed."""
        exp, e_p, f, a = self.expectation, self.E_restricted, self.F, self.F.big
        composed = f.small_coords @ e_p.small_coords
        n = a.ambient_dim
        return max(
            max_op_norm(
                (composed[s] @ e_p.small._flat).reshape(-1, n, n) - exp.apply_many(a.basis[s]),
                tol.eq_tol,
            )
            for s in batches(a.dim, n * n)
        )


def _modular_residual(exp: CondExpectation, p: StarAlgebra, tol: Tolerances) -> float:
    """``max_s dist([log rho, p_s], P)`` over P's basis (normalized Hilbert-Schmidt
    distance, ``StarAlgebra._max_span_residual``), for the density ``rho`` of the
    state ``phi`` induced by ``exp``, checked faithful first; or, when it is at most
    ``eq_tol``, the bound ``spread = log lambda_max(rho) - log lambda_min(rho)``.

    The bound: with ``c`` the midpoint of log rho's spectrum,
    ``|log rho - c 1|_op = spread / 2``, and ``[log rho, p] = [log rho - c 1, p]``.
    As ``|x y|_2 <= |x|_op |y|_2`` and ``|y x|_2 <= |y|_2 |x|_op``, and each
    ``p_s`` has ``|p_s|_2 = 1``, ``|[log rho, p_s]|_2 <= spread``; the distance to
    P is at most that norm, as 0 lies in P. So a spread at most ``eq_tol`` decides
    that P is invariant with no commutator formed. That covers every first floor
    of a tracial tower, where the dual's density is scalar.
    """
    _verify_faithful_state(exp, tol)
    rho_star = exp._density_adjoint()
    w, v = np.linalg.eigh((rho_star + adjoint(rho_star)) / 2.0)
    log_w = np.log(w)
    spread = float(log_w[-1] - log_w[0])
    if spread <= tol.eq_tol:
        return spread
    log_rho = (v * log_w) @ adjoint(v)
    return p._max_span_residual(log_rho @ p.basis - p.basis @ log_rho)


def make_compatible(
    exp: CondExpectation,
    intermediate: StarAlgebra,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> CompatibleIntermediate:
    """Equip an intermediate subalgebra ``B in P in A`` with its compatible
    expectation ``F``, decided by Takesaki's theorem (J. Funct. Anal. 9, 1972):
    for a faithful state phi on A, a phi-preserving conditional expectation
    onto P exists exactly when P is invariant under the modular group
    ``Ad rho^{it}``, and it is then unique. Here ``phi = tr o E / n`` with
    density ``rho`` in A, so ``Ad rho^{it}`` is phi's modular group.

    The steps: the containment checks ``P in A`` and ``B in P``; ``E|_P`` by
    restriction; the modular residual (``_modular_residual``), which raises
    ``IncompatibilityError`` above ``eq_tol``; ``F = solve(G_PP, G_PA)``, the
    phi-orthogonal projection onto P (``G = state_gram``); and the
    composition residual ``|E|_P o F - E|`` on A's basis, the one numeric
    check of the solve. The lemma that makes these enough:

    - Any compatible F preserves phi, ``phi(F(x)) = tr(E(F(x))) / n =
      tr(E(x)) / n``, so by the theorem's uniqueness it is the
      phi-orthogonal projection: ``phi(p* F(x)) = phi(F(p* x)) = phi(p* x)``.
      If the residual rejects P, no compatible expectation exists.
    - In finite dimensions ``Ad rho^{it} = exp(it delta)`` for the generator
      ``delta = [log rho, .]``, so P is invariant under the group exactly when
      ``delta(P) in P``: one way by the exponential series, the other by
      differentiating at ``t = 0``. ``delta`` is linear, so P's basis decides it.
    - Then F is a phi-preserving expectation, and ``E|_P o F`` is one onto B
      (``phi o E = phi`` by idempotency); so is E, and by uniqueness
      ``E|_P o F = E``.
    - ``E|_P`` keeps E's six axioms on the smaller domain ``B in P``, and its
      state ``phi|_P`` is faithful as phi is.
    - ``phi(x* x) = tr(x rho x*) / n`` lies between ``lambda_min(rho)`` and
      ``|rho|`` times ``tr(x* x) / n``, and P's basis is orthonormal, so
      ``G_PP >= lambda_min(rho) 1`` and the solve's condition number is at
      most ``|rho| / lambda_min(rho)``.

    E itself is taken to be an expectation (its constructors certify it);
    only its state's faithfulness, the theorem's hypothesis, is checked here.
    """
    a, p = exp.big, intermediate
    # both inclusions check containment, B in P second, before the modular residual
    into_big = Inclusion(big=a, small=p, tol=tol)
    onto_small = Inclusion(big=p, small=exp.small, tol=tol)
    # E|_P is E's B-coordinates of P's basis, F the solved P-coordinates of A's
    restricted = CondExpectation._spanned(onto_small, exp.small_coords_many(p.basis))
    modular = _modular_residual(exp, p, tol)
    if modular > tol.eq_tol:
        raise IncompatibilityError("intermediate is not invariant under the modular group", modular)

    coeffs = np.linalg.solve(exp.state_gram(p, p), exp.state_gram(p, a))  # (dimP, dimA)
    f = CondExpectation._spanned(into_big, coeffs.T)
    ci = CompatibleIntermediate(P=p, F=f, E_restricted=restricted, expectation=exp)
    compat = ci._composition_residual(tol)
    if compat >= tol.eq_tol:
        raise IncompatibilityError("tower composition does not reproduce E", compat)
    return ci


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
