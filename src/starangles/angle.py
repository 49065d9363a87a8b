"""Interior and exterior angles between compatible intermediate subalgebras.

Two independent computation routes are provided. The definition route
works inside the basic construction: with ``z_P = e_P - e_N`` it evaluates

    cos = |E1(z_P z_Q)| / (|E1(z_P)|^(1/2) |E1(z_Q)|^(1/2)),

using that the ``z``'s are projections. The quasi-basis route stays in
the original algebra: with quasi-bases ``{mu_j}`` of the restriction to P
and ``{delta_k}`` of the restriction to Q,

    cos = |ind^{-1} (sum_{jk} mu_j E(mu_j* delta_k) delta_k* - 1)|
          / (|ind^{-1}(ind_P - 1)|^(1/2) |ind^{-1}(ind_Q - 1)|^(1/2)),

where the numerator's sum equals ``sum_k F_P(delta_k) delta_k*``, since
``sum_j mu_j E(mu_j* y) = F_P(y)`` by compatibility and bimodularity.

Norms of algebra elements are operator norms, each taken in the smallest
exact picture, by three identities:

- *lambda is isometric.* ``E1`` takes values in lambda(A), and lambda is
  a *-representation of A that is faithful (``lambda(a)`` sends the vector
  of 1 to that of ``a``, nonzero for ``a != 0`` as the state is faithful).
  An injective *-homomorphism of C*-algebras is isometric, so
  ``|E1(x)| = |a|`` for the ``a`` in A with ``lambda(a) = E1(x)``: the
  definition route reads ``E1`` in A's ``n x n`` matrices instead of
  ``dim A x dim A`` ones.
- *Isometries do not change norms.* For isometries ``V, W``
  (``V* V = 1 = W* W``), ``|V C W*|^2 = |W C* C W*| = |C* C| = |C|^2``,
  as ``W C* C W*`` and ``C* C W* W = C* C`` share their nonzero spectrum. With
  ``z_P = Z_P Z_P*`` for an isometry ``Z_P`` onto its range,
  ``z_P z_Q = Z_P (Z_P* Z_Q) Z_Q*``, so ``|z_P z_Q| = |Z_P* Z_Q|``.
- *``rank z_P = dim P - dim B``.* ``e_P`` projects L2(A) onto L2(P) and
  ``e`` onto L2(B), which lies inside it, so ``z_P`` projects onto their
  difference, of dimension ``dim P - dim B`` (the state is faithful).
  ``Z_P* Z_Q`` is ``r_P x r_Q`` with ``r_P = dim P - dim B``.

For group-algebra inclusions both routes reproduce the closed form
``([K n L : H] - 1) / (sqrt([K:H] - 1) sqrt([L:H] - 1))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import basic, groups
from .algebra import same_span
from .errors import (
    ArgumentError,
    DegenerateDenominatorError,
    ExteriorAngleUndefinedError,
    IncompatibilityError,
    InvariantError,
)
from .expectation import CompatibleIntermediate, CondExpectation, make_compatible
from .linalg import DEFAULT_TOLERANCES, Tolerances, adjoint, batches, op_norm, op_norms
from .pimsner import ModuleBasis, WatataniIndex, orthonormal_basis, watatani_index


@dataclass(frozen=True)
class AngleReport:
    """Cosine and angle with per-path values and residual diagnostics."""

    cos_value: float
    angle: float
    path: str
    per_path: dict[str, float]
    path_disagreement: float | None
    numerator: float
    denominators: tuple[float, float]
    raw_cos: float
    commuting_square: bool | None
    commuting_residual: float | None
    provenance: str


class AngleContext:
    """Caches the shared machinery across angle computations.

    Per context: the basic construction, the dual expectation, the module
    basis, the index and its inverse, and lambda^{-1} on lambda(A)'s basis
    (``R = C^{-1} A_flat`` for ``C`` the lambda(A)-coordinates of lambda of
    A's basis), which reads ``E1`` in A. The module basis and index are
    built once: by the basic construction when it is built first, as when
    both routes run, or alone for the quasi-basis route. An intermediate is
    admitted once, when first seen on either route or floor: it must have
    been built for this context's inclusion. Per intermediate,
    each computed on first use: the restricted module basis and index
    (quasi-basis route), the Jones projection (``bc.jones_projection``, the
    map that gives ``e``), ``z_P = e_P - e`` with the
    isometry ``Z_P`` onto its range, the first-floor algebra ``P1``
    (``basic.floor_algebra``, the builder and checks of M1) with its
    compatible expectation, and the two routes' denominators,
    ``|E1(z_P)|^(1/2)`` (definition, ``E1`` read in A) and
    ``|ind^{-1}(ind_P - 1)|^(1/2)`` (quasi-basis). A pair then costs one
    numerator matrix per route, both ``n x n`` in A (on the quasi-basis
    route one contraction over Q's quasi-basis, on the definition route
    ``E1(z_P z_Q)`` read in A), and the commuting residual ``Z_P* Z_Q``
    (``r_P x r_Q``, of norm ``|z_P z_Q|``); its norms take one ``op_norms``
    call per matrix shape.
    """

    def __init__(self, exp: CondExpectation, tol: Tolerances = DEFAULT_TOLERANCES):
        self.expectation = exp
        self.tol = tol
        self._bc: basic.BasicConstruction | None = None
        self._dual: CondExpectation | None = None
        self._module: ModuleBasis | None = None
        self._index: WatataniIndex | None = None
        self._index_inverse: np.ndarray | None = None
        self._lambda_inverse: np.ndarray | None = None
        self._per_intermediate: dict[int, dict] = {}
        self._upper: AngleContext | None = None

    @property
    def module_basis(self) -> ModuleBasis:
        if self._module is None:  # building bc sets it too
            self._module = orthonormal_basis(self.expectation, self.tol)
        return self._module

    @property
    def index(self) -> WatataniIndex:
        if self._index is None:
            self._index = watatani_index(self.module_basis, self.tol)
        return self._index

    @property
    def index_inverse(self) -> np.ndarray:
        if self._index_inverse is None:
            self._index_inverse = self.index.inverse(self.tol)
        return self._index_inverse

    @property
    def bc(self) -> basic.BasicConstruction:
        if self._bc is None:
            self._bc = basic.build(self.expectation, self.tol)
            self._index = self._bc.index
            self._module = self._bc.module_basis
        return self._bc

    @property
    def dual(self) -> CondExpectation:
        if self._dual is None:
            self._dual = basic.dual_expectation(self.bc, self.tol)
        return self._dual

    def _cache(self, ci: CompatibleIntermediate) -> dict:
        """The intermediate's cache, made when it is first seen and admitted:
        its expectation maps this context's A onto it, and its restriction
        maps it onto this context's B."""
        cache = self._per_intermediate.get(id(ci))
        if cache is None:
            exp, tol = self.expectation, self.tol
            if not (
                same_span(ci.F.big, exp.big, tol)
                and same_span(ci.E_restricted.small, exp.small, tol)
            ):
                raise ArgumentError("intermediate was built for a different inclusion")
            cache = self._per_intermediate[id(ci)] = {"ci": ci}
        return cache

    def restricted_basis(self, ci: CompatibleIntermediate) -> ModuleBasis:
        cache = self._cache(ci)
        if "module" not in cache:
            cache["module"] = orthonormal_basis(ci.E_restricted, self.tol)
        return cache["module"]

    def restricted_index(self, ci: CompatibleIntermediate) -> WatataniIndex:
        cache = self._cache(ci)
        if "index" not in cache:
            cache["index"] = watatani_index(self.restricted_basis(ci), self.tol)
        return cache["index"]

    def jones_projection(self, ci: CompatibleIntermediate) -> np.ndarray:
        """``e_P``, the Jones projection of ``F_P``, checked to absorb ``e``:
        ``e_P e = e = e e_P``."""
        cache = self._cache(ci)
        if "jones" not in cache:
            e, e_p = self.bc.e_proj, self.bc.jones_projection(ci.F, self.tol)
            absorb = max(op_norm(e_p @ e - e), op_norm(e @ e_p - e))
            if absorb > self.tol.eq_tol:
                raise InvariantError(f"e_P e = e = e e_P fails ({absorb:.3e})")
            cache["jones"] = e_p
        return cache["jones"]

    def jones_difference(self, ci: CompatibleIntermediate) -> np.ndarray:
        """``z_P = e_P - e``, checked once to lie in M1 and to be a projection.

        Every product ``z_P z_Q`` the definition route applies E1 to then lies
        in M1 too, as M1 is closed under products. The isometry ``Z_P`` onto
        its range (``jones_range``) is cached beside it: the eigenvectors of
        eigenvalue 1, every eigenvalue being within ``eq_tol`` of 0 or 1.
        """
        cache = self._cache(ci)
        if "z" not in cache:
            z = self.jones_projection(ci) - self.bc.e_proj
            member, outside = self.bc.m1.contains(z, self.tol)
            if not member:
                raise InvariantError(f"e_P - e is not in M1 (residual {outside:.3e})")
            w, v = np.linalg.eigh((z + adjoint(z)) / 2.0)
            off = float(np.minimum(np.abs(w), np.abs(w - 1.0)).max())
            if off > self.tol.eq_tol:
                raise InvariantError(f"e_P - e is not a projection (eigenvalue off by {off:.3e})")
            cache["z"], cache["z_range"] = z, v[:, w > 0.5]
        return cache["z"]

    def jones_range(self, ci: CompatibleIntermediate) -> np.ndarray:
        """``Z_P``: an isometry onto the range of ``z_P``, ``z_P = Z_P Z_P*``,
        with ``dim P - dim B`` columns."""
        self.jones_difference(ci)
        return self._cache(ci)["z_range"]

    def _dual_in_algebra(self, stack: np.ndarray) -> np.ndarray:
        """``E1`` of each matrix in a stack, read in A: the ``a`` with ``lambda(a) = E1(x)``.

        ``E1(x)`` has lambda(A)-coordinates ``c``, and ``lambda(a_i) = sum_t C[i, t] l_t``
        for A's basis ``a_i`` and lambda(A)'s ``l_t``, so ``l_t = lambda((C^{-1} A)_t)``
        and ``a = c C^{-1} A``.
        """
        if self._lambda_inverse is None:
            lam, d = self.bc.lambda_stack, self.bc.rep_dim
            parts = batches(len(lam), d * d)
            c = np.concatenate([self.dual.small.coords_many(lam[part]) for part in parts])
            s = np.linalg.svd(c, compute_uv=False)
            if s[-1] <= self.tol.rank_tol * s[0]:
                raise InvariantError(f"lambda is singular on A (singular value {s[-1]:.3e})")
            self._lambda_inverse = np.linalg.solve(c, self.expectation.big._flat)
        n = self.expectation.big.ambient_dim
        return (self.dual.small_coords_many(stack) @ self._lambda_inverse).reshape(-1, n, n)

    def definition_denominator(self, ci: CompatibleIntermediate) -> float:
        """``|E1(z_P)|^(1/2)``, with ``E1(z_P)`` read in A."""
        cache = self._cache(ci)
        if "den_definition" not in cache:
            z = self.jones_difference(ci)
            cache["den_definition"] = math.sqrt(op_norm(self._dual_in_algebra(z[None])[0]))
        return cache["den_definition"]

    def quasibasis_denominator(self, ci: CompatibleIntermediate) -> float:
        """``|ind^{-1}(ind_P - 1)|^(1/2)``."""
        cache = self._cache(ci)
        if "den_quasibasis" not in cache:
            unit = self.expectation.big.unit
            excess = self.restricted_index(ci).value - unit
            cache["den_quasibasis"] = math.sqrt(op_norm(self.index_inverse @ excess))
        return cache["den_quasibasis"]

    @property
    def upper(self) -> "AngleContext":
        """Context one floor up: the dual expectation onto lambda(A) in M1."""
        if self._upper is None:
            self._upper = AngleContext(self.dual, self.tol)
        return self._upper

    def first_floor(self, ci: CompatibleIntermediate) -> CompatibleIntermediate:
        """``P1 = <lambda(A), e_P>``, built and checked as M1 is, made compatible
        with the dual."""
        cache = self._cache(ci)
        if "floor_one" not in cache:
            module = orthonormal_basis(ci.F, self.tol)
            algebra_one, *_ = basic.floor_algebra(
                self.bc, ci.F, module, self.jones_projection(ci), self.tol
            )
            cache["floor_one"] = make_compatible(self.dual, algebra_one, self.tol)
        return cache["floor_one"]


def _pair_context(exp: CondExpectation, p, q, tol: Tolerances, ctx: AngleContext | None):
    """``ctx``, checked to be built for ``exp``, or a new context; the angle
    is undefined when either intermediate equals the small algebra."""
    if ctx is None:
        ctx = AngleContext(exp, tol)
    elif ctx.expectation is not exp:
        raise ArgumentError("context was built for a different expectation")
    if same_span(p.P, exp.small, tol) or same_span(q.P, exp.small, tol):
        raise DegenerateDenominatorError(
            "angle is undefined when the intermediate equals the small algebra"
        )
    return ctx


def _quasibasis_terms(ctx: AngleContext, p: CompatibleIntermediate, q: CompatibleIntermediate):
    """The numerator's matrix ``ind^{-1}(sum_k F_P(delta_k) delta_k* - 1)`` and the
    route's denominators."""
    unit = ctx.expectation.big.unit
    delta = ctx.restricted_basis(q).elements
    mixed = np.tensordot(p.F.apply_many(delta), np.conj(delta), axes=([0, 2], [0, 2]))
    numerator = ctx.index_inverse @ (mixed - unit)
    return numerator, (ctx.quasibasis_denominator(p), ctx.quasibasis_denominator(q))


def _definition_terms(ctx: AngleContext, p: CompatibleIntermediate, q: CompatibleIntermediate):
    """The numerator's matrix ``E1(z_P z_Q)`` read in A, the route's denominators
    and ``Z_P* Z_Q``, whose norm ``|z_P z_Q|`` decides the commuting square: as
    ``e_P e = e = e e_Q``, ``z_P z_Q = e_P e_Q - e``."""
    denominators = (ctx.definition_denominator(p), ctx.definition_denominator(q))
    z_pq = ctx.jones_difference(p) @ ctx.jones_difference(q)
    residual = adjoint(ctx.jones_range(p)) @ ctx.jones_range(q)
    return ctx._dual_in_algebra(z_pq[None])[0], denominators, residual


def _op_norms_by_shape(mats: list[np.ndarray]) -> list[float]:
    """Operator norms of ``mats``, one ``op_norms`` call per matrix shape."""
    by_shape: dict[tuple[int, ...], list[np.ndarray]] = {}
    for m in mats:
        by_shape.setdefault(m.shape, []).append(m)
    norms = {shape: iter(op_norms(np.asarray(same)).tolist()) for shape, same in by_shape.items()}
    return [next(norms[m.shape]) for m in mats]


def _finish_report(
    path: str,
    per_path_fragments: dict[str, tuple[float, tuple[float, float]]],
    primary: str,
    tol: Tolerances,
    commuting: tuple[bool, float] | None,
    provenance: str,
    same: bool = False,
) -> AngleReport:
    per_path: dict[str, float] = {}
    for name, (num, dens) in per_path_fragments.items():
        if min(dens) <= tol.rank_tol:
            raise DegenerateDenominatorError(
                f"vanishing denominator on the {name} path"
            )
        per_path[name] = num / (dens[0] * dens[1])
    raw = per_path[primary]
    if raw > 1.0 + tol.angle_tol:
        raise InvariantError(f"cosine exceeds 1 beyond tolerance ({raw:.3e})")
    disagreement = None
    if len(per_path) > 1:
        vals = list(per_path.values())
        disagreement = max(vals) - min(vals)
        if disagreement >= tol.angle_tol:
            raise InvariantError(
                f"computation paths disagree ({disagreement:.3e}); "
                f"per-path cosines {per_path}"
            )
    # equal spans: angle exactly 0, as acos turns a cosine of 1 - 1e-15 into 5e-8
    if same and abs(raw - 1.0) > tol.angle_tol:
        raise InvariantError(f"an intermediate against itself has cosine {raw!r}")
    cos_value = 1.0 if same else min(max(raw, 0.0), 1.0)
    num, dens = per_path_fragments[primary]
    return AngleReport(
        cos_value=cos_value,
        angle=math.acos(cos_value),
        path=path,
        per_path=per_path,
        path_disagreement=disagreement,
        numerator=num,
        denominators=dens,
        raw_cos=raw,
        commuting_square=None if commuting is None else commuting[0],
        commuting_residual=None if commuting is None else commuting[1],
        provenance=provenance,
    )


def interior_angle(
    exp: CondExpectation,
    p: CompatibleIntermediate,
    q: CompatibleIntermediate,
    path: str = "both",
    tol: Tolerances = DEFAULT_TOLERANCES,
    ctx: AngleContext | None = None,
) -> AngleReport:
    """Interior angle between two compatible intermediates.

    ``path`` selects the computation route: ``"definition"`` (inside the
    basic construction), ``"quasibasis"`` (inside the original algebra),
    or ``"both"`` (computes both and checks agreement within
    ``angle_tol``). The intermediates must differ from the small algebra.
    """
    if path not in ("definition", "quasibasis", "both"):
        raise ArgumentError(f"unknown path {path!r}")
    ctx = _pair_context(exp, p, q, tol, ctx)

    numerators: dict[str, np.ndarray] = {}
    denominators: dict[str, tuple[float, float]] = {}
    residual: list[np.ndarray] = []
    # the definition route first: the basic construction it builds also builds
    # the module basis and index that the quasi-basis route reads
    if path in ("definition", "both"):
        numerators["definition"], denominators["definition"], overlap = _definition_terms(
            ctx, p, q
        )
        residual.append(overlap)
    if path in ("quasibasis", "both"):
        numerators["quasibasis"], denominators["quasibasis"] = _quasibasis_terms(ctx, p, q)
    names = [name for name in ("quasibasis", "definition") if name in numerators]
    norms = _op_norms_by_shape([numerators[name] for name in names] + residual)
    fragments = {name: (num, denominators[name]) for name, num in zip(names, norms)}
    commuting = (norms[-1] < tol.eq_tol, norms[-1]) if residual else None
    primary = "definition" if "definition" in fragments else "quasibasis"
    sizes = f"|A over B|={len(ctx.module_basis)}"
    if "quasibasis" in fragments:
        sizes = (
            f"|P|={len(ctx.restricted_basis(p))}, |Q|={len(ctx.restricted_basis(q))}, {sizes}"
        )
    provenance = f"module bases: {sizes}; greedy partial-isometry construction in basis order"
    same = same_span(p.P, q.P, tol)
    return _finish_report(path, fragments, primary, tol, commuting, provenance, same)


def exterior_angle(
    exp: CondExpectation,
    p: CompatibleIntermediate,
    q: CompatibleIntermediate,
    tol: Tolerances = DEFAULT_TOLERANCES,
    ctx: AngleContext | None = None,
    second_floor: bool = False,
) -> AngleReport:
    """Exterior angle: the interior angle between the first-floor algebras
    ``P1 = <lambda(A), e_P>`` and ``Q1 = <lambda(A), e_Q>`` inside M1.

    Evaluated one floor up with the quasi-basis route (no explicit second
    basic construction needed); with ``second_floor=True`` the definition
    route on an explicitly built second floor cross-validates the value.
    """
    ctx = _pair_context(exp, p, q, tol, ctx)
    floor_one = {}
    for name, ci in (("P", p), ("Q", q)):
        try:
            floor_one[name] = ctx.first_floor(ci)
        except IncompatibilityError as err:
            raise ExteriorAngleUndefinedError(
                f"first-floor algebra {name}1 is not compatible with the dual expectation",
                err.residual,
            ) from err
    upper_path = "both" if second_floor else "quasibasis"
    report = interior_angle(
        ctx.dual, floor_one["P"], floor_one["Q"], path=upper_path, tol=tol, ctx=ctx.upper
    )
    provenance = f"one floor up over M1 (dim {ctx.bc.dim_m1}); {report.provenance}"
    return replace(report, provenance=provenance)


@dataclass
class AngleMatrix:
    """Symmetric table of pairwise interior angles; failed pairs marked."""

    reports: list[list[AngleReport | None]]
    errors: dict[tuple[int, int], str] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.reports)

    def angles(self) -> np.ndarray:
        out = np.full((self.size, self.size), np.nan)
        for i in range(self.size):
            for j in range(self.size):
                if self.reports[i][j] is not None:
                    out[i, j] = self.reports[i][j].angle
        return out


def angle_matrix(
    exp: CondExpectation,
    intermediates: list[CompatibleIntermediate],
    path: str = "both",
    tol: Tolerances = DEFAULT_TOLERANCES,
    ctx: AngleContext | None = None,
) -> AngleMatrix:
    """All pairwise interior angles among the given intermediates."""
    if ctx is None:
        ctx = AngleContext(exp, tol)
    size = len(intermediates)
    reports: list[list[AngleReport | None]] = [[None] * size for _ in range(size)]
    errors: dict[tuple[int, int], str] = {}
    for i in range(size):
        for j in range(i, size):
            try:
                rep = interior_angle(
                    exp, intermediates[i], intermediates[j], path=path, tol=tol, ctx=ctx
                )
                reports[i][j] = rep
                reports[j][i] = rep
            except Exception as err:  # noqa: BLE001 - marked and carried on
                errors[(i, j)] = f"{type(err).__name__}: {err}"
    return AngleMatrix(reports=reports, errors=errors)


def group_oracle_cosine(
    big: groups.PermGroup,
    small: groups.PermGroup,
    k: groups.PermGroup,
    ell: groups.PermGroup,
) -> float:
    """Closed-form cosine for group-algebra (and crossed-product) inclusions."""
    ik = groups.index(k, small)
    il = groups.index(ell, small)
    if ik == 1 or il == 1:
        raise ArgumentError("closed form needs intermediates strictly above H")
    im = groups.index(groups.intersect(k, ell), small)
    return (im - 1) / math.sqrt((ik - 1) * (il - 1))
