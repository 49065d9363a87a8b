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

Norms of algebra elements are operator norms. For group-algebra
inclusions both routes reproduce the closed form
``([K n L : H] - 1) / (sqrt([K:H] - 1) sqrt([L:H] - 1))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import basic, groups
from .algebra import from_generators, same_span
from .errors import (
    ArgumentError,
    DegenerateDenominatorError,
    ExteriorAngleUndefinedError,
    IncompatibilityError,
    InvariantError,
)
from .expectation import CompatibleIntermediate, CondExpectation, make_compatible
from .linalg import DEFAULT_TOLERANCES, Tolerances, op_norm
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
    basis, the index and its inverse. Per intermediate, each computed on
    first use: the restricted module basis and index (quasi-basis route),
    the Jones projection, and the two routes' denominators,
    ``|E1(z_P)|^(1/2)`` (definition) and ``|ind^{-1}(ind_P - 1)|^(1/2)``
    (quasi-basis). A pair then costs one numerator per route: on the
    definition route, one dual-expectation solve on ``z_P z_Q``.
    """

    def __init__(self, exp: CondExpectation, tol: Tolerances = DEFAULT_TOLERANCES):
        self.expectation = exp
        self.tol = tol
        self._bc: basic.BasicConstruction | None = None
        self._dual: basic.DualExpectation | None = None
        self._module: ModuleBasis | None = None
        self._index: WatataniIndex | None = None
        self._index_inverse: np.ndarray | None = None
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
    def dual(self) -> basic.DualExpectation:
        if self._dual is None:
            self._dual = basic.dual_expectation(self.bc, self.tol)
        return self._dual

    def _cache(self, ci: CompatibleIntermediate) -> dict:
        return self._per_intermediate.setdefault(id(ci), {"ci": ci})

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
        cache = self._cache(ci)
        if "jones" not in cache:
            cache["jones"] = basic.intermediate_jones_projection(self.bc, ci, self.tol)
        return cache["jones"]

    def definition_denominator(self, ci: CompatibleIntermediate) -> float:
        """``|E1(z_P)|^(1/2)`` with ``z_P = e_P - e``."""
        cache = self._cache(ci)
        if "den_definition" not in cache:
            z = self.jones_projection(ci) - self.bc.e_proj
            cache["den_definition"] = math.sqrt(op_norm(self.dual.apply(z)))
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
            self._upper = AngleContext(self.dual.expectation, self.tol)
        return self._upper

    def first_floor(self, ci: CompatibleIntermediate) -> CompatibleIntermediate:
        """``P1 = <lambda(A), e_P>`` as a compatible intermediate for the dual."""
        cache = self._cache(ci)
        if "floor_one" not in cache:
            bc = self.bc
            algebra_one = from_generators(
                bc.rep_dim, list(bc.lambda_stack) + [self.jones_projection(ci)], self.tol
            )
            cache["floor_one"] = make_compatible(self.dual.expectation, algebra_one, self.tol)
        return cache["floor_one"]


def _check_nondegenerate(exp: CondExpectation, ci: CompatibleIntermediate, tol: Tolerances):
    if same_span(ci.P, exp.small, tol):
        raise DegenerateDenominatorError(
            "angle is undefined when the intermediate equals the small algebra"
        )


def _quasibasis_cosine(ctx: AngleContext, p: CompatibleIntermediate, q: CompatibleIntermediate):
    unit = ctx.expectation.big.unit
    delta = ctx.restricted_basis(q).elements
    mixed = np.einsum("kij,klj->il", p.F.apply_many(delta), np.conj(delta))
    numerator = op_norm(ctx.index_inverse @ (mixed - unit))
    return numerator, (ctx.quasibasis_denominator(p), ctx.quasibasis_denominator(q))


def _definition_cosine(ctx: AngleContext, p: CompatibleIntermediate, q: CompatibleIntermediate):
    e = ctx.bc.e_proj
    z_pq = (ctx.jones_projection(p) - e) @ (ctx.jones_projection(q) - e)
    numerator = op_norm(ctx.dual.apply(z_pq))
    return numerator, (ctx.definition_denominator(p), ctx.definition_denominator(q))


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
    if ctx is None:
        ctx = AngleContext(exp, tol)
    elif ctx.expectation is not exp:
        raise ArgumentError("context was built for a different expectation")
    _check_nondegenerate(exp, p, tol)
    _check_nondegenerate(exp, q, tol)

    fragments: dict[str, tuple[float, tuple[float, float]]] = {}
    if path in ("quasibasis", "both"):
        fragments["quasibasis"] = _quasibasis_cosine(ctx, p, q)
    commuting = None
    if path in ("definition", "both"):
        fragments["definition"] = _definition_cosine(ctx, p, q)
        commuting = is_commuting_square(exp, p, q, tol, ctx)
    primary = "definition" if "definition" in fragments else "quasibasis"
    sizes = f"|A over B|={len(ctx.module_basis)}"
    if "quasibasis" in fragments:
        sizes = (
            f"|P|={len(ctx.restricted_basis(p))}, |Q|={len(ctx.restricted_basis(q))}, {sizes}"
        )
    provenance = f"module bases: {sizes}; greedy partial-isometry construction in basis order"
    same = same_span(p.P, q.P, tol)
    return _finish_report(path, fragments, primary, tol, commuting, provenance, same)


def is_commuting_square(
    exp: CondExpectation,
    p: CompatibleIntermediate,
    q: CompatibleIntermediate,
    tol: Tolerances = DEFAULT_TOLERANCES,
    ctx: AngleContext | None = None,
) -> tuple[bool, float]:
    """Whether ``e_P e_Q = e_N`` holds, plus the residual."""
    if ctx is None:
        ctx = AngleContext(exp, tol)
    residual = op_norm(
        ctx.jones_projection(p) @ ctx.jones_projection(q) - ctx.bc.e_proj
    )
    return residual < tol.eq_tol, residual


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
    if ctx is None:
        ctx = AngleContext(exp, tol)
    _check_nondegenerate(exp, p, tol)
    _check_nondegenerate(exp, q, tol)
    dual_exp = ctx.dual.expectation
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
        dual_exp, floor_one["P"], floor_one["Q"], path=upper_path, tol=tol, ctx=ctx.upper
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
