"""Command-line interface: scenario ingestion, dispatch, report emission.

Scenario files are JSON. Complex matrix entries are written as
``[re, im]`` pairs; permutations use 1-based disjoint-cycle notation.
Reports embed the tolerances, seed and library version, and identical
inputs produce byte-identical JSON output.

Exit codes: 0 success, 2 validation failure or an unwritable report, 3
numerical-invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, angle, groups, pimsner
from .algebra import (
    Inclusion,
    StarAlgebra,
    action_from_generators,
    crossed_product,
    fixed_point,
    from_generators,
    group_algebra,
    tensor_by_factor,
)
from .errors import ArgumentError, StarAnglesError, ValidationError
from .expectation import (
    CompatibleIntermediate,
    CondExpectation,
    ind_p_estimate,
    make_compatible,
    trace_preserving,
    verify as verify_expectation,
)
from .linalg import Tolerances

_KINDS = ("group", "crossed_product", "fixed_point", "custom_matrix")


# -- scenario parsing ------------------------------------------------------


def _parse_matrix(raw, dim: int, label: str) -> np.ndarray:
    mat = np.zeros((dim, dim), dtype=complex)
    if not isinstance(raw, list) or len(raw) != dim:
        raise ValidationError(f"{label}: expected {dim} rows")
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != dim:
            raise ValidationError(f"{label}: row {i} must have {dim} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(v, (int, float)) for v in entry)
            ):
                raise ValidationError(
                    f"{label}: entry ({i},{j}) must be a [re, im] pair"
                )
            mat[i, j] = complex(entry[0], entry[1])
    return mat


def _cycle_list(spec: dict, key: str, degree: int) -> list[groups.Perm]:
    raw = spec.get(key, [])
    if not isinstance(raw, list):
        raise ValidationError(f"group.{key} must be a list of cycle strings")
    return [groups.parse_cycles(text, degree) for text in raw]


def _number(options: dict, key: str, default: float) -> float:
    value = options.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValidationError(f"options.{key} must be a finite number")
    return float(value)


def _count(options: dict, key: str, default: int, least: int) -> int:
    value = options.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValidationError(f"options.{key} must be an integer >= {least}")
    return value


def _parse_subgroup(spec: dict, key: str, big: groups.PermGroup) -> groups.PermGroup | None:
    if spec.get(key) is None:
        return None
    sub = groups.closure(big.degree, _cycle_list(spec, key, big.degree))
    if not sub.is_subgroup_of(big):
        raise ValidationError(f"{key}: not contained in the scenario group")
    return sub


@dataclass
class Scenario:
    """Validated scenario: parsed groups/matrices plus raw echo."""

    kind: str
    raw: dict
    tolerances: Tolerances
    seed: int
    tensor_factor: int
    group: groups.PermGroup | None = None
    subgroup_h: groups.PermGroup | None = None
    subgroup_k: groups.PermGroup | None = None
    subgroup_l: groups.PermGroup | None = None
    ambient_dim: int | None = None
    a_generators: list | None = None
    b_generators: list | None = None
    p_generators: list | None = None
    q_generators: list | None = None
    action_unitaries: dict | None = None


def load_scenario(path: str | Path, overrides: dict | None = None) -> Scenario:
    """Read, schema-check and validate a scenario file; no heavy numerics."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValidationError(f"scenario is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ValidationError("scenario must be a JSON object")
    kind = raw.get("kind")
    if kind not in _KINDS:
        raise ValidationError(f"kind must be one of {_KINDS}, got {kind!r}")

    options = raw.get("options", {})
    if not isinstance(options, dict):
        raise ValidationError("options must be a JSON object")
    options = {**options, **(overrides or {})}
    tolerances = Tolerances(
        eq_tol=_number(options, "eq_tol", 1e-9),
        rank_tol=_number(options, "rank_tol", 1e-10),
        angle_tol=_number(options, "angle_tol", 1e-8),
    )
    seed = _count(options, "seed", 0, least=0)
    tensor_factor = _count(options, "tensor_factor", 1, least=1)

    scenario = Scenario(
        kind=kind,
        raw=raw,
        tolerances=tolerances,
        seed=seed,
        tensor_factor=tensor_factor,
    )

    if kind in ("group", "crossed_product", "fixed_point"):
        spec = raw.get("group")
        if not isinstance(spec, dict):
            raise ValidationError(f"kind {kind!r} needs a 'group' section")
        degree = spec.get("degree")
        if not isinstance(degree, int) or degree < 1:
            raise ValidationError("group.degree must be a positive integer")
        scenario.group = groups.closure(degree, _cycle_list(spec, "generators", degree))
        scenario.subgroup_h = _parse_subgroup(spec, "subgroup_h", scenario.group)
        scenario.subgroup_k = _parse_subgroup(spec, "subgroup_k", scenario.group)
        scenario.subgroup_l = _parse_subgroup(spec, "subgroup_l", scenario.group)
        if kind == "group" and scenario.subgroup_h is None:
            raise ValidationError("group scenarios need group.subgroup_h")
        if kind == "crossed_product" and scenario.subgroup_h is None:
            raise ValidationError("crossed_product scenarios need group.subgroup_h")
        for key in ("subgroup_k", "subgroup_l"):
            sub = getattr(scenario, key)
            if sub is not None and scenario.subgroup_h is not None:
                if not scenario.subgroup_h.is_subgroup_of(sub):
                    raise ValidationError(f"{key} does not contain subgroup_h")

    if kind in ("crossed_product", "fixed_point", "custom_matrix"):
        spec = raw.get("algebra")
        if not isinstance(spec, dict):
            raise ValidationError(f"kind {kind!r} needs an 'algebra' section")
        dim = spec.get("ambient_dim")
        if not isinstance(dim, int) or dim < 1:
            raise ValidationError("algebra.ambient_dim must be a positive integer")
        scenario.ambient_dim = dim
        scenario.a_generators = [
            _parse_matrix(m, dim, f"algebra.generators[{i}]")
            for i, m in enumerate(spec.get("generators", []))
        ]
        scenario.b_generators = [
            _parse_matrix(m, dim, f"algebra.b_generators[{i}]")
            for i, m in enumerate(spec.get("b_generators", []))
        ]
        scenario.p_generators = [
            _parse_matrix(m, dim, f"algebra.p_generators[{i}]")
            for i, m in enumerate(spec.get("p_generators", []))
        ] or None
        scenario.q_generators = [
            _parse_matrix(m, dim, f"algebra.q_generators[{i}]")
            for i, m in enumerate(spec.get("q_generators", []))
        ] or None

    if kind in ("crossed_product", "fixed_point"):
        spec = raw.get("action")
        if not isinstance(spec, dict) or not isinstance(spec.get("unitaries"), list):
            raise ValidationError(f"kind {kind!r} needs action.unitaries")
        unitaries = {}
        for i, item in enumerate(spec["unitaries"]):
            if not isinstance(item, dict) or "element" not in item:
                raise ValidationError(f"action.unitaries[{i}] needs an 'element'")
            g = groups.parse_cycles(item["element"], scenario.group.degree)
            if g not in scenario.group:
                raise ValidationError(
                    f"action.unitaries[{i}].element is not in the group"
                )
            if "matrix" in item:
                u = _parse_matrix(
                    item["matrix"], scenario.ambient_dim, f"action.unitaries[{i}].matrix"
                )
            elif "permutation" in item:
                perm = groups.parse_cycles(item["permutation"], scenario.ambient_dim)
                u = np.zeros((scenario.ambient_dim, scenario.ambient_dim), dtype=complex)
                for col in range(scenario.ambient_dim):
                    u[perm(col), col] = 1.0
            else:
                raise ValidationError(
                    f"action.unitaries[{i}] needs 'matrix' or 'permutation'"
                )
            unitaries[g] = u
        scenario.action_unitaries = unitaries

    return scenario


# -- bundle construction ---------------------------------------------------


@dataclass
class Bundle:
    """Constructed inclusion with optional intermediates and group oracle."""

    scenario: Scenario
    expectation: CondExpectation
    intermediates: dict[str, StarAlgebra]
    oracle_groups: tuple | None  # (G, H, K, L) when the closed form applies
    # subgroup -> subalgebra, before tensoring; group and crossed products only
    subalgebra: Callable[[groups.PermGroup, Tolerances], StarAlgebra] | None = None


def build_bundle(scenario: Scenario) -> Bundle:
    tol = scenario.tolerances
    k = scenario.tensor_factor
    intermediates: dict[str, StarAlgebra] = {}
    oracle = subalgebra = None

    if scenario.kind in ("group", "crossed_product"):
        if scenario.kind == "group":
            built = group_algebra(scenario.group, tol)
        else:
            base = from_generators(scenario.ambient_dim, scenario.a_generators, tol)
            action = action_from_generators(scenario.group, scenario.action_unitaries, tol)
            built = crossed_product(base, action, tol)
        subalgebra = built.subalgebra
        big = built.algebra
        small = subalgebra(scenario.subgroup_h, tol)
        if scenario.subgroup_k is not None:
            intermediates["K"] = subalgebra(scenario.subgroup_k, tol)
        if scenario.subgroup_l is not None:
            intermediates["L"] = subalgebra(scenario.subgroup_l, tol)
        oracle = (scenario.group, scenario.subgroup_h, scenario.subgroup_k, scenario.subgroup_l)
    elif scenario.kind == "fixed_point":
        big = from_generators(scenario.ambient_dim, scenario.a_generators, tol)
        action = action_from_generators(scenario.group, scenario.action_unitaries, tol)
        small = fixed_point(big, action, tol)
    else:  # custom_matrix
        big = from_generators(scenario.ambient_dim, scenario.a_generators, tol)
        small = from_generators(scenario.ambient_dim, scenario.b_generators or [], tol)
        if scenario.p_generators is not None:
            intermediates["K"] = from_generators(
                scenario.ambient_dim,
                (scenario.b_generators or []) + scenario.p_generators,
                tol,
            )
        if scenario.q_generators is not None:
            intermediates["L"] = from_generators(
                scenario.ambient_dim,
                (scenario.b_generators or []) + scenario.q_generators,
                tol,
            )

    big = tensor_by_factor(big, k, tol)
    small = tensor_by_factor(small, k, tol)
    intermediates = {name: tensor_by_factor(m, k, tol) for name, m in intermediates.items()}
    expectation = trace_preserving(Inclusion(big=big, small=small, tol=tol), tol)
    return Bundle(scenario, expectation, intermediates, oracle, subalgebra)


# -- report helpers --------------------------------------------------------


def _envelope(command: str, scenario: Scenario, results: dict) -> dict:
    return {
        "command": command,
        "version": __version__,
        "scenario": scenario.raw,
        "tolerances": {
            "eq_tol": scenario.tolerances.eq_tol,
            "rank_tol": scenario.tolerances.rank_tol,
            "angle_tol": scenario.tolerances.angle_tol,
        },
        "seed": scenario.seed,
        "results": results,
    }


def _flatten(prefix: str, value, lines: list[str]):
    if isinstance(value, dict):
        for key in value:
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], lines)
    elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, lines)
    else:
        lines.append(f"{prefix} = {value}")


def _emit(report: dict, fmt: str, out: str | None):
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        lines: list[str] = []
        _flatten("", report, lines)
        width = max(len(line.split(" = ")[0]) for line in lines)
        text = (
            "\n".join(
                f"{line.split(' = ')[0]:<{width}}  {line.split(' = ', 1)[1]}"
                for line in lines
            )
            + "\n"
        )
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _matrix_entry_list(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def _angle_report_dict(rep: angle.AngleReport) -> dict:
    return {
        "cos": rep.cos_value,
        "angle_radians": rep.angle,
        "path": rep.path,
        "per_path_cos": rep.per_path,
        "path_disagreement": rep.path_disagreement,
        "numerator": rep.numerator,
        "denominators": list(rep.denominators),
        "raw_cos": rep.raw_cos,
        "commuting_square": rep.commuting_square,
        "commuting_residual": rep.commuting_residual,
        "provenance": rep.provenance,
    }


def _require_intermediates(bundle: Bundle) -> tuple[CompatibleIntermediate, CompatibleIntermediate]:
    if "K" not in bundle.intermediates or "L" not in bundle.intermediates:
        raise ArgumentError(
            "angle commands need two intermediates (subgroup_k/subgroup_l or "
            "p_generators/q_generators)"
        )
    tol = bundle.scenario.tolerances
    ci_k = make_compatible(bundle.expectation, bundle.intermediates["K"], tol)
    ci_l = make_compatible(bundle.expectation, bundle.intermediates["L"], tol)
    return ci_k, ci_l


def _oracle_cos(bundle: Bundle) -> float | None:
    if bundle.oracle_groups is None:
        return None
    g, h, k, ell = bundle.oracle_groups
    if k is None or ell is None:
        return None
    try:
        return angle.group_oracle_cosine(g, h, k, ell)
    except (ArgumentError, ZeroDivisionError):
        return None


# -- commands --------------------------------------------------------------


def _cmd_index(bundle: Bundle) -> dict:
    tol = bundle.scenario.tolerances
    basis = pimsner.orthonormal_basis(bundle.expectation, tol)
    wi = pimsner.watatani_index(basis, tol)
    results = {
        "module_basis_size": len(basis),
        "index_scalar": wi.scalar,
        "index_norm": wi.norm,
        "index_matrix": None if wi.scalar is not None else _matrix_entry_list(wi.value),
        "reconstruction_residual": pimsner.verify_quasi_basis(
            bundle.expectation, basis.elements, tol
        ),
    }
    if bundle.oracle_groups is not None and bundle.oracle_groups[1] is not None:
        expected = groups.index(bundle.oracle_groups[0], bundle.oracle_groups[1])
        results["oracle_index"] = expected
        results["oracle_match"] = (
            wi.scalar is not None and abs(wi.scalar - expected) < tol.angle_tol
        )
    return results


def _cmd_quasi_basis(bundle: Bundle) -> dict:
    tol = bundle.scenario.tolerances
    basis = pimsner.orthonormal_basis(bundle.expectation, tol)
    residual = pimsner.verify_quasi_basis(bundle.expectation, basis.elements, tol)
    supports = [float(np.trace(p).real) for p in basis.support_projections]
    return {
        "size": len(basis),
        "max_reconstruction_residual": residual,
        "support_projection_traces": supports,
        "passes": bool(residual < tol.eq_tol),
    }


def _cmd_angle(bundle: Bundle, path: str) -> dict:
    tol = bundle.scenario.tolerances
    ci_k, ci_l = _require_intermediates(bundle)
    ctx = angle.AngleContext(bundle.expectation, tol)
    rep = angle.interior_angle(bundle.expectation, ci_k, ci_l, path=path, tol=tol, ctx=ctx)
    results = {"interior_angle": _angle_report_dict(rep)}
    oracle = _oracle_cos(bundle)
    if oracle is not None:
        results["oracle_cos"] = oracle
        results["oracle_match"] = bool(abs(rep.cos_value - oracle) < tol.angle_tol)
    return results


def _cmd_exterior(bundle: Bundle, second_floor: bool) -> dict:
    tol = bundle.scenario.tolerances
    ci_k, ci_l = _require_intermediates(bundle)
    ctx = angle.AngleContext(bundle.expectation, tol)
    rep = angle.exterior_angle(
        bundle.expectation, ci_k, ci_l, tol=tol, ctx=ctx, second_floor=second_floor
    )
    return {"exterior_angle": _angle_report_dict(rep)}


def _cmd_verify(bundle: Bundle) -> dict:
    tol = bundle.scenario.tolerances
    report = verify_expectation(bundle.expectation, tol=tol)
    basis = pimsner.orthonormal_basis(bundle.expectation, tol)
    wi = pimsner.watatani_index(basis, tol)
    residual = pimsner.verify_quasi_basis(bundle.expectation, basis.elements, tol)
    estimate = ind_p_estimate(
        bundle.expectation, trials=4, seed=bundle.scenario.seed, steps=150, tol=tol
    )
    checks = {
        "expectation_axioms": report.passed,
        "quasi_basis_reconstruction": bool(residual < tol.eq_tol),
        "index_positive_central": bool(
            wi.centrality_residual <= tol.eq_tol and wi.min_eigenvalue > tol.rank_tol
        ),
        "probabilistic_estimate_bounded": bool(1.0 - 1e-9 <= estimate <= wi.norm + 1e-6),
    }
    return {
        "checks": checks,
        "all_passed": all(checks.values()),
        "expectation_report": {
            "idempotency": report.idempotency,
            "unitality": report.unitality,
            "bimodule": report.bimodule,
            "range_residual": report.range_residual,
            "fixes_small": report.fixes_small,
            "adjoint_preservation": report.adjoint_preservation,
            "state_min_eigenvalue": report.state_min_eigenvalue,
            "state_symmetry": report.state_symmetry,
            "bimodule_equations_checked": report.bimodule_checked,
            "bimodule_equations_total": report.bimodule_total,
        },
        "index_scalar": wi.scalar,
        "index_norm": wi.norm,
        "index_centrality_residual": wi.centrality_residual,
        "index_min_eigenvalue": wi.min_eigenvalue,
        "probabilistic_index_estimate": estimate,
        "reconstruction_residual": residual,
    }


def _cmd_lattice(bundle: Bundle, path: str, out_dir: Path, stem: str) -> dict:
    scenario = bundle.scenario
    if bundle.subalgebra is None:
        raise ArgumentError("lattice reports need a group or crossed_product scenario")
    tol = scenario.tolerances
    g, h = scenario.group, scenario.subgroup_h
    subs = groups.intermediate_subgroups(g, h)
    proper = [m for m in subs if len(m) != len(h) and len(m) != len(g)]

    exp = bundle.expectation
    cis = [
        make_compatible(
            exp, tensor_by_factor(bundle.subalgebra(m, tol), scenario.tensor_factor, tol), tol
        )
        for m in proper
    ]
    ctx = angle.AngleContext(exp, tol)
    matrix = angle.angle_matrix(exp, cis, path=path, tol=tol, ctx=ctx)

    labels = [
        "<" + ", ".join(groups.format_cycles(p) for p in _generators_of(m)) + ">"
        for m in proper
    ]
    pairs = []
    for i in range(len(proper)):
        for j in range(i + 1, len(proper)):
            rep = matrix.reports[i][j]
            if rep is None:
                pairs.append(
                    {
                        "pair": [labels[i], labels[j]],
                        "error": matrix.errors.get((i, j), "unknown"),
                    }
                )
                continue
            oracle = angle.group_oracle_cosine(g, h, proper[i], proper[j])
            pairs.append(
                {
                    "pair": [labels[i], labels[j]],
                    "cos": rep.cos_value,
                    "angle_radians": rep.angle,
                    "commuting_square": rep.commuting_square,
                    "oracle_cos": oracle,
                    "discrepancy": abs(rep.cos_value - oracle),
                }
            )

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{stem}_lattice.csv"
    with csv_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([""] + labels)
        angles = matrix.angles()
        for i, label in enumerate(labels):
            writer.writerow(
                [label]
                + [
                    "" if math.isnan(angles[i, j]) else f"{angles[i, j]:.12f}"
                    for j in range(len(labels))
                ]
            )
    summary = {
        "intermediate_count": len(proper),
        "pair_count": len(pairs),
        "pairs": pairs,
        "csv": str(csv_path),
        "max_discrepancy": max(
            (p["discrepancy"] for p in pairs if "discrepancy" in p), default=0.0
        ),
    }
    json_path = out_dir / f"{stem}_lattice.json"
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    summary["json"] = str(json_path)
    return summary


def _generators_of(group: groups.PermGroup) -> list[groups.Perm]:
    """Small generating set, for labels only."""
    chosen: list[groups.Perm] = []
    span = groups.trivial(group.degree)
    for g in group.elements:
        if g not in span:
            chosen.append(g)
            span = groups.closure(group.degree, chosen)
            if len(span) == len(group):
                break
    return chosen or [groups.identity_perm(group.degree)]


# -- entry point -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starangles",
        description=(
            "Watatani indices, quasi-bases and angles between intermediate "
            "subalgebras of matrix *-algebras"
        ),
    )
    parser.add_argument(
        "command",
        choices=["index", "quasi-basis", "angle", "exterior-angle", "lattice", "verify", "validate"],
    )
    parser.add_argument("scenario", help="path to a scenario JSON file")
    parser.add_argument("--tol", type=float, default=None, help="matrix-equality tolerance")
    parser.add_argument("--rank-tol", type=float, default=None, help="eigenvalue cutoff")
    parser.add_argument("--angle-tol", type=float, default=None, help="path-agreement tolerance")
    parser.add_argument(
        "--seed", type=int, default=None, help="seed for verify's probabilistic-index ascent"
    )
    parser.add_argument("--format", choices=["json", "table"], default="json")
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument(
        "--path",
        choices=["definition", "quasibasis", "both"],
        default="both",
        help="interior-angle computation route",
    )
    parser.add_argument(
        "--second-floor",
        action="store_true",
        help="cross-validate the exterior angle on an explicit second floor",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {}
    if args.tol is not None:
        overrides["eq_tol"] = args.tol
    if args.rank_tol is not None:
        overrides["rank_tol"] = args.rank_tol
    if args.angle_tol is not None:
        overrides["angle_tol"] = args.angle_tol
    if args.seed is not None:
        overrides["seed"] = args.seed

    try:
        scenario = load_scenario(args.scenario, overrides)
    except (OSError, ValidationError) as err:
        print(f"validation error: {err}", file=sys.stderr)
        return 2

    try:
        if args.command == "validate":
            results = {"valid": True}
        else:
            bundle = build_bundle(scenario)
            if args.command == "index":
                results = _cmd_index(bundle)
            elif args.command == "quasi-basis":
                results = _cmd_quasi_basis(bundle)
            elif args.command == "angle":
                results = _cmd_angle(bundle, args.path)
            elif args.command == "exterior-angle":
                results = _cmd_exterior(bundle, args.second_floor)
            elif args.command == "verify":
                results = _cmd_verify(bundle)
            else:  # lattice
                out_dir = Path(args.out) if args.out else Path.cwd()
                stem = Path(args.scenario).stem
                results = _cmd_lattice(bundle, args.path, out_dir, stem)
        report = _envelope(args.command, scenario, results)
        if args.command == "lattice":
            _emit(report, args.format, args.out and str(Path(args.out) / "lattice_report.json"))
        else:
            _emit(report, args.format, args.out)
    except ValidationError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return 2
    except StarAnglesError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except OSError as err:  # a report that cannot be written
        print(f"output error: {err}", file=sys.stderr)
        return 2
    if args.command == "verify" and not results["all_passed"]:
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
