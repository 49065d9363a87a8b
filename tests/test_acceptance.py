"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output) and asserts the criterion.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import starangles as sa
from starangles import basic, cli
from starangles.linalg import adjoint, op_norm

from conftest import permuted

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def scenario_expectations(all_suites, crossed_suite, fixed_point_m2, trace_inclusions):
    """Every inclusion in the acceptance suite, with a printable name."""
    out = [(s.name, s.expectation) for s in all_suites]
    out.append(("crossed_d4_on_c2", crossed_suite.expectation))
    out.append(("fixed_point_m2", fixed_point_m2[2]))
    for n in (2, 3, 4):
        out.append((f"trace_m{n}", trace_inclusions[n]))
    return out


def test_criterion_01_group_closed_form(all_suites):
    worst = 0.0
    nontrivial_seen = False
    for suite in all_suites:
        for gk, gl, ci, cj in suite.pairs():
            rep = sa.interior_angle(
                suite.expectation, ci, cj, path="both", ctx=suite.ctx
            )
            oracle = sa.group_oracle_cosine(suite.group, suite.small_group, gk, gl)
            for path_cos in rep.per_path.values():
                worst = max(worst, abs(path_cos - oracle))
            if abs(oracle - 1.0 / 3.0) < 1e-12:
                nontrivial_seen = True
    _report(
        "1 group closed form",
        worst < 1e-8 and nontrivial_seen,
        f"max |cos - oracle| = {worst:.3e}, cos=1/3 pair covered={nontrivial_seen}",
    )


def test_criterion_02_watatani_index(all_suites, trace_inclusions, fixed_point_m2):
    worst = 0.0
    for suite in all_suites:
        wi = suite.ctx.index
        expected = sa.index(suite.group, suite.small_group)
        worst = max(worst, op_norm(wi.value - expected * np.eye(len(suite.group))))
    for n in (2, 3, 4):
        wi = sa.watatani_index(sa.orthonormal_basis(trace_inclusions[n]))
        worst = max(worst, op_norm(wi.value - n * n * np.eye(n)))
    wi = sa.watatani_index(sa.orthonormal_basis(fixed_point_m2[2]))
    worst = max(worst, op_norm(wi.value - 2.0 * np.eye(2)))
    _report("2 watatani index values", worst < 1e-9, f"max residual = {worst:.3e}")


def test_criterion_03_index_independence(all_suites):
    worst = 0.0
    rng = np.random.default_rng(23)
    for suite in all_suites:
        exp = suite.expectation
        base = sa.watatani_index(sa.orthonormal_basis(exp)).value
        orders = [
            np.arange(suite.algebra.dim)[::-1],
            rng.permutation(suite.algebra.dim),
        ]
        for order in orders:
            other = sa.watatani_index(sa.orthonormal_basis(permuted(exp, order))).value
            worst = max(worst, op_norm(base - other))
    _report("3 index independence", worst < 1e-9, f"max deviation = {worst:.3e}")


def test_criterion_04_basic_construction_identities(all_suites):
    worst = 0.0
    dims_ok = True
    for suite in all_suites:
        bc = suite.ctx.bc
        e = bc.e_proj
        worst = max(worst, op_norm(e @ e - e), op_norm(adjoint(e) - e))
        lam_values = bc.lambda_many(suite.expectation.values)
        for s in range(suite.algebra.dim):
            lam = bc.lambda_stack[s]
            worst = max(worst, op_norm(e @ lam @ e - lam_values[s] @ e))
        commutant = sa.algebra.commutant_within(bc.lambda_algebra, [e])
        dims_ok &= commutant.dim == suite.small.dim
        lam_b = bc.lambda_many(suite.small.basis)
        worst = max(worst, commutant._max_span_residual(lam_b))
        cover = sum(lam @ e @ adjoint(lam) for lam in bc.lambda_many(bc.module_basis.elements))
        worst = max(worst, op_norm(cover - np.eye(bc.rep_dim)))
        expected_dim = (
            sa.index(suite.group, suite.small_group) ** 2 * len(suite.small_group)
        )
        dims_ok &= bc.dim_m1 == expected_dim
    _report(
        "4 basic construction identities",
        worst < 1e-9 and dims_ok,
        f"max residual = {worst:.3e}, dimension checks = {dims_ok}",
    )


def test_criterion_05_dual_expectation(all_suites):
    worst = 0.0
    for suite in all_suites:
        bc = suite.ctx.bc
        dual = suite.ctx.dual
        inv = bc.index.inverse()
        a = suite.algebra
        spanning = np.stack(
            [
                bc.lambda_stack[p] @ bc.e_proj @ bc.lambda_stack[q]
                for p in range(a.dim)
                for q in range(a.dim)
            ]
        )
        values = dual.apply_many(spanning)
        # E1 takes values in lambda(A)
        expected = bc.lambda_many(
            np.stack([inv @ a.basis[p] @ a.basis[q] for p in range(a.dim) for q in range(a.dim)])
        )
        worst = max(worst, float(sa.linalg.op_norms(values - expected).max()))
        worst = max(worst, op_norm(dual.apply(bc.e_proj) - bc.lambda_many(inv[None])[0]))
        report = sa.verify(dual, samples=16, seed=31)
        assert report.passed, suite.name
    _report("5 dual expectation", worst < 1e-9, f"max residual = {worst:.3e}")


def test_criterion_06_path_agreement(all_suites, crossed_suite):
    worst = 0.0
    cases = [(s.expectation, s.ctx, list(s.pairs())) for s in all_suites]
    cs = crossed_suite
    cases.append(
        (cs.expectation, cs.ctx, [(None, None, cs.ci_k, cs.ci_l)])
    )
    for exp, ctx, pairs in cases:
        for _, _, ci, cj in pairs:
            rep = sa.interior_angle(exp, ci, cj, path="both", ctx=ctx)
            worst = max(worst, rep.path_disagreement or 0.0)
    _report("6 path agreement", worst < 1e-8, f"max disagreement = {worst:.3e}")


def test_criterion_07_commuting_squares(all_suites):
    all_ok = True
    angle_worst = 0.0
    for suite in all_suites:
        for gk, gl, ci, cj in suite.pairs():
            rep = sa.interior_angle(suite.expectation, ci, cj, path="both", ctx=suite.ctx)
            expected = sa.intersect(gk, gl) == suite.small_group
            all_ok &= rep.commuting_square == expected
            if rep.commuting_square:
                angle_worst = max(angle_worst, abs(rep.angle - math.pi / 2))
    _report(
        "7 commuting squares",
        all_ok and angle_worst < 1e-8,
        f"characterization = {all_ok}, max |angle - pi/2| = {angle_worst:.3e}",
    )


def test_criterion_08_tensor_stability(suite_d4, suite_s3):
    worst = 0.0
    for suite in (suite_d4, suite_s3):
        base_cos = {}
        for idx, (gk, gl, ci, cj) in enumerate(suite.pairs()):
            rep = sa.interior_angle(
                suite.expectation, ci, cj, path="both", ctx=suite.ctx
            )
            base_cos[idx] = rep.cos_value
        for k in (2, 3):
            big = sa.tensor_by_factor(suite.algebra, k)
            small = sa.tensor_by_factor(suite.small, k)
            exp_k = sa.trace_preserving(sa.Inclusion(big=big, small=small))
            ctx_k = sa.AngleContext(exp_k)
            compat_k = [
                sa.make_compatible(exp_k, sa.tensor_by_factor(ci.P, k))
                for ci in suite.compat
            ]
            idx = 0
            for i in range(len(compat_k)):
                for j in range(i, len(compat_k)):
                    rep = sa.interior_angle(
                        exp_k, compat_k[i], compat_k[j], path="quasibasis", ctx=ctx_k
                    )
                    worst = max(worst, abs(rep.cos_value - base_cos[idx]))
                    idx += 1
    _report("8 tensor stability", worst < 1e-8, f"max |cos_k - cos| = {worst:.3e}")


def test_criterion_09_exterior_angle(suite_d4):
    worst = 0.0
    reflexive_worst = 0.0
    suite = suite_d4
    for i in range(len(suite.compat)):
        for j in range(i, len(suite.compat)):
            rep = sa.exterior_angle(
                suite.expectation,
                suite.compat[i],
                suite.compat[j],
                ctx=suite.ctx,
                second_floor=True,
            )
            worst = max(worst, rep.path_disagreement or 0.0)
            if i == j:
                reflexive_worst = max(reflexive_worst, abs(rep.angle))
    _report(
        "9 exterior angle",
        worst < 1e-7 and reflexive_worst < 1e-5,
        f"max cross-floor disagreement = {worst:.3e}, max beta(P,P) = {reflexive_worst:.3e}",
    )


def test_criterion_10_quasi_basis_reconstruction(scenario_expectations):
    worst = 0.0
    for name, exp in scenario_expectations:
        mb = sa.orthonormal_basis(exp)
        residual = sa.verify_quasi_basis(exp, mb.elements, samples=100, seed=41)
        worst = max(worst, residual)
    _report("10 quasi-basis reconstruction", worst < 1e-9, f"max residual = {worst:.3e}")


def test_criterion_11_probabilistic_estimator(scenario_expectations, trace_inclusions):
    in_range = True
    for name, exp in scenario_expectations:
        wi = sa.watatani_index(sa.orthonormal_basis(exp))
        estimate = sa.ind_p_estimate(exp, trials=5, seed=43, steps=200)
        in_range &= 1.0 - 1e-12 <= estimate <= wi.norm + 1e-6
    m2_estimate = sa.ind_p_estimate(trace_inclusions[2], trials=8, seed=43, steps=400)
    closed_form_hit = abs(m2_estimate - 2.0) <= 1e-3
    strictly_below_cp_proxy = m2_estimate < 4.0 - 1.0
    _report(
        "11 probabilistic index estimator",
        in_range and closed_form_hit and strictly_below_cp_proxy,
        f"bounds = {in_range}, trace_m2 estimate = {m2_estimate:.6f}",
    )


def test_criterion_12_cli_determinism(tmp_path):
    scenario = SCENARIOS / "d4_pair.json"
    outputs = []
    for name in ("one.json", "two.json"):
        target = tmp_path / name
        code = cli.main(
            ["angle", str(scenario), "--seed", "11", "--out", str(target)]
        )
        assert code == 0
        outputs.append(target.read_bytes())
    identical = outputs[0] == outputs[1]
    _report("12 CLI determinism", identical, f"{len(outputs[0])} bytes compared")
