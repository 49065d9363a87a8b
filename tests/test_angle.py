import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import starangles as sa
from starangles.errors import DegenerateDenominatorError, InvariantError
from starangles.linalg import DEFAULT_TOLERANCES, adjoint, op_norm, random_unitary


class TestInteriorAngle:
    def test_equal_intermediates_give_zero_angle(self, suite_d4):
        ci = suite_d4.compat[0]
        rep = sa.interior_angle(
            suite_d4.expectation, ci, ci, path="both", ctx=suite_d4.ctx
        )
        assert rep.cos_value == 1.0
        assert rep.angle == 0.0

    def test_s3_transversal_pair_is_orthogonal(self, suite_s3):
        k = sa.closure(3, [sa.parse_cycles("(1 2 3)", 3)])
        ell = sa.closure(3, [sa.parse_cycles("(1 2)", 3)])
        ci_k = sa.make_compatible(suite_s3.expectation, suite_s3.rep.subalgebra(k))
        ci_l = sa.make_compatible(suite_s3.expectation, suite_s3.rep.subalgebra(ell))
        rep = sa.interior_angle(
            suite_s3.expectation, ci_k, ci_l, path="both", ctx=suite_s3.ctx
        )
        assert rep.cos_value == pytest.approx(0.0, abs=1e-10)
        assert rep.angle == pytest.approx(math.pi / 2, abs=1e-8)
        assert rep.commuting_square is True

    def test_d4_rotation_against_half_dihedral(self, suite_d4):
        r = sa.parse_cycles("(1 2 3 4)", 4)
        s = sa.parse_cycles("(1 3)", 4)
        k = sa.closure(4, [r])
        ell = sa.closure(4, [r * r, s])
        ci_k = sa.make_compatible(suite_d4.expectation, suite_d4.rep.subalgebra(k))
        ci_l = sa.make_compatible(suite_d4.expectation, suite_d4.rep.subalgebra(ell))
        rep = sa.interior_angle(
            suite_d4.expectation, ci_k, ci_l, path="both", ctx=suite_d4.ctx
        )
        assert rep.cos_value == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert rep.angle == pytest.approx(math.acos(1.0 / 3.0), abs=1e-10)
        assert rep.commuting_square is False

    def test_paths_agree_within_tolerance(self, suite_s4_v):
        for _, _, ci, cj in suite_s4_v.pairs():
            rep = sa.interior_angle(
                suite_s4_v.expectation, ci, cj, path="both", ctx=suite_s4_v.ctx
            )
            assert rep.path_disagreement is not None
            assert rep.path_disagreement < 1e-8

    def test_symmetry(self, suite_d4):
        exp = suite_d4.expectation
        for _, _, ci, cj in suite_d4.pairs():
            fwd = sa.interior_angle(exp, ci, cj, path="both", ctx=suite_d4.ctx)
            bwd = sa.interior_angle(exp, cj, ci, path="both", ctx=suite_d4.ctx)
            assert fwd.cos_value == pytest.approx(bwd.cos_value, abs=1e-8)

    def test_small_algebra_rejected(self, suite_d4):
        ci_b = sa.make_compatible(suite_d4.expectation, suite_d4.small)
        with pytest.raises(DegenerateDenominatorError):
            sa.interior_angle(
                suite_d4.expectation, ci_b, suite_d4.compat[0], ctx=suite_d4.ctx
            )

    def test_group_closed_form_on_every_d4_pair(self, suite_d4):
        g, h = suite_d4.group, suite_d4.small_group
        for gk, gl, ci, cj in suite_d4.pairs():
            rep = sa.interior_angle(
                suite_d4.expectation, ci, cj, path="both", ctx=suite_d4.ctx
            )
            oracle = sa.group_oracle_cosine(g, h, gk, gl)
            assert rep.cos_value == pytest.approx(oracle, abs=1e-8)

    def test_definition_route_builds_no_restricted_module_basis(self, suite_d4, monkeypatch):
        from starangles import angle as angle_module, basic as basic_module

        built_for = []

        def recording(exp, *args, **kwargs):
            built_for.append(exp)
            return sa.orthonormal_basis(exp, *args, **kwargs)

        for module in (angle_module, basic_module):
            monkeypatch.setattr(module, "orthonormal_basis", recording)
        ci, cj = suite_d4.compat[0], suite_d4.compat[-1]
        ctx = sa.AngleContext(suite_d4.expectation)
        rep = sa.interior_angle(suite_d4.expectation, ci, cj, path="definition", ctx=ctx)
        assert built_for == [suite_d4.expectation]
        assert "|P|" not in rep.provenance

    def test_quasibasis_path_alone(self, suite_s3):
        ci, cj = suite_s3.compat[0], suite_s3.compat[-1]
        rep = sa.interior_angle(
            suite_s3.expectation, ci, cj, path="quasibasis", ctx=suite_s3.ctx
        )
        assert rep.path == "quasibasis"
        assert rep.commuting_square is None
        both = sa.interior_angle(
            suite_s3.expectation, ci, cj, path="both", ctx=suite_s3.ctx
        )
        assert rep.cos_value == pytest.approx(both.cos_value, abs=1e-10)


class TestFullAlgebraAsIntermediate:
    def test_angle_with_big_algebra_matches_oracle(self, suite_s3):
        # P = A is a legitimate intermediate (e_P = 1); K = A3 against it
        ci_a = sa.make_compatible(suite_s3.expectation, suite_s3.algebra)
        k = sa.closure(3, [sa.parse_cycles("(1 2 3)", 3)])
        ci_k = sa.make_compatible(suite_s3.expectation, suite_s3.rep.subalgebra(k))
        rep = sa.interior_angle(
            suite_s3.expectation, ci_a, ci_k, path="both", ctx=suite_s3.ctx
        )
        oracle = sa.group_oracle_cosine(
            suite_s3.group, suite_s3.small_group, suite_s3.group, k
        )
        assert oracle == pytest.approx(2.0 / math.sqrt(10.0), abs=1e-12)
        assert rep.cos_value == pytest.approx(oracle, abs=1e-8)


class TestCommutingSquare:
    def test_small_algebra_commutes_with_everything(self, suite_d4):
        ci_b = sa.make_compatible(suite_d4.expectation, suite_d4.small)
        flag, residual = sa.is_commuting_square(
            suite_d4.expectation, ci_b, suite_d4.compat[0], ctx=suite_d4.ctx
        )
        assert flag and residual < 1e-10

    def test_group_characterization(self, suite_d4):
        g, h = suite_d4.group, suite_d4.small_group
        for gk, gl, ci, cj in suite_d4.pairs():
            flag, _ = sa.is_commuting_square(
                suite_d4.expectation, ci, cj, ctx=suite_d4.ctx
            )
            assert flag == (sa.intersect(gk, gl) == h)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_group_characterization_under_conjugation(self, seed):
        exp, cis, ctx = conjugated_d4(seed)
        for i, j in itertools.product(range(len(cis)), repeat=2):
            flag, _ = sa.is_commuting_square(exp, cis[i], cis[j], ctx=ctx)
            assert flag == (sa.intersect(D4_PROPER[i], D4_PROPER[j]) == sa.trivial(4))

    def test_intersecting_pair_is_not_commuting(self, suite_d4):
        r = sa.parse_cycles("(1 2 3 4)", 4)
        s = sa.parse_cycles("(1 3)", 4)
        ci_k = sa.make_compatible(
            suite_d4.expectation, suite_d4.rep.subalgebra(sa.closure(4, [r]))
        )
        ci_l = sa.make_compatible(
            suite_d4.expectation, suite_d4.rep.subalgebra(sa.closure(4, [r * r, s]))
        )
        flag, residual = sa.is_commuting_square(
            suite_d4.expectation, ci_k, ci_l, ctx=suite_d4.ctx
        )
        assert not flag and residual > 0.1


class TestExteriorAngle:
    def test_equal_intermediates_give_zero(self, suite_d4):
        ci = suite_d4.compat[0]
        rep = sa.exterior_angle(suite_d4.expectation, ci, ci, ctx=suite_d4.ctx)
        assert rep.angle == 0.0
        assert rep.cos_value == 1.0

    def test_angle_in_range(self, suite_s3):
        ci, cj = suite_s3.compat[0], suite_s3.compat[-1]
        rep = sa.exterior_angle(suite_s3.expectation, ci, cj, ctx=suite_s3.ctx)
        assert 0.0 <= rep.angle <= math.pi / 2

    def test_second_floor_cross_check_on_one_pair(self, suite_s3):
        ci, cj = suite_s3.compat[0], suite_s3.compat[1]
        rep = sa.exterior_angle(
            suite_s3.expectation, ci, cj, ctx=suite_s3.ctx, second_floor=True
        )
        assert rep.path == "both"
        assert rep.path_disagreement is not None
        assert rep.path_disagreement < 1e-7

    def test_incompatible_first_floor_reported(self, suite_s3, monkeypatch):
        from starangles import angle as angle_module
        from starangles.errors import ExteriorAngleUndefinedError, IncompatibilityError

        def refuse(*args, **kwargs):
            raise IncompatibilityError("synthetic", 0.5)

        monkeypatch.setattr(angle_module, "make_compatible", refuse)
        ctx = sa.AngleContext(suite_s3.expectation)
        with pytest.raises(ExteriorAngleUndefinedError) as err:
            sa.exterior_angle(
                suite_s3.expectation, suite_s3.compat[0], suite_s3.compat[1], ctx=ctx
            )
        assert err.value.residual == 0.5


# the 8 proper intermediate subgroups of D4 over the trivial group
D4_PROPER = [
    m for m in sa.intermediate_subgroups(sa.dihedral(4), sa.trivial(4)) if len(m) not in (1, 8)
]


@functools.lru_cache(maxsize=None)
def conjugated_d4(seed: int):
    """C inside C[D4] conjugated by a Haar unitary, its 8 proper compatible
    intermediates, and one context shared by the tests that only read it."""
    rep = sa.group_algebra(sa.dihedral(4))
    u = random_unitary(np.random.default_rng(seed), 8)

    def conjugate(algebra):
        return sa.StarAlgebra(8, u @ algebra.basis @ adjoint(u))

    exp = sa.trace_preserving(
        sa.Inclusion(big=conjugate(rep.algebra), small=conjugate(rep.subalgebra(sa.trivial(4))))
    )
    cis = tuple(sa.make_compatible(exp, conjugate(rep.subalgebra(m))) for m in D4_PROPER)
    return exp, cis, sa.AngleContext(exp)


pair_indices = st.integers(0, 7)
routes = st.sampled_from(["quasibasis", "definition"])


class TestAngleCaches:
    """Per-intermediate caches on a Haar-conjugated C inside C[D4]."""

    @given(st.integers(0, 2), pair_indices, pair_indices)
    def test_symmetric_with_unit_diagonal(self, seed, i, j):
        exp, cis, ctx = conjugated_d4(seed)
        tol = DEFAULT_TOLERANCES.angle_tol
        forward = sa.interior_angle(exp, cis[i], cis[j], ctx=ctx)
        backward = sa.interior_angle(exp, cis[j], cis[i], ctx=ctx)
        assert abs(forward.cos_value - backward.cos_value) < tol
        for k in (i, j):
            assert abs(sa.interior_angle(exp, cis[k], cis[k], ctx=ctx).cos_value - 1.0) < tol

    @settings(max_examples=10)  # three fresh basic constructions per example
    @given(
        st.integers(0, 2),
        pair_indices,
        pair_indices,
        st.booleans(),
        st.lists(st.tuples(pair_indices, pair_indices, routes), max_size=4),
    )
    def test_warm_context_matches_fresh(self, seed, i, j, full_matrix, calls):
        exp, cis, _ = conjugated_d4(seed)
        warm = sa.AngleContext(exp)
        if full_matrix:
            sa.angle_matrix(exp, list(cis), ctx=warm)
        for k, m, path in calls:
            sa.interior_angle(exp, cis[k], cis[m], path=path, ctx=warm)
        for path in ("both", "quasibasis", "definition"):
            fresh = sa.interior_angle(exp, cis[i], cis[j], path=path, ctx=sa.AngleContext(exp))
            assert sa.interior_angle(exp, cis[i], cis[j], path=path, ctx=warm) == fresh


class TestAngleMatrix:
    def test_singleton(self, suite_d4):
        matrix = sa.angle_matrix(
            suite_d4.expectation, [suite_d4.compat[0]], path="both", ctx=suite_d4.ctx
        )
        assert matrix.size == 1
        assert matrix.angles()[0, 0] == pytest.approx(0.0, abs=1e-5)

    def test_d4_lattice_structure(self, suite_d4):
        matrix = sa.angle_matrix(
            suite_d4.expectation, suite_d4.compat, path="both", ctx=suite_d4.ctx
        )
        angles = matrix.angles()
        assert not matrix.errors
        assert np.allclose(angles, angles.T, atol=1e-8)
        assert np.allclose(np.diag(angles), 0.0, atol=1e-5)
        assert np.all(angles >= -1e-12) and np.all(angles <= math.pi / 2 + 1e-12)

    def test_matches_standalone_entries(self, suite_s3):
        matrix = sa.angle_matrix(
            suite_s3.expectation, suite_s3.compat, path="both", ctx=suite_s3.ctx
        )
        for i, ci in enumerate(suite_s3.compat):
            for j, cj in enumerate(suite_s3.compat):
                standalone = sa.interior_angle(
                    suite_s3.expectation, ci, cj, path="both", ctx=suite_s3.ctx
                )
                assert matrix.reports[i][j].cos_value == pytest.approx(
                    standalone.cos_value, abs=1e-10
                )

    def test_failed_pair_marked(self, suite_s3):
        ci_b = sa.make_compatible(suite_s3.expectation, suite_s3.small)
        matrix = sa.angle_matrix(
            suite_s3.expectation,
            [suite_s3.compat[0], ci_b],
            path="both",
            ctx=suite_s3.ctx,
        )
        assert (0, 1) in matrix.errors or (1, 1) in matrix.errors


class TestTensorStability:
    @pytest.mark.parametrize("k", [2, 3])
    def test_d4_rotation_pair_stable(self, suite_d4, k):
        r = sa.parse_cycles("(1 2 3 4)", 4)
        s = sa.parse_cycles("(1 3)", 4)
        gk = sa.closure(4, [r])
        gl = sa.closure(4, [r * r, s])
        base = sa.interior_angle(
            suite_d4.expectation,
            sa.make_compatible(suite_d4.expectation, suite_d4.rep.subalgebra(gk)),
            sa.make_compatible(suite_d4.expectation, suite_d4.rep.subalgebra(gl)),
            path="both",
            ctx=suite_d4.ctx,
        )
        big = sa.tensor_by_factor(suite_d4.algebra, k)
        small = sa.tensor_by_factor(suite_d4.small, k)
        exp_k = sa.trace_preserving(sa.Inclusion(big=big, small=small))
        ci_k = sa.make_compatible(
            exp_k, sa.tensor_by_factor(suite_d4.rep.subalgebra(gk), k)
        )
        ci_l = sa.make_compatible(
            exp_k, sa.tensor_by_factor(suite_d4.rep.subalgebra(gl), k)
        )
        tensored = sa.interior_angle(exp_k, ci_k, ci_l, path="quasibasis")
        assert tensored.cos_value == pytest.approx(base.cos_value, abs=1e-8)

    def test_k2_definition_path_agrees_too(self, suite_s3):
        ci, cj = suite_s3.compat[0], suite_s3.compat[-1]
        base = sa.interior_angle(
            suite_s3.expectation, ci, cj, path="both", ctx=suite_s3.ctx
        )
        big = sa.tensor_by_factor(suite_s3.algebra, 2)
        small = sa.tensor_by_factor(suite_s3.small, 2)
        exp_2 = sa.trace_preserving(sa.Inclusion(big=big, small=small))
        ci_2 = sa.make_compatible(exp_2, sa.tensor_by_factor(ci.P, 2))
        cj_2 = sa.make_compatible(exp_2, sa.tensor_by_factor(cj.P, 2))
        rep = sa.interior_angle(exp_2, ci_2, cj_2, path="both")
        assert rep.path_disagreement < 1e-8
        assert rep.cos_value == pytest.approx(base.cos_value, abs=1e-8)

    def test_tensored_index_gains_no_factor(self, suite_s3):
        big = sa.tensor_by_factor(suite_s3.algebra, 2)
        small = sa.tensor_by_factor(suite_s3.small, 2)
        exp_2 = sa.trace_preserving(sa.Inclusion(big=big, small=small))
        wi = sa.watatani_index(sa.orthonormal_basis(exp_2))
        assert wi.scalar == pytest.approx(6.0, abs=1e-9)


class TestCrossedProductGeneralization:
    def test_closed_form_with_nontrivial_base(self, crossed_suite):
        cs = crossed_suite
        rep = sa.interior_angle(
            cs.expectation, cs.ci_k, cs.ci_l, path="both", ctx=cs.ctx
        )
        oracle = sa.group_oracle_cosine(
            cs.group, cs.small_group, cs.subgroup_k, cs.subgroup_l
        )
        assert oracle == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rep.cos_value == pytest.approx(oracle, abs=1e-8)
        assert rep.path_disagreement < 1e-8

    def test_crossed_index_is_subgroup_index(self, crossed_suite):
        cs = crossed_suite
        wi = sa.watatani_index(sa.orthonormal_basis(cs.expectation))
        assert wi.scalar == pytest.approx(
            sa.index(cs.group, cs.small_group), abs=1e-9
        )


class TestOracle:
    def test_degenerate_oracle_rejected(self, suite_d4):
        with pytest.raises(Exception):
            sa.group_oracle_cosine(
                suite_d4.group,
                suite_d4.small_group,
                suite_d4.small_group,
                suite_d4.group,
            )

    def test_cosine_bound_guard(self):
        # raw cosines beyond 1 + angle_tol must raise, clamped otherwise
        with pytest.raises(InvariantError):
            from starangles.angle import _finish_report
            from starangles.linalg import DEFAULT_TOLERANCES

            _finish_report(
                "quasibasis",
                {"quasibasis": (2.0, (1.0, 1.0))},
                "quasibasis",
                DEFAULT_TOLERANCES,
                None,
                "synthetic",
            )

    def test_equal_spans_do_not_hide_a_broken_route(self):
        # an intermediate against itself reads angle 0 only if its cosine is ~1
        from starangles.angle import _finish_report

        fragments = {"quasibasis": (1.0 - 1.5e-15, (1.0, 1.0))}
        rep = _finish_report(
            "quasibasis", fragments, "quasibasis", DEFAULT_TOLERANCES, None, "", same=True
        )
        assert (rep.cos_value, rep.angle, rep.raw_cos) == (1.0, 0.0, 1.0 - 1.5e-15)
        with pytest.raises(InvariantError):
            _finish_report(
                "quasibasis",
                {"quasibasis": (0.5, (1.0, 1.0))},
                "quasibasis",
                DEFAULT_TOLERANCES,
                None,
                "",
                same=True,
            )
