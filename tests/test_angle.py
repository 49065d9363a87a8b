import functools
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import starangles as sa
from starangles.errors import ArgumentError, DegenerateDenominatorError, InvariantError
from starangles.expectation import _state_min_eigenvalue
from starangles.linalg import DEFAULT_TOLERANCES, adjoint, op_norm

from conftest import random_unitary


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
        # e_B = e, so z_B = 0 and z_B z_Q = 0 for every intermediate Q
        ci_b = sa.make_compatible(suite_d4.expectation, suite_d4.small)
        assert op_norm(suite_d4.ctx.jones_difference(ci_b)) < 1e-10

    def test_group_characterization(self, suite_d4):
        g, h = suite_d4.group, suite_d4.small_group
        for gk, gl, ci, cj in suite_d4.pairs():
            rep = sa.interior_angle(suite_d4.expectation, ci, cj, ctx=suite_d4.ctx)
            assert rep.commuting_square == (sa.intersect(gk, gl) == h)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_group_characterization_under_conjugation(self, seed):
        exp, cis, ctx = conjugated_d4(seed)
        for i, j in itertools.product(range(len(cis)), repeat=2):
            rep = sa.interior_angle(exp, cis[i], cis[j], path="definition", ctx=ctx)
            assert rep.commuting_square == (
                sa.intersect(D4_PROPER[i], D4_PROPER[j]) == sa.trivial(4)
            )

    def test_intersecting_pair_is_not_commuting(self, suite_d4):
        r = sa.parse_cycles("(1 2 3 4)", 4)
        s = sa.parse_cycles("(1 3)", 4)
        ci_k = sa.make_compatible(
            suite_d4.expectation, suite_d4.rep.subalgebra(sa.closure(4, [r]))
        )
        ci_l = sa.make_compatible(
            suite_d4.expectation, suite_d4.rep.subalgebra(sa.closure(4, [r * r, s]))
        )
        rep = sa.interior_angle(suite_d4.expectation, ci_k, ci_l, ctx=suite_d4.ctx)
        assert rep.commuting_square is False and rep.commuting_residual > 0.1

    @pytest.mark.parametrize("seed", [0, 1])
    def test_residual_is_that_of_the_jones_projections(self, seed):
        # |z_P z_Q| against |e_P e_Q - e| on both floors of a conjugated tower
        exp, cis, _ = conjugated_d4(seed)
        ctx = sa.AngleContext(exp)
        upper = ctx.upper
        for i, j in itertools.combinations_with_replacement(range(len(cis)), 2):
            floor = sa.interior_angle(exp, cis[i], cis[j], path="definition", ctx=ctx)
            e_p, e_q = ctx.jones_projection(cis[i]), ctx.jones_projection(cis[j])
            oracle = op_norm(e_p @ e_q - ctx.bc.e_proj)
            assert abs(floor.commuting_residual - oracle) < 1e-13
            if {i, j} <= {0, 7}:  # one floor up, three pairs
                up = sa.exterior_angle(exp, cis[i], cis[j], ctx=ctx, second_floor=True)
                p1, q1 = ctx.first_floor(cis[i]), ctx.first_floor(cis[j])
                e_p1, e_q1 = upper.jones_projection(p1), upper.jones_projection(q1)
                oracle = op_norm(e_p1 @ e_q1 - upper.bc.e_proj)
                assert abs(up.commuting_residual - oracle) < 1e-13


class TestOneModuleBasisPerFloor:
    """A fresh context builds each floor's module basis and index once: with both
    routes, the quasi-basis route reads those the basic construction built."""

    @staticmethod
    def counted(monkeypatch) -> dict[str, int]:
        from starangles import angle as angle_module, basic as basic_module, pimsner

        calls = {"orthonormal_basis": 0, "watatani_index": 0}
        for name in calls:

            def counting(*args, _name=name, _original=getattr(pimsner, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in (angle_module, basic_module):
                monkeypatch.setattr(module, name, counting)
        return calls

    def test_interior_angle_on_both_routes(self, suite_d4, monkeypatch):
        exp, p, q = suite_d4.expectation, suite_d4.compat[0], suite_d4.compat[-1]
        calls = self.counted(monkeypatch)
        sa.interior_angle(exp, p, q, path="both", ctx=sa.AngleContext(exp))
        # A over B, then P and Q over B
        assert calls == {"orthonormal_basis": 3, "watatani_index": 3}

    def test_exterior_angle_with_second_floor(self, suite_d4, monkeypatch):
        exp, p, q = suite_d4.expectation, suite_d4.compat[0], suite_d4.compat[-1]
        calls = self.counted(monkeypatch)
        sa.exterior_angle(exp, p, q, ctx=sa.AngleContext(exp), second_floor=True)
        # A over B, A over P and over Q (P1's and Q1's pair blocks), M1 over
        # lambda(A), then P1 and Q1 over lambda(A); no index of A over P or Q
        assert calls == {"orthonormal_basis": 6, "watatani_index": 4}


class TestExteriorAngle:
    def test_equal_intermediates_give_zero(self, suite_d4):
        ci = suite_d4.compat[0]
        rep = sa.exterior_angle(suite_d4.expectation, ci, ci, ctx=suite_d4.ctx)
        assert rep.angle == 0.0
        assert rep.cos_value == 1.0

    def test_transversal_pair_is_a_right_angle(self, suite_s3):
        # K = A3, L = <(1 2)> in C[S3]: cos = 0 exactly; the bound sits far below
        # angle_tol, so rounding growth one floor up shows long before it fails
        k = sa.closure(3, [sa.parse_cycles("(1 2 3)", 3)])
        ell = sa.closure(3, [sa.parse_cycles("(1 2)", 3)])
        ci_k = sa.make_compatible(suite_s3.expectation, suite_s3.rep.subalgebra(k))
        ci_l = sa.make_compatible(suite_s3.expectation, suite_s3.rep.subalgebra(ell))
        rep = sa.exterior_angle(suite_s3.expectation, ci_k, ci_l, ctx=suite_s3.ctx)
        assert abs(rep.raw_cos) <= 1e-10

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

    def test_no_generator_closure(self, suite_d4, monkeypatch):
        # P1 and Q1 come from pair blocks; the second-floor angle equals the one
        # between the generator closures of lambda(A) + e_P and lambda(A) + e_Q
        exp, ctx = suite_d4.expectation, suite_d4.ctx
        bc = ctx.bc

        def closure_floor(ci):
            gens = list(bc.lambda_stack) + [ctx.jones_projection(ci)]
            return sa.make_compatible(ctx.dual, sa.from_generators(bc.rep_dim, gens))

        floors = [closure_floor(ci) for ci in suite_d4.compat]
        oracle_ctx = sa.AngleContext(ctx.dual)
        pairs = list(itertools.combinations_with_replacement(range(len(floors)), 2))
        expected = [
            sa.interior_angle(ctx.dual, floors[i], floors[j], ctx=oracle_ctx).cos_value
            for i, j in pairs
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("generator closure on the angle path")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "starangles" and hasattr(module, "from_generators"):
                monkeypatch.setattr(module, "from_generators", refuse)
        fresh = sa.AngleContext(exp)
        for (i, j), cos in zip(pairs, expected):
            p, q = suite_d4.compat[i], suite_d4.compat[j]
            rep = sa.exterior_angle(exp, p, q, ctx=fresh, second_floor=True)
            assert abs(rep.cos_value - cos) < DEFAULT_TOLERANCES.angle_tol, (i, j)

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


def test_state_min_eigenvalue_is_each_gram_floor():
    # on every expectation of the tower the density's least eigenvalue is the
    # least eigenvalue of the state's Gram matrix on the big algebra
    exp, cis, ctx = conjugated_d4(3)
    named = {"E": exp, "E1": ctx.dual}
    for i, ci in enumerate(cis):
        named[f"F_P{i}"], named[f"E|_P{i}"] = ci.F, ci.E_restricted
    for name, e in named.items():
        gram = e.state_gram(e.big, e.big)
        floor = np.linalg.eigvalsh((gram + adjoint(gram)) / 2.0)[0]
        assert abs(_state_min_eigenvalue(e) - floor) < 1e-12, name


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


class TestPairKernel:
    """A warm pair takes its three norms from one LAPACK call per matrix shape:
    both numerators (``E1(z_P z_Q)`` read in A, and the quasi-basis route's)
    at A's size ``n x n``, whatever the size of M1's space, and the commuting
    residual ``Z_P* Z_Q`` at ``r_P x r_Q``, ``r = dim P - dim B``."""

    @staticmethod
    def lapack_calls(monkeypatch) -> list[tuple[str, tuple[int, ...]]]:
        calls: list[tuple[str, tuple[int, ...]]] = []
        # np.linalg.norm(x, 2) calls the svd of numpy's internal linalg module
        modules = {np.linalg, sys.modules.get("numpy.linalg._linalg")} - {None}
        for name in ("svd", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append((_name, np.shape(args[0])))
                return _original(*args, **kwargs)

            for module in modules:
                monkeypatch.setattr(module, name, counting)
        return calls

    def warm_pair_calls(self, monkeypatch, exp, p, q, ctx) -> list[tuple[str, tuple[int, ...]]]:
        cold = sa.interior_angle(exp, p, q, path="both", ctx=ctx)
        calls = self.lapack_calls(monkeypatch)
        assert sa.interior_angle(exp, p, q, path="both", ctx=ctx) == cold
        return calls

    @staticmethod
    def contract(exp, p, q) -> list[tuple[str, tuple[int, ...]]]:
        # op_norms takes the Gram matrix on the smaller side of Z_P* Z_Q
        n = exp.big.ambient_dim
        gram = min(p.P.dim, q.P.dim) - exp.small.dim
        return [("eigvalsh", (2, n, n)), ("eigvalsh", (1, gram, gram))]

    def test_numerators_in_one_call_at_the_algebras_size(self, suite_s4_v, monkeypatch):
        # C[G] acts on l^2(G), so M1 acts on a space of dim A = |G| = n
        exp, ctx = suite_s4_v.expectation, suite_s4_v.ctx
        assert ctx.bc.rep_dim == exp.big.ambient_dim
        p, q = suite_s4_v.compat[0], suite_s4_v.compat[-1]
        calls = self.warm_pair_calls(monkeypatch, exp, p, q, ctx)
        assert calls == self.contract(exp, p, q)

    def test_numerators_below_m1s_size(self, suite_d4, monkeypatch):
        big = sa.tensor_by_factor(suite_d4.algebra, 2)
        exp = sa.trace_preserving(
            sa.Inclusion(big=big, small=sa.tensor_by_factor(suite_d4.small, 2))
        )
        p, q = (
            sa.make_compatible(exp, sa.tensor_by_factor(ci.P, 2))
            for ci in (suite_d4.compat[0], suite_d4.compat[-1])
        )
        ctx = sa.AngleContext(exp)
        assert ctx.bc.rep_dim > exp.big.ambient_dim
        calls = self.warm_pair_calls(monkeypatch, exp, p, q, ctx)
        assert calls == self.contract(exp, p, q)


class TestSmallestPicture:
    """The definition route's norms, taken in A through lambda^{-1} and on the
    ranges of the z's, against the same norms taken in lambda(A) and M1."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_range_rank_is_dim_p_minus_dim_b(self, seed):
        exp, cis, ctx = conjugated_d4(seed)
        for ci in cis:
            assert ctx.jones_range(ci).shape[1] == ci.P.dim - exp.small.dim
        upper = ctx.upper
        for ci in (cis[0], cis[7]):  # one floor up: P1 over lambda(A)
            floor = ctx.first_floor(ci)
            z_range = upper.jones_range(floor)
            assert z_range.shape[1] == floor.P.dim - ctx.dual.small.dim
            assert op_norm(adjoint(z_range) @ z_range - np.eye(z_range.shape[1])) < 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_norms_equal_those_in_lambda_a(self, seed):
        exp, cis, _ = conjugated_d4(seed)
        ctx = sa.AngleContext(exp)
        upper = ctx.upper

        def oracle(context, x):  # |E1(x)| with E1(x) taken in lambda(A)
            return op_norm(context.dual.apply(x))

        for i, j in itertools.combinations_with_replacement(range(len(cis)), 2):
            rep = sa.interior_angle(exp, cis[i], cis[j], path="definition", ctx=ctx)
            z_p, z_q = ctx.jones_difference(cis[i]), ctx.jones_difference(cis[j])
            assert abs(rep.numerator - oracle(ctx, z_p @ z_q)) < 1e-13
            for den, z in zip(rep.denominators, (z_p, z_q)):
                assert abs(den - math.sqrt(oracle(ctx, z))) < 1e-13
            if {i, j} <= {0, 7}:  # one floor up, three pairs
                up = sa.exterior_angle(exp, cis[i], cis[j], ctx=ctx, second_floor=True)
                p1, q1 = ctx.first_floor(cis[i]), ctx.first_floor(cis[j])
                z_p1, z_q1 = upper.jones_difference(p1), upper.jones_difference(q1)
                assert abs(up.numerator - oracle(upper, z_p1 @ z_q1)) < 1e-13
                for den, z in zip(up.denominators, (z_p1, z_q1)):
                    assert abs(den - math.sqrt(oracle(upper, z))) < 1e-13


class TestMembershipGuard:
    def test_z_outside_m1_rejected(self, suite_s3):
        # lambda(A) does not contain e, so z_P = e_P - e lies outside it
        exp, p, q = suite_s3.expectation, suite_s3.compat[0], suite_s3.compat[-1]
        assert sa.interior_angle(exp, p, q, path="definition", ctx=suite_s3.ctx)
        ctx = sa.AngleContext(exp)
        ctx.dual  # built on the true M1
        ctx.bc.m1 = ctx.bc.lambda_algebra
        with pytest.raises(InvariantError, match="not in M1"):
            sa.interior_angle(exp, p, q, path="definition", ctx=ctx)
        # the quasi-basis route does not read M1
        sa.interior_angle(exp, p, q, path="quasibasis", ctx=ctx)

    def test_z_off_a_projection_rejected(self, suite_s3):
        # 1.5 e_P - e lies in M1 but has eigenvalues 0.5 and 1.5, so it has no range isometry
        exp, p, q = suite_s3.expectation, suite_s3.compat[0], suite_s3.compat[-1]
        ctx = sa.AngleContext(exp)
        ctx._cache(p)["jones"] = 1.5 * ctx.jones_projection(p)
        with pytest.raises(InvariantError, match="not a projection"):
            sa.interior_angle(exp, p, q, path="definition", ctx=ctx)

    def test_singular_lambda_rejected(self, suite_s3):
        # E1 is read in A through lambda^{-1}, which a rank-deficient lambda(A) basis lacks
        exp, p, q = suite_s3.expectation, suite_s3.compat[0], suite_s3.compat[-1]
        ctx = sa.AngleContext(exp)
        ctx.dual  # built on the true lambda
        stack = ctx.bc.lambda_stack
        ctx.bc.lambda_stack = np.concatenate([stack[:1], stack[:1], stack[2:]])
        with pytest.raises(InvariantError, match="lambda is singular"):
            sa.interior_angle(exp, p, q, path="definition", ctx=ctx)


class TestAdmission:
    """A context admits an intermediate only for its own inclusion and
    expectation, on either route and floor."""

    def test_foreign_intermediate_rejected_on_the_quasibasis_route(self, suite_d4, suite_d4_r2):
        # built over C[<r^2>] in C[D4]: the same A, another B
        exp = suite_d4.expectation
        p, q = suite_d4_r2.compat[:2]
        with pytest.raises(ArgumentError, match="different inclusion"):
            sa.interior_angle(exp, p, q, path="quasibasis", ctx=sa.AngleContext(exp))

    def test_exterior_angle_rejects_another_expectations_context(self, suite_d4):
        exp = suite_d4.expectation
        p, q = suite_d4.compat[:2]
        ctx = sa.AngleContext(sa.trace_preserving(exp.inclusion))
        with pytest.raises(ArgumentError, match="different expectation"):
            sa.exterior_angle(exp, p, q, ctx=ctx)


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


CLOSED_FORM_GROUPS = {
    "S3": sa.symmetric(3),
    "D4": sa.dihedral(4),
    "D5": sa.dihedral(5),
    "A4": sa.closure(4, [sa.parse_cycles("(1 2 3)", 4), sa.parse_cycles("(1 2)(3 4)", 4)]),
    "D6": sa.dihedral(6),
    "S4": sa.symmetric(4),
}


@functools.lru_cache(maxsize=None)
def subgroup_lattice(name: str) -> list:
    g = CLOSED_FORM_GROUPS[name]
    return sa.intermediate_subgroups(g, sa.trivial(g.degree))


@functools.lru_cache(maxsize=None)
def closed_form_tower(name: str, h: int):
    """C[H] inside C[G] with its expectation and one context shared by the examples."""
    rep = sa.group_algebra(CLOSED_FORM_GROUPS[name])
    small = rep.subalgebra(subgroup_lattice(name)[h])
    exp = sa.trace_preserving(sa.Inclusion(big=rep.algebra, small=small))
    return rep, exp, sa.AngleContext(exp)


@functools.lru_cache(maxsize=None)
def closed_form_intermediate(name: str, h: int, m: int):
    rep, exp, _ = closed_form_tower(name, h)
    return sa.make_compatible(exp, rep.subalgebra(subgroup_lattice(name)[m]))


@st.composite
def group_quadruples(draw):
    """(G, H, K, L) by name and lattice index, with H < G and K, L strictly above H."""
    name = draw(st.sampled_from(sorted(CLOSED_FORM_GROUPS)))
    lattice = subgroup_lattice(name)
    h = draw(st.integers(0, len(lattice) - 2))  # the last entry is G
    above = [
        m for m, grp in enumerate(lattice)
        if len(grp) > len(lattice[h]) and lattice[h].is_subgroup_of(grp)
    ]
    return name, h, draw(st.sampled_from(above)), draw(st.sampled_from(above))


class TestGroupClosedForm:
    @given(group_quadruples())
    def test_quasibasis_route_matches_closed_form(self, quadruple):
        name, h, k, ell = quadruple
        lattice = subgroup_lattice(name)
        _, exp, ctx = closed_form_tower(name, h)
        rep = sa.interior_angle(
            exp,
            closed_form_intermediate(name, h, k),
            closed_form_intermediate(name, h, ell),
            path="quasibasis",
            ctx=ctx,
        )
        oracle = sa.group_oracle_cosine(
            CLOSED_FORM_GROUPS[name], lattice[h], lattice[k], lattice[ell]
        )
        assert abs(rep.cos_value - oracle) < DEFAULT_TOLERANCES.angle_tol
