import numpy as np
import pytest

import starangles as sa
from starangles import basic
from starangles.errors import ArgumentError, ConstructionError
from starangles.linalg import DEFAULT_TOLERANCES, adjoint, op_norm, random_unitary

from conftest import full_matrix_algebra, scalar_algebra


@pytest.fixture(scope="module")
def s3_over_swap():
    """C[<(12)>] inside C[S3]; the smallest nonabelian interesting floor."""
    g = sa.symmetric(3)
    h = sa.closure(3, [sa.parse_cycles("(1 2)", 3)])
    rep = sa.group_algebra(g)
    exp = sa.trace_preserving(
        sa.Inclusion(big=rep.algebra, small=rep.subalgebra(h))
    )
    return g, h, rep, exp, basic.build(exp)


class TestBuild:
    def test_jones_projection_is_projection(self, s3_over_swap):
        *_, bc = s3_over_swap
        e = bc.e_proj
        assert op_norm(e @ e - e) < 1e-12
        assert op_norm(adjoint(e) - e) < 1e-12

    def test_e_fixes_small_coordinates(self, s3_over_swap):
        g, h, rep, exp, bc = s3_over_swap
        for x in exp.small.basis:
            assert np.linalg.norm(bc.e_proj @ bc.phi(x) - bc.phi(x)) < 1e-12

    def test_compression_identity_on_random_elements(self, s3_over_swap):
        *_, exp, bc = s3_over_swap
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = exp.big.random_element(rng)
            lam = bc.lambda_of(x)
            lhs = bc.e_proj @ lam @ bc.e_proj
            rhs = bc.lambda_of(exp.apply(x)) @ bc.e_proj
            assert op_norm(lhs - rhs) < 1e-10

    def test_m1_dimension_is_squared_index_times_small(self, s3_over_swap):
        g, h, *_ , bc = s3_over_swap
        assert bc.dim_m1 == sa.index(g, h) ** 2 * len(h) == 18

    def test_lambda_is_homomorphism(self, s3_over_swap):
        *_, exp, bc = s3_over_swap
        rng = np.random.default_rng(4)
        x, y = exp.big.random_element(rng), exp.big.random_element(rng)
        assert op_norm(bc.lambda_of(x) @ bc.lambda_of(y) - bc.lambda_of(x @ y)) < 1e-10
        assert op_norm(adjoint(bc.lambda_of(x)) - bc.lambda_of(adjoint(x))) < 1e-10

    def test_cover_identity(self, s3_over_swap):
        *_, bc = s3_over_swap
        total = sum(
            bc.lambda_of(m) @ bc.e_proj @ adjoint(bc.lambda_of(m))
            for m in bc.module_basis.elements
        )
        assert op_norm(total - np.eye(bc.rep_dim)) < 1e-10

    def test_m1_matches_generated_algebra(self, s3_over_swap, suite_s3):
        # the spanning-family M1 equals <lambda(A), e> closed under products;
        # tensoring by M_2 makes the small algebra noncommutative
        k = 2
        big = sa.tensor_by_factor(suite_s3.algebra, k)
        small = sa.tensor_by_factor(suite_s3.small, k)
        tensored = basic.build(sa.trace_preserving(sa.Inclusion(big=big, small=small)))
        for bc in (s3_over_swap[-1], tensored):
            generated = sa.from_generators(bc.rep_dim, list(bc.lambda_stack) + [bc.e_proj])
            assert sa.same_span(bc.m1, generated)

    def test_m1_dimension_closed_form(self, all_suites):
        # Jones: dim M1 = |G| [G:H] for C[H] inside C[G]
        for suite in all_suites:
            expected = len(suite.group) * sa.index(suite.group, suite.small_group)
            assert suite.ctx.bc.dim_m1 == expected, suite.name

    def test_commutant_identity_enforced(self, all_suites):
        # build() raises unless {e}' in lambda(A) equals lambda(B) exactly
        for suite in all_suites:
            bc = suite.ctx.bc
            commutant = sa.algebra.commutant_within(bc.lambda_algebra, [bc.e_proj])
            assert commutant.dim == suite.small.dim, suite.name


class TestTheta:
    def test_unit_pair_gives_e(self, s3_over_swap):
        *_, exp, bc = s3_over_swap
        assert op_norm(basic.theta(bc, exp.big.unit, exp.big.unit) - bc.e_proj) < 1e-12

    def test_composition_rule(self, s3_over_swap):
        *_, exp, bc = s3_over_swap
        rng = np.random.default_rng(8)
        for _ in range(5):
            x, y, w, z = (exp.big.random_element(rng) for _ in range(4))
            lhs = basic.theta(bc, x, y) @ basic.theta(bc, w, z)
            rhs = basic.theta(bc, x @ exp.apply(adjoint(y) @ w), z)
            assert op_norm(lhs - rhs) < 1e-9

    def test_adjoint_rule(self, s3_over_swap):
        *_, exp, bc = s3_over_swap
        rng = np.random.default_rng(9)
        x, y = exp.big.random_element(rng), exp.big.random_element(rng)
        assert op_norm(adjoint(basic.theta(bc, x, y)) - basic.theta(bc, y, x)) < 1e-10

    def test_membership_enforced(self, s3_over_swap):
        *_, exp, bc = s3_over_swap
        outside = np.zeros((6, 6), dtype=complex)
        outside[0, 1] = 1.0
        with pytest.raises(ArgumentError):
            basic.theta(bc, outside, exp.big.unit)


class TestDualExpectation:
    def test_prescribed_values_on_spanning_pairs(self, s3_over_swap):
        *_, exp, bc = s3_over_swap
        dual = basic.dual_expectation(bc)
        inv = bc.index.inverse()
        a = exp.big
        for p in range(a.dim):
            for q in range(a.dim):
                t = bc.lambda_stack[p] @ bc.e_proj @ bc.lambda_stack[q]
                expected = inv @ a.basis[p] @ a.basis[q]
                assert op_norm(dual.apply(t) - expected) < 1e-9

    def test_value_on_e_is_inverse_index(self, s3_over_swap):
        g, h, _, exp, bc = s3_over_swap
        dual = basic.dual_expectation(bc)
        expected = np.eye(6) / sa.index(g, h)
        assert op_norm(dual.apply(bc.e_proj) - expected) < 1e-10

    def test_unital(self, s3_over_swap):
        *_, exp, bc = s3_over_swap
        dual = basic.dual_expectation(bc)
        assert op_norm(dual.apply(np.eye(bc.rep_dim)) - exp.big.unit) < 1e-10

    def test_axioms_hold_as_expectation(self, s3_over_swap):
        *_, bc = s3_over_swap
        dual = basic.dual_expectation(bc)
        report = sa.verify(dual.expectation, samples=16, seed=13)
        assert report.passed

    def test_out_of_span_argument_rejected(self, trace_inclusions):
        exp = trace_inclusions[2]
        bc = basic.build(exp)
        dual = basic.dual_expectation(bc)
        # M1 is all of M_4 here, so corrupt by size instead: wrong shape
        with pytest.raises(Exception):
            dual.apply(np.eye(3))

    def test_rank_one_inclusion_dual(self, trace_inclusions):
        exp = trace_inclusions[2]
        bc = basic.build(exp)
        dual = basic.dual_expectation(bc)
        assert op_norm(dual.apply(bc.e_proj) - np.eye(2) / 4.0) < 1e-10


@pytest.fixture(scope="module")
def s3_tensor_m2():
    """C[S3] (x) M_2 over M_2: the spanning family has more matrices than
    M1 has dimensions, so its SVD truncates and the solve is least squares."""
    g = sa.symmetric(3)
    rep = sa.group_algebra(g)
    big = sa.tensor_by_factor(rep.algebra, 2)
    small = sa.tensor_by_factor(rep.subalgebra(sa.trivial(3)), 2)
    bc = basic.build(sa.trace_preserving(sa.Inclusion(big=big, small=small)))
    inv = bc.index.inverse()
    family, values = [], []
    for m_j in bc.module_basis.elements:
        for b_t in small.basis:
            for m_k in bc.module_basis.elements:
                family.append(basic.theta(bc, m_j @ b_t, m_k))
                values.append(inv @ m_j @ b_t @ adjoint(m_k))
    return bc, basic.dual_expectation(bc), np.stack(family), np.stack(values)


class TestRankDeficientDual:
    def test_family_exceeds_m1(self, s3_tensor_m2):
        bc, _, family, _ = s3_tensor_m2
        assert len(family) == 4 * bc.dim_m1 == 576

    def test_prescribed_values_reproduced(self, s3_tensor_m2):
        _, dual, family, values = s3_tensor_m2
        assert max(op_norm(x) for x in dual.apply_many(family) - values) < 1e-9

    def test_matches_minimum_norm_lstsq(self, s3_tensor_m2):
        bc, dual, family, values = s3_tensor_m2
        rows = family.reshape(len(family), -1)
        rng = np.random.default_rng(11)
        for _ in range(3):
            t = bc.m1.random_element(rng)
            coeffs = np.linalg.lstsq(rows.T, t.ravel(), rcond=None)[0]
            reference = np.tensordot(coeffs, values, axes=(0, 0))
            assert op_norm(dual.apply(t) - reference) < 1e-9

    def test_out_of_span_element_rejected(self, s3_tensor_m2):
        bc, dual, *_ = s3_tensor_m2
        outside = np.zeros((bc.rep_dim, bc.rep_dim), dtype=complex)
        outside[0, 1] = 1.0
        assert not bc.m1.contains(outside)[0]
        with pytest.raises(ArgumentError):
            dual.apply(outside)

    def test_inconsistent_prescription_rejected(self, s3_tensor_m2):
        bc, *_ = s3_tensor_m2
        blocks, values = family_blocks(bc)
        tol = DEFAULT_TOLERANCES
        basic._minimum_norm_table(blocks, values, bc.rep_dim, tol)  # consistent: no raise
        # a perturbation along the orthogonal complement of each block's range
        u, s, _ = np.linalg.svd(blocks, full_matrices=False)
        u = u * (s > tol.rank_tol * s.max())[:, None, :]
        noise = np.random.default_rng(12).standard_normal(values.shape)
        noise = noise.reshape(*blocks.shape[:2], -1)
        noise = (noise - u @ (np.conj(np.swapaxes(u, 1, 2)) @ noise)).reshape(values.shape)
        with pytest.raises(ConstructionError) as err:
            basic._minimum_norm_table(blocks, values + 1e-6 * noise, bc.rep_dim, tol)
        assert err.value.prop == "dual prescription consistency"


def family_blocks(bc):
    """The spanning family's pair blocks and their prescribed values."""
    lam_m = bc.lambda_many(bc.module_basis.elements)
    lam_b = bc.lambda_many(bc.source.small.basis)
    return basic._spanning_family(bc, lam_m, lam_b)


@pytest.fixture(scope="module")
def d4_haar():
    """C inside C[D4], both conjugated by one Haar unitary."""
    rep = sa.group_algebra(sa.dihedral(4))
    u = random_unitary(np.random.default_rng(5), rep.algebra.ambient_dim)

    def conjugate(a):
        return sa.StarAlgebra(a.ambient_dim, u @ a.basis @ adjoint(u))

    big, small = conjugate(rep.algebra), conjugate(rep.subalgebra(sa.trivial(4)))
    return basic.build(sa.trace_preserving(sa.Inclusion(big=big, small=small)))


class TestPairFactorization:
    """M1's spanning family splits into orthogonal blocks, one per module pair."""

    @pytest.fixture(params=["s3_tensor_m2", "d4_haar"])
    def family(self, request):
        built = request.getfixturevalue(request.param)
        bc = built[0] if request.param == "s3_tensor_m2" else built
        blocks, _ = family_blocks(bc)
        return bc, blocks, blocks.reshape(-1, bc.rep_dim**2)

    def test_gram_is_block_diagonal(self, family):
        bc, blocks, rows = family
        gram = np.conj(rows) @ rows.T / bc.rep_dim
        pair = np.repeat(np.arange(len(blocks)), blocks.shape[1])
        cross = pair[:, None] != pair[None, :]
        assert np.abs(gram[cross]).max() < 1e-12
        assert np.abs(gram[~cross]).max() > 0.1

    def test_block_singular_values_are_the_global_ones(self, family):
        bc, blocks, rows = family
        per_block = np.sort(np.linalg.svd(blocks, compute_uv=False).ravel())[::-1]
        whole = np.linalg.svd(rows, compute_uv=False)
        assert np.abs(per_block[: len(whole)] - whole).max() < 1e-12 * whole[0]
        assert np.abs(per_block[len(whole) :]).max(initial=0.0) < 1e-12 * whole[0]
        cut = DEFAULT_TOLERANCES.rank_tol * whole[0]
        assert np.sum(per_block > cut) == np.sum(whole > cut) == bc.dim_m1

    def test_m1_equals_span_of_one_global_svd(self, family):
        bc, _, rows = family
        _, s, vh = np.linalg.svd(rows, full_matrices=False)
        rank = int(np.sum(s > DEFAULT_TOLERANCES.rank_tol * s[0]))
        d = bc.rep_dim
        reference = sa.StarAlgebra(d, (vh[:rank] * np.sqrt(d)).reshape(rank, d, d))
        assert sa.same_span(bc.m1, reference)


def assert_matches_quasi_basis_sums(bc, ci):
    """``e_P`` equals ``sum_j lambda(mu_j) e lambda(mu_j)*`` for restricted
    module bases built in forward and in reversed basis order."""
    e_p = basic.intermediate_jones_projection(bc, ci)
    for order in (None, list(range(ci.P.dim))[::-1]):
        lam = bc.lambda_many(sa.orthonormal_basis(ci.E_restricted, order=order).elements)
        quasi_basis_sum = (lam @ bc.e_proj @ np.conj(lam.transpose(0, 2, 1))).sum(axis=0)
        assert op_norm(e_p - quasi_basis_sum) < 1e-9


class TestIntermediateJonesProjection:
    def test_small_algebra_returns_e(self, suite_s3):
        ci = sa.make_compatible(suite_s3.expectation, suite_s3.small)
        bc = suite_s3.ctx.bc
        e_p = basic.intermediate_jones_projection(bc, ci)
        assert op_norm(e_p - bc.e_proj) < 1e-10

    def test_big_algebra_returns_identity(self, suite_s3):
        ci = sa.make_compatible(suite_s3.expectation, suite_s3.algebra)
        bc = suite_s3.ctx.bc
        e_p = basic.intermediate_jones_projection(bc, ci)
        assert op_norm(e_p - np.eye(bc.rep_dim)) < 1e-10

    def test_group_intermediate_acts_as_coefficient_restriction(self, suite_s3):
        k = sa.closure(3, [sa.parse_cycles("(1 2 3)", 3)])
        ci = sa.make_compatible(suite_s3.expectation, suite_s3.rep.subalgebra(k))
        bc = suite_s3.ctx.bc
        e_p = basic.intermediate_jones_projection(bc, ci)
        for g in suite_s3.group.elements:
            vec = bc.phi(suite_s3.rep.unitary(g))
            expected = vec if g in k else np.zeros_like(vec)
            assert np.linalg.norm(e_p @ vec - expected) < 1e-10

    def test_independent_of_quasi_basis(self, suite_d4):
        # e_P = sum_j lambda(mu_j) e lambda(mu_j)* for any quasi-basis {mu_j}
        bc = suite_d4.ctx.bc
        for ci in suite_d4.compat:
            assert_matches_quasi_basis_sums(bc, ci)

    def test_independent_of_quasi_basis_one_floor_up(self, suite_d4):
        # the dual expectation's table, where greedy bases amplify rounding to ~1e-10
        ctx = suite_d4.ctx
        for ci in suite_d4.compat:
            assert_matches_quasi_basis_sums(ctx.upper.bc, ctx.first_floor(ci))

    def test_independent_of_quasi_basis_for_a_non_tracial_state(self):
        # E = tr(h .) 1 on M_3 with h diagonal: the state's Gram matrix is not 1,
        # and diagonal intermediates are compatible; [F_P] commutes with the Gram
        # matrix only when P contains h
        n = 3
        h = np.diag([0.5, 0.3, 0.2]).astype(complex)
        big = full_matrix_algebra(n)
        values = np.stack([np.trace(h @ x) * np.eye(n, dtype=complex) for x in big.basis])
        small = scalar_algebra(n)
        exp = sa.expectation_from_values(sa.Inclusion(big=big, small=small), values)
        bc = basic.build(exp)
        assert op_norm(bc._gram_sqrt - np.eye(bc.rep_dim)) > 0.1
        units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
        blocks = sa.from_span(n, [units[0] + units[4], units[8]])
        diagonal = sa.from_span(n, list(units[[0, 4, 8]]))
        for p in (small, blocks, diagonal):
            assert_matches_quasi_basis_sums(bc, sa.make_compatible(exp, p))

    def test_intermediate_over_another_basis_of_a(self, suite_d4):
        # the same A and P, with F_P's table indexed by a rotated basis of A
        a = suite_d4.algebra
        w = random_unitary(np.random.default_rng(3), a.dim)
        rotated = sa.StarAlgebra(a.ambient_dim, np.tensordot(w, a.basis, axes=(1, 0)))
        exp = sa.trace_preserving(sa.Inclusion(big=rotated, small=suite_d4.small))
        bc = suite_d4.ctx.bc
        for ci in suite_d4.compat:
            e_p = basic.intermediate_jones_projection(bc, sa.make_compatible(exp, ci.P))
            assert op_norm(e_p - basic.intermediate_jones_projection(bc, ci)) < 1e-10

    def test_foreign_intermediate_rejected(self, suite_s3, suite_d4):
        bc = suite_s3.ctx.bc
        with pytest.raises(ArgumentError):
            basic.intermediate_jones_projection(bc, suite_d4.compat[0])


class TestSecondFloor:
    def test_dual_expectation_supports_another_floor(self, trace_inclusions):
        # iterate the construction once: lambda(A) inside M1 with E1
        exp = trace_inclusions[2]
        bc = basic.build(exp)
        dual = basic.dual_expectation(bc)
        bc2 = basic.build(dual.expectation)
        assert bc2.rep_dim == bc.dim_m1
        wi2 = bc2.index
        # the dual of the trace inclusion again has index n^2 = 4
        assert wi2.scalar == pytest.approx(4.0, abs=1e-8)
