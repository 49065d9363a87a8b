import numpy as np
import pytest
from hypothesis import given, strategies as st

import starangles as sa
from starangles.errors import ConstructionError, ContainmentError, IncompatibilityError
from starangles.expectation import _verify_expectation_axioms
from starangles.linalg import adjoint, op_norm

from conftest import full_matrix_algebra, random_matrix, random_unitary, scalar_algebra


@pytest.fixture
def diag_in_m2():
    m2 = full_matrix_algebra(2)
    diag = sa.from_span(2, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    return sa.trace_preserving(sa.Inclusion(big=m2, small=diag))


class TestTracePreserving:
    def test_identity_on_equal_algebras(self, suite_s3):
        exp = sa.trace_preserving(
            sa.Inclusion(big=suite_s3.algebra, small=suite_s3.algebra)
        )
        for s in range(suite_s3.algebra.dim):
            assert op_norm(exp.values[s] - suite_s3.algebra.basis[s]) < 1e-12

    def test_group_algebra_expectation_keeps_subgroup_coefficients(self, suite_s3):
        # oracle: explicit Hilbert-Schmidt projection onto the span of 1
        exp = suite_s3.expectation
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        x = sum(
            c * suite_s3.rep.unitary(g)
            for c, g in zip(coeffs, suite_s3.group.elements)
        )
        identity_coeff = coeffs[list(suite_s3.group.elements).index(
            sa.groups.identity_perm(3)
        )]
        assert op_norm(exp.apply(x) - identity_coeff * np.eye(6)) < 1e-12

    def test_diagonal_part_of_m2(self, diag_in_m2):
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = diag_in_m2.big.random_element(rng)
            assert op_norm(diag_in_m2.apply(x) - np.diag(np.diag(x))) < 1e-12

    def test_trace_preserved(self, diag_in_m2):
        rng = np.random.default_rng(2)
        x = diag_in_m2.big.random_element(rng)
        assert np.trace(diag_in_m2.apply(x)) == pytest.approx(np.trace(x), abs=1e-12)

    def test_hs_self_adjointness_on_basis(self, suite_s3):
        exp = suite_s3.expectation
        a = suite_s3.algebra
        for s in range(a.dim):
            for t in range(a.dim):
                lhs = np.trace(adjoint(exp.values[s]) @ a.basis[t])
                rhs = np.trace(adjoint(a.basis[s]) @ exp.values[t])
                assert lhs == pytest.approx(rhs, abs=1e-12)


class TestVerify:
    def test_valid_expectation_passes(self, diag_in_m2):
        report = sa.verify(diag_in_m2)
        assert report.passed
        assert max(report.idempotency, report.bimodule, report.unitality) < 1e-9

    def test_leak_perturbation_detected(self, diag_in_m2):
        # add a rank-one leak off span(B) of size 1e-3 to the value table
        big = diag_in_m2.big
        leak = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        values = diag_in_m2.values.copy()
        values = values + 1e-3 * np.stack(
            [leak * big.coords(big.basis[s])[0] for s in range(big.dim)]
        )
        perturbed = sa.CondExpectation(inclusion=diag_in_m2.inclusion, values=values)
        report = sa.verify(perturbed)
        assert not report.passed
        worst = max(report.range_residual, report.bimodule, report.idempotency)
        assert 1e-5 < worst < 1e-1

    def test_projection_onto_nonunital_subspace_fails_unitality(self, diag_in_m2):
        # value table sends everything to its (1,1) corner coefficient
        big = diag_in_m2.big
        corner = np.diag([1.0, 0.0]).astype(complex)
        values = np.stack([x[0, 0] * corner for x in big.basis])
        broken = sa.CondExpectation(inclusion=diag_in_m2.inclusion, values=values)
        report = sa.verify(broken)
        assert report.unitality > 0.4
        with pytest.raises(ConstructionError):
            _verify_expectation_axioms(broken)

    def test_non_bimodular_map_rejected(self, diag_in_m2):
        # E(x) = diag(x11, x22) + c (x12 + x21) diag(1, -1) passes every
        # other axiom but not E(b x) = b E(x)
        c = 1e-3
        flip = np.diag([1.0, -1.0]).astype(complex)
        values = np.stack(
            [np.diag(np.diag(x)) + c * (x[0, 1] + x[1, 0]) * flip for x in diag_in_m2.big.basis]
        )
        skewed = sa.CondExpectation(inclusion=diag_in_m2.inclusion, values=values)
        with pytest.raises(ConstructionError) as err:
            _verify_expectation_axioms(skewed)
        assert err.value.prop == "bimodule property"
        report = sa.verify(skewed)
        assert 1e-4 < report.bimodule < 1e-2
        assert report.state_symmetry > 1e-4  # <E(sigma_x), diag(1, -1)> = 2c, not 0
        assert max(report.range_residual, report.idempotency, report.adjoint_preservation) < 1e-12

    def test_state_symmetry_holds_without_trace(self):
        # tr(h .) 1 on M_2 is not Hilbert-Schmidt symmetric (off by 0.5),
        # but phi(E(x)* y) = phi(x* E(y)) holds for every expectation
        exp = state_expectation(np.array([0.75, 0.25]), np.eye(2, dtype=complex))
        report = sa.verify(exp)
        assert report.state_symmetry < 1e-12
        assert report.passed

    def test_range_leak_measured_in_operator_norm(self):
        # a leak of operator norm 2e-9 is 2e-9 / sqrt(8) in normalized HS norm
        m8 = full_matrix_algebra(8)
        exp = sa.trace_preserving(sa.Inclusion(big=m8, small=scalar_algebra(8)))
        values = exp.values.copy()
        values[0, 0, 1] += 2e-9
        leaky = sa.CondExpectation(inclusion=exp.inclusion, values=values)
        with pytest.raises(ConstructionError) as err:
            _verify_expectation_axioms(leaky)
        assert err.value.prop == "range containment"
        assert sa.verify(leaky).range_residual >= 2e-9

    def test_compatible_expectations_checked_exhaustively(self, suite_s3):
        for ci in suite_s3.compat:
            for exp in (ci.F, ci.E_restricted):
                report = sa.verify(exp)
                assert report.passed
                assert report.bimodule_checked == report.bimodule_total
                assert report.bimodule_total == 2 * exp.small.dim * exp.big.dim

    def test_sampled_bimodule_coverage_reported(self):
        m8 = full_matrix_algebra(8)
        exp = sa.trace_preserving(sa.Inclusion(big=m8, small=m8))
        report = sa.verify(exp)
        assert (report.bimodule_checked, report.bimodule_total) == (4096, 8192)
        assert report.passed

    def test_expectation_from_values_validates(self, diag_in_m2):
        rebuilt = sa.expectation_from_values(diag_in_m2.inclusion, diag_in_m2.values)
        report = sa.verify(rebuilt)
        assert report.passed

    def test_indefinite_state_rejected(self):
        # tr(h .) 1 on M_3 with h of eigenvalues 0.6, 0.5, -0.1 has all six
        # axioms, but is not positive: rho = 3h has least eigenvalue -0.3
        exp = state_expectation(
            np.array([0.6, 0.5, -0.1]), random_unitary(np.random.default_rng(0), 3)
        )
        constructors = (
            lambda: sa.expectation_from_values(exp.inclusion, exp.values),
            lambda: sa.build(exp),  # build takes unverified expectations
        )
        for construct in constructors:
            with pytest.raises(ConstructionError) as err:
                construct()
            assert err.value.prop == "state faithfulness"
        report = sa.verify(exp)
        assert not report.passed
        assert report.state_min_eigenvalue == pytest.approx(-0.3, abs=1e-12)
        assert max(report.idempotency, report.bimodule, report.adjoint_preservation) < 1e-12


class TestMakeCompatible:
    def test_intermediate_equal_to_small(self, suite_s3):
        ci = sa.make_compatible(suite_s3.expectation, suite_s3.small)
        for s in range(suite_s3.algebra.dim):
            assert op_norm(ci.F.values[s] - suite_s3.expectation.values[s]) < 1e-10

    def test_intermediate_equal_to_big(self, suite_s3):
        ci = sa.make_compatible(suite_s3.expectation, suite_s3.algebra)
        for s in range(suite_s3.algebra.dim):
            assert op_norm(ci.F.values[s] - suite_s3.algebra.basis[s]) < 1e-10
            assert (
                op_norm(ci.E_restricted.values[s] - suite_s3.expectation.values[s])
                < 1e-10
            )

    def test_group_intermediate_is_coefficient_restriction(self, suite_s3):
        k = sa.closure(3, [sa.parse_cycles("(1 2 3)", 3)])
        ci = sa.make_compatible(suite_s3.expectation, suite_s3.rep.subalgebra(k))
        for g in suite_s3.group.elements:
            expected = suite_s3.rep.unitary(g) if g in k else np.zeros((6, 6))
            assert op_norm(ci.F.apply(suite_s3.rep.unitary(g)) - expected) < 1e-10

    def test_tower_property_exact_for_trace_preserving(self, all_suites):
        for suite in all_suites:
            for ci in suite.compat:
                worst = max(
                    op_norm(
                        ci.E_restricted.apply(ci.F.apply(x)) - suite.expectation.apply(x)
                    )
                    for x in suite.algebra.basis
                )
                assert worst < 1e-9, suite.name

    def test_non_intermediate_rejected(self, suite_s3):
        # full M_6 is not inside the group algebra span
        with pytest.raises(ContainmentError):
            sa.make_compatible(suite_s3.expectation, full_matrix_algebra(6))

    def test_containment_checked_before_any_axiom(self, suite_s3, suite_d4_r2, monkeypatch):
        from starangles import expectation as expectation_module

        def unreachable(*args, **kwargs):
            raise AssertionError("axiom check ran before the containment check")

        monkeypatch.setattr(expectation_module, "_verify_expectation_axioms", unreachable)
        with pytest.raises(ContainmentError):  # P not inside A
            sa.make_compatible(suite_s3.expectation, full_matrix_algebra(6))
        reflection = sa.closure(4, [sa.parse_cycles("(1 3)", 4)])
        with pytest.raises(ContainmentError):  # B = C[<r^2>] not inside P = C[<s>]
            sa.make_compatible(suite_d4_r2.expectation, suite_d4_r2.rep.subalgebra(reflection))

    def test_incompatible_intermediate_detected(self):
        # non-tracial custom expectation onto the scalars with unequal weights:
        # the diagonal algebra is generally not compatible for it
        m2 = full_matrix_algebra(2)
        scalars = scalar_algebra(2)
        weights = np.diag([0.75, 0.25]).astype(complex)
        values = np.stack(
            [np.trace(weights @ x) * np.eye(2, dtype=complex) for x in m2.basis]
        )
        exp = sa.expectation_from_values(
            sa.Inclusion(big=m2, small=scalars), values
        )
        off_diag = sa.from_span(
            2,
            [
                np.eye(2, dtype=complex),
                np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
            ],
        )
        with pytest.raises(IncompatibilityError):
            sa.make_compatible(exp, off_diag)


@st.composite
def faithful_states(draw, sizes=st.integers(2, 4)):
    """Eigenvalues ``lam`` (summing to 1) and eigenbasis ``q`` of a density on M_n."""
    n = draw(sizes)
    weights = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n)))
    q = random_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    return weights / weights.sum(), q


def state_expectation(lam: np.ndarray, q: np.ndarray) -> sa.CondExpectation:
    """``E = tr(h .) 1`` from M_n onto the scalars, ``h = q diag(lam) q*``, unlabelled."""
    n = len(lam)
    h = (q * lam) @ adjoint(q)
    big = full_matrix_algebra(n)
    values = np.stack([np.trace(h @ x) * np.eye(n, dtype=complex) for x in big.basis])
    return sa.CondExpectation(sa.Inclusion(big=big, small=scalar_algebra(n)), values)


class TestNonTracial:
    """A faithful state on M_n given only by its value table."""

    @given(faithful_states())
    def test_index_is_sum_of_inverse_weights(self, state):
        lam, q = state
        index = sa.watatani_index(sa.orthonormal_basis(state_expectation(lam, q)))
        assert index.scalar == pytest.approx(np.sum(1.0 / lam), rel=1e-9)

    @given(faithful_states())
    def test_basic_construction_builds(self, state):
        lam, _ = state
        bc = sa.build(state_expectation(*state))
        assert bc.dim_m1 == len(lam) ** 4

    @given(faithful_states())
    def test_state_gram_matches_looped_state(self, state):
        exp = state_expectation(*state)
        a = exp.big
        looped = np.array(
            [
                [np.trace(exp.apply(adjoint(x) @ y)) / a.ambient_dim for y in a.basis]
                for x in a.basis
            ]
        )
        assert np.abs(exp.state_gram(a, a) - looped).max() < 1e-12

    @given(faithful_states())
    def test_state_min_eigenvalue_is_the_gram_floor(self, state):
        exp = state_expectation(*state)
        gram = exp.state_gram(exp.big, exp.big)
        floor = np.linalg.eigvalsh((gram + adjoint(gram)) / 2.0)[0]
        assert abs(sa.verify(exp).state_min_eigenvalue - floor) < 1e-12
        assert floor == pytest.approx(len(state[0]) * state[0].min(), abs=1e-12)

    @given(faithful_states())
    def test_eigenbasis_diagonal_is_compatible(self, state):
        lam, q = state
        exp = state_expectation(lam, q)
        projections = np.einsum("ik,jk->kij", q, np.conj(q))  # q e_ii q*
        diagonal = sa.from_span(len(lam), list(projections))
        ci = sa.make_compatible(exp, diagonal)
        compressed = np.einsum("iab,sbc,icd->sad", projections, exp.big.basis, projections)
        assert np.abs(ci.F.values - compressed).max() < 1e-10
        validated = sa.expectation_from_values(exp.inclusion, exp.values)
        rebuilt = sa.make_compatible(validated, diagonal)
        assert np.abs(rebuilt.F.values - ci.F.values).max() < 1e-12

    @given(faithful_states(st.just(2)), faithful_states(st.just(2)))
    def test_tensor_factor_slices_with_the_state(self, left, right):
        # for h = h1 (x) h2 the compatible F onto M_2 (x) 1 is the slice by
        # tr(h2 .), not the Hilbert-Schmidt (trace) slice
        (lam1, q1), (lam2, q2) = left, right
        exp = state_expectation(np.kron(lam1, lam2), np.kron(q1, q2))
        h2 = (q2 * lam2) @ adjoint(q2)
        first = sa.from_span(4, [np.kron(x, np.eye(2)) for x in full_matrix_algebra(2).basis])
        ci = sa.make_compatible(exp, first)
        slices = np.stack(
            [
                np.kron(np.einsum("ajbk,kj->ab", x.reshape(2, 2, 2, 2), h2), np.eye(2))
                for x in exp.big.basis
            ]
        )
        assert np.abs(ci.F.values - slices).max() < 1e-10


def assert_apply_reproduces_table(exp: sa.CondExpectation, seed: int, name: str = "E"):
    """``apply_many`` equals ``coords_A(x) . values``, inside span(B), on elements
    of A and on arbitrary ambient matrices."""
    rng = np.random.default_rng(seed)
    a = exp.big
    inside = np.stack([a.random_element(rng) for _ in range(3)])
    ambient = np.stack([random_matrix(rng, a.ambient_dim) for _ in range(3)])
    for x in (inside, ambient):
        image = exp.apply_many(x)
        table = np.tensordot(a.coords_many(x), exp.values, axes=(1, 0))
        assert np.abs(image - table).max() < 1e-12, name
        assert exp.small._max_span_residual(image) < 1e-13, name


@pytest.fixture(scope="module")
def tower_expectations(suite_d4):
    """Every kind of expectation a tower builds, on C[D4] over C."""
    big = sa.tensor_by_factor(suite_d4.algebra, 2)
    small = sa.tensor_by_factor(suite_d4.small, 2)
    named = {
        "E": suite_d4.expectation,
        "E on C[D4] (x) M_2 over M_2": sa.trace_preserving(sa.Inclusion(big=big, small=small)),
        "E1": suite_d4.ctx.dual,
        "E2": suite_d4.ctx.upper.dual,
    }
    for i, ci in enumerate(suite_d4.compat):
        named[f"F_P{i}"], named[f"E|_P{i}"] = ci.F, ci.E_restricted
    return named


class TestApplyThroughSmallCoordinates:
    """One apply path, through B's coordinates, reproduces the value table."""

    @given(st.integers(0, 2**32 - 1))
    def test_tower_expectations(self, tower_expectations, seed):
        for name, exp in tower_expectations.items():
            assert_apply_reproduces_table(exp, seed, name)

    @given(faithful_states(), st.integers(0, 2**32 - 1))
    def test_state_expectation(self, state, seed):
        exp = state_expectation(*state)
        assert_apply_reproduces_table(exp, seed)
        # on a Haar-rotated basis of M_n both the basis and the table are complex,
        # where a lost conjugation shows
        u = random_unitary(np.random.default_rng(seed), exp.big.ambient_dim)
        big = sa.StarAlgebra(exp.big.ambient_dim, u @ exp.big.basis @ adjoint(u))
        values = np.tensordot(exp.big.coords_many(big.basis), exp.values, axes=(1, 0))
        rotated = sa.CondExpectation(sa.Inclusion(big=big, small=exp.small), values)
        assert_apply_reproduces_table(rotated, seed, "E on a rotated basis")


class TestIndPEstimate:
    def test_identity_inclusion_gives_one(self, suite_s3):
        exp = sa.trace_preserving(
            sa.Inclusion(big=suite_s3.algebra, small=suite_s3.algebra)
        )
        assert sa.ind_p_estimate(exp, trials=2, seed=0, steps=40) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_scalars_in_m2_reaches_two(self, trace_inclusions):
        estimate = sa.ind_p_estimate(trace_inclusions[2], trials=8, seed=1, steps=400)
        assert estimate == pytest.approx(2.0, abs=1e-3)

    def test_monotone_in_trials(self, trace_inclusions):
        exp = trace_inclusions[2]
        values = [
            sa.ind_p_estimate(exp, trials=t, seed=9, steps=60) for t in (1, 2, 4)
        ]
        assert values[0] <= values[1] + 1e-12
        assert values[1] <= values[2] + 1e-12

    def test_bounded_by_index_norm(self, suite_s3):
        basis = sa.orthonormal_basis(suite_s3.expectation)
        wi = sa.watatani_index(basis)
        estimate = sa.ind_p_estimate(suite_s3.expectation, trials=4, seed=2, steps=150)
        assert 1.0 - 1e-12 <= estimate <= wi.norm + 1e-6
