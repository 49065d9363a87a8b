import numpy as np
import pytest

import starangles as sa
from starangles.errors import ArgumentError, ConstructionError, InvariantError
from starangles.linalg import adjoint, op_norm

from conftest import full_matrix_algebra, permuted, scalar_algebra


class TestOrthonormalBasis:
    def test_equal_algebras_give_single_unit(self, suite_s3):
        exp = sa.trace_preserving(
            sa.Inclusion(big=suite_s3.algebra, small=suite_s3.algebra)
        )
        basis = sa.orthonormal_basis(exp)
        assert len(basis) == 1
        assert op_norm(basis.elements[0] - np.eye(6)) < 1e-10
        assert op_norm(basis.support_projections[0] - np.eye(6)) < 1e-10

    def test_scalars_in_m2_give_four_elements(self, trace_inclusions):
        basis = sa.orthonormal_basis(trace_inclusions[2])
        assert len(basis) == 4

    def test_partial_isometry_invariants(self, trace_inclusions):
        exp = trace_inclusions[3]
        basis = sa.orthonormal_basis(exp)
        for j, (m, p) in enumerate(zip(basis.elements, basis.support_projections)):
            assert op_norm(p @ p - p) < 1e-9, j
            assert op_norm(adjoint(p) - p) < 1e-9, j
            assert op_norm(exp.apply(adjoint(m) @ m) - p) < 1e-9, j
        for j in range(len(basis)):
            for k in range(j + 1, len(basis)):
                inner = exp.apply(adjoint(basis.elements[j]) @ basis.elements[k])
                assert op_norm(inner) < 1e-9

    def test_group_inclusion_size_is_subgroup_index(self, all_suites):
        for suite in all_suites:
            basis = sa.orthonormal_basis(suite.expectation)
            assert len(basis) == sa.index(suite.group, suite.small_group), suite.name

    def test_explicit_normalization_example(self, trace_inclusions):
        # sqrt(2) e12 is a legitimate orthonormal element for the trace on M2:
        # E((sqrt2 e12)*(sqrt2 e12)) = 2 tr(e22)/2 = 1
        exp = trace_inclusions[2]
        m = np.sqrt(2.0) * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        assert op_norm(exp.apply(adjoint(m) @ m) - np.eye(2)) < 1e-12

    @pytest.mark.parametrize(
        "call, member, prop, detail",
        [
            (0, 1, "support projection", "element 1"),
            (1, 2, "mutual orthogonality", "pair (0, 3)"),  # third pair j < k
        ],
    )
    def test_failing_member_named(self, suite_s3, monkeypatch, call, member, prop, detail):
        # the final checks read E(m_j* m_j) and then E(m_j* m_k), j < k, each
        # through one apply_many; skew one member of one of the two stacks
        apply_many = sa.CondExpectation.apply_many
        calls = []

        def skewed(exp, stack):
            out = apply_many(exp, stack)
            if len(calls) == call:
                out[member] += 1e-6 * np.eye(out.shape[1])
            calls.append(len(stack))
            return out

        monkeypatch.setattr(sa.CondExpectation, "apply_many", skewed)
        with pytest.raises(ConstructionError) as err:
            sa.orthonormal_basis(suite_s3.expectation)
        assert err.value.prop == prop
        assert str(err.value).endswith(detail)
        assert 5e-7 < err.value.residual < 1e-5


class TestWatataniIndex:
    def test_group_inclusions(self, all_suites):
        for suite in all_suites:
            basis = sa.orthonormal_basis(suite.expectation)
            wi = sa.watatani_index(basis)
            expected = sa.index(suite.group, suite.small_group)
            assert wi.scalar is not None, suite.name
            assert wi.scalar == pytest.approx(expected, abs=1e-9), suite.name

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_scalars_in_full_matrix_algebra(self, trace_inclusions, n):
        basis = sa.orthonormal_basis(trace_inclusions[n])
        wi = sa.watatani_index(basis)
        assert wi.scalar == pytest.approx(n * n, abs=1e-9)

    def test_equal_algebras_give_one(self, suite_s3):
        exp = sa.trace_preserving(
            sa.Inclusion(big=suite_s3.algebra, small=suite_s3.algebra)
        )
        wi = sa.watatani_index(sa.orthonormal_basis(exp))
        assert wi.scalar == pytest.approx(1.0, abs=1e-12)

    def test_fixed_point_example(self, fixed_point_m2):
        _, _, expectation, _ = fixed_point_m2
        wi = sa.watatani_index(sa.orthonormal_basis(expectation))
        assert wi.scalar == pytest.approx(2.0, abs=1e-9)

    def test_basis_order_independence(self, all_suites):
        rng = np.random.default_rng(17)
        for suite in all_suites:
            exp = suite.expectation
            value0 = sa.watatani_index(sa.orthonormal_basis(exp)).value
            reverse = np.arange(suite.algebra.dim)[::-1]
            shuffled = rng.permutation(suite.algebra.dim)
            for order in (reverse, shuffled):
                value = sa.watatani_index(sa.orthonormal_basis(permuted(exp, order))).value
                assert op_norm(value - value0) < 1e-9, suite.name

    def test_nonscalar_index_for_uneven_blocks(self):
        # C.1 inside the diagonal algebra diag(a, a, b): amplified unevenly
        blocks = sa.from_span(
            3,
            [
                np.diag([1.0, 1.0, 0.0]).astype(complex) / np.sqrt(1.5),
                np.diag([0.0, 0.0, 1.0]).astype(complex) * np.sqrt(3.0),
            ],
        )
        exp = sa.trace_preserving(sa.Inclusion(big=blocks, small=scalar_algebra(3)))
        wi = sa.watatani_index(sa.orthonormal_basis(exp))
        assert wi.scalar is None
        # oracle: 1 + m m* for the single normalized residual direction
        assert op_norm(wi.value - np.diag([1.5, 1.5, 3.0])) < 1e-9

    def test_matches_loop_reference(self, all_suites):
        # the index as a sum over the basis, and its centrality one commutator at a time
        for suite in all_suites:
            basis = sa.orthonormal_basis(suite.expectation)
            wi = sa.watatani_index(basis)
            value = sum(m @ adjoint(m) for m in basis.elements)
            assert op_norm(wi.value - (value + adjoint(value)) / 2) < 1e-13
            loop = max(op_norm(wi.value @ b - b @ wi.value) for b in suite.algebra.basis)
            assert wi.centrality_residual == pytest.approx(loop, rel=1e-12, abs=1e-15)

    def test_defective_basis_rejected(self, trace_inclusions):
        exp = trace_inclusions[2]
        e11 = np.diag([1.0, 0.0]).astype(complex)
        e21 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        e22 = np.diag([0.0, 1.0]).astype(complex)
        broken = sa.ModuleBasis(
            expectation=exp,
            elements=np.sqrt(2.0) * np.stack([e11, e21, e22]),
            support_projections=np.stack([np.eye(2, dtype=complex)] * 3),
        )
        with pytest.raises(InvariantError):
            sa.watatani_index(broken)


class TestVerifyQuasiBasis:
    def test_constructed_basis_reconstructs(self, all_suites):
        for suite in all_suites:
            basis = sa.orthonormal_basis(suite.expectation)
            residual = sa.verify_quasi_basis(
                suite.expectation, basis.elements, samples=100, seed=11
            )
            assert residual < 1e-9, suite.name

    def test_coset_representatives_are_quasi_basis(self, suite_d4_r2):
        # one translation per coset of H in G
        suite = suite_d4_r2
        seen, reps = set(), []
        for g in suite.group.elements:
            coset = frozenset(g * h for h in suite.small_group.elements)
            if coset not in seen:
                seen.add(coset)
                reps.append(suite.rep.unitary(g))
        assert len(reps) == sa.index(suite.group, suite.small_group)
        residual = sa.verify_quasi_basis(suite.expectation, reps, samples=50, seed=3)
        assert residual < 1e-9

    def test_missing_element_breaks_reconstruction(self, suite_s3):
        basis = sa.orthonormal_basis(suite_s3.expectation)
        residual = sa.verify_quasi_basis(
            suite_s3.expectation, basis.elements[:-1], samples=20, seed=5
        )
        assert residual > 0.5

    def test_membership_enforced(self, suite_s3):
        outside = np.zeros((6, 6), dtype=complex)
        outside[0, 1] = 1.0  # not in the group algebra span
        with pytest.raises(ArgumentError):
            sa.verify_quasi_basis(suite_s3.expectation, [outside])
