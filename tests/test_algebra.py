import sys

import numpy as np
import pytest

import starangles as sa
from starangles.errors import ArgumentError, ContainmentError
from starangles.linalg import adjoint, op_norm

from conftest import (
    closure_residuals,
    conjugacy_classes,
    full_matrix_algebra,
    random_matrix,
    random_unitary,
    scalar_algebra,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


class TestFromGenerators:
    def test_no_generators_gives_scalars(self):
        alg = sa.from_generators(2, [])
        assert alg.dim == 1

    def test_sigma_x_gives_two_dimensions(self):
        alg = sa.from_generators(2, [SIGMA_X])
        assert alg.dim == 2
        assert alg.contains(SIGMA_X)[0]
        assert not alg.contains(SIGMA_Z)[0]

    def test_nilpotent_generates_full_matrix_algebra(self):
        alg = sa.from_generators(2, [E12])
        assert alg.dim == 4
        # products and adjoints of e12 reach every matrix unit
        for unit in (E12, E12.T, np.diag([1.0, 0.0]), np.diag([0.0, 1.0])):
            assert alg.contains(unit.astype(complex))[0]

    def test_dimension_mismatch(self):
        with pytest.raises(ArgumentError):
            sa.from_generators(3, [SIGMA_X])

    def test_closure_matches_random_unitary_conjugate(self):
        rng = np.random.default_rng(5)
        u = random_unitary(rng, 3)
        gen = u @ np.diag([1.0, 1.0, -1.0]).astype(complex) @ adjoint(u)
        alg = sa.from_generators(3, [gen])
        assert alg.dim == 2  # unit and one nontrivial projection direction


class TestStarAlgebraInvariants:
    def test_basis_orthonormal(self, suite_s3):
        a = suite_s3.algebra
        gram = a.coords_many(a.basis)
        assert np.allclose(gram, np.eye(a.dim), atol=1e-12)

    def test_contains_unit(self, suite_s3):
        ok, resid = suite_s3.algebra.contains(suite_s3.algebra.unit)
        assert ok and resid < 1e-12

    def test_non_closed_span_rejected(self):
        with pytest.raises(sa.ConstructionError):
            sa.StarAlgebra(2, np.stack([np.eye(2, dtype=complex), E12]) )

    def test_product_closure_checked_on_every_pair(self):
        # a *-closed span of dim 49 in M_50 holding the unit, where only the pair (1, 1)
        # leaves it: x^2 = 25(E11 + E22) lies 2.89 off, and a sample of pairs can miss it
        n = 50
        units = np.zeros((n, n, n), dtype=complex)
        units[np.arange(n), np.arange(n), np.arange(n)] = 1.0
        first = np.sqrt(n / 3) * units[:3].sum(axis=0)
        x = 5.0 * (units[0] - units[1])
        basis = np.concatenate([np.stack([first, x]), np.sqrt(n) * units[3:]])
        with pytest.raises(sa.ConstructionError) as err:
            sa.StarAlgebra(n, basis)
        assert err.value.prop == "product closure"
        assert err.value.residual == pytest.approx(np.sqrt(25 / 3), rel=1e-12)

    def test_contains_reports_orthogonal_residual(self):
        alg = sa.from_generators(2, [SIGMA_X])
        member, residual = alg.contains(SIGMA_Z)
        assert not member
        # sigma_z is HS-orthogonal to span{1, sigma_x}: the residual is its normalized
        # Hilbert-Schmidt norm sqrt(tr(sigma_z* sigma_z) / 2) = 1
        assert residual == pytest.approx(1.0, abs=1e-12)


def matrix_units(n: int) -> np.ndarray:
    """The normalized matrix units sqrt(n) e_ij, an exactly orthonormal basis of M_n."""
    units = np.zeros((n * n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            units[i * n + j, i, j] = np.sqrt(n)
    return units


class TestGramScreen:
    """Orthonormality is decided by a Frobenius screen, with the exact norm on failure."""

    def test_rejection_carries_operator_norm(self):
        basis = matrix_units(2)
        basis[1] *= 1 + 1e-9
        flat = basis.reshape(4, -1)
        gram = np.conj(flat) @ flat.T / 2
        with pytest.raises(sa.ConstructionError) as err:
            sa.StarAlgebra(2, basis)
        assert err.value.prop == "basis orthonormality"
        assert abs(err.value.residual - np.linalg.norm(gram - np.eye(4), 2)) < 1e-15

    def test_small_error_accepted(self):
        basis = matrix_units(2)
        basis[1] *= 1 + 2e-10
        assert sa.StarAlgebra(2, basis).dim == 4

    def test_valid_basis_takes_no_svd(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("SVD taken")

        # np.linalg.norm(x, 2) calls the svd of numpy's internal linalg module
        for module in {np.linalg, sys.modules.get("numpy.linalg._linalg")} - {None}:
            monkeypatch.setattr(module, "svd", refuse)
        assert sa.StarAlgebra(8, matrix_units(8)).dim == 64


class TestGroupAlgebra:
    def test_z2_is_two_dimensional_commutative(self):
        rep = sa.group_algebra(sa.cyclic(2))
        assert rep.algebra.dim == 2
        b = rep.algebra.basis
        assert op_norm(b[0] @ b[1] - b[1] @ b[0]) < 1e-12

    def test_s3_center_dimension_is_class_count(self):
        rep = sa.group_algebra(sa.symmetric(3))
        assert rep.algebra.dim == 6
        center = sa.relative_commutant(rep.algebra, rep.algebra)
        assert center.dim == len(conjugacy_classes(sa.symmetric(3))) == 3

    def test_translation_homomorphism_on_d4(self):
        g = sa.dihedral(4)
        rep = sa.group_algebra(g)
        for a in g.elements:
            for b in g.elements:
                assert np.array_equal(
                    rep.unitary(a) @ rep.unitary(b), rep.unitary(a * b)
                )

    def test_center_dim_matches_class_count_on_presets(self):
        for group in (sa.cyclic(4), sa.dihedral(4), sa.symmetric(3)):
            rep = sa.group_algebra(group)
            center = sa.relative_commutant(rep.algebra, rep.algebra)
            assert center.dim == len(conjugacy_classes(group))

    def test_subalgebra_requires_subgroup(self):
        rep = sa.group_algebra(sa.cyclic(4))
        with pytest.raises(ContainmentError):
            rep.subalgebra(sa.closure(4, [sa.parse_cycles("(1 2)", 4)]))


class TestCrossedProduct:
    def test_flip_on_c2_is_full_m2(self):
        diag = sa.from_span(2, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        flip = sa.parse_cycles("(1 2)", 2)
        action = sa.action_from_generators(sa.closure(2, [flip]), {flip: SIGMA_X})
        cp = sa.crossed_product(diag, action)
        assert cp.algebra.dim == 4
        center = sa.relative_commutant(cp.algebra, cp.algebra)
        assert center.dim == 1

    def test_trivial_action_reduces_to_group_algebra(self):
        scalars = scalar_algebra(1)
        group = sa.cyclic(2)
        trivial = sa.GroupAction(group, {g: np.eye(1, dtype=complex) for g in group.elements})
        cp = sa.crossed_product(scalars, trivial)
        assert cp.algebra.dim == 2
        rep = sa.group_algebra(group)
        # canonical correspondence pi(1) u_g <-> lambda_g has equal products
        for g in group.elements:
            for h in group.elements:
                left = cp.unitary(g) @ cp.unitary(h)
                assert np.array_equal(left, cp.unitary(g * h))
                assert np.array_equal(
                    rep.unitary(g) @ rep.unitary(h), rep.unitary(g * h)
                )

    def test_covariance_rule(self):
        rng = np.random.default_rng(7)
        diag = sa.from_span(2, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        flip = sa.parse_cycles("(1 2)", 2)
        action = sa.action_from_generators(sa.closure(2, [flip]), {flip: SIGMA_X})
        cp = sa.crossed_product(diag, action)
        for _ in range(5):
            m = diag.random_element(rng)
            for g in action.group.elements:
                lhs = cp.unitary(g) @ cp.embed(m) @ adjoint(cp.unitary(g))
                rhs = cp.embed(action.conjugate(g, m))
                assert op_norm(lhs - rhs) < 1e-12

    def test_non_unital_span_rejected(self):
        with pytest.raises(sa.ConstructionError):
            sa.from_span(2, [np.diag([1.0, 0.0])])

    def test_non_normalizing_action_rejected(self):
        two_dim = sa.from_generators(2, [SIGMA_Z])
        flip = sa.parse_cycles("(1 2)", 2)
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        action = sa.action_from_generators(sa.closure(2, [flip]), {flip: hadamard})
        with pytest.raises(ArgumentError):
            sa.crossed_product(two_dim, action)


class TestFixedPoint:
    def test_trivial_action_fixes_everything(self):
        m2 = full_matrix_algebra(2)
        group = sa.cyclic(2)
        trivial = sa.GroupAction(group, {g: np.eye(2, dtype=complex) for g in group.elements})
        fixed = sa.fixed_point(m2, trivial)
        assert fixed.dim == m2.dim
        assert fixed._max_span_residual(m2.basis) < 1e-12

    def test_sigma_z_action_fixes_diagonal(self, fixed_point_m2):
        _, fixed, expectation, _ = fixed_point_m2
        assert fixed.dim == 2
        assert fixed.contains(SIGMA_Z)[0]
        assert not fixed.contains(SIGMA_X)[0]

    def test_expectation_is_diagonal_part(self, fixed_point_m2):
        m2, _, _, action = fixed_point_m2
        expectation = sa.trace_preserving(sa.Inclusion(big=m2, small=sa.fixed_point(m2, action)))
        rng = np.random.default_rng(3)
        for _ in range(8):
            x = m2.random_element(rng)
            averaged = (x + SIGMA_Z @ x @ SIGMA_Z) / 2.0  # direct average oracle
            assert op_norm(expectation.apply(x) - averaged) < 1e-12
            assert op_norm(expectation.apply(x) - np.diag(np.diag(x))) < 1e-12

    def test_trace_preserving_is_the_average_over_s3(self):
        # S3 permuting the coordinates of C^3 acts on M_3; its fixed points are
        # spanned by 1 and the all-ones matrix, and averaging is their expectation
        m3 = full_matrix_algebra(3)
        group = sa.symmetric(3)
        unitaries = {g: np.eye(3, dtype=complex)[:, list(g.images)] for g in group.elements}
        action = sa.GroupAction(group, unitaries)
        fixed = sa.fixed_point(m3, action)
        assert fixed.dim == 2
        expectation = sa.trace_preserving(sa.Inclusion(big=m3, small=fixed))
        rng = np.random.default_rng(4)
        for _ in range(8):
            x = m3.random_element(rng)
            averaged = sum(u @ x @ adjoint(u) for u in unitaries.values()) / len(unitaries)
            assert op_norm(expectation.apply(x) - averaged) < 1e-12


class TestTensorByFactor:
    def test_k1_is_identity(self, suite_s3):
        assert sa.tensor_by_factor(suite_s3.algebra, 1) is suite_s3.algebra

    def test_dimension_multiplies(self):
        rep = sa.group_algebra(sa.symmetric(3))
        tensored = sa.tensor_by_factor(rep.algebra, 2)
        assert tensored.dim == 4 * rep.algebra.dim
        assert tensored.ambient_dim == 2 * rep.algebra.ambient_dim

    def test_unit_maps_to_unit(self):
        alg = sa.from_generators(2, [SIGMA_X])
        tensored = sa.tensor_by_factor(alg, 3)
        assert tensored.contains(np.eye(6))[0]

    def test_bad_factor(self):
        with pytest.raises(ArgumentError):
            sa.tensor_by_factor(full_matrix_algebra(2), 0)

    def test_closed_on_every_pair(self):
        # built without a closure check: C[D4] (x) M_2 is closed as C[D4] is
        tensored = sa.tensor_by_factor(sa.group_algebra(sa.dihedral(4)).algebra, 2)
        assert tensored.dim == 32
        assert max(closure_residuals(tensored)) < sa.DEFAULT_TOLERANCES.eq_tol


class TestRelativeCommutant:
    def test_commutant_of_scalars_is_everything(self):
        m2 = full_matrix_algebra(2)
        assert sa.relative_commutant(m2, scalar_algebra(2)).dim == 4

    def test_full_matrix_algebra_has_trivial_center(self):
        m2 = full_matrix_algebra(2)
        assert sa.relative_commutant(m2, m2).dim == 1

    def test_rounding_noise_is_not_rank(self):
        # the scalars' basis comes from an SVD, so every commutator is rounding noise
        rep = sa.group_algebra(sa.symmetric(3))
        scalars = rep.subalgebra(sa.trivial(3))
        assert sa.relative_commutant(rep.algebra, scalars).dim == 6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_center_of_a_conjugated_abelian_algebra(self, seed):
        # every commutator of C[C4] rotated by a Haar unitary vanishes up to rounding
        c4 = sa.group_algebra(sa.cyclic(4)).algebra
        u = random_unitary(np.random.default_rng(seed), 4)
        rotated = sa.StarAlgebra(4, u @ c4.basis @ adjoint(u))
        assert sa.relative_commutant(rotated, rotated).dim == 4

    def test_ambient_mismatch(self):
        with pytest.raises(ArgumentError):
            sa.relative_commutant(full_matrix_algebra(2), full_matrix_algebra(3))


# eq_tol loose enough for a perturbation of 1e-8, which the default rejects
LOOSE = sa.Tolerances(eq_tol=1e-6, rank_tol=1e-10, angle_tol=1e-8)


class TestInclusion:
    def test_containment_at_the_callers_eq_tol(self, suite_d4):
        # C[<r>] in C[D4] rotated by exp(i 1e-8 h) lies about 1e-8 outside C[D4]
        rotation = sa.closure(4, [sa.parse_cycles("(1 2 3 4)", 4)])
        h = random_matrix(np.random.default_rng(8), 8)
        w, v = np.linalg.eigh(h + adjoint(h))
        u = (v * np.exp(1e-8j * w)) @ adjoint(v)
        p = suite_d4.rep.subalgebra(rotation)
        rotated = sa.StarAlgebra(8, u @ p.basis @ adjoint(u))
        outside = suite_d4.algebra._max_span_residual(rotated.basis)
        assert LOOSE.eq_tol > outside > sa.DEFAULT_TOLERANCES.eq_tol
        ci = sa.make_compatible(suite_d4.expectation, rotated, LOOSE)
        assert ci.P is rotated
        with pytest.raises(ContainmentError):
            sa.make_compatible(suite_d4.expectation, rotated)

    def test_rejects_non_subalgebra(self):
        with pytest.raises(ContainmentError):
            sa.Inclusion(big=sa.from_generators(2, [SIGMA_Z]), small=sa.from_generators(2, [SIGMA_X]))

    def test_rejects_ambient_mismatch(self):
        with pytest.raises(ArgumentError):
            sa.Inclusion(big=full_matrix_algebra(2), small=scalar_algebra(3))


class TestGroupAction:
    def test_inconsistent_generator_unitaries_rejected(self):
        flip = sa.parse_cycles("(1 2)", 2)
        bad = np.diag([1.0, 1j])  # squares to diag(1, -1) != identity
        with pytest.raises(ArgumentError):
            sa.action_from_generators(sa.closure(2, [flip]), {flip: bad})

    def test_unitarity_at_the_callers_eq_tol(self):
        flip = sa.parse_cycles("(1 2)", 2)
        group = sa.closure(2, [flip])
        near = {g: (1.0 + 1e-8) * SIGMA_X if g == flip else np.eye(2) for g in group.elements}
        assert sa.GroupAction(group, near, LOOSE).tol is LOOSE
        sa.action_from_generators(group, {flip: near[flip]}, LOOSE)
        with pytest.raises(ArgumentError):
            sa.GroupAction(group, near)
        with pytest.raises(ArgumentError):
            sa.action_from_generators(group, {flip: near[flip]})

    def test_non_unitary_rejected(self):
        flip = sa.parse_cycles("(1 2)", 2)
        with pytest.raises(ArgumentError):
            sa.action_from_generators(sa.closure(2, [flip]), {flip: 2.0 * SIGMA_X})


def non_finite_calls(bad: complex) -> dict:
    """Each library entry point handed a matrix with one non-finite entry."""
    m = np.diag([bad, 1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    flip = sa.parse_cycles("(1 2)", 2)
    c2 = sa.closure(2, [flip])
    inc = sa.Inclusion(big=full_matrix_algebra(2), small=scalar_algebra(2))
    values = sa.trace_preserving(inc).values.copy()
    values[1, 0, 0] = bad
    return {
        "as_square_matrix": lambda: sa.linalg.as_square_matrix(m),
        "StarAlgebra": lambda: sa.StarAlgebra(2, np.stack([eye, m])),
        "from_span": lambda: sa.from_span(2, [eye, m]),
        "from_generators": lambda: sa.from_generators(2, [m]),
        "commutant_within": lambda: sa.algebra.commutant_within(full_matrix_algebra(2), [m]),
        "contains": lambda: full_matrix_algebra(2).contains(m),
        "action_from_generators": lambda: sa.action_from_generators(c2, {flip: m}),
        "GroupAction": lambda: sa.GroupAction(c2, {g: eye if g != flip else m for g in c2.elements}),
        "expectation_from_values": lambda: sa.expectation_from_values(inc, values),
        "verify": lambda: sa.verify(sa.CondExpectation(inclusion=inc, values=values)),
    }


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", list(non_finite_calls(0.0)))
def test_non_finite_matrix_rejected(entry, bad):
    # rejected before any arithmetic, so numpy warns of no invalid value
    with pytest.raises(ArgumentError, match="non-finite"):
        non_finite_calls(bad)[entry]()
