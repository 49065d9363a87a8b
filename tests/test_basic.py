import numpy as np
import pytest

import starangles as sa
from starangles import basic
from starangles.errors import ArgumentError, ConstructionError
from starangles.linalg import DEFAULT_TOLERANCES, adjoint, op_norm

from conftest import (
    closure_residuals,
    full_matrix_algebra,
    permuted,
    random_matrix,
    random_unitary,
    scalar_algebra,
)


def lam(bc, x):
    """lambda of one element."""
    return bc.lambda_many(x[None])[0]


def theta(bc, x, y):
    """The module operator ``lambda(x) e lambda(y)*``."""
    lam_x, lam_y = bc.lambda_many(np.stack([x, y]))
    return lam_x @ bc.e_proj @ adjoint(lam_y)


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
            lhs = bc.e_proj @ lam(bc, x) @ bc.e_proj
            rhs = lam(bc, exp.apply(x)) @ bc.e_proj
            assert op_norm(lhs - rhs) < 1e-10

    def test_m1_dimension_is_squared_index_times_small(self, s3_over_swap):
        g, h, *_ , bc = s3_over_swap
        assert bc.dim_m1 == sa.index(g, h) ** 2 * len(h) == 18

    def test_lambda_is_homomorphism(self, s3_over_swap):
        *_, exp, bc = s3_over_swap
        rng = np.random.default_rng(4)
        x, y = exp.big.random_element(rng), exp.big.random_element(rng)
        assert op_norm(lam(bc, x) @ lam(bc, y) - lam(bc, x @ y)) < 1e-10
        assert op_norm(adjoint(lam(bc, x)) - lam(bc, adjoint(x))) < 1e-10

    def test_cover_identity(self, s3_over_swap):
        *_, bc = s3_over_swap
        total = sum(theta(bc, m, m) for m in bc.module_basis.elements)
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
        # the tower's tensor factors, lambda(A) and M1 are certified, not checked on pairs
        for algebra in (big, small, tensored.lambda_algebra, tensored.m1):
            assert max(closure_residuals(algebra)) < DEFAULT_TOLERANCES.eq_tol

    def test_certified_algebras_closed_on_every_pair(self, all_suites):
        # lambda(A), M1 and every P1 take no closure check: the exhaustive oracle agrees
        for suite in all_suites:
            ctx = suite.ctx
            floors = [ctx.first_floor(ci).P for ci in suite.compat]
            for algebra in (ctx.bc.lambda_algebra, ctx.bc.m1, *floors):
                assert max(closure_residuals(algebra)) < DEFAULT_TOLERANCES.eq_tol, suite.name

    def test_m1_dimension_closed_form(self, all_suites):
        # Jones: dim M1 = |G| [G:H] for C[H] inside C[G]
        for suite in all_suites:
            expected = len(suite.group) * sa.index(suite.group, suite.small_group)
            assert suite.ctx.bc.dim_m1 == expected, suite.name

    def test_commutant_identity_enforced(self, all_suites, suite_d4):
        # _check_floor's identities imply {proj}' in lambda(A) = lambda(S), with no
        # commutator checked; the null-space oracle agrees on every M1, every first
        # floor and D4's M2
        def floors(suite):
            ctx = suite.ctx
            yield ctx.bc, ctx.bc.e_proj, suite.small
            for ci in suite.compat:
                yield ctx.bc, ctx.jones_projection(ci), ci.P
            if suite is suite_d4:
                yield ctx.upper.bc, ctx.upper.bc.e_proj, ctx.dual.small

        for suite in all_suites:
            for bc, proj, small in floors(suite):
                commutant = sa.algebra.commutant_within(bc.lambda_algebra, [proj])
                assert commutant.dim == small.dim, suite.name
                lam_s = bc.lambda_many(small.basis)
                assert commutant._max_span_residual(lam_s) < DEFAULT_TOLERANCES.eq_tol

    def test_floor_of_the_wrong_projection_rejected(self, suite_s3):
        # e_P fixes B's coordinates, but e_P lambda(a) e_P = lambda(F_P(a)) e_P, not
        # lambda(E(a)) e_P: the compression identity refuses it before any commutator
        ctx = suite_s3.ctx
        e_p = ctx.jones_projection(suite_s3.compat[0])
        with pytest.raises(ConstructionError) as err:
            basic.floor_algebra(ctx.bc, suite_s3.expectation, ctx.bc.module_basis, e_p)
        assert err.value.prop == "e lambda(a) e = lambda(E(a)) e"

    @pytest.mark.parametrize("floor", ["first", "upper"])
    def test_lambda_by_linearity(self, suite_d4, floor):
        # lambda(y) = G^{1/2} [L_y] G^{-1/2}, [L_y][r, s] the coordinate r of y a_s;
        # outside A this is lambda of the A-projection
        bc = suite_d4.ctx.bc if floor == "first" else suite_d4.ctx.upper.bc
        a = bc.source.big
        rng = np.random.default_rng(11)
        stacks = (
            np.stack([a.random_element(rng) for _ in range(3)]),
            np.stack([random_matrix(rng, a.ambient_dim) for _ in range(3)]),
            bc.module_basis.elements,
        )
        for ys in stacks:
            reference = np.stack(
                [bc._gram_sqrt @ a.coords_many(y @ a.basis).T @ bc._gram_inv_sqrt for y in ys]
            )
            assert np.abs(bc.lambda_many(ys) - reference).max() < 1e-12


class TestTheta:
    def test_unit_pair_gives_e(self, s3_over_swap):
        *_, exp, bc = s3_over_swap
        assert op_norm(theta(bc, exp.big.unit, exp.big.unit) - bc.e_proj) < 1e-12

    def test_composition_rule(self, s3_over_swap):
        *_, exp, bc = s3_over_swap
        rng = np.random.default_rng(8)
        for _ in range(5):
            x, y, w, z = (exp.big.random_element(rng) for _ in range(4))
            lhs = theta(bc, x, y) @ theta(bc, w, z)
            rhs = theta(bc, x @ exp.apply(adjoint(y) @ w), z)
            assert op_norm(lhs - rhs) < 1e-9

    def test_adjoint_rule(self, s3_over_swap):
        *_, exp, bc = s3_over_swap
        rng = np.random.default_rng(9)
        x, y = exp.big.random_element(rng), exp.big.random_element(rng)
        assert op_norm(adjoint(theta(bc, x, y)) - theta(bc, y, x)) < 1e-10


@pytest.fixture(scope="module")
def d4_haar():
    """C inside C[D4], both conjugated by one Haar unitary."""
    rep = sa.group_algebra(sa.dihedral(4))
    u = random_unitary(np.random.default_rng(5), rep.algebra.ambient_dim)

    def conjugate(a):
        return sa.StarAlgebra(a.ambient_dim, u @ a.basis @ adjoint(u))

    big, small = conjugate(rep.algebra), conjugate(rep.subalgebra(sa.trivial(4)))
    return basic.build(sa.trace_preserving(sa.Inclusion(big=big, small=small)))


def assert_prescribed_values(bc):
    """``E1(lambda(a_p) e lambda(a_q)) = lambda(index^{-1} a_p a_q)`` on A's basis."""
    dual = basic.dual_expectation(bc)
    a = bc.source.big
    pairs = [(p, q) for p in range(a.dim) for q in range(a.dim)]
    spanning = np.stack([bc.lambda_stack[p] @ bc.e_proj @ bc.lambda_stack[q] for p, q in pairs])
    prescribed = np.stack([bc.index.inverse() @ a.basis[p] @ a.basis[q] for p, q in pairs])
    residuals = sa.linalg.op_norms(dual.apply_many(spanning) - bc.lambda_many(prescribed))
    assert residuals.max() < 1e-9


def assert_value_on_e(bc):
    """``E1(e) = lambda(Ind(E)^{-1})``."""
    dual = basic.dual_expectation(bc)
    assert op_norm(dual.apply(bc.e_proj) - lam(bc, bc.index.inverse())) < 1e-10


class TestDualExpectation:
    """E1 takes values in lambda(A). On C[S3] in its permutation basis lambda
    is the identity map on A's matrices, so the Haar-conjugated C[D4], where
    it is not, is what tells lambda(y) from y."""

    def test_prescribed_values_on_spanning_pairs(self, s3_over_swap):
        assert_prescribed_values(s3_over_swap[-1])

    def test_prescribed_values_on_haar_floor(self, d4_haar):
        assert_prescribed_values(d4_haar)

    def test_value_on_e_is_inverse_index(self, s3_over_swap):
        g, h, *_, bc = s3_over_swap
        assert_value_on_e(bc)
        assert op_norm(lam(bc, bc.index.inverse()) - np.eye(bc.rep_dim) / sa.index(g, h)) < 1e-12

    def test_value_on_e_on_haar_floor(self, d4_haar):
        assert_value_on_e(d4_haar)

    def test_haar_floor_tells_lambda_from_identity(self, d4_haar):
        x = d4_haar.source.big.random_element(np.random.default_rng(7))
        assert op_norm(lam(d4_haar, x) - x) > 0.1

    def test_lambda_is_isometric(self, d4_haar):
        # the definition route takes |lambda(E1(z))| for |E1(z)|
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = d4_haar.source.big.random_element(rng)
            assert abs(op_norm(lam(d4_haar, x)) - op_norm(x)) < 1e-12 * op_norm(x)

    def test_unital(self, s3_over_swap):
        *_, bc = s3_over_swap
        dual = basic.dual_expectation(bc)
        assert op_norm(dual.apply(np.eye(bc.rep_dim)) - np.eye(bc.rep_dim)) < 1e-10

    def test_axioms_hold_as_expectation(self, s3_over_swap):
        *_, bc = s3_over_swap
        dual = basic.dual_expectation(bc)
        report = sa.verify(dual)
        assert report.passed

    def test_rank_one_inclusion_dual(self, trace_inclusions):
        exp = trace_inclusions[2]
        bc = basic.build(exp)
        dual = basic.dual_expectation(bc)
        assert op_norm(dual.apply(bc.e_proj) - lam(bc, np.eye(2) / 4.0)) < 1e-10


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
                family.append(theta(bc, m_j @ b_t, m_k))
                values.append(inv @ m_j @ b_t @ adjoint(m_k))
    return bc, basic.dual_expectation(bc), np.stack(family), np.stack(values)


class TestRankDeficientDual:
    def test_family_exceeds_m1(self, s3_tensor_m2):
        bc, _, family, _ = s3_tensor_m2
        assert len(family) == 4 * bc.dim_m1 == 576

    def test_prescribed_values_reproduced(self, s3_tensor_m2):
        bc, dual, family, values = s3_tensor_m2
        residuals = dual.apply_many(family) - bc.lambda_many(values)
        assert sa.linalg.op_norms(residuals).max() < 1e-9

    def test_matches_minimum_norm_lstsq(self, s3_tensor_m2):
        bc, dual, family, values = s3_tensor_m2
        rows = family.reshape(len(family), -1)
        rng = np.random.default_rng(11)
        for _ in range(3):
            t = bc.m1.random_element(rng)
            coeffs = np.linalg.lstsq(rows.T, t.ravel(), rcond=None)[0]
            reference = lam(bc, np.tensordot(coeffs, values, axes=(0, 0)))
            assert op_norm(dual.apply(t) - reference) < 1e-9


def pair_blocks_reference(lam_m, lam_s, proj):
    """One-shot reference of the floor builder's pair family: block ``j * J + k``
    is ``lambda(m_j s_t) proj lambda(m_k)*`` over S's basis ``s_t``, all held at once."""
    left = lam_m[:, None] @ lam_s[None]  # (j, t)
    right = proj @ np.conj(lam_m.transpose(0, 2, 1))  # (k,)
    return (left[:, None] @ right[None, :, None]).reshape(-1, *left.shape[1:])


def block_svd_reference(blocks, tol):
    """One-shot reference of the floor builder's factorization: every block's thin
    SVD in one call, cut at ``rank_tol`` times the largest singular value of all
    blocks. Returns ``(basis, u, s, keep)`` with ``basis = sqrt(d) vh`` over the
    kept singular values."""
    d = blocks.shape[-1]
    flat = blocks.reshape(*blocks.shape[:2], d * d)
    ut, s, vt = np.linalg.svd(np.swapaxes(flat, 1, 2), full_matrices=False)
    keep = s > tol.rank_tol * s.max()
    basis = np.swapaxes(ut, 1, 2)[keep]
    basis *= np.sqrt(d)
    return basis.reshape(-1, d, d), np.swapaxes(vt, 1, 2), s, keep


def family_blocks(bc):
    """M1's spanning family's pair blocks and their prescribed values
    ``index^{-1} m_j b_t m_k*``."""
    m, b = bc.module_basis.elements, bc.source.small.basis
    blocks = pair_blocks_reference(bc.lambda_many(m), bc.lambda_many(b), bc.e_proj)
    pre = bc.index.inverse() @ m[:, None] @ b[None]
    values = pre[:, None] @ np.conj(m.transpose(0, 2, 1))[None, :, None]
    return blocks, values.reshape(-1, *b.shape)


class TestPairFactorization:
    """M1's spanning family splits into orthogonal blocks, one per module pair."""

    @pytest.fixture(params=["s3_tensor_m2", "d4_haar"])
    def family(self, request):
        built = request.getfixturevalue(request.param)
        bc = built[0] if request.param == "s3_tensor_m2" else built
        blocks = family_blocks(bc)[0].reshape(-1, bc.source.small.dim, bc.rep_dim**2)
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


class TestStreamedFactorization:
    """The floor builder streams the pair family through ``linalg.batches``; every
    block's SVD is independent of the others, so the result is the one-shot one."""

    @pytest.mark.parametrize("items", [1, 3])
    @pytest.mark.parametrize("built", ["s3_tensor_m2", "d4_haar"])
    def test_bit_identical_to_the_one_shot_reference(self, request, batch_items, built, items):
        bc = request.getfixturevalue(built)
        bc = bc[0] if built == "s3_tensor_m2" else bc
        tol = DEFAULT_TOLERANCES
        lam_m = bc.lambda_many(bc.module_basis.elements)
        lam_s = bc.lambda_many(bc.source.small.basis)
        reference = block_svd_reference(pair_blocks_reference(lam_m, lam_s, bc.e_proj), tol)
        batch_items(items)
        m1 = basic.floor_algebra(bc, bc.source, bc.module_basis, bc.e_proj, tol)
        np.testing.assert_array_equal(m1.basis, reference[0])
        np.testing.assert_array_equal(m1.basis, bc.m1.basis)
        if built == "s3_tensor_m2":  # the family is 4 dim M1: the cut drops rows
            assert not reference[3].all()


def minimum_norm_dual_reference(bc, tol=DEFAULT_TOLERANCES):
    """``E1`` read in A as the minimum-norm linear extension of Watatani's
    prescription ``lambda(m_j b_t) e lambda(m_k)* -> Ind^{-1} m_j b_t m_k*`` off the
    pair blocks' factors: a basis element ``sqrt(d) w_r`` over a kept singular
    value ``s_r`` takes ``sqrt(d) / s_r`` times the prescription contracted with
    ``conj(u[:, r])``. Returns the reader of a stack of M1."""
    blocks, values = family_blocks(bc)
    basis, u, s, keep = block_svd_reference(blocks, tol)
    d, n = bc.rep_dim, values.shape[-1]
    coeffs = np.conj(np.swapaxes(u, 1, 2)) @ values.reshape(*blocks.shape[:2], -1)
    table = coeffs[keep] * (np.sqrt(d) / s[keep])[:, None]  # row r: the value on basis[r]

    def read(stack):
        coords = stack.reshape(len(stack), -1) @ np.conj(basis.reshape(len(basis), -1)).T / d
        return (coords @ table).reshape(-1, n, n)

    return read


def non_tracial_m3():
    """M_3 over C with ``E = tr(h .) 1``, ``h = diag(1.8, 0.9, 0.3)``: not tracial."""
    h = np.diag([1.8, 0.9, 0.3]).astype(complex)
    big = full_matrix_algebra(3)
    values = np.stack([np.trace(h @ x) / 3 * np.eye(3, dtype=complex) for x in big.basis])
    return sa.expectation_from_values(sa.Inclusion(big=big, small=scalar_algebra(3)), values)


def uneven_blocks():
    """C inside ``diag(a, a, b)``: the index ``diag(1.5, 1.5, 3)`` is not scalar."""
    blocks = sa.from_span(
        3,
        [
            np.diag([1.0, 1.0, 0.0]).astype(complex) / np.sqrt(1.5),
            np.diag([0.0, 0.0, 1.0]).astype(complex) * np.sqrt(3.0),
        ],
    )
    return sa.trace_preserving(sa.Inclusion(big=blocks, small=scalar_algebra(3)))


def d4_tensor_m2():
    """C[D4] (x) M_2 over M_2: a noncommutative small algebra."""
    rep = sa.group_algebra(sa.dihedral(4))
    big = sa.tensor_by_factor(rep.algebra, 2)
    small = sa.tensor_by_factor(rep.subalgebra(sa.trivial(4)), 2)
    return sa.trace_preserving(sa.Inclusion(big=big, small=small))


class TestPushDownLemma:
    """``E1(x) = Ind^{-1} sum_j b_j m_j*``, ``b_j`` the element of A with vector
    ``x phi(m_j)``, read with no basis of M1, against the minimum-norm extension of
    Watatani's prescription on M1's pair family."""

    @pytest.mark.parametrize("tower", [non_tracial_m3, uneven_blocks, d4_tensor_m2])
    def test_matches_the_minimum_norm_extension(self, tower):
        bc = basic.build(tower())
        read = minimum_norm_dual_reference(bc)
        family = family_blocks(bc)[0].reshape(-1, bc.rep_dim, bc.rep_dim)
        rng = np.random.default_rng(14)
        stack = np.concatenate([np.stack([bc.m1.random_element(rng) for _ in range(4)]), family])
        assert np.abs(bc.dual_in_algebra(stack) - read(stack)).max() < 1e-12

    def test_membership_by_the_push_down_sum(self):
        # zero on M1, and off it for a matrix orthogonal to M1; over C the other two
        # towers' M1 is every matrix on L2(A)
        bc = basic.build(d4_tensor_m2())
        rng = np.random.default_rng(15)
        inside = bc.m1.random_element(rng)
        assert bc.m1_residual(inside) < 1e-12
        outside = random_matrix(rng, bc.rep_dim)
        outside -= bc.m1.reconstruct(bc.m1.coords(outside))
        assert bc.m1_residual(outside) > 0.1 * op_norm(outside)


def assert_matches_quasi_basis_sums(bc, ci):
    """``e_P`` equals ``sum_j lambda(mu_j) e lambda(mu_j)*`` for restricted
    module bases built in forward and in reversed basis order."""
    e_p = bc.jones_projection(ci.F)
    for order in (np.arange(ci.P.dim), np.arange(ci.P.dim)[::-1]):
        restricted = permuted(ci.E_restricted, order)
        lam = bc.lambda_many(sa.orthonormal_basis(restricted).elements)
        quasi_basis_sum = (lam @ bc.e_proj @ np.conj(lam.transpose(0, 2, 1))).sum(axis=0)
        assert op_norm(e_p - quasi_basis_sum) < 1e-9


class TestIntermediateJonesProjection:
    def test_small_algebra_returns_e(self, suite_s3):
        ci = sa.make_compatible(suite_s3.expectation, suite_s3.small)
        bc = suite_s3.ctx.bc
        e_p = bc.jones_projection(ci.F)
        assert op_norm(e_p - bc.e_proj) < 1e-10

    def test_big_algebra_returns_identity(self, suite_s3):
        ci = sa.make_compatible(suite_s3.expectation, suite_s3.algebra)
        bc = suite_s3.ctx.bc
        e_p = bc.jones_projection(ci.F)
        assert op_norm(e_p - np.eye(bc.rep_dim)) < 1e-10

    def test_group_intermediate_acts_as_coefficient_restriction(self, suite_s3):
        k = sa.closure(3, [sa.parse_cycles("(1 2 3)", 3)])
        ci = sa.make_compatible(suite_s3.expectation, suite_s3.rep.subalgebra(k))
        bc = suite_s3.ctx.bc
        e_p = bc.jones_projection(ci.F)
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
            e_p = bc.jones_projection(sa.make_compatible(exp, ci.P).F)
            assert op_norm(e_p - bc.jones_projection(ci.F)) < 1e-10

    def test_foreign_intermediate_rejected(self, suite_s3, suite_d4):
        with pytest.raises(ArgumentError):
            suite_s3.ctx.jones_projection(suite_d4.compat[0])


def first_floor(bc, ci):
    """``P1 = <lambda(A), e_P>`` from the floor builder, as ``AngleContext`` builds it."""
    e_p = bc.jones_projection(ci.F)
    return basic.floor_algebra(bc, ci.F, sa.orthonormal_basis(ci.F), e_p)


def assert_first_floor_is_generated(bc, ci):
    """The pair-span ``P1`` equals the closure of ``lambda(A)`` and ``e_P``."""
    p1 = first_floor(bc, ci)
    e_p = bc.jones_projection(ci.F)
    generated = sa.from_generators(bc.rep_dim, list(bc.lambda_stack) + [e_p])
    assert p1.dim == generated.dim
    assert sa.same_span(p1, generated)


class TestFirstFloorAlgebra:
    """``P1 = <lambda(A), e_P>`` from pair blocks, against the generator closure."""

    def test_matches_generated_algebra(self, suite_d4):
        for ci in suite_d4.compat:
            assert_first_floor_is_generated(suite_d4.ctx.bc, ci)

    def test_matches_generated_algebra_over_a_noncommutative_small_algebra(self, s3_tensor_m2):
        bc = s3_tensor_m2[0]
        exp = bc.source
        rep = sa.group_algebra(sa.symmetric(3))
        subgroups = sa.intermediate_subgroups(sa.symmetric(3), sa.trivial(3))
        for m in [m for m in subgroups if len(m) not in (1, 6)]:
            p = sa.tensor_by_factor(rep.subalgebra(m), 2)
            assert_first_floor_is_generated(bc, sa.make_compatible(exp, p))

    def test_matches_generated_algebra_for_a_non_tracial_state(self):
        # E = tr(h .) 1 on M_3: F_P preserves the non-tracial state, which makes
        # the pair blocks orthogonal
        n = 3
        h = np.diag([0.5, 0.3, 0.2]).astype(complex)
        big = full_matrix_algebra(n)
        values = np.stack([np.trace(h @ x) * np.eye(n, dtype=complex) for x in big.basis])
        exp = sa.expectation_from_values(sa.Inclusion(big=big, small=scalar_algebra(n)), values)
        bc = basic.build(exp)
        units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
        for p in ([units[0] + units[4], units[8]], list(units[[0, 4, 8]])):
            assert_first_floor_is_generated(bc, sa.make_compatible(exp, sa.from_span(n, p)))

    def test_dimension_closed_form(self, all_suites):
        # P1 is the basic construction of C[K] in C[G]: dim P1 = |G| [G:K]
        for suite in all_suites:
            bc = suite.ctx.bc
            for k, ci in zip(suite.intermediate_groups, suite.compat):
                p1 = first_floor(bc, ci)
                assert p1.dim == len(suite.group) * sa.index(suite.group, k), suite.name

    def test_wrong_projection_rejected(self, suite_d4):
        # e in place of e_P breaks the first of M1's identities
        bc, f = suite_d4.ctx.bc, suite_d4.compat[0].F
        with pytest.raises(ConstructionError) as err:
            basic.floor_algebra(bc, f, sa.orthonormal_basis(f), bc.e_proj)
        assert err.value.prop == "e fixes the small algebra's coordinates"

    @pytest.mark.parametrize("name", ["suite_d4", "suite_s4_v"])
    def test_reproduces_m1(self, name, request):
        # the builder of every P1, given E, its module basis and e, builds M1
        bc = request.getfixturevalue(name).ctx.bc
        m1 = basic.floor_algebra(bc, bc.source, bc.module_basis, bc.e_proj)
        assert m1.dim == bc.dim_m1
        assert sa.same_span(m1, bc.m1)


class TestSecondFloor:
    def test_dual_expectation_supports_another_floor(self, trace_inclusions):
        # iterate the construction once: lambda(A) inside M1 with E1
        exp = trace_inclusions[2]
        bc = basic.build(exp)
        dual = basic.dual_expectation(bc)
        bc2 = basic.build(dual)
        assert bc2.rep_dim == bc.dim_m1
        wi2 = bc2.index
        # the dual of the trace inclusion again has index n^2 = 4
        assert wi2.scalar == pytest.approx(4.0, abs=1e-8)
