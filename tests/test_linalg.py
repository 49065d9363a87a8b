import numpy as np
import pytest

from starangles import linalg
from starangles.errors import (
    ArgumentError,
    DimensionError,
    ShapeError,
    SingularityError,
)

from conftest import random_matrix, random_unitary


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TestOpNorm:
    def test_identity(self):
        assert linalg.op_norm(np.eye(3)) == pytest.approx(1.0)

    def test_hermitian_diagonal(self):
        assert linalg.op_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)

    def test_against_power_iteration(self, rng):
        # oracle: power iteration on M* M converges to the square of sigma_max
        m = random_matrix(rng, 5)
        gram = linalg.adjoint(m) @ m
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        for _ in range(2000):
            v = gram @ v
            v /= np.linalg.norm(v)
        oracle = np.sqrt(np.vdot(v, gram @ v).real)
        assert linalg.op_norm(m) == pytest.approx(oracle, abs=1e-8)

    def test_empty_matrix_rejected(self):
        with pytest.raises(DimensionError):
            linalg.op_norm(np.zeros((0, 0)))
        with pytest.raises(DimensionError):
            linalg.op_norm(np.zeros(3))

    def test_submultiplicative_and_unitarily_invariant(self, rng):
        for _ in range(20):
            a = random_matrix(rng, 4)
            b = random_matrix(rng, 4)
            assert linalg.op_norm(a @ b) <= linalg.op_norm(a) * linalg.op_norm(b) + 1e-9
            u = random_unitary(rng, 4)
            v = random_unitary(rng, 4)
            assert linalg.op_norm(u @ a @ v) == pytest.approx(
                linalg.op_norm(a), abs=1e-9
            )

    @pytest.mark.parametrize("scale", [1.0, 1e-170, 1e150])
    def test_matches_svd(self, rng, scale):
        # the Gram kernel against LAPACK's SVD, also where x* x would under- or overflow
        rank_one = rng.standard_normal((2, 6, 1)) @ rng.standard_normal((2, 1, 6))
        stacks = [
            np.stack([random_matrix(rng, 6) for _ in range(5)]),
            rank_one.astype(complex),
            rng.standard_normal((3, 4, 7)) + 1j * rng.standard_normal((3, 4, 7)),
            rng.standard_normal((3, 7, 4)) + 1j * rng.standard_normal((3, 7, 4)),
        ]
        for stack in stacks:
            stack = stack * scale
            exact = np.linalg.svd(stack, compute_uv=False)[:, 0]
            assert np.all(np.abs(linalg.op_norms(stack) - exact) <= 1e-14 * exact)
            for matrix, value in zip(stack, exact):
                assert abs(linalg.op_norm(matrix) - value) <= 1e-14 * value

    def test_zero_matrix_is_exactly_zero(self):
        assert linalg.op_norm(np.zeros((4, 4))) == 0.0
        stack = np.zeros((3, 5, 5), dtype=complex)
        stack[1, 2, 3] = 1e-300
        norms = linalg.op_norms(stack)
        assert norms[0] == norms[2] == 0.0
        assert norms[1] == pytest.approx(1e-300, rel=1e-14)

    def test_op_norms_batch_matches_scalar(self, rng):
        stack = np.stack([random_matrix(rng, 3) for _ in range(5)])
        batched = linalg.op_norms(stack)
        for i in range(5):
            assert batched[i] == pytest.approx(linalg.op_norm(stack[i]), abs=1e-12)


class TestPsdCalculus:
    def test_sqrt_of_diagonal(self):
        out = linalg.psd_calculus(np.diag([4.0, 0.0]), "sqrt")
        assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)

    def test_pinv_sqrt_of_identity(self):
        out = linalg.psd_calculus(np.eye(3), "pinv_sqrt")
        assert np.allclose(out, np.eye(3), atol=1e-12)

    def test_sqrt_squares_back(self, rng):
        a = random_matrix(rng, 6)
        h = linalg.adjoint(a) @ a
        root = linalg.psd_calculus(h, "sqrt")
        assert linalg.op_norm(root @ root - h) < 1e-9

    def test_sqrt_matches_eigendecomposition_oracle(self, rng):
        # oracle: assemble f(H) from an explicit eigendecomposition
        a = random_matrix(rng, 4)
        h = linalg.adjoint(a) @ a
        w, v = np.linalg.eigh(h)
        oracle = (v * np.sqrt(np.clip(w, 0, None))) @ linalg.adjoint(v)
        assert linalg.op_norm(linalg.psd_calculus(h, "sqrt") - oracle) < 1e-10

    def test_pinv_sqrt_cuts_below_rank_tol(self):
        h = np.diag([1.0, 5e-11])
        out = linalg.psd_calculus(h, "pinv_sqrt")
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_inv_of_singular_raises(self):
        with pytest.raises(SingularityError):
            linalg.psd_calculus(np.diag([1.0, 0.0]), "inv")

    def test_inv_inverts(self):
        h = np.diag([2.0, 5.0])
        assert np.allclose(
            linalg.psd_calculus(h, "inv") @ h, np.eye(2), atol=1e-12
        )

    def test_non_hermitian_rejected(self):
        with pytest.raises(ShapeError):
            linalg.psd_calculus(np.array([[0.0, 1.0], [0.0, 0.0]]), "sqrt")

    def test_negative_matrix_rejected(self):
        with pytest.raises(ArgumentError):
            linalg.psd_calculus(np.diag([1.0, -1.0]), "sqrt")

    def test_unknown_function_rejected(self):
        with pytest.raises(ArgumentError):
            linalg.psd_calculus(np.eye(2), "log")


class TestMaxOpNorm:
    def test_exact_above_bound_never_below(self, rng):
        stack = np.stack([random_matrix(rng, 4) for _ in range(6)])
        exact = float(linalg.op_norms(stack).max())
        for bound in (1e-9, 0.5 * exact, exact, 2.0 * exact, 100.0):
            screened = linalg.max_op_norm(stack, bound)
            assert screened >= exact - 1e-12
            if screened >= bound:
                assert screened == pytest.approx(exact, abs=1e-12)

    def test_decides_like_the_exact_norm(self, rng):
        # tiny residuals: the Frobenius bound stands in below the bound
        stack = 1e-12 * np.stack([random_matrix(rng, 3) for _ in range(4)])
        exact = float(linalg.op_norms(stack).max())
        for bound in (1e-13, exact, 1e-9):
            assert (linalg.max_op_norm(stack, bound) > bound) == (exact > bound)

    def test_empty_stack_rejected(self):
        with pytest.raises(DimensionError):
            linalg.max_op_norm(np.zeros((0, 2, 2)), 1.0)


def _kron_by_loops(a, b):
    n, m = a.shape[0], b.shape[0]
    out = np.zeros((n * m, n * m), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(m):
                for l in range(m):
                    out[i * m + k, j * m + l] = a[i, j] * b[k, l]
    return out


class TestKron:
    def test_identities(self):
        assert np.array_equal(linalg.kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_adjoint_multiplicativity(self, rng):
        a = random_matrix(rng, 2)
        b = random_matrix(rng, 3)
        assert np.allclose(
            linalg.adjoint(linalg.kron(a, b)),
            linalg.kron(linalg.adjoint(a), linalg.adjoint(b)),
            atol=1e-12,
        )

    def test_mixed_product_against_loop_oracle(self, rng):
        a, b, c, d = (random_matrix(rng, 2) for _ in range(4))
        left = linalg.kron(a, b) @ linalg.kron(c, d)
        right = _kron_by_loops(a @ c, b @ d)
        assert linalg.op_norm(left - right) < 1e-12


class TestTolerances:
    def test_defaults(self):
        tol = linalg.Tolerances()
        assert tol.eq_tol == 1e-9
        assert tol.rank_tol == 1e-10
        assert tol.angle_tol == 1e-8

    def test_positive_required(self):
        with pytest.raises(ArgumentError):
            linalg.Tolerances(eq_tol=0.0)

    def test_rank_tol_bounded_by_eq_tol(self):
        with pytest.raises(ArgumentError):
            linalg.Tolerances(eq_tol=1e-12, rank_tol=1e-9)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["eq_tol", "rank_tol", "angle_tol"])
    def test_finite_required(self, name, value):
        # a NaN tolerance would make every `residual > tol` check False
        with pytest.raises(ArgumentError):
            linalg.Tolerances(**{name: value})


class TestOrthonormalSpan:
    def test_orthonormal_output(self, rng):
        mats = [random_matrix(rng, 3) for _ in range(4)]
        basis = linalg.orthonormal_span(np.stack(mats))
        assert basis.shape[0] == 4
        for i in range(4):
            for j in range(4):
                inner = np.vdot(basis[i], basis[j]) / 3
                assert inner == pytest.approx(float(i == j), abs=1e-12)

    def test_rank_deficiency_collapses(self, rng):
        m = random_matrix(rng, 3)
        basis = linalg.orthonormal_span(np.stack([m, 2.0 * m, 1j * m]))
        assert basis.shape[0] == 1

    def test_span_preserved(self, rng):
        mats = np.stack([random_matrix(rng, 3) for _ in range(3)])
        basis = linalg.orthonormal_span(mats)
        for m in mats:
            coeffs = np.array([np.vdot(b, m) / 3 for b in basis])
            recon = np.tensordot(coeffs, basis, axes=(0, 0))
            assert linalg.op_norm(recon - m) < 1e-10
