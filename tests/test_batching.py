"""The batching rule of stacked checks: batch boundaries and bounded memory."""

import tracemalloc

import numpy as np
import pytest

import starangles as sa
from starangles import basic, linalg
from starangles.errors import ConstructionError
from starangles.expectation import _axiom_residuals, _bimodule_violation

from conftest import random_matrix

TOL = linalg.DEFAULT_TOLERANCES


@pytest.fixture
def batch_items(monkeypatch):
    """Set the number of single-matrix items per batch, whatever their size."""

    def set_items(items: int):
        monkeypatch.setattr(linalg, "_BATCH_ENTRIES", 0)
        monkeypatch.setattr(linalg, "_BATCH_MIN_MATRICES", items)

    return set_items


ONE_BATCH = 10**9


def check_values(exp: sa.CondExpectation, stack: np.ndarray) -> dict:
    """Every batched residual on the expectation's big algebra and table."""
    out = dict(_axiom_residuals(exp, TOL))
    out["bimodule violation"] = _bimodule_violation(exp, TOL)
    out["span residual"] = exp.big._max_span_residual(stack)
    out["product closure"] = exp.big._product_closure_residual()
    return out


def perturbed(exp: sa.CondExpectation, rng: np.random.Generator, size: float):
    """The expectation's table plus a random perturbation inside the big algebra."""
    noise = np.stack([exp.big.random_element(rng) for _ in range(exp.big.dim)])
    return sa.CondExpectation(inclusion=exp.inclusion, values=exp.values + size * noise)


class TestBatchBoundaries:
    def test_batches_partition_the_range(self, batch_items):
        batch_items(3)
        parts = list(linalg.batches(8, 10**6))
        assert [(p.start, p.stop) for p in parts] == [(0, 3), (3, 6), (6, 8)]
        assert list(linalg.batches(0, 1)) == []
        # items of two matrices: at least two items make the three matrices
        parts = list(linalg.batches(5, 10**6, matrices=2))
        assert [(p.start, p.stop) for p in parts] == [(0, 2), (2, 4), (4, 5)]

    @pytest.mark.parametrize("size", [0.0, 1e-3])
    @pytest.mark.parametrize("onto", ["small", "intermediate"])
    def test_three_item_batches_match_one_batch(self, suite_s3, batch_items, onto, size):
        rng = np.random.default_rng(11)
        exp = suite_s3.expectation if onto == "small" else suite_s3.compat[0].F
        exp = perturbed(exp, rng, size)
        n = exp.big.ambient_dim
        # seven members, the last three off the span
        stack = np.concatenate(
            [exp.big.basis[:4], np.stack([random_matrix(rng, n) for _ in range(3)])]
        )
        batch_items(ONE_BATCH)
        whole = check_values(exp, stack)
        batch_items(3)
        batched = check_values(exp, stack)
        assert batched.keys() == whole.keys()
        for name, value in whole.items():
            assert batched[name] == pytest.approx(value, rel=1e-12), name
        if size and onto == "intermediate":
            axioms = [v for k, v in whole.items() if k not in ("unitality", "product closure")]
            assert min(axioms) > TOL.eq_tol

    def test_lambda_many_matches_one_batch(self, suite_s3, batch_items):
        bc = suite_s3.ctx.bc
        stack = bc.source.values
        batch_items(ONE_BATCH)
        whole = bc.lambda_many(stack)
        batch_items(3)
        np.testing.assert_allclose(bc.lambda_many(stack), whole, rtol=0, atol=1e-13)

    def test_span_violation_in_last_batch(self, suite_s3, batch_items):
        a = suite_s3.algebra
        outside = random_matrix(np.random.default_rng(2), a.ambient_dim)
        stack = np.concatenate([a.basis, outside[None]])  # 7 members: batches 3, 3, 1
        batch_items(ONE_BATCH)
        whole = a._max_span_residual(stack)
        batch_items(3)
        assert whole > 0.1
        assert a._max_span_residual(stack) == pytest.approx(whole, rel=1e-12)

    def test_closure_violation_in_last_batch(self, batch_items):
        # span{1, x}: the pairs (0, 0), (0, 1), (1, 0) close, only (1, 1) gives x^2
        x = np.diag([np.sqrt(1.5), -np.sqrt(1.5), 0.0]).astype(complex)
        basis = np.stack([np.eye(3, dtype=complex), x])
        raised = []
        for items in (ONE_BATCH, 3):
            batch_items(items)
            with pytest.raises(ConstructionError) as err:
                sa.StarAlgebra(3, basis)
            raised.append((err.value.prop, err.value.residual))
        assert raised[0][0] == raised[1][0] == "product closure"
        assert raised[1][1] == pytest.approx(raised[0][1], rel=1e-12)

    def test_axiom_violation_in_last_batch(self, suite_s3, batch_items):
        exp = suite_s3.expectation
        values = exp.values.copy()
        values[-1] += 1e-6 * exp.big.basis[1]  # leaves the scalars only in row 5 of 6
        leaky = sa.CondExpectation(inclusion=exp.inclusion, values=values)
        raised = []
        for items in (ONE_BATCH, 3):
            batch_items(items)
            with pytest.raises(ConstructionError) as err:
                sa.expectation._verify_expectation_axioms(leaky, TOL)
            raised.append((err.value.prop, err.value.residual))
        assert raised[0][0] == raised[1][0] == "range containment"
        assert raised[1][1] == pytest.approx(raised[0][1], rel=1e-12)


class TestClosureCoverage:
    def test_exhaustive_on_small_algebras(self, suite_s3):
        a = suite_s3.algebra
        assert a.product_coverage == (36, 36)
        assert a.adjoint_coverage == (6, 6)

    def test_sampled_on_s4_m1(self):
        rep = sa.group_algebra(sa.symmetric(4))
        inc = sa.Inclusion(big=rep.algebra, small=rep.subalgebra(sa.trivial(4)))
        m1 = basic.build(sa.trace_preserving(inc)).m1
        assert m1.product_coverage == (753, 331_776)
        assert m1.adjoint_coverage == (256, 576)


def test_closure_check_memory_is_bounded():
    # 64 orthonormal diagonal units in M_64, the shape of lambda(M1) one floor up
    # on C[D4]; with its 953 sampled products in one stack the check took 367 MB
    n = 64
    units = np.zeros((n, n, n), dtype=complex)
    units[np.arange(n), np.arange(n), np.arange(n)] = np.sqrt(n)
    tracemalloc.start()
    try:
        sa.StarAlgebra(n, units)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2**20
