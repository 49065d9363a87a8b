"""Shared fixtures: the preset group inclusions used across the suite."""

from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import settings

import starangles as sa

# derandomized and bounded, so property tests run the same examples every time
settings.register_profile(
    "starangles", derandomize=True, deadline=None, max_examples=20, database=None
)
settings.load_profile("starangles")


def random_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Standard complex Gaussian ``n x n`` matrix."""
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random unitary from the QR of a complex Gaussian."""
    q, r = np.linalg.qr(random_matrix(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@dataclass
class GroupSuite:
    """A group-algebra inclusion C[H] in C[G] with its proper intermediates."""

    name: str
    group: sa.PermGroup
    small_group: sa.PermGroup
    rep: sa.GroupAlgebra
    algebra: sa.StarAlgebra
    small: sa.StarAlgebra
    expectation: sa.CondExpectation
    intermediate_groups: list
    compat: list = field(default_factory=list)
    ctx: sa.AngleContext | None = None

    def pairs(self):
        for i in range(len(self.compat)):
            for j in range(i, len(self.compat)):
                yield (
                    self.intermediate_groups[i],
                    self.intermediate_groups[j],
                    self.compat[i],
                    self.compat[j],
                )


def build_group_suite(name: str, group: sa.PermGroup, small_group: sa.PermGroup) -> GroupSuite:
    rep = sa.group_algebra(group)
    algebra = rep.algebra
    small = rep.subalgebra(small_group)
    expectation = sa.trace_preserving(sa.Inclusion(big=algebra, small=small))
    subgroups = sa.intermediate_subgroups(group, small_group)
    proper = [m for m in subgroups if len(m) not in (len(small_group), len(group))]
    suite = GroupSuite(
        name=name,
        group=group,
        small_group=small_group,
        rep=rep,
        algebra=algebra,
        small=small,
        expectation=expectation,
        intermediate_groups=proper,
    )
    suite.compat = [
        sa.make_compatible(expectation, rep.subalgebra(m)) for m in proper
    ]
    suite.ctx = sa.AngleContext(expectation)
    return suite


@pytest.fixture(scope="session")
def suite_d4():
    return build_group_suite("d4_over_e", sa.dihedral(4), sa.trivial(4))


@pytest.fixture(scope="session")
def suite_s3():
    return build_group_suite("s3_over_e", sa.symmetric(3), sa.trivial(3))


@pytest.fixture(scope="session")
def suite_d4_r2():
    rotation2 = sa.parse_cycles("(1 3)(2 4)", 4)
    return build_group_suite("d4_over_r2", sa.dihedral(4), sa.closure(4, [rotation2]))


@pytest.fixture(scope="session")
def suite_s4_v():
    return build_group_suite("s4_over_v", sa.symmetric(4), sa.klein_four())


@pytest.fixture(scope="session")
def all_suites(suite_d4, suite_s3, suite_d4_r2, suite_s4_v):
    return [suite_d4, suite_s3, suite_d4_r2, suite_s4_v]


def full_matrix_algebra(n: int) -> sa.StarAlgebra:
    units = np.zeros((n * n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            units[i * n + j, i, j] = 1.0
    return sa.from_span(n, list(units))


def scalar_algebra(n: int) -> sa.StarAlgebra:
    return sa.from_span(n, [np.eye(n, dtype=complex)])


def permuted(exp: sa.CondExpectation, perm) -> sa.CondExpectation:
    """``exp`` on its big algebra's basis stored in the order ``perm``: the greedy
    module basis sweeps the basis in that order."""
    big = exp.big
    reordered = sa.StarAlgebra(big.ambient_dim, big.basis[perm])
    return sa.CondExpectation(sa.Inclusion(big=reordered, small=exp.small), exp.values[perm])


@pytest.fixture(scope="session")
def trace_inclusions():
    """C.1 inside M_n with the trace-preserving expectation, n in 2..4."""
    out = {}
    for n in (2, 3, 4):
        big = full_matrix_algebra(n)
        small = scalar_algebra(n)
        out[n] = sa.trace_preserving(sa.Inclusion(big=big, small=small))
    return out


@pytest.fixture(scope="session")
def fixed_point_m2():
    """M2 with Z/2 acting by conjugation with sigma_z; fixed algebra is diagonal."""
    m2 = full_matrix_algebra(2)
    flip = sa.parse_cycles("(1 2)", 2)
    sigma_z = np.diag([1.0, -1.0]).astype(complex)
    action = sa.action_from_generators(sa.closure(2, [flip]), {flip: sigma_z})
    fixed = sa.fixed_point(m2, action)
    expectation = sa.trace_preserving(sa.Inclusion(big=m2, small=fixed))
    return m2, fixed, expectation, action


@dataclass
class CrossedSuite:
    product: sa.CrossedProduct
    expectation: sa.CondExpectation
    group: sa.PermGroup
    small_group: sa.PermGroup
    subgroup_k: sa.PermGroup
    subgroup_l: sa.PermGroup
    ci_k: sa.CompatibleIntermediate
    ci_l: sa.CompatibleIntermediate
    ctx: sa.AngleContext


@pytest.fixture(scope="session")
def crossed_suite():
    """Nontrivial base: C^2 with D4 acting through its reflection quotient."""
    diag = sa.from_span(
        2, [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    )
    g = sa.dihedral(4)
    r = sa.parse_cycles("(1 2 3 4)", 4)
    s = sa.parse_cycles("(1 3)", 4)
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    action = sa.action_from_generators(g, {r: np.eye(2, dtype=complex), s: sigma_x})
    cp = sa.crossed_product(diag, action)
    h = sa.trivial(4)
    k = sa.closure(4, [r])
    ell = sa.closure(4, [r * r, s])
    expectation = sa.trace_preserving(
        sa.Inclusion(big=cp.algebra, small=cp.subalgebra(h))
    )
    ci_k = sa.make_compatible(expectation, cp.subalgebra(k))
    ci_l = sa.make_compatible(expectation, cp.subalgebra(ell))
    return CrossedSuite(
        product=cp,
        expectation=expectation,
        group=g,
        small_group=h,
        subgroup_k=k,
        subgroup_l=ell,
        ci_k=ci_k,
        ci_l=ci_l,
        ctx=sa.AngleContext(expectation),
    )
