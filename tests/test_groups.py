import itertools

import pytest
from sympy.combinatorics import Permutation, PermutationGroup

import starangles as sa
from starangles.errors import (
    ArgumentError,
    ContainmentError,
    ParseError,
    SizeError,
)
from starangles.groups import identity_perm

from conftest import conjugacy_classes


def brute_force_closure(degree, generators):
    """Independent oracle: product-saturate an explicit set of image tuples."""
    elements = {tuple(range(degree))}
    todo = list(elements)
    gens = [g.images for g in generators]
    while todo:
        a = todo.pop()
        for b in gens:
            c = tuple(a[i] for i in b)  # a * b
            if c not in elements:
                elements.add(c)
                todo.append(c)
    return frozenset(elements)


def brute_force_closure_order(degree, generators):
    return len(brute_force_closure(degree, generators))


def sympy_order(degree, generators):
    if not generators:
        return 1
    return PermutationGroup([Permutation(list(g.images)) for g in generators]).order()


def _cycles(*texts, degree):
    return [sa.parse_cycles(t, degree) for t in texts]


class TestPerm:
    def test_identity_and_composition(self):
        p = sa.parse_cycles("(1 2 3)", 3)
        q = sa.parse_cycles("(1 2)", 3)
        assert (p * p * p).is_identity()
        assert (p * q).images != (q * p).images

    def test_inverse(self):
        p = sa.parse_cycles("(1 2 3 4)", 4)
        assert (p * p.inverse()).is_identity()

    def test_non_bijection_rejected(self):
        with pytest.raises(ArgumentError):
            sa.Perm((0, 0, 1))

    def test_cycle_roundtrip(self):
        for text in ["(1 2 3)(4 5)", "(2 4)", "()"]:
            p = sa.parse_cycles(text, 5)
            assert sa.parse_cycles(sa.format_cycles(p), 5) == p


class TestParsing:
    def test_malformed_reports_position(self):
        with pytest.raises(ParseError) as err:
            sa.parse_cycles("(1 2", 4)
        assert err.value.position is not None

    def test_stray_character(self):
        with pytest.raises(ParseError):
            sa.parse_cycles("(1 x)", 4)

    def test_point_out_of_range(self):
        with pytest.raises(ParseError):
            sa.parse_cycles("(1 7)", 4)

    def test_repeated_point(self):
        with pytest.raises(ParseError):
            sa.parse_cycles("(1 2 1)", 4)


class TestClosure:
    def test_empty_generators(self):
        assert len(sa.closure(3, [])) == 1

    @pytest.mark.parametrize(
        "degree, cycle_texts, expected",
        [
            (3, ["(1 2)", "(1 2 3)"], 6),
            (4, ["(1 2 3 4)", "(1 3)"], 8),
            (4, ["(1 2)(3 4)", "(1 3)(2 4)"], 4),
            (5, ["(1 2 3 4 5)"], 5),
        ],
    )
    def test_orders_against_oracles(self, degree, cycle_texts, expected):
        gens = [sa.parse_cycles(t, degree) for t in cycle_texts]
        assert brute_force_closure_order(degree, gens) == expected
        assert sympy_order(degree, gens) == expected
        assert len(sa.closure(degree, gens)) == expected

    def test_generator_degree_mismatch(self):
        with pytest.raises(ArgumentError):
            sa.closure(3, [sa.parse_cycles("(1 4)", 4)])


class TestPermGroup:
    def test_non_closed_elements_rejected(self):
        elements = [identity_perm(3), *_cycles("(1 2)", "(1 3)", degree=3)]
        with pytest.raises(ArgumentError, match="not closed under products"):
            sa.PermGroup(3, elements)

    def test_missing_inverse_rejected(self):
        elements = [identity_perm(3), *_cycles("(1 2 3)", degree=3)]
        with pytest.raises(ArgumentError, match="missing inverse"):
            sa.PermGroup(3, elements)

    def test_cayley_table_indexes_products(self):
        g = sa.dihedral(4)
        for i, a in enumerate(g.elements):
            for j, b in enumerate(g.elements):
                assert g.elements[g.mul[i][j]] == a * b


class TestIndexAndIntersect:
    def test_self_index(self):
        g = sa.symmetric(3)
        assert sa.index(g, g) == 1

    def test_s3_transposition(self):
        g = sa.symmetric(3)
        h = sa.closure(3, [sa.parse_cycles("(1 2)", 3)])
        assert sa.index(g, h) == 3

    def test_d4_rotation_square(self):
        g = sa.dihedral(4)
        h = sa.closure(4, [sa.parse_cycles("(1 3)(2 4)", 4)])
        assert sa.index(g, h) == 4

    def test_not_subgroup_rejected(self):
        with pytest.raises(ContainmentError):
            sa.index(sa.cyclic(4), sa.closure(4, [sa.parse_cycles("(1 2)", 4)]))

    def test_intersect_self(self):
        k = sa.cyclic(4)
        assert sa.intersect(k, k) == k

    def test_transpositions_intersect_trivially(self):
        k = sa.closure(3, [sa.parse_cycles("(1 2)", 3)])
        ell = sa.closure(3, [sa.parse_cycles("(1 3)", 3)])
        assert len(sa.intersect(k, ell)) == 1

    def test_d4_rotations_meet_half_dihedral(self):
        r = sa.parse_cycles("(1 2 3 4)", 4)
        s = sa.parse_cycles("(1 3)", 4)
        k = sa.closure(4, [r])
        ell = sa.closure(4, [r * r, s])
        meet = sa.intersect(k, ell)
        # oracle: list the common elements directly
        common = set(k.elements) & set(ell.elements)
        assert set(meet.elements) == common
        assert len(meet) == 2

    def test_degree_mismatch(self):
        with pytest.raises(ArgumentError):
            sa.intersect(sa.cyclic(3), sa.cyclic(4))


def brute_force_subgroup_count(group):
    """Oracle: test every subset of the element list for subgroup-ness."""
    elements = list(group.elements)
    count = 0
    for size in range(1, len(elements) + 1):
        if len(elements) % size:
            continue
        for subset in itertools.combinations(elements, size):
            chosen = set(subset)
            if any(p.is_identity() for p in chosen):
                closed = all(a * b in chosen for a in chosen for b in chosen)
                if closed:
                    count += 1
    return count


def oracle_closure(degree, seed):
    """Oracle: close ``seed`` under products with ``Perm`` objects."""
    elements = {identity_perm(degree)}
    frontier = [identity_perm(degree)]
    generators = list(seed)
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = x * g
                if y not in elements:
                    elements.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(elements)


def oracle_intermediate_subgroups(big, small):
    """Oracle: extend each known intermediate by every element of G, closing over
    all of its elements."""
    found = {small.elements: small}
    frontier = [small]
    while frontier:
        nxt = []
        for m in frontier:
            for g in big.elements:
                if g in m:
                    continue
                closed = oracle_closure(big.degree, m.elements + (g,))
                key = tuple(sorted(closed))
                if key not in found:
                    grp = sa.PermGroup(big.degree, closed)
                    found[key] = grp
                    nxt.append(grp)
        frontier = nxt
    return sorted(found.values(), key=lambda grp: (len(grp), grp.elements))


ORACLE_INCLUSIONS = {
    "S3": (sa.symmetric(3), sa.trivial(3)),
    "D4": (sa.dihedral(4), sa.trivial(4)),
    "D4/<(1 3)(2 4)>": (sa.dihedral(4), sa.closure(4, _cycles("(1 3)(2 4)", degree=4))),
    "D5": (sa.dihedral(5), sa.trivial(5)),
    "A4": (sa.closure(4, _cycles("(1 2 3)", "(1 2)(3 4)", degree=4)), sa.trivial(4)),
    "D6": (sa.dihedral(6), sa.trivial(6)),
    "S4": (sa.symmetric(4), sa.trivial(4)),
    "S4/V4": (sa.symmetric(4), sa.klein_four()),
    "S4/<(1 2)>": (sa.symmetric(4), sa.closure(4, _cycles("(1 2)", degree=4))),
}

S4_X_C2 = sa.closure(6, _cycles("(1 2)", "(1 2 3 4)", "(5 6)", degree=6))


class TestIntermediateSubgroups:
    @pytest.mark.parametrize("name", list(ORACLE_INCLUSIONS))
    def test_matches_oracle_in_order(self, name):
        big, small = ORACLE_INCLUSIONS[name]
        assert sa.intermediate_subgroups(big, small) == oracle_intermediate_subgroups(big, small)

    def test_order_48_lattice(self):
        h = sa.trivial(6)
        subs = sa.intermediate_subgroups(S4_X_C2, h)
        assert len(S4_X_C2) == 48
        assert len(subs) == 98
        assert len(set(subs)) == 98
        for m in subs:
            assert all(a * b in m for a in m.elements for b in m.elements)
            assert h.is_subgroup_of(m) and m.is_subgroup_of(S4_X_C2)
        # one-step completeness: every extension of a found subgroup is found
        found = {frozenset(g.images for g in m.elements) for m in subs}
        for m in subs:
            gens, span = [], brute_force_closure(6, [])
            for g in m.elements:
                if g.images not in span:
                    gens.append(g)
                    span = brute_force_closure(6, gens)
            assert span == frozenset(g.images for g in m.elements)
            for g in S4_X_C2.elements:
                if g not in m:  # else the closure is m
                    assert brute_force_closure(6, gens + [g]) in found

    def test_trivial_interval(self):
        g = sa.dihedral(4)
        assert sa.intermediate_subgroups(g, g) == [g]

    def test_s3_full_lattice(self):
        g = sa.symmetric(3)
        subs = sa.intermediate_subgroups(g, sa.trivial(3))
        assert brute_force_subgroup_count(g) == 6
        assert len(subs) == 6

    def test_d4_full_lattice(self):
        g = sa.dihedral(4)
        subs = sa.intermediate_subgroups(g, sa.trivial(4))
        assert brute_force_subgroup_count(g) == 10
        assert len(subs) == 10

    def test_klein_in_s4_interval(self):
        g = sa.symmetric(4)
        v = sa.klein_four()
        subs = sa.intermediate_subgroups(g, v)
        assert len(subs) == 6  # V, three dihedral Sylow-2s, A4, S4
        proper = [m for m in subs if len(m) not in (4, 24)]
        assert sorted(len(m) for m in proper) == [8, 8, 8, 12]

    def test_every_result_contains_h_and_multiplicativity(self):
        g = sa.dihedral(4)
        h = sa.closure(4, [sa.parse_cycles("(1 3)(2 4)", 4)])
        subs = sa.intermediate_subgroups(g, h)
        for m in subs:
            assert h.is_subgroup_of(m) and m.is_subgroup_of(g)
            assert sa.index(g, h) == sa.index(g, m) * sa.index(m, h)

    def test_order_bound_enforced(self):
        with pytest.raises(SizeError):
            sa.intermediate_subgroups(sa.cyclic(49), sa.trivial(49))


class TestConjugacyClasses:
    def test_s3_classes(self):
        classes = conjugacy_classes(sa.symmetric(3))
        assert sorted(len(c) for c in classes) == [1, 2, 3]

    def test_d4_classes(self):
        classes = conjugacy_classes(sa.dihedral(4))
        assert len(classes) == 5

    def test_classes_partition_group(self):
        g = sa.dihedral(4)
        classes = conjugacy_classes(g)
        seen = [p for c in classes for p in c]
        assert sorted(seen) == list(g.elements)


class TestPresets:
    def test_symmetric_orders(self):
        assert len(sa.symmetric(4)) == 24

    def test_klein_four_inside_s4(self):
        v = sa.klein_four()
        assert len(v) == 4
        assert v.is_subgroup_of(sa.symmetric(4))

    def test_dihedral_matches_expected_generators(self):
        g = sa.dihedral(4)
        assert sa.parse_cycles("(1 2 3 4)", 4) in g
        assert sa.parse_cycles("(1 3)", 4) in g
