"""Group core: multiplication tables, subgroups, lattices, JSON format."""
import json
from itertools import product

import pytest

from equialg import (FiniteGroup, Subgroup, ValidationError, cyclic_group,
                     direct_product, subgroup_lattice, subgroups)
from equialg.groups import generated_subgroup, orbits


def brute_force_subgroups(g):
    """Oracle: subset closure test over all subsets containing the identity."""
    out = []
    n = g.order
    for bits in product([0, 1], repeat=n):
        members = {i for i in range(n) if bits[i]}
        if g.identity not in members:
            continue
        closed = all(g.mul(a, b) in members for a in members for b in members)
        closed = closed and all(g.inv_table[a] in members for a in members)
        if closed:
            out.append(frozenset(members))
    return sorted(out, key=lambda m: (len(m), tuple(sorted(m))))


def s3_table():
    """Symmetric group on 3 letters via permutation composition."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    comp = lambda p, q: tuple(p[q[i]] for i in range(3))
    return [[perms.index(comp(p, q)) for q in perms] for p in perms]


def d8_table():
    """Symmetries of a square, as permutations of its corners."""
    perms = [(0, 1, 2, 3)]
    for x in perms:
        for g in [(1, 2, 3, 0), (0, 3, 2, 1)]:
            y = tuple(g[i] for i in x)
            if y not in perms:
                perms.append(y)
    comp = lambda p, q: tuple(p[q[i]] for i in range(4))
    return [[perms.index(comp(p, q)) for q in perms] for p in perms]


def test_cyclic_trivial():
    g = cyclic_group(1)
    assert g.order == 1
    assert g.identity == 0


def test_cyclic_two_table():
    g = cyclic_group(2)
    assert g.mul_table == ((0, 1), (1, 0))


def test_cyclic_zero_rejected():
    with pytest.raises(ValidationError):
        cyclic_group(0)


def test_subgroups_of_c6_match_brute_force():
    g = cyclic_group(6)
    got = [h.members for h in subgroups(g)]
    assert got == brute_force_subgroups(g)
    assert len(got) == 4


@pytest.mark.parametrize("g, count", [
    (direct_product(direct_product(cyclic_group(2), cyclic_group(2)),
                    cyclic_group(2)), 16),
    (direct_product(cyclic_group(4), cyclic_group(2)), 8),
    (direct_product(FiniteGroup(s3_table(), name="S3"), cyclic_group(2)), 16),
    (FiniteGroup(d8_table(), name="D8"), 10)],
    ids=["C2xC2xC2", "C4xC2", "S3xC2", "D8"])
def test_subgroups_of_non_cyclic_groups_match_brute_force(g, count):
    got = [h.members for h in subgroups(g)]
    assert got == brute_force_subgroups(g)
    assert len(got) == count


def test_subgroups_trivial_and_c2():
    assert [h.members for h in subgroups(cyclic_group(1))] == [frozenset({0})]
    assert [h.members for h in subgroups(cyclic_group(2))] == [
        frozenset({0}), frozenset({0, 1})]


def test_subgroups_c4_chain():
    g = cyclic_group(4)
    hs = subgroups(g)
    assert [h.order for h in hs] == [1, 2, 4]
    assert [h.members for h in hs] == brute_force_subgroups(g)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_cyclic_prime_power_lattice_is_chain(p, n):
    g = cyclic_group(p ** n)
    lat = subgroup_lattice(g)
    assert len(lat) == n + 1
    assert lat.is_chain()


def test_lattice_c_p_squared_is_three_chain():
    lat = subgroup_lattice(cyclic_group(9))
    assert [h.order for h in lat.nodes] == [1, 3, 9]
    assert lat.is_chain()


def test_lattice_trivial_group_single_node():
    lat = subgroup_lattice(cyclic_group(1))
    assert len(lat) == 1


def test_klein_four_diamond():
    g = direct_product(cyclic_group(2), cyclic_group(2))
    hs = subgroups(g)
    assert [h.members for h in hs] == brute_force_subgroups(g)
    assert [h.order for h in hs] == [1, 2, 2, 2, 4]
    lat = subgroup_lattice(g)
    assert not lat.is_chain()
    # diamond: three incomparable middle nodes between bottom and top
    mids = [i for i, h in enumerate(lat.nodes) if h.order == 2]
    for i in mids:
        for j in mids:
            if i != j:
                assert not lat.leq[i][j]


def test_abelian_conjugacy_classes_are_singletons():
    for g in [cyclic_group(4), cyclic_group(6),
              direct_product(cyclic_group(2), cyclic_group(2))]:
        lat = subgroup_lattice(g)
        assert all(len(c) == 1 for c in lat.conj_classes)


def test_class_reps_are_the_least_member_of_each_class():
    for g in [cyclic_group(6), FiniteGroup(s3_table(), name="S3"),
              direct_product(cyclic_group(2), cyclic_group(2))]:
        lat = subgroup_lattice(g)
        assert lat.class_reps == tuple(
            sorted({lat.class_rep(i) for i in range(len(lat))}))
        assert all(lat.class_reps[lat.class_of[i]] == min(c)
                   for c in lat.conj_classes for i in c)


def reference_conj_classes(lat):
    """Conjugacy classes of subgroups by the `seen` list that
    `SubgroupLattice` kept before `groups.orbits` took the partition."""
    n = len(lat.nodes)
    seen = [False] * n
    classes = []
    for i in range(n):
        if seen[i]:
            continue
        orbit = sorted({lat.conj_table[g][i] for g in lat.group.elements})
        for j in orbit:
            seen[j] = True
        classes.append(tuple(orbit))
    return tuple(classes)


SIX_GROUPS = pytest.mark.parametrize("g", [
    cyclic_group(2), cyclic_group(4), cyclic_group(6),
    direct_product(cyclic_group(2), cyclic_group(2)),
    FiniteGroup(s3_table(), name="S3"), FiniteGroup(d8_table(), name="D8")],
    ids=["C2", "C4", "C6", "C2xC2", "S3", "D8"])


@SIX_GROUPS
def test_conj_classes_match_the_seen_list(g):
    lat = subgroup_lattice(g)
    assert lat.conj_classes == reference_conj_classes(lat)
    assert lat.class_of == {i: c for c, orbit in enumerate(lat.conj_classes)
                            for i in orbit}


@SIX_GROUPS
def test_orbits_lists_each_orbit_once_by_least_point(g):
    """`orbits` on the action of g on itself by left multiplication by a
    subgroup H (the right cosets Hx), and by conjugation (the conjugacy
    classes), against a partition computed pairwise."""
    for h in subgroups(g):
        got = orbits(g.elements, lambda x: {g.mul(a, x) for a in h.members})
        cosets = {frozenset(g.mul(a, x) for a in h.members)
                  for x in g.elements}
        assert got == sorted(sorted(c) for c in cosets)
    got = orbits(g.elements, lambda x: {g.conj(y, x) for y in g.elements})
    classes = {frozenset(g.conj(y, x) for y in g.elements) for x in g.elements}
    assert got == sorted(sorted(c) for c in classes)


def reference_generated_subgroup(g, gens):
    """Closure under products and inverses, both of a subgroup's
    operations."""
    members = set(gens) | {g.identity}
    while True:
        new = {g.mul(a, b) for a in members for b in members}
        new |= {g.inv_table[a] for a in members}
        if new <= members:
            return frozenset(members)
        members |= new


@pytest.mark.parametrize("g", [
    cyclic_group(1), cyclic_group(8), cyclic_group(12),
    FiniteGroup(s3_table(), name="S3"),
    direct_product(cyclic_group(2), cyclic_group(2)),
    direct_product(cyclic_group(4), cyclic_group(2)),
    direct_product(FiniteGroup(s3_table(), name="S3"), cyclic_group(2))],
    ids=["C1", "C8", "C12", "S3", "C2xC2", "C4xC2", "S3xC2"])
def test_generated_subgroup_matches_closure_with_inverses(g):
    """Closing under products alone gives the inverses too, in a finite
    group: every element pair generates the same subgroup as with an
    explicit inverse closure."""
    assert generated_subgroup(g, []) == frozenset({g.identity})
    for a in g.elements:
        for b in g.elements:
            assert generated_subgroup(g, [a, b]) == \
                reference_generated_subgroup(g, [a, b])


def test_s3_conjugacy_and_lattice_automorphism():
    g = FiniteGroup(s3_table(), name="S3")
    assert not g.is_abelian()
    lat = subgroup_lattice(g)
    assert [h.order for h in lat.nodes] == [1, 2, 2, 2, 3, 6]
    # the three order-2 subgroups form one conjugacy class
    sizes = sorted(len(c) for c in lat.conj_classes)
    assert sizes == [1, 1, 1, 3]
    # conjugation is a lattice automorphism fixing each class setwise
    n = len(lat.nodes)
    for x in g.elements:
        img = lat.conj_table[x]
        assert sorted(img) == list(range(n))
        for i in range(n):
            assert lat.class_of[img[i]] == lat.class_of[i]
            for j in range(n):
                assert lat.leq[i][j] == lat.leq[img[i]][img[j]]


def test_subgroup_output_deterministic():
    g = cyclic_group(12)
    a = [h.members for h in subgroups(g)]
    b = [h.members for h in subgroups(cyclic_group(12))]
    assert a == b
    orders = [h.order for h in subgroups(g)]
    assert orders == sorted(orders)


def test_subgroup_validation():
    g = cyclic_group(4)
    with pytest.raises(ValidationError):
        Subgroup(g, {1, 2})  # no identity
    with pytest.raises(ValidationError):
        Subgroup(g, {0, 1})  # not closed


def test_as_group_and_relative():
    g = cyclic_group(4)
    h = Subgroup(g, {0, 2})
    hg = h.as_group()
    assert hg.order == 2
    assert hg.mul(1, 1) == 0
    u = Subgroup(g, {0})
    assert u.relative_to(h).members == frozenset({0})


def test_group_json_round_trip_and_validation():
    g = cyclic_group(3)
    h = FiniteGroup.from_json(g.to_json())
    assert h == g and h.name == "C3"
    bad = json.dumps({"order": 2, "mul": [[0, 1], [1, 1]], "name": "bad"})
    with pytest.raises(ValidationError):
        FiniteGroup.from_json(bad)
    with pytest.raises(ValidationError):
        FiniteGroup.from_json("{\"mul\": [[0, 0], [0, 0]]}")
