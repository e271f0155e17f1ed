"""Extended-integer connectivity arithmetic and little-disk evaluation."""
import math
import random
from itertools import product

import pytest

from equialg import cyclic_group, direct_product
from equialg.connectivity import (INF, ConnFunction, JoinBoundReport,
                                  RepDimension, conn_add, conn_join_bound,
                                  conn_n_infty, conn_shift, disk_conn_c2,
                                  disk_conn_general, disk_conn_value,
                                  non_additivity_witness)
from equialg.errors import ValidationError
from equialg.groups import FiniteGroup, Subgroup
from equialg.gsets import GSet
from equialg.indexing import (WeakIndexingSystem, enumerate_systems,
                              enumerate_transfer_systems, f_complete,
                              f_trivial, join, level_tables)

C2 = cyclic_group(2)
C4 = cyclic_group(4)


def s3_group():
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    return FiniteGroup([[perms.index(tuple(p[q[i]] for i in range(3)))
                         for q in perms] for p in perms], name="S3")


def c2_set(c, d):
    """c fixed points plus d free orbits over the order-two group."""
    s = GSet.trivial(C2, c)
    for _ in range(d):
        s = s + GSet.regular(C2)
    return s


def e_set(k):
    return GSet.trivial(cyclic_group(1), k)


# -- extended-integer arithmetic: ints and INF --------------------------------

def test_extint_total_order_and_absorbing_addition():
    vals = list(range(-3, 4)) + [INF]
    for a in vals:
        for b in vals:
            assert (a <= b) or (b <= a)
            assert a + b == b + a
            if a == INF or b == INF:
                assert a + b == INF
            for c in vals:
                assert ((a + b) + c) == (a + (b + c))
    assert INF + (-2) == INF
    assert all(v < INF for v in vals[:-1])


def test_extint_minimum_in_practice():
    assert disk_conn_c2(0, 0, ("e", 4)) == -2
    assert disk_conn_c2(0, 0, ("G", 3, 0)) == -2


# -- connectivity functions on the almost-unital poset -----------------------

def test_conn_n_infty_complete_is_constant_infinity():
    poset = enumerate_systems(C2, 6, "almost_unital")
    t = level_tables(C2, 6)
    f = conn_n_infty(f_complete(t), poset)
    assert all(v == INF for v in f.values)


def test_conn_n_infty_down_set_characterization():
    poset = enumerate_systems(C2, 6, "almost_unital")
    for i in poset.nodes:
        f = conn_n_infty(i, poset)
        expected = frozenset(k for k, node in enumerate(poset.nodes)
                             if node <= i)
        assert f.infinite_set() == expected
        assert f[poset.index(i)] == INF
        for k, node in enumerate(poset.nodes):
            if not node <= i:
                assert f[k] == -2


def test_conn_n_infty_reads_masks(monkeypatch):
    poset = enumerate_systems(C2, 6, "almost_unital")
    expected = [frozenset(k for k, node in enumerate(poset.nodes)
                          if node <= i) for i in poset.nodes]

    def no_le(a, b):
        raise AssertionError("conn_n_infty compared systems with <=")

    monkeypatch.setattr(WeakIndexingSystem, "__le__", no_le)
    assert [conn_n_infty(i, poset).infinite_set()
            for i in poset.nodes] == expected
    for i in poset.nodes:
        for j in poset.nodes:
            rep = conn_join_bound(i, j, poset)
            assert rep.holds
            assert rep.lhs is rep.lhs and rep.rhs is rep.rhs


def test_conn_n_infty_needs_the_poset_tables():
    # a C2@6 system against the C2@4 poset: its mask names other classes,
    # so a down-set read from it would mean nothing
    poset = enumerate_systems(C2, 4, "almost_unital")
    other = f_trivial(level_tables(C2, 6))
    with pytest.raises(ValidationError, match="different tables"):
        conn_n_infty(other, poset)
    with pytest.raises(ValidationError, match="different tables"):
        conn_join_bound(other, other, poset)
    own = f_trivial(level_tables(C2, 4))
    assert conn_n_infty(own, poset).infinite_set() == {poset.index(own)}


def test_conn_on_transfer_systems_is_a_validation_error():
    # a poset ordered by a predicate, of nodes that are not weak indexing
    # systems: neither the tables check nor a down-set mask applies
    poset = enumerate_transfer_systems(C4)
    own = f_trivial(level_tables(C4, 12))
    for i, j in [(poset.nodes[0], poset.nodes[-1]), (own, own)]:
        with pytest.raises(ValidationError):
            conn_n_infty(i, poset)
        with pytest.raises(ValidationError):
            conn_join_bound(i, j, poset)


def test_conn_pointwise_arithmetic():
    poset = enumerate_systems(C2, 6, "almost_unital")
    t = level_tables(C2, 6)
    f = conn_n_infty(f_trivial(t), poset)
    g = ConnFunction(poset, [-2] * len(poset))
    assert conn_shift(conn_add(f, g), 2) == f
    h = conn_add(conn_n_infty(f_complete(t), poset), g)
    assert all(v == INF for v in h.values)


def test_conn_function_order_needs_one_domain():
    # C2@6 has 9 almost-unital systems and C4@12 has 30: comparing only a
    # common prefix would make both directions True
    f = conn_n_infty(f_trivial(level_tables(C2, 6)),
                     enumerate_systems(C2, 6, "almost_unital"))
    g = conn_n_infty(f_trivial(level_tables(C4, 12)),
                     enumerate_systems(C4, 12, "almost_unital"))
    with pytest.raises(ValidationError):
        f <= g
    with pytest.raises(ValidationError):
        g <= f


@pytest.mark.parametrize("bad", [True, 0.5, -math.inf, math.nan, 1.0, None],
                         ids=repr)
def test_conn_function_values_are_ints_or_inf(bad):
    poset = enumerate_systems(C2, 6, "almost_unital")
    n = len(poset)
    assert ConnFunction(poset, [INF] + [-2] * (n - 1))[0] == INF
    for values in ([bad] * n, [-2] * (n - 1) + [bad], [INF] * (n - 1) + [bad],
                   [bad] + [1] * (n - 1)):
        with pytest.raises(ValidationError):
            ConnFunction(poset, values)


def test_join_bound_idempotent_and_bottom():
    poset = enumerate_systems(C2, 6, "almost_unital")
    t = level_tables(C2, 6)
    for i in poset.nodes:
        rep = conn_join_bound(i, i, poset)
        assert rep.holds and rep.strict_witnesses == ()
    triv = f_trivial(t)
    for j in poset.nodes:
        rep = conn_join_bound(triv, j, poset)
        assert rep.holds
        assert (rep.strict_witnesses == ()) == \
            (join(triv, j).admissible == j.admissible)


@pytest.mark.parametrize("group,cutoff", [(C2, 6), (C4, 12)])
def test_join_bound_holds_with_exact_strictness(group, cutoff):
    poset = enumerate_systems(group, cutoff, "almost_unital")
    nodes = poset.nodes
    for i in nodes:
        for j in nodes:
            rep = conn_join_bound(i, j, poset)
            assert rep.holds
            jj = join(i, j)
            expected = tuple(k for k, node in enumerate(nodes)
                             if node <= jj and not node <= i and not node <= j)
            assert rep.strict_witnesses == expected


def reference_join_bound(i, j, conn):
    """The bound by the arithmetic itself: `conn(s)` is the connectivity
    function of s on the literal down-set {k : node_k <= s}."""
    lhs = conn_shift(conn_add(conn(i), conn(j)), 2)
    rhs = conn(join(i, j))
    strict = tuple(k for k, (a, b) in enumerate(zip(lhs.values, rhs.values))
                   if a < b)
    return lhs <= rhs, strict, lhs.values, rhs.values


# (group, cutoff, pairs drawn with seed 0 or None for every pair, pairs
#  with a strict witness); the bound holds on every pair
JOIN_BOUND_CASES = {
    "C2-6": (C2, 6, None, 6),
    "C4-12": (C4, 12, None, 222),
    "S3-6": (s3_group(), 6, None, 8890),
    "C2xC2-8": (direct_product(C2, C2), 8, 2000, 1108),
}


@pytest.mark.parametrize("case", list(JOIN_BOUND_CASES))
def test_join_bound_masks_match_the_arithmetic(case):
    group, cutoff, draws, n_strict = JOIN_BOUND_CASES[case]
    poset = enumerate_systems(group, cutoff, "almost_unital")
    nodes = poset.nodes
    literal = {}

    def conn(s):
        if s not in literal:
            literal[s] = ConnFunction(poset, [INF if node <= s else -2
                                              for node in nodes])
        return literal[s]

    if draws is None:
        pairs = list(product(nodes, repeat=2))
    else:
        rng = random.Random(0)
        pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(draws)]
    strict_pairs = 0
    for i, j in pairs:
        rep = conn_join_bound(i, j, poset)
        holds, strict, lhs, rhs = reference_join_bound(i, j, conn)
        assert holds
        assert (rep.holds, rep.strict_witnesses, rep.lhs.values,
                rep.rhs.values) == (holds, strict, lhs, rhs)
        strict_pairs += bool(strict)
    assert strict_pairs == n_strict


def test_join_bound_report_matches_the_arithmetic_where_it_fails():
    # the bound holds on every pair of systems, so a failing verdict needs
    # down-set masks that no pair gives
    poset = enumerate_systems(C4, 12, "almost_unital")
    n = len(poset)
    rng = random.Random(0)

    def conn(down):
        return ConnFunction(poset, [INF if down >> k & 1 else -2
                                    for k in range(n)])

    verdicts = set()
    for _ in range(200):
        a, b, c = (rng.getrandbits(n) for _ in range(3))
        lhs, rhs = conn_shift(conn_add(conn(a), conn(b)), 2), conn(c)
        rep = JoinBoundReport(poset, a | b, c)
        assert rep.holds == (lhs <= rhs)
        assert rep.strict_witnesses == tuple(
            k for k in range(n) if lhs[k] < rhs[k])
        assert rep.lhs == lhs and rep.rhs == rhs
        verdicts.add(rep.holds)
        rep = JoinBoundReport(poset, a & c, c)
        assert rep.holds and rep.lhs <= rep.rhs
    assert verdicts == {False}


def test_join_bound_strict_witness_on_c4_transfers():
    from equialg.category import generate_category
    from equialg.gsets import orbit_projection
    e = Subgroup(C4, {0})
    c2 = Subgroup(C4, {0, 2})
    full = Subgroup(C4, set(C4.elements))
    i = generate_category(C4, [orbit_projection(C4, e, c2)], unital=True).to_system()
    j = generate_category(C4, [orbit_projection(C4, c2, full)], unital=True).to_system()
    poset = enumerate_systems(C4, 12, "almost_unital")
    rep = conn_join_bound(i, j, poset)
    assert rep.holds and len(rep.strict_witnesses) > 0
    k = generate_category(C4, [orbit_projection(C4, e, full)], unital=True).to_system()
    assert poset.index(k) in rep.strict_witnesses


# -- little-disk connectivity over the order-two group ----------------------

def test_disk_conn_c2_free_level():
    for a, b in product(range(5), repeat=2):
        for k in range(2, 5):
            assert disk_conn_c2(a, b, ("e", k)) == max(-2, a + b - 2)
    assert disk_conn_c2(3, 1, ("e", 1)) == INF
    assert disk_conn_c2(3, 1, ("e", 0)) == INF


def test_disk_conn_c2_three_cases():
    for a, b in product(range(5), repeat=2):
        for c in range(2, 4):
            assert disk_conn_c2(a, b, ("G", c, 0)) == max(-2, a - 2)
        for d in range(1, 4):
            for c in range(0, 2):
                assert disk_conn_c2(a, b, ("G", c, d)) == max(-2, b - 2)
            for c in range(2, 4):
                assert disk_conn_c2(a, b, ("G", c, d)) == \
                    max(-2, min(a, b) - 2)


def test_disk_conn_c2_paper_values():
    assert disk_conn_c2(1, 2, ("G", 2, 1)) == -1
    assert disk_conn_c2(3, 1, ("G", 2, 0)) == 1
    assert disk_conn_c2(3, 1, ("G", 3, 0)) == 1


def test_disk_conn_general_dual_path():
    for a, b in product(range(5), repeat=2):
        v = RepDimension.c2(a, b)
        for c in range(4):
            for d in range(4):
                got = disk_conn_value(v, c2_set(c, d))
                assert got == disk_conn_c2(a, b, ("G", c, d)), (a, b, c, d)
        ve = RepDimension(cyclic_group(1), {0: a + b})
        for k in range(5):
            assert disk_conn_value(ve, e_set(k)) == disk_conn_c2(a, b, ("e", k))


def test_disk_conn_general_boolean_form():
    v = RepDimension.c2(1, 2)
    s = c2_set(2, 1)
    assert disk_conn_general(v, s, -1)
    assert not disk_conn_general(v, s, 0)
    star = GSet.trivial(C2, 1)
    assert disk_conn_general(v, star, 10 ** 6)  # empty constraint set
    assert disk_conn_value(v, star) == INF


def test_rep_dimension_constructor():
    v = RepDimension.c2(2, 3)
    assert v.dims == {0: 5, 1: 2}
    with pytest.raises(ValidationError):
        RepDimension.c2(-1, 0)
    with pytest.raises(ValidationError):
        RepDimension(C2, {0: 1})


def test_non_additivity_witness_values():
    for (ap, b), rhs in [((2, 2), 1), ((3, 2), 1), ((4, 4), 3)]:
        rep = non_additivity_witness(ap, b)
        assert rep["lhs_bound"] == 0
        assert rep["rhs"] == rhs
        assert rep["strict"]
        assert "forthcoming" in rep["provenance"]
    with pytest.raises(ValidationError):
        non_additivity_witness(1, 2)
