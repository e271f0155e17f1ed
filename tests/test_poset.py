"""The up-set-mask `Poset`, built from `leq` or by inclusion of masks,
gated against the n-by-n order it replaced, the Fast Close-by-One
`closure_lattice` against the frontier search it replaced, and `close` and
`join` against the closure they replaced."""
import io
import json
import operator
import random

import pytest

import equialg.poset
from equialg import cyclic_group, direct_product
from equialg.category import _ops_for, enumerate_categories
from equialg.errors import ValidationError
from equialg.groups import FiniteGroup, _product_rules
from equialg.indexing import (enumerate_systems, enumerate_transfer_systems,
                              level_tables)
from equialg.poset import (Poset, _bits, _mask, close, closure_lattice,
                           fingerprint, join, rule_table)
from test_indexing import d8_group, q8_group, transfer_rules

C2 = cyclic_group(2)


class ReferencePoset:
    """The former `Poset`: an n-by-n tuple of bools, a cubic cover scan, and
    `json.dumps` of the whole order."""

    def __init__(self, nodes, leq, key):
        self.nodes = sorted(nodes, key=key)
        self.keys = [key(n) for n in self.nodes]
        n = len(self.nodes)
        self.le = tuple(tuple(bool(leq(self.nodes[i], self.nodes[j]))
                              for j in range(n)) for i in range(n))

    def covers(self):
        n = len(self.nodes)
        out = []
        for i in range(n):
            for j in range(n):
                if i == j or not self.le[i][j]:
                    continue
                if any(k not in (i, j) and self.le[i][k] and self.le[k][j]
                       for k in range(n)):
                    continue
                out.append((i, j))
        return out

    def minimal(self):
        n = len(self.nodes)
        return [i for i in range(n)
                if not any(self.le[j][i] for j in range(n) if j != i)]

    def maximal(self):
        n = len(self.nodes)
        return [i for i in range(n)
                if not any(self.le[i][j] for j in range(n) if j != i)]

    def is_isomorphic_via(self, other, pairing):
        n = len(self.nodes)
        if n != len(other.nodes) or sorted(pairing) != list(range(n)):
            return False
        return all(self.le[i][j] == other.le[pairing[i]][pairing[j]]
                   for i in range(n) for j in range(n))

    def to_json(self):
        data = {"nodes": [{"label": fingerprint(k), "key": k}
                          for k in self.keys],
                "leq": [[int(v) for v in row] for row in self.le]}
        return json.dumps(data, sort_keys=True, separators=(",", ":"),
                          default=str)

    def to_dot(self, name="poset"):
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        for i, k in enumerate(self.keys):
            lines.append(f'  n{i} [label="{fingerprint(k)}"];')
        for i, j in self.covers():
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def s3_group():
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    return FiniteGroup([[perms.index(tuple(p[q[i]] for i in range(3)))
                         for q in perms] for p in perms], name="S3")


def _sort_key(s):
    return s.sort_key()


def _category_key(n):
    return (len(n), tuple(sorted(n)))


# (nodes, leq, key) for each poset under test
CASES = {
    "C2-4-all-systems": lambda: (
        enumerate_systems(C2, 4, "all").nodes, operator.le, _sort_key),
    "S3-6-unital-systems": lambda: (
        enumerate_systems(s3_group(), 6, "unital").nodes, operator.le,
        _sort_key),
    "C2xC2-transfer-systems": lambda: (
        enumerate_transfer_systems(direct_product(C2, C2)).nodes,
        operator.le, _sort_key),
    "C2-4-categories": lambda: (
        enumerate_categories(C2, 4).nodes, operator.le, _category_key),
    # not a lattice: 13 and 17 have no upper bound, 2 and 3 no lower one;
    # the key is not a linear extension of the order
    "divisibility-2-24": lambda: (
        range(2, 25), lambda a, b: b % a == 0, lambda x: (x % 7, x)),
    "empty": lambda: ([], operator.le, lambda x: x),
    "single": lambda: ([5], operator.le, lambda x: x),
}


def _random_masks():
    """A seeded family of 60 masks over 12 bits and the empty mask; it has
    several maximal members, so it is not a lattice."""
    rng = random.Random(7)
    return [0] + rng.sample(range(1, 1 << 12), 60)


def _identity(x):
    return x


# (nodes, mask, key) for each poset under test built by `Poset.by_inclusion`
INCLUSION_CASES = {
    "C2-4-all-systems": lambda: (
        enumerate_systems(C2, 4, "all").nodes, lambda s: s.mask, _sort_key),
    "S3-6-unital-systems": lambda: (
        enumerate_systems(s3_group(), 6, "unital").nodes, lambda s: s.mask,
        _sort_key),
    # the key is not a linear extension of the order
    "random-masks": lambda: (_random_masks(), _identity, lambda m: (m % 7, m)),
    "empty": lambda: ([], _identity, _identity),
}

PAIRS = {**{name: (False, build) for name, build in CASES.items()},
         **{f"by-inclusion-{name}": (True, build)
            for name, build in INCLUSION_CASES.items()}}


@pytest.fixture(params=list(PAIRS), scope="module")
def pair(request):
    """The poset under test, the reference built with the same order, and
    (nodes, leq, a builder of the poset under another key)."""
    by_inclusion, case = PAIRS[request.param]
    nodes, order, key = case()
    nodes = list(nodes)
    if by_inclusion:
        def leq(a, b):
            return not order(a) & ~order(b)

        def build(k):
            return Poset.by_inclusion(nodes, order, k)
    else:
        leq = order

        def build(k):
            return Poset(nodes, leq, k)
    return build(key), ReferencePoset(nodes, leq, key), (nodes, leq, build)


def test_order_queries_match_reference(pair):
    poset, ref, _ = pair
    assert poset.nodes == ref.nodes
    assert poset.covers() == ref.covers()
    assert poset.minimal() == ref.minimal()
    assert poset.maximal() == ref.maximal()


def test_exports_match_reference(pair):
    poset, ref, _ = pair
    assert poset.to_json() == ref.to_json()
    buf = io.StringIO()
    poset.write_json(buf)
    assert buf.getvalue() == ref.to_json()
    assert poset.to_dot("p") == ref.to_dot("p")


def test_isomorphism_matches_reference(pair):
    poset, ref, (nodes, leq, build) = pair
    n = len(nodes)
    # the same nodes under the reversed node order: a nontrivial pairing
    other = build(lambda x: (-poset.nodes.index(x),))
    other_ref = ReferencePoset(nodes, leq, lambda x: (-ref.nodes.index(x),))
    pairing = [n - 1 - i for i in range(n)]
    assert poset.is_isomorphic_via(other, pairing)
    assert ref.is_isomorphic_via(other_ref, pairing)
    for i, j in poset.covers()[:3] + [(0, n - 1)] * (n > 1):
        swapped = list(pairing)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert poset.is_isomorphic_via(other, swapped) == \
            ref.is_isomorphic_via(other_ref, swapped)
    if n:
        assert not poset.is_isomorphic_via(other, pairing[:-1])
        assert not poset.is_isomorphic_via(other, [0] * n) or n == 1


# -- down-set masks of a poset ordered by inclusion ---------------------------

def test_below_matches_reference(pair):
    poset, ref, _ = pair
    if poset.masks is None:
        with pytest.raises(ValidationError, match="by inclusion"):
            poset.below(0)
        return
    n = len(ref.nodes)
    for j, m in enumerate(poset.masks):
        expected = _mask(i for i in range(n) if ref.le[i][j])
        assert poset.below(m) == expected
        assert poset.below(m) == expected  # from the poset's memo
    assert poset.below(0) == _mask(i for i in range(n) if not poset.masks[i])


# group, cutoff, and the filter of further systems to query, whose masks
# need not be nodes of the almost-unital poset
BELOW_CASES = {
    "C2-6": (lambda: C2, 6, "all"),
    "C4-12": (lambda: cyclic_group(4), 12, None),
    "S3-6": (s3_group, 6, None),
    "C2xC2-8": (lambda: direct_product(C2, C2), 8, None),
}


@pytest.mark.parametrize("case", list(BELOW_CASES))
def test_below_matches_the_systems_order(case):
    group, cutoff, extra = BELOW_CASES[case]
    poset = enumerate_systems(group(), cutoff, "almost_unital")
    queries = list(poset.nodes)
    if extra:
        queries += enumerate_systems(group(), cutoff, extra).nodes
    outside = 0
    for s in queries:
        expected = _mask(k for k, node in enumerate(poset.nodes) if node <= s)
        assert poset.below(s.mask) == expected
        outside += s.mask not in poset.masks
    assert outside == (3692 - 9 if extra else 0)


# -- closure_lattice against the frontier search ------------------------------

def reference_closure_lattice(rules, core_seeds, candidates):
    """The former `closure_lattice`: close each candidate over the core into
    an atom, then join every frontier node with every atom until no new
    node appears."""
    core = close(rules, core_seeds)
    atoms = dict.fromkeys(close(rules, 1 << i, core)
                          for i in _bits(candidates & ~core))
    found = {core: None}
    frontier = [core]
    while frontier:
        new = []
        for x in frontier:
            for a in atoms:
                if not a & ~x:
                    continue
                j = close(rules, a, x)
                if j not in found:
                    found[j] = None
                    new.append(j)
        frontier = new
    return list(found)


def _map_class_args(cutoff, unital):
    ops = _ops_for(level_tables(C2, cutoff))
    return ops.rules, ops.core_mask(unital), (1 << len(ops.classes)) - 1


def _system_args(group, cutoff, unital):
    t = level_tables(group, cutoff)
    core_levels = range(t.n_sids) if unital else ()
    return t.rules, t.seed_mask(core_levels), (1 << len(t.bit_class)) - 1


# (rules, core seeds, candidates) and the node count
LATTICES = {
    "C2-4-map-classes-all": (lambda: _map_class_args(4, False), 108),
    "C2-4-map-classes-unital": (lambda: _map_class_args(4, True), 6),
    "C2-6-all": (lambda: _system_args(C2, 6, False), 3692),
    "C6-12-unital": (lambda: _system_args(cyclic_group(6), 12, True), 123),
    "S3-6-unital": (lambda: _system_args(s3_group(), 6, True), 102),
    "C2xC2-8-unital": (
        lambda: _system_args(direct_product(C2, C2), 8, True), 386),
}


@pytest.mark.parametrize("name", list(LATTICES))
def test_closure_lattice_matches_frontier_search(name):
    build, count = LATTICES[name]
    rules, core_seeds, candidates = build()
    got = closure_lattice(rules, core_seeds, candidates)
    ref = reference_closure_lattice(rules, core_seeds, candidates)
    assert len(got) == len(set(got)), "a node was found twice"
    assert set(got) == set(ref)
    assert got[0] == ref[0] == close(rules, core_seeds)
    assert len(got) == count


def test_closure_lattice_closes_less(monkeypatch):
    """Each node is kept once, and failed extensions are inherited: on the
    C2@4 map classes and C6@12 unital systems FCbO needs under a
    fifth of the frontier search's closures."""
    calls = []

    def counted(*args, real=close):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(equialg.poset, "close", counted)
    monkeypatch.setitem(globals(), "close", counted)
    for args in (_map_class_args(4, False),
                 _system_args(cyclic_group(6), 12, True)):
        del calls[:]
        reference_closure_lattice(*args)
        ref_calls = len(calls)
        del calls[:]
        closure_lattice(*args)
        assert len(calls) * 5 < ref_calls


@pytest.mark.parametrize("group", [
    s3_group(), direct_product(C2, C2), cyclic_group(6)],
    ids=["S3", "C2xC2", "C6"])
def test_conj_sid_table_matches_conjugation(group):
    t = level_tables(group, group.order)
    for g in group.elements:
        for sid in range(t.n_sids):
            moved = frozenset(group.conj(g, a) for a in t.members[sid])
            assert t.conj_sid[g][sid] == t.lat.index_of[moved]


# -- close and join against the closure they replaced -------------------------

def reference_close(rules, seeds, base=0):
    """The former `close`: `base` must be closed, and popping m applies m's
    pairs with every partner already in the set, so a pair whose members
    are both popped is applied twice."""
    closed = base
    todo = seeds & ~closed
    closed |= todo
    while todo:
        low = todo & -todo
        todo ^= low
        unary, partners, forced = rules[low.bit_length() - 1][:3]
        new = unary
        both = partners & closed
        while both:
            v = both & -both
            new |= forced[v]
            both ^= v
        new &= ~closed
        closed |= new
        todo |= new
    return closed


# every provider of rules: the classes of weak indexing systems, map
# classes, containment pairs of transfer systems and group elements
ENGINE_RULES = {
    "C2-6": lambda: level_tables(C2, 6).rules,
    "C4-12": lambda: level_tables(cyclic_group(4), 12).rules,
    "C6-12": lambda: level_tables(cyclic_group(6), 12).rules,
    "S3-12": lambda: level_tables(s3_group(), 12).rules,
    "C2xC2-8": lambda: level_tables(direct_product(C2, C2), 8).rules,
    "D8-8": lambda: level_tables(d8_group(), 8).rules,
    "Q8-8": lambda: level_tables(q8_group(), 8).rules,
    "C2-4-map-classes": lambda: _ops_for(level_tables(C2, 4)).rules,
    "C12-transfers": lambda: transfer_rules(cyclic_group(12)),
    "D8-transfers": lambda: transfer_rules(d8_group()),
    "D8-products": lambda: _product_rules(d8_group()),
    "Q8-products": lambda: _product_rules(q8_group()),
}


@pytest.mark.parametrize("name", list(ENGINE_RULES))
def test_close_matches_the_former_closure(name):
    """From nothing and over closed bases: closures of a few random
    elements, seeded with a few more."""
    rules = ENGINE_RULES[name]()
    rng = random.Random(name)
    n = len(rules)
    for _ in range(40):
        base = reference_close(rules, _mask(rng.sample(range(n),
                                                       rng.randint(0, 2))))
        seeds = _mask(rng.sample(range(n), rng.randint(1, 3)))
        assert close(rules, seeds) == reference_close(rules, seeds)
        assert close(rules, seeds, base) == reference_close(rules, seeds, base)


def _system_masks(group, cutoff, which):
    return [s.mask for s in enumerate_systems(group, cutoff, which)]


@pytest.mark.parametrize("group, cutoff, which", [
    (cyclic_group(6), 12, "unital"), (cyclic_group(6), 12, "almost_unital"),
    (s3_group(), 6, "unital"), (s3_group(), 6, "almost_unital")],
    ids=["C6-12-unital", "C6-12-almost_unital", "S3-6-unital",
         "S3-6-almost_unital"])
def test_join_matches_the_former_closure_on_every_pair(group, cutoff, which):
    rules = level_tables(group, cutoff).rules
    masks = _system_masks(group, cutoff, which)
    for k, a in enumerate(masks):
        for b in masks[k:]:
            expected = reference_close(rules, b, a)
            assert join(rules, a, b) == join(rules, b, a) == expected


# (rules, the closed masks to join) for sampled pairs
JOIN_SAMPLES = {
    "C2xC2-8-unital": lambda: (
        level_tables(direct_product(C2, C2), 8).rules,
        _system_masks(direct_product(C2, C2), 8, "unital")),
    "C4-12-almost_unital": lambda: (
        level_tables(cyclic_group(4), 12).rules,
        _system_masks(cyclic_group(4), 12, "almost_unital")),
    "S3-12-unital": lambda: (
        level_tables(s3_group(), 12).rules,
        _system_masks(s3_group(), 12, "unital")),
    "C2-4-map-classes": lambda: (
        _map_class_args(4, False)[0],
        closure_lattice(*_map_class_args(4, False))),
    "D8-transfers": lambda: (
        transfer_rules(d8_group()),
        closure_lattice(transfer_rules(d8_group()), 0,
                        (1 << len(transfer_rules(d8_group()))) - 1)),
    "Q8-subgroups": lambda: (
        _product_rules(q8_group()),
        closure_lattice(_product_rules(q8_group()), 1, (1 << 8) - 1)),
}


@pytest.mark.parametrize("name", list(JOIN_SAMPLES))
def test_join_matches_the_former_closure_on_sampled_pairs(name):
    rules, masks = JOIN_SAMPLES[name]()
    rng = random.Random(name)
    for _ in range(300):
        a, b = rng.choice(masks), rng.choice(masks)
        assert join(rules, a, b) == reference_close(rules, b, a)


def test_close_applies_a_pair_with_itself_and_multi_bit_masks():
    """0 with itself forces 1 and 2, 1 with 2 forces 3, 3 alone forces 4,
    and 4 with any of 0-3 forces both 5 and 6: the last is read from the
    targets side, since 4 has four done partners and two targets."""
    rules = rule_table([0, 0, 0, 1 << 4, 0, 0, 0], [
        (0, 0, 0b110), (1, 2, 1 << 3),
        *((4, j, 0b1100000) for j in range(4))])
    assert close(rules, 1) == reference_close(rules, 1) == 0b1111111
    assert close(rules, 0b10) == 0b10
    assert close(rules, 1 << 4, 0b1111) == 0b1111111
    assert join(rules, 0b10, 0b100) == 0b1111110
    assert join(rules, 0b10, 0b10) == 0b10
    assert join(rules, 0b1111111, 0) == 0b1111111
