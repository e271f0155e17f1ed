"""C_p-unital magmas, interchange, Eckmann-Hilton, semi-Mackey functors."""
import os
import subprocess
import sys
import textwrap
from itertools import groupby, permutations, product
from operator import itemgetter
from pathlib import Path

import pytest

import equialg
import equialg.magmas
from equialg import cyclic_group
from equialg.errors import (CheckReport, GuardExceededError,
                            TheoremViolation, ValidationError)
from equialg.gsets import GSet, GSetMap, Span, equivariant_maps
from equialg.magmas import (CoefficientSystem, CpUnitalMagma, InterchangePair,
                            SemiMackeyFunctor, canonical_pair_key,
                            check_interchange, eckmann_hilton,
                            enumerate_interchanging_pairs,
                            enumerate_semi_mackey, evaluate_span_endo,
                            is_homomorphism, nested_product,
                            pair_from_json, pair_homs, pair_of_semi_mackey,
                            pair_to_json, semi_mackey_check, semi_mackey_homs,
                            sweep, validate_magma)

Z2 = ((0, 1), (1, 0))
Z4 = tuple(tuple((a + b) % 4 for b in range(4)) for a in range(4))
Z3 = tuple(tuple((a + b) % 3 for b in range(3)) for a in range(3))

TRIV1 = CoefficientSystem(2, 1, [0], 1, [0])
BASE22 = CoefficientSystem(2, 2, [0, 1], 2, [0, 1])


def z2_magma(t):
    return CpUnitalMagma(BASE22, Z2, 0, Z2, 0, t)


def test_trivial_magma_valid():
    m = CpUnitalMagma(TRIV1, [[0]], 0, [[0]], 0, [0])
    assert validate_magma(m)


def test_z2_with_zero_transfer_valid():
    assert validate_magma(z2_magma([0, 0]))


def test_z2_with_identity_transfer_invalid():
    bad = CpUnitalMagma(BASE22, Z2, 0, Z2, 0, [0, 1], validate=False)
    rep = validate_magma(bad)
    assert not rep
    assert rep.axiom == "r-t-multiplication-by-p"
    assert rep.witness[0] == 1


def test_norm_axiom_toggle_diverges_only_on_nontrivial_action():
    # negation action on Z/4 at level e: the orbit product vanishes but the
    # square does not
    base = CoefficientSystem(2, 4, [0, 3, 2, 1], 2, [0, 2])
    m = CpUnitalMagma(base, Z4, 0, Z2, 0, [0, 1, 0, 1])
    assert validate_magma(m)  # literal: r(t(x)) = x + x
    assert not validate_magma(m, norm_axiom=True)  # norm: x + (-x) = 0
    # trivial action: the two readings agree on every candidate
    for t in product(range(2), repeat=2):
        if t[0] != 0:
            continue
        cand = CpUnitalMagma(BASE22, Z2, 0, Z2, 0, t, validate=False)
        assert bool(validate_magma(cand)) == bool(
            validate_magma(cand, norm_axiom=True))


def test_is_homomorphism_identity_and_constant():
    m = z2_magma([0, 0])
    assert is_homomorphism(((0, 1), (0, 1)), m, m)
    # the constant-unit map is a homomorphism onto the trivial magma
    triv = CpUnitalMagma(TRIV1, [[0]], 0, [[0]], 0, [0])
    assert is_homomorphism(((0, 0), (0, 0)), m, triv)


def test_is_homomorphism_detects_t_intertwining_failure():
    # two valid structures on the same carriers whose transfers differ:
    # the identity map fails exactly the t square
    base = CoefficientSystem(2, 2, [0, 1], 4, [0, 1, 0, 1])
    m = CpUnitalMagma(base, Z2, 0, Z4, 0, [0, 0])
    n = CpUnitalMagma(base, Z2, 0, Z4, 0, [0, 2])
    ident = (tuple(range(2)), tuple(range(4)))
    assert is_homomorphism(ident, m, m)
    assert not is_homomorphism(ident, m, n)


def test_hom_composition_closed():
    pairs = enumerate_interchanging_pairs(2, 2, 2)
    sample = pairs[:4]
    for a in sample:
        assert (tuple(range(a.base.size_e)), tuple(range(a.base.size_g))) \
            in pair_homs(a, a)
    for a in sample:
        for b in sample:
            for c in sample:
                for f in pair_homs(a, b):
                    for g in pair_homs(b, c):
                        comp = (tuple(g[0][x] for x in f[0]),
                                tuple(g[1][x] for x in f[1]))
                        assert comp in pair_homs(a, c)


def test_check_interchange_trivial_and_doubled():
    triv = CpUnitalMagma(TRIV1, [[0]], 0, [[0]], 0, [0])
    assert check_interchange(InterchangePair(triv, triv))
    m = z2_magma([0, 0])
    assert check_interchange(InterchangePair(m, m))


def test_check_interchange_finds_grid_witness():
    # additive and boolean-or level-G multiplications over a base with
    # r = 0 break the binary interchange grid
    base = CoefficientSystem(2, 2, [0, 1], 2, [0, 0])
    bool_or = ((0, 1), (1, 1))
    a = CpUnitalMagma(base, Z2, 0, Z2, 0, [0, 0])
    b = CpUnitalMagma(base, Z2, 0, bool_or, 0, [0, 0])
    rep = check_interchange(InterchangePair(a, b))
    assert not rep and rep.axiom == "binary-interchange-G"
    assert len(rep.witness) == 4


def _binary_interchange(mul1, mul2, n):
    return all(mul2[mul1[a][x]][mul1[y][z]] == mul1[mul2[a][y]][mul2[x][z]]
               for a, x, y, z in product(range(n), repeat=4))


def _grid_interchange(mul1, mul2, n, p):
    """The p×p grid law `check_interchange` does not run: on every grid
    over 0..n-1, the mul2 product of the mul1 row products equals the mul1
    product of the mul2 column products."""
    for grid in product(range(n), repeat=p * p):
        rows = [grid[i * p:(i + 1) * p] for i in range(p)]
        cols = [grid[i::p] for i in range(p)]
        lhs = nested_product(mul2, [nested_product(mul1, r) for r in rows])
        rhs = nested_product(mul1, [nested_product(mul2, c) for c in cols])
        if lhs != rhs:
            return False
    return True


def _assert_grid_law_is_implied(pairs, norm_axiom=False):
    """On each pair: binary interchange implies the grid law at both
    levels, so `check_interchange` agrees with `check_interchange` and the
    grid law together.  Returns the number of distinct (mul1, mul2)
    level-table pairs and how many of them pass binary interchange."""
    p = pairs[0].base.p
    binary, grid = {}, {}
    for pair in pairs:
        levels = [(pair.star.mul_e, pair.bullet.mul_e, pair.base.size_e),
                  (pair.star.mul_g, pair.bullet.mul_g, pair.base.size_g)]
        for mul1, mul2, n in levels:
            if (mul1, mul2) not in binary:
                binary[mul1, mul2] = _binary_interchange(mul1, mul2, n)
                if binary[mul1, mul2]:
                    grid[mul1, mul2] = _grid_interchange(mul1, mul2, n, p)
                    assert grid[mul1, mul2], (mul1, mul2)
        # a pair passing check_interchange has binary interchange at both
        # levels, so its grid verdicts are known
        ok = bool(check_interchange(pair, norm_axiom=norm_axiom))
        assert ok == (ok and all(grid[m1, m2] for m1, m2, _ in levels))
    return len(binary), len(grid)


def test_binary_interchange_implies_grid_law_on_all_2_element_tables():
    # all 16 tables on {0, 1}, unital or not, paired at level e over a
    # trivial level G
    base = CoefficientSystem(3, 2, [0, 1], 1, [0])
    tables = [((a, b), (c, d)) for a, b, c, d in product(range(2), repeat=4)]
    pairs = [InterchangePair(
        CpUnitalMagma(base, mul1, 0, [[0]], 0, [0, 0], validate=False),
        CpUnitalMagma(base, mul2, 0, [[0]], 0, [0, 0], validate=False))
        for mul1 in tables for mul2 in tables]
    # 256 pairs at level e plus the one trivial pair at level G
    assert _assert_grid_law_is_implied(pairs) == (257, 91)


def _transposed_candidate_pairs(p, max_e, max_g, norm_axiom=False):
    """The pairs generate-and-test sends to `check_interchange`: over each
    base of `_candidates`, every magma passing the full `validate_magma`
    with each one whose tables are its transposes, in all-pairs order."""
    out = []
    for base, group in groupby(equialg.magmas._candidates(p, max_e, max_g),
                               itemgetter(0)):
        valid = []
        for _, mul_e, mul_g, t in group:
            m = CpUnitalMagma(base, mul_e, 0, mul_g, 0, t, validate=False)
            if validate_magma(m, norm_axiom=norm_axiom):
                valid.append(m)
        by_tables = {}
        for m in valid:
            by_tables.setdefault((m.mul_e, m.mul_g), []).append(m)
        for m1 in valid:
            out.extend(InterchangePair(m1, m2) for m2 in by_tables.get(
                (tuple(zip(*m1.mul_e)), tuple(zip(*m1.mul_g))), ()))
    return out


def _record_check_interchange(monkeypatch):
    """Route `equialg.magmas.check_interchange` through a recorder; returns
    the list the pairs it is called on go to."""
    sent = []

    def recording(pair, norm_axiom=False):
        sent.append(pair)
        return check_interchange(pair, norm_axiom=norm_axiom)

    monkeypatch.setattr(equialg.magmas, "check_interchange", recording)
    return sent


@pytest.mark.parametrize("norm_axiom", [False, True])
def test_binary_interchange_implies_grid_law_on_p3_sweep_pairs(
        monkeypatch, norm_axiom):
    """Every transposed pair of valid magmas at p = 3 in (3,2), (2,3) and
    (3,3), each of which generate-and-test checks, and the pairs the sweep
    sends to `check_interchange`: those whose tables interchange."""
    boxes = [(3, 3, 2), (3, 2, 3), (3, 3, 3)]
    checked = [pair for box in boxes
               for pair in _transposed_candidate_pairs(*box, norm_axiom)]
    assert len(checked) == 514
    # 84 distinct level-table pairs, 12 of them with binary interchange
    assert _assert_grid_law_is_implied(checked, norm_axiom) == (84, 12)
    sent = _record_check_interchange(monkeypatch)
    for box in boxes:
        enumerate_interchanging_pairs(*box, norm_axiom=norm_axiom)
    assert len(sent) == 154


def test_check_interchange_needs_shared_units():
    """Min on {0, 1} (unit 1) against Z2 (unit 0): two valid magmas with
    different units."""
    low = ((0, 0), (0, 1))
    star = CpUnitalMagma(BASE22, low, 1, low, 1, [0, 1])
    rep = check_interchange(InterchangePair(star, z2_magma([0, 0])))
    assert not rep and rep.axiom == "shared-unit" and rep.witness == ()


@pytest.mark.parametrize("star_t, bullet_t, axiom", [
    ([1, 1], [1, 1], "t-bullet-star-homomorphism"),
    ([1, 1], [0, 1], "t-star-bullet-homomorphism")],
    ids=["bullet-t", "star-t"])
def test_check_interchange_names_a_transfer_that_is_no_homomorphism(
        star_t, bullet_t, axiom):
    """Z2 at both levels for both structures, so the units are shared and
    binary interchange holds; a transfer that is no homomorphism fails.
    A valid magma's transfer is multiplicative and, by Eckmann-Hilton,
    the two products agree, so only structures built with
    `validate=False` reach these two checks."""
    star, bullet = (CpUnitalMagma(BASE22, Z2, 0, Z2, 0, t, validate=False)
                    for t in (star_t, bullet_t))
    rep = check_interchange(InterchangePair(star, bullet))
    assert not rep and rep.axiom == axiom and rep.witness == (0, 0)


def test_check_interchange_couples_the_transfers():
    base = CoefficientSystem(2, 2, [0, 1], 4, [0, 1, 0, 1])
    star = CpUnitalMagma(base, Z2, 0, Z4, 0, [0, 0])
    bullet = CpUnitalMagma(base, Z2, 0, Z4, 0, [0, 2])
    assert validate_magma(star) and validate_magma(bullet)
    rep = check_interchange(InterchangePair(star, bullet))
    assert not rep and rep.axiom == "transfer-interchange"


def test_eckmann_hilton_trivial_and_z2():
    triv = CpUnitalMagma(TRIV1, [[0]], 0, [[0]], 0, [0])
    sm = eckmann_hilton(InterchangePair(triv, triv))
    assert sm.base.size_e == 1
    m = z2_magma([0, 0])
    sm = eckmann_hilton(InterchangePair(m, m))
    assert sm.t == (0, 0)
    assert all(sm.base.r[sm.t[x]] == sm.mul_e[x][x] for x in range(2))


def test_eckmann_hilton_rejects_broken_precondition():
    base = CoefficientSystem(2, 2, [0, 1], 4, [0, 1, 0, 1])
    star = CpUnitalMagma(base, Z2, 0, Z4, 0, [0, 0])
    bullet = CpUnitalMagma(base, Z2, 0, Z4, 0, [0, 2])
    with pytest.raises(ValidationError):
        eckmann_hilton(InterchangePair(star, bullet))


def test_sweep_sizes_2_all_pass_and_count_matches():
    pairs = enumerate_interchanging_pairs(2, 2, 2)
    assert len(pairs) == 9
    for p in pairs:
        eckmann_hilton(p)
    sms = enumerate_semi_mackey(2, 2, 2)
    assert len(sms) == len(pairs)
    assert sorted(canonical_pair_key(pair_of_semi_mackey(s)) for s in sms) == \
        sorted(canonical_pair_key(p) for p in pairs)


def test_sweep_bounds_1_1_and_2_1():
    assert len(enumerate_interchanging_pairs(2, 1, 1)) == 1
    pairs = enumerate_interchanging_pairs(2, 2, 1)
    assert len(pairs) == len(enumerate_semi_mackey(2, 2, 1)) == 2


def test_round_trip_both_directions():
    for s in enumerate_semi_mackey(2, 2, 2):
        back = eckmann_hilton(pair_of_semi_mackey(s), norm_axiom=True)
        assert back.key() == s.key()
    for p in enumerate_interchanging_pairs(2, 2, 2):
        sm = eckmann_hilton(p)
        again = pair_of_semi_mackey(sm)
        assert canonical_pair_key(again) == canonical_pair_key(p)


def test_hom_sets_biject_through_the_equivalence():
    pairs = enumerate_interchanging_pairs(2, 2, 2)
    sms = [eckmann_hilton(p) for p in pairs]
    for a, sa in zip(pairs, sms):
        for b, sb in zip(pairs, sms):
            assert sorted(pair_homs(a, b)) == sorted(semi_mackey_homs(sa, sb))


def test_semi_mackey_check_examples():
    triv = SemiMackeyFunctor(TRIV1, [[0]], 0, [[0]], 0, [0])
    assert semi_mackey_check(triv)
    # fixed-point functor of Z/3 under + with p = 3: r(t(x)) = 3x = 0
    b3 = CoefficientSystem(3, 3, [0, 1, 2], 3, [0, 1, 2])
    sm = SemiMackeyFunctor(b3, Z3, 0, Z3, 0, [0, 0, 0])
    assert semi_mackey_check(sm)
    bad = SemiMackeyFunctor(BASE22, Z2, 0, Z2, 0, [0, 1], validate=False)
    rep = semi_mackey_check(bad)
    assert not rep and rep.axiom == "double-coset-law"


MAX3 = tuple(tuple(max(a, b) for b in range(3)) for a in range(3))
MAX2 = ((0, 1), (1, 1))

# the seven axioms `validate_magma` and `semi_mackey_check` share, stated
# literally on (structure, base)
SHARED_AXIOMS = {
    "action-unital": lambda s, b: b.sigma[s.unit_e] == s.unit_e,
    "action-multiplicative": lambda s, b: all(
        b.sigma[s.mul_e[x][y]] == s.mul_e[b.sigma[x]][b.sigma[y]]
        for x, y in product(range(b.size_e), repeat=2)),
    "r-unital": lambda s, b: b.r[s.unit_g] == s.unit_e,
    "r-multiplicative": lambda s, b: all(
        b.r[s.mul_g[x][y]] == s.mul_e[b.r[x]][b.r[y]]
        for x, y in product(range(b.size_g), repeat=2)),
    "t-unital": lambda s, b: s.t[s.unit_e] == s.unit_g,
    "t-multiplicative": lambda s, b: all(
        s.t[s.mul_e[x][y]] == s.mul_g[s.t[x]][s.t[y]]
        for x, y in product(range(b.size_e), repeat=2)),
    "t-equivariant": lambda s, b: all(
        s.t[b.sigma[x]] == s.t[x] for x in range(b.size_e)),
}

# (axiom, base, mul_e, mul_g, t): commutative monoids with unit 0 at both
# levels that break that shared axiom and no other one, save that an
# action moving the unit is not multiplicative and misses the fixed
# points r lands in
BREAKS_ONE_SHARED_AXIOM = [
    ("action-unital", CoefficientSystem(2, 3, [1, 0, 2], 1, [2]),
     MAX3, ((0,),), (0, 0, 0)),
    ("action-multiplicative", CoefficientSystem(2, 3, [0, 2, 1], 1, [0]),
     MAX3, ((0,),), (0, 0, 0)),
    ("r-unital", CoefficientSystem(2, 2, [0, 1], 1, [1]),
     MAX2, ((0,),), (0, 0)),
    ("r-multiplicative", CoefficientSystem(2, 2, [0, 1], 2, [0, 1]),
     Z2, MAX2, (0, 0)),
    ("t-unital", CoefficientSystem(2, 1, [0], 2, [0, 0]),
     ((0,),), MAX2, (1,)),
    ("t-multiplicative", CoefficientSystem(2, 2, [0, 1], 2, [0, 0]),
     MAX2, Z2, (0, 1)),
    ("t-equivariant", CoefficientSystem(2, 3, [0, 2, 1], 3, [0, 0, 0]),
     Z3, Z3, (0, 1, 2)),
]


@pytest.mark.parametrize("axiom, base, mul_e, mul_g, t",
                         BREAKS_ONE_SHARED_AXIOM,
                         ids=[case[0] for case in BREAKS_ONE_SHARED_AXIOM])
def test_both_full_checks_name_the_broken_shared_axiom(axiom, base, mul_e,
                                                       mul_g, t):
    """Both full checks report a broken shared axiom under one name, with
    one witness."""
    m = CpUnitalMagma(base, mul_e, 0, mul_g, 0, t, validate=False)
    sm = SemiMackeyFunctor(base, mul_e, 0, mul_g, 0, t, validate=False)
    broken = {name for name, holds in SHARED_AXIOMS.items()
              if not holds(m, base)}
    if axiom == "action-unital":
        assert broken == {axiom, "action-multiplicative", "r-unital"}
    else:
        assert broken == {axiom}
    for level in (mul_e, mul_g):
        n = len(level)
        assert all(level[x][y] == level[y][x] and
                   level[level[x][y]][z] == level[x][level[y][z]]
                   for x, y, z in product(range(n), repeat=3))
    rep_m, rep_sm = validate_magma(m), semi_mackey_check(sm)
    assert not rep_m and not rep_sm
    assert rep_m.axiom == rep_sm.axiom == axiom
    assert rep_m.witness == rep_sm.witness


def test_semi_mackey_span_path_agrees_with_direct_formula():
    # included in semi_mackey_check; exercise a nontrivial action explicitly
    base = CoefficientSystem(2, 3, [0, 2, 1], 2, [0, 0])
    sm = SemiMackeyFunctor(base, Z3, 0, Z2, 0, [0, 0, 0])
    assert semi_mackey_check(sm)


def reference_evaluate_span_endo(sm, span, free):
    """`evaluate_span_endo` with its transport: the least g carrying the
    base point to an image, found by a scan of the group per image."""
    base, p = sm.base, sm.base.p
    base_point = free.orbits()[0][0]

    def transport(img):
        return min(g for g in range(p) if free.act[g][base_point] == img)

    moves = [(transport(span.left.on_points[orbit[0]]),
              (-transport(span.right.on_points[orbit[0]])) % p)
             for orbit in span.apex.orbits()]

    def run(v):
        out = sm.unit_e
        for a, b in moves:
            out = sm.mul_e[out][base.act(b, base.act(a, v))]
        return out

    return run


@pytest.mark.parametrize("p", [2, 3])
def test_span_evaluation_matches_the_transport_scan(p):
    """Every span from the free orbit to itself whose apex is two free
    orbits (legs: every pair of equivariant maps), and the composite of
    transfer and restriction, on every functor of the (3,3) box."""
    free = GSet.regular(cyclic_group(p))
    apex = free + free
    legs = list(equivariant_maps(apex, free))
    spans = [Span(a, b) for a in legs for b in legs]
    spans.append(equialg.magmas._span_rt_composite(p)[0])
    functors = enumerate_semi_mackey(p, 3, 3)
    assert len(spans) == p ** 4 + 1 and functors
    for sm in functors:
        for span in spans:
            got = evaluate_span_endo(sm, span, free)
            ref = reference_evaluate_span_endo(sm, span, free)
            assert [got(v) for v in range(sm.base.size_e)] == \
                [ref(v) for v in range(sm.base.size_e)]


def test_fixed_point_functor_of_commutative_monoid():
    # both levels N = Z/2, trivial action, r = id, t(x) = x^p
    m = z2_magma([0, 0])
    sm = eckmann_hilton(InterchangePair(m, m))
    pair = pair_of_semi_mackey(sm)
    assert validate_magma(pair.star) and validate_magma(pair.bullet)


def test_norm_reading_sweep_matches_semi_mackey_at_size_3():
    lit = enumerate_interchanging_pairs(2, 3, 2)
    nrm = enumerate_interchanging_pairs(2, 3, 2, norm_axiom=True)
    sms = enumerate_semi_mackey(2, 3, 2)
    assert sorted(canonical_pair_key(p) for p in nrm) == \
        sorted(canonical_pair_key(pair_of_semi_mackey(s)) for s in sms)
    trivial_action = [s for s in sms
                      if s.base.sigma == tuple(range(s.base.size_e))]
    assert len(lit) == len(trivial_action)
    for p in lit:
        eckmann_hilton(p)
    for p in nrm:
        eckmann_hilton(p, norm_axiom=True)


def _brute_force_sweeps(p, max_e, max_g):
    """The generate-and-test sweeps the pruned ones replace: the full
    product of bases, unital tables and transfers, the full checks on each
    candidate, and `check_interchange` on every pair of valid magmas over
    one base.  Returns the `key()` lists of the pairs under the literal and
    the orbit-product reading and of the functors, each in sweep order."""
    def unital_tables(n):
        for fill in product(range(n), repeat=(n - 1) ** 2):
            cells = iter(fill)
            yield tuple(tuple(j if i == 0 else i if j == 0 else next(cells)
                              for j in range(n)) for i in range(n))

    def order_divides_p(sigma):
        x = list(range(len(sigma)))
        for _ in range(p):
            x = [sigma[i] for i in x]
        return x == list(range(len(sigma)))

    valid = {False: {}, True: {}}
    functors = {}
    for ne in range(1, max_e + 1):
        for ng in range(1, max_g + 1):
            for sigma in permutations(range(ne)):
                if sigma[0] != 0 or not order_divides_p(sigma):
                    continue
                fixed = [x for x in range(ne) if sigma[x] == x]
                for r in product(fixed, repeat=ng - 1):
                    base = CoefficientSystem(p, ne, sigma, ng, (0,) + r)
                    for mul_e in unital_tables(ne):
                        for mul_g in unital_tables(ng):
                            for t in product(range(ng), repeat=ne - 1):
                                t = (0,) + t
                                m = CpUnitalMagma(base, mul_e, 0, mul_g, 0, t,
                                                  validate=False)
                                for norm_axiom in (False, True):
                                    if validate_magma(m, norm_axiom=norm_axiom):
                                        valid[norm_axiom].setdefault(
                                            base, []).append(m)
                                sm = SemiMackeyFunctor(base, mul_e, 0, mul_g,
                                                       0, t, validate=False)
                                if semi_mackey_check(sm):
                                    functors.setdefault(canonical_pair_key(
                                        pair_of_semi_mackey(sm)), sm)
    out = []
    for norm_axiom in (False, True):
        found = {}
        for magmas in valid[norm_axiom].values():
            for m1 in magmas:
                for m2 in magmas:
                    pair = InterchangePair(m1, m2)
                    if check_interchange(pair, norm_axiom=norm_axiom):
                        found.setdefault(canonical_pair_key(pair), pair)
        out.append([found[k].key() for k in sorted(found)])
    out.append([functors[k].key() for k in sorted(functors)])
    return out


@pytest.mark.parametrize("box", [
    (p, e, g) for p in (2, 3) for e in (1, 2) for g in (1, 2)]
    + [(2, 3, 2), (2, 2, 3), (2, 3, 3)],
    ids=lambda box: "p{}-{}x{}".format(*box))
def test_pruned_sweeps_equal_brute_force(box):
    literal, orbit_product, functors = _brute_force_sweeps(*box)
    assert [q.key() for q in enumerate_interchanging_pairs(*box)] == literal
    assert [q.key() for q in enumerate_interchanging_pairs(
        *box, norm_axiom=True)] == orbit_product
    assert [s.key() for s in enumerate_semi_mackey(*box)] == functors
    assert literal and functors


def _four_axiom_candidates(p, max_e, max_g):
    """The candidate stream pruned on the four axioms both full checks share
    and nothing else: action-multiplicativity, r-multiplicativity,
    t-equivariance and t-multiplicativity, in the order of `_candidates`."""
    def unital_tables(n):
        for fill in product(range(n), repeat=(n - 1) ** 2):
            cells = iter(fill)
            yield tuple(tuple(j if i == 0 else i if j == 0 else next(cells)
                              for j in range(n)) for i in range(n))

    for ne in range(1, max_e + 1):
        for ng in range(1, max_g + 1):
            for sigma in permutations(range(ne)):
                x = list(range(ne))
                for _ in range(p):
                    x = [sigma[i] for i in x]
                if sigma[0] != 0 or x != list(range(ne)):
                    continue
                fixed = [x for x in range(ne) if sigma[x] == x]
                ts = [t for t in product(range(ng), repeat=ne)
                      if t[0] == 0 and all(t[sigma[x]] == t[x]
                                           for x in range(ne))]
                for rest in product(fixed, repeat=ng - 1):
                    r = (0,) + rest
                    base = CoefficientSystem(p, ne, sigma, ng, r)
                    for mul_e in unital_tables(ne):
                        if any(sigma[mul_e[x][y]] != mul_e[sigma[x]][sigma[y]]
                               for x in range(ne) for y in range(ne)):
                            continue
                        for mul_g in unital_tables(ng):
                            if any(r[mul_g[x][y]] != mul_e[r[x]][r[y]]
                                   for x in range(ng) for y in range(ng)):
                                continue
                            for t in ts:
                                if all(t[mul_e[x][y]] == mul_g[t[x]][t[y]]
                                       for x in range(ne) for y in range(ne)):
                                    yield base, mul_e, mul_g, t


@pytest.mark.parametrize("box, kept, total", [
    ((2, 3, 3), 2746, 12795), ((3, 3, 2), 12, 427), ((3, 2, 3), 112, 427),
    ((3, 3, 3), 400, 11764)], ids=["p2-3x3", "p3-3x2", "p3-2x3", "p3-3x3"])
def test_rt_prune_drops_only_what_every_full_check_rejects(box, kept, total):
    """Past the boxes the brute-force gate reaches: the r∘t prune keeps an
    ordered subsequence of the four-axiom stream, leaves the candidates
    over a non-trivial action alone, and every candidate it drops fails
    `validate_magma` under both readings and `semi_mackey_check`."""
    reference = list(_four_axiom_candidates(*box))
    pruned = list(equialg.magmas._candidates(*box))
    assert (len(pruned), len(reference)) == (kept, total)
    dropped = []
    it = iter(pruned)
    nxt = next(it, None)
    for cand in reference:
        if cand == nxt:
            nxt = next(it, None)
        else:
            dropped.append(cand)
    assert nxt is None and len(dropped) == total - kept

    def nontrivial(cands):
        return [c for c in cands if c[0].sigma != tuple(range(c[0].size_e))]
    assert nontrivial(pruned) == nontrivial(reference)
    for base, mul_e, mul_g, t in dropped:
        m = CpUnitalMagma(base, mul_e, 0, mul_g, 0, t, validate=False)
        assert not validate_magma(m) and not validate_magma(m, norm_axiom=True)
        sm = SemiMackeyFunctor(base, mul_e, 0, mul_g, 0, t, validate=False)
        assert not semi_mackey_check(sm)


def _reference_interchanging_pairs(p, max_e, max_g, norm_axiom=False):
    """The pair sweep as its own walk of `_candidates`, with the full
    `validate_magma` on every candidate and `check_interchange` on every
    transposed pair: `sweep`'s pair half must equal it."""
    found = {}
    for pair in _transposed_candidate_pairs(p, max_e, max_g, norm_axiom):
        if check_interchange(pair, norm_axiom=norm_axiom):
            found.setdefault(canonical_pair_key(pair), pair)
    return [found[k] for k in sorted(found)]


def _reference_semi_mackey(p, max_e, max_g):
    """The functor sweep as its own walk of `_candidates`, with
    `semi_mackey_check` on every candidate: `sweep`'s functor half must
    equal it."""
    found = {}
    for base, mul_e, mul_g, t in equialg.magmas._candidates(p, max_e, max_g):
        sm = SemiMackeyFunctor(base, mul_e, 0, mul_g, 0, t, validate=False)
        if semi_mackey_check(sm):
            found.setdefault(canonical_pair_key(pair_of_semi_mackey(sm)), sm)
    return [found[k] for k in sorted(found)]


SWEEP_BOXES = [(p, e, g) for p in (2, 3)
               for e, g in [(1, 1), (2, 2), (3, 2), (2, 3), (3, 3)]]


@pytest.mark.parametrize("norm_axiom", [False, True])
@pytest.mark.parametrize("box", SWEEP_BOXES,
                         ids=lambda box: "p{}-{}x{}".format(*box))
def test_one_walk_halves_equal_the_separate_sweeps(box, norm_axiom):
    pairs, functors = sweep(*box, norm_axiom=norm_axiom)
    assert [pairs[k].key() for k in sorted(pairs)] == \
        [q.key() for q in _reference_interchanging_pairs(*box, norm_axiom)]
    assert [functors[k].key() for k in sorted(functors)] == \
        [s.key() for s in _reference_semi_mackey(*box)]
    assert sorted(pairs) == [canonical_pair_key(q) for q in
                             enumerate_interchanging_pairs(*box, norm_axiom)]
    assert sorted(functors) == [canonical_pair_key(pair_of_semi_mackey(s))
                                for s in enumerate_semi_mackey(*box)]


@pytest.mark.parametrize("p, norm_axiom, transposed, sent", [
    (2, False, 2916, 209), (2, True, 2916, 221), (3, False, 382, 114),
    (3, True, 382, 114)], ids=["p2", "p2-norm", "p3", "p3-norm"])
def test_table_memo_sends_exactly_the_pairs_binary_interchange_passes(
        monkeypatch, p, norm_axiom, transposed, sent):
    """Every transposed candidate pair at (3,3): the sweep sends a pair to
    `check_interchange`, in generate-and-test order, exactly when that check
    reports no binary-interchange failure on it, so the sweep's per-table
    verdict is the check's own."""
    pairs = _transposed_candidate_pairs(p, 3, 3, norm_axiom)
    expected = [pair.key() for pair in pairs
                if not check_interchange(pair, norm_axiom=norm_axiom)
                .axiom.startswith("binary-interchange-")]
    recorded = _record_check_interchange(monkeypatch)
    sweep(p, 3, 3, norm_axiom=norm_axiom)
    assert [pair.key() for pair in recorded] == expected
    assert (len(pairs), len(expected)) == (transposed, sent)


# transposed candidate pairs of the p = 2 (3,3) box that fail binary
# interchange, one per level, with the report `check_interchange` gives
BINARY_FAILURES = [
    (CoefficientSystem(2, 3, [0, 1, 2], 1, [0]),
     ((0, 1, 2), (1, 0, 0), (2, 1, 0)), ((0,),), (0, 0, 0),
     "binary-interchange-e", (0, 1, 1, 2)),
    (CoefficientSystem(2, 1, [0], 3, [0, 0, 0]),
     ((0,),), ((0, 1, 2), (1, 0, 0), (2, 0, 0)), (0,),
     "binary-interchange-G", (0, 1, 2, 1)),
]


@pytest.mark.parametrize("base, mul_e, mul_g, t, axiom, witness",
                         BINARY_FAILURES, ids=["level-e", "level-G"])
def test_check_interchange_reports_binary_failure_unchanged(
        base, mul_e, mul_g, t, axiom, witness):
    star = CpUnitalMagma(base, mul_e, 0, mul_g, 0, t)
    bullet = CpUnitalMagma(base, tuple(zip(*mul_e)), 0, tuple(zip(*mul_g)),
                           0, t)
    for norm_axiom in (False, True):
        rep = check_interchange(InterchangePair(star, bullet), norm_axiom)
        assert not rep
        assert (rep.axiom, rep.witness) == (axiom, witness)


NONCOMMUTATIVE3 = ((0, 1, 2), (1, 0, 1), (2, 2, 0))


@pytest.mark.parametrize("box, liar, norm_axiom", [
    ((2, 2, 2), Z2, False), ((2, 2, 2), Z2, True),
    ((2, 3, 1), NONCOMMUTATIVE3, False)], ids=["Z2", "Z2-norm", "noncomm"])
def test_sweep_checks_classical_eckmann_hilton_on_every_table(
        monkeypatch, box, liar, norm_axiom):
    """A unit-0 table interchanges with its transpose exactly when it is a
    commutative monoid; a commutative-monoid check that lies on one table
    of the stream makes the sweep raise, with p, box, reading and table."""
    honest = equialg.magmas._is_commutative_monoid
    assert any(liar in (mul_e, mul_g)
               for _, mul_e, mul_g, _ in equialg.magmas._candidates(*box))
    monkeypatch.setattr(equialg.magmas, "_is_commutative_monoid",
                        lambda mul: honest(mul) != (mul == liar))
    with pytest.raises(TheoremViolation) as exc:
        sweep(*box, norm_axiom=norm_axiom)
    reading = "orbit-product" if norm_axiom else "literal"
    assert exc.value.witness == (box[0], box[1:], reading, liar)


@pytest.mark.parametrize("box, candidates, checked", [
    ((2, 3, 3), 2746, 163), ((3, 3, 3), 400, 88)], ids=["p2-3x3", "p3-3x3"])
def test_monoid_prefilter_skips_only_what_semi_mackey_check_rejects(
        monkeypatch, box, candidates, checked):
    """The functor half sends to `semi_mackey_check` an ordered
    subsequence of the stream, and every candidate it skips fails that
    check."""
    seen = []

    def recording(sm):
        seen.append((sm.base, sm.mul_e, sm.mul_g, sm.t))
        return semi_mackey_check(sm)

    monkeypatch.setattr(equialg.magmas, "semi_mackey_check", recording)
    sweep(*box)
    monkeypatch.undo()
    stream = list(equialg.magmas._candidates(*box))
    assert (len(stream), len(seen)) == (candidates, checked)
    it = iter(seen)
    nxt = next(it, None)
    for base, mul_e, mul_g, t in stream:
        if (base, mul_e, mul_g, t) == nxt:
            nxt = next(it, None)
        else:
            sm = SemiMackeyFunctor(base, mul_e, 0, mul_g, 0, t, validate=False)
            assert not semi_mackey_check(sm)
    assert nxt is None


@pytest.mark.parametrize("box", [(2, 3, 3), (3, 3, 3)],
                         ids=["p2-3x3", "p3-3x3"])
def test_trusted_candidates_equal_validated_construction(box):
    for base, mul_e, mul_g, t in equialg.magmas._candidates(*box):
        for cls in (CpUnitalMagma, SemiMackeyFunctor):
            trusted = cls._trusted(base, mul_e, mul_g, t)
            built = cls(base, mul_e, 0, mul_g, 0, t, validate=False)
            assert type(trusted) is cls
            assert trusted.key() == built.key()


def test_p3_functor_sweep_at_3x3_round_trips():
    sms = enumerate_semi_mackey(3, 3, 3)
    assert len(sms) == 38
    for s in sms:
        back = eckmann_hilton(pair_of_semi_mackey(s), norm_axiom=True)
        assert back.key() == s.key()


def test_sweep_guard():
    # one guard for both sweeps; at size 5 a sweep would visit 5^16 tables
    for sweep in (enumerate_interchanging_pairs, enumerate_semi_mackey):
        for bounds in [(2, 5, 5), (2, 5, 1), (2, 1, 5), (5, 2, 2), (5, 1, 1)]:
            with pytest.raises(GuardExceededError):
                sweep(*bounds)
        for p in (1, 4):
            with pytest.raises(ValidationError):
                sweep(p, 1, 1)


def _reference_canonical_key(pair, norm_axiom):
    """Least key over relabeled pairs built by the validating constructors."""
    b = pair.base
    best = None
    for pe in [(0,) + q for q in permutations(range(1, b.size_e))]:
        for pg in [(0,) + q for q in permutations(range(1, b.size_g))]:
            ie = [pe.index(i) for i in range(b.size_e)]
            ig = [pg.index(i) for i in range(b.size_g)]
            base = CoefficientSystem(b.p, b.size_e, [pe[b.sigma[j]] for j in ie],
                                     b.size_g, [pe[b.r[j]] for j in ig])
            star, bullet = [CpUnitalMagma(
                base, [[pe[m.mul_e[i][j]] for j in ie] for i in ie],
                pe[m.unit_e], [[pg[m.mul_g[i][j]] for j in ig] for i in ig],
                pg[m.unit_g], [pg[m.t[j]] for j in ie], norm_axiom=norm_axiom)
                for m in (pair.star, pair.bullet)]
            key = InterchangePair(star, bullet).key()
            if best is None or key < best:
                best = key
    return best


@pytest.mark.parametrize("norm_axiom", [False, True])
def test_canonical_pair_key_matches_relabeling_reference(norm_axiom):
    pairs = enumerate_interchanging_pairs(2, 3, 2, norm_axiom=norm_axiom)
    # a pair whose two structures differ, on carriers with 3! relabelings
    base = CoefficientSystem(2, 2, [0, 1], 4, [0, 1, 0, 1])
    pairs.append(InterchangePair(CpUnitalMagma(base, Z2, 0, Z4, 0, [0, 0]),
                                 CpUnitalMagma(base, Z2, 0, Z4, 0, [0, 2])))
    for pair in pairs:
        assert canonical_pair_key(pair) == \
            _reference_canonical_key(pair, norm_axiom)


def test_eckmann_hilton_violation_carries_failing_report(monkeypatch):
    failing = CheckReport(False, "synthetic", (0,))
    monkeypatch.setattr(equialg.magmas, "semi_mackey_check",
                        lambda sm: failing)
    m = z2_magma([0, 0])
    with pytest.raises(TheoremViolation) as exc:
        eckmann_hilton(InterchangePair(m, m))
    assert exc.value.witness is failing


def _span_with_fixed_apex_orbit():
    """Transfer composed with restriction on C2, plus one fixed apex point
    sent to a fixed point on either side."""
    c2 = cyclic_group(2)
    free, point = GSet.regular(c2), GSet.trivial(c2)
    apex, ends = free + free + point, free + point
    return Span(GSetMap(apex, ends, [0, 1, 1, 0, 2]),
                GSetMap(apex, ends, [0, 1, 0, 1, 2])), free


def test_span_path_rejects_a_non_free_apex():
    span, free = _span_with_fixed_apex_orbit()
    sm = SemiMackeyFunctor(BASE22, Z2, 0, Z2, 0, [0, 0])
    with pytest.raises(TheoremViolation) as exc:
        evaluate_span_endo(sm, span, free)
    assert exc.value.witness == (2, [4], 1)


def test_span_path_check_survives_optimized_mode():
    """Under `python -O` the free-apex check of the span path still raises."""
    script = textwrap.dedent("""
        import sys
        from equialg import TheoremViolation, cyclic_group
        from equialg.gsets import GSet, GSetMap, Span
        from equialg.magmas import (CoefficientSystem, SemiMackeyFunctor,
                                    evaluate_span_endo)
        c2 = cyclic_group(2)
        free, point = GSet.regular(c2), GSet.trivial(c2)
        apex, ends = free + free + point, free + point
        span = Span(GSetMap(apex, ends, [0, 1, 1, 0, 2]),
                    GSetMap(apex, ends, [0, 1, 0, 1, 2]))
        base = CoefficientSystem(2, 2, [0, 1], 2, [0, 1])
        z2 = [[0, 1], [1, 0]]
        sm = SemiMackeyFunctor(base, z2, 0, z2, 0, [0, 0])
        try:
            evaluate_span_endo(sm, span, free)
        except TheoremViolation as exc:
            sys.exit(0 if exc.witness == (2, [4], 1) else 2)
        sys.exit(1)
    """)
    src = str(Path(equialg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_pair_json_round_trip_and_errors():
    pair = enumerate_interchanging_pairs(2, 2, 2)[-1]
    text = pair_to_json(pair)
    back = pair_from_json(text)
    assert back.key() == pair.key()
    with pytest.raises(ValidationError):
        pair_from_json("{not json")
    with pytest.raises(ValidationError):
        pair_from_json('{"p": 2}')
    # corrupted interchange data is a validation error, not a theorem violation
    base = CoefficientSystem(2, 2, [0, 1], 4, [0, 1, 0, 1])
    star = CpUnitalMagma(base, Z2, 0, Z4, 0, [0, 0])
    bullet = CpUnitalMagma(base, Z2, 0, Z4, 0, [0, 2])
    text = pair_to_json(InterchangePair(star, bullet))
    broken = pair_from_json(text)
    with pytest.raises(ValidationError):
        eckmann_hilton(broken)


@pytest.mark.parametrize("cls", [CpUnitalMagma, SemiMackeyFunctor])
@pytest.mark.parametrize("bad", [
    {"unit_e": 7}, {"unit_e": -1}, {"unit_g": 2}, {"t": [0]},
    {"t": [0, 0, 0]}, {"t": [0, 2]}, {"t": [0, -1]}])
def test_out_of_range_tables_rejected_on_construction(cls, bad):
    args = dict(base=BASE22, mul_e=Z2, unit_e=0, mul_g=Z2, unit_g=0,
                t=[0, 0])
    args.update(bad)
    with pytest.raises(ValidationError):
        cls(validate=False, **args)


@pytest.mark.parametrize("cls", [CpUnitalMagma, SemiMackeyFunctor])
@pytest.mark.parametrize("bad", [
    {"mul_e": [[0, 1], [1, 0.7]]}, {"mul_e": [[0, 1], [1, 0.0]]},
    {"mul_g": [[0, 1.0], [1, 0]]}, {"mul_g": [[0, True], [True, 0]]},
    {"mul_e": ["01", "10"]}, {"unit_e": 0.0}, {"unit_g": False},
    {"t": [0, 0.4]}, {"t": [0, 1.0]}, {"t": [False, 0]}])
def test_non_integer_entries_rejected_on_construction(cls, bad):
    args = dict(base=BASE22, mul_e=Z2, unit_e=0, mul_g=Z2, unit_g=0,
                t=[0, 0])
    args.update(bad)
    with pytest.raises(ValidationError):
        cls(validate=False, **args)


@pytest.mark.parametrize("sigma, r", [
    ([0, 1.9], [0]), ([0, 1.0], [0]), ([False, 1], [0]),
    ([0, 1], [0.0]), ([0, 1], [True])])
def test_non_integer_coefficient_system_rejected(sigma, r):
    with pytest.raises(ValidationError):
        CoefficientSystem(2, 2, sigma, 1, r)


def test_theorem_violation_is_loud():
    m = z2_magma([0, 0])
    sm = eckmann_hilton(InterchangePair(m, m))
    with pytest.raises(TheoremViolation):
        raise TheoremViolation("synthetic", witness=(0,))
    assert sm is not None
