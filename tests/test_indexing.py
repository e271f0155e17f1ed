"""Weak indexing systems and categories, transfer systems, enumeration."""
import gc
import hashlib
import operator
import os
import random
import subprocess
import sys
import textwrap
import weakref
from collections import defaultdict
from itertools import combinations, permutations, product
from pathlib import Path
from types import SimpleNamespace

import pytest

import equialg
from equialg import (GuardExceededError, ValidationError, cyclic_group,
                     direct_product, trivial_group)
from equialg.category import (WeakIndexingCategory, _composite_one, _Ops,
                              _ops_for, _pullback_one, _transports,
                              class_sizes, close_category, comp_sizes,
                              component, compose_classes, cod_class,
                              dom_class, enumerate_categories,
                              generate_category, i_complete, i_trivial,
                              is_weak_indexing_category, iso_classes,
                              map_class_of, map_class_universe,
                              pullback_classes, sub_multisets)
from equialg.errors import CutoffOverflowError
from equialg.groups import FiniteGroup, Subgroup, subgroup_lattice, subgroups
from equialg.gsets import (GSet, GSetMap, equivariant_maps, from_orbit_types,
                           orbit_projection, terminal_map)
from equialg.indexing import (LevelTables, TransferSystem, WeakIndexingSystem,
                              _count_level_classes, _families,
                              close_system, enumerate_systems,
                              enumerate_transfer_systems, f_complete,
                              f_infinity, f_trivial, f_zero, join,
                              level_tables, meet, system_check,
                              transfer_check, transfer_system_of,
                              truncate_system)
from equialg.poset import (LATTICE_GUARD, Poset, _bits, _mask, _union,
                           close)

C1 = trivial_group()
C2 = cyclic_group(2)
C4 = cyclic_group(4)


def s3_group():
    """Symmetric group on 3 letters, the smallest non-abelian group."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    return FiniteGroup([[perms.index(tuple(p[q[i]] for i in range(3)))
                         for q in perms] for p in perms], name="S3")


def fold_map(group):
    """The fold of the free orbit: [G/e] -> *."""
    return terminal_map(GSet.regular(group))


def e_level_fold(group, n=2):
    """n copies of the free orbit folding onto one: the e-level fold."""
    free = GSet.regular(group)
    src = free
    for _ in range(n - 1):
        src = src + free
    return GSetMap(src, free, [x % free.size for x in range(src.size)])


# -- system validity -------------------------------------------------------

def test_f_infinity_valid():
    t = level_tables(C2, 6)
    assert system_check(f_infinity(t))


def test_missing_point_set_invalid():
    t = level_tables(C2, 6)
    s = WeakIndexingSystem(t, t.mask_of([set(), {t.star(1)}]), validate=False)
    rep = system_check(s)
    assert not rep and rep.axiom == "unit"


def test_f_zero_on_family_valid():
    t = level_tables(C4, 12)
    for family in [(0,), (0, 1), (0, 1, 2)]:
        assert system_check(f_zero(t, family))
    with pytest.raises(ValidationError):
        f_zero(t, (1,))  # not downward closed


def test_restriction_violation_detected():
    t = level_tables(C2, 6)
    # free orbit admissible at C_2 but its restriction 2* missing at e
    free_cid = t.encode(1, (0,))
    s = WeakIndexingSystem(t, t.mask_of([{t.star(0)}, {t.star(1), free_cid}]),
                           validate=False)
    rep = system_check(s)
    assert not rep and rep.axiom == "restriction"


def test_out_of_range_class_ids_rejected():
    """A class id outside its level would alias a class of another level in
    the system's mask, so the constructor and the closure reject it."""
    t = level_tables(C2, 4)
    assert len(t.classes[0]) == 3
    for bad in (5, 3, -1):
        for validate in (False, True):
            with pytest.raises(ValidationError):
                WeakIndexingSystem(
                    t, t.mask_of([{t.star(0), bad}, {t.star(1)}]),
                    validate=validate)
        with pytest.raises(ValidationError):
            close_system(t, [(0, bad)])


def test_system_is_its_mask():
    """A system stores its class mask and nothing else: the constructor
    takes only an int over the tables' classes, `admissible` is a
    read-only view of the mask and `mask_of` converts it back."""
    t = level_tables(C2, 4)
    assert WeakIndexingSystem.__slots__ == ("tables", "mask", "_key")
    for bad in (True, 1.5, [t.star(0)], 1 << len(t.bit_class), -1):
        with pytest.raises(ValidationError):
            WeakIndexingSystem(t, bad, validate=False)
    s = f_infinity(t)
    assert t.mask_of(s.admissible) == s.mask
    assert WeakIndexingSystem(t, s.mask) == s
    with pytest.raises(AttributeError):
        s.admissible = s.admissible
    with pytest.raises(ValidationError):
        t.mask_of(s.admissible[:1])  # one set per subgroup


def test_cutoff_below_group_order_rejected():
    """Level e keeps at most cutoff // |G| points, so below |G| it has no
    one-point set."""
    for group, cutoff in [(C4, 3), (C4, 2), (C2, 1), (C1, 0)]:
        with pytest.raises(ValidationError, match=f"cutoff {cutoff} is below "
                           f"the group order {group.order}"):
            LevelTables(group, cutoff)
    with pytest.raises(ValidationError):
        enumerate_systems(C4, 3, "unital")
    assert len(enumerate_systems(C4, 4, "unital")) >= 1
    # 0 is a cutoff too, not a request for the default 3·|G|
    with pytest.raises(ValidationError, match="cutoff 0 is below"):
        enumerate_systems(C2, 0, "unital")
    with pytest.raises(ValidationError, match="cutoff 0 is below"):
        generate_category(C2, [], cutoff=0)


# -- category validity (the literal checker) -------------------------------

def test_full_category_valid():
    t = level_tables(C2, 4)
    u = map_class_universe(t)
    assert is_weak_indexing_category(t, frozenset(u))


def test_isos_only_valid():
    t = level_tables(C2, 4)
    assert is_weak_indexing_category(t, iso_classes(t))


def test_isos_plus_fold_fails_with_pullback_witness():
    t = level_tables(C2, 6)
    bad = set(iso_classes(t)) | {map_class_of(t, fold_map(C2))}
    rep = is_weak_indexing_category(t, bad)
    assert not rep and rep.axiom == "pullback"
    f, g, missing = rep.witness
    assert f == map_class_of(t, fold_map(C2))


def test_category_checker_names_a_missing_isomorphism():
    """Every isomorphism class but the identity of G/G: not wide, and the
    witness is that class."""
    t = level_tables(C2, 4)
    top = (1, t.star(1))
    rep = is_weak_indexing_category(t, iso_classes(t) - {(top,)})
    assert not rep and rep.axiom == "wide" and rep.witness == (top,)


@pytest.mark.parametrize("group, cutoff", [
    (C2, 4), (C2, 6), (C4, 4), (direct_product(C2, C2), 4),
    (s3_group(), 6)], ids=["C2@4", "C2@6", "C4@4", "C2xC2@4", "S3@6"])
def test_summands_are_pullbacks_along_inclusions(group, cutoff):
    """The summand of a class u over part of its codomain is the pullback
    of u along the inclusion of that part, so the summands of u lie in its
    pullbacks, and the checker's pullback stability splits summands."""
    ops = _ops_for(LevelTables(group, cutoff))
    _, pullbacks, summands, _ = ops.operations
    for subs, row in zip(summands, pullbacks):
        assert subs & ~_union(m for _, m in row) == 0


def test_a_missing_summand_is_a_missing_pullback():
    """The isomorphisms and the class of the identity of G/e plus the fold
    G/e -> G/G: its summand, the fold alone, is missing, and the checker
    names it as the pullback along the inclusion of G/G."""
    t = level_tables(C2, 4)
    fold = map_class_of(t, fold_map(C2))
    u = tuple(sorted(fold + ((0, t.star(0)),)))
    rep = is_weak_indexing_category(t, iso_classes(t) | {u})
    assert not rep and rep.axiom == "pullback"
    inclusion = ((0, t.empty(0)), (1, t.star(1)))
    assert rep.witness == (u, inclusion, fold)


def test_operations_on_an_unmatched_pair_are_empty():
    """The identity of G/e and that of G/G neither compose nor share a
    codomain."""
    t = level_tables(C2, 4)
    free, point = ((0, t.star(0)),), ((1, t.star(1)),)
    assert compose_classes(t, free, point) == set()
    assert compose_classes(t, point, free) == set()
    assert pullback_classes(t, free, point) == set()


def recursive_iso_classes(tables):
    """Every multiset of one-point-fiber components whose codomain fits
    the cutoff, enumerated recursively: how the isomorphism classes were
    listed before they were read off the universe."""
    reps = sorted({tables.lat.class_rep(i) for i in range(tables.n_sids)})
    out = set()

    def rec(i, dst_left, acc):
        out.add(tuple(sorted(acc)))
        for j in range(i, len(reps)):
            h = reps[j]
            d = tables.group.order // tables.sub_order[h]
            if d <= dst_left:
                rec(j, dst_left - d,
                    acc + [component(tables, h, tables.star(h))])

    rec(0, tables.cutoff, [])
    return out


@pytest.mark.parametrize("group, cutoff", [
    (C2, 4), (C2, 5), (C2, 6), (cyclic_group(3), 3), (cyclic_group(3), 6),
    (C4, 4), (C4, 8), (s3_group(), 6), (direct_product(C2, C2), 4)],
    ids=["C2@4", "C2@5", "C2@6", "C3@3", "C3@6", "C4@4", "C4@8", "S3@6",
         "C2xC2@4"])
def test_iso_classes_read_off_the_universe_match_the_recursion(group, cutoff):
    t = level_tables(group, cutoff)
    reference = recursive_iso_classes(t)
    assert iso_classes(t) == reference
    ops = _ops_for(t)
    assert ops.isos == sorted(ops.id_of[mc] for mc in reference)


def test_class_beyond_cutoff_rejected():
    t = level_tables(C2, 4)
    beyond = ((0, len(t.classes[0])),)
    with pytest.raises(ValidationError):
        is_weak_indexing_category(t, set(iso_classes(t)) | {beyond})
    with pytest.raises(ValidationError):
        close_category(t, [beyond])


def test_category_caches_die_with_their_tables():
    """The map-class operations are owned by the tables, so checking and
    closing on directly built tables pins nothing once they are dropped."""
    t = LevelTables(cyclic_group(3), 3)
    closed = close_category(t, [], unital=True)
    assert is_weak_indexing_category(t, closed)
    ref = weakref.ref(t)
    del t
    gc.collect()
    assert ref() is None


# -- conversions ------------------------------------------------------------

def test_system_of_category_named_examples():
    t = level_tables(C2, 6)
    assert i_trivial(t).to_system().admissible == f_trivial(t).admissible
    assert i_complete(t).to_system().admissible == f_complete(t).admissible
    zero = WeakIndexingCategory.from_system(f_zero(t, (0, 1)))
    assert zero.to_system().admissible == f_zero(t, (0, 1)).admissible


def test_f_infinity_category_is_folds_plus_isos():
    t = level_tables(C2, 4)
    cat = WeakIndexingCategory.from_system(f_infinity(t))
    for mc in cat.map_classes():
        for (h, cid) in mc:
            assert all(k == t.h_class_rep[h][h] for k in t.classes[h][cid])


def test_map_classes_reads_the_tables_universe(monkeypatch):
    import equialg.category
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return map_class_universe(*args, **kwargs)

    monkeypatch.setattr(equialg.category, "map_class_universe", counted)
    t = level_tables(C2, 6)
    cat = WeakIndexingCategory.from_system(f_infinity(t))
    first = cat.map_classes()
    builds.clear()
    for _ in range(5):
        assert cat.map_classes() == first
    assert builds == []


def test_round_trip_on_every_enumerated_system_over_c2():
    t = level_tables(C2, 6)
    for s in enumerate_systems(C2, 6, "all"):
        back = WeakIndexingCategory.from_system(s).to_system()
        assert back.admissible == s.admissible
    for cat in [i_trivial(t), i_complete(t)]:
        assert WeakIndexingCategory.from_system(cat.to_system()) == cat


def test_unit_family_and_predicates():
    t = level_tables(C2, 6)
    assert f_infinity(t).unit_family() == frozenset({0, 1})
    assert f_trivial(t).unit_family() == frozenset()
    assert f_zero(t, (0,)).unit_family() == frozenset({0})
    assert f_infinity(t).is_unital()
    assert f_trivial(t).is_almost_unital() and not f_trivial(t).is_unital()
    assert f_complete(t).is_unital()


# -- lattice operations -----------------------------------------------------

def test_join_bottom_and_idempotent():
    t = level_tables(C2, 6)
    triv = f_trivial(t)
    for s in [f_infinity(t), f_zero(t, (0, 1)), f_complete(t)]:
        assert join(triv, s).admissible == s.admissible
        assert join(s, s).admissible == s.admissible


def test_meet_is_valid_and_greatest_lower_bound():
    poset = enumerate_systems(C2, 4, "all")
    nodes = poset.nodes
    for a, b in list(combinations(nodes, 2))[::7]:
        m = meet(a, b)
        assert system_check(m)
        assert m <= a and m <= b
        for c in nodes:
            if c <= a and c <= b:
                assert c <= m


def test_meet_theorem_check_survives_optimized_mode():
    """Under `python -O` a failing check inside `meet` still raises."""
    script = textwrap.dedent("""
        import sys
        import equialg.indexing as ix
        from equialg import CheckReport, TheoremViolation, cyclic_group
        t = ix.level_tables(cyclic_group(2), 4)
        ix.system_check = lambda s: CheckReport(False, "forced")
        try:
            ix.meet(ix.f_trivial(t), ix.f_complete(t))
        except TheoremViolation as exc:
            group, cutoff, rep = exc.witness
            sys.exit(0 if (group, cutoff, rep.axiom) == ("C2", 4, "forced")
                     else 2)
        sys.exit(1)
    """)
    src = str(Path(equialg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_conjugation_check_survives_optimized_mode():
    """Under `python -O` a conjugate class that fails to encode still raises
    from `conj_cls`, with group and cutoff leading the witness."""
    script = textwrap.dedent("""
        import sys
        from equialg import TheoremViolation, cyclic_group
        from equialg.indexing import LevelTables, level_tables
        t = level_tables(cyclic_group(2), 4)
        LevelTables.encode = lambda self, hi, cls: None
        try:
            t.conj_cls(1, 0, 0)
        except TheoremViolation as exc:
            sys.exit(0 if exc.witness == ("C2", 4, 1, 0, 0) else 2)
        sys.exit(1)
    """)
    src = str(Path(equialg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_join_is_least_upper_bound_against_exhaustive_poset():
    poset = enumerate_systems(C2, 4, "all")
    nodes = poset.nodes
    for a, b in list(combinations(nodes, 2))[::7]:
        j = join(a, b)
        assert a <= j and b <= j
        for c in nodes:
            if a <= c and b <= c:
                assert j <= c


def test_join_of_transfer_generated_contains_composite_transfer():
    e = Subgroup(C4, {0})
    c2 = Subgroup(C4, {0, 2})
    full = Subgroup(C4, set(C4.elements))
    i1 = generate_category(C4, [orbit_projection(C4, e, c2)], unital=True)
    i2 = generate_category(C4, [orbit_projection(C4, c2, full)], unital=True)
    ts1 = transfer_system_of(i1.to_system())
    ts2 = transfer_system_of(i2.to_system())
    assert ts1.related(0, 1) and not ts1.related(0, 2)
    assert ts2.related(1, 2) and not ts2.related(0, 2)
    joined = join(i1.to_system(), i2.to_system())
    assert transfer_system_of(joined).related(0, 2)


# `poset.join` applies only the rules across two systems' differences, so
# it needs both to be closed masks: a mask is a system exactly when it holds
# every one-point set and `close` leaves it alone
CLOSED_TABLES = pytest.mark.parametrize("group, cutoff", [
    (C2, 6), (C4, 12), (cyclic_group(6), 12), (direct_product(C2, C2), 8)],
    ids=["C2-6", "C4-12", "C6-12", "C2xC2-8"])


def _mask_samples(t, rng, count):
    """Masks over the classes of `t`: closures of a few classes over the
    one-point sets (some unital), each as it is, less one class or plus one
    class, and masks drawn at random."""
    n = len(t.bit_class)
    star = t.seed_mask()
    for k in range(count):
        seeds = _mask(rng.sample(range(n), rng.randint(0, 3)))
        base = close(t.rules, seeds | t.seed_mask(
            range(t.n_sids) if k % 3 == 0 else ()))
        yield base
        yield base & ~(1 << rng.choice(list(_bits(base))))
        yield base | 1 << rng.randrange(n)
        yield rng.getrandbits(n) | star * (k % 2)


@CLOSED_TABLES
def test_systems_are_the_closed_masks_over_the_point_sets(group, cutoff):
    t = level_tables(group, cutoff)
    star = t.seed_mask()
    outcomes = set()
    for mask in _mask_samples(t, random.Random(cutoff), 25):
        expected = not star & ~mask and close(t.rules, mask) == mask
        assert bool(system_check(WeakIndexingSystem(t, mask, validate=False))) \
            == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


@CLOSED_TABLES
def test_named_systems_are_closed_masks(group, cutoff):
    t = level_tables(group, cutoff)
    named = [f_trivial(t), f_infinity(t), f_complete(t)] + [
        f_zero(t, family) for family in _families(t)]
    for system in named:
        assert close(t.rules, system.mask) == system.mask


# -- generation -------------------------------------------------------------

def test_generate_empty_is_trivial():
    t = level_tables(C2, 6)
    assert generate_category(C2, []).to_system().admissible == \
        f_trivial(t).admissible


@pytest.mark.parametrize("p", [2, 3])
def test_generate_single_transfer_unital(p):
    g = cyclic_group(p)
    t = level_tables(g, 3 * p)
    cat = generate_category(g, [fold_map(g)], unital=True)
    s = cat.to_system()
    assert s.is_unital()
    ts = transfer_system_of(s)
    assert ts.related(0, 1)  # the complete transfer system for C_p
    # level e is saturated with folds, level G has no fixed-point folds
    assert s.admissible[0] == set(range(len(t.classes[0])))
    two_fixed = t.encode(1, (1, 1))
    assert two_fixed not in s.admissible[1]


def test_generate_e_level_fold_only():
    t = level_tables(C2, 6)
    cat = generate_category(C2, [e_level_fold(C2)])
    s = cat.to_system()
    assert s.admissible[0] == {t.encode(0, tuple([0] * n)) for n in range(1, 4)}
    assert s.admissible[1] == {t.star(1)}


def test_generate_rejects_oversized_generators():
    from equialg.errors import CutoffOverflowError
    big = GSet.trivial(C2, 20)
    with pytest.raises(CutoffOverflowError):
        generate_category(C2, [terminal_map(big)], cutoff=6)


# -- enumeration ------------------------------------------------------------

def test_trivial_group_unital_count():
    assert len(enumerate_systems(C1, 3, "unital")) == 2
    assert len(enumerate_systems(C1, 3, "almost_unital")) == 3


def test_trivial_minimum_is_trivial_system():
    for which in ["all", "unital", "almost_unital"]:
        poset = enumerate_systems(C2, 4, which)
        mins = poset.minimal()
        assert len(mins) == 1
        bottom = poset.nodes[mins[0]]
        if which == "unital":
            t = level_tables(C2, 4)
            assert bottom.admissible == f_zero(t, (0, 1)).admissible
        else:
            assert bottom.admissible == f_trivial(bottom.tables).admissible


@pytest.mark.parametrize("which", ["all", "unital", "almost_unital"])
def test_dual_path_enumeration_c2(which):
    """System-side and map-class-side enumerations agree in count and order."""
    cutoff = 4
    pc = enumerate_categories(C2, cutoff, which)
    ps = enumerate_systems(C2, cutoff, which)
    assert len(pc) == len(ps)
    t = level_tables(C2, cutoff)
    sys_of = [WeakIndexingCategory.from_map_classes(t, n).to_system()
              for n in pc.nodes]
    pairing = [ps.index(s) for s in sys_of]
    assert pc.is_isomorphic_via(ps, pairing)


def _literal_join(t, ops, x, a, unital):
    """Reference join, blind to the closure's rule index: from x | a (and
    the units), add the class each failing literal check names."""
    ids = set(_bits(x | a)) | (set(ops.units) if unital else set())
    while True:
        rep = is_weak_indexing_category(t, [ops.classes[i] for i in ids])
        if rep:
            return _mask(ids)
        ids.add(ops.id_of[rep.witness if rep.axiom == "wide"
                          else rep.witness[-1]])


def _node_atom_pairs(cutoff, which):
    t = level_tables(C2, cutoff)
    ops = _ops_for(t)
    core = close(ops.rules, ops.core_mask(which == "unital"))
    atoms = {close(ops.rules, 1 << u, core)
             for u in range(len(ops.classes)) if not core >> u & 1}
    nodes = [_mask(ops.encode_all(n))
             for n in enumerate_categories(C2, cutoff, which)]
    return t, ops, sorted(((x, a) for x in nodes for a in atoms if a & ~x),
                          key=lambda xa: (list(_bits(xa[0])),
                                          list(_bits(xa[1]))))


@pytest.mark.parametrize("cutoff, which, sample", [
    (3, "all", None), (3, "unital", None), (4, "all", 12)])
def test_incremental_closure_matches_literal_fixpoint(cutoff, which, sample):
    t, ops, pairs = _node_atom_pairs(cutoff, which)
    if sample is not None:
        pairs = random.Random(cutoff).sample(pairs, sample)
    unital = which == "unital"
    for x, a in pairs:
        assert close(ops.rules, a, x) == _literal_join(t, ops, x, a, unital)


def _literal_system_closure(t, seeds):
    """Reference closure, blind to the rule index: from the classes of the
    `seeds` mask, add the class each failing system_check report names."""
    adm = t.levels(seeds)
    while True:
        rep = system_check(WeakIndexingSystem(t, t.mask_of(adm),
                                              validate=False))
        if rep:
            return WeakIndexingSystem(t, t.mask_of(adm), validate=False).mask
        if rep.axiom == "conjugation":
            hi, cid = t.conj_cls(*rep.witness)
        elif rep.axiom == "restriction":
            hi, cid = rep.witness[2:]
        else:
            hi, cid = rep.witness[0], rep.witness[-1]
        adm[hi].add(cid)


@pytest.mark.parametrize("group, cutoff, which, sample", [
    (C2, 4, "all", None), (s3_group(), 6, "unital", 200)],
    ids=["C2-4-all", "S3-6-unital"])
def test_system_closure_matches_literal_fixpoint(group, cutoff, which,
                                                 sample):
    """Every single-class closure, with and without the empty sets, and
    (node, atom) joins of the enumeration.  Only a non-abelian group such
    as S3 runs the conjugation rule."""
    t = level_tables(group, cutoff)
    for levels in [(), range(t.n_sids)]:
        for hi, cid in t.bit_class:
            seeds = t.seed_mask(levels) | 1 << t.bit(hi, cid)
            assert close_system(t, [(hi, cid)], levels).mask == \
                _literal_system_closure(t, seeds)
    unital = range(t.n_sids) if which == "unital" else ()
    core = close(t.rules, t.seed_mask(unital))
    atoms = sorted({close(t.rules, 1 << i, core)
                    for i in range(len(t.bit_class))})
    pairs = [(x.mask, a) for x in enumerate_systems(group, cutoff, which)
             for a in atoms if a & ~x.mask]
    if sample is not None:
        pairs = random.Random(cutoff).sample(pairs, sample)
    for x, a in pairs:
        assert close(t.rules, a, x) == _literal_system_closure(t, x | a)


def test_category_enumeration_nodes_are_valid_and_segal_structured():
    cutoff = 4
    pc = enumerate_categories(C2, cutoff, "all")
    t = level_tables(C2, cutoff)
    for n in pc.nodes[::17]:
        assert is_weak_indexing_category(t, n)
    for n in pc.nodes:
        wic = WeakIndexingCategory.from_map_classes(t, n)
        assert wic.map_classes() == n


CATEGORY_JSON_SHA256 = {
    (C2, 4, "all"):
        "0c0f824880a6f4212772ecc3db6592cbd58f1e3851d9d5f1c7927bc64d546916",
    (C2, 4, "unital"):
        "f307322d8220b216817edbc1568a4978c8d42bec444669e087b750129c1436af",
    (C2, 4, "almost_unital"):
        "fd26e1f85a7dce281e2c00411e9e8b0c7329db0e0e8c834c88b1d9b2727e3358",
    (C4, 4, "all"):
        "0b381cb600e88091c0b54862e65d664aaa6546ac3bcb93cc86b33fc0a150ab0e"}


@pytest.mark.parametrize("group, cutoff, which", list(CATEGORY_JSON_SHA256),
                         ids=["C2@4-all", "C2@4-unital", "C2@4-almost_unital",
                              "C4@4-all"])
def test_category_json_export_is_pinned(group, cutoff, which):
    text = enumerate_categories(group, cutoff, which).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == \
        CATEGORY_JSON_SHA256[group, cutoff, which]


@pytest.mark.parametrize("enumerate_", [enumerate_systems,
                                        enumerate_categories],
                         ids=["systems", "categories"])
def test_enumerations_reject_an_unknown_filter(enumerate_):
    """`enumerate_categories` read any filter but "unital" and
    "almost_unital" as "all"."""
    with pytest.raises(ValidationError, match="unknown filter 'bogus'"):
        enumerate_(C2, 4, "bogus")


# -- the map-class operations against the recursive references -------------

def reference_matchings(left, right):
    """Distinct bijections left_i -> right_{perm(i)} between equal-size lists."""
    seen = set()
    for perm in permutations(range(len(right))):
        assignment = tuple(right[p] for p in perm)
        if assignment not in seen:
            seen.add(assignment)
            yield assignment


def reference_compose_classes(tables, c1, c2):
    """Composites by the recursion over per-type matchings that
    `compose_classes` replaced: every matching of fibers with slots, every
    transport of each fiber, assembled whole.  A fiber at level rep moves
    into a slot at level k by every group element g with g rep g^-1 = k,
    not by `category._transports`, so a wrong transport shows here."""
    if cod_class(tables, c1) != dom_class(tables, c2):
        return set()
    fibers_by_type = defaultdict(list)
    for comp in c1:
        fibers_by_type[comp[0]].append(comp)
    slots_by_type = defaultdict(list)
    for j, (h, cid) in enumerate(c2):
        for k in tables.classes[h][cid]:
            slots_by_type[tables.lat.class_rep(k)].append((j, k))
    types = sorted(slots_by_type)
    assert sorted(fibers_by_type) == types
    per_type = [list(reference_matchings(slots_by_type[t], fibers_by_type[t]))
                for t in types]
    results = set()
    moves = {}  # (rep, k, fid): the classes the fiber moves to at level k

    def assemble(ti, chosen):
        if ti == len(types):
            options = [[]]
            for t, fibers in zip(types, chosen):
                for (j, k), (rep, fid) in zip(slots_by_type[t], fibers):
                    if (rep, k, fid) not in moves:
                        moves[rep, k, fid] = {
                            tables.conj_cls(g, rep, fid)[1]
                            for g in tables.group.elements
                            if tables.conj_sid[g][rep] == k}
                    options = [opt + [(j, k, b)] for opt in options
                               for b in moves[rep, k, fid]]
            for opt in options:
                fibers_out = [list() for _ in c2]
                for (j, k, fid_k) in opt:
                    hj = c2[j][0]
                    fibers_out[j].extend(tables.h_class_rep[hj][m]
                                         for m in tables.classes[k][fid_k])
                comps = []
                for j, (hj, _) in enumerate(c2):
                    cid = tables.encode(hj, tuple(fibers_out[j]))
                    assert cid is not None
                    comps.append(component(tables, hj, cid))
                results.add(tuple(sorted(comps)))
            return
        for m in per_type[ti]:
            assemble(ti + 1, chosen + [m])

    assemble(0, [])
    return results


def reference_pullback_classes(tables, cf, cg):
    """Pullbacks by the recursion over per-type matchings that
    `pullback_classes` replaced, each matching assembled whole."""
    if cod_class(tables, cf) != cod_class(tables, cg):
        return set()
    f_by_type = defaultdict(list)
    g_by_type = defaultdict(list)
    for comp in cf:
        f_by_type[comp[0]].append(comp)
    for comp in cg:
        g_by_type[comp[0]].append(comp)
    types = sorted(f_by_type)
    per_type = [list(reference_matchings(g_by_type[t], f_by_type[t]))
                for t in types]
    results = set()

    def assemble(ti, acc, src_budget):
        if ti == len(types):
            results.add(tuple(sorted(acc)))
            return
        t = types[ti]
        for m in per_type[ti]:
            comps = list(acc)
            budget = src_budget
            ok = True
            for (h, fid_g), (h2, fid_f) in zip(g_by_type[t], m):
                assert h == h2
                for k in tables.classes[h][fid_g]:
                    rcid = tables.restrict_cls(h, k, fid_f)
                    if rcid is None:
                        ok = False
                        break
                    comp = component(tables, k, rcid)
                    budget -= comp_sizes(tables, comp)[0]
                    if budget < 0:
                        ok = False
                        break
                    comps.append(comp)
                if not ok:
                    break
            if ok:
                assemble(ti + 1, comps, budget)

    assemble(0, [], tables.cutoff)
    return results


def reference_map_rules(ops, composites, pullbacks):
    """Every class's rules by the lazy per-class scan that the one-pass
    tables replaced: per class u, its summands and its pullbacks along
    every map to its codomain, then a scan of every class v for the
    composites in both orders and the union.  `composites` and `pullbacks`
    map each matched pair (u, v) to its classes."""
    t, mc, id_of = ops.tables, ops.classes, ops.id_of

    def compose(u, v):
        return _mask(id_of[m] for m in composites.get((u, v), ()))

    def union(u, v):
        merged = tuple(sorted(mc[u] + mc[v]))
        src, dst = class_sizes(t, merged)
        return (1 << id_of[merged] if src <= t.cutoff and dst <= t.cutoff
                else 0)

    rules = []
    for u in range(len(mc)):
        unary = _mask(id_of[m] for m in sub_multisets(mc[u]))
        for g in ops.by_cod[ops.cod[u]]:
            unary |= _mask(id_of[m] for m in pullbacks[u, g])
        forced = {}
        for v in range(len(mc)):
            out = compose(u, v) | compose(v, u) | union(u, v)
            if out:
                forced[1 << v] = out
        rules.append((unary, sum(forced), forced))
    return rules


def _matched_pairs(ops):
    """The (u, v) that compose (codomain of u is the domain of v) and the
    (u, v) with a pullback (one codomain)."""
    n = range(len(ops.classes))
    return ([(u, v) for u in n for v in n if ops.cod[u] == ops.dom[v]],
            [(u, v) for u in n for v in ops.by_cod[ops.cod[u]]])


@pytest.mark.parametrize("group, cutoff", [
    (C2, 3), (C2, 4), (C2, 5), (cyclic_group(3), 3), (C4, 4),
    (direct_product(C2, C2), 4)],
    ids=["C2@3", "C2@4", "C2@5", "C3@3", "C4@4", "C2xC2@4"])
def test_one_pass_map_tables_match_the_references(group, cutoff):
    """On every matched pair the operations equal the recursions they
    replaced, and every class's one-pass rules equal the lazy scan."""
    t = level_tables(group, cutoff)
    ops = _ops_for(t)
    mc = ops.classes
    composable, over_one_cod = _matched_pairs(ops)
    composites = {(u, v): reference_compose_classes(t, mc[u], mc[v])
                  for u, v in composable}
    pullbacks = {(u, v): reference_pullback_classes(t, mc[u], mc[v])
                 for u, v in over_one_cod}
    for (u, v), out in composites.items():
        assert compose_classes(t, mc[u], mc[v]) == out
    for (u, v), out in pullbacks.items():
        assert pullback_classes(t, mc[u], mc[v]) == out
    assert [rule[:3] for rule in ops.rules] == \
        reference_map_rules(ops, composites, pullbacks)


def test_map_class_operations_match_the_recursion_on_s3():
    """A sample of the pairs of non-abelian S3 at cutoff 6, where fibers
    move into their slots by conjugation, though never by two that give
    different classes (see the D8 test below); all 1269 classes' rules
    take too long for this suite."""
    t = level_tables(s3_group(), 6)
    ops = _ops_for(t)
    mc = ops.classes
    composable, over_one_cod = _matched_pairs(ops)
    rng = random.Random(6)
    for u, v in rng.sample(composable, 150):
        assert compose_classes(t, mc[u], mc[v]) == \
            reference_compose_classes(t, mc[u], mc[v])
    for u, v in rng.sample(over_one_cod, 150):
        assert pullback_classes(t, mc[u], mc[v]) == \
            reference_pullback_classes(t, mc[u], mc[v])


def test_map_tables_compute_each_matched_pair_once(monkeypatch):
    """The one-pass tables make one top-level `_Ops.recur` call (one not
    made from inside another) per pair that composes and one per pair
    over one codomain, and none through the public `compose_classes` or
    `pullback_classes`."""
    import equialg.category
    t = LevelTables(C2, 4)
    ops = _ops_for(t)
    calls = {_composite_one: [], _pullback_one: []}
    depth = [0]
    recur = _Ops.recur

    def counted(self, first, side, memo, splits, u, v):
        if not depth[0]:
            calls[first].append((u, v))
        depth[0] += 1
        try:
            return recur(self, first, side, memo, splits, u, v)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(_Ops, "recur", counted)
    public = []
    for name in ["compose_classes", "pullback_classes"]:
        monkeypatch.setattr(equialg.category, name,
                            lambda *args, name=name: public.append(name))
    ops.rules[0]
    composable, over_one_cod = _matched_pairs(ops)
    assert public == []
    assert sorted(calls[_composite_one]) == composable and \
        len(composable) == 1533
    assert sorted(calls[_pullback_one]) == over_one_cod and \
        len(over_one_cod) == 1962


def test_map_tables_answer_each_matched_pair_once(monkeypatch):
    """The rows of the composite and pullback tables are the memo of
    `_Ops.recur`: every sub-problem is a matched pair of the same table,
    so the one pass computes each pair that composes and each pair over
    one codomain once, whether the pass asks it first or a recurrence
    reaches it, and reads the row after that.  Each pair meets a row that
    does not yet hold it in exactly one call, and is stored in its row
    exactly once."""
    t = LevelTables(C2, 4)
    ops = _ops_for(t)
    asked = {_composite_one: [], _pullback_one: []}
    stored = {_composite_one: [], _pullback_one: []}
    recur = _Ops.recur

    class Row(dict):
        """A memo row that records every answer stored in it."""

        def __setitem__(self, v, mask):
            stored[self.first].append((self.u, v))
            super().__setitem__(v, mask)

    def counted(self, first, side, memo, splits, u, v):
        memo.default_factory = Row
        row = memo[u]
        row.first, row.u = first, u
        if v not in row:
            asked[first].append((u, v))
        return recur(self, first, side, memo, splits, u, v)

    monkeypatch.setattr(_Ops, "recur", counted)
    composites, pullbacks, _, _ = ops.operations
    composable, over_one_cod = _matched_pairs(ops)
    assert len(composable) == 1533 and len(over_one_cod) == 1962
    for table, first, pairs in [(composites, _composite_one, composable),
                                (pullbacks, _pullback_one, over_one_cod)]:
        assert sorted(asked[first]) == pairs
        assert sorted(stored[first]) == pairs
        assert [(u, v) for u, row in enumerate(table) for v, _ in row] == \
            pairs


# SHA-256 of repr((composites, pullbacks)) of `_Ops.operations` on S3 at
# cutoff 6, as the per-pair state search built them
S3_MAP_TABLES_SHA256 = \
    "eb7084e68cf7d3c7e8629f2f16e65b2c045a069d9b78d5467796f0b51d249b97"


def test_s3_map_tables_built_whole_match_the_references():
    """Non-abelian S3 at cutoff 6, the largest universe of the suite.  The
    tables are built in one pass, so most entries are assembled from
    sub-problems that earlier pairs memoised; a seeded sample of the
    entries whose classes both have two or more components (the ones the
    recurrence splits) equals the references, and both tables are
    pinned."""
    t = LevelTables(s3_group(), 6)
    ops = _ops_for(t)
    composites, pullbacks, _, _ = ops.operations
    assert hashlib.sha256(repr((composites, pullbacks)).encode()).hexdigest() \
        == S3_MAP_TABLES_SHA256
    mc = ops.classes
    rng = random.Random(6)
    for table, reference in [(composites, reference_compose_classes),
                             (pullbacks, reference_pullback_classes)]:
        entries = [(u, v, m) for u, row in enumerate(table) for v, m in row
                   if len(mc[u]) >= 2 and len(mc[v]) >= 2]
        sample = rng.sample(entries, 120)
        assert sum(bin(m).count("1") > 1 for _, _, m in sample) >= 10
        for u, v, m in sample:
            assert {mc[w] for w in _bits(m)} == \
                reference(t, mc[u], mc[v])


def test_map_recurrence_matches_the_references_where_transports_branch(
        monkeypatch):
    """On S3 every transport is unique: its Weyl groups act trivially on
    the level classes.  D8 is the smallest group where a fiber moves into
    its slot by two conjugations that give different classes (the Weyl
    group of a Klein four subgroup swaps two of its C2s), and its universe
    at cutoff 8 (119,126 classes) is past `UNIVERSE_GUARD`, raised here.
    A seeded sample of composable pairs of classes with two or more
    components, asked of `_Ops.recur` one after another within one memo,
    as the pass asks them, so that later pairs read what earlier ones
    memoised, equals the reference; some of them branch.

    The reference moves fibers by every group element.  A `_transports`
    that keeps only its first result changes none of those composites, so
    a second sample targets the pairs where it must: v has one component
    at its level H, whose fiber contains H/H and is moved by the Weyl
    group of H, and u has no empty fiber and a component at H that the
    Weyl group moves.  Each such pair equals the reference, and the
    mutant misses a composite of each."""
    import equialg.category
    monkeypatch.setattr(equialg.category, "UNIVERSE_GUARD", 200_000)
    t = LevelTables(d8_group(), 8)
    ops = _ops_for(t)
    mc = ops.classes
    rng = random.Random(8)
    many = [v for v, c in enumerate(mc) if len(c) >= 2]
    pairs = []
    for v in rng.sample(many, 400):
        us = [u for u in ops.by_cod[ops.dom[v]] if len(mc[u]) >= 2]
        if us:
            pairs.append((rng.choice(us), v))
    outs, stored_by, earlier = [], {}, [0]

    class Row(dict):
        """The memo row of class u: counts the reads of answers that an
        earlier pair stored."""

        def __init__(self, u):
            super().__init__()
            self.u = u

        def __setitem__(self, v, value):
            stored_by[self.u, v] = len(outs)
            super().__setitem__(v, value)

        def __getitem__(self, v):
            earlier[0] += stored_by[self.u, v] < len(outs)
            return super().__getitem__(v)

    class Memo(dict):
        """One `Row` per class, made on first use, as `defaultdict(dict)`
        makes the rows of `recur`'s memo."""

        def __missing__(self, u):
            self[u] = row = Row(u)
            return row

    def composites(memo, pairs):
        outs.clear()
        splits = {}
        for u, v in pairs:
            mask = ops.recur(_composite_one, ops.dom, memo, splits, u, v)
            outs.append({mc[w] for w in _bits(mask)})
        return list(outs)

    branches = []
    monkeypatch.setattr(
        equialg.category, "_transports",
        lambda *args: branches.append(len(out := _transports(*args))) or out)
    found = composites(Memo(), pairs)
    assert len(pairs) > 300 and sum(n > 1 for n in branches) >= 20
    assert sum(len(out) > 1 for out in found) >= 50 and earlier[0] > 0
    assert found == [reference_compose_classes(t, mc[u], mc[v])
                     for u, v in pairs]
    moved = {(h, cid) for h in t.lat.class_reps
             for cid in range(len(t.classes[h]))
             if len({t.conj_cls(g, h, cid)[1] for g in t.group.elements
                     if t.conj_sid[g][h] == h}) > 1}

    def hosts(c):
        levels = [h for h, _ in c]
        return {h for h, cid in c if (h, cid) in moved
                and h in t.classes[h][cid] and levels.count(h) == 1}

    targets = []
    for v in rng.sample([v for v, c in enumerate(mc)
                         if not moved.isdisjoint(c) and hosts(c)], 200):
        hs = hosts(mc[v])
        us = [u for u in ops.by_cod[ops.dom[v]]
              if all(cid != t.empty(h) for h, cid in mc[u])
              and any(c in moved and c[0] in hs for c in mc[u])]
        if us:
            targets.append((rng.choice(us), v))
    refs = [reference_compose_classes(t, mc[u], mc[v]) for u, v in targets]
    assert len(targets) >= 25 and \
        composites(defaultdict(dict), targets) == refs
    monkeypatch.setattr(equialg.category, "_transports",
                        lambda *args: _transports(*args)[:1])
    assert all(out < ref for out, ref in
               zip(composites(defaultdict(dict), targets), refs))


def test_map_recurrence_memoises_sub_problems_for_one_pass_only(
        monkeypatch):
    """A call outside the pass memoises its own pair and the sub-problems
    of its recurrence, in a memo of its own; a pass that raises partway
    caches nothing, and the next one builds the tables whole.  A class
    beyond the cutoff is a ValidationError."""
    import equialg.category
    t = LevelTables(C2, 4)
    ops = _ops_for(t)
    mc = ops.classes
    u, v = next((u, v) for u, v in _matched_pairs(ops)[0]
                if len(mc[u]) >= 2 and len(mc[v]) >= 2)
    used = []
    recur = _Ops.recur
    monkeypatch.setattr(_Ops, "recur", lambda self, *args:
                        used.append(args[2]) or recur(self, *args))
    out = compose_classes(t, mc[u], mc[v])
    assert out and {mc[w] for w in _bits(used[0][u][v])} == out
    assert sum(map(len, used[0].values())) > 1
    n = len(used)
    assert pullback_classes(t, mc[u], mc[u]) and used[n] is not used[0]
    calls = []

    def fails_partway(*args):
        calls.append(args)
        if len(calls) > 50:
            raise RuntimeError("partway")
        return _pullback_one(*args)

    monkeypatch.setattr(equialg.category, "_pullback_one", fails_partway)
    with pytest.raises(RuntimeError, match="partway"):
        ops.operations
    monkeypatch.undo()
    assert ops.operations == _Ops(t, mc).operations
    beyond = ((0, t.star(0)),) * 5
    for op in [compose_classes, pullback_classes]:
        with pytest.raises(ValidationError, match="not a map class"):
            op(t, beyond, beyond)


def dihedral_group(n):
    """Symmetries of a regular n-gon on its corners, the permutations
    generated by a rotation and a reflection, in order of discovery."""
    elems = [tuple(range(n))]
    for x in elems:
        for g in [tuple((i + 1) % n for i in range(n)),
                  tuple(-i % n for i in range(n))]:
            y = tuple(g[i] for i in x)
            if y not in elems:
                elems.append(y)
    return FiniteGroup([[elems.index(tuple(p[q[i]] for i in range(n)))
                         for q in elems] for p in elems], name=f"D{2 * n}")


def d8_group():
    """Symmetries of a square on its corners: non-abelian with a centre, so
    some rows of the conjugation table repeat."""
    return dihedral_group(4)


def q8_group():
    """The quaternion group: element 4s + u is (-1)^s times unit u of
    (1, i, j, k), with ij = k, jk = i and ki = j."""
    def mul(a, b):
        (s, u), (t, v) = divmod(a, 4), divmod(b, 4)
        if u == 0 or v == 0:
            w, sign = u + v, 0
        elif u == v:
            w, sign = 0, 1
        else:
            w, sign = 6 - u - v, int((v - u) % 3 != 1)
        return 4 * ((s + t + sign) % 2) + w
    return FiniteGroup([[mul(a, b) for b in range(8)] for a in range(8)],
                       name="Q8")


def reference_families(tables):
    """Every downward-closed, conjugation-stable subgroup family, by a test
    of each of the 2^n sid sets: the search `_families` replaced."""
    t = tables
    out = set()
    for bits in range(1 << t.n_sids):
        fam = frozenset(i for i in range(t.n_sids) if bits >> i & 1)
        ok = all(set(t.sub_sids[hi]) <= fam for hi in fam)
        ok = ok and all(t.conj_sid[g][hi] in fam
                        for g in t.group.elements for hi in fam)
        if ok:
            out.add(fam)
    return sorted(out, key=lambda f: (len(f), sorted(f)))


@pytest.mark.parametrize("group, cutoff", [
    (C2, 2), (C4, 4), (cyclic_group(6), 6), (s3_group(), 6),
    (direct_product(C2, C2), 4), (d8_group(), 8),
    (direct_product(direct_product(C2, C2), C2), 8)],
    ids=["C2-2", "C4-4", "C6-6", "S3-6", "C2xC2-4", "D8-8", "C2xC2xC2-8"])
def test_families_match_the_power_set_search(group, cutoff):
    t = level_tables(group, cutoff)
    assert _families(t) == reference_families(t)


def test_families_past_the_lattice_guard_stop_at_once():
    """C2^4 has 67 subgroups: the power-set search would take 2^67 steps,
    the closed-set search stops at the lattice guard.  `_families` reads
    only the subgroup tables, so no level classes are built."""
    group = direct_product(direct_product(direct_product(C2, C2), C2), C2)
    lat = subgroup_lattice(group)
    tables = SimpleNamespace(
        n_sids=len(lat), conj_sid=lat.conj_table,
        sub_sids=[tuple(k for k in range(len(lat)) if lat.leq[k][hi])
                  for hi in range(len(lat))])
    assert tables.n_sids == 67
    with pytest.raises(GuardExceededError, match=f"more than {LATTICE_GUARD} "
                       "closed sets"):
        _families(tables)


@pytest.mark.parametrize("group, cutoff, rows", [
    (C2, 4, 1), (direct_product(C2, C2), 8, 1), (s3_group(), 6, 6),
    (d8_group(), 8, 4)], ids=["C2-4", "C2xC2-8", "S3-6", "D8-8"])
def test_conjugation_reads_one_element_per_conj_sid_row(group, cutoff, rows):
    """`LevelTables.conj_reps` is the first element of each distinct
    `conj_sid` row, and the transports and normalizer minima read from it
    equal those taken over every group element."""
    t = level_tables(group, cutoff)
    firsts = {}
    for g in group.elements:
        firsts.setdefault(t.conj_sid[g], g)
    assert t.conj_reps == tuple(firsts.values())
    assert len(t.conj_reps) == rows
    for src in range(t.n_sids):
        for cid in range(len(t.classes[src])):
            moved = {dst: set() for dst in range(t.n_sids)}
            for g in group.elements:
                hj, out = t.conj_cls(g, src, cid)
                moved[hj].add(out)
            for dst in range(t.n_sids):
                assert _transports(t, src, dst, cid) == sorted(moved[dst])
            assert t.weyl_canonical(src, cid) == min(moved[src])


def reference_restrict_orbit(t, hi, ki, li):
    """Orbit types of Res^H_K (H/L) via double cosets K\\H/L, computed on
    each call: the method the table `LevelTables.res_orbit` replaced."""
    grp = t.group
    km, lm = t.members[ki], t.members[li]
    remaining = set(t.members[hi])
    out = []
    while remaining:
        x = min(remaining)
        orbit = {grp.mul(grp.mul(a, x), b) for a in km for b in lm}
        remaining -= orbit
        stab = km & frozenset(grp.conj(x, b) for b in lm)
        out.append(t.h_class_rep[ki][t.lat.index_of[stab]])
    return tuple(sorted(out))


def reference_h_classes(t, hi):
    """(sub_sids, h_class_rep, orbit_types) of level hi by the member-set
    test `LevelTables` kept before `_h_class_reps` read the lattice order."""
    hm = t.members[hi]
    subs = [k for k in range(t.n_sids) if t.members[k] <= hm]
    rep = {k: min(t.conj_sid[g][k] for g in hm) for k in subs}
    return tuple(subs), rep, tuple(sorted(set(rep.values())))


def reference_map_class_of(t, f):
    """`map_class_of` with the `seen` set over each fiber's sub-orbits."""
    lat = t.lat
    comps = []
    for orbit in f.dst.orbits():
        y = orbit[0]
        hi = lat.index_of[f.dst.stabilizer(y).members]
        stab = t.members[hi]
        fiber = [x for x in f.src.points if f.on_points[x] == y]
        types = []
        seen = set()
        for x in fiber:
            if x in seen:
                continue
            sub_orbit = {f.src.act[g][x] for g in stab}
            seen |= sub_orbit
            k = lat.index_of[f.src.stabilizer(min(sub_orbit)).members]
            types.append(t.h_class_rep[hi][k])
        comps.append(component(t, hi, t.encode(hi, tuple(types))))
    return tuple(sorted(comps))


def small_gsets(group, max_size):
    """Every multiset of orbits G/H with at most max_size points, and each
    again with its points reversed, so that orbits interleave."""
    subs = subgroups(group)
    out = []

    def rec(i, left, chosen):
        if i == len(subs):
            s = from_orbit_types(group, chosen)
            rev = s.points[::-1]
            out.append(s)
            out.append(GSet(group, [[rev[row[rev[x]]] for x in s.points]
                                    for row in s.act]))
            return
        rec(i + 1, left, chosen)
        size = group.order // subs[i].order
        if size <= left:
            rec(i, left - size, chosen + [subs[i]])

    rec(0, max_size, [])
    return out


SIX_TABLES = pytest.mark.parametrize("group, cutoff", [
    (C2, 6), (C4, 8), (cyclic_group(6), 12), (direct_product(C2, C2), 8),
    (s3_group(), 12), (d8_group(), 8)],
    ids=["C2-6", "C4-8", "C6-12", "C2xC2-8", "S3-12", "D8-8"])


@SIX_TABLES
def test_h_classes_match_the_member_set_loop(group, cutoff):
    t = level_tables(group, cutoff)
    for hi in range(t.n_sids):
        assert (t.sub_sids[hi], t.h_class_rep[hi], t.orbit_types[hi]) == \
            reference_h_classes(t, hi)
        assert list(t.h_class_rep[hi]) == list(t.sub_sids[hi])


@SIX_TABLES
def test_map_class_of_matches_the_seen_set_loop(group, cutoff):
    t = level_tables(group, cutoff)
    sets = small_gsets(group, 4)
    checked = 0
    for src in sets:
        for dst in sets[::2]:
            for f in equivariant_maps(src, dst):
                assert map_class_of(t, f) == reference_map_class_of(t, f)
                checked += 1
    assert checked > 50


def reference_rules(t, i):
    """The rules of bit i alone, by the two loops the one-pass build
    replaced: the coproducts with i outside the slot over every class of
    the slot's level, then a scan of every class for those with i in the
    slot, each kept unless it overflows the cutoff."""
    hi, cid = t.bit_class[i]
    off = t.offset
    unary = 0
    if not t.abelian:
        for g in t.conj_reps:
            hj, moved = t.conj_cls(g, hi, cid)
            unary |= 1 << (off[hj] + moved)
    for ki in t.sub_sids[hi]:
        res = t.restrict_cls(hi, ki, cid) if ki != hi else None
        if res is not None:
            unary |= 1 << (off[ki] + res)
    forced = defaultdict(int)
    for ki in set(t.classes[hi][cid]):
        for tid in range(len(t.classes[ki])):
            out = t.coproduct_single(hi, cid, ki, tid)
            if out is not None:
                forced[1 << (off[ki] + tid)] |= 1 << (off[hi] + out)
    for j, (hj, sid) in enumerate(t.bit_class):
        if hi in t.classes[hj][sid]:
            out = t.coproduct_single(hj, sid, hi, cid)
            if out is not None:
                forced[1 << j] |= 1 << (off[hj] + out)
    return unary, sum(forced), dict(forced)


# S3 and D8 take the conjugation branch of the rules
RULE_TABLES = pytest.mark.parametrize("group, cutoff", [
    (C2, 6), (C4, 12), (cyclic_group(6), 12), (s3_group(), 6),
    (s3_group(), 12), (direct_product(C2, C2), 8), (d8_group(), 8),
    (cyclic_group(8), 24)],
    ids=["C2-6", "C4-12", "C6-12", "S3-6", "S3-12", "C2xC2-8", "D8-8",
         "C8-24"])


@RULE_TABLES
def test_one_pass_rules_match_the_per_class_build(group, cutoff):
    t = level_tables(group, cutoff)
    for i in range(len(t.bit_class)):
        assert t.rules[i][:3] == reference_rules(t, i)


def transfer_rules(group):
    """The rule table `enumerate_transfer_systems` closes over for `group`."""
    built = []
    real = equialg.indexing.rule_table

    def capture(unary, pairs):
        built.append(real(unary, pairs))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equialg.indexing, "rule_table", capture)
        enumerate_transfer_systems(group)
    return built[-1]


def assert_inverse_of_forced(rules):
    """Each entry's `sources` is exactly its `forced` map inverted (the
    partner v is in sources[x] just when x is in forced[v]), and its
    `targets` and `partners` are the keys of the two maps."""
    for _, partners, forced, targets, sources in rules:
        inverse = defaultdict(int)
        for v, m in forced.items():
            for x in _bits(m):
                inverse[1 << x] |= v
        assert sources == inverse
        assert targets == sum(inverse)
        assert partners == sum(forced)


@RULE_TABLES
def test_rule_sources_invert_the_forced_masks(group, cutoff):
    assert_inverse_of_forced(level_tables(group, cutoff).rules)


@pytest.mark.parametrize("rules", [
    lambda: _ops_for(level_tables(C2, 4)).rules,
    lambda: transfer_rules(d8_group())], ids=["C2-4-map-classes",
                                              "D8-transfers"])
def test_other_rule_sources_invert_the_forced_masks(rules):
    assert_inverse_of_forced(rules())


def tables_digest(t):
    """SHA-256 of the repr of the interned classes, their sizes, ids and
    bits, the rules (unary mask, partners and forced map with its items
    sorted) and the conjugation table."""
    rules = [(u, p, sorted(f.items())) for u, p, f, _, _ in t.rules]
    data = [t.classes, t.cls_size, [sorted(d.items()) for d in t.class_id],
            t.offset, t.bit_class, rules, t.conj_sid]
    return hashlib.sha256(repr(data).encode()).hexdigest()


@pytest.mark.parametrize("group, cutoff, digest", [
    (C2, 6,
     "f597ad5890203cb14935c4c36579f2dff52925dc9b0e734b8256f809596c8254"),
    (C4, 12,
     "f1962a156709382b9dffb37e84728f3ede285044d29090336906da3263debc30"),
    (cyclic_group(6), 12,
     "7cb4a130fa59350b61b9224213c9265b781d73f8cde5ddf2bfb7a0238dace727"),
    (direct_product(C2, C2), 8,
     "7de3cef071b6995f9209f73403a58ca14b1f9737f5524d137e06407ad5fc8c38"),
    (s3_group(), 12,
     "3095a54fa19dcd470ad2ca3638c0af7736dd886341dc741bb6b146c794fc786d"),
    (d8_group(), 8,
     "012dcfdb4c33cf5cc4a6f0270c82b32ae8b78fb41092e3094ed7308c0a7e9f48"),
    (cyclic_group(8), 24,
     "567eb7a56a6f02ed9cc85e288c02346693cff644ea643f4b06cee1bd2976a282"),
    (q8_group(), 8,
     "b88a4485d28bcc3482c1ae92f8dc4d35dfca714e6d4bd1c0a5eaaae37d2d471a"),
], ids=["C2-6", "C4-12", "C6-12", "C2xC2-8", "S3-12", "D8-8", "C8-24",
        "Q8-8"])
def test_level_tables_are_pinned(group, cutoff, digest):
    """Every table a system's mask is read and closed by, pinned: any
    change to the classes, their order or their rules shows here."""
    assert tables_digest(level_tables(group, cutoff)) == digest


@pytest.mark.parametrize("group, cutoff, fitting", [
    (cyclic_group(6), 12, 2209), (s3_group(), 12, 2281)],
    ids=["C6-12", "S3-12"])
def test_rules_compute_each_fitting_coproduct_once(monkeypatch, group,
                                                   cutoff, fitting):
    """Every single-slot coproduct that fits the cutoff is computed exactly
    once while the rules are built, and no other."""
    t = LevelTables(group, cutoff)
    expected = sorted(
        (hi, cid, ki, tid) for hi, cid in t.bit_class
        for ki in set(t.classes[hi][cid]) for tid in range(len(t.classes[ki]))
        if t.coproduct_single(hi, cid, ki, tid) is not None)
    calls = []
    real = LevelTables.coproduct_single
    monkeypatch.setattr(LevelTables, "coproduct_single",
                        lambda self, *a: calls.append(a) or real(self, *a))
    t.rules[0]
    assert sorted(calls) == expected and len(calls) == fitting


@pytest.mark.parametrize("group, cutoff", [
    (C2, 6), (C4, 12), (cyclic_group(6), 12), (s3_group(), 12),
    (direct_product(C2, C2), 8), (d8_group(), 8),
    (direct_product(direct_product(C2, C2), C2), 8)],
    ids=["C2-6", "C4-12", "C6-12", "S3-12", "C2xC2-8", "D8-8", "C2xC2xC2-8"])
def test_restriction_table_matches_the_double_coset_loop(group, cutoff):
    t = level_tables(group, cutoff)
    keys = {(hi, ki, li) for hi in range(t.n_sids)
            for ki in t.sub_sids[hi] for li in t.orbit_types[hi]}
    assert set(t.res_orbit) == keys
    for hi, ki, li in keys:
        assert t.res_orbit[hi, ki, li] == reference_restrict_orbit(t, hi, ki,
                                                                   li)


@pytest.mark.parametrize("group, cutoff", [
    (C2, 6), (C4, 12), (cyclic_group(6), 12), (s3_group(), 6),
    (s3_group(), 12), (direct_product(C2, C2), 8), (d8_group(), 8),
    (cyclic_group(8), 24), (direct_product(direct_product(C2, C2), C2), 8)],
    ids=["C2-6", "C4-12", "C6-12", "S3-6", "S3-12", "C2xC2-8", "D8-8",
         "C8-24", "C2xC2xC2-8"])
def test_level_classes_are_counted_before_they_are_interned(group, cutoff):
    """The level guard reads a coin-change count over the subgroup lattice;
    it equals the number of classes the tables intern.  C2xC2xC2 at its
    least cutoff 8 has 1244, past the guard: the tables still build, only
    the enumerations refuse them."""
    assert (_count_level_classes(group, cutoff)
            == len(level_tables(group, cutoff).bit_class))


def test_brute_force_power_set_oracle_c2():
    t = level_tables(C2, 4)
    per_level = []
    for hi in range(t.n_sids):
        ids = [c for c in range(len(t.classes[hi])) if c != t.star(hi)]
        subs = [frozenset(comb) | {t.star(hi)}
                for r in range(len(ids) + 1) for comb in combinations(ids, r)]
        per_level.append(subs)
    expected = set()
    for adm in product(*per_level):
        s = WeakIndexingSystem(t, t.mask_of(adm), validate=False)
        if system_check(s):
            expected.add(s.value_key())
    got = {s.value_key() for s in enumerate_systems(C2, 4, "all")}
    assert got == expected


@pytest.mark.parametrize("which", ["unital", "almost_unital"])
def test_saturation_c2(which):
    small = enumerate_systems(C2, 6, which)
    big = enumerate_systems(C2, 12, which)
    assert len(small) == len(big)
    t_small = level_tables(C2, 6)
    pairing = [small.index(truncate_system(s, t_small)) for s in big.nodes]
    assert big.is_isomorphic_via(small, pairing)


def test_all_filter_is_not_saturated_at_small_cutoffs():
    # fold arities in proper numerical submonoids appear as the cutoff grows,
    # so only the unital and almost-unital posets stabilize
    assert len(enumerate_systems(C2, 4, "all")) != len(enumerate_systems(C2, 6, "all"))


def test_almost_unital_agrees_with_summand_closure():
    for s in enumerate_systems(C2, 6, "all"):
        assert s.is_almost_unital() == s.is_summand_closed()


def summand_closed_by_subsets(s):
    """The former `is_summand_closed`: every one of the 2**n orbit subsets
    of each admissible class, repeated summands included."""
    t = s.tables
    for hi, adm in enumerate(s.admissible):
        for cid in adm:
            cls = t.classes[hi][cid]
            if cid == t.star(hi):
                continue
            n = len(cls)
            for bits in range(1 << n):
                sub = tuple(cls[i] for i in range(n) if bits >> i & 1)
                scid = t.encode(hi, sub)
                if scid is not None and scid not in adm:
                    return False
    return True


def test_summand_closure_matches_subset_walk():
    # on systems both verdicts are is_almost_unital, which the empty summand
    # alone decides; an almost-unital system less one class, no longer a
    # system, tests the other summands
    systems = list(enumerate_systems(C2, 6, "all"))
    nodes = systems + [
        WeakIndexingSystem(s.tables, s.mask & ~(1 << i), validate=False)
        for s in systems if s.is_almost_unital() for i in _bits(s.mask)]
    verdicts = [(s.is_summand_closed(), summand_closed_by_subsets(s))
                for s in nodes]
    assert all(new == ref for new, ref in verdicts)
    assert {new for new, _ in verdicts} == {True, False}


def test_summand_closure_at_c4_cutoff_24():
    # a level-G class of 24 one-point orbits has 2**24 subsets but only
    # 25 distinct summands
    poset = enumerate_systems(C4, 24, "unital")
    assert len(poset) == 21
    assert all(s.is_summand_closed() == s.is_almost_unital() for s in poset)


# -- transfer systems --------------------------------------------------------

@pytest.mark.parametrize("group, almost, every", [
    (C2, 9, 3692), (cyclic_group(3), 12, 541)], ids=["C2", "C3"])
def test_almost_unital_is_all_filtered(group, almost, every):
    """Closing over a family's levels stays on them, so each family's
    lattice is almost-unital with exactly that unit family, and the
    "almost_unital" enumeration needs no filter and no dedupe."""
    every_poset = enumerate_systems(group, 6, "all")
    poset = enumerate_systems(group, 6, "almost_unital")
    assert (len(every_poset), len(poset)) == (every, almost)
    assert poset.nodes == [s for s in every_poset if s.is_almost_unital()]


def test_transfer_counts_catalan():
    for n, expect in [(1, 1), (2, 2), (4, 5), (8, 14)]:
        assert len(enumerate_transfer_systems(cyclic_group(n))) == expect


def reference_transfer_systems(group):
    """Every transfer system, by a `transfer_check` of each of the 2^pairs
    relations on the strict containment pairs: the search the closure
    replaced."""
    lat = subgroup_lattice(group)
    n = len(lat.nodes)
    strict = [(k, h) for k in range(n) for h in range(n)
              if k != h and lat.leq[k][h]]
    found = []
    for bits in range(1 << len(strict)):
        rel = {strict[i] for i in range(len(strict)) if bits >> i & 1}
        ts = TransferSystem(group, rel, validate=False)
        if transfer_check(ts):
            found.append(ts)
    return Poset(found, leq=operator.le, key=lambda s: s.sort_key())


@pytest.mark.parametrize("group", [
    C1, C2, C4, cyclic_group(8), cyclic_group(16), cyclic_group(6),
    cyclic_group(12), direct_product(C2, C2), s3_group(),
    direct_product(cyclic_group(3), cyclic_group(3)), q8_group(),
    dihedral_group(5)],
    ids=["C1", "C2", "C4", "C8", "C16", "C6", "C12", "C2xC2", "S3", "C3xC3",
         "Q8", "D10"])
def test_transfer_closure_matches_the_brute_force(group):
    poset = enumerate_transfer_systems(group)
    ref = reference_transfer_systems(group)
    assert poset.nodes == ref.nodes
    assert poset.to_json() == ref.to_json()
    assert poset.to_dot("transfers") == ref.to_dot("transfers")


def test_transfer_counts_catalan_past_c8():
    """Catalan numbers on C16, C32 and C64 (Balchin-Barnes-Roitzheim,
    "N-infinity operads and associahedra").  C64 has 21 containment
    pairs, so a search over every relation would test 2^21 of them."""
    for n, expect in [(16, 42), (32, 132), (64, 429)]:
        assert len(enumerate_transfer_systems(cyclic_group(n))) == expect


@pytest.mark.parametrize("group, count", [
    (d8_group(), 294), (dihedral_group(6), 3133)], ids=["D8", "D12"])
def test_every_dihedral_transfer_closure_is_a_transfer_system(group, count):
    """D8 has 24 containment pairs and D12 48.  The poset is ordered by
    inclusion of the closure masks: every up-set of D8's 294 nodes, and
    those of a seeded sample of D12's 3133, equal the nodes whose relation
    contains the node's (9.8 million tests for all of D12)."""
    poset = enumerate_transfer_systems(group)
    nodes = poset.nodes
    assert len(nodes) == count == len(set(nodes))
    assert all(transfer_check(ts) for ts in nodes)
    rows = range(count) if count < 1000 else \
        random.Random(12).sample(range(count), 100)
    for i in rows:
        assert poset.up[i] == _mask(j for j, ts in enumerate(nodes)
                                    if nodes[i] <= ts)


def test_transfer_of_unital_systems_and_monotone():
    poset = enumerate_systems(C4, 12, "unital")
    for s in poset:
        ts = transfer_system_of(s)
        assert transfer_check(ts)
    nodes = poset.nodes
    for a in nodes[::3]:
        for b in nodes[::3]:
            if a <= b:
                assert transfer_system_of(a) <= transfer_system_of(b)


def test_transfer_extraction_blames_the_cutoff_not_the_input():
    """At C8, cutoff 8, Res^G_L(G/1) does not fit level L, so the unital
    closure of G/1 never derives L/1 although it is a valid system."""
    g = cyclic_group(8)
    trivial = level_tables(g, 8).lat.index_of[frozenset({0})]
    top = level_tables(g, 8).lat.index_of[frozenset(g.elements)]
    for cutoff in (8, 24):
        t = level_tables(g, cutoff)
        free = t.encode(top, (trivial,))
        s = close_system(t, [(top, free)], unital_levels=range(t.n_sids))
        assert system_check(s)
        if cutoff == 8:
            with pytest.raises(CutoffOverflowError) as exc:
                transfer_system_of(s)
            group, cut, rep = exc.value.witness
            assert (group, cut, rep.axiom) == ("C8", 8, "restriction")
        else:
            ts = transfer_system_of(s)
            assert transfer_check(ts) and ts.related(trivial, top)
    # an invalid system whose relation fails is the input's fault
    t = level_tables(C4, 12)
    adm = [set(a) for a in f_zero(t, range(t.n_sids)).admissible]
    adm[2].add(t.encode(2, (0,)))
    with pytest.raises(ValidationError) as exc:
        transfer_system_of(WeakIndexingSystem(t, t.mask_of(adm),
                                              validate=False))
    assert "not a weak indexing system" in str(exc.value)


@pytest.mark.parametrize("rel", [[(5, 0)], [(-1, 0)], [(0, 2)], [(0, -2)]],
                         ids=["5-0", "-1-0", "0-2", "0--2"])
def test_transfer_system_rejects_subgroup_ids_out_of_range(rel):
    """C2 has subgroups 0 and 1: (5, 0) raised IndexError, and (-1, 0)
    was read as the last subgroup and reported as refines-containment."""
    with pytest.raises(ValidationError, match=r"range\(2\)"):
        TransferSystem(C2, rel)


def test_transfer_system_rejects_a_pair_outside_containment():
    """(1, 0) is in range but relates C2 to e, which it does not lie in:
    the validating constructor raises past its range check, and
    `transfer_check` names the pair."""
    assert subgroup_lattice(C2).nodes[1].members == frozenset({0, 1})
    with pytest.raises(ValidationError, match=r"not a transfer system: "
                       r"CheckReport\(fail: refines-containment, "
                       r"witness=\(1, 0\)\)"):
        TransferSystem(C2, [(1, 0)])
    rep = transfer_check(TransferSystem(C2, [(1, 0)], validate=False))
    assert not rep and rep.axiom == "refines-containment"
    assert rep.witness == (1, 0)


def test_transfer_extraction_needs_unital():
    t = level_tables(C2, 6)
    with pytest.raises(ValidationError):
        transfer_system_of(f_trivial(t))


@pytest.mark.parametrize("build, message", [
    (lambda: enumerate_systems(cyclic_group(16)),
     "8908 level classes exceed the guard of 1200"),
    # refused before any class is interned (the build takes over a minute)
    (lambda: enumerate_systems(direct_product(direct_product(direct_product(
        C2, C2), C2), C2), 16, "unital"),
     "9564666 level classes exceed the guard of 1200; lower the cutoff"),
    (lambda: enumerate_systems(direct_product(direct_product(C2, C2), C2),
                               8, "unital"),
     "1244 level classes exceed the guard of 1200; lower the cutoff"),
    (lambda: enumerate_systems(C2, 20, "all"),
     "132 level classes exceed the guard of 80"),
    # 50 containment pairs: refused by the closed-set guard, at once
    (lambda: enumerate_transfer_systems(
        direct_product(direct_product(C2, C2), C2)),
     "more than 25000 closed sets exceed the lattice guard"),
    (lambda: enumerate_categories(C2, 8),
     "3960 map classes exceed the guard of 400"),
    # under the level-class guards, but with 4,260,274 and 66,913 systems
    (lambda: enumerate_systems(s3_group(), 6, "all"),
     "more than 25000 closed sets exceed the lattice guard"),
    (lambda: enumerate_systems(cyclic_group(3), 9, "all"),
     "more than 25000 closed sets exceed the lattice guard"),
], ids=["C16-levels", "C2xC2xC2xC2-16-levels", "C2xC2xC2-8-levels",
        "C2-20-all", "C2xC2xC2-transfers", "C2-8-categories", "S3-6-all",
        "C3-9-all"])
def test_enumeration_guards(build, message):
    with pytest.raises(GuardExceededError, match=message):
        build()


def test_lattice_guard_leaves_c2_at_7_in_reach():
    poset = enumerate_systems(C2, 7, "all")
    assert len(poset) == 21398 <= LATTICE_GUARD


def test_poset_exports():
    poset = enumerate_transfer_systems(C4)
    dot = poset.to_dot("transfers")
    assert dot.count("->") == len(poset.covers())
    assert len(poset.to_json()) > 10


def test_system_json_lists_orbit_multisets():
    t = level_tables(C2, 6)
    text = f_zero(t, (0, 1)).to_json()
    assert '"levels"' in text and '"cutoff"' in text
