"""Weak indexing categories: the encoding by classes of G-set maps.

A map of finite G-sets decomposes over the orbits of its codomain; over an
orbit with stabilizer H the map is induced from its fiber, an H-set.  The
isomorphism class of a map is therefore a multiset of components
(conjugacy class of H, fiber class up to the normalizer twist), and a wide
pullback-stable subcategory satisfying the summand condition is exactly a
set of map classes determined by its admissible components.

This module works with explicit map-class sets: a literal validity checker
and closure (composition, pullback against arbitrary maps, summand
splitting and assembly, all isomorphisms), an exhaustive enumeration at
small scale, and the conversions to and from the system encoding of
`indexing.py`.  The pair operations of every class (composites where the
codomain meets a domain, pullbacks over one codomain, and the unions
that fit the cutoff) are tables, `_Ops.operations`, built in one
pass on first use; the checker reads them, and the closure rules
`_Ops.rules` are read off them.  A composite or pullback of a pair is a
recurrence on the first component of the second class: split the first
class into the part over that component and the rest, and add up the
operation on the two smaller pairs.  Every sub-problem is itself a
matched pair of classes of the universe, so the rows of the tables are
the memo of the recurrence, by class ids as masks; a call of
`compose_classes` or `pullback_classes` keeps its own.  Closure and
enumeration run on the shared engine of `poset.close` and
`poset.closure_lattice`, over int masks of class ids.  The two encodings'
rules are computed by independent routines, so their agreement is a real
check of the equivalence.
"""
from __future__ import annotations

from collections import defaultdict
from functools import cached_property

from .errors import (CheckReport, CutoffOverflowError, GuardExceededError,
                     ValidationError)
from .groups import FiniteGroup, orbits
from .gsets import GSetMap
from .indexing import (LevelTables, WeakIndexingSystem, close_system,
                       default_cutoff, f_complete, f_trivial, level_tables,
                       system_check)
from .poset import (Poset, _bits, _mask, _union, close, closure_lattice,
                    rule_table)

GROUND_GUARD = 400  # map classes the category enumeration accepts
UNIVERSE_GUARD = 100_000  # map classes the universe builds before it stops


# -- map classes ----------------------------------------------------------

def component(tables: LevelTables, hi: int, cid: int) -> tuple:
    """Canonical component: base moved to its conjugacy-class representative,
    fiber normalizer-minimized."""
    rep = tables.lat.class_rep(hi)
    if rep != hi:
        n = next(g for g in tables.group.elements
                 if tables.conj_sid[g][hi] == rep)
        hj, cid = tables.conj_cls(n, hi, cid)
        if hj != rep:
            raise tables.violation("conjugate is not the rep", n, hi, hj, rep)
    return (rep, tables.weyl_canonical(rep, cid))


def comp_sizes(tables: LevelTables, comp: tuple) -> tuple:
    hi, cid = comp
    index = tables.group.order // tables.sub_order[hi]
    return (tables.cls_size[hi][cid] * index, index)


def class_sizes(tables: LevelTables, mc: tuple) -> tuple:
    src = dst = 0
    for comp in mc:
        s, d = comp_sizes(tables, comp)
        src += s
        dst += d
    return (src, dst)


def cod_class(tables: LevelTables, mc: tuple) -> tuple:
    """G-set class of the codomain: the multiset of base orbit types."""
    return tuple(sorted(h for (h, _) in mc))


def dom_class(tables: LevelTables, mc: tuple) -> tuple:
    """G-set class of the domain: induced fiber orbits, as G-orbit types."""
    out = []
    for (h, cid) in mc:
        out.extend(tables.lat.class_rep(m) for m in tables.classes[h][cid])
    return tuple(sorted(out))


def map_class_of(tables: LevelTables, f: GSetMap) -> tuple:
    """Isomorphism class of an equivariant map, as a component multiset."""
    if f.src.group != tables.group:
        raise ValidationError("map is over a different group")
    if f.src.size > tables.cutoff or f.dst.size > tables.cutoff:
        raise CutoffOverflowError(
            f"map of sizes {f.src.size}->{f.dst.size} exceeds cutoff {tables.cutoff}")
    lat = tables.lat
    comps = []
    for orbit in f.dst.orbits():
        y = orbit[0]
        hi = lat.index_of[f.dst.stabilizer(y).members]
        stab = tables.members[hi]
        fiber = [x for x in f.src.points if f.on_points[x] == y]
        subs = orbits(fiber, lambda x: {f.src.act[g][x] for g in stab})
        types = [tables.h_class_rep[hi][
                     lat.index_of[f.src.stabilizer(sub[0]).members]]
                 for sub in subs]
        cid = tables.encode(hi, tuple(types))
        if cid is None:
            raise tables.violation("fiber exceeds its level", hi, types)
        comps.append(component(tables, hi, cid))
    return tuple(sorted(comps))


def iso_classes(tables: LevelTables) -> set:
    """Classes of isomorphisms: all fibers are one-point sets."""
    ops = _ops_for(tables)
    return {ops.classes[u] for u in ops.isos}


def map_class_universe(tables: LevelTables) -> list:
    """All map classes within the cutoff, canonically ordered."""
    comps = []
    for h in tables.lat.class_reps:
        for cid in range(len(tables.classes[h])):
            if tables.weyl_canonical(h, cid) == cid:
                comps.append((h, cid))
    comps.sort()
    out = []

    def rec(i, src_left, dst_left, acc):
        out.append(tuple(acc))
        if len(out) > UNIVERSE_GUARD:
            raise GuardExceededError(
                f"map-class universe exceeds the guard of {UNIVERSE_GUARD}")
        for j in range(i, len(comps)):
            s, d = comp_sizes(tables, comps[j])
            if s <= src_left and d <= dst_left:
                rec(j, src_left - s, dst_left - d, acc + [comps[j]])

    rec(0, tables.cutoff, tables.cutoff, [])
    return sorted(out)


# -- the categorical operations on classes --------------------------------

def _transports(tables, src_level, dst_level, cid):
    """Distinct conjugation transports of a class between conjugate levels."""
    outs = set()
    for g in tables.conj_reps:
        if tables.conj_sid[g][src_level] == dst_level:
            hj, moved = tables.conj_cls(g, src_level, cid)
            outs.add(moved)
    return sorted(outs)


def _picks(left: tuple, base: int):
    """Each distinct component of the sorted tuple `left` whose base is
    `base`, with the tuple that is left without it."""
    for i, comp in enumerate(left):
        if comp[0] == base and (i == 0 or left[i - 1] != comp):
            yield comp, left[:i] + left[i + 1:]


def compose_classes(tables: LevelTables, c1: tuple, c2: tuple) -> set:
    """All classes of g∘f over representatives f in c1: T -> S, g in c2: S -> R.

    A recurrence on the first component of c2: the composites are the
    union, over the sub-multisets A of c1 whose codomain is the domain of
    c2[0], of the sums x + y with x a composite of A and (c2[0],) and y one
    of c1 - A and c2[1:].  On one component the fibers of A are dealt to
    its orbit slots, each moved into its slot by a conjugation.  The
    sub-problems are pairs of classes of the map-class universe of
    `tables`, which the first call builds (past `UNIVERSE_GUARD` classes
    a GuardExceededError, even for one pair); they are memoised for this
    call alone.  Both classes must lie within the cutoff (else a
    ValidationError).
    """
    return _pair_classes(tables, _composite_one, "dom", c1, c2)


def pullback_classes(tables: LevelTables, cf: tuple, cg: tuple) -> set:
    """All classes of the base change of cf: T -> S along cg: U -> S,
    as maps (T x_S U) -> U.

    A recurrence on the first component of cg: the pullbacks are the
    union, over the components f of cf with the base of cg[0], of the sums
    of the base change of f along cg[0] (the restrictions of the fiber of
    f to the orbits of the fiber of cg[0]) and a pullback of cf - f along
    cg[1:].  Unrepresentable pullbacks and those beyond the cutoff are
    skipped.  As for composites, the first call builds the universe
    (GuardExceededError past `UNIVERSE_GUARD`), the sub-problems are
    memoised for the call, and both classes must lie within the cutoff.
    """
    return _pair_classes(tables, _pullback_one, "cod", cf, cg)


def _pair_classes(tables, first, side: str, a: tuple, b: tuple) -> set:
    """`_Ops.recur` of `first` on one pair, with memos of its own: empty
    unless the codomain of a is the `side` ("dom" or "cod") of b."""
    ops = _ops_for(tables)
    u, v = ops.encode_all(tuple(sorted(c)) for c in (a, b))
    sides = getattr(ops, side)
    if ops.cod[u] != sides[v]:
        return set()
    mask = ops.recur(first, sides, defaultdict(dict), {}, u, v)
    return {ops.classes[w] for w in _bits(mask)}


def _composite_one(ops, a: tuple, comp: tuple) -> int:
    """Mask of the composites of the class a and the class (comp,).  The
    components of a are dealt to the orbit slots of the fiber of comp one
    slot at a time; a state is the components still to deal and the fiber
    so far, so the orders of dealing that agree are merged as they meet."""
    t = ops.tables
    hj, cid = comp
    to_hj = t.h_class_rep[hj]
    states = {(a, ())}
    for k in t.classes[hj][cid]:
        base = t.lat.class_rep(k)
        # each component that fits the slot, as the fibers it fills in
        moves = {c: [tuple(to_hj[m] for m in t.classes[k][moved])
                     for moved in _transports(t, base, k, c[1])]
                 for c in set(a) if c[0] == base}
        states = {(rest, tuple(sorted(fiber + part)))
                  for left, fiber in states
                  for c, rest in _picks(left, base)
                  for part in moves[c]}
    out = 0
    for _, fiber in states:
        fid = t.encode(hj, fiber)
        if fid is None:
            raise t.violation("composite exceeds its level", a, comp, fiber)
        out |= 1 << ops.id_of[(component(t, hj, fid),)]
    return out


def _pullback_one(ops, a: tuple, g: tuple) -> int:
    """Mask of the base change of the class a = (f,) along (g,), both over
    one orbit: empty if a restriction of the fiber of f to an orbit of the
    fiber of g is unrepresentable or the result has no id (beyond the
    cutoff)."""
    t = ops.tables
    (h, fid_g), ((_, fid_f),) = g, a
    comps = []
    for k in t.classes[h][fid_g]:
        rcid = t.restrict_cls(h, k, fid_f)
        if rcid is None:
            return 0
        comps.append(component(t, k, rcid))
    w = ops.id_of.get(tuple(sorted(comps)))
    return 0 if w is None else 1 << w


def _parts(mc: tuple):
    """Each distinct sub-multiset of a component multiset, with the rest."""
    n, seen = len(mc), set()
    for bits in range(1 << n):
        part = tuple(mc[i] for i in range(n) if bits >> i & 1)
        if part not in seen:
            seen.add(part)
            yield part, tuple(mc[i] for i in range(n) if not bits >> i & 1)


def _splits(ops, u: int) -> dict:
    """The (sub-multiset, rest) id pairs of the class u, grouped by the
    codomain of the sub-multiset."""
    id_of, out = ops.id_of, defaultdict(list)
    for part, rest in _parts(ops.classes[u]):
        out[ops.cod[id_of[part]]].append((id_of[part], id_of[rest]))
    return out


class _Ops:
    """Interned map classes of one `LevelTables`, the tables of the pair
    operations on their ids and the closure rules read off those tables.
    Ids follow the sorted universe, so sorting ids sorts the classes."""

    def __init__(self, tables: LevelTables, universe: list):
        self.tables = tables
        self.classes = list(universe)
        self.id_of = {mc: i for i, mc in enumerate(self.classes)}
        self.cod = [cod_class(tables, mc) for mc in self.classes]
        self.dom = [dom_class(tables, mc) for mc in self.classes]
        self.by_cod = defaultdict(list)
        for i, c in enumerate(self.cod):
            self.by_cod[c].append(i)
        # isomorphisms: every fiber is the (Weyl-canonical) one-point set
        self.isos = [u for u, mc in enumerate(self.classes)
                     if all(cid == tables.star(h) for h, cid in mc)]
        # maps from the empty set onto one orbit, where that orbit fits
        units = [self.id_of.get((component(tables, h, tables.empty(h)),))
                 for h in tables.lat.class_reps]
        self.units = [u for u in units if u is not None]

    def core_mask(self, unital: bool) -> int:
        """The isomorphisms and, if `unital`, the units."""
        return _mask((*self.isos, *(self.units if unital else ())))

    def encode_all(self, mcs):
        try:
            return [self.id_of[mc] for mc in mcs]
        except KeyError as exc:
            raise ValidationError(
                f"{exc.args[0]} is not a map class within cutoff "
                f"{self.tables.cutoff}") from None

    def recur(self, first, side: list, memo, splits: dict,
              u: int, v: int) -> int:
        """The mask of the composites (`first` is `_composite_one`, `side`
        is `self.dom`) or the pullbacks (`_pullback_one`, `self.cod`) of
        the class ids u and v, by the recurrence of `compose_classes` and
        `pullback_classes`: the parts of u that meet the head of v have
        `side[head]` as their codomain.  Each sub-problem is a matched
        pair too, kept with (u, v) as `memo[u][v]`; `splits` holds u's
        splits."""
        row, mc, id_of = memo[u], self.classes, self.id_of
        if v in row:
            return row[v]
        c2 = mc[v]
        if len(c2) < 2:
            out = row[v] = first(self, mc[u], c2[0]) if c2 else 1 << id_of[()]
            return out
        head, tail = id_of[c2[:1]], id_of[c2[1:]]
        if u not in splits:
            splits[u] = _splits(self, u)
        out = 0
        for a, rest in splits[u].get(side[head], ()):
            x = self.recur(first, side, memo, splits, a, head)
            if not x:
                continue
            y = self.recur(first, side, memo, splits, rest, tail)
            for i in _bits(x):
                for j in _bits(y):  # a union beyond the cutoff has no id
                    w = id_of.get(tuple(sorted(mc[i] + mc[j])))
                    if w is not None:
                        out |= 1 << w
        row[v] = out
        return out

    @cached_property
    def operations(self) -> tuple:
        """The pair operations on every class u, in one pass on first use:
        its composites, (v, mask of the classes of v∘u) for each v whose
        domain is the codomain of u; its pullbacks, (v, mask) along each v
        to its codomain; and its unions, (v, id of u + v) for each v whose
        disjoint union with u fits the cutoff.  Partners ascend; the
        composite and pullback rows are the memos of `recur`, so each
        matched pair is answered once."""
        t, mc, id_of = self.tables, self.classes, self.id_of
        by_dom = defaultdict(list)
        for v, d in enumerate(self.dom):
            by_dom[d].append(v)
        sizes = [class_sizes(t, c) for c in mc]
        unions = []
        # the memos of `recur`, a row per class, and the splits
        composed, pulled, splits = defaultdict(dict), defaultdict(dict), {}
        for u, c in enumerate(mc):
            for v in by_dom[self.cod[u]]:
                self.recur(_composite_one, self.dom, composed, splits, u, v)
            for v in self.by_cod[self.cod[u]]:
                self.recur(_pullback_one, self.cod, pulled, splits, u, v)
            src, dst = sizes[u]
            unions.append([(v, id_of[tuple(sorted(c + mc[v]))])
                           for v, (s, d) in enumerate(sizes)
                           if src + s <= t.cutoff and dst + d <= t.cutoff])
        n = range(len(mc))
        return ([sorted(composed[u].items()) for u in n],
                [sorted(pulled[u].items()) for u in n], unions)

    @cached_property
    def rules(self) -> list:
        """The `poset.rule_table` over class ids: alone a class u forces
        its pullbacks along every map to its codomain, its summands among
        them (the pullbacks along inclusions); with a partner, the
        composites in both orders and the disjoint union (read once, from
        the lesser id)."""
        composites, pullbacks, unions = self.operations
        unary = [_union(m for _, m in bases) for bases in pullbacks]
        return rule_table(unary, (
            (u, v, m) for u, (after, joins) in enumerate(zip(composites, unions))
            for v, m in after + [(v, 1 << w) for v, w in joins if u <= v]))


def _ops_for(tables: LevelTables) -> _Ops:
    """The map-class operations owned by `tables`, built on first use from
    the full universe."""
    if tables.map_ops is None:
        tables.map_ops = _Ops(tables, map_class_universe(tables))
    return tables.map_ops


def is_weak_indexing_category(tables: LevelTables, classes) -> CheckReport:
    """Literal validity of an explicit set of map classes: wideness,
    composition, pullback stability (a summand is the pullback along the
    inclusion of its codomain, so this splits summands) and assembly of
    summands.  A class beyond the cutoff is a ValidationError."""
    ops = _ops_for(tables)
    ids = set(ops.encode_all(classes))
    mc = ops.classes
    for u in ops.isos:
        if u not in ids:
            return CheckReport(False, "wide", mc[u])
    composites, pullbacks, unions = ops.operations
    pool = sorted(ids)
    for u in pool:
        for v, m in composites[u]:
            for w in _bits(m):
                if v in ids and w not in ids:
                    return CheckReport(False, "composition", (mc[u], mc[v], mc[w]))
    for u in pool:
        for v, m in pullbacks[u]:
            for w in _bits(m):
                if w not in ids:
                    return CheckReport(False, "pullback", (mc[u], mc[v], mc[w]))
    for u in pool:
        for v, w in unions[u]:
            if v in ids and w not in ids:
                return CheckReport(False, "summand-assemble", (mc[u], mc[v], mc[w]))
    return CheckReport(True)


def close_category(tables: LevelTables, seeds, unital: bool = False) -> frozenset:
    """Least valid map-class set containing the seeds, closed under the
    rules of `_Ops.rules`."""
    ops = _ops_for(tables)
    seeds = _mask(ops.encode_all(tuple(sorted(m)) for m in seeds))
    closed = close(ops.rules, ops.core_mask(unital) | seeds)
    return frozenset(ops.classes[i] for i in _bits(closed))


# -- the category value type and conversions ------------------------------

class WeakIndexingCategory:
    """A weak indexing category at a cutoff, stored by its admissible
    components; full map-class sets are materialized on demand."""

    __slots__ = ("tables", "components")

    def __init__(self, tables: LevelTables, components, validate: bool = True):
        self.tables = tables
        self.components = frozenset(components)
        if validate:
            rep = system_check(self.to_system())
            if not rep:
                raise ValidationError(f"not a weak indexing category: {rep}")

    @property
    def group(self):
        return self.tables.group

    @property
    def cutoff(self):
        return self.tables.cutoff

    def __eq__(self, other):
        return (isinstance(other, WeakIndexingCategory)
                and self.tables is other.tables
                and self.components == other.components)

    def __hash__(self):
        return hash(self.components)

    def __le__(self, other):
        return self.components <= other.components

    def __repr__(self):
        return (f"WeakIndexingCategory({self.group.name}@{self.cutoff}, "
                f"{len(self.components)} components)")

    def contains_class(self, mc: tuple) -> bool:
        return all(comp in self.components for comp in mc)

    def map_classes(self) -> frozenset:
        """The map classes within the cutoff that lie in this category."""
        return frozenset(mc for mc in _ops_for(self.tables).classes
                         if self.contains_class(mc))

    def to_system(self) -> WeakIndexingSystem:
        """Admissible H-sets are those whose structure map lies in the
        category; conjugate levels are filled by transport."""
        t = self.tables
        return WeakIndexingSystem(
            t, _mask(i for i, (hi, cid) in enumerate(t.bit_class)
                     if component(t, hi, cid) in self.components),
            validate=False)

    @classmethod
    def from_system(cls, sys: WeakIndexingSystem) -> "WeakIndexingCategory":
        t = sys.tables
        adm = sys.admissible
        return cls(t, {(h, t.weyl_canonical(h, cid))
                       for h in t.lat.class_reps for cid in adm[h]},
                   validate=False)

    @classmethod
    def from_map_classes(cls, tables: LevelTables, classes
                         ) -> "WeakIndexingCategory":
        comps = {comp for mc in classes for comp in mc}
        return cls(tables, comps)


def i_trivial(tables: LevelTables) -> WeakIndexingCategory:
    return WeakIndexingCategory.from_system(f_trivial(tables))


def i_complete(tables: LevelTables) -> WeakIndexingCategory:
    return WeakIndexingCategory.from_system(f_complete(tables))


def generate_category(group: FiniteGroup, generators, unital: bool = False,
                      cutoff: int | None = None) -> WeakIndexingCategory:
    """Least weak indexing category containing the generating maps.

    The closure runs on the level encoding (the map-level fixpoint is
    equivalent but only feasible at very small cutoffs); the optional
    unitality flag adjoins the empty arity everywhere.
    """
    tables = level_tables(group, default_cutoff(group) if cutoff is None
                          else cutoff)
    seeds = [comp for f in generators for comp in map_class_of(tables, f)]
    sys = close_system(tables, seeds,
                       unital_levels=range(tables.n_sids) if unital else ())
    return WeakIndexingCategory.from_system(sys)


def enumerate_categories(group: FiniteGroup, cutoff: int,
                         which: str = "all") -> Poset:
    """Exhaustive map-class-set enumeration (the oracle path; small scale).

    Every valid class set is the closure of its members, so
    `closure_lattice` over all classes (with one more unary rule for
    "almost_unital") is exhaustive.
    """
    if which not in ("all", "unital", "almost_unital"):
        raise ValidationError(f"unknown filter {which!r}")
    t = level_tables(group, cutoff)
    ops = _ops_for(t)
    if len(ops.classes) > GROUND_GUARD:
        raise GuardExceededError(
            f"{len(ops.classes)} map classes exceed the guard of {GROUND_GUARD}")
    rules = ops.rules
    if which == "almost_unital":
        # a component other than the one-point fiber forces its level's unit
        rules = [(r[0] | _mask(ops.id_of[((h, t.empty(h)),)] for h, cid in mc
                               if cid != t.star(h)), *r[1:])
                 for mc, r in zip(ops.classes, rules)]
    found = closure_lattice(rules, ops.core_mask(which == "unital"),
                            (1 << len(ops.classes)) - 1)
    mask_of = {frozenset(ops.classes[i] for i in _bits(m)): m for m in found}
    return Poset.by_inclusion(list(mask_of), mask_of.__getitem__,
                              key=lambda n: (len(n), tuple(sorted(n))))
