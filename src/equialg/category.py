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
codomain meets a domain, pullbacks over one codomain, summands, and the
unions that fit the cutoff) are tables, `_Ops.operations`, built in one
pass on first use; the checker reads them, and the closure rules
`_Ops.rules` are read off them.  Closure and enumeration run on the
shared engine of `poset.close` and `poset.closure_lattice`, over int masks
of class ids.  The two encodings' rules are computed by independent
routines, so their agreement is a real check of the equivalence.
"""
from __future__ import annotations

import operator
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

    The components of c1 (the fibers of f over the orbits of S) are dealt
    to the orbit slots of the fibers of c2 one slot at a time, each moved
    to its slot's subgroup by a conjugation; a state is the components
    still to deal, the components of g∘f so far and the fiber being
    filled, so the orders of dealing that agree are merged as they meet.
    """
    if cod_class(tables, c1) != dom_class(tables, c2):
        return set()
    states = {(tuple(sorted(c1)), (), ())}
    for hj, cid in c2:
        to_hj = tables.h_class_rep[hj]
        for k in tables.classes[hj][cid]:
            base = tables.lat.class_rep(k)
            # each component that fits the slot, as the fibers it fills in
            moves = {comp: [tuple(to_hj[m] for m in tables.classes[k][moved])
                            for moved in _transports(tables, base, k, comp[1])]
                     for comp in set(c1) if comp[0] == base}
            states = {(rest, done, tuple(sorted(fiber + part)))
                      for left, done, fiber in states
                      for comp, rest in _picks(left, base)
                      for part in moves[comp]}
        filled = set()
        for left, done, fiber in states:
            fid = tables.encode(hj, fiber)
            if fid is None:
                raise tables.violation("composite exceeds its level",
                                       c1, c2, hj, fiber)
            comp = component(tables, hj, fid)
            filled.add((left, tuple(sorted(done + (comp,))), ()))
        states = filled
    return {done for _, done, _ in states}


def pullback_classes(tables: LevelTables, cf: tuple, cg: tuple) -> set:
    """All classes of the base change of cf: T -> S along cg: U -> S,
    as maps (T x_S U) -> U.  The components of cf are matched one at a
    time with those of cg over the same base, each pair contributing the
    restrictions of the fiber of cf to the orbits of the fiber of cg; a
    state is the components of cf still to match, the pullback so far and
    the size of its domain.  Unrepresentable pullbacks and those beyond
    the cutoff are skipped."""
    if cod_class(tables, cf) != cod_class(tables, cg):
        return set()
    pieces = {(g, f): _base_change(tables, g, f)
              for g in set(cg) for f in set(cf) if f[0] == g[0]}
    states = {(tuple(sorted(cf)), (), 0)}
    for g in sorted(cg):
        states = {(rest, tuple(sorted(acc + comps)), size + more)
                  for left, acc, size in states
                  for f, rest in _picks(left, g[0])
                  if pieces[g, f] is not None
                  for more, comps in [pieces[g, f]]
                  if size + more <= tables.cutoff}
    return {acc for _, acc, _ in states}


def _base_change(tables, g: tuple, f: tuple):
    """The pullback of the component f along the component g over the
    same base orbit: (size of its domain, its components), or None if a
    restriction is unrepresentable."""
    (h, fid_g), (_, fid_f) = g, f
    comps = []
    for k in tables.classes[h][fid_g]:
        rcid = tables.restrict_cls(h, k, fid_f)
        if rcid is None:
            return None
        comps.append(component(tables, k, rcid))
    return sum(comp_sizes(tables, c)[0] for c in comps), tuple(comps)


def sub_multisets(mc: tuple) -> set:
    """All proper nonempty sub-multisets of a component multiset."""
    out = set()
    n = len(mc)
    for bits in range(1, (1 << n) - 1):
        out.add(tuple(mc[i] for i in range(n) if bits >> i & 1))
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

    @cached_property
    def operations(self) -> tuple:
        """The pair operations on every class u, in one pass on first use:
        its composites, (v, mask of the classes of v∘u) for each v whose
        domain is the codomain of u; its pullbacks, (v, mask) along each v
        to its codomain; the mask of its proper summands; and its unions,
        (v, id of u + v) for each v whose disjoint union with u fits the
        cutoff.  Partners ascend."""
        t, mc, id_of = self.tables, self.classes, self.id_of
        by_dom = defaultdict(list)
        for v, d in enumerate(self.dom):
            by_dom[d].append(v)
        sizes = [class_sizes(t, c) for c in mc]
        composites, pullbacks, summands, unions = [], [], [], []
        for u, c in enumerate(mc):
            composites.append([
                (v, _mask(id_of[m] for m in compose_classes(t, c, mc[v])))
                for v in by_dom[self.cod[u]]])
            pullbacks.append([
                (v, _mask(id_of[m] for m in pullback_classes(t, c, mc[v])))
                for v in self.by_cod[self.cod[u]]])
            summands.append(_mask(id_of[m] for m in sub_multisets(c)))
            src, dst = sizes[u]
            unions.append([(v, id_of[tuple(sorted(c + mc[v]))])
                           for v, (s, d) in enumerate(sizes)
                           if src + s <= t.cutoff and dst + d <= t.cutoff])
        return composites, pullbacks, summands, unions

    @cached_property
    def rules(self) -> list:
        """The `poset.rule_table` over class ids: alone a class u forces
        its summands and its pullbacks along every map to its codomain;
        with a partner, the composites in both orders and the disjoint
        union (read once, from the lesser id)."""
        composites, pullbacks, summands, unions = self.operations
        unary = [_union(m for _, m in bases) | subs
                 for bases, subs in zip(pullbacks, summands)]
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
    composition, pullback stability, and both summand directions.  A class
    beyond the cutoff is a ValidationError."""
    ops = _ops_for(tables)
    ids = set(ops.encode_all(classes))
    mc = ops.classes
    for u in ops.isos:
        if u not in ids:
            return CheckReport(False, "wide", mc[u], "missing an isomorphism class")
    composites, pullbacks, summands, unions = ops.operations
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
        for w in _bits(summands[u]):
            if w not in ids:
                return CheckReport(False, "summand-split", (mc[u], mc[w]))
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
    `closure_lattice` over all classes is exhaustive.
    """
    if which not in ("all", "unital", "almost_unital"):
        raise ValidationError(f"unknown filter {which!r}")
    tables = level_tables(group, cutoff)
    ops = _ops_for(tables)
    if len(ops.classes) > GROUND_GUARD:
        raise GuardExceededError(
            f"{len(ops.classes)} map classes exceed the guard of {GROUND_GUARD}")
    found = closure_lattice(ops.rules, ops.core_mask(which == "unital"),
                            (1 << len(ops.classes)) - 1)
    nodes = [frozenset(ops.classes[i] for i in _bits(m)) for m in found]
    if which == "almost_unital":
        nodes = [n for n in nodes
                 if WeakIndexingCategory.from_map_classes(tables, n)
                 .to_system().is_almost_unital()]
    return Poset(nodes, leq=operator.le,
                 key=lambda n: (len(n), tuple(sorted(n))))
