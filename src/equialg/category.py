"""Weak indexing categories: the encoding by classes of G-set maps.

A map of finite G-sets decomposes over the orbits of its codomain; over an
orbit with stabilizer H the map is induced from its fiber, an H-set.  The
isomorphism class of a map is therefore a multiset of components
(conjugacy class of H, fiber class up to the normalizer twist), and a wide
pullback-stable subcategory satisfying the summand condition is exactly a
set of map classes determined by its admissible components.

This module works with explicit map-class sets: a literal validity checker
and closure (composition via matchings, pullback against arbitrary maps,
summand splitting and assembly, all isomorphisms), an exhaustive
enumeration at small scale, and the conversions to and from the system
encoding of `indexing.py`.  Closure and enumeration run on the shared
engine of `poset.close` and `poset.closure_lattice`, over int masks of
class ids, with rules (`_Ops.rules`) built here from composites,
pullbacks, summands and unions.  The two encodings' rules are computed by
independent routines, so their agreement is a real check of the
equivalence.
"""
from __future__ import annotations

import operator
from collections import defaultdict
from itertools import permutations

from .errors import (CheckReport, CutoffOverflowError, GuardExceededError,
                     ValidationError)
from .groups import FiniteGroup
from .gsets import GSetMap
from .indexing import (LevelTables, WeakIndexingSystem, close_system,
                       default_cutoff, f_complete, f_trivial, level_tables,
                       system_check)
from .poset import Poset, _bits, _mask, close, closure_lattice

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
    return (tables.size(hi, cid) * index, index)


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
        types = []
        seen = set()
        for x in fiber:
            if x in seen:
                continue
            sub_orbit = {f.src.act[g][x] for g in stab}
            seen |= sub_orbit
            k = lat.index_of[f.src.stabilizer(min(sub_orbit)).members]
            types.append(tables.h_class_rep[hi][k])
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

def _matchings(left, right):
    """Distinct bijections left_i -> right_{perm(i)} between equal-size lists."""
    seen = set()
    for perm in permutations(range(len(right))):
        assignment = tuple(right[p] for p in perm)
        if assignment not in seen:
            seen.add(assignment)
            yield assignment


def _transports(tables, src_level, dst_level, cid):
    """Distinct conjugation transports of a class between conjugate levels."""
    outs = set()
    for g in tables.conj_reps:
        if tables.conj_sid[g][src_level] == dst_level:
            hj, moved = tables.conj_cls(g, src_level, cid)
            outs.add(moved)
    return sorted(outs)


def compose_classes(tables: LevelTables, c1: tuple, c2: tuple) -> set:
    """All classes of g∘f over representatives f in c1: T -> S, g in c2: S -> R.

    A representative pairing matches the orbit slots of the fibers of c2
    (the orbits of S) with the components of c1, type by type; each
    matching assembles composite fibers as indexed coproducts.
    """
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
    if sorted(fibers_by_type) != types:
        raise tables.violation("middle orbit types differ", c1, c2)
    per_type = [list(_matchings(slots_by_type[t], fibers_by_type[t]))
                for t in types]
    results = set()

    def assemble(ti, chosen):
        if ti == len(types):
            # chosen: per type, fibers aligned with slots_by_type[type]
            options = [[]]
            for t, fibers in zip(types, chosen):
                for (j, k), (rep, fid) in zip(slots_by_type[t], fibers):
                    branches = _transports(tables, rep, k, fid)
                    options = [opt + [(j, k, b)] for opt in options
                               for b in branches]
            for opt in options:
                fibers_out = [list() for _ in c2]
                for (j, k, fid_k) in opt:
                    hj = c2[j][0]
                    fibers_out[j].extend(tables.h_class_rep[hj][m]
                                         for m in tables.classes[k][fid_k])
                comps = []
                for j, (hj, _) in enumerate(c2):
                    cid = tables.encode(hj, tuple(fibers_out[j]))
                    if cid is None:
                        raise tables.violation("composite exceeds its level",
                                               c1, c2, hj, fibers_out[j])
                    comps.append(component(tables, hj, cid))
                results.add(tuple(sorted(comps)))
            return
        for m in per_type[ti]:
            assemble(ti + 1, chosen + [m])

    assemble(0, [])
    return results


def pullback_classes(tables: LevelTables, cf: tuple, cg: tuple) -> set:
    """All classes of the base change of cf: T -> S along cg: U -> S,
    as maps (T x_S U) -> U.  Matchings pair the components of the two maps
    over the shared codomain; unrepresentable pullbacks are skipped."""
    if cod_class(tables, cf) != cod_class(tables, cg):
        return set()
    f_by_type = defaultdict(list)
    g_by_type = defaultdict(list)
    for comp in cf:
        f_by_type[comp[0]].append(comp)
    for comp in cg:
        g_by_type[comp[0]].append(comp)
    types = sorted(f_by_type)
    per_type = [list(_matchings(g_by_type[t], f_by_type[t])) for t in types]
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
                if h != h2:
                    raise tables.violation("matched bases differ", cf, cg, h, h2)
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


def sub_multisets(mc: tuple) -> set:
    """All proper nonempty sub-multisets of a component multiset."""
    out = set()
    n = len(mc)
    for bits in range(1, (1 << n) - 1):
        out.add(tuple(mc[i] for i in range(n) if bits >> i & 1))
    return out


class _Ops:
    """Interned map classes of one `LevelTables`, lazily cached pair
    operations on their ids and the closure rules built from them.  Ids
    follow the sorted universe, so sorting ids sorts the classes."""

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
        self._compose: dict = {}
        self._pullback: dict = {}
        self._subs: dict = {}
        self._union: dict = {}
        self._rules: dict = {}

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

    def compose(self, u: int, v: int):
        if self.cod[u] != self.dom[v]:
            return ()
        key = (u, v)
        if key not in self._compose:
            out = compose_classes(self.tables, self.classes[u], self.classes[v])
            self._compose[key] = tuple(sorted(self.id_of[m] for m in out))
        return self._compose[key]

    def pullback(self, u: int, v: int):
        key = (u, v)
        if key not in self._pullback:
            out = pullback_classes(self.tables, self.classes[u], self.classes[v])
            self._pullback[key] = tuple(sorted(self.id_of[m] for m in out))
        return self._pullback[key]

    def subs(self, u: int):
        if u not in self._subs:
            self._subs[u] = tuple(sorted(self.id_of[m]
                                         for m in sub_multisets(self.classes[u])))
        return self._subs[u]

    def union(self, u: int, v: int) -> int:
        key = (u, v) if u <= v else (v, u)
        if key not in self._union:
            merged = tuple(sorted(self.classes[u] + self.classes[v]))
            src, dst = class_sizes(self.tables, merged)
            if src <= self.tables.cutoff and dst <= self.tables.cutoff:
                self._union[key] = self.id_of[merged]
            else:
                self._union[key] = -1
        return self._union[key]

    def rules(self, u: int):
        """The closure rules of class u, as bitmasks over ids: the classes
        u forces alone (its summands, its pullbacks along every map to its
        codomain), the mask of partners v that force something together
        with u, and per partner (keyed by its one-bit mask) the classes the
        pair forces (composites in both orders and the disjoint union)."""
        if u not in self._rules:
            unary = _mask(self.subs(u))
            for g in self.by_cod[self.cod[u]]:
                unary |= _mask(self.pullback(u, g))
            forced = {}
            for v in range(len(self.classes)):
                out = _mask(self.compose(u, v)) | _mask(self.compose(v, u))
                w = self.union(u, v)
                if w >= 0:
                    out |= 1 << w
                if out:
                    forced[1 << v] = out
            self._rules[u] = (unary, sum(forced), forced)
        return self._rules[u]


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
    pool = sorted(ids)
    for u in pool:
        for v in pool:
            for w in ops.compose(u, v):
                if w not in ids:
                    return CheckReport(False, "composition", (mc[u], mc[v], mc[w]))
    for u in pool:
        for v in ops.by_cod[ops.cod[u]]:
            for w in ops.pullback(u, v):
                if w not in ids:
                    return CheckReport(False, "pullback", (mc[u], mc[v], mc[w]))
    for u in pool:
        for w in ops.subs(u):
            if w not in ids:
                return CheckReport(False, "summand-split", (mc[u], mc[w]))
    for u in pool:
        for v in pool:
            w = ops.union(u, v)
            if w >= 0 and w not in ids:
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

    def contains(self, f: GSetMap) -> bool:
        return self.contains_class(map_class_of(self.tables, f))

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
