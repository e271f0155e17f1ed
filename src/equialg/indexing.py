"""Weak indexing systems over a finite group, at a finite size cutoff.

A weak indexing system assigns to every subgroup H a set of isomorphism
classes of H-sets (the admissible arities at H) subject to four axiom
families: it contains the one-point H-set, it is stable under conjugation
and under restriction to subgroups, and it is closed under coproducts
indexed by its own admissible sets.

H-set classes are encoded as sorted multisets of orbit types, an orbit
type being an H-conjugacy-class representative of a subgroup of H.  The
finite encoding truncates level H at cutoff * |H| / |G| points, so that an
H-set is representable exactly when the G-set induced from it fits the
global cutoff; an empirical doubling test (enumerate at c and 2c) guards
the truncation.

A system is stored as one int mask over the tables' classes and nothing
else.  Closure, joins, meets and exhaustive enumeration build that mask
through `poset.close` and `poset.join` over `LevelTables.rules`; the
per-level id sets (`WeakIndexingSystem.admissible`) are a view derived
from it, and `LevelTables.mask_of` is the one conversion back.  Transfer
systems live here as well, on the same engine.  The equivalent encoding
by categories of G-set maps is in `category.py`; it shares the engine but
not the rules.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from functools import cached_property
from itertools import chain, product, repeat

from .errors import (CheckReport, CutoffOverflowError, GuardExceededError,
                     TheoremViolation, ValidationError, require_ints)
from .groups import FiniteGroup, orbits, subgroup_lattice
from .poset import Poset, _bits, _mask, close, closure_lattice, rule_table
from .poset import join as join_masks

LEVEL_GUARD = 1200      # level classes any enumeration accepts
ALL_LEVEL_GUARD = 80    # level classes the unfiltered "all" lattice accepts


class LevelTables:
    """Shared per-(group, cutoff) tables: orbit types, class interning and
    bit index, restriction / conjugation / coproduct on classes.

    Everything derived from one group and cutoff is kept here, so it
    lives exactly as long as the tables: orbit restrictions, every class's
    closure rules and the map-class operations of `category` (both built
    whole on first use), and the posets and cores of `enumerate_systems`.
    """

    def __init__(self, group: FiniteGroup, cutoff: int):
        if cutoff < group.order:
            # level e keeps at most cutoff // |G| points, so no one-point set
            raise ValidationError(f"cutoff {cutoff} is below the group order "
                                  f"{group.order}")
        self.group = group
        self.cutoff = cutoff
        self.lat = subgroup_lattice(group)
        self.n_sids = len(self.lat.nodes)
        self.members = [h.members for h in self.lat.nodes]
        self.sub_order = [h.order for h in self.lat.nodes]
        self.abelian = group.is_abelian()
        self.conj_sid = self.lat.conj_table  # [g][sid]: sid of g H g^-1
        # the first element of each distinct conj_sid row, in element order:
        # conj_cls reads its g only through that row
        rows = {}
        for g in group.elements:
            rows.setdefault(self.conj_sid[g], g)
        self.conj_reps = tuple(rows.values())
        self.sub_sids = []      # per H: sids of subgroups contained in H
        self.h_class_rep = []   # per H: {K sid -> H-conjugacy class rep sid}
        self.orbit_types = []   # per H: sorted tuple of rep sids
        self.level_cutoff = [cutoff * o // group.order for o in self.sub_order]
        for hi in range(self.n_sids):
            rep = _h_class_reps(self.lat, hi)
            self.sub_sids.append(tuple(rep))
            self.h_class_rep.append(rep)
            self.orbit_types.append(tuple(sorted(set(rep.values()))))
        self.res_orbit = {}  # [H, K, L]: Res^H_K (H/L), by cosets K\H/L
        for hi, types in enumerate(self.orbit_types):
            for ki, li in product(self.sub_sids[hi], types):
                km, lm = self.members[ki], self.members[li]
                out = []
                for orbit in orbits(self.lat.nodes[hi].embedding, lambda x: {
                        group.mul(group.mul(a, x), b) for a in km for b in lm}):
                    stab = km & frozenset(group.conj(orbit[0], b) for b in lm)
                    out.append(self.h_class_rep[ki][self.lat.index_of[stab]])
                self.res_orbit[hi, ki, li] = tuple(sorted(out))
        # interned H-set classes per level, sorted by (size, tuple)
        self.classes = []
        self.class_id = []
        self.cls_size = []
        for hi in range(self.n_sids):
            sizes, lst = zip(*self._enumerate_level(hi, self.level_cutoff[hi]))
            self.classes.append(list(lst))
            self.class_id.append({c: i for i, c in enumerate(lst)})
            self.cls_size.append(sizes)
        # class cid at level hi is bit offset[hi] + cid of a system's mask
        self.offset = []
        self.bit_class = []
        for hi, lst in enumerate(self.classes):
            self.offset.append(len(self.bit_class))
            self.bit_class.extend((hi, cid) for cid in range(len(lst)))
        self.posets: dict = {}      # enumerate_systems filter -> Poset
        self.cores: dict = {}       # (core, seed levels) -> joins over core
        self.map_ops = None         # category._Ops over every map class

    # -- raw helpers ---------------------------------------------------
    def orbit_size(self, hi: int, k: int) -> int:
        return self.sub_order[hi] // self.sub_order[k]

    def _enumerate_level(self, hi: int, bound: int) -> list:
        """(size, class) of each class of at most `bound` points, in order."""
        types = self.orbit_types[hi]
        out = []

        def rec(i, left, acc):
            if i == len(types):
                out.append((bound - left, tuple(acc)))
                return
            rec(i + 1, left, acc)
            size = self.orbit_size(hi, types[i])
            k = 1
            while k * size <= left:
                rec(i + 1, left - k * size, acc + [types[i]] * k)
                k += 1

        rec(0, bound, [])
        return sorted(out)

    def star(self, hi: int) -> int:
        """Class id of the one-point H-set."""
        return self.class_id[hi][(self.h_class_rep[hi][hi],)]

    def empty(self, hi: int) -> int:
        return self.class_id[hi][()]

    def encode(self, hi: int, cls: tuple):
        """Class id at level hi, or None if it exceeds the level cutoff."""
        return self.class_id[hi].get(tuple(sorted(cls)))

    def violation(self, message: str, *witness) -> TheoremViolation:
        """A `TheoremViolation` whose witness leads with group and cutoff."""
        return TheoremViolation(message,
                                (self.group.name, self.cutoff) + witness)

    def bit(self, hi: int, cid: int) -> int:
        """Bit of class cid at level hi; an id outside the level is a
        ValidationError, since its bit would name a class of another level."""
        if not 0 <= cid < len(self.classes[hi]):
            raise ValidationError(f"no class {cid!r} at level {hi}")
        return self.offset[hi] + cid

    def levels(self, mask: int) -> list:
        """Per-level class-id sets of a mask; `mask_of` is the inverse."""
        adm = [set() for _ in range(self.n_sids)]
        for i in _bits(mask):
            hi, cid = self.bit_class[i]
            adm[hi].add(cid)
        return adm

    def mask_of(self, levels) -> int:
        """Mask of per-level class-id sets, one set per subgroup; ids are
        range-checked by `bit`."""
        if len(levels) != self.n_sids:
            raise ValidationError("need one admissible set per subgroup")
        return _mask(self.bit(hi, cid)
                     for hi, ids in enumerate(levels) for cid in ids)

    def seed_mask(self, unital_levels=()) -> int:
        """The one-point set everywhere, the empty set at `unital_levels`."""
        off = self.offset
        return (_mask(off[hi] + self.star(hi) for hi in range(self.n_sids))
                | _mask(off[hi] + self.empty(hi) for hi in unital_levels))

    # -- operations on classes ----------------------------------------
    def restrict_cls(self, hi: int, ki: int, cid: int):
        """Restriction to an actual subgroup K <= H; None if unrepresentable."""
        out = []
        for li in self.classes[hi][cid]:
            out += self.res_orbit[hi, ki, li]
        return self.encode(ki, tuple(out))

    def conj_cls(self, g: int, hi: int, cid: int):
        """Transport a class at level H to level gHg^-1."""
        conj = self.conj_sid[g]
        hj = conj[hi]
        rep = self.h_class_rep[hj]
        res = self.encode(hj, tuple(rep[conj[k]] for k in self.classes[hi][cid]))
        if res is None:
            raise self.violation("conjugate exceeds its level", g, hi, cid)
        return (hj, res)

    def coproduct_single(self, hi: int, cid_s: int, ki: int, cid_t: int):
        """Replace one orbit slot of type K in S by the induction of T.

        This is the single-slot instance of the self-indexed coproduct; the
        general indexed coproduct is an iterated composition of such steps
        (shrinking slots first keeps intermediates within the cutoff), so
        closing under it closes under all indexed coproducts that fit.
        """
        cls = list(self.classes[hi][cid_s])
        cls.remove(ki)
        ind = self.classes[ki][cid_t]
        cls.extend(self.h_class_rep[hi][m] for m in ind)
        return self.encode(hi, tuple(cls))

    @cached_property
    def rules(self) -> list:
        """The `poset.rule_table` of every class bit, built on first use:
        alone a class forces its conjugates and restrictions; with a
        partner, the single-slot coproducts with either one in the slot."""
        off = self.offset

        def unary(hi, cid):
            u = 0
            if not self.abelian:
                for g in self.conj_reps:
                    hj, moved = self.conj_cls(g, hi, cid)
                    u |= 1 << (off[hj] + moved)
            for ki in self.sub_sids[hi]:
                res = self.restrict_cls(hi, ki, cid) if ki != hi else None
                if res is not None:
                    u |= 1 << (off[ki] + res)
            return u

        def coproducts():
            # T fits a slot of type K in S iff |T| <= (cut_H - |S|) // [H:K] + 1,
            # a prefix of level K's size-sorted classes; each built once
            for i, (hi, cid) in enumerate(self.bit_class):
                room = self.level_cutoff[hi] - self.cls_size[hi][cid]
                for ki in set(self.classes[hi][cid]):
                    fit = room // self.orbit_size(hi, ki) + 1
                    for tid in range(bisect_right(self.cls_size[ki], fit)):
                        out = self.coproduct_single(hi, cid, ki, tid)
                        if out is None:
                            raise self.violation("coproduct within the cutoff "
                                                 "not interned", hi, cid, ki, tid)
                        yield i, off[ki] + tid, 1 << (off[hi] + out)

        return rule_table([unary(hi, cid) for hi, cid in self.bit_class],
                          coproducts())

    def weyl_canonical(self, hi: int, cid: int) -> int:
        """Least class in the orbit of cid under the normalizer of H."""
        if self.abelian:
            return cid
        return min(self.conj_cls(g, hi, cid)[1] for g in self.conj_reps
                   if self.conj_sid[g][hi] == hi)


def _h_class_reps(lat, hi: int) -> dict:
    """{K sid: least sid among the H-conjugates of K} over the subgroups K
    of H = node hi of the lattice `lat`, by ascending K."""
    h = lat.nodes[hi].members
    return {k: min(lat.conj_table[g][k] for g in h)
            for k in range(len(lat.nodes)) if lat.leq[k][hi]}


def _count_level_classes(group: FiniteGroup, cutoff: int) -> int:
    """The number of level classes `LevelTables(group, cutoff)` interns,
    counted from the subgroup lattice alone (coin change over each level's
    orbit sizes), so a guard can refuse the tables before they are built."""
    lat = subgroup_lattice(group)
    total = 0
    for hi, h in enumerate(lat.nodes):
        # one coin per H-conjugacy class of subgroups K <= H, worth [H:K]
        reps = set(_h_class_reps(lat, hi).values())
        ways = [1] + [0] * (cutoff * h.order // group.order)
        for k in reps:
            size = h.order // lat.nodes[k].order
            for s in range(size, len(ways)):
                ways[s] += ways[s - size]
        total += sum(ways)
    return total


def _guard(total: int, limit: int, advice: str):
    if total > limit:
        raise GuardExceededError(
            f"{total} level classes exceed the guard of {limit}; {advice}")


_TABLES: dict = {}


def level_tables(group: FiniteGroup, cutoff: int) -> LevelTables:
    key = (group, cutoff)
    if key not in _TABLES:
        _TABLES[key] = LevelTables(group, cutoff)
    return _TABLES[key]


def default_cutoff(group: FiniteGroup) -> int:
    return 3 * group.order


class WeakIndexingSystem:
    """Admissible H-set classes for every subgroup H of a fixed group, stored
    as one mask over the tables' class bits: class cid at level H is bit
    `tables.offset[H] + cid`.  `admissible` is the per-level view of the
    mask, and `tables.mask_of` builds a mask from per-level id sets.

    With `validate=False` the mask is trusted, unchecked; `join` trusts
    both of its arguments to be closed, so an unclosed mask built this way
    gives a wrong join, with no error."""

    __slots__ = ("tables", "mask", "_key")

    def __init__(self, tables: LevelTables, mask: int, validate: bool = True):
        if (isinstance(mask, bool) or not isinstance(mask, int)
                or mask < 0 or mask >> len(tables.bit_class)):
            raise ValidationError(f"not a mask over the tables' "
                                  f"{len(tables.bit_class)} classes: {mask!r}")
        self.tables = tables
        self.mask = mask
        self._key = None
        if validate:
            rep = system_check(self)
            if not rep:
                raise ValidationError(f"not a weak indexing system: {rep}")

    @property
    def group(self):
        return self.tables.group

    @property
    def cutoff(self):
        return self.tables.cutoff

    @property
    def admissible(self) -> tuple:
        """Per-level frozensets of admissible class ids, read off the mask."""
        return tuple(map(frozenset, self.tables.levels(self.mask)))

    def value_key(self) -> tuple:
        """Canonical cutoff-independent content: class tuples per level."""
        if self._key is None:
            classes = self.tables.classes
            self._key = tuple(tuple(sorted(classes[hi][c] for c in adm))
                              for hi, adm in enumerate(self.admissible))
        return self._key

    def sort_key(self):
        return (self.mask.bit_count(), self.value_key())

    def __eq__(self, other):
        return (isinstance(other, WeakIndexingSystem)
                and self.tables is other.tables and self.mask == other.mask)

    def __hash__(self):
        return hash(self.mask)

    def __le__(self, other: "WeakIndexingSystem") -> bool:
        return not self.mask & ~other.mask

    def __repr__(self):
        sizes = [len(a) for a in self.admissible]
        return f"WeakIndexingSystem({self.group.name}@{self.cutoff}, levels={sizes})"

    # -- predicates ----------------------------------------------------
    def unit_family(self) -> frozenset:
        """Sids of the subgroups at which the empty set is admissible."""
        t = self.tables
        return frozenset(hi for hi in range(t.n_sids)
                         if self.mask >> (t.offset[hi] + t.empty(hi)) & 1)

    def is_unital(self) -> bool:
        return len(self.unit_family()) == self.tables.n_sids

    def is_almost_unital(self) -> bool:
        """Wherever any nontrivial arity is admissible, so is the empty set."""
        t = self.tables
        for hi in range(t.n_sids):
            level = self.mask >> t.offset[hi] & (1 << len(t.classes[hi])) - 1
            if level & ~(1 << t.star(hi)) and not level >> t.empty(hi) & 1:
                return False
        return True

    def is_summand_closed(self) -> bool:
        """Independent characterization: every summand (the empty one
        included) of an admissible set other than the one-point set is
        admissible.  Closure under nonempty summands alone is strictly
        weaker: a level admitting exactly the positive fold arities is
        closed under nonempty summands but not almost-unital."""
        t = self.tables
        for hi, adm in enumerate(self.admissible):
            for cid in adm:
                if cid == t.star(hi):
                    continue
                # each distinct sub-multiset once: a count per orbit type
                counts = Counter(t.classes[hi][cid])
                for take in product(*(range(m + 1) for m in counts.values())):
                    sub = tuple(chain.from_iterable(
                        repeat(o, k) for o, k in zip(counts, take)))
                    scid = t.encode(hi, sub)
                    if scid is not None and scid not in adm:
                        return False
        return True

    def to_json(self) -> str:
        import json
        t = self.tables
        levels = {}
        for hi, adm in enumerate(self.admissible):
            levels[str(sorted(t.members[hi]))] = sorted(
                sorted(sorted(t.members[k]) for k in t.classes[hi][c])
                for c in adm)
        return json.dumps({"group": self.group.name, "cutoff": self.cutoff,
                           "levels": levels},
                          sort_keys=True, separators=(",", ":"))


def system_check(sys: WeakIndexingSystem) -> CheckReport:
    """Validity report: units, conjugation, restriction, self-indexed
    coproducts (single-slot form; see LevelTables.coproduct_single)."""
    t = sys.tables
    adm = sys.admissible
    for hi in range(t.n_sids):
        if t.star(hi) not in adm[hi]:
            return CheckReport(False, "unit", (hi,))
    if not t.abelian:
        for g in t.group.elements:
            for hi in range(t.n_sids):
                for cid in adm[hi]:
                    hj, moved = t.conj_cls(g, hi, cid)
                    if moved not in adm[hj]:
                        return CheckReport(False, "conjugation", (g, hi, cid))
    for hi in range(t.n_sids):
        for cid in sorted(adm[hi]):
            for ki in t.sub_sids[hi]:
                if ki == hi:
                    continue
                res = t.restrict_cls(hi, ki, cid)
                if res is not None and res not in adm[ki]:
                    return CheckReport(False, "restriction", (hi, cid, ki, res))
    for hi in range(t.n_sids):
        for cid in sorted(adm[hi]):
            for ki in set(t.classes[hi][cid]):
                for tid in sorted(adm[ki]):
                    out = t.coproduct_single(hi, cid, ki, tid)
                    if out is not None and out not in adm[hi]:
                        return CheckReport(False, "indexed-coproduct",
                                           (hi, cid, ki, tid, out))
    return CheckReport(True)


def close_system(tables: LevelTables, seed, unital_levels=()) -> WeakIndexingSystem:
    """Least weak indexing system containing the seed (level, class-id) pairs.

    Results exceeding a level cutoff are unrepresentable and simply not
    recorded; the doubling test in the enumeration covers the truncation.
    """
    t = tables
    seeds = t.seed_mask(unital_levels) | _mask(t.bit(hi, cid) for hi, cid in seed)
    return WeakIndexingSystem(t, close(t.rules, seeds), validate=False)


def join(a: WeakIndexingSystem, b: WeakIndexingSystem) -> WeakIndexingSystem:
    """Least system above both; `a` and `b` must both be weak indexing
    systems, since `poset.join` applies only the rules across their
    differences."""
    if a.tables is not b.tables:
        raise ValidationError("join needs a shared group and cutoff")
    t = a.tables
    return WeakIndexingSystem(t, join_masks(t.rules, a.mask, b.mask),
                              validate=False)


def meet(a: WeakIndexingSystem, b: WeakIndexingSystem) -> WeakIndexingSystem:
    if a.tables is not b.tables:
        raise ValidationError("meet needs a shared group and cutoff")
    out = WeakIndexingSystem(a.tables, a.mask & b.mask, validate=False)
    rep = system_check(out)
    if not rep:
        raise TheoremViolation(
            "the meet of two weak indexing systems is not one",
            (a.group.name, a.cutoff, rep))
    return out


# -- named systems ------------------------------------------------------

def f_trivial(tables: LevelTables) -> WeakIndexingSystem:
    return WeakIndexingSystem(tables, tables.seed_mask(), validate=False)


def f_infinity(tables: LevelTables) -> WeakIndexingSystem:
    """All finite multisets of one-point sets at every level."""
    adm = []
    for hi in range(tables.n_sids):
        star_type = tables.h_class_rep[hi][hi]
        adm.append({cid for cid, cls in enumerate(tables.classes[hi])
                    if all(k == star_type for k in cls)})
    return WeakIndexingSystem(tables, tables.mask_of(adm), validate=False)


def f_zero(tables: LevelTables, family) -> WeakIndexingSystem:
    """Empty and one-point sets on a downward-closed family of subgroups."""
    family = frozenset(family)
    require_ints(tuple(family), "subgroup family")
    if not family <= set(range(tables.n_sids)):
        raise ValidationError(f"subgroup ids must lie in range({tables.n_sids})")
    for hi in family:
        for ki in tables.sub_sids[hi]:
            if ki not in family:
                raise ValidationError("family must be downward closed")
    return WeakIndexingSystem(tables, tables.seed_mask(family), validate=False)


def f_complete(tables: LevelTables) -> WeakIndexingSystem:
    return WeakIndexingSystem(tables, (1 << len(tables.bit_class)) - 1,
                              validate=False)


# -- enumeration --------------------------------------------------------

def _families(tables: LevelTables):
    """Downward-closed, conjugation-stable subgroup families, as sid sets:
    the closed sets where H forces its subgroups and its conjugates."""
    t = tables
    unary = [_mask(t.sub_sids[hi]) | _mask(row[hi] for row in t.conj_sid)
             for hi in range(t.n_sids)]
    found = closure_lattice(rule_table(unary, ()), 0, (1 << t.n_sids) - 1)
    return sorted((frozenset(_bits(m)) for m in found),
                  key=lambda f: (len(f), sorted(f)))


def enumerate_systems(group: FiniteGroup, cutoff: int | None = None,
                      which: str = "all") -> Poset:
    """All weak indexing systems at the cutoff, as a poset under containment.

    `which` is one of "all", "unital", "almost_unital".  Every system is
    the closure of a closed core and some classes, so `closure_lattice`
    over the classes is exhaustive.  The unfiltered lattice is not
    finite in the large-cutoff limit (fold arities may live in proper
    numerical submonoids), so "all" is guarded to small ground sets; the
    unital and almost-unital posets are finite and saturate.
    """
    if which not in ("all", "unital", "almost_unital"):
        raise ValidationError(f"unknown filter {which!r}")
    cutoff = default_cutoff(group) if cutoff is None else cutoff
    _guard(_count_level_classes(group, cutoff), LEVEL_GUARD,
           "lower the cutoff")
    t = level_tables(group, cutoff)
    if which in t.posets:
        return t.posets[which]
    if which == "all":
        _guard(len(t.bit_class), ALL_LEVEL_GUARD, "that guard is for the "
               "unfiltered 'all'; filter 'unital' or 'almost_unital' (guarded "
               f"at {LEVEL_GUARD}), or lower the cutoff")
        found = _enumerate_over_core(t, core_levels=(), seed_levels=range(t.n_sids))
    elif which == "unital":
        found = _enumerate_over_core(t, core_levels=range(t.n_sids),
                                     seed_levels=range(t.n_sids))
    else:
        # closing at the family's levels stays there, so every node is
        # almost-unital with exactly that unit family: no filter, no repeats
        found = [s for fam in _families(t)
                 for s in _enumerate_over_core(t, core_levels=sorted(fam),
                                               seed_levels=sorted(fam))]
    poset = Poset.by_inclusion(found, lambda s: s.mask,
                               key=lambda s: s.sort_key())
    t.posets[which] = poset
    return poset


def _enumerate_over_core(tables, core_levels, seed_levels):
    t = tables
    key = (tuple(core_levels), tuple(seed_levels))
    if key not in t.cores:
        candidates = _mask(t.offset[hi] + cid for hi in seed_levels
                           for cid in range(len(t.classes[hi])))
        try:
            found = closure_lattice(t.rules, t.seed_mask(core_levels),
                                    candidates)
        except GuardExceededError as exc:
            raise GuardExceededError(
                f"{exc}; a filter or a lower cutoff gives fewer") from None
        t.cores[key] = [WeakIndexingSystem(t, m, validate=False)
                        for m in found]
    return t.cores[key]


def truncate_system(sys: WeakIndexingSystem, tables_small: LevelTables
                    ) -> WeakIndexingSystem:
    """Restrict a system to the (smaller) cutoff of `tables_small`."""
    t_big, t_small = sys.tables, tables_small
    if t_big.group != t_small.group or t_small.cutoff > t_big.cutoff:
        raise ValidationError("truncation needs the same group, smaller cutoff")
    adm = [{t_small.encode(hi, t_big.classes[hi][cid]) for cid in big} - {None}
           for hi, big in enumerate(sys.admissible)]
    return WeakIndexingSystem(t_small, t_small.mask_of(adm), validate=False)


# -- transfer systems ----------------------------------------------------

class TransferSystem:
    """A relation on subgroups refining containment, closed under
    conjugation and restriction; stored as reflexive sid pairs."""

    __slots__ = ("group", "lat", "rel")

    def __init__(self, group: FiniteGroup, rel, validate: bool = True):
        self.group = group
        self.lat = subgroup_lattice(group)
        n = len(self.lat.nodes)
        if validate:
            rel = tuple(rel)
            require_ints(rel, "transfer system pairs")
            if any(not 0 <= sid < n for pair in rel for sid in pair):
                raise ValidationError(f"subgroup ids must lie in range({n})")
        self.rel = frozenset((a, b) for a, b in rel) | frozenset(
            (i, i) for i in range(n))
        if validate:
            rep = transfer_check(self)
            if not rep:
                raise ValidationError(f"not a transfer system: {rep}")

    def related(self, ki: int, hi: int) -> bool:
        return (ki, hi) in self.rel

    def nontrivial_pairs(self) -> tuple:
        return tuple(sorted(p for p in self.rel if p[0] != p[1]))

    def sort_key(self):
        return (len(self.rel), tuple(sorted(self.rel)))

    def __eq__(self, other):
        return (isinstance(other, TransferSystem)
                and self.group == other.group and self.rel == other.rel)

    def __hash__(self):
        return hash((self.group, self.rel))

    def __le__(self, other: "TransferSystem") -> bool:
        return self.rel <= other.rel

    def __repr__(self):
        return f"TransferSystem({self.group.name}, {self.nontrivial_pairs()})"


def transfer_check(ts: TransferSystem) -> CheckReport:
    lat = ts.lat
    for k, h in ts.rel:
        if not lat.leq[k][h]:
            return CheckReport(False, "refines-containment", (k, h))
    for k, h in ts.rel:
        for k2, h2 in ts.rel:
            if h == k2 and (k, h2) not in ts.rel:
                return CheckReport(False, "transitivity", (k, h, h2))
    for g, conj in enumerate(lat.conj_table):  # [sid]: sid of g H g^-1
        for k, h in ts.rel:
            if (conj[k], conj[h]) not in ts.rel:
                return CheckReport(False, "conjugation", (g, k, h))
    for k, h in ts.rel:
        for l in range(len(lat.nodes)):
            if not lat.leq[l][h]:
                continue
            m = lat.index_of[lat.nodes[k].members & lat.nodes[l].members]
            if (m, l) not in ts.rel:
                return CheckReport(False, "restriction", (k, h, l))
    return CheckReport(True)


def transfer_system_of(sys: WeakIndexingSystem) -> TransferSystem:
    """K -> H transfer allowed iff the orbit H/K is admissible at H.

    Only defined for unital systems.  A valid system's relation is a
    transfer system unless the cutoff truncates a restriction it needs
    (Res^G_L(G/1) at a small cutoff): then CutoffOverflowError, with
    witness (group, cutoff, failed transfer check).
    """
    if not sys.is_unital():
        raise ValidationError("transfer extraction needs a unital system")
    t = sys.tables
    rel = set()
    for hi in range(t.n_sids):
        for ki in t.sub_sids[hi]:
            orbit = t.encode(hi, (t.h_class_rep[hi][ki],))
            if orbit is not None and sys.mask >> (t.offset[hi] + orbit) & 1:
                rel.add((ki, hi))
    ts = TransferSystem(sys.group, rel, validate=False)
    rep = transfer_check(ts)
    if not rep:
        if not system_check(sys):
            raise ValidationError("not a weak indexing system")
        raise CutoffOverflowError(
            f"{sys.group.name} at cutoff {sys.cutoff} truncates the "
            f"transfer system: {rep}", (sys.group.name, sys.cutoff, rep))
    return ts


def enumerate_transfer_systems(group: FiniteGroup) -> Poset:
    """All transfer systems, ordered by inclusion: the closed sets of
    strict containment pairs K < H, where a pair forces its conjugates and
    its restrictions (K ∩ L, L) for the L <= H not in K, and (K, H) with
    (H, L) forces (K, L)."""
    lat = subgroup_lattice(group)
    n = len(lat.nodes)
    strict = [(k, h) for k in range(n) for h in range(n)
              if k != h and lat.leq[k][h]]
    bit = {pair: i for i, pair in enumerate(strict)}
    members = [x.members for x in lat.nodes]
    unary = [_mask(bit[row[k], row[h]] for row in lat.conj_table)
             | _mask(bit[lat.index_of[members[k] & members[l]], l]
                     for l in range(n) if lat.leq[l][h] and not lat.leq[l][k])
             for k, h in strict]
    rules = rule_table(unary, ((bit[k, h], bit[h, l], 1 << bit[k, l])
                               for k, h in strict for l in range(n)
                               if l != h and lat.leq[h][l]))
    found = {TransferSystem(group, [strict[i] for i in _bits(m)],
                            validate=False): m
             for m in closure_lattice(rules, 0, (1 << len(strict)) - 1)}
    return Poset.by_inclusion(found, found.__getitem__,
                              key=TransferSystem.sort_key)
