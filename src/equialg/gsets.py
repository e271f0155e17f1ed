"""The category of finite G-sets: orbits, equivariant maps, pullbacks,
induction / restriction / coinduction, fixed points, double cosets, spans.

G-sets are points 0..n-1 with an explicit action table; isomorphism is
decided by the multiset of stabilizer conjugacy classes, which classifies
finite G-sets.  All operations are pure; values are immutable.  One
routine owns each fact: `_cosets` every coset list, `_coset_moves` the
coset transporters of induction (left cosets) and coinduction (right),
`groups.orbits` every orbit partition (`GSet.orbits`, `double_cosets`),
and `GSet.transversal` the least element carrying a point to another.
"""
from __future__ import annotations

import json
from itertools import product

from .errors import (GuardExceededError, TheoremViolation, ValidationError,
                     require_ints)
from .groups import FiniteGroup, Subgroup, orbits, subgroup_lattice

COINDUCE_GUARD = 100_000  # points a coinduction may materialize


def _cosets(group: FiniteGroup, members, right: bool = False):
    """The left cosets gH (right cosets Hg if `right`) of the subgroup H
    with the given members, each a sorted tuple, in sorted order, and the
    map from each element to the index of its coset."""
    cosets = sorted({tuple(sorted(group.mul(a, g) if right else group.mul(g, a)
                                  for a in members)) for g in group.elements})
    return cosets, {x: i for i, c in enumerate(cosets) for x in c}


def _coset_moves(h: Subgroup, right: bool = False) -> list:
    """Per element g and coset i of H (left cosets r_i H, or right cosets
    H r_i if `right`; r_i is the least member), the pair (j, local id of
    x) with g r_i = r_j x (r_i g = x r_j if `right`).  An x outside H is
    a TheoremViolation with witness (group, g, i)."""
    group = h.parent
    cosets, coset_of = _cosets(group, h.members, right)
    reps = [c[0] for c in cosets]
    moves = []
    for g in group.elements:
        row = []
        for i, r in enumerate(reps):
            moved = group.mul(r, g) if right else group.mul(g, r)
            j = coset_of[moved]
            inv = group.inv_table[reps[j]]
            x = group.mul(moved, inv) if right else group.mul(inv, moved)
            if x not in h.members:
                raise TheoremViolation("coset transporter is not in H",
                                       (group.name, g, i))
            row.append((j, h.to_local(x)))
        moves.append(row)
    return moves


class GSet:
    """A finite G-set: act[g][x] is the action of element g on point x."""

    __slots__ = ("group", "size", "act", "_orbits")

    def __init__(self, group: FiniteGroup, act, validate: bool = True):
        act = tuple(map(tuple, act))
        if len(act) != group.order:
            raise ValidationError("action table needs one row per group element")
        size = len(act[0]) if act else 0
        self.group = group
        self.size = size
        self.act = act
        self._orbits = None
        if validate:
            self._check()

    def _check(self):
        g, n = self.group, self.size
        require_ints(self.act, "action table")
        for row in self.act:
            if len(row) != n or any(not 0 <= x < n for x in row):
                raise ValidationError("action rows must be maps on 0..n-1")
        for x in range(n):
            if self.act[g.identity][x] != x:
                raise ValidationError("identity must act trivially")
        for a in g.elements:
            for b in g.elements:
                ab = g.mul(a, b)
                for x in range(n):
                    if self.act[a][self.act[b][x]] != self.act[ab][x]:
                        raise ValidationError(
                            f"action law fails at g={a}, h={b}, x={x}")

    @property
    def points(self) -> range:
        return range(self.size)

    def __eq__(self, other):
        return (isinstance(other, GSet) and self.group == other.group
                and self.act == other.act)

    def __hash__(self):
        return hash((self.group, self.act))

    def __repr__(self):
        return f"GSet({self.group.name}, {self.size} points)"

    @classmethod
    def empty(cls, group: FiniteGroup) -> "GSet":
        return cls(group, [[] for _ in group.elements], validate=False)

    @classmethod
    def trivial(cls, group: FiniteGroup, n: int = 1) -> "GSet":
        return cls(group, [list(range(n)) for _ in group.elements], validate=False)

    @classmethod
    def orbit(cls, group: FiniteGroup, stab: Subgroup) -> "GSet":
        """The orbit G/H on left cosets of H, sorted lexicographically."""
        if stab.parent != group:
            raise ValidationError("stabilizer is not a subgroup of the group")
        cosets, coset_of = _cosets(group, stab.members)
        act = [[coset_of[group.mul(g, c[0])] for c in cosets]
               for g in group.elements]
        return cls(group, act, validate=False)

    @classmethod
    def regular(cls, group: FiniteGroup) -> "GSet":
        return cls.orbit(group, Subgroup(group, {group.identity}))

    def disjoint_union(self, other: "GSet") -> "GSet":
        if self.group != other.group:
            raise ValidationError("disjoint union needs a shared group")
        n = self.size
        act = [list(self.act[g]) + [x + n for x in other.act[g]]
               for g in self.group.elements]
        return GSet(self.group, act, validate=False)

    __add__ = disjoint_union

    def orbits(self) -> list:
        """Orbits as sorted point lists, ordered by least point."""
        if self._orbits is None:
            self._orbits = orbits(self.points,
                                  lambda x: {row[x] for row in self.act})
        return self._orbits

    def transversal(self, x: int) -> dict:
        """{y: least g with g.x = y} over the orbit of x, by ascending y."""
        # over descending g, the least g carrying x to y is written last
        return dict(sorted({self.act[g][x]: g
                            for g in reversed(self.group.elements)}.items()))

    def stabilizer(self, x: int) -> Subgroup:
        return Subgroup(self.group,
                        {g for g in self.group.elements if self.act[g][x] == x})

    def to_json(self) -> str:
        data = {"group": self.group.name, "points": self.size,
                "act": [list(row) for row in self.act]}
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str, group: FiniteGroup) -> "GSet":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad G-set JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValidationError("G-set JSON must be an object")
        if data.get("group") not in (None, group.name):
            raise ValidationError("G-set JSON names a different group")
        try:
            require_ints([data["act"], data.get("points", 0)], "G-set JSON")
            s = cls(group, data["act"])
        except (KeyError, TypeError) as exc:
            raise ValidationError("G-set JSON missing or malformed field: "
                                  f"{exc}") from exc
        if "points" in data and data["points"] != s.size:
            raise ValidationError("declared point count does not match table")
        return s


def orbit_decompose(s: GSet) -> list:
    """Multiset of stabilizer conjugacy classes as sorted
    ((order, member tuple of class representative), multiplicity) pairs."""
    lat = subgroup_lattice(s.group)
    counts: dict = {}
    for orbit in s.orbits():
        stab = s.stabilizer(orbit[0])
        rep = lat.class_rep(lat.index_of[stab.members])
        key = lat.nodes[rep].key
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())


def from_orbit_types(group: FiniteGroup, types) -> GSet:
    """Disjoint union of orbits G/H for the listed stabilizer subgroups."""
    out = GSet.empty(group)
    for h in types:
        out = out + GSet.orbit(group, h)
    return out


def is_isomorphic(s: GSet, t: GSet) -> bool:
    return s.group == t.group and orbit_decompose(s) == orbit_decompose(t)


def fixed_points(s: GSet, h: Subgroup) -> list:
    """Points of s fixed by every element of h."""
    return [x for x in s.points
            if all(s.act[m][x] == x for m in h.members)]


class GSetMap:
    """An equivariant map of G-sets over a shared group."""

    __slots__ = ("src", "dst", "on_points")

    def __init__(self, src: GSet, dst: GSet, on_points, validate: bool = True):
        on_points = tuple(on_points)
        if validate:
            require_ints(on_points, "map values")
        if len(on_points) != src.size:
            raise ValidationError("map must be defined on every source point")
        if any(not 0 <= y < dst.size for y in on_points):
            raise ValidationError("map image out of range")
        self.src = src
        self.dst = dst
        self.on_points = on_points
        if validate:
            if src.group != dst.group:
                raise ValidationError("source and target over different groups")
            for g in src.group.elements:
                for x in src.points:
                    if on_points[src.act[g][x]] != dst.act[g][on_points[x]]:
                        raise ValidationError(
                            f"equivariance fails at g={g}, x={x}")

    def __call__(self, x: int) -> int:
        return self.on_points[x]

    def __eq__(self, other):
        return (isinstance(other, GSetMap) and self.src == other.src
                and self.dst == other.dst and self.on_points == other.on_points)

    def __hash__(self):
        return hash((self.src, self.dst, self.on_points))

    def __repr__(self):
        return f"GSetMap({self.src.size}->{self.dst.size} over {self.src.group.name})"

    @classmethod
    def identity(cls, s: GSet) -> "GSetMap":
        return cls(s, s, range(s.size), validate=False)

    def compose(self, other: "GSetMap") -> "GSetMap":
        """self after other."""
        if other.dst != self.src:
            raise ValidationError("composition needs matching middle object")
        return GSetMap(other.src, self.dst,
                       [self.on_points[y] for y in other.on_points],
                       validate=False)

    def is_iso(self) -> bool:
        return (self.src.size == self.dst.size
                and len(set(self.on_points)) == self.src.size)


def orbit_projection(group: FiniteGroup, k: Subgroup, h: Subgroup) -> GSetMap:
    """The canonical map G/K -> G/H sending gK to gH; requires K <= H."""
    if not k.members <= h.members:
        raise ValidationError("orbit projection needs K <= H")
    src = GSet.orbit(group, k)
    dst = GSet.orbit(group, h)
    _, h_coset_of = _cosets(group, h.members)
    on = [h_coset_of[c[0]] for c in _cosets(group, k.members)[0]]
    return GSetMap(src, dst, on, validate=False)


def terminal_map(s: GSet) -> GSetMap:
    return GSetMap(s, GSet.trivial(s.group), [0] * s.size, validate=False)


def pullback(f: GSetMap, g: GSetMap):
    """Pullback of f: T -> S along g: U -> S.

    Returns (P, p_f, p_g) with P = {(t, u) | f(t) = g(u)} and projections
    p_f: P -> T, p_g: P -> U.
    """
    if f.dst != g.dst:
        raise ValidationError("pullback needs a common codomain")
    pts = [(t, u) for t in f.src.points for u in g.src.points
           if f.on_points[t] == g.on_points[u]]
    index = {p: i for i, p in enumerate(pts)}
    act = [[index[(f.src.act[a][t], g.src.act[a][u])] for (t, u) in pts]
           for a in f.src.group.elements]
    p = GSet(f.src.group, act, validate=False)
    p_f = GSetMap(p, f.src, [t for (t, _) in pts], validate=False)
    p_g = GSetMap(p, g.src, [u for (_, u) in pts], validate=False)
    return p, p_f, p_g


def induce(h: Subgroup, s: GSet) -> GSet:
    """G x_H s for an H-set s given over h.as_group().

    Points are (coset of h, point of s) pairs in canonical order; the
    result has [G:H] * |s| points.
    """
    group = h.parent
    if s.group != h.as_group():
        raise ValidationError("induce expects a set over h.as_group()")
    n = s.size
    act = [[j * n + s.act[hl][x] for (j, hl) in row for x in s.points]
           for row in _coset_moves(h)]
    return GSet(group, act, validate=False)


def restrict(h: Subgroup, s: GSet) -> GSet:
    """Forget a G-set to an h.as_group()-set."""
    if s.group != h.parent:
        raise ValidationError("restrict expects a set over the parent group")
    act = [s.act[a] for a in h.embedding]
    return GSet(h.as_group(), act, validate=False)


def coinduce(h: Subgroup, s: GSet) -> GSet:
    """Map_H(G, s) for an H-set s over h.as_group(); |result| = |s|^[G:H].

    The full mapping set is materialized (no orbit pruning), so the size
    guard `COINDUCE_GUARD` protects against exponential blowup.
    """
    group = h.parent
    if s.group != h.as_group():
        raise ValidationError("coinduce expects a set over h.as_group()")
    k = group.order // h.order  # the number of right cosets Hg
    if s.size ** k > COINDUCE_GUARD:
        raise GuardExceededError(f"coinduction would need {s.size ** k} "
                                 f"points (guard {COINDUCE_GUARD})")
    pts = list(product(s.points, repeat=k))
    index = {p: i for i, p in enumerate(pts)}
    # (g.f)(r_i) = f(r_i g) = x . f(r_j) where r_i g = x r_j
    act = [[index[tuple(s.act[hl][f[j]] for (j, hl) in moves)] for f in pts]
           for moves in _coset_moves(h, right=True)]
    return GSet(group, act, validate=False)


def double_cosets(k: Subgroup, h: Subgroup, g: FiniteGroup) -> list:
    """Representatives of K\\G/H in ascending order of least orbit element."""
    if k.parent != g or h.parent != g:
        raise ValidationError("double cosets need subgroups of g")
    return [orbit[0] for orbit in orbits(
        g.elements, lambda x: {g.mul(g.mul(a, x), b)
                               for a in k.members for b in h.members})]


def distinguished_fixed_point(u: Subgroup, v: Subgroup):
    """The identity-coset point of Res_u Ind_u^v(*_u), for u <= v.

    Returns (the u-restricted v-set v/u, its identity-coset point index).
    """
    if not u.members <= v.members:
        raise ValidationError("distinguished fixed point needs u <= v")
    vg = v.as_group()
    u_in_v = u.relative_to(v)
    orb = GSet.orbit(vg, u_in_v)  # v/u with points = sorted cosets
    pt = _cosets(vg, u_in_v.members)[1][vg.identity]
    for m in u_in_v.members:
        if orb.act[m][pt] != pt:
            raise TheoremViolation("u moves its own coset", (vg.name, m, pt))
    return restrict(u_in_v, orb), pt


def equivariant_maps(s: GSet, t: GSet):
    """All equivariant maps s -> t, by free choice of orbit-rep images.

    An equivariant map is determined on each orbit by the image of its
    least point, which may be any point of t fixed by that stabilizer.
    """
    if s.group != t.group:
        raise ValidationError("maps need a shared group")
    reps = [orbit[0] for orbit in s.orbits()]
    choices = [fixed_points(t, s.stabilizer(x)) for x in reps]
    # per orbit: (point, g) with point = g . rep
    transports = [list(s.transversal(x).items()) for x in reps]
    for combo in product(*choices):
        on = [0] * s.size
        for img, tr in zip(combo, transports):
            for (y, g) in tr:
                on[y] = t.act[g][img]
        yield GSetMap(s, t, on, validate=False)


def hom_count(s: GSet, t: GSet) -> int:
    """|Hom_G(s, t)| = product over orbits of |t^{stabilizer}|."""
    if s.group != t.group:
        raise ValidationError("maps need a shared group")
    n = 1
    for orbit in s.orbits():
        n *= len(fixed_points(t, s.stabilizer(orbit[0])))
    return n


class Span:
    """A span X <- R -> Y of G-sets: two legs out of a shared apex."""

    __slots__ = ("left", "right")

    def __init__(self, left: GSetMap, right: GSetMap):
        if left.src != right.src:
            raise ValidationError("span legs must share their apex")
        self.left = left
        self.right = right

    @property
    def apex(self) -> GSet:
        return self.left.src

    @property
    def source(self) -> GSet:
        return self.left.dst

    @property
    def target(self) -> GSet:
        return self.right.dst

    def __repr__(self):
        return (f"Span({self.source.size} <- {self.apex.size} -> "
                f"{self.target.size})")

    @classmethod
    def identity(cls, s: GSet) -> "Span":
        i = GSetMap.identity(s)
        return cls(i, i)

    def to_json(self) -> str:
        data = {"source": json.loads(self.source.to_json()),
                "apex": json.loads(self.apex.to_json()),
                "target": json.loads(self.target.to_json()),
                "left": list(self.left.on_points),
                "right": list(self.right.on_points)}
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str, group: FiniteGroup) -> "Span":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad span JSON: {exc}") from exc
        try:
            apex = GSet.from_json(json.dumps(data["apex"]), group)
            source = GSet.from_json(json.dumps(data["source"]), group)
            target = GSet.from_json(json.dumps(data["target"]), group)
            left = GSetMap(apex, source, data["left"])
            right = GSetMap(apex, target, data["right"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"span JSON missing field: {exc}") from exc
        return cls(left, right)


def compose_spans(s1: Span, s2: Span) -> Span:
    """Composite span of s1: X <-> Y and s2: Y <-> Z via pullback."""
    if s1.target != s2.source:
        raise ValidationError("span composition needs matching middle object")
    _, p1, p2 = pullback(s1.right, s2.left)
    return Span(s1.left.compose(p1), s2.right.compose(p2))


def spans_equivalent(s1: Span, s2: Span) -> bool:
    """Spans agree up to an apex isomorphism commuting with both legs."""
    if s1.source != s2.source or s1.target != s2.target:
        return False
    if s1.apex.size != s2.apex.size:
        return False
    for phi in equivariant_maps(s1.apex, s2.apex):
        if not phi.is_iso():
            continue
        if all(s2.left.on_points[phi(x)] == s1.left.on_points[x]
               and s2.right.on_points[phi(x)] == s1.right.on_points[x]
               for x in s1.apex.points):
            return True
    return False
