"""Finite groups as explicit multiplication tables, with subgroup lattices.

Everything is index-based: a group of order n has elements 0..n-1 and a
total multiplication table.  Intended scale is |G| <= 16, so every
algorithm here is exhaustive and every value is validated on construction.
Subgroups are the closed sets of `_product_rules` over the identity:
`poset.close` generates one and `poset.closure_lattice` lists them all.
Every orbit partition of the package (conjugacy classes of subgroups,
orbits of a G-set, double cosets, the sub-orbits of a map's fiber) comes
from one routine, `orbits`.
"""
from __future__ import annotations

import json
from itertools import product

from .errors import ValidationError, require_ints
from .poset import _bits, _mask, close, closure_lattice, rule_table


class FiniteGroup:
    """A finite group on elements 0..n-1 given by a multiplication table."""

    __slots__ = ("mul_table", "order", "identity", "inv_table", "name", "_hash")

    def __init__(self, mul, name: str = ""):
        mul = tuple(map(tuple, mul))
        require_ints(mul, "multiplication table")
        n = len(mul)
        if n == 0:
            raise ValidationError("group order 0 is invalid")
        for row in mul:
            if len(row) != n or any(not 0 <= x < n for x in row):
                raise ValidationError("multiplication table must be square over 0..n-1")
        identity = None
        for e in range(n):
            if all(mul[e][x] == x and mul[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise ValidationError("no two-sided identity")
        for a, b, c in product(range(n), repeat=3):
            if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                raise ValidationError(f"associativity fails at {(a, b, c)}")
        inv = []
        for a in range(n):
            b = next((b for b in range(n)
                      if mul[a][b] == identity and mul[b][a] == identity), None)
            if b is None:
                raise ValidationError(f"element {a} has no inverse")
            inv.append(b)
        self.mul_table = mul
        self.order = n
        self.identity = identity
        self.inv_table = tuple(inv)
        self.name = name or f"G{n}"
        self._hash = hash(mul)

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def conj(self, g: int, a: int) -> int:
        """g a g^-1."""
        return self.mul(self.mul(g, a), self.inv_table[g])

    @property
    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        return all(self.mul(a, b) == self.mul(b, a)
                   for a in self.elements for b in self.elements)

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.mul_table == other.mul_table

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"

    def to_json(self) -> str:
        data = {"order": self.order,
                "mul": [list(row) for row in self.mul_table],
                "name": self.name}
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FiniteGroup":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad group JSON: {exc}") from exc
        if not isinstance(data, dict) or "mul" not in data:
            raise ValidationError("group JSON needs a 'mul' table")
        require_ints([data["mul"], data.get("order", 0)],
                     "group JSON 'mul' and 'order'")
        try:
            g = cls(data["mul"], name=str(data.get("name", "")))
        except TypeError as exc:
            raise ValidationError(f"group JSON 'mul' must be a table of "
                                  f"rows: {exc}") from exc
        if data.get("order", g.order) != g.order:
            raise ValidationError("declared order does not match table size")
        return g


def cyclic_group(n: int) -> FiniteGroup:
    """Z/n with elements 0..n-1 and addition mod n."""
    if n < 1:
        raise ValidationError("cyclic group order must be >= 1")
    return FiniteGroup([[(a + b) % n for b in range(n)] for a in range(n)],
                       name=f"C{n}")


def trivial_group() -> FiniteGroup:
    return cyclic_group(1)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Product group on pairs, flattened as a*|h| + b."""
    nh = h.order
    size = g.order * nh
    mul = [[0] * size for _ in range(size)]
    for a1, b1 in product(g.elements, h.elements):
        for a2, b2 in product(g.elements, h.elements):
            mul[a1 * nh + b1][a2 * nh + b2] = g.mul(a1, a2) * nh + h.mul(b1, b2)
    return FiniteGroup(mul, name=f"{g.name}x{h.name}")


class Subgroup:
    """A subgroup presented as a set of element ids of its parent group."""

    __slots__ = ("parent", "members", "key", "_as_group", "_embedding")

    def __init__(self, parent: FiniteGroup, members):
        members = tuple(members)
        require_ints(members, "subgroup members")
        members = frozenset(members)
        if parent.identity not in members:
            raise ValidationError("subgroup must contain the identity")
        for a in members:
            if not 0 <= a < parent.order:
                raise ValidationError(f"element {a} out of range")
            if parent.inv_table[a] not in members:
                raise ValidationError(f"not closed under inverse at {a}")
            for b in members:
                if parent.mul(a, b) not in members:
                    raise ValidationError(f"not closed under product at {(a, b)}")
        self.parent = parent
        self.members = members
        self.key = (len(members), tuple(sorted(members)))
        self._as_group = None
        self._embedding = None

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, a):
        return a in self.members

    def __le__(self, other: "Subgroup") -> bool:
        return self.members <= other.members

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and self.parent == other.parent
                and self.members == other.members)

    def __hash__(self):
        return hash((self.parent, self.members))

    def __repr__(self):
        return f"Subgroup({sorted(self.members)} <= {self.parent.name})"

    @property
    def embedding(self) -> tuple:
        """Sorted member ids; position = local element id in as_group()."""
        if self._embedding is None:
            self._embedding = tuple(sorted(self.members))
        return self._embedding

    def as_group(self) -> FiniteGroup:
        """This subgroup as a standalone group on 0..k-1 via `embedding`."""
        if self._as_group is None:
            emb = self.embedding
            pos = {a: i for i, a in enumerate(emb)}
            mul = [[pos[self.parent.mul(a, b)] for b in emb] for a in emb]
            self._as_group = FiniteGroup(mul, name=f"{self.parent.name}|{list(emb)}")
        return self._as_group

    def to_local(self, a: int) -> int:
        return self.embedding.index(a)

    def relative_to(self, big: "Subgroup") -> "Subgroup":
        """This subgroup as a subgroup of big.as_group(); requires self <= big."""
        if not self.members <= big.members:
            raise ValidationError("relative_to needs a containing subgroup")
        return Subgroup(big.as_group(), {big.to_local(a) for a in self.members})


def orbits(points, orbit_of) -> list:
    """The orbits of an action on `points` (ascending), each a sorted
    list, in order of least point; `orbit_of(x)` is the set of images of
    x, so each orbit's least point is the first of it that is reached."""
    seen = set()
    out = []
    for x in points:
        if x not in seen:
            orbit = sorted(orbit_of(x))
            seen.update(orbit)
            out.append(orbit)
    return out


def _product_rules(g: FiniteGroup) -> list:
    """`poset.close` rules on element bits: a pair (a, b) forces a·b and
    b·a, and no element forces anything alone."""
    return rule_table([0] * g.order, (
        (a, b, 1 << g.mul(a, b) | 1 << g.mul(b, a))
        for a in g.elements for b in range(a, g.order)))


def generated_subgroup(g: FiniteGroup, gens) -> frozenset:
    """Member set of the subgroup generated by `gens`: its closure under
    products, which holds a^-1 = a^(k-1) for the order k of each a."""
    return frozenset(_bits(close(_product_rules(g),
                                 _mask(gens) | 1 << g.identity)))


def subgroups(g: FiniteGroup) -> list:
    """All subgroups, sorted by (order, lexicographic member list).

    In a finite group a product-closed set holding the identity is a
    subgroup, so `closure_lattice` over the identity lists them all.
    """
    found = closure_lattice(_product_rules(g), 1 << g.identity,
                            (1 << g.order) - 1)
    return sorted((Subgroup(g, _bits(m)) for m in found), key=lambda h: h.key)


class SubgroupLattice:
    """Subgroups of a group with containment order and conjugacy classes."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.nodes = subgroups(group)
        self.index_of = {h.members: i for i, h in enumerate(self.nodes)}
        n = len(self.nodes)
        self.leq = tuple(tuple(self.nodes[i].members <= self.nodes[j].members
                               for j in range(n)) for i in range(n))
        # conjugation permutes subgroups (an automorphism, so a conjugate
        # needs no check); its orbits are the conjugacy classes
        self.conj_table = tuple(
            tuple(self.index_of[frozenset(group.conj(g, a) for a in h.members)]
                  for h in self.nodes)
            for g in group.elements)
        self.conj_classes = tuple(map(tuple, orbits(
            range(n), lambda i: {row[i] for row in self.conj_table})))
        # each class is listed from its least member, so these ascend
        self.class_reps = tuple(c[0] for c in self.conj_classes)
        self.class_of = {i: c for c, orbit in enumerate(self.conj_classes)
                         for i in orbit}

    def __len__(self):
        return len(self.nodes)

    def class_rep(self, i: int) -> int:
        """Canonical (minimal-index) subgroup in the conjugacy class of node i."""
        return self.class_reps[self.class_of[i]]

    def is_chain(self) -> bool:
        return all(self.leq[i][j] or self.leq[j][i]
                   for i in range(len(self.nodes)) for j in range(len(self.nodes)))


_LATTICES: dict = {}


def subgroup_lattice(g: FiniteGroup) -> SubgroupLattice:
    """Cached subgroup lattice of g."""
    lat = _LATTICES.get(g)
    if lat is None:
        lat = SubgroupLattice(g)
        _LATTICES[g] = lat
    return lat
