"""Extended-integer connectivity arithmetic on the almost-unital poset.

An extended integer is a plain int, or infinity `INF = math.inf`: int and
float arithmetic already make infinity absorbing under addition and order
it above every int.  The connectivity function of a weak indexing system
takes the value infinity on its down-set and -2 elsewhere; sums are
pointwise with infinity absorbing.  The join bound states that the sum of
two connectivity functions shifted by 2 is at most the connectivity of
the join, with strictness exactly on the part of the join's down-set
missed by the two separate down-sets.

Since every value is -2 or INF, the bound is checked on down-set masks
of node indices (`Poset.below`).  The left side conn(i) + conn(j) + 2 is
-2 + -2 + 2 = -2 where both summands are -2 and INF wherever one is INF,
so it is INF exactly on down(i) | down(j); the right side is INF exactly
on down(i v j).  The pointwise inequality fails only where the left side
is INF and the right side -2, so it holds iff (down(i) | down(j)) &
~down(i v j) is empty, and it is strict exactly on down(i v j) &
~(down(i) | down(j)).  `ConnFunction`, `conn_add` and `conn_shift` keep
the arithmetic itself, and the report builds its two sides from the masks
only when they are read.

Little-disk connectivity over representations is evaluated through fixed
point dimensions: an orbit with stabilizer K contributes the bounds
dim V^K - dim V^J - 2 over the subgroups J strictly above K (passing to a
smaller subgroup can only grow the fixed space, and the margin bounds the
connectivity), and two or more fixed points contribute dim V^G - 2.
"""
from __future__ import annotations

import math
import operator
from functools import cached_property
from itertools import repeat

from .errors import ValidationError, require_ints
from .groups import FiniteGroup, cyclic_group, subgroup_lattice
from .gsets import GSet, fixed_points
from .indexing import WeakIndexingSystem, join
from .poset import Poset, _bits

INF = math.inf


class ConnFunction:
    """An extended-integer function on an enumerated poset of systems:
    every value is an int (not a bool) or INF."""

    __slots__ = ("poset", "values")

    def __init__(self, poset: Poset, values):
        values = tuple(values)
        if len(values) != len(poset):
            raise ValidationError("need one value per poset node")
        # whole-tuple passes in C: the only floats allowed are the INFs
        floats = sum(map(isinstance, values, repeat(float)))
        if set(map(type, values)) - {int, float} or floats != values.count(INF):
            raise ValidationError("connectivity values are ints or INF")
        self.poset = poset
        self.values = values

    def __getitem__(self, i) -> int | float:
        return self.values[i]

    def __eq__(self, other):
        return (isinstance(other, ConnFunction) and self.poset is other.poset
                and self.values == other.values)

    def __le__(self, other: "ConnFunction") -> bool:
        _same_domain(self, other)
        return all(map(operator.le, self.values, other.values))

    def __repr__(self):
        return f"ConnFunction({list(self.values)})"

    def infinite_set(self) -> frozenset:
        return frozenset(i for i, v in enumerate(self.values) if v == INF)


def _down(i: WeakIndexingSystem, poset: Poset) -> int:
    """Node-index mask of the down-set of i in the poset; i must be built
    on the tables of the poset's systems, since masks over other tables
    name other classes."""
    nodes = poset.nodes
    if not isinstance(i, WeakIndexingSystem) or (
            nodes and getattr(nodes[0], "tables", None) is not i.tables):
        raise ValidationError("system and poset over different tables")
    return poset.below(i.mask)


def _conn_of_down(poset: Poset, down: int) -> ConnFunction:
    """Infinity on the nodes of the `down` mask, -2 off it."""
    return ConnFunction(poset, [INF if down >> k & 1 else -2
                                for k in range(len(poset))])


def conn_n_infty(i: WeakIndexingSystem, poset: Poset) -> ConnFunction:
    """Infinity on the down-set of i, -2 off it; i must be built on the
    tables of the poset's systems."""
    return _conn_of_down(poset, _down(i, poset))


def _same_domain(f: ConnFunction, g: ConnFunction):
    if f.poset is not g.poset:
        raise ValidationError("connectivity functions over different domains")


def conn_add(f: ConnFunction, g: ConnFunction) -> ConnFunction:
    _same_domain(f, g)
    return ConnFunction(f.poset, map(operator.add, f.values, g.values))


def conn_shift(f: ConnFunction, k: int) -> ConnFunction:
    return ConnFunction(f.poset, [v + k for v in f.values])


class JoinBoundReport:
    """Outcome of the pointwise join bound check, read from the masks of
    the nodes where each side is infinite: `lhs_infinite` = down(i) |
    down(j) and `rhs_infinite` = down(i v j).  The sides themselves are
    built on first access, once."""

    def __init__(self, poset: Poset, lhs_infinite: int, rhs_infinite: int):
        self.poset = poset
        self.lhs_infinite = lhs_infinite
        self.rhs_infinite = rhs_infinite
        self.holds = not lhs_infinite & ~rhs_infinite
        self.strict_witnesses = tuple(_bits(rhs_infinite & ~lhs_infinite))

    @cached_property
    def lhs(self) -> ConnFunction:
        return _conn_of_down(self.poset, self.lhs_infinite)

    @cached_property
    def rhs(self) -> ConnFunction:
        return _conn_of_down(self.poset, self.rhs_infinite)

    def __bool__(self):
        return self.holds

    def __repr__(self):
        return (f"JoinBoundReport(holds={self.holds}, "
                f"strict={len(self.strict_witnesses)})")


def conn_join_bound(i: WeakIndexingSystem, j: WeakIndexingSystem,
                    poset: Poset) -> JoinBoundReport:
    """Check conn(i) + conn(j) + 2 <= conn(i v j) pointwise on the poset.

    Strict witnesses are the nodes where the inequality is strict; the
    bound holds with equality away from down(i v j) minus the union of the
    two separate down-sets.
    """
    di, dj = _down(i, poset), _down(j, poset)
    return JoinBoundReport(poset, di | dj, poset.below(join(i, j).mask))


class RepDimension:
    """Fixed point dimensions of an orthogonal representation, one value
    per subgroup."""

    __slots__ = ("group", "dims")

    def __init__(self, group: FiniteGroup, dims):
        lat = subgroup_lattice(group)
        dims = dict(dims)
        require_ints(list(dims.items()), "representation dimensions")
        if sorted(dims) != list(range(len(lat.nodes))):
            raise ValidationError("need one dimension per subgroup")
        if any(v < 0 for v in dims.values()):
            raise ValidationError("dimensions must be nonnegative")
        self.group = group
        self.dims = dims

    @classmethod
    def c2(cls, a: int, b: int) -> "RepDimension":
        """a + b*sign over the order-two group: dim^e = a+b, dim^full = a."""
        if a < 0 or b < 0:
            raise ValidationError("multiplicities must be nonnegative")
        return cls(cyclic_group(2), {0: a + b, 1: a})


def disk_conn_c2(a: int, b: int, s) -> int | float:
    """Little-disk connectivity over the order-two group at the arity s.

    s is ("e", k) for k free points at the trivial level, or ("G", c, d)
    for c fixed points and d free orbits.  Arities with no constraining
    content (fewer than two points at the trivial level; d = 0 and c < 2)
    have infinite connectivity.
    """
    if len(s) != {"e": 2, "G": 3}.get(s[0] if s else None):
        raise ValidationError(f"unknown arity descriptor {s!r}")
    require_ints((a, b, *s[1:]), "multiplicities and arity counts")
    if min(a, b, *s[1:]) < 0:
        raise ValidationError("multiplicities must be nonnegative")
    if s[0] == "e":
        return max(-2, a + b - 2) if s[1] >= 2 else INF
    c, d = s[1], s[2]
    if d == 0:
        return max(-2, a - 2) if c >= 2 else INF
    if c < 2:
        return max(-2, b - 2)
    return max(-2, min(a, b) - 2)


def _constraints(v: RepDimension, s: GSet) -> list:
    """Upper bounds on the connectivity level from the two conditions."""
    lat = subgroup_lattice(v.group)
    bounds = []
    top = len(lat.nodes) - 1
    for k in {lat.index_of[s.stabilizer(orbit[0]).members]
              for orbit in s.orbits()}:
        for j in range(len(lat.nodes)):
            if j != k and lat.leq[k][j]:
                bounds.append(v.dims[k] - v.dims[j] - 2)
    if len(fixed_points(s, lat.nodes[top])) >= 2:
        bounds.append(v.dims[top] - 2)
    return bounds


def disk_conn_general(v: RepDimension, s: GSet, ell: int) -> bool:
    """Is the little-disk structure ell-connected at the arity s?"""
    if s.group != v.group:
        raise ValidationError("arity is over a different group")
    return all(ell <= b for b in _constraints(v, s))


def disk_conn_value(v: RepDimension, s: GSet) -> int | float:
    """Largest passing level, infinite when the constraint set is empty,
    floored at -2."""
    return max(-2, min(_constraints(v, s), default=INF))


def non_additivity_witness(a_prime: int, b: int) -> dict:
    """Summing the bounds of two representations with equal arity support
    undershoots the bound of their direct sum at the mixed arity with two
    fixed points and one free orbit."""
    if a_prime <= 1 or b <= 1:
        raise ValidationError("both multiplicities must exceed 1")
    arity = ("G", 2, 1)
    lhs = disk_conn_c2(1, b, arity) + disk_conn_c2(a_prime, 1, arity) + 2
    rhs = disk_conn_c2(a_prime + 1, b + 1, arity)
    return {"lhs_bound": lhs, "rhs": rhs, "strict": lhs < rhs,
            "provenance": "forthcoming: additivity of little-disk "
                          "structures under direct sum"}
