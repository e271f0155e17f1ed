"""Small finite posets, ordered by a predicate or by inclusion of int
masks, with Hasse-diagram and JSON export, and the one closure engine of
every closed-set search: `close` (semi-naive evaluation) and
`closure_lattice` (Fast Close-by-One) on int bitmasks, under the rules of
`rule_table` that `groups._product_rules`, `indexing._families`,
`indexing.LevelTables`, `indexing.enumerate_transfer_systems` and
`category._Ops` supply."""
from __future__ import annotations

import hashlib
import io
import json
from collections import defaultdict
from functools import reduce
from operator import and_, or_

from .errors import GuardExceededError, ValidationError

LATTICE_GUARD = 25_000  # closed sets `closure_lattice` lists before it stops


def fingerprint(obj) -> str:
    """Stable 10-hex-digit label for a canonical (JSON-able) object."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha1(text.encode()).hexdigest()[:10]


def _mask(ids) -> int:
    """Id set as an int bitmask; `_bits` reads one back."""
    out = 0
    for i in ids:
        out |= 1 << i
    return out


def _union(masks) -> int:
    return reduce(or_, masks, 0)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def rule_table(unary, pairs) -> list:
    """The rule list of `close` and `closure_lattice`: entry i is
    (unary[i], the mask of i's partners, {partner's one-bit mask: what the
    pair forces}), where each (i, j, forced) of `pairs` says that i and j
    together force the mask `forced`, in either order."""
    forced = [defaultdict(int) for _ in unary]
    for i, j, m in pairs:
        forced[i][1 << j] |= m
        forced[j][1 << i] |= m
    return [(u, sum(f), dict(f)) for u, f in zip(unary, forced)]


def close(rules, seeds: int, base: int = 0) -> int:
    """Least closed mask containing `base`, which must be closed, and
    `seeds`, by semi-naive evaluation, under a `rule_table` list.

    Only elements outside `base` enter the worklist, and popping m applies
    its pair rules with every partner already in the set, so whichever
    member of a pair is popped later sees the other.
    """
    closed = base
    todo = seeds & ~closed
    closed |= todo
    while todo:
        low = todo & -todo
        todo ^= low
        unary, partners, forced = rules[low.bit_length() - 1]
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


def closure_lattice(rules, core_seeds: int, candidates: int) -> list:
    """Every closed set generated by bits of `candidates` over the core that
    `core_seeds` closes, each found once, as masks with the core first:
    Fast Close-by-One (Outrata-Vychodil, "Fast algorithm for computing
    fixpoints of Galois connections induced by object-attribute relational
    data", 2012).  Node x is extended by each candidate bit j outside x
    from its start bit up, to `close(rules, 1 << j, x)`, kept with start
    j + 1 only if it adds no candidate bit below j.  A failed closure is
    handed down: descendants lacking one of those bits skip j.  The stack
    is explicit, since chains can be as long as the candidate set.  More
    than `LATTICE_GUARD` closed sets is a `GuardExceededError`, raised as
    soon as they are found."""
    core = close(rules, core_seeds)
    candidates &= ~core
    found = [core]
    # (node, least bit to extend it by, {bit: a failed closure by it})
    stack = [(core, 0, {})]
    while stack:
        x, start, failed = stack.pop()
        failed = dict(failed)
        kids = []
        for j in _bits(candidates & ~x & -(1 << start)):
            below = candidates & ~x & ((1 << j) - 1)
            if failed.get(j, 0) & below:
                continue
            y = close(rules, 1 << j, x)
            if y & below:
                failed[j] = y
            else:
                kids.append((y, j + 1))
        found.extend(y for y, _ in kids)
        if len(found) > LATTICE_GUARD:
            raise GuardExceededError(
                f"more than {LATTICE_GUARD} closed sets exceed the lattice "
                "guard; a filter or a lower cutoff gives fewer")
        stack.extend((y, s, failed) for y, s in reversed(kids))
    return found


def _up_by_inclusion(masks) -> list:
    """Up-set masks of the inclusion order of `masks`: bit j of up[i] is
    set iff masks[i] is a subset of masks[j].  Bit-sliced: column c is the
    mask of the nodes whose mask has bit c, and up[i] is the AND of the
    columns of i's bits (every node when masks[i] is empty)."""
    width = max(masks, default=0).bit_length()
    # row i's digits, least bit first, so column c is the c-th digits;
    # digits read as binary are cheaper than OR-ing in bits one by one
    rows = [f"{m:0{width}b}"[::-1] for m in masks]
    columns = [int("".join(col)[::-1], 2) for col in zip(*rows)]
    everything = (1 << len(masks)) - 1
    return [reduce(and_, [columns[c] for c in _bits(m)], everything)
            for m in masks]


class Poset:
    """A finite poset over externally supplied nodes.

    Nodes are sorted by `key(node)`.  The order is kept as one up-set mask
    per node: bit j of `up[i]` is set iff node i <= node j.  `Poset(nodes,
    leq, key)` decides it with `leq`; `Poset.by_inclusion(nodes, mask,
    key)` reads it from one int mask per node, ordered by inclusion, and
    keeps those masks in `masks` for `below` (None for a `leq` build).
    """

    def __init__(self, nodes, leq, key):
        self.nodes = sorted(nodes, key=key)
        self.keys = [key(n) for n in self.nodes]
        self.masks = None
        # a poset is the inclusion order of its down-sets
        self.up = _up_by_inclusion([
            int("".join("1" if leq(a, b) else "0"
                        for a in self.nodes)[::-1], 2)
            for b in self.nodes])

    @classmethod
    def by_inclusion(cls, nodes, mask, key) -> "Poset":
        """The nodes ordered by inclusion of `mask(node)`, without a single
        order test (as formal concepts are ordered by their extents:
        Ganter-Wille, "Formal Concept Analysis").  Distinct nodes need
        distinct masks."""
        poset = cls.__new__(cls)
        poset.nodes = sorted(nodes, key=key)
        poset.keys = [key(n) for n in poset.nodes]
        poset.masks = [mask(n) for n in poset.nodes]
        poset._below = {}
        poset.up = _up_by_inclusion(poset.masks)
        return poset

    def __len__(self):
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def index(self, node) -> int:
        return self.nodes.index(node)

    def below(self, mask: int) -> int:
        """Node-index mask of the nodes whose mask is a subset of `mask`
        (which need not be a node's), memoised per mask by the poset.
        Only a poset built `by_inclusion` has masks to read."""
        if self.masks is None:
            raise ValidationError("poset was not built by inclusion of masks")
        down = self._below.get(mask)
        if down is None:
            outside = ~mask
            down = self._below[mask] = _mask(
                k for k, m in enumerate(self.masks) if not m & outside)
        return down

    def covers(self) -> list:
        """Covering pairs (i, j) with node_i < node_j and nothing between:
        the strict up-set of i minus everything strictly above a member."""
        strict = [u & ~(1 << i) for i, u in enumerate(self.up)]
        return [(i, j) for i, s in enumerate(strict)
                for j in _bits(s & ~_union(strict[k] for k in _bits(s)))]

    def minimal(self) -> list:
        above = _union(u & ~(1 << i) for i, u in enumerate(self.up))
        return [i for i in range(len(self.nodes)) if not above >> i & 1]

    def maximal(self) -> list:
        return [i for i, u in enumerate(self.up) if u == 1 << i]

    def is_isomorphic_via(self, other: "Poset", pairing) -> bool:
        """Order isomorphism along an explicit node pairing i -> pairing[i]."""
        n = len(self.nodes)
        if n != len(other.nodes) or sorted(pairing) != list(range(n)):
            return False
        return all(_mask(pairing[j] for j in _bits(u)) == other.up[pairing[i]]
                   for i, u in enumerate(self.up))

    def labels(self) -> list:
        return [fingerprint(k) for k in self.keys]

    def write_json(self, fh) -> None:
        """Compact JSON with sorted keys, written to the text stream `fh`
        one leq row at a time."""
        n = len(self.nodes)
        fh.write('{"leq":[')
        for i, u in enumerate(self.up):
            # replace("", ",") puts a comma around every digit; the outer
            # two give way to the row's brackets
            row = f"{u:0{n}b}"[::-1].replace("", ",")
            fh.write(f"{',' * (i > 0)}[{row[1:-1]}]")
        nodes = json.dumps([{"label": lab, "key": key}
                            for lab, key in zip(self.labels(), self.keys)],
                           sort_keys=True, separators=(",", ":"), default=str)
        fh.write(f'],"nodes":{nodes}}}')

    def to_json(self) -> str:
        """What `write_json` writes, as one string."""
        fh = io.StringIO()
        self.write_json(fh)
        return fh.getvalue()

    def to_dot(self, name: str = "poset") -> str:
        """Hasse diagram: edges are covering relations only."""
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        for i, lab in enumerate(self.labels()):
            lines.append(f'  n{i} [label="{lab}"];')
        for i, j in self.covers():
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"
