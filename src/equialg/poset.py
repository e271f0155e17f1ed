"""Small finite posets, ordered by a predicate or by inclusion of int
masks, with Hasse-diagram and JSON export, and the one closure engine of
every closed-set search: `close` (semi-naive evaluation, each pair rule
applied when its later member is popped, from its shorter side), `join`
(two closed sets, across their differences only) and `closure_lattice`
(Fast Close-by-One) on int bitmasks, under the rules of `rule_table`
that `groups._product_rules`, `indexing._families`,
`indexing.LevelTables`, `indexing.enumerate_transfer_systems` and
`category._Ops` supply."""
from __future__ import annotations

import hashlib
import io
import json
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
    """The rule list of `close`, `join` and `closure_lattice`: entry i is
    (unary[i], partners, forced, targets, sources), where each (i, j, m) of
    `pairs` says that i and j together force the mask m, in either order.
    `partners` is the mask of i's partners and `forced` maps each one's
    one-bit mask to what the pair forces.  `targets` is everything i's
    pairs force, and `sources` is `forced` inverted: it maps each one-bit
    mask x of `targets` to the mask of the partners that force x with i."""
    # one int object per one-bit mask, shared by every dict that holds it:
    # large ints are not interned, and a table holds several per pair
    bit = [1 << i for i in range(len(unary))]
    forced = [{} for _ in unary]
    for i, j, m in pairs:
        fi, fj, bi, bj = forced[i], forced[j], bit[i], bit[j]
        fi[bj] = fi[bj] | m if bj in fi else m
        fj[bi] = fj[bi] | m if bi in fj else m
    out = []
    for u, f in zip(unary, forced):
        sources = {}
        for v, m in f.items():
            for k in _bits(m):
                x = bit[k]
                sources[x] = sources[x] | v if x in sources else v
        out.append((u, sum(f), f, sum(sources), sources))
    return out


def close(rules, seeds: int, base: int = 0) -> int:
    """Least closed mask containing `base` and `seeds`, under a
    `rule_table` list, by semi-naive evaluation (Bancilhon-Ramakrishnan,
    "An amateur's introduction to recursive query processing strategies",
    1986).  The rules among the elements of `base` must force nothing
    outside `base | seeds`: a closed `base` always qualifies.

    Only elements outside `base` enter the worklist.  `done` holds `base`
    and every popped element, and an element is done before its own pairs
    are read, so a pair (i, i) is read too.  Popping m applies the pairs of
    m with its done partners, so every pair is applied when the later of its
    two members is popped.  They are read from the shorter side: m's done
    partners, reading what each forces, or m's targets outside the set,
    each added if one of its sources is in the set.  The targets side thus
    also applies a pair whose other member is in the set but not yet done,
    early, and that pair is read again when the other member is popped.
    Testing the sources against `done` would apply each pair only once but
    add forced elements later, so that later pops find more targets
    missing: 17% more visits at C10@30 `unital`.
    """
    closed = base | seeds
    done = base
    todo = seeds & ~base
    while todo:
        low = todo & -todo
        todo ^= low
        done |= low
        unary, partners, forced, targets, sources = rules[low.bit_length() - 1]
        new = unary & ~closed
        both = partners & done
        missing = targets & ~closed
        if both.bit_count() <= missing.bit_count():
            while both:
                v = both & -both
                new |= forced[v]
                both ^= v
            new &= ~closed
        else:
            while missing:
                x = missing & -missing
                if sources[x] & closed:
                    new |= x
                missing ^= x
        closed |= new
        todo |= new
    return closed


def join(rules, a: int, b: int) -> int:
    """Least closed mask containing `a` and `b`, which must both be closed.

    A pair inside `a` or inside `b` forces nothing new, and a pair with one
    member in `a & b` lies inside the other, so only the pairs across the
    two differences are applied, from the smaller one; `close` finishes
    from what they force over `a | b`."""
    small, large = a & ~b, b & ~a
    if small.bit_count() > large.bit_count():
        small, large = large, small
    new = 0
    for i in _bits(small):
        _, partners, forced, _, _ = rules[i]
        both = partners & large
        while both:
            v = both & -both
            new |= forced[v]
            both ^= v
    return close(rules, new, a | b)


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
                "guard")
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
