"""Small finite posets with Hasse-diagram and JSON export, and the one
closure engine of both encodings of weak indexing systems: `close` and
`closure_lattice` work on int bitmasks, with per-element rules supplied
independently by `indexing.LevelTables` and `category._Ops`."""
from __future__ import annotations

import hashlib
import json
from functools import reduce
from operator import or_


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


def close(rules, seeds: int, base: int = 0) -> int:
    """Least closed mask containing `base`, which must be closed, and
    `seeds`, by semi-naive evaluation.

    `rules(i)` is (the mask i forces alone, the mask of its partners,
    {partner's one-bit mask: the mask the pair forces}); the pair rule
    must be symmetric.  Only elements outside `base` enter the worklist,
    and popping m applies its pair rules with every partner already in the
    set, so whichever member of a pair is popped later sees the other.
    """
    closed = base
    todo = seeds & ~closed
    closed |= todo
    while todo:
        low = todo & -todo
        todo ^= low
        unary, partners, forced = rules(low.bit_length() - 1)
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
    """Every join of a core with a set of atoms, by frontier search: the
    core closes `core_seeds`, each atom closes one bit of `candidates` over
    the core, and node x joined with atom a is `close(rules, a, x)`.  Each
    node enters the frontier once, so no (node, atom) pair is joined twice.
    Returns the nodes as masks in discovery order, the core first."""
    core = close(rules, core_seeds)
    atoms = dict.fromkeys(close(rules, 1 << i, core)
                          for i in _bits(candidates & ~core))
    found = {core: None}
    frontier = [core]
    while frontier:
        new = []
        for x in frontier:
            for a in atoms:
                if not a & ~x:
                    continue
                j = close(rules, a, x)
                if j not in found:
                    found[j] = None
                    new.append(j)
        frontier = new
    return list(found)


class Poset:
    """A finite poset over externally supplied nodes.

    Nodes are sorted by `key(node)`; `leq(a, b)` decides the order, which
    is kept as one up-set mask per node: bit j of `up[i]` is set iff
    node i <= node j.
    """

    def __init__(self, nodes, leq, key):
        self.nodes = sorted(nodes, key=key)
        self.keys = [key(n) for n in self.nodes]
        # a row of digits read as binary is cheaper than OR-ing in its bits
        self.up = [int("".join("1" if leq(a, b) else "0"
                               for b in self.nodes)[::-1], 2)
                   for a in self.nodes]

    def __len__(self):
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def index(self, node) -> int:
        return self.nodes.index(node)

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

    def to_json(self) -> str:
        """Compact JSON with sorted keys; the leq rows are written as text."""
        n = len(self.nodes)
        rows = ",".join("[" + ",".join(f"{u:0{n}b}"[::-1]) + "]"
                        for u in self.up)
        nodes = json.dumps([{"label": lab, "key": key}
                            for lab, key in zip(self.labels(), self.keys)],
                           sort_keys=True, separators=(",", ":"), default=str)
        return f'{{"leq":[{rows}],"nodes":{nodes}}}'

    def to_dot(self, name: str = "poset") -> str:
        """Hasse diagram: edges are covering relations only."""
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        for i, lab in enumerate(self.labels()):
            lines.append(f'  n{i} [label="{lab}"];')
        for i, j in self.covers():
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"
