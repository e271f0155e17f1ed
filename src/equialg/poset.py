"""Small finite posets with Hasse-diagram and JSON export, and the one
closure engine of both encodings of weak indexing systems: `close` and
`closure_lattice` work on int bitmasks, with per-element rules supplied
independently by `indexing.LevelTables` and `category._Ops`."""
from __future__ import annotations

import hashlib
import json


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

    Nodes are sorted by `key(node)`; `leq(a, b)` decides the order.
    """

    def __init__(self, nodes, leq, key):
        self.nodes = sorted(nodes, key=key)
        self.keys = [key(n) for n in self.nodes]
        n = len(self.nodes)
        self.le = tuple(tuple(bool(leq(self.nodes[i], self.nodes[j]))
                              for j in range(n)) for i in range(n))

    def __len__(self):
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def index(self, node) -> int:
        return self.nodes.index(node)

    def covers(self) -> list:
        """Covering pairs (i, j) with node_i < node_j and nothing between."""
        n = len(self.nodes)
        out = []
        for i in range(n):
            for j in range(n):
                if i == j or not self.le[i][j]:
                    continue
                if any(k not in (i, j) and self.le[i][k] and self.le[k][j]
                       for k in range(n)):
                    continue
                out.append((i, j))
        return out

    def minimal(self) -> list:
        n = len(self.nodes)
        return [i for i in range(n)
                if not any(self.le[j][i] for j in range(n) if j != i)]

    def maximal(self) -> list:
        n = len(self.nodes)
        return [i for i in range(n)
                if not any(self.le[i][j] for j in range(n) if j != i)]

    def is_isomorphic_via(self, other: "Poset", pairing) -> bool:
        """Order isomorphism along an explicit node pairing i -> pairing[i]."""
        n = len(self.nodes)
        if n != len(other.nodes) or sorted(pairing) != list(range(n)):
            return False
        return all(self.le[i][j] == other.le[pairing[i]][pairing[j]]
                   for i in range(n) for j in range(n))

    def labels(self) -> list:
        return [fingerprint(k) for k in self.keys]

    def to_json(self) -> str:
        data = {"nodes": [{"label": lab, "key": key}
                          for lab, key in zip(self.labels(), self.keys)],
                "leq": [[int(v) for v in row] for row in self.le]}
        return json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)

    def to_dot(self, name: str = "poset") -> str:
        """Hasse diagram: edges are covering relations only."""
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        for i, lab in enumerate(self.labels()):
            lines.append(f'  n{i} [label="{lab}"];')
        for i, j in self.covers():
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"
