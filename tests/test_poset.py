"""The up-set-mask `Poset` gated against the n-by-n order it replaced."""
import json
import operator

import pytest

from equialg import cyclic_group, direct_product
from equialg.category import enumerate_categories
from equialg.groups import FiniteGroup
from equialg.indexing import enumerate_systems, enumerate_transfer_systems
from equialg.poset import Poset, fingerprint

C2 = cyclic_group(2)


class ReferencePoset:
    """The former `Poset`: an n-by-n tuple of bools, a cubic cover scan, and
    `json.dumps` of the whole order."""

    def __init__(self, nodes, leq, key):
        self.nodes = sorted(nodes, key=key)
        self.keys = [key(n) for n in self.nodes]
        n = len(self.nodes)
        self.le = tuple(tuple(bool(leq(self.nodes[i], self.nodes[j]))
                              for j in range(n)) for i in range(n))

    def covers(self):
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

    def minimal(self):
        n = len(self.nodes)
        return [i for i in range(n)
                if not any(self.le[j][i] for j in range(n) if j != i)]

    def maximal(self):
        n = len(self.nodes)
        return [i for i in range(n)
                if not any(self.le[i][j] for j in range(n) if j != i)]

    def is_isomorphic_via(self, other, pairing):
        n = len(self.nodes)
        if n != len(other.nodes) or sorted(pairing) != list(range(n)):
            return False
        return all(self.le[i][j] == other.le[pairing[i]][pairing[j]]
                   for i in range(n) for j in range(n))

    def to_json(self):
        data = {"nodes": [{"label": fingerprint(k), "key": k}
                          for k in self.keys],
                "leq": [[int(v) for v in row] for row in self.le]}
        return json.dumps(data, sort_keys=True, separators=(",", ":"),
                          default=str)

    def to_dot(self, name="poset"):
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        for i, k in enumerate(self.keys):
            lines.append(f'  n{i} [label="{fingerprint(k)}"];')
        for i, j in self.covers():
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def s3_group():
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    return FiniteGroup([[perms.index(tuple(p[q[i]] for i in range(3)))
                         for q in perms] for p in perms], name="S3")


def _sort_key(s):
    return s.sort_key()


def _category_key(n):
    return (len(n), tuple(sorted(n)))


# (nodes, leq, key) for each poset under test
CASES = {
    "C2-4-all-systems": lambda: (
        enumerate_systems(C2, 4, "all").nodes, operator.le, _sort_key),
    "S3-6-unital-systems": lambda: (
        enumerate_systems(s3_group(), 6, "unital").nodes, operator.le,
        _sort_key),
    "C2xC2-transfer-systems": lambda: (
        enumerate_transfer_systems(direct_product(C2, C2)).nodes,
        operator.le, _sort_key),
    "C2-4-categories": lambda: (
        enumerate_categories(C2, 4).nodes, operator.le, _category_key),
    # not a lattice: 13 and 17 have no upper bound, 2 and 3 no lower one;
    # the key is not a linear extension of the order
    "divisibility-2-24": lambda: (
        range(2, 25), lambda a, b: b % a == 0, lambda x: (x % 7, x)),
    "empty": lambda: ([], operator.le, lambda x: x),
    "single": lambda: ([5], operator.le, lambda x: x),
}


@pytest.fixture(params=list(CASES), scope="module")
def pair(request):
    nodes, leq, key = CASES[request.param]()
    nodes = list(nodes)
    return Poset(nodes, leq, key), ReferencePoset(nodes, leq, key), \
        (nodes, leq, key)


def test_order_queries_match_reference(pair):
    poset, ref, _ = pair
    assert poset.nodes == ref.nodes
    assert poset.covers() == ref.covers()
    assert poset.minimal() == ref.minimal()
    assert poset.maximal() == ref.maximal()


def test_exports_match_reference(pair):
    poset, ref, _ = pair
    assert poset.to_json() == ref.to_json()
    assert poset.to_dot("p") == ref.to_dot("p")


def test_isomorphism_matches_reference(pair):
    poset, ref, (nodes, leq, key) = pair
    n = len(nodes)
    # the same nodes under the reversed node order: a nontrivial pairing
    other = Poset(nodes, leq, lambda x: (-poset.nodes.index(x),))
    other_ref = ReferencePoset(nodes, leq, lambda x: (-ref.nodes.index(x),))
    pairing = [n - 1 - i for i in range(n)]
    assert poset.is_isomorphic_via(other, pairing)
    assert ref.is_isomorphic_via(other_ref, pairing)
    for i, j in poset.covers()[:3] + [(0, n - 1)] * (n > 1):
        swapped = list(pairing)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert poset.is_isomorphic_via(other, swapped) == \
            ref.is_isomorphic_via(other_ref, swapped)
    if n:
        assert not poset.is_isomorphic_via(other, pairing[:-1])
        assert not poset.is_isomorphic_via(other, [0] * n) or n == 1
