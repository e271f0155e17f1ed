"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdicts.
"""
import os
import subprocess
import sys
import textwrap
import time
from itertools import product
from math import comb
from pathlib import Path

import equialg

from equialg import Subgroup, cyclic_group, subgroups
from equialg.category import WeakIndexingCategory
from equialg.connectivity import (INF, RepDimension, conn_join_bound,
                                  disk_conn_c2, disk_conn_value,
                                  non_additivity_witness)
from equialg.groups import trivial_group
from equialg.gsets import (GSet, coinduce, double_cosets, from_orbit_types,
                           hom_count, induce, is_isomorphic, pullback,
                           restrict, terminal_map)
from equialg.indexing import (enumerate_systems, enumerate_transfer_systems,
                              join, level_tables, truncate_system)
from equialg.magmas import (canonical_pair_key, eckmann_hilton,
                            enumerate_interchanging_pairs,
                            enumerate_semi_mackey, pair_homs,
                            pair_of_semi_mackey, semi_mackey_homs)

C2 = cyclic_group(2)
C4 = cyclic_group(4)


def verdict(n, ok, detail, t0, limit):
    elapsed = time.time() - t0
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {n}: {status} ({elapsed:.1f}s < {limit}s) {detail}")
    assert ok, f"criterion {n}: {detail}"
    assert elapsed < limit, f"criterion {n} exceeded {limit}s"


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def all_gsets_up_to(group, max_size):
    orbits = subgroups(group)
    sizes = [group.order // h.order for h in orbits]
    out = []

    def rec(i, left, chosen):
        if i == len(orbits):
            out.append(from_orbit_types(group, chosen))
            return
        rec(i + 1, left, chosen)
        k, n = 1, sizes[i]
        while k * n <= left:
            rec(i + 1, left - k * n, chosen + [orbits[i]] * k)
            k += 1

    rec(0, max_size, [])
    return out


def test_criterion_1_transfer_system_counts():
    t0 = time.time()
    counts = [len(enumerate_transfer_systems(cyclic_group(2 ** n)))
              for n in range(4)]
    expected = [catalan(n + 1) for n in range(4)]
    verdict(1, counts == expected == [1, 2, 5, 14],
            f"transfer systems on C_2^n: {counts}", t0, 60)


def test_criterion_2_weak_indexing_equivalence():
    t0 = time.time()
    ok = True
    for group, cutoff, filters in [
            (C2, 6, ["all", "unital", "almost_unital"]),
            (C4, 12, ["unital", "almost_unital"])]:
        for which in filters:
            for s in enumerate_systems(group, cutoff, which):
                back = WeakIndexingCategory.from_system(s).to_system()
                ok = ok and back.admissible == s.admissible
                cat = WeakIndexingCategory.from_system(s)
                ok = ok and WeakIndexingCategory.from_system(
                    cat.to_system()) == cat
    counts = {}
    for group, cutoff in [(C2, 6), (C4, 12)]:
        t_small = level_tables(group, cutoff)
        for which in ["unital", "almost_unital"]:
            small = enumerate_systems(group, cutoff, which)
            big = enumerate_systems(group, 2 * cutoff, which)
            ok = ok and len(small) == len(big)
            pairing = [small.index(truncate_system(s, t_small))
                       for s in big.nodes]
            ok = ok and big.is_isomorphic_via(small, pairing)
            counts[(group.name, which)] = len(small)
    verdict(2, ok, f"round trips exact; saturated posets {counts}", t0, 300)


def test_criterion_3_eckmann_hilton_sweep():
    t0 = time.time()
    violations = 0
    pairs = enumerate_interchanging_pairs(2, 2, 2)
    sms = enumerate_semi_mackey(2, 2, 2)
    for p in pairs:
        eckmann_hilton(p)  # raises TheoremViolation on any failure
    ok = sorted(canonical_pair_key(p) for p in pairs) == \
        sorted(canonical_pair_key(pair_of_semi_mackey(s)) for s in sms)
    for s in sms:
        back = eckmann_hilton(pair_of_semi_mackey(s), norm_axiom=True)
        ok = ok and back.key() == s.key()
    for a in pairs:
        for b in pairs:
            sa, sb = eckmann_hilton(a), eckmann_hilton(b)
            ok = ok and sorted(pair_homs(a, b)) == sorted(
                semi_mackey_homs(sa, sb))
    # documented slice at carrier size 3: the full (3,3) box, both readings;
    # literal pairs biject with the trivial-action functors, orbit-product
    # pairs with all of them
    lit = enumerate_interchanging_pairs(2, 3, 3)
    nrm = enumerate_interchanging_pairs(2, 3, 3, norm_axiom=True)
    sms3 = enumerate_semi_mackey(2, 3, 3)
    for p in lit:
        eckmann_hilton(p)
    for p in nrm:
        eckmann_hilton(p, norm_axiom=True)
    ok = ok and sorted(canonical_pair_key(p) for p in nrm) == \
        sorted(canonical_pair_key(pair_of_semi_mackey(s)) for s in sms3)
    trivial_action = [s for s in sms3
                      if s.base.sigma == tuple(range(s.base.size_e))]
    ok = ok and len(lit) == len(trivial_action)
    # the (3,3) box at p = 3: under both readings the pairs biject with the
    # functors
    sm_keys = sorted(canonical_pair_key(pair_of_semi_mackey(s))
                     for s in enumerate_semi_mackey(3, 3, 3))
    ok = ok and len(sm_keys) == 38
    p3_counts = []
    for norm_axiom in (False, True):
        p3 = enumerate_interchanging_pairs(3, 3, 3, norm_axiom=norm_axiom)
        for p in p3:
            eckmann_hilton(p, norm_axiom=norm_axiom)
        p3_counts.append(len(p3))
        ok = ok and sorted(canonical_pair_key(p) for p in p3) == sm_keys
    verdict(3, ok and violations == 0,
            f"sizes<=2: {len(pairs)} pairs, size-3 box: {len(lit)} literal / "
            f"{len(nrm)} orbit-product pairs, p=3 size-3 box: "
            f"{p3_counts[0]} literal / {p3_counts[1]} orbit-product pairs = "
            f"{len(sm_keys)} functors, 0 violations", t0, 600)


def test_criterion_4_join_bound_with_exact_strictness():
    t0 = time.time()
    ok = True
    checked = 0
    for group, cutoff in [(C2, 6), (C4, 12)]:
        poset = enumerate_systems(group, cutoff, "almost_unital")
        for i in poset.nodes:
            for j in poset.nodes:
                rep = conn_join_bound(i, j, poset)
                jj = join(i, j)
                expected = tuple(
                    k for k, node in enumerate(poset.nodes)
                    if node <= jj and not node <= i and not node <= j)
                ok = ok and rep.holds and rep.strict_witnesses == expected
                checked += 1
    verdict(4, ok, f"join bound + strictness on {checked} pairs", t0, 300)


def test_criterion_5_disk_connectivity_c2():
    t0 = time.time()
    ok = True
    for a, b in product(range(5), repeat=2):
        for k in range(2, 5):
            ok = ok and disk_conn_c2(a, b, ("e", k)) == max(-2, a + b - 2)
        for c in range(2, 4):
            ok = ok and disk_conn_c2(a, b, ("G", c, 0)) == max(-2, a - 2)
        for d in range(1, 4):
            for c in range(2):
                ok = ok and disk_conn_c2(a, b, ("G", c, d)) == \
                    max(-2, b - 2)
            for c in range(2, 4):
                ok = ok and disk_conn_c2(a, b, ("G", c, d)) == \
                    max(-2, min(a, b) - 2)
        v = RepDimension.c2(a, b)
        ve = RepDimension(trivial_group(), {0: a + b})
        for c in range(4):
            for d in range(4):
                s = GSet.trivial(C2, c)
                for _ in range(d):
                    s = s + GSet.regular(C2)
                ok = ok and disk_conn_value(v, s) == \
                    disk_conn_c2(a, b, ("G", c, d))
        for k in range(5):
            ok = ok and disk_conn_value(ve, GSet.trivial(trivial_group(), k)) \
                == disk_conn_c2(a, b, ("e", k))
    w = non_additivity_witness(2, 2)
    ok = ok and w["lhs_bound"] == 0 and w["rhs"] == 1 \
        and w["strict"]
    verdict(5, ok, "cased formulas, dual-path agreement, witness 0 < 1", t0, 1)


def test_criterion_6_almost_unital_summand_agreement():
    t0 = time.time()
    ok = True
    total = 0
    for group, cutoff, filters in [
            (C2, 6, ["all"]),
            (C4, 12, ["unital", "almost_unital"])]:
        for which in filters:
            for s in enumerate_systems(group, cutoff, which):
                ok = ok and s.is_almost_unital() == s.is_summand_closed()
                total += 1
    verdict(6, ok, f"predicates agree on {total} systems", t0, 60)


def test_criterion_7_gset_adjunctions_and_double_cosets():
    t0 = time.time()
    ok = True
    checked = 0
    for group in [C2, C4]:
        g_sets = all_gsets_up_to(group, 6)
        for h in subgroups(group):
            h_sets = all_gsets_up_to(h.as_group(), 6)
            for s in h_sets:
                for t in g_sets:
                    ok = ok and hom_count(induce(h, s), t) == \
                        hom_count(s, restrict(h, t))
                    ok = ok and hom_count(restrict(h, t), s) == \
                        hom_count(t, coinduce(h, s))
                    checked += 2
    for group in [C2, C4]:
        for k in subgroups(group):
            for h in subgroups(group):
                for s in all_gsets_up_to(h.as_group(), 6):
                    lhs = restrict(k, coinduce(h, s))
                    pieces = []
                    for g in double_cosets(k, h, group):
                        conj_h = {group.conj(g, a) for a in h.members}
                        l_in_k = Subgroup(group, k.members & conj_h) \
                            .relative_to(k)
                        act = []
                        for m in l_in_k.embedding:
                            a = k.embedding[m]
                            b = group.mul(group.mul(group.inv_table[g], a), g)
                            act.append(s.act[h.to_local(b)])
                        twisted = GSet(l_in_k.as_group(), act)
                        pieces.append(coinduce(l_in_k, twisted))
                    rhs = pieces[0]
                    for piece in pieces[1:]:
                        rhs = pullback(terminal_map(rhs),
                                       terminal_map(piece))[0]
                    ok = ok and lhs.size == rhs.size and is_isomorphic(lhs, rhs)
                    checked += 1
    verdict(7, ok, f"{checked} adjunction and double-coset identities", t0, 120)


def test_acceptance_smoke_survives_optimized_mode():
    """The criterion-3 sweep at sizes <= 2, the semi-Mackey round trip and
    one system enumeration run under `python -O`, which strips `assert`:
    every check they rely on must still run."""
    script = textwrap.dedent("""
        from equialg import cyclic_group
        from equialg.indexing import enumerate_systems
        from equialg.magmas import (eckmann_hilton,
                                    enumerate_interchanging_pairs,
                                    enumerate_semi_mackey, pair_of_semi_mackey)
        pairs = enumerate_interchanging_pairs(2, 2, 2)
        for p in pairs:
            eckmann_hilton(p)
        sms = enumerate_semi_mackey(2, 2, 2)
        round_trips = sum(
            eckmann_hilton(pair_of_semi_mackey(s), norm_axiom=True).key()
            == s.key() for s in sms)
        systems = enumerate_systems(cyclic_group(2), 6, "unital")
        print(len(pairs), len(sms), round_trips, len(systems))
    """)
    src = str(Path(equialg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["9", "9", "9", "6"]
