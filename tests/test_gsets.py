"""G-set calculus: orbits, adjunctions, pullbacks, double cosets, spans."""
import json
import os
import subprocess
import sys
import textwrap
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import equialg
from equialg import (FiniteGroup, RepDimension, Subgroup, TransferSystem,
                     ValidationError, cyclic_group, direct_product, subgroups)
from equialg import gsets
from equialg.connectivity import disk_conn_c2
from equialg.errors import GuardExceededError, TheoremViolation
from equialg.gsets import (GSet, GSetMap, Span, coinduce, compose_spans,
                           distinguished_fixed_point, double_cosets,
                           equivariant_maps, fixed_points, from_orbit_types,
                           hom_count, induce, is_isomorphic, orbit_decompose,
                           orbit_projection, pullback, restrict,
                           spans_equivalent, terminal_map)
from equialg.indexing import f_zero, level_tables
from equialg.magmas import CoefficientSystem

C2 = cyclic_group(2)
C4 = cyclic_group(4)


def sub(g, members):
    return Subgroup(g, members)


def all_gsets_up_to(group, max_size):
    """All iso classes of G-sets of size <= max_size (multisets of orbits)."""
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


def hom_count_bruteforce(s, t):
    n = 0
    for img in product(t.points, repeat=s.size):
        if all(img[s.act[g][x]] == t.act[g][img[x]]
               for g in s.group.elements for x in s.points):
            n += 1
    return n


def test_orbit_decompose_empty():
    assert orbit_decompose(GSet.empty(C2)) == []


def test_orbit_decompose_regular_c2():
    assert orbit_decompose(GSet.regular(C2)) == [((1, (0,)), 1)]


def test_orbit_decompose_c4_on_two_points():
    # C_4 acting on 2 points through the quotient: generator swaps them
    s = GSet(C4, [[0, 1], [1, 0], [0, 1], [1, 0]])
    assert orbit_decompose(s) == [((2, (0, 2)), 1)]


def test_rebuild_round_trip():
    for s in all_gsets_up_to(C4, 6):
        types = []
        for (order, members), mult in orbit_decompose(s):
            types += [sub(C4, members)] * mult
        assert is_isomorphic(s, from_orbit_types(C4, types))


def test_induce_free_orbit():
    e = sub(C2, {0})
    point = GSet.trivial(e.as_group())
    assert is_isomorphic(induce(e, point), GSet.regular(C2))


def test_induce_identity_case():
    full = sub(C2, {0, 1})
    s = GSet(full.as_group(), [[0, 1, 2], [1, 0, 2]])
    assert is_isomorphic(induce(full, s), s)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_res_ind_point_gives_p_points(p):
    g = cyclic_group(p)
    e = sub(g, {0})
    point = GSet.trivial(e.as_group())
    r = restrict(e, induce(e, point))
    assert r.size == p
    assert all(len(o) == 1 for o in r.orbits())


def test_restrict_regular_orbit():
    e = sub(C2, {0})
    r = restrict(e, GSet.regular(C2))
    assert r.size == 2 and len(r.orbits()) == 2


def test_coinduce_identity_case():
    full = sub(C2, {0, 1})
    s = GSet(full.as_group(), [[0, 1], [1, 0]])
    assert is_isomorphic(coinduce(full, s), s)


def test_coinduce_counts_and_fixed_points():
    e = sub(C2, {0})
    two = GSet.trivial(e.as_group(), 2)
    c = coinduce(e, two)
    assert c.size == 4  # |s|^[G:h] with the full mapping set retained
    assert len(fixed_points(c, sub(C2, {0, 1}))) == 2


def test_coinduce_guard():
    e = sub(C4, {0})
    s = GSet.trivial(e.as_group(), 20)
    with pytest.raises(GuardExceededError):
        coinduce(e, s)


def test_pullback_along_identity():
    s = GSet.regular(C4)
    f = GSetMap.identity(s)
    p, p1, p2 = pullback(f, f)
    assert is_isomorphic(p, s)


def test_pullback_free_square():
    for p in [2, 3]:
        g = cyclic_group(p)
        free = GSet.regular(g)
        t = terminal_map(free)
        pb, _, _ = pullback(t, t)
        assert pb.size == p * p
        assert orbit_decompose(pb) == [((1, (0,)), p)]


def test_pullback_universal_property_by_cone_enumeration():
    g = C4
    c2 = sub(g, {0, 2})
    f = orbit_projection(g, sub(g, {0}), c2)
    h = GSetMap(GSet.orbit(g, c2), GSet.orbit(g, c2),
                range(GSet.orbit(g, c2).size))
    p, p1, p2 = pullback(f, h)
    for w in [GSet.trivial(g), GSet.orbit(g, c2), GSet.regular(g)]:
        for a in equivariant_maps(w, f.src):
            for b in equivariant_maps(w, h.src):
                if any(f(a(x)) != h(b(x)) for x in w.points):
                    continue
                mediators = [u for u in equivariant_maps(w, p)
                             if all(p1(u(x)) == a(x) and p2(u(x)) == b(x)
                                    for x in w.points)]
                assert len(mediators) == 1


def test_pullback_of_empty():
    s = GSet.regular(C2)
    emp = GSet.empty(C2)
    f = GSetMap(emp, GSet.trivial(C2), [], validate=False)
    pb, _, _ = pullback(terminal_map(s), f)
    assert pb.size == 0


def test_fixed_points_cases():
    assert fixed_points(GSet.regular(C2), sub(C2, {0, 1})) == []
    assert len(fixed_points(GSet.trivial(C4), sub(C4, {0, 2}))) == 1
    s = GSet.trivial(C2, 2) + GSet.regular(C2)
    assert len(fixed_points(s, sub(C2, {0, 1}))) == 2


def test_double_cosets():
    g = C4
    full = sub(g, set(g.elements))
    e = sub(g, {0})
    c2 = sub(g, {0, 2})
    assert double_cosets(full, full, g) == [0]
    assert double_cosets(sub(C2, {0}), sub(C2, {0}), C2) == [0, 1]
    assert double_cosets(c2, c2, g) == [0, 1]


def test_distinguished_fixed_point():
    full = sub(C4, set(C4.elements))
    c2 = sub(C4, {0, 2})
    e = sub(C4, {0})
    s, pt = distinguished_fixed_point(full, full)
    assert s.size == 1 and pt == 0
    s, pt = distinguished_fixed_point(sub(C2, {0}), sub(C2, {0, 1}))
    assert s.size == 2
    s, pt = distinguished_fixed_point(c2, full)
    res_fixed = [x for x in s.points if all(row[x] == x for row in s.act)]
    assert s.size == 2 and pt in res_fixed and len(res_fixed) == 2


def test_span_identity_compose():
    s = GSet.regular(C2)
    i = Span.identity(s)
    assert spans_equivalent(compose_spans(i, i), i)


def test_span_res_tr_composite_is_p_free_orbits():
    for p in [2, 3]:
        g = cyclic_group(p)
        free = GSet.regular(g)
        tr = Span(GSetMap.identity(free), terminal_map(free))
        re = Span(terminal_map(free), GSetMap.identity(free))
        comp = compose_spans(tr, re)
        assert orbit_decompose(comp.apex) == [((1, (0,)), p)]


def test_span_empty_apex_absorbs():
    s = GSet.regular(C2)
    emp = GSet.empty(C2)
    z = Span(GSetMap(emp, s, [], validate=False),
             GSetMap(emp, s, [], validate=False))
    i = Span.identity(s)
    assert compose_spans(z, i).apex.size == 0
    assert compose_spans(i, z).apex.size == 0


def test_span_composition_associative_up_to_apex_iso():
    g = C4
    c2 = sub(g, {0, 2})
    free = GSet.regular(g)
    mid = GSet.orbit(g, c2)
    f1 = Span(terminal_map(free), orbit_projection(g, sub(g, {0}), c2))
    f2 = Span(GSetMap.identity(mid), terminal_map(mid))
    f3 = Span(terminal_map(free), GSetMap.identity(free))
    lhs = compose_spans(compose_spans(f1, f2), f3)
    rhs = compose_spans(f1, compose_spans(f2, f3))
    assert spans_equivalent(lhs, rhs)


def test_hom_count_matches_bruteforce():
    small = [s for s in all_gsets_up_to(C4, 4) if s.size <= 4]
    for s in small:
        for t in small:
            assert hom_count(s, t) == hom_count_bruteforce(s, t)


def test_equivariant_maps_are_exactly_the_equivariant_functions():
    s = GSet.regular(C4) + GSet.trivial(C4)
    t = GSet.orbit(C4, sub(C4, {0, 2})) + GSet.trivial(C4)
    got = {m.on_points for m in equivariant_maps(s, t)}
    assert len(got) == hom_count(s, t)
    for m in got:
        GSetMap(s, t, m)  # validates equivariance


@pytest.mark.parametrize("group", [C2, C4])
def test_adjunction_counts(group):
    hs = [h for h in subgroups(group)]
    for h in hs:
        h_sets = all_gsets_up_to(h.as_group(), 4)
        g_sets = all_gsets_up_to(group, 4)
        for s in h_sets:
            for t in g_sets:
                assert hom_count(induce(h, s), t) == hom_count(s, restrict(h, t))
                assert hom_count(restrict(h, s_t := t), s) == hom_count(
                    s_t, coinduce(h, s))


def double_coset_product(k, h, s):
    """The product over K\\G/H of CoInd_L^K of s twisted by g, where
    L = K meet gHg^-1 acts on s through conjugation by g: the side of the
    double coset formula for Res_K CoInd_H s that reads no coinduction
    to G."""
    group = k.parent
    rhs = None
    for g in double_cosets(k, h, group):
        conj_h = {group.conj(g, a) for a in h.members}
        l_in_k = Subgroup(group, k.members & conj_h).relative_to(k)
        act = []
        for m in l_in_k.embedding:
            a = k.embedding[m]  # element of G inside K
            b = group.mul(group.mul(group.inv_table[g], a), g)
            act.append(s.act[h.to_local(b)])
        piece = coinduce(l_in_k, GSet(l_in_k.as_group(), act))
        rhs = piece if rhs is None else pullback(
            terminal_map(rhs), terminal_map(piece))[0]  # product of K-sets
    return rhs


def test_res_coind_double_coset_decomposition():
    # Res_K CoInd_H s decomposes over K\G/H as a product of coinductions
    for group in [C2, C4]:
        for k in subgroups(group):
            for h in subgroups(group):
                for s in all_gsets_up_to(h.as_group(), 3):
                    try:
                        lhs = restrict(k, coinduce(h, s))
                    except GuardExceededError:
                        continue
                    rhs = double_coset_product(k, h, s)
                    assert lhs.size == rhs.size
                    assert is_isomorphic(lhs, rhs)


def test_gset_json_round_trip():
    s = GSet.regular(C4)
    t = GSet.from_json(s.to_json(), C4)
    assert s == t
    with pytest.raises(ValidationError):
        GSet.from_json('{"group": "C4", "points": 1, "act": [[0],[0],[0],[1]]}', C4)


def test_span_json_round_trip():
    free = GSet.regular(C2)
    span = Span(GSetMap.identity(free), terminal_map(free))
    back = Span.from_json(span.to_json(), C2)
    assert back.left == span.left and back.right == span.right
    with pytest.raises(ValidationError):
        Span.from_json('{"apex": {}}', C2)


@pytest.mark.parametrize("text", [
    '{"points": 2, "act": [[0, 1], [1, 0.5]]}',
    '{"points": 2, "act": [[0, 1], [1.0, 0]]}',
    '{"points": 2.7, "act": [[0, 1], [1, 0]]}',
    '{"points": 2.0, "act": [[0, 1], [1, 0]]}',
    '{"points": 2}', '{"act": 2}', '[[0, 1], [1, 0]]'])
def test_gset_json_rejects_malformed_fields(text):
    with pytest.raises(ValidationError):
        GSet.from_json(text, C2)


@pytest.mark.parametrize("leg,value", [
    ("left", [0, 1.5]), ("left", [0.0, 1]), ("right", [0, 0.5]),
    ("right", [0, False])])
def test_span_json_rejects_non_integral_legs(leg, value):
    free = GSet.regular(C2)
    data = json.loads(Span(GSetMap.identity(free), terminal_map(free)).to_json())
    data[leg] = value
    with pytest.raises(ValidationError):
        Span.from_json(json.dumps(data), C2)


# -- the one coset routine against the constructions it replaced ------------

def s3_group():
    """Symmetric group on 3 letters, where left and right cosets differ."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    return FiniteGroup([[perms.index(tuple(p[q[i]] for i in range(3)))
                         for q in perms] for p in perms], name="S3")


def ref_cosets(group, members):
    """Left cosets gH as sorted tuples, in sorted order."""
    return sorted({tuple(sorted(group.mul(g, a) for a in members))
                   for g in group.elements})


def ref_orbit_act(group, h):
    cosets = ref_cosets(group, h.members)
    index = {c: i for i, c in enumerate(cosets)}
    return tuple(tuple(index[tuple(sorted(group.mul(g, a) for a in coset))]
                       for coset in cosets) for g in group.elements)


def ref_projection(group, k, h):
    h_index = {c: i for i, c in enumerate(ref_cosets(group, h.members))}
    return tuple(h_index[tuple(sorted(group.mul(coset[0], a)
                                      for a in h.members))]
                 for coset in ref_cosets(group, k.members))


def ref_induce_act(h, s):
    group = h.parent
    cosets = ref_cosets(group, h.members)
    reps = [c[0] for c in cosets]
    coset_of = {a: i for i, c in enumerate(cosets) for a in c}
    pts = [(i, x) for i in range(len(cosets)) for x in s.points]
    index = {p: k for k, p in enumerate(pts)}
    act = []
    for g in group.elements:
        row = []
        for (i, x) in pts:
            gi = group.mul(g, reps[i])
            j = coset_of[gi]
            hh = group.mul(group.inv_table[reps[j]], gi)
            row.append(index[(j, s.act[h.to_local(hh)][x])])
        act.append(tuple(row))
    return tuple(act)


def ref_coinduce_act(h, s):
    group = h.parent
    cosets = sorted({tuple(sorted(group.mul(a, g) for a in h.members))
                     for g in group.elements})  # right cosets Hg
    reps = [c[0] for c in cosets]
    coset_of = {a: i for i, c in enumerate(cosets) for a in c}
    pts = list(product(s.points, repeat=len(cosets)))
    index = {p: i for i, p in enumerate(pts)}
    act = []
    for g in group.elements:
        moves = []
        for i in range(len(cosets)):
            rig = group.mul(reps[i], g)
            j = coset_of[rig]
            hh = group.mul(rig, group.inv_table[reps[j]])
            moves.append((j, h.to_local(hh)))
        act.append(tuple(index[tuple(s.act[hl][f[j]] for (j, hl) in moves)]
                         for f in pts))
    return tuple(act)


def ref_distinguished_point(u, v):
    u_in_v = u.relative_to(v)
    return ref_cosets(v.as_group(), u_in_v.members).index(
        tuple(sorted(u_in_v.members)))


@pytest.mark.parametrize("group", [
    C4, cyclic_group(6), direct_product(C2, C2), s3_group()],
    ids=["C4", "C6", "C2xC2", "S3"])
def test_coset_routines_match_the_sort_the_cosets_reference(group):
    """Orbits, projections, induction, coinduction and the distinguished
    fixed point, all read off `_cosets`, equal the constructions that sort
    the cosets themselves, on every subgroup (pair)."""
    subs = subgroups(group)
    for h in subs:
        assert GSet.orbit(group, h).act == ref_orbit_act(group, h)
        hg = h.as_group()
        for s in [GSet.orbit(hg, k) for k in subgroups(hg)] + \
                [GSet.trivial(hg, 2)]:
            assert induce(h, s).act == ref_induce_act(h, s)
            assert coinduce(h, s).act == ref_coinduce_act(h, s)
        for k in subs:
            if k.members <= h.members:
                assert orbit_projection(group, k, h).on_points == \
                    ref_projection(group, k, h)
                assert distinguished_fixed_point(k, h)[1] == \
                    ref_distinguished_point(k, h)


def misplacing(element, to):
    """`_cosets` with `element` sent to coset `to`."""
    cosets = gsets._cosets

    def wrong(group, members, right=False):
        out, coset_of = cosets(group, members, right)
        return out, {**coset_of, element: to}

    return wrong


def test_coset_transport_check_survives_optimized_mode():
    """Under `python -O` induction still raises when an element is sent to
    the wrong coset: the transporter it computes is not in H."""
    script = textwrap.dedent("""
        import sys
        from equialg import Subgroup, TheoremViolation, cyclic_group
        from equialg import gsets
        c4 = cyclic_group(4)
        h = Subgroup(c4, {0, 2})
        cosets = gsets._cosets

        def wrong(group, members, right=False):
            out, coset_of = cosets(group, members, right)
            return out, {**coset_of, 1: 0}

        gsets._cosets = wrong
        try:
            gsets.induce(h, gsets.GSet.trivial(h.as_group()))
        except TheoremViolation as exc:
            sys.exit(0 if exc.witness == ("C4", 0, 1) else 2)
        sys.exit(1)
    """)
    src = str(Path(equialg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_coinduce_and_distinguished_point_raise_on_a_wrong_coset(monkeypatch):
    h = sub(C4, {0, 2})
    monkeypatch.setattr(gsets, "_cosets", misplacing(1, 0))
    with pytest.raises(TheoremViolation) as exc:
        coinduce(h, GSet.trivial(h.as_group()))
    assert exc.value.witness == ("C4", 0, 1)
    # {e, (0 1)} in S3 fixes only its own coset of three, so a point read
    # off the wrong coset is moved
    s3 = s3_group()
    monkeypatch.setattr(gsets, "_cosets", misplacing(s3.identity, 1))
    with pytest.raises(TheoremViolation) as exc:
        distinguished_fixed_point(sub(s3, {0, 3}), sub(s3, s3.elements))
    assert exc.value.witness[0].startswith("S3") and exc.value.witness[2] == 1


# -- one routine per orbit fact, against the loops it replaced --------------

def d8_group():
    """Symmetries of a square on its corners."""
    elems = [(0, 1, 2, 3)]
    for x in elems:
        for g in [(1, 2, 3, 0), (0, 3, 2, 1)]:
            y = tuple(g[i] for i in x)
            if y not in elems:
                elems.append(y)
    return FiniteGroup([[elems.index(tuple(p[q[i]] for i in range(4)))
                         for q in elems] for p in elems], name="D8")


S3 = s3_group()
D8 = d8_group()
SIX_GROUPS = pytest.mark.parametrize("group", [
    C2, C4, cyclic_group(6), direct_product(C2, C2), S3, D8],
    ids=["C2", "C4", "C6", "C2xC2", "S3", "D8"])


def relabel(s, perm):
    """s with point x renamed perm[x]."""
    act = [[0] * s.size for _ in s.group.elements]
    for g in s.group.elements:
        for x in s.points:
            act[g][perm[x]] = perm[s.act[g][x]]
    return GSet(s.group, act)


def shuffled_gsets(group, max_size):
    """Every G-set of `all_gsets_up_to`, and each again with its points
    reversed, so that orbits interleave."""
    sets = all_gsets_up_to(group, max_size)
    return sets + [relabel(s, s.points[::-1]) for s in sets]


def reference_orbits(s):
    """Orbits by the `seen` list `GSet.orbits` kept before `groups.orbits`."""
    seen = [False] * s.size
    orbits = []
    for x in s.points:
        if seen[x]:
            continue
        orbit = sorted({s.act[g][x] for g in s.group.elements})
        for y in orbit:
            seen[y] = True
        orbits.append(orbit)
    return orbits


def reference_double_cosets(k, h, g):
    """The `while remaining` loop `double_cosets` kept."""
    remaining = set(g.elements)
    reps = []
    while remaining:
        x = min(remaining)
        reps.append(x)
        remaining -= {g.mul(g.mul(a, x), b) for a in k.members
                      for b in h.members}
    return reps


def reference_equivariant_maps(s, t):
    """`equivariant_maps` with the transport dict it built per orbit."""
    orbits = reference_orbits(s)
    choices = []
    transports = []
    for orbit in orbits:
        x = orbit[0]
        choices.append(fixed_points(t, s.stabilizer(x)))
        tr = {}
        for g in s.group.elements:
            y = s.act[g][x]
            if y not in tr:
                tr[y] = g
        transports.append(sorted(tr.items()))
    for combo in product(*choices):
        on = [0] * s.size
        for img, tr in zip(combo, transports):
            for (y, g) in tr:
                on[y] = t.act[g][img]
        yield tuple(on)


@SIX_GROUPS
def test_orbits_double_cosets_and_maps_match_the_loops_they_replaced(group):
    sets = shuffled_gsets(group, 4)
    for s in sets:
        assert s.orbits() == reference_orbits(s)
        for x in s.points:
            assert s.transversal(x) == {
                y: min(g for g in group.elements if s.act[g][x] == y)
                for y in sorted({s.act[g][x] for g in group.elements})}
        for t in sets[::3]:
            assert [m.on_points for m in equivariant_maps(s, t)] == \
                list(reference_equivariant_maps(s, t))
    subs = subgroups(group)
    for k in subs:
        for h in subs:
            assert double_cosets(k, h, group) == \
                reference_double_cosets(k, h, group)


@SIX_GROUPS
def test_induce_and_coinduce_match_the_transporter_loops(group):
    """`_coset_moves` against the two transporter loops of induction (left
    cosets) and coinduction (right cosets), which differ on S3 and D8."""
    for h in subgroups(group):
        hg = h.as_group()
        for s in shuffled_gsets(hg, 2):
            assert induce(h, s).act == ref_induce_act(h, s)
            if s.size ** (group.order // h.order) <= 4096:
                assert coinduce(h, s).act == ref_coinduce_act(h, s)


# -- integer entries ---------------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: FiniteGroup([[0, 1], [1, 0.5]]),
    lambda: FiniteGroup([[0, 1.0], [1, 0]]),
    lambda: GSet(C2, [[0, 1], [1.7, 0]]),
    lambda: GSet(C2, [[0, True], [1, 0]]),
    lambda: Subgroup(C2, {0, 1.2}),
    lambda: Subgroup(C2, [0, True]),
    lambda: GSetMap(GSet.regular(C2), GSet.regular(C2), [0.9, 1.2]),
    lambda: GSetMap(GSet.regular(C2), GSet.regular(C2), [0, 1.0]),
    lambda: TransferSystem(C2, [(0.9, 1)]),
    lambda: TransferSystem(C2, [(False, 1)]),
    lambda: RepDimension(C2, {0: 2.5, 1: 1}),
    lambda: RepDimension(C2, {0.0: 2, 1: 1})],
    ids=["group-float", "group-1.0", "gset-float", "gset-bool",
         "subgroup-float", "subgroup-bool", "map-float", "map-1.0",
         "transfer-float", "transfer-bool", "rep-float", "rep-key-0.0"])
def test_constructors_reject_non_integral_entries(build):
    """Each of these was truncated by `int()` and accepted."""
    with pytest.raises(ValidationError, match="must hold integers"):
        build()


@pytest.mark.parametrize("build", [
    lambda: f_zero(level_tables(C2, 2), [7]),
    lambda: f_zero(level_tables(C2, 2), [0.0]),
    lambda: CoefficientSystem(2.0, 1, [0], 1, [0]),
    lambda: disk_conn_c2(1, 1, ("e",)),
    lambda: disk_conn_c2(1, 1, ("G", 2)),
    lambda: disk_conn_c2(1.5, 1, ("e", 2))],
    ids=["f_zero-7", "f_zero-0.0", "coefficients-2.0", "disk-e-short",
         "disk-G-short", "disk-1.5"])
def test_malformed_inputs_raise_validation_error(build):
    """The first five escaped as IndexError or TypeError; the last was
    computed as if 1.5 were a multiplicity."""
    with pytest.raises(ValidationError):
        build()


# -- criterion 7 on random G-sets over non-abelian groups --------------------

@st.composite
def random_gset(draw, group, max_points):
    """A multiset of orbits G/H with at most `max_points` points, its
    points shuffled."""
    subs = subgroups(group)
    chosen = []
    left = max_points
    while True:
        fits = [h for h in subs if group.order // h.order <= left]
        if not fits or not draw(st.booleans()):
            break
        h = draw(st.sampled_from(fits))
        chosen.append(h)
        left -= group.order // h.order
    s = from_orbit_types(group, chosen)
    return relabel(s, draw(st.permutations(range(s.size))))


def coinducible_points(group, h, limit=4096):
    """The most points an H-set may have for CoInd_H^G of it to stay
    within `limit` points."""
    index = group.order // h.order
    return max(m for m in range(1, 5) if m ** index <= limit or m == 1)


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


@PROPERTY
@given(st.data())
def test_adjunctions_on_random_gsets_over_s3_and_d8(data):
    """Induction and coinduction satisfy the action law, and
    Hom(Ind s, t) = Hom(s, Res t) and Hom(Res t, s) = Hom(t, CoInd s)."""
    group = data.draw(st.sampled_from([S3, D8]))
    h = data.draw(st.sampled_from(subgroups(group)))
    s = data.draw(random_gset(h.as_group(), coinducible_points(group, h)))
    t = data.draw(random_gset(group, 4))
    ind, coind = induce(h, s), coinduce(h, s)
    GSet(group, ind.act), GSet(group, coind.act)  # validated
    assert hom_count(ind, t) == hom_count(s, restrict(h, t))
    assert hom_count(restrict(h, t), s) == hom_count(t, coind)


@PROPERTY
@given(st.data())
def test_double_coset_formula_on_random_gsets_over_s3_and_d8(data):
    """Res_K CoInd_H s is the product over K\\G/H of the twisted
    coinductions."""
    group = data.draw(st.sampled_from([S3, D8]))
    subs = subgroups(group)
    k = data.draw(st.sampled_from(subs))
    h = data.draw(st.sampled_from(subs))
    s = data.draw(random_gset(h.as_group(), coinducible_points(group, h)))
    lhs = restrict(k, coinduce(h, s))
    rhs = double_coset_product(k, h, s)
    assert lhs.size == rhs.size and is_isomorphic(lhs, rhs)
