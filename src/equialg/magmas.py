"""C_p-unital magmas, interchange, the Eckmann-Hilton engine, and
semi-Mackey functors, all over explicit finite operation tables.

A C_p-unital magma is a two-level coefficient system (a level-e carrier
with C_p-action and a fixed-level carrier) with unital magma structures on
both levels, a restriction r into the fixed points, an equivariant
transfer t, and r∘t equal to multiplication by p.  "Multiplication by p"
defaults to the p-fold power x·(x·(...)); the `norm_axiom` toggle switches
to the twisted product over the group, and the two readings agree whenever
the action is trivial, where the orbit of x is p copies of x.

The engine is a falsification harness: `eckmann_hilton` checks its
preconditions, then checks each conclusion once (the two structures
coincide, and their common structure passes `semi_mackey_check`) and raises
`TheoremViolation` with a witness if any fails.  `check_interchange`
checks binary interchange only; the p×p grid law follows (see its proof).

The two exhaustive sweeps, of interchanging pairs and of semi-Mackey
functors, are the two halves of one walk, `sweep`, over one generator,
`_candidates`, which holds their one guard: a non-prime p is a
`ValidationError`, and p > 3 or a carrier larger than `SWEEP_GUARD` is a
`GuardExceededError`.  The generator decides the axioms both full checks
share where their tables are first fixed, and r∘t on trivial actions; the
sweep decides r∘t on the rest, and once per distinct table the verdicts
that gate `check_interchange` and `semi_mackey_check`.  Each half returns
what generate-and-test returns, in the same order.
"""
from __future__ import annotations

import json
from functools import cache
from itertools import groupby, permutations, product
from operator import itemgetter

from .errors import (CheckReport, GuardExceededError, TheoremViolation,
                     ValidationError, require_ints)
from .groups import cyclic_group
from .gsets import GSet, GSetMap, Span, compose_spans, terminal_map


def _is_prime(p):
    return p >= 2 and all(p % d for d in range(2, p))


def _perm_power(perm, k):
    out = list(range(len(perm)))
    for _ in range(k):
        out = [perm[i] for i in out]
    return tuple(out)


class CoefficientSystem:
    """Carriers for both levels: level e with a C_p-action given by the
    generator permutation, level G with trivial action, and r into the
    fixed points of level e."""

    __slots__ = ("p", "size_e", "sigma", "size_g", "r")

    def __init__(self, p, size_e, sigma, size_g, r):
        require_ints((p, size_e, size_g), "p and the carrier sizes")
        if not _is_prime(p):
            raise ValidationError("p must be prime")
        sigma, r = tuple(sigma), tuple(r)
        require_ints((sigma, r), "generator action and r")
        if sorted(sigma) != list(range(size_e)):
            raise ValidationError("generator action must be a permutation")
        if _perm_power(sigma, p) != tuple(range(size_e)):
            raise ValidationError("generator action must have order dividing p")
        if len(r) != size_g or any(not 0 <= x < size_e for x in r):
            raise ValidationError("r must map level G into level e")
        if any(sigma[x] != x for x in r):
            raise ValidationError("r must land in the fixed points")
        self.p, self.size_e, self.size_g = p, size_e, size_g
        self.sigma, self.r = sigma, r

    def act(self, g, x):
        for _ in range(g % self.p):
            x = self.sigma[x]
        return x

    def key(self):
        return (self.p, self.size_e, self.sigma, self.size_g, self.r)

    def __eq__(self, other):
        return isinstance(other, CoefficientSystem) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def _table(raw, n):
    tab = tuple(tuple(row) for row in raw)
    require_ints(tab, "operation table")
    if len(tab) != n or any(len(row) != n for row in tab):
        raise ValidationError("operation table must be square")
    if any(not 0 <= x < n for row in tab for x in row):
        raise ValidationError("operation table entries out of range")
    return tab


def nested_product(mul, xs):
    """x1 · (x2 · (x3 · ...)); the p-ary operation used throughout."""
    out = xs[-1]
    for x in reversed(xs[:-1]):
        out = mul[x][out]
    return out


class _TwoLevelStructure:
    """Operation tables with units on both levels of a coefficient system
    and a transfer t from level e to level G, range-checked against the
    carriers; equal by value.  Subclasses add their axioms."""

    __slots__ = ("base", "mul_e", "unit_e", "mul_g", "unit_g", "t")

    def __init__(self, base: CoefficientSystem, mul_e, unit_e, mul_g, unit_g, t):
        ne, ng = base.size_e, base.size_g
        self.base = base
        self.mul_e = _table(mul_e, ne)
        self.mul_g = _table(mul_g, ng)
        self.unit_e, self.unit_g, self.t = unit_e, unit_g, tuple(t)
        require_ints((unit_e, unit_g, self.t), "units and t")
        if not (0 <= self.unit_e < ne and 0 <= self.unit_g < ng):
            raise ValidationError("units must lie in their carriers")
        if len(self.t) != ne or any(not 0 <= x < ng for x in self.t):
            raise ValidationError("t must map level e to level G")

    @classmethod
    def _trusted(cls, base, mul_e, mul_g, t):
        """Units 0 and tables as `_candidates` makes them, in-range tuples
        of ints already: the slots are set with no check."""
        s = object.__new__(cls)
        s.base, s.mul_e, s.mul_g, s.t = base, mul_e, mul_g, t
        s.unit_e = s.unit_g = 0
        return s

    def key(self):
        return (self.base.key(), self.mul_e, self.unit_e, self.mul_g,
                self.unit_g, self.t)

    def __eq__(self, other):
        return type(other) is type(self) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def pow_p(self, x):
        return nested_product(self.mul_e, [x] * self.base.p)

    def norm(self, x):
        """The level-e product over the C_p-orbit of x."""
        return nested_product(self.mul_e,
                              [self.base.act(g, x) for g in range(self.base.p)])


class CpUnitalMagma(_TwoLevelStructure):
    """Unital magma structures on both levels of a coefficient system,
    with an equivariant transfer."""

    __slots__ = ()

    def __init__(self, base: CoefficientSystem, mul_e, unit_e, mul_g, unit_g, t,
                 validate=True, norm_axiom=False):
        super().__init__(base, mul_e, unit_e, mul_g, unit_g, t)
        if validate:
            rep = validate_magma(self, norm_axiom=norm_axiom)
            if not rep:
                raise ValidationError(f"not a C_p-unital magma: {rep}")


def _structure_report(s: _TwoLevelStructure):
    """The axioms both full checks share: the action, r and t are unital
    and multiplicative, and t is equivariant.  The first failure, or None."""
    b = s.base
    ne, ng = b.size_e, b.size_g
    if b.sigma[s.unit_e] != s.unit_e:
        return CheckReport(False, "action-unital", (s.unit_e,))
    for x in range(ne):
        for y in range(ne):
            if b.sigma[s.mul_e[x][y]] != s.mul_e[b.sigma[x]][b.sigma[y]]:
                return CheckReport(False, "action-multiplicative", (x, y))
    if b.r[s.unit_g] != s.unit_e:
        return CheckReport(False, "r-unital", ())
    for x in range(ng):
        for y in range(ng):
            if b.r[s.mul_g[x][y]] != s.mul_e[b.r[x]][b.r[y]]:
                return CheckReport(False, "r-multiplicative", (x, y))
    if s.t[s.unit_e] != s.unit_g:
        return CheckReport(False, "t-unital", ())
    for x in range(ne):
        for y in range(ne):
            if s.t[s.mul_e[x][y]] != s.mul_g[s.t[x]][s.t[y]]:
                return CheckReport(False, "t-multiplicative", (x, y))
    for x in range(ne):
        if s.t[b.sigma[x]] != s.t[x]:
            return CheckReport(False, "t-equivariant", (x,))
    return None


def validate_magma(m: CpUnitalMagma, norm_axiom: bool = False) -> CheckReport:
    """Exhaustive axiom check; reports the first violated axiom and witness."""
    for mul, unit, level in [(m.mul_e, m.unit_e, "e"), (m.mul_g, m.unit_g, "G")]:
        for x in range(len(mul)):
            if mul[unit][x] != x or mul[x][unit] != x:
                return CheckReport(False, f"unit-{level}", (x,))
    rep = _structure_report(m)
    return _rt_report(m, norm_axiom) if rep is None else rep


def _rt_report(m, norm_axiom):
    """The r∘t law: r(t(x)) is multiplication by p, per the reading."""
    for x, rt in enumerate(map(m.base.r.__getitem__, m.t)):
        expect = m.norm(x) if norm_axiom else m.pow_p(x)
        if rt != expect:
            return CheckReport(False, "r-t-multiplication-by-p", (x, rt, expect))
    return CheckReport(True)


def is_homomorphism(maps, m: CpUnitalMagma, n: CpUnitalMagma) -> bool:
    """Is (f_e, f_G) a homomorphism m -> n: unital, multiplicative at both
    levels, equivariant, and intertwining r and t?"""
    fe, fg = maps
    mb, nb = m.base, n.base
    if mb.p != nb.p:
        return False
    if len(fe) != mb.size_e or len(fg) != mb.size_g:
        raise ValidationError("carriers do not match")
    if fe[m.unit_e] != n.unit_e or fg[m.unit_g] != n.unit_g:
        return False
    for x in range(mb.size_e):
        if fe[mb.sigma[x]] != nb.sigma[fe[x]]:
            return False
        for y in range(mb.size_e):
            if fe[m.mul_e[x][y]] != n.mul_e[fe[x]][fe[y]]:
                return False
    for x in range(mb.size_g):
        for y in range(mb.size_g):
            if fg[m.mul_g[x][y]] != n.mul_g[fg[x]][fg[y]]:
                return False
    for x in range(mb.size_e):
        if fg[m.t[x]] != n.t[fe[x]]:
            return False
    for x in range(mb.size_g):
        if fe[mb.r[x]] != nb.r[fg[x]]:
            return False
    return True


class InterchangePair:
    """Two C_p-unital magma structures on one coefficient system."""

    __slots__ = ("base", "star", "bullet")

    def __init__(self, star: CpUnitalMagma, bullet: CpUnitalMagma):
        if star.base != bullet.base:
            raise ValidationError("the two structures must share carriers and r")
        self.base, self.star, self.bullet = star.base, star, bullet

    def key(self):
        return (self.star.key(), self.bullet.key())

    def __eq__(self, other):
        return isinstance(other, InterchangePair) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def _interchange_witness(mul1, mul2):
    """The first (a, x, y, z) where binary interchange fails, or None."""
    for a, x, y, z in product(range(len(mul1)), repeat=4):
        if mul2[mul1[a][x]][mul1[y][z]] != mul1[mul2[a][y]][mul2[x][z]]:
            return a, x, y, z
    return None


def check_interchange(pair: InterchangePair,
                      norm_axiom: bool = False) -> CheckReport:
    """The interchange relations between the two structures.

    Beyond shared units and binary interchange, the two transfers must
    intertwine the other structure's multiplications, restrict compatibly
    (r∘t of one structure is multiplication by p in the other, read per
    the active axiom), and agree through the identified p-ary
    multiplications: t_bullet(star(y_1..y_p)) = t_star(bullet(y_1..y_p)).
    Without that last relation the two transfers are not coupled at all.

    Binary interchange implies the p×p grid law, so that is not checked.
    With ·_1, ·_2 the star and bullet products of a level and
    N_i(x_1..x_m) = x_1 ·_i N_i(x_2..x_m), if (a ·_1 x) ·_2 (y ·_1 z) =
    (a ·_2 y) ·_1 (x ·_2 z) always, N_2 of the row products N_1 equals N_1
    of the column products N_2 on every k×m grid: for two rows by induction
    on m, as N_1(a, X) ·_2 N_1(y, Z) = (a ·_2 y) ·_1 (N_1(X) ·_2 N_1(Z));
    then by induction on k, applying that to row 1 and the column products
    of rows 2..k.  No unit, associativity or commutativity is used."""
    s, b, base = pair.star, pair.bullet, pair.base
    p, ne = base.p, base.size_e
    if s.unit_e != b.unit_e or s.unit_g != b.unit_g:
        return CheckReport(False, "shared-unit", ())
    for mul1, mul2, level in [(s.mul_e, b.mul_e, "e"), (s.mul_g, b.mul_g, "G")]:
        witness = _interchange_witness(mul1, mul2)
        if witness is not None:
            return CheckReport(False, f"binary-interchange-{level}", witness)
    for x, y in product(range(ne), repeat=2):
        if b.t[s.mul_e[x][y]] != s.mul_g[b.t[x]][b.t[y]]:
            return CheckReport(False, "t-bullet-star-homomorphism", (x, y))
        if s.t[b.mul_e[x][y]] != b.mul_g[s.t[x]][s.t[y]]:
            return CheckReport(False, "t-star-bullet-homomorphism", (x, y))
    for x in range(ne):
        mult_s = s.norm(x) if norm_axiom else s.pow_p(x)
        mult_b = b.norm(x) if norm_axiom else b.pow_p(x)
        if base.r[b.t[x]] != mult_s:
            return CheckReport(False, "restriction-square-bullet", (x,))
        if base.r[s.t[x]] != mult_b:
            return CheckReport(False, "restriction-square-star", (x,))
    for xs in product(range(ne), repeat=p):
        if b.t[nested_product(s.mul_e, xs)] != s.t[nested_product(b.mul_e, xs)]:
            return CheckReport(False, "transfer-interchange", xs)
    return CheckReport(True)


class SemiMackeyFunctor(_TwoLevelStructure):
    """Commutative monoids at both levels with restriction and transfer
    satisfying the double coset law r(t(x)) = product of the orbit of x."""

    __slots__ = ()

    def __init__(self, base, mul_e, unit_e, mul_g, unit_g, t, validate=True):
        super().__init__(base, mul_e, unit_e, mul_g, unit_g, t)
        if validate:
            rep = semi_mackey_check(self)
            if not rep:
                raise ValidationError(f"not a semi-Mackey functor: {rep}")


@cache
def _span_rt_composite(p):
    """Restriction after transfer on the free orbit, composed as spans once
    per p; its readers only read it."""
    g = cyclic_group(p)
    free = GSet.regular(g)
    transfer = Span(GSetMap.identity(free), terminal_map(free))
    restriction = Span(terminal_map(free), GSetMap.identity(free))
    return compose_spans(transfer, restriction), free


def evaluate_span_endo(sm: SemiMackeyFunctor, span: Span, free: GSet):
    """Evaluate a span from the free orbit to itself on level-e values.

    Pull along the left leg, push along the right leg; free orbits carry
    level-e values twisted by the transporting group element.  The apex of
    the double-coset span is free (C_p x C_p over a point is p free
    orbits); an apex orbit of another size raises TheoremViolation with
    (p, the orbit, its size) as witness."""
    base, p, orbits = sm.base, sm.base.p, span.apex.orbits()
    for orbit in orbits:
        if len(orbit) != p:
            raise TheoremViolation("apex of the double-coset span is not free",
                                   (p, orbit, len(orbit)))
    transport = free.transversal(free.orbits()[0][0])
    # per apex orbit: twist by the pull, then untwist by the push
    moves = [(transport[span.left.on_points[orbit[0]]],
              (-transport[span.right.on_points[orbit[0]]]) % p)
             for orbit in orbits]

    def run(v):
        out = sm.unit_e
        for a, b in moves:
            out = sm.mul_e[out][base.act(b, base.act(a, v))]
        return out

    return run


def semi_mackey_check(sm: SemiMackeyFunctor) -> CheckReport:
    """Full validity: monoid axioms, homomorphism and equivariance
    conditions, and the double coset law checked twice: by the direct
    orbit-product formula and through composition of the transfer and
    restriction spans."""
    base = sm.base
    ne, ng, p = base.size_e, base.size_g, base.p
    for (mul, n, unit, level) in [(sm.mul_e, ne, sm.unit_e, "e"),
                                  (sm.mul_g, ng, sm.unit_g, "G")]:
        for x in range(n):
            if mul[unit][x] != x or mul[x][unit] != x:
                return CheckReport(False, f"unit-{level}", (x,))
        for x, y in product(range(n), repeat=2):
            if mul[x][y] != mul[y][x]:
                return CheckReport(False, f"commutativity-{level}", (x, y))
            for z in range(n):
                if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
                    return CheckReport(False, f"associativity-{level}", (x, y, z))
    rep = _structure_report(sm)
    if rep is not None:
        return rep
    for x in range(ne):
        if base.r[sm.t[x]] != sm.norm(x):
            return CheckReport(False, "double-coset-law",
                               (x, base.r[sm.t[x]], sm.norm(x)))
    span, free = _span_rt_composite(p)
    run = evaluate_span_endo(sm, span, free)
    for x in range(ne):
        if run(x) != sm.norm(x):
            return CheckReport(False, "double-coset-span-path",
                               (x, run(x), sm.norm(x)))
    return CheckReport(True)


def eckmann_hilton(pair: InterchangePair,
                   norm_axiom: bool = False) -> SemiMackeyFunctor:
    """The Eckmann-Hilton conclusion, checked once.

    Rejects pairs failing the interchange precondition with
    ValidationError.  On a pair that passed it, the two structures must
    coincide, and their common structure must be a semi-Mackey functor
    (`semi_mackey_check`: commutative monoids, and the double coset law in
    the orbit-product form); a failure raises TheoremViolation carrying the
    differing values or the failing CheckReport as witness."""
    for m, name in [(pair.star, "star"), (pair.bullet, "bullet")]:
        rep = validate_magma(m, norm_axiom=norm_axiom)
        if not rep:
            raise ValidationError(f"{name} structure invalid: {rep}")
    rep = check_interchange(pair, norm_axiom=norm_axiom)
    if not rep:
        raise ValidationError(f"interchange precondition fails: {rep}")
    s, b = pair.star, pair.bullet
    if s.mul_e != b.mul_e or s.mul_g != b.mul_g:
        raise TheoremViolation("interchanging multiplications differ",
                               (s.mul_e, b.mul_e, s.mul_g, b.mul_g))
    if s.t != b.t:
        raise TheoremViolation("interchanging transfers differ", (s.t, b.t))
    sm = SemiMackeyFunctor(pair.base, s.mul_e, s.unit_e, s.mul_g, s.unit_g,
                           s.t, validate=False)
    rep = semi_mackey_check(sm)
    if not rep:
        raise TheoremViolation(f"output is not a semi-Mackey functor: {rep}",
                               rep)
    return sm


def pair_of_semi_mackey(sm: SemiMackeyFunctor) -> InterchangePair:
    """Duplicate the commutative structure under the orbit-product reading,
    which the double coset law supplies; inverse to eckmann_hilton."""
    m = CpUnitalMagma(sm.base, sm.mul_e, sm.unit_e, sm.mul_g, sm.unit_g, sm.t,
                      norm_axiom=True)
    return InterchangePair(m, m)


# -- exhaustive enumeration ------------------------------------------------

SWEEP_GUARD = 4  # largest carrier size either sweep visits


def _unital_tables(n, cell_values=None):
    """The tables on 0..n-1 with 0 a two-sided unit whose non-unit cells,
    in row-major order, take their values from `cell_values` (any value by
    default); lexicographic in those cells."""
    k = n - 1
    if cell_values is None:
        cell_values = [range(n)] * k * k
    for fill in product(*cell_values):
        yield (tuple(range(n)),) + tuple(
            (i,) + fill[k * i - k:k * i] for i in range(1, n))


def _sigmas(n, p):
    return [perm for perm in permutations(range(n))
            if perm[0] == 0 and _perm_power(perm, p) == tuple(range(n))]


def _forced_cells(mul_e, t):
    """The (i, j, mul_g[i][j]) that t(x·y) = t(x)·t(y) forces, or None if it
    forces a cell two ways or breaks the unit row or column (i·j = i + j)."""
    forced = {}
    for x, y in product(range(1, len(t)), repeat=2):
        i, j, v = t[x], t[y], t[mul_e[x][y]]
        if v != (i + j if i * j == 0 else forced.setdefault((i, j), v)):
            return None
    return [(i, j, v) for (i, j), v in forced.items()]


def _candidates(p, max_e, max_g):
    """Every candidate of both sweeps as (base, mul_e, mul_g, t): carrier
    sizes up to the bounds, 0 the unit at both levels, r(0) = t(0) = 0.
    Holds the sweeps' one guard.

    Each axiom of `_structure_report` is tested where its tables are first
    fixed: t-equivariance once per sigma, action-multiplicativity once per
    mul_e, r-multiplicativity per mul_g cell (an r-preimage), and
    t-multiplicativity once per (mul_e, t) as the cells it forces, then per
    (mul_g, t) on those.  On a trivial action norm(x) = x^p, so both
    readings and the double coset law demand r(t(x)) = x^p, which narrows
    t once per mul_e.  What is dropped fails every full check, so the
    survivors and their order are those of the full product."""
    if not _is_prime(p):
        raise ValidationError("p must be prime")
    if p > 3 or max_e > SWEEP_GUARD or max_g > SWEEP_GUARD:
        raise GuardExceededError("sweep bounds exceed the guard")
    for ne in range(1, max_e + 1):
        for ng in range(1, max_g + 1):
            for sigma in _sigmas(ne, p):
                trivial = sigma == tuple(range(ne))
                fixed = [x for x in range(ne) if sigma[x] == x]
                inv = _inv(sigma)
                # t(0) = 0 and t∘sigma = t
                ts = [t for t in product(range(ng), repeat=ne)
                      if t[0] == 0 and tuple(map(t.__getitem__, sigma)) == t]
                for rest in product(fixed, repeat=ng - 1):
                    r = (0,) + rest
                    base = CoefficientSystem(p, ne, sigma, ng, r)
                    preimage = {}
                    for v in range(ng):
                        preimage.setdefault(r[v], []).append(v)
                    for mul_e in _unital_tables(ne):
                        mul_e_ts = ts
                        if trivial:
                            # r(t(x)) = x^p
                            pw = tuple(nested_product(mul_e, [x] * p)
                                       for x in range(ne))
                            mul_e_ts = [t for t in ts
                                        if tuple(map(r.__getitem__, t)) == pw]
                        elif _relabel_table(mul_e, sigma, inv) != mul_e:
                            continue  # sigma is no automorphism of mul_e
                        demands = [(t, cells) for t in mul_e_ts if (
                            cells := _forced_cells(mul_e, t)) is not None]
                        if not demands:
                            continue
                        cell_values = [preimage.get(mul_e[r[i]][r[j]], ())
                                       for i in range(1, ng)
                                       for j in range(1, ng)]
                        for mul_g in _unital_tables(ng, cell_values):
                            for t, cells in demands:
                                if all(mul_g[i][j] == v for i, j, v in cells):
                                    yield base, mul_e, mul_g, t


def _relabelings(n):
    """Carrier bijections fixing the unit 0."""
    return [(0,) + rest for rest in permutations(range(1, n))]


def _inv(perm):
    out = [0] * len(perm)
    for i, v in enumerate(perm):
        out[v] = i
    return out


def _relabel_table(mul, perm, inv):
    return tuple(tuple(perm[mul[a][c]] for c in inv) for a in inv)


def canonical_pair_key(pair: InterchangePair) -> tuple:
    """The least `InterchangePair.key()` over the relabelings of both
    carriers that fix 0, built directly as tuples."""
    b = pair.base
    best = None
    for pe in _relabelings(b.size_e):
        ie = _inv(pe)
        sigma = tuple(pe[b.sigma[i]] for i in ie)
        for pg in _relabelings(b.size_g):
            ig = _inv(pg)
            base_key = (b.p, b.size_e, sigma, b.size_g,
                        tuple(pe[b.r[i]] for i in ig))
            k = tuple((base_key, _relabel_table(m.mul_e, pe, ie), pe[m.unit_e],
                       _relabel_table(m.mul_g, pg, ig), pg[m.unit_g],
                       tuple(pg[m.t[i]] for i in ie))
                      for m in (pair.star, pair.bullet))
            if best is None or k < best:
                best = k
    return best


def _is_commutative_monoid(mul):
    """Is a table with unit 0 commutative and associative?"""
    n = range(len(mul))
    return all(mul[x][y] == mul[y][x]
               and all(mul[mul[x][y]][z] == mul[x][mul[y][z]] for z in n)
               for x in n for y in n)


def sweep(p, max_e, max_g, norm_axiom=False):
    """Both exhaustive sweeps in one walk of `_candidates`, one member per
    isomorphism class each: the interchanging pairs under the reading
    `norm_axiom` picks, and the semi-Mackey functors.  Returns two dicts
    keyed by `canonical_pair_key` (of a functor's doubled pair), each
    holding the first candidate of a class in stream order.

    Once per distinct table it decides whether the table is a commutative
    monoid, which `semi_mackey_check` demands, and whether it interchanges
    with its transpose, which `check_interchange` demands, as binary
    interchange at a = z = 0 makes bullet the transpose of star.  Classical
    Eckmann-Hilton says the two agree; where they differ it raises
    `TheoremViolation` with (p, box, reading, table).  Candidates with a
    table that fails are dropped.  Pair half: a candidate holds every axiom
    of `validate_magma` but r∘t, checked where the action is not trivial;
    the magmas of one base with the same (commutative) tables are paired
    for `check_interchange`.  Functor half: `semi_mackey_check`."""
    pairs, functors, tables = {}, {}, {}
    for base, group in groupby(_candidates(p, max_e, max_g), itemgetter(0)):
        trivial = base.sigma == tuple(range(base.size_e))
        kept, by_tables = [], {}
        for _, mul_e, mul_g, t in group:
            for mul in (mul_e, mul_g):
                if mul not in tables:
                    tables[mul] = _is_commutative_monoid(mul)
                    swaps = _interchange_witness(mul, tuple(zip(*mul))) is None
                    if tables[mul] != swaps:
                        reading = "orbit-product" if norm_axiom else "literal"
                        raise TheoremViolation(
                            "classical Eckmann-Hilton fails on a table",
                            (p, (max_e, max_g), reading, mul))
            if not (tables[mul_e] and tables[mul_g]):
                continue
            m = CpUnitalMagma._trusted(base, mul_e, mul_g, t)
            if trivial or _rt_report(m, norm_axiom):
                kept.append(m)
                by_tables.setdefault((mul_e, mul_g), []).append(m)
            sm = SemiMackeyFunctor._trusted(base, mul_e, mul_g, t)
            if semi_mackey_check(sm):
                functors.setdefault(
                    canonical_pair_key(InterchangePair(sm, sm)), sm)
        for m1 in kept:
            for m2 in by_tables[m1.mul_e, m1.mul_g]:
                pair = InterchangePair(m1, m2)
                if check_interchange(pair, norm_axiom=norm_axiom):
                    pairs.setdefault(canonical_pair_key(pair), pair)
    return pairs, functors


def enumerate_interchanging_pairs(p, max_e, max_g, norm_axiom=False) -> list:
    """The pair half of `sweep`, in canonical order."""
    pairs = sweep(p, max_e, max_g, norm_axiom=norm_axiom)[0]
    return [pairs[k] for k in sorted(pairs)]


def enumerate_semi_mackey(p, max_e, max_g) -> list:
    """The functor half of `sweep`, in canonical order."""
    functors = sweep(p, max_e, max_g)[1]
    return [functors[k] for k in sorted(functors)]


def pair_homs(a: InterchangePair, b: InterchangePair) -> list:
    """All homomorphisms of interchanging pairs: simultaneous homomorphisms
    of the star and bullet structures."""
    out = []
    for fe in product(range(b.base.size_e), repeat=a.base.size_e):
        for fg in product(range(b.base.size_g), repeat=a.base.size_g):
            if is_homomorphism((fe, fg), a.star, b.star) and \
                    is_homomorphism((fe, fg), a.bullet, b.bullet):
                out.append((fe, fg))
    return out


def semi_mackey_homs(a: SemiMackeyFunctor, b: SemiMackeyFunctor) -> list:
    return pair_homs(pair_of_semi_mackey(a), pair_of_semi_mackey(b))


# -- JSON pair format -------------------------------------------------------

def pair_to_json(pair: InterchangePair) -> str:
    b = pair.base
    data = {"p": b.p, "size_e": b.size_e, "size_g": b.size_g,
            "sigma": b.sigma, "r": b.r,
            "unit_e": pair.star.unit_e, "unit_g": pair.star.unit_g,
            **{name: {"mul_e": m.mul_e, "mul_g": m.mul_g, "t": m.t}
               for name, m in [("star", pair.star), ("bullet", pair.bullet)]}}
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def pair_from_json(text: str, norm_axiom: bool = False) -> InterchangePair:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad pair JSON: {exc}") from exc
    try:
        fields = [data[k] for k in ("p", "size_e", "sigma", "size_g", "r")]
        units = [data.get("unit_e", 0), data.get("unit_g", 0)]
        parts = [[data[name][k] for k in ("mul_e", "mul_g", "t")]
                 for name in ("star", "bullet")]
        require_ints([fields, units, parts], "pair JSON")
        base = CoefficientSystem(*fields)
        magmas = [CpUnitalMagma(base, mul_e, units[0], mul_g, units[1], t,
                                norm_axiom=norm_axiom)
                  for mul_e, mul_g, t in parts]
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"pair JSON missing field or not an integer: "
                              f"{exc}") from exc
    return InterchangePair(magmas[0], magmas[1])
