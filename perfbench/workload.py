"""One timed repetition of one workload, in a fresh interpreter.

    python3 perfbench/workload.py --workload NAME --seed N --phase full|setup
                                  [--trace 0|1]

Run from the root of a checkout, with `src/` holding the `equialg`
package.  The process times set-up (from before `import equialg` until
the workload's tables exist) and solving (from the first solving call to
the finished answer), reads its peak resident memory, then checks the
answer outside the timed region.  Times are reported both as wall time
and scaled to a reference machine speed (see SpeedProbe).  It prints one
JSON object as its last line.  `run.py` starts one such process per
repetition, one at a time.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import signal
import statistics
import sys
import time

OUT_DIR = ".perfbench"  # run outputs, inside the checkout
PROBE_INTERVAL_S = 0.05
PROBE_REF_S = 3.5e-4   # about probe_work's time on a 2-vCPU 2.1 GHz Xeon VM
SETUP_PROBES = 20      # probes timed just before set-up

# Answers of the workloads at the commit that defined the benchmark.
DEEP_GROUP_ORDER, DEEP_CUTOFF = 6, 12
DEEP_UNITAL, DEEP_ALMOST_UNITAL = 123, 170
DEEP_PAIRS = 4000
WIDE_SYSTEMS = 3692
WIDE_SHA256 = "bb35296b08e676a849b36f15b2321b1a90b9d2552d4e6af896cfcb0e991a0f96"
ORACLE_CUTOFF, ORACLE_SYSTEMS = 4, 108
EH_PAIRS, EH_SEMI_MACKEY = 56, 64


class Checks:
    """Named pass/fail results of one repetition."""

    def __init__(self):
        self.failed = []
        self.attempted = 0

    def expect(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed.append(name)


def run_cli(cli, argv):
    """cli.main with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# -- lattice-deep ---------------------------------------------------------

def deep_pairs(seed):
    rng = random.Random(seed)
    return [(rng.randrange(DEEP_ALMOST_UNITAL), rng.randrange(DEEP_ALMOST_UNITAL))
            for _ in range(DEEP_PAIRS)]


def deep_setup(eq, seed):
    group = eq.groups.cyclic_group(DEEP_GROUP_ORDER)
    eq.groups.subgroup_lattice(group)
    eq.indexing.level_tables(group, DEEP_CUTOFF)
    return {"group": group, "pairs": deep_pairs(seed)}


def deep_solve(eq, state):
    group = state["group"]
    unital = eq.indexing.enumerate_systems(group, DEEP_CUTOFF, "unital")
    poset = eq.indexing.enumerate_systems(group, DEEP_CUTOFF, "almost_unital")
    nodes = poset.nodes
    reports = [eq.connectivity.conn_join_bound(nodes[i], nodes[j], poset)
               for i, j in state["pairs"]]
    return {"unital": unital, "poset": poset, "reports": reports}


def deep_check(eq, state, out, checks):
    checks.expect("unital count", len(out["unital"]) == DEEP_UNITAL)
    poset = out["poset"]
    checks.expect("almost-unital count", len(poset) == DEEP_ALMOST_UNITAL)
    nodes = poset.nodes
    for (i, j), rep in zip(state["pairs"], out["reports"]):
        a, b = nodes[i], nodes[j]
        jj = eq.indexing.join(a, b)
        expected = tuple(k for k, node in enumerate(nodes)
                         if node <= jj and not node <= a and not node <= b)
        checks.expect(f"join bound {i},{j}",
                      rep.holds and rep.strict_witnesses == expected)


# -- lattice-wide ---------------------------------------------------------

def wide_setup(eq, seed):
    group = eq.groups.cyclic_group(2)
    eq.groups.subgroup_lattice(group)
    eq.indexing.level_tables(group, 6)
    return {"output": os.path.join(OUT_DIR, f"lattice-wide-{os.getpid()}.json")}


def wide_solve(eq, state):
    path = state["output"]
    code, text = run_cli(eq.cli, ["enumerate", "--group", "cyclic:2",
                                  "--cutoff", "6", "--filter", "all",
                                  "--format", "json", "--output", path])
    return {"code": code, "text": text}


def wide_check(eq, state, out, checks):
    checks.expect("exit code 0", out["code"] == 0)
    checks.expect("system count",
                  f"C2: {WIDE_SYSTEMS} weak indexing systems" in out["text"])
    digest = hashlib.sha256()
    try:
        with open(state["output"], "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    finally:
        if os.path.exists(state["output"]):
            os.remove(state["output"])
    checks.expect("json sha256", digest.hexdigest() == WIDE_SHA256)


# -- category-oracle ------------------------------------------------------

def oracle_setup(eq, seed):
    group = eq.groups.cyclic_group(2)
    eq.groups.subgroup_lattice(group)
    tables = eq.indexing.level_tables(group, ORACLE_CUTOFF)
    eq.category.map_class_universe(tables)
    return {"group": group, "tables": tables}


def oracle_solve(eq, state):
    group, tables = state["group"], state["tables"]
    pc = eq.category.enumerate_categories(group, ORACLE_CUTOFF, "all")
    ps = eq.indexing.enumerate_systems(group, ORACLE_CUTOFF, "all")
    systems = [eq.category.WeakIndexingCategory.from_map_classes(tables, n)
               .to_system() for n in pc.nodes]
    pairing = [ps.index(s) for s in systems]
    return {"categories": len(pc), "systems": len(ps),
            "isomorphic": pc.is_isomorphic_via(ps, pairing)}


def oracle_check(eq, state, out, checks):
    checks.expect("category count", out["categories"] == ORACLE_SYSTEMS)
    checks.expect("system count", out["systems"] == ORACLE_SYSTEMS)
    checks.expect("order isomorphism", out["isomorphic"] is True)


# -- eh-sweep -------------------------------------------------------------

def eh_setup(eq, seed):
    eq.groups.subgroup_lattice(eq.groups.cyclic_group(2))
    return {}


def eh_solve(eq, state):
    code, text = run_cli(eq.cli, ["eh-check", "--sweep", "3", "3", "--p", "2"])
    return {"code": code, "text": text}


def eh_check(eq, state, out, checks):
    text = out["text"]
    checks.expect("exit code 0", out["code"] == 0)
    checks.expect("pair count", f"{EH_PAIRS} interchanging pairs" in text)
    checks.expect("semi-Mackey count",
                  f"{EH_SEMI_MACKEY} semi-Mackey functors" in text)
    checks.expect("pairs embed",
                  re.search(r"correspondence: pairs embed$", text, re.M)
                  is not None)


WORKLOADS = {
    "lattice-deep": (deep_setup, deep_solve, deep_check),
    "lattice-wide": (wide_setup, wide_solve, wide_check),
    "category-oracle": (oracle_setup, oracle_solve, oracle_check),
    "eh-sweep": (eh_setup, eh_solve, eh_check),
}
CHECK_COUNTS = {"lattice-deep": 2 + DEEP_PAIRS, "lattice-wide": 3,
                "category-oracle": 3, "eh-sweep": 4}


class _ProbeSystem:
    """Stand-in with the shape of the hot comparisons of the program: a
    method call running a generator over zipped frozensets."""

    __slots__ = ("levels",)

    def __init__(self, levels):
        self.levels = levels

    def __le__(self, other):
        return all(a <= b for a, b in zip(self.levels, other.levels))


_PROBE_SMALL = _ProbeSystem(tuple(frozenset(range(i % 5, i % 5 + 3))
                                  for i in range(6)))
_PROBE_BIG = _ProbeSystem(tuple(frozenset(range(9)) for _ in range(6)))


def probe_work():
    """Fixed pure-Python work, independent of the program under test."""
    n = 0
    small, big = _PROBE_SMALL, _PROBE_BIG
    for _ in range(150):
        n += small <= big
        n += big <= small
    return n


class SpeedProbe:
    """The machine's speed while a region runs, relative to the reference.

    A shared host drifts in speed by a third over tens of seconds, which
    would swamp any change to the program.  While the probe is entered, a
    SIGALRM handler times probe_work every PROBE_INTERVAL_S.  A region's
    reference-speed time is its wall time less the probes' own time, times
    the mean of PROBE_REF_S / probe time over the region.  Of the probes
    tried, this one, shaped like the program's hot loops, followed the
    drift most closely; memory-bound probes barely slow down when the
    program does.
    """

    def __init__(self):
        self.times = []
        self.inside = 0.0    # probe time spent inside the entered region

    def tick(self, *_signal):
        start = time.perf_counter()
        probe_work()
        self.times.append(time.perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.inside = sum(self.times)
        if not self.times:  # a region shorter than one interval
            self.tick()

    def scale(self, wall: float) -> float:
        speed = statistics.fmean(PROBE_REF_S / t for t in self.times)
        return (wall - self.inside) * speed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--phase", choices=["setup", "full"], required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    setup, solve, check = WORKLOADS[args.workload]
    sys.path.insert(0, os.path.abspath("src"))

    before = SpeedProbe()
    for _ in range(SETUP_PROBES):
        before.tick()
    t0 = time.perf_counter()
    # Workloads call through module attributes (eq.indexing.join), so the
    # tracer's patches are seen.
    import equialg as eq
    import equialg.cli  # noqa: F401  (the package does not import it)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    state = setup(eq, args.seed)
    t1 = time.perf_counter()
    result = {"setup_s": before.scale(t1 - t0), "setup_wall_s": t1 - t0}
    if args.phase == "full":
        with SpeedProbe() as probe:
            t1 = time.perf_counter()
            out = solve(eq, state)
            t2 = time.perf_counter()
        result["solve_s"] = probe.scale(t2 - t1)
        result["solve_wall_s"] = t2 - t1
        result["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            tracer.uninstall()
        checks = Checks()
        check(eq, state, out, checks)
        result["attempted"] = checks.attempted
        result["failed"] = checks.failed
        if tracer is not None:
            result["tracer"] = tracer.metrics()
            tracer.dump(os.path.join(
                OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
