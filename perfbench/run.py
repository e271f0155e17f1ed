"""Benchmark of equialg: four closed-loop batch workloads, cold processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is lattice-deep, lattice-wide,
category-oracle, eh-sweep, or `all` for each in turn.  Every repetition
is a fresh interpreter (`workload.py`), started only after the previous
one has ended, so the package's module-level caches start empty each
time; the benchmark never touches them.  One untimed set-up process runs
first so that byte-code caches exist, as they do for a user.

With --trace 0 a run repeats the workload until the solve times add up
to S seconds (at least once), then runs set-up alone in several more
processes, and reports medians:

    solve_s      time from the first solving call to the answer
    setup_s      import plus the workload's tables (median of all set-ups)
    peak_rss_mb  peak resident memory of a repetition's process, in MiB

The two times are wall times scaled to a reference machine speed,
sampled while they run (workload.SpeedProbe): on a shared host the raw
wall time drifts by a third between runs.  The raw wall times are
printed and recorded beside them as solve_wall_s and setup_wall_s.

With --trace 1 it makes one untraced repetition, then one traced
repetition (`tracing.py`), and reports the per-layer metrics of the
traced one together with trace.overhead_ratio, its solve time over the
untraced one.

Every repetition's answer is checked outside the timed region; a failed
check, a crash or a timeout counts as failed and is never retried.  The
last line printed is one JSON object with the keys correct, attempted,
failed and metrics.  A record with the samples and run metadata goes to
.perfbench/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402
from workload import CHECK_COUNTS, OUT_DIR, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7      # set-up-only processes per run, besides the repetitions
RUN_LIMIT_S = 170      # every process of one run ends within this
END_TO_END = [("solve_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]


def child(name, seed, phase, trace, deadline):
    """One repetition in a fresh interpreter: its result, or None if it
    crashed or ran past the deadline."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name,
           "--seed", str(seed), "--phase", phase, "--trace", str(trace)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{name}: repetition timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"{name}: repetition exited with {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(name, seed, seconds, trace, deadline):
    """Samples and check counts of one run of one workload.  A traced run
    makes a single untimed repetition, the base of the overhead ratio."""
    child(name, seed, "setup", 0, deadline)  # untimed warm-up
    reps, attempted, failed = [], 0, 0

    def full(trace_flag):
        rep = child(name, seed, "full", trace_flag, deadline)
        nonlocal attempted, failed
        if rep is None:
            attempted += CHECK_COUNTS[name]
            failed += CHECK_COUNTS[name]
        else:
            attempted += rep["attempted"]
            failed += len(rep["failed"])
            for what in rep["failed"][:10]:
                print(f"{name}: check failed: {what}", file=sys.stderr)
        return rep

    measured = 0.0
    while True:
        t = time.monotonic()
        rep = full(0)
        if rep is None:
            break
        reps.append(rep)
        measured += rep["solve_s"]
        last = time.monotonic() - t
        if (trace or measured >= seconds
                or time.monotonic() + 2 * last > deadline):
            break
    samples = {key: [r[key] for r in reps]
               for key in ("setup_s", "setup_wall_s", "solve_s",
                           "solve_wall_s", "peak_rss_mb")}
    traced = None
    if trace:
        traced = full(1)
    else:
        for _ in range(SETUP_SAMPLES):
            rep = child(name, seed, "setup", 0, deadline)
            if rep is not None:
                samples["setup_s"].append(rep["setup_s"])
                samples["setup_wall_s"].append(rep["setup_wall_s"])
    return {"samples": samples, "traced": traced, "attempted": attempted,
            "failed": failed}


def summarize(run, trace):
    """The metrics of one workload, as {name: {"value", "unit"}}."""
    samples = run["samples"]
    if trace:
        traced = run["traced"]
        if traced is None or not samples["solve_s"]:
            return {}
        layer = traced["tracer"]
        layer["trace.overhead_ratio"] = (
            traced["solve_s"] / statistics.median(samples["solve_s"]))
        return {m: {"value": layer[m], "unit": unit}
                for m, unit in LAYER_METRICS}
    if not samples["solve_s"]:
        return {}
    return {m: {"value": statistics.median(samples[m]), "unit": unit}
            for m, unit in END_TO_END}


def metadata():
    root = Path.cwd()
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {"commit": git_commit(root), "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_lines": src_lines}


def git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def print_table(name, metrics, run):
    ratio = run["failed"] / run["attempted"] if run["attempted"] else 1.0
    print(f"{name}: {len(run['samples']['solve_s'])} repetitions, "
          f"{len(run['samples']['setup_s'])} set-ups, "
          f"{run['attempted']} checks")
    for metric, m in metrics.items():
        print(f"  {metric:<44} {m['value']:>14.6g} {m['unit']}")
    for wall in ("solve_wall_s", "setup_wall_s"):
        if run["samples"][wall]:
            value = statistics.median(run["samples"][wall])
            print(f"  {wall:<44} {value:>14.6g} s")
    print(f"  {'failed_ratio':<44} {ratio:>14.6g} 1")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not Path("src/equialg/__init__.py").is_file():
        print("error: run from the root of an equialg checkout "
              "(src/equialg not found)", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = Path(OUT_DIR) / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              **metadata(), "workloads": {}}
    attempted = failed = 0
    metrics = {}
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        run = run_workload(name, args.seed, args.seconds, args.trace,
                           deadline)
        got = summarize(run, args.trace)
        print_table(name, got, run)
        attempted += run["attempted"]
        failed += run["failed"]
        record["workloads"][name] = {**run, "metrics": got}
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + m: v for m, v in got.items()})
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{tag}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
