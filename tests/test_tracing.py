"""The benchmark's tracer (`perfbench/tracing.py`) still finds every
function it wraps, so a traced benchmark run measures every layer."""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_targets_resolve():
    """In a fresh interpreter, installing the tracer rebinds every target
    and uninstalling it restores the originals."""
    script = textwrap.dedent("""
        import sys
        import equialg
        import equialg.cli
        from tracing import TARGETS, Tracer

        def bound():
            out = {}
            for name, module, attr, _hot in TARGETS:
                owner = sys.modules[f"equialg.{module}"]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                out[name] = vars(owner)[attr]
            return out

        before = bound()
        tracer = Tracer()
        tracer.install()
        patched = [n for n, f in bound().items() if f is not before[n]]
        tracer.uninstall()
        restored = [n for n, f in bound().items() if f is before[n]]
        print(len(TARGETS), len(patched), len(restored))
    """)
    # no byte-code cache: the run writes nothing under perfbench/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    total, patched, restored = map(int, proc.stdout.split())
    assert total > 0 and patched == total and restored == total


def test_tracer_observers_count_joins_and_order_tests():
    """With the tracer installed, a join feeds the join observer (which
    reads `result.admissible`) and a poset build counts every `leq` call
    it passes through: none for the systems poset or the transfer systems
    of C4, which are ordered by inclusion of masks, and 5 * 5 for a
    5-node poset built from a predicate."""
    script = textwrap.dedent("""
        import json
        import equialg
        import equialg.cli
        from equialg import indexing, poset
        from equialg.groups import cyclic_group
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        group = cyclic_group(2)
        t = indexing.level_tables(group, 4)
        indexing.join(indexing.f_trivial(t), indexing.f_complete(t))
        indexing.enumerate_systems(group, 4, "all")
        indexing.enumerate_transfer_systems(cyclic_group(4))
        by_inclusion = tracer.metrics()["poset.leq.calls"]
        poset.Poset(range(5), leq=lambda a, b: b % (a + 1) == 0,
                    key=lambda x: x)
        tracer.uninstall()
        print(json.dumps(dict(tracer.metrics(), by_inclusion=by_inclusion)))
    """)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout)
    assert metrics["indexing.join.calls"] >= 1
    assert metrics["indexing.join.new_ratio"] > 0
    assert metrics["by_inclusion"] == 0
    assert metrics["poset.leq.calls"] == 5 * 5
