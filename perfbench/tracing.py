"""Spans and counters at the public boundaries of each equialg layer.

The wrappers are installed from outside the package.  Every attribute of
an `equialg` module that is bound to a wrapped function is rebound, so a
call made through a `from .x import f` binding (for example
`connectivity.join` or `cli.eckmann_hilton`) is seen as well as a
qualified one.  Methods are patched on their class.

Coarse boundaries keep one span per call (id, name, parent id, start, end,
self time).  Hot boundaries, called up to millions of times a run, keep
only a count and summed times per (name, parent name), so memory stays
bounded.  Self time is a call's duration minus the time of the wrapped
calls made inside it.
"""
from __future__ import annotations

import itertools
import json
import sys
import time
from functools import wraps

# (metric prefix, module, attribute, hot)
TARGETS = [
    ("groups.subgroup_lattice", "groups", "subgroup_lattice", False),
    ("indexing.level_tables", "indexing", "level_tables", False),
    ("indexing.close_system", "indexing", "close_system", False),
    ("indexing.join", "indexing", "join", False),
    ("indexing.enumerate_systems", "indexing", "enumerate_systems", False),
    ("indexing.le", "indexing", "WeakIndexingSystem.__le__", True),
    ("poset.build", "poset", "Poset.__init__", False),
    ("poset.to_json", "poset", "Poset.to_json", False),
    ("connectivity.conn_join_bound", "connectivity", "conn_join_bound", False),
    ("category.map_class_universe", "category", "map_class_universe", False),
    ("category.enumerate_categories", "category", "enumerate_categories",
     False),
    ("category.compose_classes", "category", "compose_classes", False),
    ("category.pullback_classes", "category", "pullback_classes", False),
    ("magmas.validate_magma", "magmas", "validate_magma", True),
    ("magmas.check_interchange", "magmas", "check_interchange", True),
    ("magmas.semi_mackey_check", "magmas", "semi_mackey_check", True),
    ("magmas.canonical_pair_key", "magmas", "canonical_pair_key", False),
    ("magmas.eckmann_hilton", "magmas", "eckmann_hilton", False),
    ("magmas.enumerate_interchanging_pairs", "magmas",
     "enumerate_interchanging_pairs", False),
    ("magmas.enumerate_semi_mackey", "magmas", "enumerate_semi_mackey", False),
    ("gsets.compose_spans", "gsets", "compose_spans", False),
    ("cli.main", "cli", "main", False),
]

# Every per-layer metric a traced run reports, with its unit.  A layer
# that does not run on a workload reports 0.
LAYER_METRICS = [
    ("groups.subgroup_lattice.s", "s"),
    ("indexing.level_tables.s", "s"),
    ("indexing.close_system.calls", "count"),
    ("indexing.close_system.self_s", "s"),
    ("indexing.join.calls", "count"),
    ("indexing.join.self_s", "s"),
    ("indexing.join.closed_ratio", "1"),
    ("indexing.join.new_ratio", "1"),
    ("indexing.enumerate_systems.self_s", "s"),
    ("indexing.le.calls", "count"),
    ("indexing.le.s", "s"),
    ("poset.build.self_s", "s"),
    ("poset.leq.calls", "count"),
    ("poset.to_json.s", "s"),
    ("poset.to_json.bytes", "bytes"),
    ("connectivity.conn_join_bound.calls", "count"),
    ("connectivity.conn_join_bound.self_s", "s"),
    ("category.map_class_universe.s", "s"),
    ("category.universe_classes", "count"),
    ("category.enumerate_categories.self_s", "s"),
    ("category.compose_classes.calls", "count"),
    ("category.compose_classes.self_s", "s"),
    ("category.pullback_classes.calls", "count"),
    ("category.pullback_classes.self_s", "s"),
    ("magmas.validate_magma.calls", "count"),
    ("magmas.validate_magma.self_s", "s"),
    ("magmas.validate_magma.pass_ratio", "1"),
    ("magmas.check_interchange.calls", "count"),
    ("magmas.check_interchange.self_s", "s"),
    ("magmas.check_interchange.pass_ratio", "1"),
    ("magmas.semi_mackey_check.calls", "count"),
    ("magmas.semi_mackey_check.self_s", "s"),
    ("magmas.semi_mackey_check.pass_ratio", "1"),
    ("magmas.canonical_pair_key.calls", "count"),
    ("magmas.canonical_pair_key.self_s", "s"),
    ("magmas.eckmann_hilton.calls", "count"),
    ("magmas.eckmann_hilton.self_s", "s"),
    ("magmas.enumerate_interchanging_pairs.self_s", "s"),
    ("magmas.enumerate_semi_mackey.self_s", "s"),
    ("gsets.compose_spans.calls", "count"),
    ("gsets.compose_spans.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "1"),
]

# hot boundaries whose truthy results are counted, for the pass ratios
_PASS_COUNTED = {"magmas.validate_magma", "magmas.check_interchange",
                 "magmas.semi_mackey_check"}


class Tracer:
    """Wraps the TARGETS while installed and accumulates their spans."""

    def __init__(self):
        self.stack = [["<root>", None, 0.0]]  # frames: [name, span id, child s]
        self.spans = []      # coarse calls: (id, name, parent id, start, end, self)
        self.hot = {}        # name -> {parent name: [calls, total s, self s]}
        self.passes = {}     # name -> [truthy results]
        self.join_results = set()
        self.universe_classes = 0
        self.json_bytes = 0
        self.leq_calls = 0
        self._patched = []   # (owner, attribute, original)
        self._ids = itertools.count()

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, name, fn, hot):
        stack, spans = self.stack, self.spans
        rows = self.hot.setdefault(name, {}) if hot else None
        clock = time.perf_counter
        passed = None
        if name in _PASS_COUNTED:
            passed = self.passes[name] = [0]
        next_id = self._ids.__next__

        @wraps(fn)
        def coarse(*args, **kwargs):
            span_id = next_id()
            frame = [name, span_id, 0.0]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent[2] += end - start
                spans.append((span_id, name, parent[1], start, end,
                              end - start - frame[2]))

        @wraps(fn)
        def hot_call(*args, **kwargs):
            frame = [name, None, 0.0]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent[2] += duration
                row = rows.get(parent[0])
                if row is None:
                    row = rows[parent[0]] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[2]
            if passed is not None and result:
                passed[0] += 1
            return result

        return hot_call if hot else coarse

    def _observed(self, name, fn):
        """Extra observations taken from a boundary's arguments or result."""
        if name == "indexing.join":
            def join(a, b):
                result = fn(a, b)
                self.join_results.add(result.admissible)
                return result
            return join
        if name == "category.map_class_universe":
            def universe(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.universe_classes = len(result)
                return result
            return universe
        if name == "poset.to_json":
            def to_json(poset):
                text = fn(poset)
                self.json_bytes += len(text.encode())
                return text
            return to_json
        if name == "poset.build":
            def build(poset, nodes, leq, key):
                tick = itertools.count()
                step = tick.__next__

                def counted_leq(a, b):
                    step()
                    return leq(a, b)
                try:
                    return fn(poset, nodes, counted_leq, key)
                finally:
                    self.leq_calls += next(tick)
            return build
        return fn

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "equialg" or n.startswith("equialg.")]
        for name, module, attr, hot in TARGETS:
            owner = sys.modules[f"equialg.{module}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original,
                            self._wrap(name, self._observed(name, original),
                                       hot))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, self._observed(name, original), hot)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------
    def totals(self) -> dict:
        """name -> [calls, total s, self s] over every wrapped boundary."""
        out = {name: [0, 0.0, 0.0] for name, _m, _a, _h in TARGETS}
        for _id, name, _parent, start, end, own in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += own
        for name, rows in self.hot.items():
            for calls, total, own in rows.values():
                row = out[name]
                row[0] += calls
                row[1] += total
                row[2] += own
        return out

    def metrics(self) -> dict:
        """Per-layer metrics named as in LAYER_METRICS (values only), all
        but trace.overhead_ratio, which needs an untraced run."""
        totals = self.totals()
        calls = {n: t[0] for n, t in totals.items()}
        total_s = {n: t[1] for n, t in totals.items()}
        self_s = {n: t[2] for n, t in totals.items()}
        join_ids = {s[0] for s in self.spans if s[1] == "indexing.join"}
        closed = {s[2] for s in self.spans
                  if s[1] == "indexing.close_system" and s[2] in join_ids}
        joins = calls["indexing.join"]
        out = {
            "groups.subgroup_lattice.s": total_s["groups.subgroup_lattice"],
            "indexing.level_tables.s": total_s["indexing.level_tables"],
            "indexing.join.closed_ratio": len(closed) / joins if joins else 0,
            "indexing.join.new_ratio":
                len(self.join_results) / joins if joins else 0,
            "indexing.le.s": total_s["indexing.le"],
            "poset.leq.calls": self.leq_calls,
            "poset.to_json.s": total_s["poset.to_json"],
            "poset.to_json.bytes": self.json_bytes,
            "category.map_class_universe.s":
                total_s["category.map_class_universe"],
            "category.universe_classes": self.universe_classes,
        }
        for name, (passed,) in self.passes.items():
            out[f"{name}.pass_ratio"] = passed / calls[name] if calls[name] else 0
        for metric, _unit in LAYER_METRICS:
            prefix, _, kind = metric.rpartition(".")
            if metric in out:
                continue
            if kind == "calls":
                out[metric] = calls[prefix]
            elif kind == "self_s":
                out[metric] = self_s[prefix]
        return {m: out[m] for m, _unit in LAYER_METRICS
                if m != "trace.overhead_ratio"}

    def dump(self, path):
        """Write the spans and hot-boundary aggregates as JSON."""
        data = {
            "spans": [{"id": i, "name": n, "parent": p, "start": s, "end": e,
                       "self_s": own}
                      for i, n, p, s, e, own in self.spans],
            "hot": [{"name": n, "parent": p, "calls": c, "total_s": t,
                     "self_s": own}
                    for n, rows in sorted(self.hot.items())
                    for p, (c, t, own) in sorted(rows.items())],
        }
        with open(path, "w") as fh:
            json.dump(data, fh)
