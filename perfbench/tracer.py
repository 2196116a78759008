"""Outside-in tracing of qpd: public functions are wrapped at every name
their callers bind, so no qpd source changes.

Spans (name, start, end, parent, item) are kept in memory and written
out when the run ends.  Hot leaves are aggregated into a call count and
a busy time instead of one span per call; the time of an outermost leaf
is charged to the open span as child time, so span self times stay
exact.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

#: Modules whose global names are rebound to the wrappers.
MODULES = ("qpd", "qpd.systems", "qpd.transform", "qpd.theorems",
           "qpd.dynamics", "qpd.scalar_map", "qpd.cli")

#: (metric prefix, defining module, attribute).  A span per call.
SPANS = (
    ("cli.main", "qpd.cli", "main"),
    ("cli.build_analysis_report", "qpd.cli", "build_analysis_report"),
    ("cli.render_report", "qpd.cli", "render_report"),
    ("cli.write_scan_csv", "qpd.scalar_map", "write_scan_csv"),
    ("systems.load_system", "qpd.systems", "load_system"),
    ("transform.canonical_lv", "qpd.transform", "canonical_lv"),
    ("transform.apply_qmt", "qpd.transform", "apply_qmt"),
    ("transform.class_invariants", "qpd.transform", "class_invariants"),
    ("transform.map_state", "qpd.transform", "map_state"),
    ("theorems.check_all_theorems", "qpd.theorems", "check_all_theorems"),
    ("dynamics.qp_fixed_point", "qpd.dynamics", "qp_fixed_point"),
    ("dynamics.empirical_permanence", "qpd.dynamics", "empirical_permanence"),
    ("dynamics.empirical_attractivity", "qpd.dynamics",
     "empirical_attractivity"),
    ("dynamics.largest_lyapunov", "qpd.dynamics", "largest_lyapunov"),
    ("dynamics.simulate", "qpd.dynamics", "simulate"),
    ("dynamics.conjugacy_deviation", "qpd.dynamics", "conjugacy_deviation"),
    ("scalar_map.threshold_scan", "qpd.scalar_map", "threshold_scan"),
    ("scalar_map.find_period3", "qpd.scalar_map", "find_period3"),
    ("scalar_map.find_snap_back", "qpd.scalar_map", "find_snap_back"),
)

#: Hot leaves: aggregated count and busy time only.
LEAVES = (
    ("systems.step", "qpd.systems", "step"),
    ("systems.as_state", "qpd.systems", "as_state"),
    ("dynamics.qp_jacobian", "qpd.dynamics", "qp_jacobian"),
    ("scalar_map.xi", "qpd.scalar_map", "xi"),
    ("scalar_map.brentq", "qpd.scalar_map", "brentq"),
)


class Tracer:
    """Installs the wrappers; collects spans and leaf aggregates."""

    def __init__(self):
        self.item = None
        self.spans = []          # [name, start, end, parent, item, child]
        self.leaf_calls = defaultdict(int)
        self.leaf_busy = defaultdict(float)
        self._stack = []         # indices of open spans
        self._leaf_depth = 0
        self._restore = []

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            record = [name, time.perf_counter(), None, parent, self.item, 0.0]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent][5] += record[2] - record[1]
        return wrapper

    def _leaf_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        calls, busy = self.leaf_calls, self.leaf_busy

        def wrapper(*args, **kwargs):
            self._leaf_depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._leaf_depth -= 1
                calls[name] += 1
                busy[name] += elapsed
                if self._leaf_depth == 0 and stack:
                    spans[stack[-1]][5] += elapsed
        return wrapper

    def install(self):
        wrappers = {}
        for table, make in ((SPANS, self._span_wrapper),
                            (LEAVES, self._leaf_wrapper)):
            for name, module, attr in table:
                fn = getattr(importlib.import_module(module), attr)
                wrappers[id(fn)] = (fn, make(name, fn))
        for module_name in MODULES:
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])

    def uninstall(self):
        for module, attr, value in self._restore:
            setattr(module, attr, value)
        self._restore.clear()

    def totals(self) -> dict:
        """Per-name calls, busy and self time over every recorded item."""
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for name, start, end, _, _, child in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child
        for name, calls in self.leaf_calls.items():
            out[name]["calls"] = calls
            out[name]["busy_s"] = self.leaf_busy[name]
        return out

    def write(self, path, meta: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for name, start, end, parent, item, child in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item,
                                     "self_s": end - start - child}) + "\n")
            fh.write(json.dumps({"leaves": {
                name: {"calls": calls, "busy_s": self.leaf_busy[name]}
                for name, calls in sorted(self.leaf_calls.items())}}) + "\n")
