"""Span tracing for the benchmark's traced runs, done from outside the program.

`Tracer.install` replaces selected functions of the ``relaygap`` modules with
wrappers that record one span per call: name, start, end, parent span and the
benchmark operation it belongs to.  A function is replaced in every
``relaygap`` module that binds it, so calls made through ``from .x import f``
are seen too.  Spans stay in memory until `Tracer.write` dumps them; the
per-layer metrics are computed from them, with a layer's self time being its
duration minus the durations of its direct child spans.

The end-to-end metrics are always measured in untraced runs.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: (module, function) pairs wrapped in a traced run.  ``certifier._in_hull`` is
#: private; it is wrapped only to count hull-membership checks.
TRACED: Tuple[Tuple[str, str], ...] = (
    ("model", "capacity_terms"),
    ("effective", "canonicalize"),
    ("bounds", "outer_bound"),
    ("uplink", "uplink_certificate"),
    ("downlink", "downlink_certificate"),
    ("downlink", "alloc_for_vertex"),
    ("downlink", "classify_case"),
    ("polytope", "enumerate_vertices"),
    ("polytope", "maximal_vertices"),
    ("polytope", "contains"),
    ("polytope", "in_downward_hull"),
    ("certifier", "_in_hull"),
    ("certifier", "verify_theorem1"),
    ("certifier", "monte_carlo"),
    ("certifier", "brute_force_gap"),
    ("cli", "main"),
)


def _count_len(counter: str) -> Callable[[Counter, object], None]:
    def hook(counts: Counter, result) -> None:
        counts[counter] += len(result)

    return hook


def _count_case(counts: Counter, result) -> None:
    counts[f"downlink.case_{getattr(result, 'value', result)}"] += 1


#: result hooks: what a call's return value adds to the counters
RESULT_HOOKS = {
    "polytope.enumerate_vertices": _count_len("polytope.vertices"),
    "polytope.maximal_vertices": _count_len("polytope.maximal"),
    "downlink.classify_case": _count_case,
}

#: per-layer metrics: name -> (unit, how it is derived from the spans)
PER_LAYER: Dict[str, Tuple[str, Tuple[str, str]]] = {
    "model.capacity_terms.calls": ("calls/channel", ("calls", "model.capacity_terms")),
    "model.capacity_terms.ms": ("ms/channel", ("ms", "model.capacity_terms")),
    "effective.canonicalize.calls": ("calls/channel", ("calls", "effective.canonicalize")),
    "effective.canonicalize.ms": ("ms/channel", ("ms", "effective.canonicalize")),
    "bounds.outer_bound.ms": ("ms/channel", ("ms", "bounds.outer_bound")),
    "uplink.uplink_certificate.calls": ("calls/channel", ("calls", "uplink.uplink_certificate")),
    "uplink.uplink_certificate.ms": ("ms/channel", ("ms", "uplink.uplink_certificate")),
    "downlink.downlink_certificate.calls": (
        "calls/channel", ("calls", "downlink.downlink_certificate")),
    "downlink.downlink_certificate.ms": ("ms/channel", ("ms", "downlink.downlink_certificate")),
    "downlink.alloc_for_vertex.calls": ("calls/channel", ("calls", "downlink.alloc_for_vertex")),
    "downlink.case_I": ("count/channel", ("count", "downlink.case_I")),
    "downlink.case_II": ("count/channel", ("count", "downlink.case_II")),
    "downlink.case_III": ("count/channel", ("count", "downlink.case_III")),
    "polytope.enumerate_vertices.calls": (
        "calls/channel", ("calls", "polytope.enumerate_vertices")),
    "polytope.enumerate_vertices.ms": ("ms/channel", ("ms", "polytope.enumerate_vertices")),
    "polytope.vertices": ("count/channel", ("count", "polytope.vertices")),
    "polytope.maximal_vertices.ms": ("ms/channel", ("ms", "polytope.maximal_vertices")),
    "polytope.maximal": ("count/channel", ("count", "polytope.maximal")),
    "polytope.contains.calls": ("calls/channel", ("calls", "polytope.contains")),
    "polytope.contains.ms": ("ms/channel", ("ms", "polytope.contains")),
    "polytope.in_downward_hull.calls": ("calls/channel", ("calls", "polytope.in_downward_hull")),
    "certifier.hull_checks": ("calls/channel", ("calls", "certifier._in_hull")),
    "certifier.hull_fast_path_ratio": ("fraction", ("fast_path", "")),
    "certifier.verify_theorem1.self_ms": ("ms/channel", ("self_ms", "certifier.verify_theorem1")),
    "certifier.monte_carlo.self_ms": ("ms/channel", ("self_ms", "certifier.monte_carlo")),
    "certifier.brute_force_gap.self_ms": ("ms/channel", ("self_ms", "certifier.brute_force_gap")),
    "cli.main.self_ms": ("ms/channel", ("self_ms", "cli.main")),
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: List[Optional[Tuple[int, float, float, int, int]]] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: List[int] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = RESULT_HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.op)
            if hook is not None:
                hook(counts, result)
            return result

        return traced

    def install(self) -> List[str]:
        """Wrap every function in `TRACED`; returns the names not found."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "relaygap" or n.startswith("relaygap."))]
        missing = []
        for module_name, func_name in TRACED:
            home = sys.modules.get(f"relaygap.{module_name}")
            fn = getattr(home, func_name, None)
            if fn is None:
                missing.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", fn)
            for module in modules:
                if getattr(module, func_name, None) is fn:
                    setattr(module, func_name, wrapper)
        return missing

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, inclusive ms and self ms."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_s[span[3]] += span[2] - span[1]
        out = {name: {"calls": 0, "ms": 0.0, "self_ms": 0.0} for name in self.names}
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            entry = out[self.names[span[0]]]
            duration = span[2] - span[1]
            entry["calls"] += 1
            entry["ms"] += 1e3 * duration
            entry["self_ms"] += 1e3 * (duration - child_s[idx])
        return out

    def per_layer(self, channels: int) -> Dict[str, Dict[str, object]]:
        """Every per-layer metric, normalised per attempted channel."""
        totals = self.totals()
        empty = {"calls": 0, "ms": 0.0, "self_ms": 0.0}
        hull_checks = totals.get("certifier._in_hull", empty)["calls"]
        lp_solves = totals.get("polytope.in_downward_hull", empty)["calls"]
        metrics: Dict[str, Dict[str, object]] = {}
        for metric, (unit, (kind, source)) in PER_LAYER.items():
            if kind == "count":
                value = self.counts[source] / channels
            elif kind == "fast_path":
                # base: hull checks; 0 when the workload makes none
                value = 1.0 - lp_solves / hull_checks if hull_checks else 0.0
            else:
                value = totals.get(source, empty)[kind] / channels
            metrics[metric] = {"value": value, "unit": unit}
        return metrics

    def write(self, path: str) -> None:
        """Dump every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is None:
                    continue
                name_id, start, end, parent, op = span
                fh.write(json.dumps({"name": self.names[name_id], "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
