"""Span tracer that wraps the public functions of each kodaira layer.

The tracer patches functions and methods from outside the package, so no
file under ``src/`` changes.  Every wrapped call becomes a span with a
name, start, end, parent span and op id; spans stay in memory until the
run writes them out.  ComplexApprox arithmetic runs hundreds of thousands
of times per op, so those calls are aggregated (calls and time) instead
of being kept as spans; their time still counts as child time of the
enclosing span, so self times stay exclusive.

Self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (owner path, attribute, metric name); owners are resolved after import.
METHODS = (
    ("kodaira.scalars.ComplexApprox", "__add__", "scalars.approx_ops"),
    ("kodaira.scalars.ComplexApprox", "__radd__", "scalars.approx_ops"),
    ("kodaira.scalars.ComplexApprox", "__sub__", "scalars.approx_ops"),
    ("kodaira.scalars.ComplexApprox", "__rsub__", "scalars.approx_ops"),
    ("kodaira.scalars.ComplexApprox", "__mul__", "scalars.approx_ops"),
    ("kodaira.scalars.ComplexApprox", "__rmul__", "scalars.approx_ops"),
    ("kodaira.scalars.ComplexApprox", "__truediv__", "scalars.approx_ops"),
    ("kodaira.scalars.ComplexApprox", "__rtruediv__", "scalars.approx_ops"),
    ("kodaira.scalars.ComplexApprox", "sqrt", "scalars.approx_ops"),
    ("kodaira.elliptic.EllipticCurve", "add", "elliptic.add"),
    ("kodaira.elliptic.EllipticCurve", "contains", "elliptic.contains"),
    ("kodaira.elliptic.EllipticCurve", "multiply", "elliptic.multiply"),
    ("kodaira.genus2.GenusTwoCurve", "cover", "genus2.cover"),
    ("kodaira.genus2.GenusTwoCurve", "fiber", "genus2.fiber"),
    ("kodaira.genus2.GenusTwoCurve", "contains", "genus2.contains"),
    ("kodaira.config_curve.ConfigurationCurve", "contains", "config_curve.contains"),
    ("kodaira.config_curve.ConfigurationCurve", "jacobian", "config_curve.jacobian"),
    ("kodaira.config_curve.ConfigurationCurve", "fiber_over_first",
     "config_curve.fiber_over_first"),
    ("kodaira.config_curve.ConfigurationCurve", "projection_degree_estimate",
     "config_curve.projection_degree_estimate"),
    ("kodaira.config_curve.ConfigurationCurve", "branch_points", "config_curve.branch_points"),
)

# Module-level functions: patched in every kodaira module that holds them,
# because modules import public names directly (``from .x import f``).
FUNCTIONS = (
    ("kodaira.config_curve", "sample_genus2_point", "config_curve.sample_genus2_point"),
    ("kodaira.generic_points", "find_generic_points", "generic_points.find_generic_points"),
    ("kodaira.generic_points", "verify_certificate", "generic_points.verify_certificate"),
    ("kodaira.intersection", "k_squared", "intersection.k_squared"),
    ("kodaira.invariants", "slope", "invariants.slope"),
    ("kodaira.invariants", "invariant_report", "invariants.invariant_report"),
    ("kodaira.invariants", "slope_table", "invariants.slope_table"),
    ("kodaira.verifier", "verify_claim", "verifier.verify_claim"),
    ("kodaira.cli", "main", "cli.main"),
)

LEAF = {"scalars.approx_ops"}
# calls whose non-None results are counted, for the accept ratio of a sampler
ACCEPT = {"config_curve.sample_genus2_point"}


def _resolve(path: str):
    module, _, attr = path.rpartition(".")
    return getattr(importlib.import_module(module), attr)


class Tracer:
    """Records spans and per-name aggregates for the calls it wraps."""

    def __init__(self):
        self.spans = []            # (id, name, start, end, parent id, op id)
        self.calls = {}            # name -> call count
        self.self_s = {}           # name -> summed self time
        self.accepted = {}         # name -> calls that returned a non-None value
        self.op_id = None
        # the root frame collects the time of top-level spans: [span id, child time]
        self._stack = [[None, 0.0]]
        self._next_id = 0
        self._patches = []

    # -- wrapping --------------------------------------------------------------

    def _span(self, name, fn):
        stack = self._stack
        calls, self_s, accepted = self.calls, self.self_s, self.accepted
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        count_accepted = name in ACCEPT
        if count_accepted:
            accepted.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stack[-1][1] += duration
                calls[name] += 1
                self_s[name] += duration - frame[1]
                self.spans.append((span_id, name, start, end, stack[-1][0], self.op_id))
            if count_accepted and result is not None:
                accepted[name] += 1
            return result

        return traced

    def _leaf(self, name, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack[-1][1] += duration
                calls[name] += 1
                self_s[name] += duration

        return traced

    def _wrap(self, name, fn):
        return self._leaf(name, fn) if name in LEAF else self._span(name, fn)

    def install(self):
        """Patch every layer function in place."""
        import mpmath

        for owner_path, attr, name in METHODS:
            owner = _resolve(owner_path)
            self._patch(owner, attr, self._wrap(name, owner.__dict__[attr]))
        for module_name, attr, name in FUNCTIONS:
            original = _resolve(f"{module_name}.{attr}")
            wrapped = self._wrap(name, original)
            for mod_name, module in list(sys.modules.items()):
                if mod_name.split(".")[0] != "kodaira":
                    continue
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapped)
        self._patch(mpmath, "svd_c", self._wrap("mpmath.svd_c", mpmath.svd_c))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def totals(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "accepted": dict(self.accepted)}

    def absorb(self, totals: dict, spans: list):
        """Merge the totals and spans a traced child process recorded."""
        for key, into in (("calls", self.calls), ("self_s", self.self_s),
                          ("accepted", self.accepted)):
            for name, value in totals[key].items():
                into[name] = into.get(name, 0) + value
        offset = self._next_id
        for span_id, name, start, end, parent, _ in spans:
            self.spans.append((span_id + offset, name, start, end,
                               None if parent is None else parent + offset, self.op_id))
            self._next_id = max(self._next_id, span_id + offset + 1)

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for row in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "name", "start", "end", "parent", "op"), row))) + "\n")
