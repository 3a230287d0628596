"""Spans and counters for the traced run, recorded from outside the package.

``Tracer.install`` replaces each traced function at every module or class
attribute through which callers look it up (for example both
``orbitrr.residues.res_cone`` and ``orbitrr.localization.res_cone``) and
``uninstall`` puts the originals back.  Spans (name, start, end, parent,
request id) stay in memory until the run ends.  The hottest methods get a
counter instead of a span, so the trace does not swamp what it measures.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

ROOT_SPANS = ("setup", "request")

# (metric prefix, module, owner class or None, attribute, kind)
TARGETS = (
    ("roots.enumerate_weyl_group", "roots", None, "enumerate_weyl_group", "span"),
    ("roots.RootSystem.pairing", "roots", "RootSystem", "pairing", "count"),
    ("roots.RootSystem.dynkin", "roots", "RootSystem", "dynkin", "count"),
    ("multiplicities.weight_multiplicities", "multiplicities", None,
     "weight_multiplicities", "span"),
    ("localization.rr_orbit_fixedpoint", "localization", None, "rr_orbit_fixedpoint", "span"),
    ("characters.weyl_dim", "characters", None, "weyl_dim", "span"),
    ("characters.character_series", "characters", None, "character_series", "span"),
    ("series.TruncatedSeries.divide_exact", "series", "TruncatedSeries", "divide_exact", "span"),
    ("series.TruncatedSeries.inverse", "series", "TruncatedSeries", "inverse", "span"),
    ("series.TruncatedSeries.__mul__", "series", "TruncatedSeries", "__mul__", "count"),
    # __rmul__ is the same function as __mul__; its calls count as __mul__
    ("series.TruncatedSeries.__mul__", "series", "TruncatedSeries", "__rmul__", "count"),
    ("series.TruncatedSeries.__init__", "series", "TruncatedSeries", "__init__", "count"),
    ("invariants.invariant_generators", "invariants", None, "invariant_generators", "span"),
    ("invariants.express_invariant", "invariants", None, "express_invariant", "span"),
    ("localization.raw_fibration_residue", "localization", None, "raw_fibration_residue",
     "span"),
    ("localization.fibration_rr_residue", "localization", None, "fibration_rr_residue", "span"),
    ("localization.CalibrationRegistry.constant_for", "localization", "CalibrationRegistry",
     "constant_for", "span"),
    ("residues.res_cone", "residues", None, "res_cone", "span"),
    ("residues.res_plus_1d", "residues", None, "res_plus_1d", "span"),
    ("residues.merge_terms", "residues", None, "merge_terms", "count"),
)


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, request id or None]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._rid = None
        self._patches: list[tuple[object, str, object]] = []
        self._seen_args: set = set()

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._rid])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str, rid=None):
        """A root span opened by the benchmark itself."""
        self._rid = rid
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self._rid = None

    # -- wrappers ------------------------------------------------------

    def _after(self, name: str, args, result):
        """Counts taken from a call's arguments and result."""
        if name == "multiplicities.weight_multiplicities":
            self.counts["multiplicities.diagram_weights"] += len(result)
            key = (args[0].label, tuple(args[1]))
            if key not in self._seen_args:
                self._seen_args.add(key)
                self.counts[name + ".distinct"] += 1
        elif name == "residues.res_cone":
            self.counts[name + ".attempts"] += result[1] + 1
            self.counts[name + ".terms_in"] += len(args[0])
        elif name == "residues.merge_terms":
            self.counts[name + ".in"] += len(args[0])
            self.counts[name + ".out"] += len(result)

    def _span_wrapper(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.counts[name + ".calls"] += 1
            tracer._after(name, args, result)
            return result

        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"
        if name == "residues.merge_terms":
            tracer = self

            def counted(*args, **kwargs):
                counts[key] += 1
                result = fn(*args, **kwargs)
                tracer._after(name, args, result)
                return result
        else:
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

        return counted

    # -- install / uninstall -------------------------------------------

    def install(self):
        pkg = sys.modules["orbitrr"]
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "orbitrr" or n.startswith("orbitrr."))]
        for name, modname, owner, attr, kind in TARGETS:
            home = getattr(pkg, modname)
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            if owner is not None:
                cls = getattr(home, owner)
                self._patch(cls, attr, make(name, cls.__dict__[attr]))
                continue
            original = getattr(home, attr)
            wrapper = make(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper):
        self._patches.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    # -- summary -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, rid in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def request_self_sums(self) -> list[tuple[float, float]]:
        """Per request: (latency, sum of the self times of its layer spans)."""
        own = self.self_times()
        totals: dict = {}
        latency: dict = {}
        for (name, start, end, parent, rid), t in zip(self.spans, own):
            if rid is None:
                continue
            if name == "request" and parent == -1:
                latency[rid] = end - start
            else:
                totals[rid] = totals.get(rid, 0.0) + t
        return [(latency[r], totals.get(r, 0.0)) for r in sorted(latency)]

    def summary(self) -> dict[str, float]:
        """Per-layer metrics: calls, self time (set-up and requests) and
        share (self time inside requests over summed request latency)."""
        own = self.self_times()
        self_s: Counter = Counter()
        in_requests: Counter = Counter()
        total_latency = 0.0
        for (name, start, end, parent, rid), t in zip(self.spans, own):
            if name in ROOT_SPANS and parent == -1:
                if name == "request":
                    total_latency += end - start
                continue
            self_s[name] += t
            if rid is not None:
                in_requests[name] += t
        out: dict[str, float] = {}
        for name, *_ in TARGETS:
            out[name + ".calls"] = self.counts[name + ".calls"]
            out[name + ".self_s"] = self_s[name]
            out[name + ".share"] = in_requests[name] / total_latency if total_latency else 0.0
        for key in ("multiplicities.diagram_weights", "residues.res_cone.attempts",
                    "residues.res_cone.terms_in"):
            out[key] = self.counts[key]
        calls = self.counts["multiplicities.weight_multiplicities.calls"]
        out["multiplicities.weight_multiplicities.distinct_ratio"] = (
            self.counts["multiplicities.weight_multiplicities.distinct"] / calls if calls else 0.0)
        merged_in = self.counts["residues.merge_terms.in"]
        out["residues.merge_terms.ratio"] = (
            self.counts["residues.merge_terms.out"] / merged_in if merged_in else 0.0)
        return out
