"""Per-layer spans timed from outside the engine.

The benchmark wraps public callables of each knotqc layer in every
knotqc namespace that binds them (a module attribute, a name another
module imported, or a class method), records one span per call and puts
the originals back when the run ends. Spans stay in memory until then.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (span name, module, attribute or Class.method)
TARGETS = (
    ("cli.main", "knotqc.cli", "main"),
    ("braid.parse_braid", "knotqc.braid", "parse_braid"),
    ("braid.free_reduce", "knotqc.braid", "BraidWord.free_reduce"),
    ("braid.closure_components", "knotqc.braid", "BraidWord.closure_components"),
    ("braid.permutation", "knotqc.braid", "BraidWord.permutation"),
    ("braid.writhe", "knotqc.braid", "BraidWord.writhe"),
    ("diagram.canonical_key", "knotqc.diagram", "PDDiagram.canonical_key"),
    ("diagram.construct", "knotqc.diagram", "PDDiagram.__post_init__"),
    ("diagram.switch_crossing", "knotqc.diagram", "PDDiagram.switch_crossing"),
    ("diagram.smooth_crossing", "knotqc.diagram", "PDDiagram.smooth_crossing"),
    ("diagram.components", "knotqc.diagram", "PDDiagram.components"),
    ("diagram.closure_to_diagram", "knotqc.diagram", "closure_to_diagram"),
    ("skein.homfly_with_stats", "knotqc.skein", "homfly_with_stats"),
    ("skein.homfly_braid", "knotqc.skein", "homfly_braid"),
    ("skein.jones_at", "knotqc.skein", "jones_at"),
    ("laurent.mul", "knotqc.laurent", "LaurentPoly2.__mul__"),
    ("laurent.add", "knotqc.laurent", "LaurentPoly2.__add__"),
    ("laurent.sub", "knotqc.laurent", "LaurentPoly2.__sub__"),
    ("laurent.pow", "knotqc.laurent", "LaurentPoly2.__pow__"),
    ("laurent.specialize_jones", "knotqc.laurent", "specialize_jones"),
    ("laurent.evaluate", "knotqc.laurent", "LaurentPoly1.evaluate"),
    ("burau.burau_symbolic", "knotqc.burau", "burau_symbolic"),
    ("burau.burau_numeric", "knotqc.burau", "burau_numeric"),
    ("anyon.jones_estimate", "knotqc.anyon", "jones_estimate"),
    ("anyon.jones_via_trace", "knotqc.anyon", "jones_via_trace"),
    ("anyon.markov_trace", "knotqc.anyon", "markov_trace"),
    ("anyon.sigma_unitary", "knotqc.anyon", "sigma_unitary"),
)

_BRAID = ("braid.parse_braid", "braid.free_reduce", "braid.closure_components",
          "braid.permutation", "braid.writhe")
_ARITH = ("laurent.mul", "laurent.add", "laurent.sub", "laurent.pow")
_BURAU = ("burau.burau_symbolic", "burau.burau_numeric")

# Layer metric -> the spans whose self time it sums.
SELF_TIME_METRICS = {
    "cli.self_ms": ("cli.main",),
    "braid.self_ms": _BRAID,
    "diagram.canonical_key_ms": ("diagram.canonical_key",),
    "diagram.construct_ms": ("diagram.construct",),
    "diagram.edit_ms": ("diagram.switch_crossing", "diagram.smooth_crossing",
                        "diagram.components", "diagram.closure_to_diagram"),
    "skein.self_ms": ("skein.homfly_with_stats", "skein.homfly_braid", "skein.jones_at"),
    "laurent.arith_ms": _ARITH,
    "laurent.specialize_ms": ("laurent.specialize_jones", "laurent.evaluate"),
    "burau.self_ms": _BURAU,
    "anyon.estimate_ms": ("anyon.jones_estimate",),
    "anyon.trace_ms": ("anyon.jones_via_trace", "anyon.markov_trace"),
    "anyon.generator_build_ms": ("anyon.sigma_unitary",),
}
# Layer metric -> the spans it counts.
CALL_METRICS = {
    "braid.calls": _BRAID,
    "diagram.canonical_key_calls": ("diagram.canonical_key",),
    "diagram.construct_calls": ("diagram.construct",),
    "laurent.arith_calls": _ARITH,
    "burau.calls": _BURAU,
}


def knotqc_namespaces() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "knotqc" or name.startswith("knotqc.")]


class Patches:
    """Replaces knotqc callables by wrappers and puts the originals back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, module_name: str, path: str, make_wrapper) -> bool:
        """Wraps one callable; False if the program no longer has it."""
        module = sys.modules.get(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name, None)
            if attr not in vars(cls or object):
                return False
            self._set(cls, attr, make_wrapper(vars(cls)[attr]))
            return True
        original = getattr(module, path, None)
        if original is None:
            return False
        wrapper = make_wrapper(original)
        for namespace in knotqc_namespaces():
            for name, value in list(vars(namespace).items()):
                if value is original:
                    self._set(namespace, name, wrapper)
        return True

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class SkeinCounter:
    """Totals of the SkeinStats that homfly_with_stats returns."""

    def __init__(self):
        self.nodes = 0
        self.memo_hits = 0

    def add(self, result) -> None:
        stats = result[1]
        self.nodes += stats.nodes
        self.memo_hits += stats.memo_hits

    def install(self, patches: Patches) -> None:
        """Count without timing: the only hook of an untraced run."""

        def make_wrapper(fn):
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.add(result)
                return result

            return counted

        patches.replace("knotqc.skein", "homfly_with_stats", make_wrapper)


class SpanRecorder:
    """One span per wrapped call: name, start, end, parent span, request id."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.request_id = -1  # -1 while setting up, then the request's index
        self.skein = SkeinCounter()
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, span_name: str, fn, on_result=None):
        name_id = len(self.names)
        self.names.append(span_name)
        names, starts, ends = self.name, self.start, self.end
        parents, requests, open_spans = self.parent, self.request, self._open
        clock = time.perf_counter
        recorder = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(open_spans[-1] if open_spans else -1)
            requests.append(recorder.request_id)
            ends.append(0.0)
            open_spans.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_spans.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self, patches: Patches, targets=TARGETS) -> list[str]:
        """Wraps every target; returns the span names of targets the
        program no longer has."""
        missing = []
        for span_name, module_name, path in targets:
            on_result = self.skein.add if span_name == "skein.homfly_with_stats" else None
            if not patches.replace(
                module_name, path,
                lambda fn, span_name=span_name, on_result=on_result: self.wrap(span_name, fn, on_result),
            ):
                missing.append(span_name)
        return missing

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "request": np.frombuffer(self.request, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer time (ms of self time) and call count, zero
        for a layer that did not run."""
        spans = self.arrays()
        own = self_times(spans["start"], spans["end"], spans["parent"])
        per_name_s = np.bincount(spans["name"], weights=own, minlength=len(self.names))
        per_name_calls = np.bincount(spans["name"], minlength=len(self.names))
        by_span_s: dict[str, float] = {}
        by_span_calls: dict[str, int] = {}
        for i, span_name in enumerate(self.names):
            by_span_s[span_name] = by_span_s.get(span_name, 0.0) + float(per_name_s[i])
            by_span_calls[span_name] = by_span_calls.get(span_name, 0) + int(per_name_calls[i])
        metrics: dict[str, float] = {}
        for metric, span_names in SELF_TIME_METRICS.items():
            metrics[metric] = 1000.0 * sum(by_span_s.get(s, 0.0) for s in span_names)
        for metric, span_names in CALL_METRICS.items():
            metrics[metric] = sum(by_span_calls.get(s, 0) for s in span_names)
        return metrics


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Children of one span run one after another in a single thread, so the
    time they cover is the sum of their durations.
    """
    duration = end - start
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered
