"""Span recording for the traced benchmark run.

A span is [name, start_ns, end_ns, parent, op]: ``parent`` is the index of
the enclosing span in the same list (or None) and ``op`` the benchmark
operation it belongs to. Timestamps come from ``time.monotonic_ns``, which
on Linux is one system-wide clock, so spans recorded in different processes
line up.

The spans sit at layer boundaries: :func:`instrument` replaces the public
functions of each ``bidouble`` module with wrappers, in every module that
holds a reference to them, so calls between modules are recorded as well as
the benchmark's own. Three lattice functions run hundreds of thousands of
times per operation; for them only a call count and total time are kept,
not one span per call.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter

# classifier stage-two filter names, shortened for metric names
FILTERS = {
    "nodal count parity": "parity",
    "pairwise index bound": "pairwise",
    "triple index bound": "triple",
    "determinant square test": "determinant",
    "base index bound": "base",
    "adjoint square": "adjoint",
    "genus bound": "genus",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.timers: dict[str, list[int]] = {}  # name -> [calls, total ns]
        self.enabled = True
        self.op = None
        self.classified: set[int] = set()  # degrees passed to the classifier
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.monotonic_ns(), None, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.monotonic_ns()
        self._stack.pop()

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "timers": self.timers}


def _spanned(tracer: Tracer, fn, name: str, after=None):
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(tracer.counts, args, result)
        return result
    return wrapper


def _timed(tracer: Tracer, fn, name: str):
    acc = tracer.timers.setdefault(name, [0, 0])
    clock = time.perf_counter_ns

    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        t0 = clock()
        result = fn(*args, **kwargs)
        acc[1] += clock() - t0
        acc[0] += 1
        return result
    return wrapper


def _stage1(counts, args, result):
    counts["classifier.k_kept"] += len(result[0])
    counts["classifier.k_rejected"] += len(result[1])


def _stage2(counts, args, result):
    counts["classifier.m_survivors"] += len(result[0])
    counts["classifier.m_rejected"] += len(result[1])
    for rejection in result[1]:
        counts["classifier.reject." + FILTERS[rejection.filter_name]] += 1


def _verify(counts, args, result):
    counts["covers.rows"] += len(result.rows)
    counts["covers.fail_rows"] += len(result.failures())


def _filter(counts, args, result):
    counts["curves.filter_in"] += len(args[0])
    counts["curves.filter_kept"] += len(result)


def _text_bytes(counts, args, result):
    counts["certificates.bytes"] += len(result.encode("utf-8"))


def _load_bytes(counts, args, result):
    counts["surface_io.bytes"] += os.path.getsize(args[0])


def _save_bytes(counts, args, result):
    counts["surface_io.bytes"] += os.path.getsize(args[1])


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every layer; call after importing bidouble."""
    from bidouble import certificates, classifier, cohomology, covers, curves, fixtures
    from bidouble import lattice, surface_io

    def classified(counts, args, result):
        tracer.classified.add(args[0])

    functions = [
        (classifier, "candidate_k_triples_trace", "classifier.stage1", _stage1),
        (classifier, "enumerate_m_triples_trace", "classifier.stage2", _stage2),
        (classifier, "classify_with_trace", "classifier.classify", classified),
        (curves, "enumerate_classes", "curves.enumerate",
         lambda counts, args, result: counts.update({"curves.classes": len(result)})),
        (curves, "filter_effective_against_nodal", "curves.filter", _filter),
        (covers, "building_data_rows", "covers.building", None),
        (covers, "compute_invariants", "covers.invariants", None),
        (covers, "run_verification", "covers.verify", _verify),
        (fixtures, "fixture", "fixtures.build", None),
        (cohomology, "deformation_certificate", "cohomology.report", None),
        (surface_io, "load_surface", "surface_io.load", _load_bytes),
        (surface_io, "save_surface", "surface_io.save", _save_bytes),
    ]
    modules = [m for name, m in sys.modules.items()
               if name == "bidouble" or name.startswith("bidouble.")]
    for module, attr, name, after in functions:
        original = getattr(module, attr)
        _replace(modules, original, _spanned(tracer, original, name, after))
    for attr in ("intersect", "format_class"):
        original = getattr(lattice, attr)
        _replace(modules, original, _timed(tracer, original, "lattice." + attr))
    cls = lattice.SurfaceLattice
    cls.divisor = _timed(tracer, cls.divisor, "lattice.divisor")
    cert = certificates.Certificate
    cert.to_json = _spanned(tracer, cert.to_json, "certificates.json", _text_bytes)
    cert.to_markdown = _spanned(tracer, cert.to_markdown, "certificates.md", _text_bytes)


def _replace(modules, original, wrapper) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def self_times(spans) -> list[int]:
    """Each span's duration minus the part its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own
