"""Library child of the benchmark: one process that runs a list of operations.

Reads a job ``{"ops": [...], "trace": 0|1}`` as JSON on stdin. Set-up is
importing ``bidouble`` and building both fixtures. Each operation then runs
in process, timed on its own; its output is checked by ``checks`` after the
timed region. One JSON object with the timings (and, when traced, the spans)
goes to stdout.
"""

import time

T_START = time.monotonic_ns()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Operations:
    """The in-process operations. Each returns a function that checks its output.

    Library functions are looked up on their modules at call time, so a
    traced run sees the instrumented versions.
    """

    def __init__(self, tracer):
        import bidouble.cli
        from bidouble import cohomology, covers, curves, fixtures, lattice, surface_io

        self.cli, self.cohomology, self.covers = bidouble.cli, cohomology, covers
        self.curves, self.fixtures, self.lattice = curves, fixtures, lattice
        self.surface_io, self.tracer = surface_io, tracer
        self.sink = open(os.devnull, "w", encoding="utf-8")
        self.dp1 = fixtures.fixture("dp1")[0]
        fixtures.fixture("inoue")

    def enumerate(self, op):
        """The dp1 classes of square s, then the nodal filter, then rendering.

        Rendered lines are written to a sink and let go, as the command line
        does; the check renders them again, outside the timed region.
        """
        classes = self.curves.enumerate_classes(self.dp1.lattice, op["s"])
        kept = self.curves.filter_effective_against_nodal(classes, self.dp1)
        span = self.tracer.begin("curves.render") if self.tracer else None
        written = sum(self.sink.write(self.lattice.format_class(c) + "\n") for c in classes)
        if span is not None:
            self.tracer.end(span)

        def check():
            size = 0

            def lines():
                nonlocal size
                for c in classes:
                    line = self.lattice.format_class(c)
                    size += len(line) + 1
                    yield line
            problems = (checks.check_enumerated("dp1", op["s"], (c.coeffs for c in classes))
                        + checks.check_filtered((c.coeffs for c in classes),
                                                (c.coeffs for c in kept))
                        + checks.check_rendered("dp1", (c.coeffs for c in classes), lines()))
            if not problems and written != size:
                problems.append(f"rendering wrote {written} characters, the lines have {size}")
            return problems
        return check

    def classify(self, op):
        cert = self.cli.classification_certificate(op["k2"])
        json_text, md_text = cert.to_json(), cert.to_markdown()
        return lambda: checks.check_classify(op["k2"], json_text, md_text)

    def verify(self, op):
        """What ``bidouble verify --file PATH --export OUT`` does, without printing."""
        surface = self.surface_io.load_surface(op["path"])
        if surface.label in self.fixtures.FIXTURE_NAMES:
            expect = self.fixtures.expectations(surface.label)
            title = f"fixture verification: {surface.label}"
        else:
            expect, title = None, f"surface verification: {surface.label}"
        cert = self.covers.run_verification(surface.cover, expect, title)
        json_text, md_text = cert.to_json(), cert.to_markdown()
        self.surface_io.save_surface(surface, op["out"])

        def check():
            problems = checks.check_verification(op["variant"], json_text, md_text)
            if Path(op["out"]).read_bytes() != Path(op["path"]).read_bytes():
                problems.append("re-exported surface file differs from its input")
            return problems
        return check

    def report(self, op):
        cert = self.cohomology.deformation_certificate(op["fixture"])
        json_text, md_text = cert.to_json(), cert.to_markdown()
        return lambda: checks.check_report(op["fixture"], json_text, md_text)


def peak_alloc_mb(tracer, k2: int) -> float:
    """tracemalloc peak of one untraced classification at degree k2."""
    import tracemalloc

    from bidouble import classifier

    tracer.enabled = False
    tracemalloc.start()
    try:
        classifier.classify_with_trace(k2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        tracer.enabled = True
    return peak / 2**20


def main() -> None:
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        import bidouble.cli  # noqa: F401  (instrument needs the modules loaded)

        spans.instrument(tracer)
    ops = Operations(tracer)
    t_ready = time.monotonic_ns()
    results = []
    check_cpu = 0.0
    for op in job["ops"]:
        if tracer is not None:
            tracer.op = op["id"]
            span = tracer.begin("op." + op["kind"])
        t0 = time.perf_counter_ns()
        try:
            check = getattr(ops, op["kind"])(op)
            problems = None
        except Exception as exc:  # an operation that raises has failed; keep going
            check, problems = None, [f"{type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter_ns() - t0
        if tracer is not None:
            tracer.end(span)
            tracer.op = None
        c0 = cpu_seconds()
        if tracer is not None:
            tracer.enabled = False  # a check may call the program again
        if check is not None:
            try:
                problems = check()
            except Exception as exc:  # a malformed output can break a checker
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if tracer is not None:
            tracer.enabled = True
        check_cpu += cpu_seconds() - c0
        results.append({"id": op["id"], "ns": elapsed, "problems": problems})
    out = {"t_start": T_START, "t_ready": t_ready, "ops": results, "check_cpu_s": check_cpu}
    if tracer is not None:
        out.update(tracer.export())
        if tracer.classified:
            out["peak_alloc_mb"] = peak_alloc_mb(tracer, max(tracer.classified))
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
