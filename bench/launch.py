"""Run the ``bidouble`` command line as its console script does, and time it.

Usage: ``python launch.py SIDE_FILE TRACE ARGS...`` runs ``bidouble ARGS...``
with stdout and the exit code untouched. It writes to SIDE_FILE, as JSON,
the monotonic times at which the interpreter reached this file, finished
importing ``bidouble.cli``, entered ``main`` (later than the import only by
the instrumenting of a traced run) and returned from it and, when TRACE is
1, the spans recorded inside ``main``.
"""

import time

T_START = time.monotonic_ns()

import sys  # noqa: E402


def run() -> int:
    side, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from bidouble.cli import main

    t_imported = time.monotonic_ns()
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)
    t_main = time.monotonic_ns()
    code = 1
    try:
        code = main(argv)
    finally:
        t_end = time.monotonic_ns()
        sys.stdout.flush()
        import json

        record = {"t_start": T_START, "t_imported": t_imported, "t_main": t_main,
                  "t_end": t_end}
        if tracer is not None:
            record.update(tracer.export())
        with open(side, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(run())
