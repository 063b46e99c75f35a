"""Command line front end.

Four subcommands, all built on the pure library layer:

``classify``
    Run the two-stage numerical classification for a given canonical
    degree and check the output against the built-in reference table
    (defined for degree 7). ``--verbose`` additionally walks every
    candidate and lists, on stderr, each rejected one together with the
    first test it failed; m-triples with odd nodal counts are not searched.

``verify``
    Run the full verification certificate for a bundled fixture or for
    a surface description file. ``--export`` writes the fixture back
    out as a file, which re-verifies to an identical certificate.

``enumerate``
    List the classes of irreducible rational curves of a given
    self-intersection on the fixture's lattice. ``--filtered`` drops
    classes meeting a nodal curve negatively.

``report``
    Render the deformation bookkeeping certificate for a fixture.

Exit codes: 0 all checks pass, 1 at least one failing row, 2 input
error (bad flags, unreadable or invalid file, unwritable export path,
unknown fixture, degree outside 1..MAX_K2, a lattice with no class
enumeration, a self-intersection outside MIN_SELFINT..MAX_SELFINT of
``curves``), 3 internal error (any other exception, ``ValueError``
included, reported as one ``internal error: <Type>: <message>`` line on
stderr, never a traceback), 141 stdout closed by its reader before the
output was written (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import os
import sys

from .certificates import Certificate, canonical_json, check, recorded
from .classifier import (
    K7_REFERENCE,
    ClassificationOutcome,
    ClassifierError,
    classify,
    classify_with_trace,
)
from .cohomology import deformation_certificate
from .curves import enumerate_classes, filter_effective_against_nodal
from .fixtures import FIXTURE_NAMES, FixtureError, fixture, verify_surface
from .lattice import LatticeError, format_class
from .surface_io import (
    SurfaceFile,
    SurfaceFileError,
    load_surface,
    save_surface,
)


def classification_certificate(k2: int) -> Certificate:
    """Certificate comparing classify(k2) against the built-in table."""
    cases = classify(k2)
    rows = []
    if k2 == 7:
        rows.append(
            check("table/count", "number of surviving numerical cases",
                  "classification table", len(cases), len(K7_REFERENCE))
        )
        by_key = {(case.k, case.m): case.to_json_dict() for case in cases}
        for ref in K7_REFERENCE:
            kk = ".".join(str(v) for v in ref.k)
            mm = ".".join(str(v) for v in ref.m_reported)
            rows.append(
                check(f"table/{kk}-{mm}",
                      f"case k=({kk}) m=({mm}) matches the reference row",
                      "classification table", by_key.pop((ref.k, ref.m), None),
                      ref.to_json_dict())
            )
        for i, extra in enumerate(by_key.values(), start=1):
            rows.append(
                check(f"table/extra-{i}",
                      "case not present in the reference table",
                      "classification table", extra, None)
            )
    else:
        rows.append(
            check("table/reference",
                  "the built-in reference table only covers canonical degree 7",
                  "classification table", k2, 7)
        )
        rows.append(
            recorded("table/unvalidated",
                     "survivors for this degree are reported without validation",
                     "classification table", [case.to_json_dict() for case in cases])
        )
    return Certificate(title=f"classification table: K2={k2}", rows=tuple(rows))


def _print_traces(outcome: ClassificationOutcome) -> None:
    lines = [f"rejected k={kr.k}: {kr.reason}\n" for kr in outcome.k_rejections]
    lines += [
        f"rejected k={mr.k} m={mr.m_reported}: {mr.filter_name} ({mr.detail})\n"
        for mr in outcome.m_rejections
    ]
    sys.stderr.write("".join(lines))


def _emit(cert: Certificate, emit: str) -> int:
    if emit == "json":
        sys.stdout.write(cert.to_json())
    else:
        sys.stdout.write(cert.to_markdown())
    return 0 if cert.overall == "pass" else 1


def cmd_classify(args: argparse.Namespace) -> int:
    if args.verbose:
        _print_traces(classify_with_trace(args.k2))
    return _emit(classification_certificate(args.k2), args.emit)


def _load_target(args: argparse.Namespace) -> SurfaceFile:
    if args.fixture is not None:
        config, cover = fixture(args.fixture)
        return SurfaceFile(label=args.fixture, config=config, cover=cover)
    return load_surface(args.file)


def cmd_verify(args: argparse.Namespace) -> int:
    surface = _load_target(args)
    if surface.cover is None:
        raise SurfaceFileError(f"{args.file}: no cover block, nothing to verify")
    cert = verify_surface(surface.label, surface.cover)
    if args.export:
        save_surface(surface, args.export)
    return _emit(cert, args.emit)


def cmd_enumerate(args: argparse.Namespace) -> int:
    surface = _load_target(args)
    config = surface.config
    classes = enumerate_classes(config.lattice, args.selfint)
    if args.filtered:
        classes = filter_effective_against_nodal(classes, config)
    if args.emit == "json":
        doc = {
            "label": surface.label,
            "basis": list(config.lattice.basis_names),
            "selfint": args.selfint,
            "filtered": bool(args.filtered),
            "count": len(classes),
            "classes": [list(c.coeffs) for c in classes],
        }
        sys.stdout.write(canonical_json(doc))
    else:
        sys.stdout.write(f"count: {len(classes)}\n")
        for cls in classes:
            sys.stdout.write(format_class(cls) + "\n")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    return _emit(deformation_certificate(args.fixture), args.emit)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bidouble",
        description="Exact-arithmetic verification of bidouble-cover surface data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="run the numerical classification for a canonical degree"
    )
    p_classify.add_argument("--k2", type=int, required=True,
                            help="canonical degree of the covering surface")
    p_classify.add_argument("--verbose", action="store_true",
                            help="list rejected candidates with the first failing test (stderr)")
    p_classify.add_argument("--emit", choices=("json", "md"), default="md")
    p_classify.set_defaults(func=cmd_classify)

    p_verify = sub.add_parser(
        "verify", help="verify a fixture or a surface description file"
    )
    target = p_verify.add_mutually_exclusive_group(required=True)
    target.add_argument("--fixture", choices=FIXTURE_NAMES)
    target.add_argument("--file", help="path to a surface description file")
    p_verify.add_argument("--export", metavar="PATH",
                          help="write the verified surface back out as a file")
    p_verify.add_argument("--emit", choices=("json", "md"), default="md")
    p_verify.set_defaults(func=cmd_verify)

    p_enum = sub.add_parser(
        "enumerate", help="enumerate rational curve classes of a self-intersection"
    )
    target = p_enum.add_mutually_exclusive_group(required=True)
    target.add_argument("--fixture", choices=FIXTURE_NAMES)
    target.add_argument("--file", help="path to a surface description file")
    p_enum.add_argument("--selfint", type=int, required=True,
                        help="self-intersection of the classes to enumerate")
    p_enum.add_argument("--filtered", action="store_true",
                        help="drop classes meeting a nodal curve negatively")
    p_enum.add_argument("--emit", choices=("json", "md"), default="md")
    p_enum.set_defaults(func=cmd_enumerate)

    p_report = sub.add_parser(
        "report", help="render the deformation bookkeeping certificate for a fixture"
    )
    p_report.add_argument("fixture", choices=FIXTURE_NAMES)
    p_report.add_argument("--emit", choices=("json", "md"), default="md")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows up here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away (``... | head``): silence the final flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (FixtureError, SurfaceFileError, ClassifierError, LatticeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
