"""Command line front end: parse argv, run one subcommand, print what the
library returns and map the outcome to an exit code. No certificate row
is built here; each certificate comes from the module owning its facts.

``classify``
    Print ``classifier.classification_certificate``, the survivors of the
    two-stage search for a canonical degree checked against the built-in
    reference table (degree 7 only). ``--verbose`` also walks every
    candidate and lists, on stderr, each rejected one with the first test
    it failed; m-triples with odd nodal counts are not searched. The
    listing is streamed, each line written as the walk finds it.

``verify``
    Print ``fixtures.verify_surface`` for a bundled fixture or a surface
    description file. A fixture is read from its shipped surface file by
    the loader that reads ``--file``. ``--export`` writes the surface out
    as a file, which re-verifies to an identical certificate; a fixture's
    export is its shipped file, byte for byte.

``enumerate``
    List the classes of irreducible rational curves of a given
    self-intersection on the fixture's lattice. ``--filtered`` drops
    classes meeting a nodal curve negatively.

``report``
    Print ``cohomology.deformation_certificate`` for a fixture.

The options of each subcommand live in one table, ``COMMANDS``, which the
parser and the help text both read; the standard library's argparse is not
imported, as it costs every process more time than the paper's commands
compute. The parser reads what argparse would: ``--opt value`` and
``--opt=value``, a unique prefix of an option name, options in any order
(a repeated one keeps its last value) and negative integer values.
``-h``/``--help`` prints help on stdout and exits 0. A bad flag writes a
``usage:`` line and one ``bidouble: error: ...`` line on stderr and exits 2.

Exit codes: 0 all checks pass, 1 at least one failing row, 2 input
error (bad flags, unreadable or invalid file, unwritable export path,
unknown fixture, a fixture file with no cover block or edited into a
cover ``report`` cannot compute on, degree outside 1..MAX_K2, a lattice with no class
enumeration, a self-intersection outside MIN_SELFINT..MAX_SELFINT of
``curves``), 3 internal error (any other exception, ``ValueError``
included, reported as one ``internal error: <Type>: <message>`` line on
stderr, never a traceback), 141 stdout closed by its reader before the
output was written (128 + SIGPIPE).

Exit: ``main`` registers ``gc.freeze`` with ``atexit``, once per process
however often it is called (a module flag, not ``atexit.unregister``
before each ``register``: that leaves an empty slot in atexit's table per
call on CPython 3.10-3.13). At interpreter exit it moves every object
still alive into the permanent generation, so the collections that
finalization runs walk and free none of them, and the operating system
reclaims their memory with the process. Everything else in finalization
still runs: the other ``atexit`` handlers, the flush of the standard
streams and module teardown. ``os._exit`` would skip all of those, so it
is not used. In process (tests, embedding callers) nothing changes, as
``gc.freeze`` runs only at exit. Measured on a 2-vCPU VM, from the return
of ``main`` for ``verify --fixture dp1`` to the parent seeing the process
exit took 14.5 ms without the hook and 4.2 ms with it on Python 3.11.7
(medians of 21 interleaved runs), and 8.0-9.4 ms against 2.9-4.3 ms on
3.10, 3.12 and 3.13.
"""

from __future__ import annotations

import atexit
import gc
import os
import sys
from types import SimpleNamespace

from .certificates import Certificate, canonical_json
from .classifier import (
    ClassifierError, KRejection, classification_certificate, classify_with_trace,
)
from .cohomology import deformation_certificate
from .curves import enumerate_classes, filter_effective_against_nodal
from .fixtures import FIXTURE_NAMES, FixtureError, fixture, verify_surface
from .lattice import LatticeError, format_class
from .surface_io import SurfaceFile, SurfaceFileError, load_surface, save_surface


def _emit(cert: Certificate, emit: str) -> int:
    if emit == "json":
        sys.stdout.write(cert.to_json())
    else:
        sys.stdout.write(cert.to_markdown())
    return 0 if cert.overall == "pass" else 1


def cmd_classify(args: SimpleNamespace) -> int:
    if args.verbose:
        for r in classify_with_trace(args.k2):  # each line as the walk finds its rejection
            if type(r) is KRejection:
                line = f"rejected k={r.k}: {r.reason}\n"
            else:
                line = f"rejected k={r.k} m={r.m_reported}: {r.filter_name} ({r.detail})\n"
            sys.stderr.write(line)
    return _emit(classification_certificate(args.k2), args.emit)


def _load_target(args: SimpleNamespace) -> SurfaceFile:
    if args.fixture is not None:
        config, cover = fixture(args.fixture)
        return SurfaceFile(label=args.fixture, config=config, cover=cover)
    return load_surface(args.file)


def cmd_verify(args: SimpleNamespace) -> int:
    surface = _load_target(args)
    if surface.cover is None:
        raise SurfaceFileError(f"{args.file}: no cover block, nothing to verify")
    cert = verify_surface(surface.label, surface.cover)
    if args.export:
        save_surface(surface, args.export)
    return _emit(cert, args.emit)


def cmd_enumerate(args: SimpleNamespace) -> int:
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


def cmd_report(args: SimpleNamespace) -> int:
    return _emit(deformation_certificate(args.fixture), args.emit)


_REQUIRED = object()
_HELP = ("-h", "--help")
_EMIT = ("--emit", ("json", "md"), "md", None)
_TARGET = (
    ("--fixture", FIXTURE_NAMES, None, None),
    ("--file", str, None, "path to a surface description file"),
)

# name -> (help, options, one-of group). An option is (name, kind, default,
# help): kind is int or str for a value, a tuple of its choices, or bool for
# an on/off flag; a name without dashes is a positional; default _REQUIRED
# means the option must be given. Exactly one option of the one-of group
# must be given. The cmd_* functions read each value as the attribute named
# like the option without its dashes.
COMMANDS = {
    "classify": ("run the numerical classification for a canonical degree", (
        ("--k2", int, _REQUIRED, "canonical degree of the covering surface"),
        ("--verbose", bool, False,
         "list rejected candidates with the first failing test (stderr)"),
        _EMIT,
    ), ()),
    "verify": ("verify a fixture or a surface description file", _TARGET + (
        ("--export", str, None, "write the verified surface back out as a file"),
        _EMIT,
    ), ("--fixture", "--file")),
    "enumerate": ("enumerate rational curve classes of a self-intersection", _TARGET + (
        ("--selfint", int, _REQUIRED, "self-intersection of the classes to enumerate"),
        ("--filtered", bool, False, "drop classes meeting a nodal curve negatively"),
        _EMIT,
    ), ("--fixture", "--file")),
    "report": ("render the deformation bookkeeping certificate for a fixture", (
        ("fixture", FIXTURE_NAMES, _REQUIRED, None),
        _EMIT,
    ), ()),
}
_DESCRIPTION = "Exact-arithmetic verification of bidouble-cover surface data."


def _shown(option: tuple) -> str:
    name, kind = option[0], option[1]
    if kind is bool:
        return name
    metavar = "{" + ",".join(kind) + "}" if type(kind) is tuple else name.lstrip("-").upper()
    return f"{name} {metavar}" if name.startswith("-") else metavar


def _usage(command: str | None) -> str:
    if command is None:
        return "bidouble [-h] {" + ",".join(COMMANDS) + "} ..."
    _, options, one_of = COMMANDS[command]
    shown = [_shown(option) if option[2] is _REQUIRED else f"[{_shown(option)}]"
             for option in options if option[0] not in one_of]
    if one_of:
        group = [_shown(option) for option in options if option[0] in one_of]
        shown.insert(0, "(" + " | ".join(group) + ")")
    return " ".join(["bidouble", command, "[-h]"] + shown)


def _print_help(command: str | None) -> None:
    if command is None:
        about, rows = _DESCRIPTION, [(name, row[0]) for name, row in COMMANDS.items()]
    else:
        about, options, _ = COMMANDS[command]
        rows = [(_shown(option), option[3] or "") for option in options]
    rows.insert(0, ("-h, --help", "show this help message and exit"))
    width = max(len(left) for left, _ in rows) + 2
    text = "".join(f"  {left:<{width}}{right}".rstrip() + "\n" for left, right in rows)
    sys.stdout.write(f"usage: {_usage(command)}\n\n{about}\n\n{text}")
    raise SystemExit(0)


def _fail(command: str | None, message: str) -> None:
    sys.stderr.write(f"usage: {_usage(command)}\nbidouble: error: {message}\n")
    raise SystemExit(2)


def _match(token: str, flags: tuple, command: str | None) -> tuple | None:
    """Read ``token`` as argparse does against the option names ``flags``.

    None for a value. Otherwise ``(flag, explicit)``: ``flag`` is the option
    the token names in full or by a unique prefix, or the token itself when
    it names none, and ``explicit`` the text after a ``=``, if any.
    """
    if token in flags or token == "--":  # "--" is an unknown option, not an end of options
        return token, None
    if not token.startswith("-") or token == "-":
        return None
    name, eq, explicit = token.partition("=")
    if eq and name in flags:
        return name, explicit
    if token.startswith("--"):
        found = [flag for flag in flags if flag.startswith(name)]
        explicit = explicit if eq else None
    else:  # a one-letter option takes the rest of the token as its value
        found = [flag for flag in flags if flag == token[:2]]
        explicit = token[2:]
    if len(found) > 1:
        _fail(command, f"ambiguous option: {token} could match {', '.join(found)}")
    if found:
        return found[0], explicit
    if _negative_number(token) or " " in token:
        return None  # a negative number or a phrase
    return token, None


def _negative_number(token: str) -> bool:
    """Whether argparse reads ``token`` as a negative number.

    The same test as ``re.match(r"^-\\d+$|^-\\d*\\.\\d+$", token)``, without a
    pattern to compile: ``$`` also matches before one final line break, and
    ``\\d`` is what ``str.isdecimal`` accepts.
    """
    if not token.startswith("-"):
        return False
    number = token[1:]
    if number.endswith("\n"):
        number = number[:-1]
    head, dot, tail = number.partition(".")
    if not dot:
        return head.isdecimal()
    return tail.isdecimal() and (not head or head.isdecimal())


def _read(command: str | None, tokens: list[str]) -> tuple[dict, list[str]]:
    """The option values of one subcommand, and the tokens it does not know.

    ``command`` None reads the tokens before the subcommand's name. As with
    argparse, tokens are read left to right, so ``-h`` wins over any error
    after it, and a repeated option keeps its last value.
    """
    options, one_of = COMMANDS[command][1:] if command else ((), ())
    by_flag = {option[0]: option for option in options if option[0].startswith("-")}
    flags = _HELP + tuple(by_flag)
    # every token is matched before any is read, so an ambiguous prefix fails even after -h
    matches = [_match(token, flags, command) for token in tokens]
    positionals = [option for option in options if not option[0].startswith("-")]
    values = {name.lstrip("-"): None if default is _REQUIRED else default
              for name, _, default, _ in options}
    given, extras = set(), []
    i = 0
    while i < len(tokens):
        token, match = tokens[i], matches[i]
        i += 1
        if match is None:
            if not positionals:
                extras.append(token)
                continue
            name, kind = positionals.pop(0)[:2]
            value = token
        else:
            name, value = match
            if name not in flags:
                extras.append(token)
                continue
            kind = by_flag[name][1] if name in by_flag else bool
            if kind is bool:
                if value is not None:
                    _fail(command, f"argument {name}: ignored explicit argument {value!r}")
                if name in _HELP:
                    _print_help(command)
                value = True
            elif value is None:
                if i == len(tokens) or matches[i] is not None:
                    _fail(command, f"argument {name}: expected one argument")
                value, i = tokens[i], i + 1
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _fail(command, f"argument {name}: invalid int value: {value!r}")
        elif type(kind) is tuple and value not in kind:
            choices = ", ".join(map(repr, kind))
            _fail(command, f"argument {name}: invalid choice: {value!r} (choose from {choices})")
        if name in one_of:
            for other in given.intersection(one_of) - {name}:
                _fail(command, f"argument {name}: not allowed with argument {other}")
        given.add(name)
        values[name.lstrip("-")] = value
    missing = [name for name, _, default, _ in options
               if default is _REQUIRED and name not in given]
    if missing:
        _fail(command, "the following arguments are required: " + ", ".join(missing))
    if one_of and not given & set(one_of):
        _fail(command, f"one of the arguments {' '.join(one_of)} is required")
    return values, extras


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command and its option values; exits 0 after help, 2 on bad input."""
    head = 0
    while head < len(argv) and _match(argv[head], _HELP, None) is not None:
        head += 1
    _, extras = _read(None, argv[:head])
    if head == len(argv):
        _fail(None, "the following arguments are required: command")
    command = argv[head]
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _fail(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    values, unknown = _read(command, argv[head + 1:])
    if extras or unknown:
        _fail(None, "unrecognized arguments: " + " ".join(extras + unknown))
    return SimpleNamespace(command=command, **values)


_exit_hook_registered = False


def main(argv: list[str] | None = None) -> int:
    global _exit_hook_registered
    if not _exit_hook_registered:  # skip the teardown collection at exit (see "Exit" above)
        atexit.register(gc.freeze)
        _exit_hook_registered = True
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        # looked up per call, so that a cmd_* patched onto the module is the one run
        code = globals()["cmd_" + args.command](args)
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
