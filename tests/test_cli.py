from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import random
import re
import runpy
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import bidouble
from bidouble import classifier, cli, fixtures
from bidouble.classifier import MAX_K2
from bidouble.cli import classification_certificate, main
from bidouble.fixtures import FIXTURE_NAMES, fixture
from bidouble.surface_io import MAX_BASIS_NAMES, MAX_CURVES, SurfaceFile, surface_to_dict

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_k7_passes(capsys):
    code, out, _ = run(capsys, "classify", "--k2", "7")
    assert code == 0
    assert "overall: pass" in out
    assert out.count("| pass |") == 6


def test_classify_other_degree_fails_cleanly(capsys):
    code, out, _ = run(capsys, "classify", "--k2", "6")
    assert code == 1
    assert "overall: fail" in out


def test_classify_nonpositive_degree_is_input_error(capsys):
    for argv in (["--k2", "0"], ["--k2", "-3"], ["--k2", "0", "--verbose"]):
        code, out, err = run(capsys, "classify", *argv)
        assert code == 2
        assert out == ""
        assert err == "error: positive K^2 required\n"


def test_classify_degree_above_cap_is_input_error(capsys):
    code, out, err = run(capsys, "classify", "--k2", str(MAX_K2 + 1), "--verbose")
    assert (code, out) == (2, "")
    assert err == f"error: K^2 = {MAX_K2 + 1} is above the supported maximum {MAX_K2}\n"


def test_classify_verbose_lists_only_even_nodal_counts(capsys):
    # 13 stage-one and 89 stage-two rejections; odd-l candidates are outside the domain
    code, _, err = run(capsys, "classify", "--k2", "7", "--verbose")
    assert code == 0
    lines = err.splitlines()
    assert len(lines) == 102
    assert not any("nodal count parity" in line for line in lines)


def test_classify_verbose_detail_text_is_pinned(capsys):
    # every rejection line of K^2 = 7, with its filter and detail, byte for byte
    code, _, err = run(capsys, "classify", "--k2", "7", "--verbose")
    assert code == 0
    digest = hashlib.sha256(err.encode("utf-8")).hexdigest()
    assert digest == "c2482d1c2d5d67e7428a67e5d6688db9e47a3b0551c92f0f33ff9704bbe5ea2a"


def test_classify_json_byte_stable(capsys):
    code, first, _ = run(capsys, "classify", "--k2", "7", "--emit", "json")
    assert code == 0
    code, second, err = run(capsys, "classify", "--k2", "7", "--verbose", "--emit", "json")
    assert code == 0
    assert first == second
    assert "triple index bound" in err
    assert "m=(7, 7, 3): triple index bound" in err
    assert "m=(9, 9, 3): determinant square test" in err
    json.loads(first)


def test_classification_without_verbose_builds_no_rejections(monkeypatch, capsys):
    # only --verbose reads rejection records, so nothing else may build one
    def refuse(*args, **kwargs):
        raise AssertionError("rejection record built outside --verbose")

    monkeypatch.setattr(classifier, "MRejection", refuse)
    monkeypatch.setattr(classifier, "KRejection", refuse)
    assert classification_certificate(15).rows
    code, out, err = run(capsys, "classify", "--k2", "15")
    assert (code, err) == (1, "")
    assert "table/unvalidated" in out


def test_cli_serves_the_classifier_certificate():
    # the bench calls cli.classification_certificate; the classifier builds it
    assert cli.classification_certificate is classifier.classification_certificate


def test_classify_verbose_lists_k_rejections(capsys):
    _, _, err = run(capsys, "classify", "--k2", "7", "--verbose")
    assert "rejected k=(7, 7, 5): character dimension integrality" in err


class _Sink:
    """A stream that keeps nothing but the number of lines written to it."""

    def __init__(self):
        self.lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        return len(text)

    def flush(self):
        pass


def test_classify_verbose_streams_its_listing(monkeypatch):
    # each rejection line is written as the walk finds it, so the 6,299
    # lines at K^2 = 20 (2.8 MB of records when all were kept) are never held whole
    out, err = _Sink(), _Sink()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    tracemalloc.start()
    try:
        code = main(["classify", "--k2", "20", "--verbose"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert (err.lines, out.lines) == (6299, 8)
    assert peak < 0.5 * 2**20, peak


def test_verify_fixtures(capsys):
    for name in ("dp1", "inoue"):
        code, out, _ = run(capsys, "verify", "--fixture", name)
        assert code == 0
        assert "overall: pass" in out


@pytest.mark.parametrize("emit", ["md", "json"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_verify_export_round_trip(tmp_path, capsys, name, emit):
    # a fixture is its shipped file: the export writes it back byte for byte,
    # and verifying the file prints what verifying the fixture prints
    shipped = os.path.join(fixtures._DIR, name + ".json")
    path = tmp_path / "surface.json"
    code, direct, _ = run(capsys, "verify", "--fixture", name,
                          "--export", str(path), "--emit", emit)
    assert code == 0
    with open(shipped, "rb") as handle:
        assert path.read_bytes() == handle.read()
    code, reloaded, _ = run(capsys, "verify", "--file", shipped, "--emit", emit)
    assert code == 0
    assert reloaded == direct


@pytest.mark.parametrize("emit", ["md", "json"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_verify_roots_free_file_matches_the_fixture(tmp_path, capsys, name, emit):
    # roots left out of the shipped file are derived on load, and they are
    # the shipped roots: the certificate is the fixture's, byte for byte
    with open(os.path.join(fixtures._DIR, name + ".json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    del doc["cover"]["roots"]
    path = tmp_path / "roots-free.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, direct, _ = run(capsys, "verify", "--fixture", name, "--emit", emit)
    assert code == 0
    assert run(capsys, "verify", "--file", str(path), "--emit", emit) == (0, direct, "")


def test_missing_fixture_file_is_input_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(fixtures, "_DIR", str(tmp_path))
    code, out, err = run(capsys, "verify", "--fixture", "dp1")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {tmp_path / 'dp1.json'}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("argv", [
    ("report", "{}"),
    ("verify", "--fixture", "{}"),
    ("enumerate", "--fixture", "{}", "--selfint", "-1"),
], ids=["report", "verify", "enumerate"])
def test_fixture_file_without_a_cover_is_input_error(monkeypatch, tmp_path, capsys, name, argv):
    doc = json.loads((Path(fixtures.__file__).parent / f"{name}.json").read_text())
    del doc["cover"]
    (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    monkeypatch.setattr(fixtures, "_DIR", str(tmp_path))
    code, out, err = run(capsys, *(arg.format(name) for arg in argv))
    assert (code, out) == (2, "")
    assert err == f"error: fixture {name!r}: {tmp_path / (name + '.json')} has no cover block\n"


def _withhold_first_root(doc):
    doc["cover"]["roots"][0] = None


def _make_f2_a_cubic(doc):
    (f2,) = [curve for curve in doc["curves"] if curve["name"] == "F2"]
    f2["class"] = [3, 0, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("name,edit,cause", [
    ("dp1", _withhold_first_root, "cover has an underivable root; verify building data first"),
    ("inoue", _make_f2_a_cubic, "component 'F2' has genus 1; formula needs 0"),
], ids=["dp1-root-withheld", "inoue-F2-cubic"])
def test_report_on_an_edited_fixture_file_is_input_error(monkeypatch, tmp_path, capsys,
                                                         name, edit, cause):
    # an edited copy of the shipped file, read in place of it
    doc = json.loads((Path(fixtures.__file__).parent / f"{name}.json").read_text())
    edit(doc)
    (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    monkeypatch.setattr(fixtures, "_DIR", str(tmp_path))
    code, out, err = run(capsys, "verify", "--fixture", name)
    assert (code, err) == (1, "")
    assert "| fail |" in out
    code, out, err = run(capsys, "report", name)
    assert (code, out) == (2, "")
    assert err == f"error: fixture {name!r} cannot be reported: {cause}\n"


def test_verify_mutated_file_fails(tmp_path, capsys):
    path = tmp_path / "inoue.json"
    run(capsys, "verify", "--fixture", "inoue", "--export", str(path))
    doc = json.loads(path.read_text())
    doc["cover"]["delta"][1] = [n for n in doc["cover"]["delta"][1] if n != "Gamma2"]
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--file", str(mutated))
    assert code == 1
    fail_lines = [line for line in out.splitlines() if "| fail |" in line]
    assert fail_lines
    assert any("building/" in line for line in fail_lines)


def _relabel(doc):
    doc["label"] = "inoue"


def _drop_lambda(doc):
    doc["curves"] = [c for c in doc["curves"] if c["name"] != "Lambda"]


def _rename_basis_e1_prime(doc):
    doc["basis"] = ["E1x" if n == "E1'" else n for n in doc["basis"]]


@pytest.mark.parametrize("name,mutate,missing", [
    ("dp1", _drop_lambda, '["Lambda"]'),
    ("dp1", _relabel, '["E2", "F1", "F1\'", "F2", "F3", "Gamma1", "Gamma2", "Gamma3", '
                      '"Z", "Z1", "Z2", "Z3"]'),
    ("inoue", _rename_basis_e1_prime, '["E1\'"]'),
], ids=["dp1-without-lambda", "dp1-labelled-inoue", "inoue-basis-renamed"])
def test_fixture_label_with_missing_names_fails_a_row(tmp_path, capsys, name, mutate, missing):
    path = tmp_path / "surface.json"
    run(capsys, "verify", "--fixture", name, "--export", str(path))
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--file", str(path))
    assert (code, err) == (1, "")
    fail_lines = [line for line in out.splitlines() if "| fail |" in line]
    assert fail_lines == [
        "| fixture/names | every curve and basis name the expectations use exists "
        f"| fixture expectations | {missing} | [] | fail |"
    ]
    # the rest of the fixture section is skipped
    assert "| table/" not in out and "| case/" not in out


def test_verify_input_errors_exit_two(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "--file", str(tmp_path / "missing.json"))
    assert code == 2
    assert "error:" in err

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    code, _, _ = run(capsys, "verify", "--file", str(garbage))
    assert code == 2

    no_cover = tmp_path / "nocover.json"
    doc = {"label": "x", "basis": ["L", "E1"], "curves": []}
    no_cover.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "verify", "--file", str(no_cover))
    assert code == 2


def _rename_label(doc, bad):
    doc["label"] = "mine" + bad


def _rename_basis(doc, bad):
    doc["basis"][-1] += bad


def _rename_curve(doc, bad):
    # every use of the name, so that only the name itself is wrong
    for entry in doc["curves"]:
        entry["name"] = "C" + bad + "1" if entry["name"] == "C1" else entry["name"]
    doc["cover"]["delta"] = [["C" + bad + "1" if n == "C1" else n for n in part]
                             for part in doc["cover"]["delta"]]


@pytest.mark.parametrize("command", [["verify"], ["enumerate", "--selfint", "-1"]],
                         ids=["verify", "enumerate"])
@pytest.mark.parametrize("bad", ["|", "\n", "\x85", "\u2028", "\u2029"],
                         ids=["bar", "newline", "nel", "line-separator", "paragraph-separator"])
@pytest.mark.parametrize("rename", [_rename_label, _rename_basis, _rename_curve],
                         ids=["label", "basis", "curve"])
def test_name_breaking_the_output_is_input_error(tmp_path, capsys, command, bad, rename):
    # a name is printed in markdown cells and one per line
    doc = surface_to_dict(SurfaceFile("mine", *fixture("dp1")))
    rename(doc, bad)
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command[0], "--file", str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(
        "holds '|', a control character or a line break\n")
    assert len(err.splitlines()) == 1


def oversized_degree_file() -> bytes:
    # a legal JSON integer whose pairings pass the 4300-digit limit once the
    # roots are derived and the invariants computed
    doc = surface_to_dict(SurfaceFile("big", *fixture("dp1")))
    del doc["cover"]["roots"]
    next(c for c in doc["curves"] if c["name"] == "Fb")["class"][0] = int("9" * 3000)
    return json.dumps(doc).encode()


@pytest.mark.parametrize("command", [["verify"], ["enumerate", "--selfint", "-1"]],
                         ids=["verify", "enumerate"])
@pytest.mark.parametrize("content, start", [
    (b'\xff{"label": "x"}', "cannot read {path}: "),
    (b'{"label": ' + b"1" * 5000 + b"}", "invalid JSON in {path}: "),  # over the int digit limit
    (oversized_degree_file(),
     "class of curve 'Fb' has a coefficient above 10**100 in absolute value"),
], ids=["not-utf8", "huge-int", "huge-coefficient"])
def test_unparseable_file_is_input_error(tmp_path, capsys, command, content, start):
    path = tmp_path / "surface.json"
    path.write_bytes(content)
    code, out, err = run(capsys, command[0], "--file", str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: " + start.format(path=path))
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", [["verify"], ["enumerate", "--selfint", "-1"]],
                         ids=["verify", "enumerate"])
@pytest.mark.parametrize("key, cap, what", [("basis", MAX_BASIS_NAMES, "names"),
                                           ("curves", MAX_CURVES, "entries")])
def test_file_over_a_size_cap_is_input_error(tmp_path, capsys, command, key, cap, what):
    # the count is checked before any entry is read, so copies of the last one do
    doc = surface_to_dict(SurfaceFile("dp1", *fixture("dp1")))
    doc[key] += [doc[key][-1]] * (cap + 1 - len(doc[key]))
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, command[0], "--file", str(path), *command[1:]) == (
        2, "", f"error: '{key}' has {cap + 1} {what}; a file may hold at most {cap}\n")


@pytest.mark.parametrize("target", ["missing/dir/x.json", "."], ids=["no-parent", "directory"])
def test_verify_export_unwritable_is_input_error(tmp_path, capsys, target):
    path = tmp_path / target
    code, out, err = run(capsys, "verify", "--fixture", "dp1", "--export", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ")
    assert len(err.splitlines()) == 1


def test_flag_errors_exit_two(capsys):
    for argv in (
        ["classify"],
        ["verify"],
        ["verify", "--fixture", "unknown"],
        ["enumerate", "--fixture", "dp1"],
        ["report", "unknown"],
        ["nosuchcommand"],
        ["verify", "--fixture", "dp1", "--file", "x"],
        ["classify", "--k2", "abc"],
        ["classify", "--k2", "7", "--emit", "xml"],
        ["classify", "--k2", "7", "--nosuch"],
        ["verify", "--f", "dp1"],
        ["enumerate", "--fixture", "dp1", "--selfint"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, ""), argv
        assert "Traceback" not in err
        assert "error:" in err.splitlines()[-1], argv
    # a negative degree is a well-formed flag: the library refuses it
    assert run(capsys, "classify", "--k2", "-1") == (2, "", "error: positive K^2 required\n")


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser the command line used before ``cli.COMMANDS``: the reference."""
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

    p_verify = sub.add_parser(
        "verify", help="verify a fixture or a surface description file"
    )
    target = p_verify.add_mutually_exclusive_group(required=True)
    target.add_argument("--fixture", choices=FIXTURE_NAMES)
    target.add_argument("--file", help="path to a surface description file")
    p_verify.add_argument("--export", metavar="PATH",
                          help="write the verified surface back out as a file")
    p_verify.add_argument("--emit", choices=("json", "md"), default="md")

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

    p_report = sub.add_parser(
        "report", help="render the deformation bookkeeping certificate for a fixture"
    )
    p_report.add_argument("fixture", choices=FIXTURE_NAMES)
    p_report.add_argument("--emit", choices=("json", "md"), default="md")
    return parser


REFERENCE = build_parser()


def outcome(parse, argv):
    """The attributes ``parse`` returns for ``argv``, or the code it exits with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code


def assert_parsers_agree(argvs):
    outcomes = [outcome(REFERENCE.parse_args, argv) for argv in argvs]
    got = [outcome(cli.parse_args, argv) for argv in argvs]
    wrong = [row for row in zip(argvs, outcomes, got) if row[1] != row[2]]
    assert not wrong, wrong[:5]
    return outcomes


def test_parser_agrees_with_argparse_on_documented_commands():
    # every README example and every argument shape the benchmark runs
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```sh\n")[1:]
    argvs = [shlex.split(line)[1:] for block in blocks
             for line in block.split("```")[0].splitlines() if line.startswith("bidouble ")]
    assert len(argvs) >= 12
    cli_argv = runpy.run_path(str(ROOT / "bench" / "checks.py"))["cli_argv"]
    specs = [
        {"what": "classify", "k2": 7, "emit": "json"},
        {"what": "verify", "fixture": "dp1", "emit": "md"},
        {"what": "verify", "fixture": "inoue", "export": "out.json", "emit": "json"},
        {"what": "verify", "file": "dp1.json", "emit": "md"},
        {"what": "enumerate", "fixture": "dp1", "selfint": -1, "emit": "md"},
        {"what": "enumerate", "fixture": "inoue", "selfint": -2, "filtered": True,
         "emit": "json"},
        {"what": "report", "fixture": "inoue", "emit": "md"},
    ]
    argvs += [cli_argv(spec) for spec in specs]
    outcomes = assert_parsers_agree(argvs)
    assert [code for argv, code in zip(argvs, outcomes) if "--help" in argv] == [0, 0]
    assert all(type(code) is dict for argv, code in zip(argvs, outcomes) if "--help" not in argv)


# each option in full, by a unique prefix and by a prefix that is ambiguous
# on some subcommand (--f and --e on verify, --fil on enumerate)
FORMS = {
    "--k2": ("--k2", "--k"),
    "--verbose": ("--verbose", "--verb"),
    "--emit": ("--emit", "--em", "--e"),
    "--fixture": ("--fixture", "--fix", "--f", "--fi"),
    "--file": ("--file", "--fil"),
    "--export": ("--export", "--exp"),
    "--selfint": ("--selfint", "--self"),
    "--filtered": ("--filtered", "--filt"),
}
# valid and invalid values, an option name in value position, and help
VALUES = ("dp1", "inoue", "-1", "7", "abc", "xml", "json", "md", "nosuch", "--emit", "-h")


def random_argv(rng, path):
    names = list(cli.COMMANDS)
    tokens = names + list(VALUES) + [form for forms in FORMS.values() for form in forms]
    command = rng.choice(names) if rng.random() < 0.9 else rng.choice(tokens)
    options = cli.COMMANDS[command][1] if command in cli.COMMANDS else ()
    groups = []
    for name, kind, _, _ in options:
        if rng.random() < 0.3:
            continue
        if not name.startswith("-"):
            groups.append([rng.choice(kind) if rng.random() < 0.8 else rng.choice(VALUES)])
            continue
        form = name if rng.random() < 0.5 else rng.choice(FORMS[name])
        if kind is bool:
            groups.append([form + "=1"] if rng.random() < 0.1 else [form])
            continue
        if rng.random() < 0.2:
            value = rng.choice(VALUES + (path,))
        elif kind is int:
            value = rng.choice(("7", "-1"))
        else:
            value = path if kind is str else rng.choice(kind)
        groups.append([f"{form}={value}"] if rng.random() < 0.3 else [form, value])
    while rng.random() < 0.3:
        groups.append([rng.choice(tokens + [path])])
    rng.shuffle(groups)
    argv = [command] + [token for group in groups for token in group]
    if rng.random() < 0.05:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(tokens))
    return argv


def test_parser_agrees_with_argparse_on_seeded_argvs(tmp_path):
    rng = random.Random(20261018)
    path = str(tmp_path / "surface.json")
    outcomes = assert_parsers_agree([random_argv(rng, path) for _ in range(2000)])
    # each way out is well exercised: accepted, help and refused
    accepted = sum(type(code) is dict for code in outcomes)
    assert accepted > 300
    assert outcomes.count(0) > 10
    assert outcomes.count(2) > 300


# argparse's own test for a negative number, which cli._negative_number replaces
NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def test_negative_number_test_agrees_with_the_pattern():
    # every token of "-" and up to four characters over digits (ASCII, Arabic-Indic,
    # fullwidth), a superscript and a vulgar fraction (digits but not decimals),
    # the dot, the dash, a line break (which "$" matches before) and letters
    alphabet = "-10.\n\u0661\u00b2e x\u2155\uff11"
    tokens = ["-" + "".join(chars)
              for size in range(5) for chars in itertools.product(alphabet, repeat=size)]
    tokens += ["", "1", "1.5", "-1\n\n", "\n-1", "-.5\n", "-5.\n", "-1.2.3", "--1", "- 1"]
    for token in tokens:
        assert cli._negative_number(token) == bool(NEGATIVE_NUMBER.match(token)), repr(token)
    assert cli._negative_number("-1\n") and not cli._negative_number("-1\n\n")
    assert cli._negative_number("-\u0661") and not cli._negative_number("-\u00b2")


def reference_rows(command):
    """(names, help) of each entry the argparse reference lists in its help."""
    sub = REFERENCE._subparsers._group_actions[0]
    if command is None:
        return [((choice.dest,), choice.help) for choice in sub._choices_actions]
    return [(tuple(action.option_strings) or ("{" + ",".join(action.choices) + "}",),
             action.help) for action in sub.choices[command]._actions]


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_help_lists_every_command_and_option(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag] if command is None else [command, flag])
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    lines = out.splitlines()
    for names, text in reference_rows(command):
        assert any(all(name in line for name in names) and line.endswith(text or "")
                   for line in lines), names


def test_help_of_the_module_entry_point():
    # the console script's path: main() reads sys.argv itself
    env = dict(os.environ, PYTHONPATH=str(Path(bidouble.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "bidouble.cli", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: bidouble [-h] {classify,verify,enumerate,report}")
    for name, (text, _, _) in cli.COMMANDS.items():
        assert f"{name}  " in proc.stdout and text in proc.stdout


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--fixture", "dp1", "--selfint", "-1")
    assert code == 0
    assert out.splitlines()[0] == "count: 240"

    code, out, _ = run(capsys, "enumerate", "--fixture", "inoue", "--selfint", "-1")
    assert out.splitlines()[0] == "count: 27"

    # both ends of the accepted self-intersection range
    for selfint, count in (("-6", 2592), ("3", 459)):
        code, out, err = run(capsys, "enumerate", "--fixture", "inoue", "--selfint", selfint)
        assert (code, err, out.splitlines()[0]) == (0, "", f"count: {count}")

    code, out, _ = run(capsys, "enumerate", "--fixture", "inoue", "--selfint", "-1", "--filtered")
    lines = out.splitlines()
    assert lines[0] == "count: 9"
    assert set(lines[1:]) == {
        "E1", "E2", "E3", "E1'", "E2'", "E3'",
        "L - E1 - E1'", "L - E2 - E2'", "L - E3 - E3'",
    }


@pytest.mark.parametrize("selfint", [4, -7])
def test_enumerate_selfint_outside_range_is_input_error(capsys, selfint):
    # refused before any search starts, so dp1 costs nothing here
    code, out, err = run(capsys, "enumerate", "--fixture", "dp1", "--selfint", str(selfint))
    assert (code, out) == (2, "")
    assert err == f"error: self-intersection {selfint} is outside the supported range -6..3\n"


def test_enumerate_filtered_keeps_fixture_nodal_classes(capsys):
    code, out, _ = run(capsys, "enumerate", "--fixture", "inoue",
                       "--selfint", "-2", "--filtered", "--emit", "json")
    assert code == 0
    doc = json.loads(out)
    from bidouble.fixtures import fixture

    config, _ = fixture("inoue")
    for name in ("Z1", "Z2", "Z3", "Z"):
        assert list(config.cls(name).coeffs) in doc["classes"]


def test_enumerate_json_stable(capsys):
    _, first, _ = run(capsys, "enumerate", "--fixture", "inoue", "--selfint", "-1",
                      "--emit", "json")
    _, second, _ = run(capsys, "enumerate", "--fixture", "inoue", "--selfint", "-1",
                       "--emit", "json")
    assert first == second
    doc = json.loads(first)
    assert doc["count"] == 27
    assert doc["filtered"] is False


def test_enumerate_file_target(tmp_path, capsys):
    path = tmp_path / "inoue.json"
    run(capsys, "verify", "--fixture", "inoue", "--export", str(path))
    code, out, _ = run(capsys, "enumerate", "--file", str(path), "--selfint", "-1",
                       "--filtered")
    assert code == 0
    assert out.splitlines()[0] == "count: 9"


def test_report(capsys):
    code, out, _ = run(capsys, "report", "dp1")
    assert code == 0
    assert "overall: pass" in out
    code, out, _ = run(capsys, "report", "inoue")
    assert code == 0

    _, first, _ = run(capsys, "report", "dp1", "--emit", "json")
    _, second, _ = run(capsys, "report", "dp1", "--emit", "json")
    assert first == second
    doc = json.loads(first)
    assert doc["overall"] == "pass"


def test_closed_pipe_exits_141_quietly():
    # ~600 KB of output, far more than a pipe buffer, so writes hit the closed pipe
    env = dict(os.environ, PYTHONPATH=str(Path(bidouble.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bidouble.cli", "enumerate", "--fixture", "dp1", "--selfint", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"count: 17520\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_exit_hook_leaves_the_calling_process_alone(capsys):
    # main only registers gc.freeze for interpreter exit: in process the
    # collector is as the caller left it, and repeated calls add no hook
    before = gc.get_freeze_count(), gc.isenabled(), atexit._ncallbacks()
    for _ in range(2):
        assert run(capsys, "classify", "--k2", "7")[0] == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before[:2]
    assert atexit._ncallbacks() - before[2] <= 1


def test_whole_process_freezes_the_collector_at_exit():
    # exit handlers run last in, first out: one registered before main runs
    # after main's gc.freeze, and sees the frozen heap
    script = ("import atexit, gc, sys\n"
              "atexit.register(lambda: sys.stderr.write(str(gc.get_freeze_count() > 0)))\n"
              "from bidouble.cli import main\n"
              "main(['classify', '--k2', '7'])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(bidouble.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env,
                          timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"True")


WHOLE_PROCESS_COMMANDS = (
    ("classify", "--k2", "7"),
    ("verify", "--fixture", "dp1", "--export", "{export}"),
    ("verify", "--file", "{export}"),
    ("enumerate", "--fixture", "inoue", "--selfint", "-1", "--filtered"),
    ("report", "dp1"),
)


@pytest.mark.parametrize("emit", ["md", "json"])
def test_whole_process_writes_what_main_writes(tmp_path, capsys, emit):
    # skipping the teardown collection loses no output and hides no warning
    export = tmp_path / "dp1.json"
    env = dict(os.environ, PYTHONPATH=str(Path(bidouble.__file__).parents[1]))
    for command in WHOLE_PROCESS_COMMANDS:
        argv = [word.format(export=export) for word in command] + ["--emit", emit]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        exported = export.read_bytes() if "--export" in argv else None
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "bidouble.cli", *argv],
            capture_output=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, b""), argv
        assert proc.stdout == out.encode(), argv
        if exported is not None:
            assert export.read_bytes() == exported, argv


def test_internal_error_exits_three_with_one_line(monkeypatch, capsys):
    def broken(args):
        raise TypeError("unexpected value")

    monkeypatch.setattr(cli, "cmd_classify", broken)
    code, out, err = run(capsys, "classify", "--k2", "7")
    assert (code, out) == (3, "")
    assert err == "internal error: TypeError: unexpected value\n"
    assert "Traceback" not in err


def test_library_value_error_is_internal_error(monkeypatch, capsys):
    # only the input-error types exit 2; any other ValueError is a library bug
    def broken(args):
        raise ValueError("bad arithmetic")

    monkeypatch.setattr(cli, "cmd_report", broken)
    code, out, err = run(capsys, "report", "dp1")
    assert (code, out) == (3, "")
    assert err == "internal error: ValueError: bad arithmetic\n"


def test_enumerate_on_nine_point_lattice_is_input_error(tmp_path, capsys):
    path = tmp_path / "nine.json"
    basis = ["L"] + [f"E{i}" for i in range(1, 10)]
    path.write_text(json.dumps({"label": "nine", "basis": basis, "curves": []}))
    code, out, err = run(capsys, "enumerate", "--file", str(path), "--selfint", "-1")
    assert (code, out) == (2, "")
    assert err == ("error: class enumeration needs K^2 = 9 - n > 0; "
                   "lattice 'nine' has n = 9\n")


@pytest.mark.parametrize("emit", ["json", "md"])
def test_unrenderable_certificate_value_is_internal_error(monkeypatch, capsys, emit):
    # a float reaching a certificate row is a library bug, not a failing row
    # the stage-two walk hands the certificate one survivor with a float det A
    monkeypatch.setattr(classifier, "_survivors",
                        lambda k2, ks: iter([((1, 1, 1), (1, 1, 1), 0.5)]))
    code, out, err = run(capsys, "classify", "--k2", "6", "--emit", emit)
    assert (code, out) == (3, "")
    assert err == "internal error: TypeError: a certificate value must be JSON data, not float\n"
