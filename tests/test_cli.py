from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bidouble
from bidouble import classifier, cli
from bidouble.classifier import MAX_K2
from bidouble.cli import classification_certificate, main
from bidouble.fixtures import fixture
from bidouble.surface_io import SurfaceFile, surface_to_dict


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


def test_classify_verbose_lists_k_rejections(capsys):
    _, _, err = run(capsys, "classify", "--k2", "7", "--verbose")
    assert "rejected k=(7, 7, 5): character dimension integrality" in err


def test_verify_fixtures(capsys):
    for name in ("dp1", "inoue"):
        code, out, _ = run(capsys, "verify", "--fixture", name)
        assert code == 0
        assert "overall: pass" in out


def test_verify_export_round_trip(tmp_path, capsys):
    path = tmp_path / "dp1.json"
    code, direct, _ = run(capsys, "verify", "--fixture", "dp1",
                          "--export", str(path), "--emit", "json")
    assert code == 0
    assert path.exists()
    code, reloaded, _ = run(capsys, "verify", "--file", str(path), "--emit", "json")
    assert code == 0
    assert reloaded == direct


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


@pytest.mark.parametrize("target", ["missing/dir/x.json", "."], ids=["no-parent", "directory"])
def test_verify_export_unwritable_is_input_error(tmp_path, capsys, target):
    path = tmp_path / target
    code, out, err = run(capsys, "verify", "--fixture", "dp1", "--export", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ")
    assert len(err.splitlines()) == 1


def test_argparse_errors_exit_two():
    for argv in (
        ["classify"],
        ["verify"],
        ["verify", "--fixture", "unknown"],
        ["enumerate", "--fixture", "dp1"],
        ["report", "unknown"],
        ["nosuchcommand"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


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
    class FloatCase:
        def to_json_dict(self):
            return {"K2": 0.5}

    monkeypatch.setattr(cli, "classify", lambda k2: [FloatCase()])
    code, out, err = run(capsys, "classify", "--k2", "6", "--emit", emit)
    assert (code, out) == (3, "")
    assert err == "internal error: TypeError: a certificate value must be JSON data, not float\n"
