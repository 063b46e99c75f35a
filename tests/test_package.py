from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import bidouble


def test_star_import_exports_each_name_once():
    # a stale __all__ entry only fails on a star import
    namespace: dict = {}
    exec("from bidouble import *", namespace)
    assert len(bidouble.__all__) == len(set(bidouble.__all__))
    assert set(bidouble.__all__) <= set(namespace)


def test_version_matches_pyproject():
    # kept by hand in both places; a regex, since tomllib is 3.11+
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^version = "([^"]*)"$', text, re.MULTILINE) == [bidouble.__version__]


def test_import_loads_no_submodule_and_refuses_unknown_names():
    # a fresh interpreter: this one has loaded every module already
    script = (
        "import sys, bidouble\n"
        "print(sorted(m for m in sys.modules if m.startswith('bidouble.')))\n"
        "try:\n"
        "    bidouble.nosuch\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(bidouble.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True)
    assert proc.stdout == "[]\nmodule 'bidouble' has no attribute 'nosuch'\n"


def test_cli_import_loads_no_heavy_stdlib_module():
    # each costs every process milliseconds of import (see bidouble/_record.py,
    # and cli.COMMANDS for argparse, which pulls in gettext and locale); -S keeps
    # site and .pth files from loading them first, and the classify run catches
    # an import moved into main
    script = (
        "import os, sys, bidouble.cli\n"
        "with open(os.devnull, 'w') as sink:\n"
        "    sys.stdout = sink\n"
        "    code = bidouble.cli.main(['classify', '--k2', '7'])\n"
        "sys.stdout = sys.__stdout__\n"
        "heavy = {'argparse', 'dataclasses', 'gettext', 'inspect', 'locale', 'pathlib',\n"
        "         'typing'}\n"
        "print(code, sorted(heavy & set(sys.modules)))\n"
    )
    src = str(Path(bidouble.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True)
    assert proc.stdout == "0 []\n"


def test_cli_import_compiles_no_source():
    # generated source would show as a compile and an exec of "<string>", one pair per
    # record class with the old codegen (see bidouble/_record.py); json and re are
    # imported first, since their own namedtuple and pattern compiles are not ours
    script = (
        "import json, re, sys\n"
        "seen = []\n"
        "def hook(event, args):\n"
        "    if event == 'compile':\n"
        "        seen.append((event, args[1]))\n"
        "    elif event == 'exec':\n"
        "        seen.append((event, getattr(args[0], 'co_filename', None)))\n"
        "sys.addaudithook(hook)\n"
        "import bidouble.cli\n"
        "print(len(seen), [entry for entry in seen if entry[1] == '<string>'])\n"
    )
    src = str(Path(bidouble.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True)
    count, found = proc.stdout.split(" ", 1)
    assert int(count) > 0  # the hook saw the package's own modules run
    assert found == "[]\n"
