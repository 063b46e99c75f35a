from __future__ import annotations

import os
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
    # each costs every process milliseconds of import (see bidouble/_record.py);
    # -S keeps site and .pth files from loading them first
    script = (
        "import sys, bidouble.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'pathlib', 'typing'} & set(sys.modules)))\n"
    )
    src = str(Path(bidouble.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True)
    assert proc.stdout == "[]\n"
