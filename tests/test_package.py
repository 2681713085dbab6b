"""The package loads its public names lazily, so the closed-form entry points
run without numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import biverify
from biverify.cli import CSV_HEADER

# Runs in a fresh interpreter and prints one JSON object of observations.
# The command-line cases run biverify.cli as ``python -m`` does.
PROBE = """
import contextlib, io, json, runpy, sys

seen = {}
import biverify
seen["import biverify"] = "numpy" in sys.modules
for argv in (["figure1", "--grid-size", "2"], ["--help"], ["figure1", "--d", "3"]):
    sys.argv = ["biverify", *argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            runpy.run_module("biverify.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
    seen[" ".join(argv)] = ["numpy" in sys.modules, code, out.getvalue().partition("\\n")[0]]

seen["dir"] = "__all__" in dir(biverify)
try:
    biverify.no_such_name
    seen["unknown"] = "no error"
except AttributeError as exc:
    seen["unknown"] = str(exc)

namespace = {}
exec("from biverify import *", namespace)
seen["bound"] = sorted(set(namespace) - {"__builtins__"})
seen["all"] = biverify.__all__
seen["not defining object"] = [
    name for name in biverify.__all__
    if getattr(sys.modules[namespace[name].__module__], name) is not namespace[name]
]
print(json.dumps(seen))
"""


def test_lazy_loading_keeps_numpy_out_and_binds_every_name():
    src = Path(biverify.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["import biverify"] is False
    assert seen["figure1 --grid-size 2"] == [False, 0, CSV_HEADER]
    numpy_loaded, code, first_line = seen["--help"]
    assert not numpy_loaded and code == 0 and first_line.startswith("usage: biverify")
    assert seen["figure1 --d 3"] == [False, 2, ""]  # a usage error
    assert seen["dir"] is True
    assert seen["unknown"] == "module 'biverify' has no attribute 'no_such_name'"
    assert len(seen["all"]) == 57
    assert seen["bound"] == sorted(seen["all"])
    assert seen["not defining object"] == []
