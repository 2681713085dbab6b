"""The package loads its public names lazily, so the closed-form entry points
(``figure1``, ``analyze``, ``check-design``, ``--help``) run without
numpy."""

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
import contextlib, io, json, os, runpy, sys, tempfile

KINDS = ("I", "II", "III", "IV", "V", "VI")

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

# analyze and check-design print closed forms and integer certificates
config = os.path.join(tempfile.mkdtemp(), "job.json")
with open(config, "w") as fh:
    json.dump({"strategy": "VI", "schmidt": [4, 3, 2, 1]}, fh)
jobs = [
    ["analyze", "--theta", "0.5", "--strategy", "I"],
    ["analyze", "--json", "--theta", "0.5", "--strategy", "IV"],
    *(["analyze", "--json", "--schmidt", "3,2,1", "--strategy", kind] for kind in KINDS),
    *(["analyze", "--schmidt", "3,2,1", "--strategy", kind] for kind in KINDS),
    ["analyze", "--d", "12", "--schmidt", ",".join(map(str, range(12, 0, -1))),
     "--strategy", "II"],
    ["analyze", "--config", config],
    ["check-design", "--d", "16"],
]
for argv in jobs:
    sys.argv = ["biverify", *argv]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("biverify.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
    seen.setdefault("numpy-free jobs", []).append([argv, "numpy" in sys.modules, code])

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
    jobs = seen["numpy-free jobs"]
    assert len(jobs) == 17
    for argv, numpy_loaded, code in jobs:
        assert (numpy_loaded, code) == (False, 0), argv
    assert seen["dir"] is True
    assert seen["unknown"] == "module 'biverify' has no attribute 'no_such_name'"
    assert len(seen["all"]) == 57
    assert seen["bound"] == sorted(seen["all"])
    assert seen["not defining object"] == []
