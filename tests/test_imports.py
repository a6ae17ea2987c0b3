"""Importing mibvp and every subcommand but oracle-compare leave scipy unloaded.

Each check runs in a fresh interpreter, because the test process itself
has scipy loaded.
"""
import json
import os
import pathlib
import subprocess
import sys

import mibvp

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"

SCRIPT = """
import contextlib, io, json, sys

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import mibvp
from mibvp.cli import main

report = {"import": [0, scipy_loaded()]}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(argv)
    report[" ".join(argv)] = [status, scipy_loaded()]
print(json.dumps(report))
"""


def _run(commands):
    src = str(pathlib.Path(mibvp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout)


def test_cli_path_loads_no_scipy():
    commands = []
    for name, k in (("example1.json", []), ("example2.json", ["--k", "-2"])):
        config = str(PROBLEMS / name)
        commands += [
            ["check", config] + k,
            ["scan-k", config],
            ["nagumo", config],
            ["solve", config, "--grid-n", "101"] + k,
            ["greens-dump", config, "--grid-n", "11"] + k,
        ]
    report = _run(commands)
    assert report == {label: [0, []] for label in
                      ["import"] + [" ".join(argv) for argv in commands]}


def test_oracle_compare_loads_scipy_on_use():
    config = str(PROBLEMS / "example1.json")
    argv = ["oracle-compare", config, "--grid-n", "101"]
    status, loaded = _run([argv])[" ".join(argv)]
    assert status == 0
    assert "scipy.sparse.linalg" in loaded
