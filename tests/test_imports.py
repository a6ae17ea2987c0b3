"""mibvp runs on numpy alone: no command loads scipy, and no source imports it.

The commands run in a fresh interpreter, so that nothing the test process
has imported counts.
"""
import ast
import json
import os
import pathlib
import subprocess
import sys

import mibvp

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"

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


def test_no_command_loads_scipy():
    commands = []
    for name, k in (("example1.json", []), ("example2.json", ["--k", "-2"])):
        config = str(PROBLEMS / name)
        commands += [
            ["check", config] + k,
            ["scan-k", config],
            ["nagumo", config],
            ["solve", config, "--grid-n", "101"] + k,
            ["greens-dump", config, "--grid-n", "11"] + k,
            ["oracle-compare", config, "--grid-n", "101"] + k,
        ]
    report = _run(commands)
    assert report == {label: [0, []] for label in
                      ["import"] + [" ".join(argv) for argv in commands]}


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_source_imports_scipy():
    files = sorted((ROOT / "src" / "mibvp").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(files) > 10
    offenders = [(path.name, module) for path in files for module in _imported_modules(path)
                 if module.split(".")[0] == "scipy"]
    assert offenders == []
