"""Print a sha256 manifest of the mibvp CLI's outputs on the bundled configs.

Usage: python3 tools/cli_manifest.py TREE

TREE is the root of a mibvp checkout. Each command below runs as
`python3 -m mibvp ...` with PYTHONPATH=TREE/src and the config from
TREE/problems, in one temporary working directory, each `--out` a fixed
relative directory inside it. One line is printed per artifact: the
command, the artifact (stdout, stderr, exit, or an --out file other than
run_meta.json, whose timings vary) and its sha256. TREE's absolute path is
replaced by <tree> in stderr before hashing. Two trees give the same CLI
output exactly when their manifests are equal:

    python3 tools/cli_manifest.py old > old.txt
    python3 tools/cli_manifest.py new > new.txt
    diff old.txt new.txt

It starts one process per command. Dense linear algebra may round
differently between machines, so compare manifests made on one machine.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

# (config, extra arguments of every command that takes --k)
CONFIGS = (("example1", []), ("example2", ["--k", "-2"]))


def commands():
    """The argument lists to run, config paths relative to the tree root."""
    cmds = []
    for name, k in CONFIGS:
        config = "problems/%s.json" % name
        cmds += [
            ["check", config, *k],
            ["scan-k", config, "--out", "out/scan-k-" + name],
            ["nagumo", config],
            ["solve", config, *k, "--out", "out/solve-" + name],
            ["oracle-compare", config, *k],
            ["greens-dump", config, *k, "--grid-n", "51", "--out", "out/greens-" + name],
        ]
    cmds += [
        ["solve", "problems/example2.json", "--k", "-8.5", "--grid-n", "2001",
         "--out", "out/solve-example2-fine"],
        ["solve", "problems/example1.json", "--format", "csv"],
    ]
    return cmds


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest(tree):
    """Yield (command, artifact, sha256) for every command and artifact."""
    tree = os.path.abspath(tree)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    with tempfile.TemporaryDirectory() as work:
        for args in commands():
            argv = [os.path.join(tree, a) if a.startswith("problems/") else a
                    for a in args]
            proc = subprocess.run([sys.executable, "-m", "mibvp", *argv], cwd=work,
                                  env=env, capture_output=True)
            label = " ".join(args)
            yield label, "stdout", _sha(proc.stdout)
            yield label, "stderr", _sha(proc.stderr.replace(tree.encode(), b"<tree>"))
            yield label, "exit", _sha(str(proc.returncode).encode())
            if "--out" in args:
                out = os.path.join(work, args[args.index("--out") + 1])
                for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
                    if name != "run_meta.json":
                        with open(os.path.join(out, name), "rb") as fh:
                            yield label, name, _sha(fh.read())


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    for row in manifest(argv[0]):
        print("\t".join(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
