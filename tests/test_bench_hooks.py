"""The benchmark's tracer still finds every name it wraps in the package.

perfbench/spans.py rebinds about 25 functions and methods by attribute, so
renaming or deleting one of them breaks the traced benchmark runs. This
installs the tracer, runs one subcommand in-process and restores it.
"""
import importlib.util
import pathlib

from mibvp import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve(capsys):
    spans = _load_spans()
    tracer = spans.Tracer()
    original = cli.cmd_check
    try:
        tracer.install()
        assert cli.main(["check", str(ROOT / "problems" / "example1.json")]) == 0
    finally:
        tracer.restore()
    assert cli.cmd_check is original
    names = {span[0] for span in tracer.spans}
    assert {"cli.cmd.check", spans.PROBLEMS_BUILD, spans.CHECK} <= names
    metrics = spans.layer_metrics(tracer.spans, tracer.counts)
    assert metrics["admissibility.check_calls"] == 1
    assert '"admissible": true' in capsys.readouterr().out
