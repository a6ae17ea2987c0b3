"""The benchmark's tracer still finds every name it wraps in the package.

perfbench/spans.py rebinds about 25 functions and methods by attribute, so
renaming or deleting one of them breaks the traced benchmark runs. This
installs the tracer, runs a subcommand in-process and restores it.
"""
import importlib.util
import json
import pathlib

import numpy as np

from mibvp import cli, linear_bvp
from mibvp.expressions import parse_expression
from mibvp.kernel import ShiftedOperator
from mibvp.problems import example1

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_main(spans, argv):
    """Run cli.main(argv) under a fresh tracer; return the tracer, restored."""
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert cli.main(argv) == 0
    finally:
        tracer.restore()
    return tracer


def test_tracer_hooks_resolve(capsys):
    spans = _load_spans()
    original = cli.cmd_check
    tracer = _traced_main(spans, ["check", str(ROOT / "problems" / "example1.json")])
    assert cli.cmd_check is original
    names = {span[0] for span in tracer.spans}
    assert {"cli.cmd.check", spans.PROBLEMS_BUILD, spans.CHECK} <= names
    metrics = spans.layer_metrics(tracer.spans, tracer.counts)
    assert metrics["admissibility.check_calls"] == 1
    assert '"admissible": true' in capsys.readouterr().out


def test_tracer_hooks_on_solve(capsys):
    spans = _load_spans()
    original = cli.run_iteration
    tracer = _traced_main(spans, ["solve", str(ROOT / "problems" / "example1.json"),
                                  "--grid-n", "21"])
    assert cli.run_iteration is original
    names = {span[0] for span in tracer.spans}
    assert {"cli.cmd.solve", spans.RUN, spans.RESIDUAL, spans.SOLVE} <= names
    metrics = spans.layer_metrics(tracer.spans, tracer.counts)
    iterations = json.loads(capsys.readouterr().out)["iterations"]
    assert iterations > 0
    assert metrics["monotone.iterations"] == iterations


def test_tracer_counts_one_blocked_build():
    # the build calls the kernel once per block of rows, but it samples the
    # same 2 n (2n - 1) points as one call on the whole grid did
    spans = _load_spans()
    config = example1().boundary_config
    nodes = linear_bvp.build_grid(2 * linear_bvp.BLOCK_ROWS + 3, config.xi, config.eta)
    n = nodes.size
    tracer = spans.Tracer()
    try:
        tracer.install()
        linear_bvp.get_solver(config, ShiftedOperator(0.49), nodes)
    finally:
        tracer.restore()
    metrics = spans.layer_metrics(tracer.spans, tracer.counts)
    assert metrics["kernel.points"] == 2 * n * (2 * n - 1)
    assert metrics["linear_bvp.builds"] == 1


def test_tracer_counts_one_eval_per_derivative():
    # a derivative seeds a jet and evaluates the tree once, second order too
    spans = _load_spans()
    psi = parse_expression("(exp(u) - x*exp(up))/195")
    xs = np.linspace(0.0, 1.0, 11)
    tracer = spans.Tracer()
    try:
        tracer.install()
        psi.derivative("up", x=xs, u=0.5, up=xs)
        psi.derivative("x", 2, x=xs, u=0.5, up=xs)
    finally:
        tracer.restore()
    metrics = spans.layer_metrics(tracer.spans, tracer.counts)
    assert metrics["expressions.evals"] == 2
