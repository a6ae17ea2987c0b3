"""Work and memory per layer, as exponents of the grid size.

Each row of DECLARED names a quantity and the power of n it may grow by.
It is measured at two sizes, and the exponent log(b/a) / log(n_b/n_a) must
not exceed the declared one by more than SLACK. The quantities are byte
counts (ndarray sizes and tracemalloc peaks), which repeat exactly for a
given tree, so host load cannot move them. Lowering an exponent is a
tightening; none may be raised to let a change pass.
"""
import math
import tracemalloc

import numpy as np
import pytest

from mibvp import cli, linear_bvp
from mibvp.kernel import ShiftedOperator
from mibvp.monotone import _interior_residual, iterate_once

DECLARED = {
    "solver bytes held": 2,  # the value and derivative matrices, 16 n^2 bytes
    "build transient": 1,  # build peak minus bytes held: BLOCK_ROWS x n blocks
    "iterate_once on (2, n)": 1,
    "_interior_residual": 1,
    "greens-dump kernel arrays": 1,  # per m: BLOCK_ROWS x m blocks
}
SLACK = 0.15
SIZES = (251, 1001)
# greens-dump writes m^2 rows, which tracemalloc slows down; both sizes
# are at least BLOCK_ROWS, so each samples the kernel in full blocks
DUMP_SIZES = (64, 256)
K = -2.0


def _peak(fn, *args):
    """fn(*args) and the peak bytes tracemalloc saw allocated during the call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def _check(row, sizes, values):
    exponent = math.log(values[1] / values[0]) / math.log(sizes[1] / sizes[0])
    assert exponent <= DECLARED[row] + SLACK, (row, values)


def _held_bytes(solver):
    return sum(v.nbytes for v in vars(solver).values() if isinstance(v, np.ndarray))


def _build(problem, n):
    """A solver for example2 at k = K on n nodes and its build transient bytes."""
    config = problem.config
    nodes = linear_bvp.build_grid(n, config.xi, config.eta)
    solver, peak = _peak(linear_bvp.get_solver, config, ShiftedOperator(K), nodes)
    return solver, peak - _held_bytes(solver)


@pytest.fixture(scope="module")
def builds(ex2_problem):
    return {n: _build(ex2_problem, n) for n in SIZES}


def _bracket(problem, nodes):
    """The initial lower and upper iterates as a (2, n) stack of u and of u'."""
    (c, dc), (d, dd) = problem.initial_lower(nodes), problem.initial_upper(nodes)
    return np.array([c, d]), np.array([dc, dd])


def test_solver_bytes_held(builds):
    _check("solver bytes held", SIZES, [_held_bytes(builds[n][0]) for n in SIZES])


def test_build_transient(builds):
    _check("build transient", SIZES, [builds[n][1] for n in SIZES])


def test_whole_grid_build_fails_the_transient_row(ex2_problem, monkeypatch):
    # one block as large as the grid forms the full n x n kernel samples again
    monkeypatch.setattr(linear_bvp, "BLOCK_ROWS", linear_bvp.MAX_GRID_N)
    transient = [_build(ex2_problem, n)[1] for n in SIZES]
    with pytest.raises(AssertionError):
        _check("build transient", SIZES, transient)


def test_iterate_once_step(ex2_problem, builds):
    peaks = []
    for n in SIZES:
        solver = builds[n][0]
        peaks.append(_peak(iterate_once, ex2_problem, solver,
                           *_bracket(ex2_problem, solver.nodes))[1])
    _check("iterate_once on (2, n)", SIZES, peaks)


def test_interior_residual(ex2_problem, builds):
    peaks = []
    for n in SIZES:
        nodes = builds[n][0].nodes
        u, du = _bracket(ex2_problem, nodes)
        peaks.append(_peak(_interior_residual, ex2_problem, nodes, u[0], du[0])[1])
    _check("_interior_residual", SIZES, peaks)


def test_greens_dump(problems_dir, tmp_path):
    peaks = []
    for m in DUMP_SIZES:
        argv = ["greens-dump", str(problems_dir / "example2.json"), "--k", str(K),
                "--grid-n", str(m), "--out", str(tmp_path / str(m))]
        status, peak = _peak(cli.main, argv)
        assert status == 0
        peaks.append(peak)
    _check("greens-dump kernel arrays", DUMP_SIZES, peaks)
