"""Per-operation correctness gate.

Every operation gets a list of failure reasons; an empty list is a pass.
The gate feeds `fail_ratio`. A reason that means the program returned a
wrong or no answer also makes the run's `correct` false; a negative verdict
on a right answer (for example converged=False while the limit matches the
oracle) only counts as a failed operation.
"""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# Acceptance criterion 9 of the README: monotone limit vs the Newton oracle.
SUP_TOL = 1e-4
ORACLE_N = 201

# Reasons that mean the answer itself is wrong or missing.
WRONG_ANSWER = ("exception", "sup_diff", "exit_code", "unparsable", "output")


def summarize(trace):
    """The parts of an IterationTrace the gate needs, so the trace can be freed."""
    return {
        "iterations": trace.iterations,
        "converged": bool(trace.converged),
        "final_residual": float(trace.final_residual),
        "last_moves": (trace.step_moves_lower[-1], trace.step_moves_upper[-1])
        if trace.iterations else (math.inf, math.inf),
        "boundary": tuple(trace.boundary_residual_lower) + tuple(trace.boundary_residual_upper),
        "flags": {
            "monotone_lower": all(trace.monotone_lower),
            "monotone_upper": all(trace.monotone_upper),
            "ordered": all(trace.ordered),
            "derivative_bound_lower": (None if trace.derivative_bound_lower is None
                                       else all(trace.derivative_bound_lower)),
            "derivative_bound_upper": (None if trace.derivative_bound_upper is None
                                       else all(trace.derivative_bound_upper)),
        },
        "nodes": trace.nodes,
        "lower": trace.iterates_lower[-1][0],
        "upper": trace.iterates_upper[-1][0],
    }


def sup_diff(nodes, values, reference):
    """sup |u - u_ref| on the reference nodes, u interpolated from its grid."""
    return float(np.max(np.abs(np.interp(reference.nodes, nodes, values) - reference.values)))


def check_run(summary, tol, reference):
    """Gate one monotone.run result against its flags and the FD/Newton oracle.

    Returns (reasons, sup_diff). tol is the iteration tolerance the run used.
    """
    reasons = []
    if not summary["converged"]:
        why = []
        if max(summary["last_moves"]) > tol:
            why.append("last move %.3g > tol %.3g" % (max(summary["last_moves"]), tol))
        if not summary["final_residual"] <= 10 * tol:
            why.append("interior residual %.3g > %.3g"
                       % (summary["final_residual"], 10 * tol))
        worst = max(abs(r) for r in summary["boundary"])
        if worst > tol:
            why.append("boundary residual %.3g > %.3g" % (worst, tol))
        reasons.append("converged: false (%s)" % "; ".join(why or ["no criterion named"]))
    for name, ok in summary["flags"].items():
        if ok is False:
            reasons.append("flag: %s false at some step" % name)
    diff = max(sup_diff(summary["nodes"], summary["lower"], reference),
               sup_diff(summary["nodes"], summary["upper"], reference))
    if not diff <= SUP_TOL:
        reasons.append("sup_diff: %.3g > %.0e against fd_nonlinear(n=%d)"
                       % (diff, SUP_TOL, ORACLE_N))
    return reasons, diff


def check_cli(sub, returncode, stdout, expect):
    """Gate one CLI subcommand from its exit code and standard output.

    expect carries what the harness knows in advance: `certified`, the
    interval the k draws come from, and `grid_n` for greens-dump.
    Returns (reasons, sup_diff or None).
    """
    if returncode != 0:
        return ["exit_code: %r" % returncode], None
    if sub == "greens-dump":
        return _check_greens(stdout, expect["grid_n"]), None
    try:
        out = json.loads(stdout)
    except ValueError as exc:
        return ["unparsable: %s" % exc], None
    reasons = []
    diff = None
    if sub == "check":
        if out.get("admissible") is not True:
            reasons.append("output: check reports a certified k as not admissible")
    elif sub == "scan-k":
        lo, hi = expect["certified"]
        if not any(a <= lo and hi <= b for a, b in out.get("intervals", [])):
            reasons.append("output: scan-k no longer certifies [%r, %r]" % (lo, hi))
    elif sub == "nagumo":
        if not isinstance(out.get("success"), bool):
            reasons.append("output: nagumo verdict missing")
    elif sub == "solve":
        if out.get("converged") is not True:
            reasons.append("converged: false (final residual %.3g, grid_n %s)"
                           % (out.get("final_residual", math.nan), out.get("grid_n")))
    elif sub == "oracle-compare":
        diffs = [row["sup_diff"] for row in out.get("rows", [])]
        if not diffs:
            reasons.append("output: oracle-compare printed no rows")
        else:
            diff = max(diffs)
            if not diff <= SUP_TOL:
                reasons.append("sup_diff: %.3g > %.0e" % (diff, SUP_TOL))
    return reasons, diff


def _check_greens(stdout, m):
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != ["x", "s", "value", "dvalue_dx"]:
        return ["unparsable: greens-dump header"]
    if len(rows) - 1 != m * m:
        return ["output: greens-dump wrote %d rows, expected %d" % (len(rows) - 1, m * m)]
    try:
        values = np.array(rows[1:], dtype=float)
    except ValueError as exc:
        return ["unparsable: %s" % exc]
    if not np.all(np.isfinite(values)):
        return ["output: greens-dump wrote non-finite values"]
    return []


def is_wrong_answer(reasons):
    return any(r.split(":", 1)[0] in WRONG_ANSWER for r in reasons)
