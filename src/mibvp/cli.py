"""Command-line front end.

Subcommands: check, scan-k, solve, greens-dump, oracle-compare, nagumo.
Data outputs are byte-deterministic (sorted JSON keys, repr floats, no
timestamps); run metadata goes to a separate run_meta.json sidecar.
Exit status: 0 success, 1 validation failure, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

from ._version import __version__
from .admissibility import check_k, margin_table, scan_k
from .errors import NumericalError, ValidationError
from .kernel import BLOCK_ROWS, Regime, ShiftedOperator, kernel_functions
from .linear_bvp import GridFunction, build_grid, get_solver
from .monotone import require_shift_sign
from .monotone import run as run_iteration
from .oracle import fd_linear, fd_nonlinear
from .problems import ProblemConfig, build_problem

MAX_DUMP_N = 1000  # greens-dump writes m^2 rows: 76 MB of CSV, streamed row by row


class _Parser(argparse.ArgumentParser):
    """argparse maps its own errors to exit 2; route them to status 1 instead."""

    def error(self, message):
        raise ValidationError(message)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    def cell(v):
        if isinstance(v, float):
            return repr(v)
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write(out_dir, name, text):
    """Write text, a string or an iterable of string chunks, to out_dir/name."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines([text] if isinstance(text, str) else text)
    return path


def _write_meta(out_dir, args, started):
    meta = {
        "command": args.command,
        "config": args.config,
        "package": "mibvp",
        "version": __version__,
        "python": platform.python_version(),
        "elapsed_seconds": round(time.time() - started, 3),
    }
    _write(out_dir, "run_meta.json", _json_text(meta))


def _pick_k(config: ProblemConfig, override):
    return config.scalar_k() if override is None else override


def _lip_summary(lip):
    return {
        "L1": lip.l1,
        "L2": lip.l2_text,
        "l2_sup": lip.l2_sup,
        "l2prime_sup": lip.l2prime_sup,
        "notes": list(lip.notes),
    }


def cmd_check(args):
    config = ProblemConfig.load(args.config)
    problem = build_problem(config)
    k = _pick_k(config, args.k)
    report = check_k(config.boundary_config, k, problem.lip)
    payload = report.to_dict()
    payload["lipschitz"] = _lip_summary(problem.lip)
    text = _json_text(payload)
    sys.stdout.write(text)
    if args.out:
        _write(args.out, "check.json", text)
    return 0


def cmd_scan_k(args):
    config = ProblemConfig.load(args.config)
    problem = build_problem(config)
    lo, hi, steps = config.scan_range()
    regime = Regime.POSITIVE_K if lo > 0 else Regime.NEGATIVE_K
    intervals = scan_k(config.boundary_config, problem.lip, regime, lo, hi, steps)
    payload = {
        "regime": regime.value,
        "k_lo": lo,
        "k_hi": hi,
        "steps": steps,
        "intervals": [[a, b] for a, b in intervals],
    }
    sys.stdout.write(_json_text(payload))
    if args.out:
        ks = np.linspace(lo, hi, steps)
        table, _ = margin_table(config.boundary_config, problem.lip, ks)
        rows = [(k, cid, float(margin[i]), "true" if ok[i] else "false")
                for i, k in enumerate(ks.tolist()) for cid, (ok, margin) in table.items()]
        _write(args.out, "scan_margins.csv",
               _csv_text(("k", "condition", "margin", "pass"), rows))
        _write(args.out, "scan_intervals.json", _json_text(payload))
    return 0


def _trace_csv(trace):
    rows = []
    for i in range(trace.iterations):
        rows.append((i + 1,
                     float(trace.step_moves_lower[i]),
                     float(trace.step_moves_upper[i]),
                     float(trace.gaps[i + 1]),
                     "true" if trace.monotone_lower[i] else "false",
                     "true" if trace.monotone_upper[i] else "false",
                     "true" if trace.ordered[i + 1] else "false"))
    header = ("step", "move_lower", "move_upper", "gap",
              "monotone_lower", "monotone_upper", "ordered")
    return _csv_text(header, rows)


def _iterates_csv(nodes, levels):
    """iterates.csv as chunks from run's (2, n) levels: the header, then one row at a time."""
    yield "x,value,series\n"
    xs = [repr(x) + "," for x in nodes.tolist()]
    for row, label in enumerate("cd"):
        for idx, u in enumerate(levels):
            end = ",%s%d\n" % (label, idx)
            yield "".join(x + repr(v) + end for x, v in zip(xs, u[row].tolist()))


def cmd_solve(args):
    config = ProblemConfig.load(args.config)
    problem = build_problem(config)
    k = _pick_k(config, args.k)
    # main names the grid if it runs out of memory
    grid_n = args.grid_n = args.grid_n if args.grid_n is not None else config.grid_n
    tol = args.tol if args.tol is not None else config.tol
    max_iter = args.max_iter if args.max_iter is not None else config.max_iter
    levels = []
    trace = run_iteration(problem, k, max_iter=max_iter, tol=tol, grid_n=grid_n,
                          on_level=levels.append if args.out else None)
    if args.format == "csv":
        sys.stdout.write(_trace_csv(trace))
    else:
        sys.stdout.write(_json_text(trace.to_dict()))
    if args.out:
        _write(args.out, "trace.json", _json_text(trace.to_dict()))
        _write(args.out, "trace.csv", _trace_csv(trace))
        _write(args.out, "iterates.csv", _iterates_csv(trace.nodes, levels))
    return 0


def cmd_greens_dump(args):
    config = ProblemConfig.load(args.config)
    k = _pick_k(config, args.k)
    op = ShiftedOperator(k)
    m = args.grid_n if args.grid_n is not None else 101
    if not 2 <= m <= MAX_DUMP_N:
        raise ValidationError("greens-dump needs a grid of 2 to %d points, got %r"
                              % (MAX_DUMP_N, m))
    fns = kernel_functions(config.boundary_config, op)
    pts = np.linspace(0.0, 1.0, m)
    xs = [repr(x) + "," for x in pts.tolist()]

    def chunks():  # the header, then one s row of text at a time
        yield "x,s,value,dvalue_dx\n"
        for r in range(0, m, BLOCK_ROWS):  # rows run s outer, x inner
            s = pts[r:r + BLOCK_ROWS, None]
            for mid, g_row, dg_row in zip(xs[r:r + BLOCK_ROWS], fns.value(pts, s),
                                          fns.dvalue_dx(pts, s)):
                yield "".join(x + mid + repr(g) + "," + repr(dg) + "\n"
                              for x, g, dg in zip(xs, g_row.tolist(), dg_row.tolist()))

    if args.out:
        _write(args.out, "greens.csv", chunks())
        sys.stdout.write("wrote %d rows to %s\n"
                         % (m * m, os.path.join(args.out, "greens.csv")))
    else:
        sys.stdout.writelines(chunks())
    return 0


def cmd_oracle_compare(args):
    config = ProblemConfig.load(args.config)
    problem = build_problem(config)
    k = _pick_k(config, args.k)
    require_shift_sign(problem.ordering, k)  # before the linear comparison builds anything
    grid_n = args.grid_n = args.grid_n if args.grid_n is not None else config.grid_n
    boundary = config.boundary_config
    nodes = build_grid(grid_n, boundary.xi, boundary.eta)

    u_quad, _ = get_solver(boundary, ShiftedOperator(k), nodes).solve(1.0 + nodes)
    u_fd = fd_linear(boundary, k, GridFunction(nodes, 1.0 + nodes), 0.0)
    diff_linear = float(np.max(np.abs(u_quad - u_fd.values)))

    trace = run_iteration(problem, k, max_iter=config.max_iter,
                          tol=config.tol, grid_n=grid_n)
    limit_u, _ = trace.limit_lower()
    reference = fd_nonlinear(problem)
    interp = np.interp(reference.nodes, limit_u.nodes, limit_u.values)
    diff_nonlinear = float(np.max(np.abs(interp - reference.values)))

    rows = [
        ("linear-vs-fd", grid_n, diff_linear),
        ("monotone-vs-fd-newton", reference.nodes.size, diff_nonlinear),
    ]
    if args.format == "csv":
        text = _csv_text(("case", "grid_n", "sup_diff"), rows)
    else:
        text = _json_text({"k": k, "rows": [
            {"case": c, "grid_n": n, "sup_diff": d} for c, n, d in rows]})
    sys.stdout.write(text)
    if args.out:
        _write(args.out, "oracle_compare.csv",
               _csv_text(("case", "grid_n", "sup_diff"), rows))
    return 0


def cmd_nagumo(args):
    config = ProblemConfig.load(args.config)
    if config.nagumo is None:
        raise ValidationError("config has no nagumo section")
    problem = build_problem(config, with_lipschitz=False)
    nag = problem.nagumo
    payload = {
        "phi": nag.phi_text,
        "gamma": nag.gamma,
        "diameter": nag.diameter,
        "success": bool(nag.success),
        "P": nag.P,
        "tail": nag.tail,
    }
    text = _json_text(payload)
    sys.stdout.write(text)
    if args.out:
        _write(args.out, "nagumo.json", text)
    return 0


def _build_parser():
    parser = _Parser(prog="mibvp",
                     description="Monotone iteration solver for four-point "
                                 "nonlinear boundary value problems")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, k=False, grid=False, solve_opts=False, fmt=False):
        p.add_argument("config", help="path to a problem config JSON file")
        if k:
            p.add_argument("--k", type=float, default=None,
                           help="shift value (overrides the config)")
        if grid:
            p.add_argument("--grid-n", type=int, default=None, dest="grid_n")
        if solve_opts:
            p.add_argument("--tol", type=float, default=None)
            p.add_argument("--max-iter", type=int, default=None, dest="max_iter")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="directory for output artifacts")

    p = sub.add_parser("check", help="admissibility report for one k")
    common(p, k=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("scan-k", help="admissible k intervals over a range")
    common(p)
    p.set_defaults(func=cmd_scan_k)

    p = sub.add_parser("solve", help="run the monotone iteration")
    common(p, k=True, grid=True, solve_opts=True, fmt=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("greens-dump", help="tabulate the kernel on a grid")
    common(p, k=True, grid=True)
    p.set_defaults(func=cmd_greens_dump)

    p = sub.add_parser("oracle-compare", help="finite-difference cross checks")
    common(p, k=True, grid=True, fmt=True)
    p.set_defaults(func=cmd_oracle_compare)

    p = sub.add_parser("nagumo", help="derivative bound from the growth majorant")
    common(p)
    p.set_defaults(func=cmd_nagumo)
    return parser


def main(argv=None) -> int:
    started = time.time()
    args = None
    try:
        args = _build_parser().parse_args(argv)
        status = args.func(args)
        if args.out:
            _write_meta(args.out, args, started)
        return status
    except ValidationError as exc:
        print("validation error: %s" % exc, file=sys.stderr)
        return 1
    except NumericalError as exc:
        print("numerical error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        print("numerical error: not enough memory for grid_n=%s"
              % getattr(args, "grid_n", None), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
