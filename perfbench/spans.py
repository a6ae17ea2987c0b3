"""Spans recorded around the public entry points of each mibvp layer.

The tracer wraps functions from outside the package: it rebinds every
module-level name that refers to a wrapped function (the package imports
with `from .x import y`, so one function has several bindings) and patches
methods on their classes. Nothing under src/ changes. `restore` puts every
original back.

A span is (name, start, end, parent index, operation id). Spans are kept in
a list in memory and written out once, at the end of the run.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

import numpy as np

KERNEL_CLOSURES = ("value", "dvalue_dx", "boundary_term", "boundary_term_dx")
CLI_SUBCOMMANDS = ("check", "scan-k", "solve", "greens-dump", "oracle-compare", "nagumo")

# Span names. A layer's time is the total of its spans, counting a span
# nested in another span of the same name once.
PROBLEMS_BUILD = "problems.build"
SCAN = "admissibility.scan"
CHECK = "admissibility.check"
NAGUMO = "admissibility.nagumo"
LIPSCHITZ = "admissibility.lipschitz"
KERNEL_EVAL = "kernel.eval"
GREEN_EVAL = "kernel.green_eval"
BUILD = "linear_bvp.build"
SOLVE = "linear_bvp.solve"
GET_SOLVER = "linear_bvp.get_solver"
EXPR_EVAL = "expressions.eval"
RUN = "monotone.run"
RESIDUAL = "monotone.residual"
FD_NONLINEAR = "oracle.fd_nonlinear"
FD_LINEAR = "oracle.fd_linear"
FACTORIZE = "oracle.factorize"
OP = "op"


class Tracer:
    """Records spans while installed; `root` opens the span of one operation."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._op = None
        self._patches = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self._op)
            if after is not None:
                after(args, result)
            return result

        return traced

    def root(self, op_id, fn, *args, **kwargs):
        """Call fn inside an "op" root span whose descendants carry op_id."""
        self._op = op_id
        try:
            return self._wrap(OP, fn)(*args, **kwargs)
        finally:
            self._op = None

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, fn, wrapper):
        """Replace every binding of fn in the mibvp modules with wrapper."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mibvp" or mod_name.startswith("mibvp.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def _method(self, cls, attr, name, after=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self._wrap(name, raw.__func__, after)))
        else:
            self._set(cls, attr, self._wrap(name, raw, after))

    def _trace(self, fn, name, after=None):
        self._rebind(fn, self._wrap(name, fn, after))

    def install(self):
        from mibvp import admissibility, cli, kernel, linear_bvp, monotone, oracle, problems
        from mibvp.expressions import Expression

        counts = self.counts

        self._trace(problems.build_problem, PROBLEMS_BUILD)
        self._trace(admissibility.scan_k, SCAN)
        self._trace(admissibility.check_positive_k, CHECK)
        self._trace(admissibility.check_negative_k, CHECK)
        self._trace(admissibility.nagumo_bound, NAGUMO)
        self._trace(admissibility.estimate_lipschitz, LIPSCHITZ)
        self._method(admissibility.LipschitzData, "from_expression", LIPSCHITZ)
        self._method(admissibility.LipschitzData, "from_callable", LIPSCHITZ)

        def count_points(args, _result):
            counts["kernel.points"] += int(np.broadcast(np.asarray(args[0]),
                                                        np.asarray(args[1])).size)

        make_functions = kernel.kernel_functions
        instrumented = set()

        def kernel_functions(config, op):
            # The factory is cached, so one KernelFunctions instance can come
            # back many times; wrap its closures once.
            fns = make_functions(config, op)
            if id(fns) not in instrumented:
                instrumented.add(id(fns))
                for attr in KERNEL_CLOSURES:
                    after = count_points if attr in ("value", "dvalue_dx") else None
                    self._set(fns, attr, self._wrap(KERNEL_EVAL, getattr(fns, attr), after))
            return fns

        self._rebind(make_functions, kernel_functions)
        self._trace(kernel.green_eval, GREEN_EVAL)

        def count_matrix_bytes(args, _result):
            n = args[0].nodes.size
            counts["linear_bvp.matrix_bytes"] += 2 * n * n * 8  # computed, not measured

        self._method(linear_bvp.LinearSolver, "__init__", BUILD, count_matrix_bytes)
        self._method(linear_bvp.LinearSolver, "solve", SOLVE)
        self._trace(linear_bvp.get_solver, GET_SOLVER)
        self._method(Expression, "evaluate", EXPR_EVAL)

        def count_iterations(_args, trace):
            counts["monotone.iterations"] += trace.iterations

        self._trace(monotone.run, RUN, count_iterations)
        self._trace(monotone._interior_residual, RESIDUAL)
        self._trace(linear_bvp.boundary_residuals, RESIDUAL)
        self._trace(oracle.fd_nonlinear, FD_NONLINEAR)
        self._trace(oracle.fd_linear, FD_LINEAR)
        self._trace(oracle.splu, FACTORIZE)
        for sub in CLI_SUBCOMMANDS:
            self._trace(getattr(cli, "cmd_" + sub.replace("-", "_")), "cli.cmd." + sub)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def self_times(spans):
    """Duration minus the time covered by direct children, per span index."""
    own = [t1 - t0 for (_n, t0, t1, _p, _o) in spans]
    for name, t0, t1, parent, _op in spans:
        if parent is not None:
            own[parent] -= t1 - t0
    return own


def _ancestors(spans, sid):
    parent = spans[sid][3]
    while parent is not None:
        yield parent
        parent = spans[parent][3]


def _topmost(spans, sid):
    name = spans[sid][0]
    return all(spans[a][0] != name for a in _ancestors(spans, sid))


def summarize(spans):
    """Per-layer totals: inclusive time, self time and call count by span name."""
    total = defaultdict(float)
    calls = Counter()
    own = defaultdict(float)
    for sid, t_self in enumerate(self_times(spans)):
        own[spans[sid][0]] += t_self
    for sid, (name, t0, t1, _p, _o) in enumerate(spans):
        calls[name] += 1
        if _topmost(spans, sid):
            total[name] += t1 - t0
    return total, own, calls


def enclosing(spans, sid, name):
    """Index of the nearest ancestor span called `name`, or None."""
    for a in _ancestors(spans, sid):
        if spans[a][0] == name:
            return a
    return None


def layer_metrics(spans, counts):
    """The per-layer metrics of one traced window, by metric name.

    Times ending in _s are totals over the window, except solve_s (per
    call), step_s (per iteration) and cli.cmd_s.* (per call). The shares
    divide time inside operation spans by the total operation time.
    """
    total, own, calls = summarize(spans)

    def per_call(name):
        return total[name] / calls[name] if calls[name] else 0.0

    # A get_solver call missed its cache when a build ran inside it.
    misses = {enclosing(spans, sid, GET_SOLVER) for sid, s in enumerate(spans) if s[0] == BUILD}
    misses.discard(None)
    # Step loop = run span minus the build and residual spans inside it.
    run_time = total[RUN]
    op_time = sum(t1 - t0 for (name, t0, t1, _p, _o) in spans if name == OP)
    op_run = sum(t1 - t0 for (name, t0, t1, _p, op) in spans if name == RUN and op is not None)
    outside_step = 0.0
    op_outside_step = 0.0
    op_build = 0.0
    for sid, (name, t0, t1, _p, op) in enumerate(spans):
        if name not in (BUILD, RESIDUAL) or not _topmost(spans, sid):
            continue
        if enclosing(spans, sid, RUN) is not None:
            outside_step += t1 - t0
            if op is not None:
                op_outside_step += t1 - t0
        if name == BUILD and op is not None:
            op_build += t1 - t0
    iterations = counts["monotone.iterations"]

    metrics = {
        "problems.build_s": total[PROBLEMS_BUILD],
        "admissibility.scan_s": total[SCAN],
        "admissibility.check_calls": calls[CHECK],
        "admissibility.nagumo_s": total[NAGUMO],
        "admissibility.lipschitz_s": total[LIPSCHITZ],
        "kernel.eval_s": total[KERNEL_EVAL],
        "kernel.points": counts["kernel.points"],
        "kernel.green_eval_s": total[GREEN_EVAL],
        "kernel.green_eval_calls": calls[GREEN_EVAL],
        "linear_bvp.build_s": total[BUILD],
        "linear_bvp.builds": calls[BUILD],
        "linear_bvp.cache_hit_ratio": ((calls[GET_SOLVER] - len(misses)) / calls[GET_SOLVER]
                                       if calls[GET_SOLVER] else 0.0),
        "linear_bvp.solve_s": per_call(SOLVE),
        "linear_bvp.solves": calls[SOLVE],
        "linear_bvp.matrix_bytes": counts["linear_bvp.matrix_bytes"],
        "expressions.eval_s": total[EXPR_EVAL],
        "expressions.evals": calls[EXPR_EVAL],
        "monotone.iterations": iterations,
        "monotone.step_s": (run_time - outside_step) / iterations if iterations else 0.0,
        "monotone.self_s": own[RUN],
        "monotone.residual_s": total[RESIDUAL],
        "oracle.fd_nonlinear_s": total[FD_NONLINEAR],
        "oracle.factorizations": calls[FACTORIZE],
        "share.build": op_build / op_time if op_time else 0.0,
        "share.step_loop": (op_run - op_outside_step) / op_time if op_time else 0.0,
    }
    for sub in CLI_SUBCOMMANDS:
        metrics["cli.cmd_s." + sub] = per_call("cli.cmd." + sub)
    return metrics
