"""Benchmark of the mibvp solver, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-fine --seed 1 --seconds 20 --trace 0

Workloads (BENCHMARK.json records why each was chosen):
  solve-fine      monotone.run on example1 and example2 in alternation, grid 2001
  iterate-coarse  monotone.run on example2 at grid 501, many steps per build
  cli-session     mibvp subcommands on both configs, one subprocess each

Each workload is a closed loop with one client: operations run back to back
and each operation uses inputs drawn from --seed (see inputs.py). A run
makes a fixed number of whole rounds, sized from --seconds by the nominal
round times in inputs.py, so the same seed and --seconds always attempt the
same operations. Every operation passes through the gate in gate.py.

--trace 0 prints the end-to-end metrics. --trace 1 is a separate run: one
round with spans around every layer (spans.py), then untraced rounds for
the tracing-overhead comparison; it prints the per-layer metrics. The last
line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}. A full report, and the spans
of a traced run, are written under .bench_out/.

Exit status: 0 with a result line; 2 when the checkout lacks the package or
its configs; 3 when a repeat with the same seed drew different inputs or,
traced, counted different work.
"""
from __future__ import annotations

import os
import sys

# At most two BLAS threads, set for this process and its children only, and
# before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(min(2, os.cpu_count() or 1))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import inputs  # noqa: E402

CONFIG_SOURCES = {name: ROOT / "problems" / ("%s.json" % name) for name in inputs.CONFIGS}
# Counts that must repeat exactly for a repeat of a traced run with one seed.
EXACT_COUNTS = ("monotone.iterations", "linear_bvp.solves", "linear_bvp.builds",
                "kernel.points", "admissibility.check_calls", "oracle.factorizations")
SUBPROCESS_TIMEOUT = 120
# Why each in-process workload was chosen, as a share the traced run measures.
RATIONALE = {
    "solve-fine": ("share.build", "building the dense quadrature matrices dominates"),
    "iterate-coarse": ("share.step_loop", "the step loop dominates"),
}


class RepeatMismatch(Exception):
    """A same-seed repeat disagreed with an earlier run in this checkout."""


def _sha256_files(paths):
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def source_digest():
    return _sha256_files(SRC.rglob("*.py"))


def bench_digest():
    return _sha256_files(list(HERE.glob("*.py")) + [ROOT / "BENCHMARK.json"])


def environment():
    """Machine, interpreter, library and thread settings of this run."""
    import numpy
    import scipy

    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                    capture_output=True, text=True).stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


# -- inputs ---------------------------------------------------------------


def write_inputs(workload, seed, scale, tmp):
    """Write the config files the program reads; check the inputs repeat byte for byte."""
    sources = {name: path.read_bytes() for name, path in CONFIG_SOURCES.items()}
    paths = {}
    for name, data in sources.items():
        paths[name] = tmp / ("%s.json" % name)
        paths[name].write_bytes(data)
    written = {name: paths[name].read_bytes() for name in sources}
    digest = inputs.inputs_digest(workload, seed, scale, written)
    if digest != inputs.inputs_digest(workload, seed, scale, sources):
        raise RepeatMismatch("inputs drawn twice from seed %d differ" % seed)
    return {name: str(path) for name, path in paths.items()}, digest


def ledger(workload, seed, scale, inputs_sha, counts=None):
    """Compare with, then record, what earlier runs of this seed saw.

    Keyed by the benchmark's own code, so editing the benchmark starts a new
    record, and the exact counts by the source digest of the package.
    """
    path = OUT / "ledger" / ("%s-seed%d-%s.json" % (workload, seed, scale))
    data = json.loads(path.read_text()) if path.exists() else {}
    entry = data.setdefault(bench_digest(), {"inputs_sha256": inputs_sha, "counts": {}})
    if entry["inputs_sha256"] != inputs_sha:
        raise RepeatMismatch("seed %d drew inputs %s, an earlier run drew %s"
                             % (seed, inputs_sha, entry["inputs_sha256"]))
    if counts is not None:
        src = source_digest()
        earlier = entry["counts"].get(src)
        if earlier is not None and earlier != counts:
            diff = {k: (earlier.get(k), counts[k]) for k in counts if earlier.get(k) != counts[k]}
            raise RepeatMismatch("exact counts differ from an earlier traced run with "
                                 "seed %d (earlier, now): %s" % (seed, diff))
        entry["counts"][src] = counts
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
    os.replace(tmp, path)


# -- timing helpers -------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def timed_process(argv):
    """Run argv to completion; return (CompletedProcess or None on timeout, seconds)."""
    t0 = time.perf_counter()
    try:
        done = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        done = None
    return done, time.perf_counter() - t0


def setup_seconds(workload, paths, samples):
    """Median wall time of `samples` fresh processes doing the workload's set-up."""
    if workload == "cli-session":
        argv = [sys.executable, "-c", "import mibvp"]
    else:
        argv = [sys.executable, str(HERE / "cold_setup.py"), *paths.values()]
    times = []
    for _ in range(samples):
        done, seconds = timed_process(argv)
        if done is None or done.returncode != 0:
            raise RuntimeError("set-up process failed: %s"
                               % (done.stderr if done else "timeout"))
        times.append(seconds)
    return statistics.median(times), times


def tail(latencies):
    """(percentile, value) of the highest percentile with >= 10 operations beyond it."""
    n = len(latencies)
    if n < 11:
        return None
    ordered = sorted(latencies)
    return 100.0 * (n - 10) / n, ordered[n - 11]


# -- operations -----------------------------------------------------------


class InProcess:
    """solve-fine and iterate-coarse: one monotone.run call per operation."""

    def __init__(self, paths):
        from mibvp import monotone, oracle

        import cold_setup

        # Looked up at call time: a traced run swaps monotone.run for a wrapper.
        self.monotone = monotone
        loaded = cold_setup.setup(paths.values())
        self.problems = {}
        for name, path in paths.items():
            config, problem, intervals = loaded[path]
            lo, hi = inputs.CERTIFIED[name]
            if not any(a <= lo and hi <= b for a, b in intervals):
                raise RuntimeError("scan_k no longer certifies the %s draws [%r, %r]: %r"
                                   % (name, lo, hi, intervals))
            reference = oracle.fd_nonlinear(problem, n=gate.ORACLE_N)
            self.problems[name] = (config, problem, reference)

    def describe(self, op):
        return "%s k=%r grid_n=%d" % (op["config"], op["k"], op["grid_n"])

    def call(self, op):
        config, problem, _ = self.problems[op["config"]]
        return self.monotone.run(problem, op["k"], config.max_iter, config.tol, grid_n=op["grid_n"])

    def check(self, op, trace):
        config, _, reference = self.problems[op["config"]]
        summary = gate.summarize(trace)
        reasons, diff = gate.check_run(summary, config.tol, reference)
        return reasons, diff, summary["iterations"]


class CliSession:
    """cli-session: one mibvp subcommand per operation, in a fresh process or in-process."""

    def __init__(self, paths, scale, in_process):
        self.paths = paths
        self.greens_grid = inputs.SCALES[scale]["greens_grid"]
        self.in_process = in_process
        if in_process:
            from mibvp import cli

            self.cli = cli

    def describe(self, op):
        return " ".join([op["argv"][0], op["config"]] + op["argv"][1:])

    def argv(self, op):
        return [op["argv"][0], self.paths[op["config"]]] + op["argv"][1:]

    def call(self, op):
        if not self.in_process:
            done, _ = timed_process([sys.executable, "-m", "mibvp"] + self.argv(op))
            if done is None:
                raise RuntimeError("timed out after %d s" % SUBPROCESS_TIMEOUT)
            return done.returncode, done.stdout
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = self.cli.main(self.argv(op))
        return status, out.getvalue()

    def check(self, op, result):
        status, stdout = result
        expect = {"certified": inputs.CERTIFIED[op["config"]], "grid_n": self.greens_grid}
        reasons, diff = gate.check_cli(op["argv"][0], status, stdout, expect)
        return reasons, diff, None


def run_rounds(driver, workload, seed, scale, first_round, n_rounds, records, tracer=None):
    """Run rounds first_round .. first_round + n_rounds - 1; return the loop wall time.

    The wall time excludes the gate, which is the benchmark's own work.
    """
    gate_time = 0.0
    t_start = time.perf_counter()
    for r in range(first_round, first_round + n_rounds):
        for i, op in enumerate(inputs.round_ops(workload, seed, r, scale)):
            op_id = len(records)
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = driver.call(op)
                else:
                    result = tracer.root(op_id, driver.call, op)
                error = None
            except Exception as exc:  # an operation that raises is a failed operation
                result, error = None, "exception: %s: %s" % (type(exc).__name__, exc)
            latency = time.perf_counter() - t0
            g0 = time.perf_counter()
            if error is None:
                reasons, diff, iterations = driver.check(op, result)
            else:
                reasons, diff, iterations = [error], None, None
            del result
            gate_time += time.perf_counter() - g0
            records.append({"op": op_id, "round": r, "index": i, "input": driver.describe(op),
                            "traced": tracer is not None, "latency_s": latency,
                            "iterations": iterations, "sup_diff": diff, "reasons": reasons})
    return time.perf_counter() - t_start - gate_time


# -- the run --------------------------------------------------------------


def bench(workload, seed, seconds, traced, scale):
    sc = inputs.SCALES[scale]
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    try:
        paths, inputs_sha = write_inputs(workload, seed, scale, tmp)
        ledger(workload, seed, scale, inputs_sha)
        report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
                  "scale": scale, "inputs_sha256": inputs_sha, "environment": environment()}
        records = []
        if not traced:
            setup_s, samples = setup_seconds(workload, paths, sc["setup_samples"])
            report["setup_samples_s"] = samples
            if workload == "cli-session":
                driver = CliSession(paths, scale, in_process=False)
            else:
                driver = InProcess(paths)
            wall = run_rounds(driver, workload, seed, scale, 0,
                              inputs.rounds_for(workload, seconds), records)
            usage = resource.RUSAGE_CHILDREN if workload == "cli-session" else resource.RUSAGE_SELF
            latencies = [rec["latency_s"] for rec in records]
            metrics = {
                "setup_s": setup_s,
                "latency_s.p50": statistics.median(latencies),
                "ops_per_s": len(records) / wall,
                "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
            }
            report["latency_s.tail"] = tail(latencies)
        else:
            metrics = traced_run(workload, seed, seconds, scale, paths, records, report)
        finish(report, records, metrics)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def traced_run(workload, seed, seconds, scale, paths, records, report):
    """One traced round (the counted window), then untraced rounds to compare against.

    The untraced rounds make up the rest of the run's rounds, at least one.
    """
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        if workload == "cli-session":
            driver = CliSession(paths, scale, in_process=True)
        else:
            driver = InProcess(paths)
        run_rounds(driver, workload, seed, scale, 0, 1, records, tracer)
    finally:
        tracer.restore()
    untraced = max(1, inputs.rounds_for(workload, seconds) - 1)
    run_rounds(driver, workload, seed, scale, 1, untraced, records)

    metrics = spans.layer_metrics(tracer.spans, tracer.counts)
    traced_lat = [rec["latency_s"] for rec in records if rec["traced"]]
    plain_lat = [rec["latency_s"] for rec in records if not rec["traced"]]
    diffs = [rec["sup_diff"] for rec in records if rec["traced"] and rec["sup_diff"] is not None]
    metrics["oracle.sup_diff"] = max(diffs) if diffs else 0.0
    metrics["trace.latency_s.p50"] = statistics.median(traced_lat)
    metrics["trace.untraced_latency_s.p50"] = statistics.median(plain_lat)
    metrics["trace.overhead_ratio"] = (metrics["trace.latency_s.p50"]
                                       / metrics["trace.untraced_latency_s.p50"])
    counts = {name: metrics[name] for name in EXACT_COUNTS}
    report["exact_counts"] = counts
    ledger(workload, seed, scale, report["inputs_sha256"], counts)
    spans_path = OUT / ("spans-%s-%s-seed%d.json" % (workload, scale, seed))
    spans_path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "op"],
        "spans": tracer.spans,
        "ops": [{"op": rec["op"], "latency_s": rec["latency_s"]}
                for rec in records if rec["traced"]],
        "overhead_ratio": metrics["trace.overhead_ratio"],
    }))
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics


def rationale(workload, metrics):
    """The measured share that each in-process workload was chosen for, and whether it holds."""
    if workload not in RATIONALE:
        return None
    name, claim = RATIONALE[workload]
    share = metrics[name]
    verdict = "holds" if share > 0.5 else "CONTRADICTS the workload's rationale"
    return "%s = %.3f of operation time; rationale '%s' %s" % (name, share, claim, verdict)


def finish(report, records, metrics):
    workload, seed, scale, traced = (report[k] for k in ("workload", "seed", "scale", "trace"))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = spec["per_layer" if traced else "end_to_end"]
    result_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                      for m in listed}
    failed = [rec for rec in records if rec["reasons"]]
    correct = not any(gate.is_wrong_answer(rec["reasons"]) for rec in records)
    reasons = {}
    for rec in failed:
        for reason in rec["reasons"]:
            kind = re.sub(r"[-+]?\d[\d.e+-]*", "#", reason)
            reasons[kind] = reasons.get(kind, 0) + 1
    report.update({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "fail_ratio": len(failed) / len(records),
        "failure_reasons": reasons,
        "metrics": result_metrics,
        "operations": records,
    })
    if traced:
        report["rationale"] = rationale(workload, metrics)
    path = OUT / ("report-%s-%s-seed%d-trace%d.json" % (workload, scale, seed, int(traced)))
    path.write_text(json.dumps(report, indent=1))

    for rec in records:
        print("op %3d r%d %-8s %.4fs %s%s" % (
            rec["op"], rec["round"], "traced" if rec["traced"] else "", rec["latency_s"],
            rec["input"], ("  FAIL " + " | ".join(rec["reasons"])) if rec["reasons"] else ""))
    print("environment %s" % json.dumps(report["environment"], sort_keys=True))
    print("fail_ratio %.4f (%d of %d) reasons %s"
          % (report["fail_ratio"], len(failed), len(records), json.dumps(reasons)))
    if traced:
        for m in listed:
            print("layer %-30s %.6g %s" % (m["name"], metrics[m["name"]], m["unit"]))
        print("linear_bvp.matrix_bytes is computed as 2*n*n*8 per build, not measured")
        if report["rationale"]:
            print(report["rationale"])
    else:
        t = report["latency_s.tail"]
        print("latency_s.tail %s" % ("p%.1f = %.6f s over %d operations" % (t[0], t[1], len(records))
                                     if t else "omitted: %d operations, fewer than 11"
                                     % len(records)))
    print("report %s" % path.relative_to(ROOT))
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed),
                      "metrics": result_metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=tuple(inputs.SCALES),
                        help="'smoke' shrinks every workload for the benchmark's own tests")
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in [SRC / "mibvp" / "__init__.py",
                                                  ROOT / "BENCHMARK.json",
                                                  *CONFIG_SOURCES.values()]
               if not p.is_file()]
    if missing:
        print("perfbench: this checkout lacks %s" % ", ".join(missing), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        bench(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except RepeatMismatch as exc:
        print("perfbench: SAME-SEED REPEAT MISMATCH: %s" % exc, file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
