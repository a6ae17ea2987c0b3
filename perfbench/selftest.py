"""The benchmark's own tests: every workload at a tiny size, plus the gate.

    python3 perfbench/selftest.py

Checks that each run prints every metric BENCHMARK.json names with its unit,
that a traced repeat with the same seed attempts and fails as many operations
and counts exactly the same work, that span self times are non-negative and
add up to the operation time, that the gate flags a wrong limit, and that the
benchmark refuses to run without the package. Runs take a few seconds each (--scale smoke).
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

SEED = 7
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(done):
    if done.returncode != 0:
        raise AssertionError("benchmark exited %d: %s" % (done.returncode, done.stderr[-3000:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


class SmokeRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.results = {(w, t): result_of(bench(w, t)) for w in inputs.WORKLOADS for t in (0, 1)}

    def test_every_metric_is_present_with_its_unit(self):
        for (workload, trace), res in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(res), RESULT_KEYS)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertIsInstance(res["failed"], int)
                listed = self.spec["per_layer" if trace else "end_to_end"]
                self.assertEqual(set(res["metrics"]), {m["name"] for m in listed})
                for m in listed:
                    got = res["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_traced_repeat_counts_the_same_work(self):
        import run

        for workload in inputs.WORKLOADS:
            with self.subTest(workload=workload):
                again = result_of(bench(workload, 1))
                first = self.results[(workload, 1)]
                # A run's work is fixed by seed and --seconds, not by the clock.
                self.assertEqual((again["attempted"], again["failed"]),
                                 (first["attempted"], first["failed"]))
                for name in run.EXACT_COUNTS:
                    self.assertEqual(again["metrics"][name]["value"],
                                     first["metrics"][name]["value"], name)

    def test_span_self_times_add_up_to_the_operation_time(self):
        for workload in inputs.WORKLOADS:
            with self.subTest(workload=workload):
                data = json.loads((OUT / ("spans-%s-smoke-seed%d.json" % (workload, SEED)))
                                  .read_text())
                recorded = [tuple(s) for s in data["spans"]]
                own = spans.self_times(recorded)
                self.assertGreaterEqual(min(own), -1e-9)
                per_op = {}
                for (_name, _t0, _t1, _parent, op), t_self in zip(recorded, own):
                    if op is not None:
                        per_op[op] = per_op.get(op, 0.0) + t_self
                # The stated overhead, with a floor for runs where noise
                # makes the traced round look no slower than the untraced one.
                allowed = max(data["overhead_ratio"] - 1.0, 0.01)
                self.assertTrue(data["ops"])
                for op in data["ops"]:
                    self.assertLessEqual(per_op[op["op"]], op["latency_s"])
                    self.assertLessEqual(op["latency_s"] - per_op[op["op"]],
                                         allowed * op["latency_s"])


class Gate(unittest.TestCase):
    def test_gate_flags_a_wrong_limit(self):
        sys.path.insert(0, str(ROOT / "src"))
        from mibvp import ProblemConfig, build_problem, fd_nonlinear, run

        config = ProblemConfig.load(ROOT / "problems" / "example2.json")
        problem = build_problem(config)
        reference = fd_nonlinear(problem, n=gate.ORACLE_N)
        trace = run(problem, -2.0, config.max_iter, config.tol, grid_n=501)
        summary = gate.summarize(trace)
        reasons, diff = gate.check_run(summary, config.tol, reference)
        self.assertEqual(reasons, [])
        self.assertLess(diff, gate.SUP_TOL)

        summary["lower"] = summary["lower"] + 10 * gate.SUP_TOL
        reasons, diff = gate.check_run(summary, config.tol, reference)
        self.assertTrue(any(r.startswith("sup_diff") for r in reasons), reasons)
        self.assertTrue(gate.is_wrong_answer(reasons))

    def test_cli_gate_flags_bad_output(self):
        expect = {"certified": inputs.CERTIFIED["example2"], "grid_n": 3}
        wrong = json.dumps({"k": -2.0, "rows": [{"case": "c", "grid_n": 201, "sup_diff": 1e-3}]})
        self.assertTrue(gate.check_cli("oracle-compare", 0, wrong, expect)[0])
        self.assertTrue(gate.check_cli("solve", 0, '{"converged": false}', expect)[0])
        self.assertTrue(gate.check_cli("check", 1, "", expect)[0])
        self.assertTrue(gate.check_cli("nagumo", 0, "not json", expect)[0])
        self.assertTrue(gate.check_cli("greens-dump", 0, "x,s,value,dvalue_dx\n", expect)[0])


class BareDirectory(unittest.TestCase):
    def test_refuses_to_run_without_the_package(self):
        OUT.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=OUT))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = bench("iterate-coarse", 0, cwd=bare, script=bare / HERE.name / "run.py")
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
