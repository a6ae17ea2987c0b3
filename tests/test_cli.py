import copy
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from mibvp import cli
from mibvp.admissibility import check_k
from mibvp.cli import main
from mibvp.kernel import ShiftedOperator, green_eval
from mibvp.monotone import run
from mibvp.problems import EXAMPLE1, EXAMPLE2, ProblemConfig, build_problem


def _config_file(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data, indent=2), encoding="utf-8")
    return str(p)


def _ex1(problems_dir):
    return str(problems_dir / "example1.json")


def _ex2(problems_dir):
    return str(problems_dir / "example2.json")


def _child_env(**extra):
    """os.environ plus extra, with this checkout's src first on PYTHONPATH."""
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run_cli(*argv):
    """Run mibvp in a subprocess, so an uncaught exception shows as a traceback."""
    return subprocess.run([sys.executable, "-m", "mibvp", *argv], env=_child_env(),
                          capture_output=True, text=True, timeout=120)


class TestCheck:
    def test_reverse_example(self, problems_dir, capsys):
        assert main(["check", _ex1(problems_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["admissible"] is True
        assert payload["k"] == 0.49
        assert payload["lipschitz"]["L1"] == 0.47331
        assert {c["id"] for c in payload["conditions"]} == {
            "Dk>0", "A1-2", "A1-3", "L34a", "L34b"}

    def test_range_config_needs_explicit_k(self, problems_dir, capsys):
        assert main(["check", _ex2(problems_dir)]) == 1
        assert "validation error" in capsys.readouterr().err

    def test_explicit_k_on_range_config(self, problems_dir, capsys):
        assert main(["check", _ex2(problems_dir), "--k", "-2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["admissible"] is True
        assert payload["regime"] == "negative"

    @pytest.mark.parametrize("command", ["check", "solve", "greens-dump", "oracle-compare"])
    def test_zero_k_rejected(self, problems_dir, capsys, command):
        assert main([command, _ex1(problems_dir), "--k", "0"]) == 1
        assert "validation error" in capsys.readouterr().err

    def test_integer_beyond_float_range_exits_1(self, tmp_path, capsys):
        data = copy.deepcopy(EXAMPLE1)
        data["tol"] = 10 ** 400  # written as "tol": 1 followed by 400 zeros
        assert main(["check", _config_file(tmp_path, data)]) == 1
        assert "config.tol is too large for a float" in capsys.readouterr().err

    def test_non_finite_l2_exits_1(self, tmp_path, capsys):
        # sqrt(x - 0.5) is NaN left of 0.5; the margins used to print as NaN
        data = copy.deepcopy(EXAMPLE1)
        data["lipschitz"]["L2"] = "sqrt(x-0.5)"
        assert main(["check", _config_file(tmp_path, data)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "L2 is not finite at x = 0.0" in captured.err

    def test_undefined_a2_bound_exits_1(self, tmp_path, capsys):
        # L2' = -0.5 makes L2^2 + 4(L1 + L2') negative on all of [0, 1]; the
        # NaN A'2 term used to drop out of the bound and pass k = -2
        data = copy.deepcopy(EXAMPLE2)
        data["lipschitz"]["L2"] = "0.5*(1-x)"
        cfg = _config_file(tmp_path, data)
        assert main(["check", cfg, "--k", "-2"]) == 1
        assert "A'2 is undefined" in capsys.readouterr().err
        assert main(["scan-k", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at x = 0.0" in captured.err

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_constant_division_by_zero_exits_1(self, tmp_path, command):
        # used to end in a ZeroDivisionError traceback
        data = copy.deepcopy(EXAMPLE1)
        data["lower0"] = "1 + 2.525*x + x^2 + 0*(1/0)"
        proc = _run_cli(command, _config_file(tmp_path, data))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == ("validation error: division by zero in "
                               "'1 + 2.525*x + x^2 + 0*(1/0)'\n")

    @pytest.mark.parametrize("nagumo", [True, False])
    @pytest.mark.parametrize("tail", ["ln(x)", "sqrt(x - 0.5)", "0*ln(0)",
                                      "0*((-1)^0.5)", "0*(10^400)"])
    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_non_finite_bracket_exits_1(self, tmp_path, capsys, command, tail, nagumo):
        # used to blame phi (with a nagumo section) or the source (without)
        data = copy.deepcopy(EXAMPLE1)
        data["lower0"] = "1 + 2.525*x + x^2 + " + tail
        if not nagumo:
            del data["nagumo"]
        assert main([command, _config_file(tmp_path, data)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "validation error: lower0 is not finite at x = 0.0\n"

    def test_artifact(self, problems_dir, tmp_path, capsys):
        out = tmp_path / "art"
        assert main(["check", _ex1(problems_dir), "--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads((out / "check.json").read_text())["admissible"] is True
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["command"] == "check"
        assert meta["package"] == "mibvp"
        assert "seed_env" not in meta


class TestScanK:
    def test_negative_window(self, problems_dir, capsys):
        assert main(["scan-k", _ex2(problems_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regime"] == "negative"
        assert payload["k_lo"] == -10.0
        assert len(payload["intervals"]) == 1
        lo, hi = payload["intervals"][0]
        assert lo == -10.0
        assert hi == pytest.approx(-1.4472, abs=1e-3)

    def test_artifacts(self, problems_dir, tmp_path, capsys):
        out = tmp_path / "scan"
        assert main(["scan-k", _ex2(problems_dir), "--out", str(out)]) == 0
        capsys.readouterr()
        lines = (out / "scan_margins.csv").read_text().splitlines()
        assert lines[0] == "k,condition,margin,pass"
        assert len(lines) == 1 + 400 * 6
        intervals = json.loads((out / "scan_intervals.json").read_text())
        assert intervals["steps"] == 400
        assert (out / "run_meta.json").exists()

    @pytest.mark.parametrize("name", ["example1.json", "example2.json"])
    def test_margins_equal_a_check_per_shift(self, problems_dir, tmp_path, capsys, name):
        # reference: one check_k report per sampled shift, written row by row
        out = tmp_path / "scan"
        assert main(["scan-k", str(problems_dir / name), "--out", str(out)]) == 0
        capsys.readouterr()
        config = ProblemConfig.load(str(problems_dir / name))
        lip = build_problem(config).lip
        lo, hi, steps = config.scan_range()
        lines = ["k,condition,margin,pass"]
        for k in np.linspace(lo, hi, steps).tolist():
            for c in check_k(config.boundary_config, k, lip).conditions.values():
                lines.append("%r,%s,%r,%s" % (k, c.cid, c.margin, "true" if c.ok else "false"))
        assert (out / "scan_margins.csv").read_text() == "\n".join(lines) + "\n"


class TestSolve:
    def test_artifacts_and_flags(self, problems_dir, tmp_path, capsys):
        out = tmp_path / "run1"
        assert main(["solve", _ex1(problems_dir), "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert payload["iterations"] == 21
        trace = json.loads((out / "trace.json").read_text())
        assert trace == payload
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == ("step,move_lower,move_upper,gap,"
                          "monotone_lower,monotone_upper,ordered")
        iterates = (out / "iterates.csv").read_text().splitlines()
        assert iterates[0] == "x,value,series"
        series = {line.rsplit(",", 1)[1] for line in iterates[1:]}
        assert "c0" in series and "d0" in series
        assert "c%d" % payload["iterations"] in series

    def test_byte_determinism(self, problems_dir, tmp_path, capsys):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["solve", _ex1(problems_dir), "--out", str(out1)]) == 0
        assert main(["solve", _ex1(problems_dir), "--out", str(out2)]) == 0
        capsys.readouterr()
        for name in ("trace.json", "trace.csv", "iterates.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_well_example_with_overrides(self, problems_dir, capsys):
        assert main(["solve", _ex2(problems_dir), "--k", "-2",
                     "--grid-n", "201", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("step,")
        last = lines[-1].split(",")
        assert last[4] == "true" and last[5] == "true" and last[6] == "true"

    def test_range_config_needs_k(self, problems_dir, capsys):
        assert main(["solve", _ex2(problems_dir)]) == 1
        capsys.readouterr()

    def test_streamed_iterates_equal_a_plain_writer(self, ex1_problem):
        levels = []
        trace = run(ex1_problem, 0.49, max_iter=300, tol=1e-8, grid_n=21,
                    on_level=levels.append)
        lines = ["x,value,series"]
        for row, label in enumerate("cd"):
            for idx, u in enumerate(levels):
                lines.extend("%r,%r,%s%d" % (float(x), float(v), label, idx)
                             for x, v in zip(trace.nodes, u[row]))
        assert "".join(cli._iterates_csv(trace.nodes, levels)) == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("config, k", [("example1.json", "-2"), ("example2.json", "0.5")])
    def test_shift_sign_against_ordering_exits_1(self, problems_dir, capsys, config, k):
        assert main(["solve", str(problems_dir / config), "--k", k]) == 1
        assert "ordered bracket needs k" in capsys.readouterr().err

    def test_divergent_problem_exits_2(self, tmp_path, capsys):
        data = copy.deepcopy(EXAMPLE1)
        data["psi"] = "200*u"
        data["lower0"] = "1"
        data["upper0"] = "-1"
        data["grid_n"] = 201
        data["max_iter"] = 100
        del data["lipschitz"]
        del data["nagumo"]
        cfg = _config_file(tmp_path, data)
        assert main(["solve", cfg]) == 2
        assert "numerical error" in capsys.readouterr().err
        # with --out the run stops before any artifact is written
        out = tmp_path / "run"
        assert main(["solve", cfg, "--out", str(out)]) == 2
        assert "numerical error" in capsys.readouterr().err
        for name in ("iterates.csv", "trace.json", "run_meta.json"):
            assert not (out / name).exists(), name

    def test_unknown_identifier_exits_1(self, tmp_path, capsys):
        data = copy.deepcopy(EXAMPLE1)
        data["psi"] = "v + u"
        cfg = _config_file(tmp_path, data)
        assert main(["solve", cfg]) == 1
        assert "unknown identifier" in capsys.readouterr().err


class TestSizeLimits:
    # each used to print numpy's "Maximum allowed size exceeded" traceback
    @pytest.mark.parametrize("command", ["solve", "oracle-compare", "greens-dump"])
    def test_huge_grid_flag_exits_1(self, problems_dir, capsys, command):
        assert main([command, _ex1(problems_dir), "--grid-n", str(10 ** 30)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        cap = cli.MAX_DUMP_N if command == "greens-dump" else 10 ** 6
        assert "to %d " % cap in captured.err and "validation error" in captured.err

    def test_dump_above_its_cap_exits_1(self, problems_dir, capsys, monkeypatch):
        def no_table(*args, **kwargs):
            raise RuntimeError("greens-dump tabulated a grid above its cap")

        monkeypatch.setattr("mibvp.cli.kernel_functions", no_table)
        argv = ["greens-dump", _ex1(problems_dir), "--grid-n", str(cli.MAX_DUMP_N + 1)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "validation error" in captured.err and "to %d " % cli.MAX_DUMP_N in captured.err

    @staticmethod
    def _main_in_400_mb(argv):
        # the child caps its own address space at 400 MB, with one BLAS thread
        # so numpy still loads
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
                  "from mibvp.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        return subprocess.run([sys.executable, "-c", script] + argv, capture_output=True,
                              text=True, env=_child_env(OPENBLAS_NUM_THREADS="1"), timeout=120)

    def test_out_of_memory_exits_2(self, problems_dir):
        # a 10^6-node solve asks for two 8 TB quadrature matrices
        done = self._main_in_400_mb(["solve", _ex1(problems_dir), "--grid-n", "1000000"])
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == "numerical error: not enough memory for grid_n=1000000\n"

    def test_dump_at_its_cap_fits_in_400_mb(self, problems_dir, tmp_path):
        # the table is written one s row at a time, never held as 10^6 rows
        out = tmp_path / "g"
        done = self._main_in_400_mb(["greens-dump", _ex1(problems_dir), "--grid-n",
                                     str(cli.MAX_DUMP_N), "--out", str(out)])
        assert done.returncode == 0, done.stderr
        with open(out / "greens.csv", encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == 1 + cli.MAX_DUMP_N ** 2

    @pytest.mark.parametrize("command, data", [
        ("solve", {**EXAMPLE1, "grid_n": 10 ** 400}),
        ("scan-k", {**EXAMPLE2, "k": {"lo": -10.0, "hi": -0.01, "steps": 10 ** 400}}),
    ], ids=["grid_n", "steps"])
    def test_huge_config_size_exits_1(self, tmp_path, capsys, command, data):
        # json.load reads the 1 followed by 400 zeros as a Python int
        assert main([command, _config_file(tmp_path, data)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "validation error" in captured.err


class TestGreensDump:
    def test_stdout_table(self, problems_dir, capsys):
        assert main(["greens-dump", _ex1(problems_dir), "--grid-n", "11"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,s,value,dvalue_dx"
        assert len(lines) == 1 + 121

    def test_artifact(self, problems_dir, tmp_path, capsys):
        out = tmp_path / "g"
        assert main(["greens-dump", _ex1(problems_dir), "--grid-n", "11",
                     "--out", str(out)]) == 0
        msg = capsys.readouterr().out
        assert "121 rows" in msg
        lines = (out / "greens.csv").read_text().splitlines()
        assert len(lines) == 122

    @pytest.mark.parametrize("k", ["-2", "0.49"])
    def test_matches_pointwise_green_eval(self, problems_dir, capsys, k):
        # the vectorized table equals a per-point green_eval loop, bit for bit
        assert main(["greens-dump", _ex2(problems_dir), "--k", k, "--grid-n", "21"]) == 0
        lines = capsys.readouterr().out.splitlines()
        cfg = ProblemConfig.load(_ex2(problems_dir)).boundary_config
        pts = np.linspace(0.0, 1.0, 21)
        expected = []
        for s in pts:
            for x in pts:
                g = green_eval(cfg, ShiftedOperator(float(k)), float(x), float(s))
                expected.append(",".join(repr(float(v)) for v in (x, s, g.value, g.dvalue_dx)))
        assert lines[1:] == expected

    def test_range_config_needs_k(self, problems_dir, capsys):
        assert main(["greens-dump", _ex2(problems_dir)]) == 1
        capsys.readouterr()

    def test_degenerate_shift_exits_2(self, tmp_path, capsys):
        data = copy.deepcopy(EXAMPLE1)
        data["boundary"]["lambda1"] = math.sin(1.0) / math.cos(0.9)
        data["boundary"]["lambda2"] = 0.0
        del data["lipschitz"]
        del data["nagumo"]
        cfg = _config_file(tmp_path, data)
        assert main(["greens-dump", cfg, "--k", "1"]) == 2
        assert "numerical error" in capsys.readouterr().err


class TestOracleCompare:
    def test_reverse_example(self, problems_dir, capsys):
        assert main(["oracle-compare", _ex1(problems_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 0.49
        cases = {row["case"]: row["sup_diff"] for row in payload["rows"]}
        assert cases["linear-vs-fd"] <= 1e-4
        assert cases["monotone-vs-fd-newton"] <= 1e-4

    def test_inserted_xi_node(self, tmp_path, capsys):
        # xi = 0.123 is not a node of the uniform grid; both checks run on
        # the build_grid nodes
        data = copy.deepcopy(EXAMPLE1)
        data["boundary"]["xi"] = 0.123
        assert main(["oracle-compare", _config_file(tmp_path, data)]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = {row["case"]: row for row in payload["rows"]}
        assert rows["linear-vs-fd"]["sup_diff"] <= 1e-4
        assert rows["monotone-vs-fd-newton"]["sup_diff"] <= 1e-4
        assert rows["monotone-vs-fd-newton"]["grid_n"] == 202

    def test_shift_sign_checked_before_any_build(self, problems_dir, capsys, monkeypatch):
        def no_build(*args, **kwargs):
            raise RuntimeError("oracle-compare built a solver for a refused k")

        monkeypatch.setattr("mibvp.cli.get_solver", no_build)
        assert main(["oracle-compare", _ex1(problems_dir), "--k", "-2"]) == 1
        assert "ordered bracket needs k" in capsys.readouterr().err


class TestNagumo:
    def test_failure_verdict(self, problems_dir, capsys):
        assert main(["nagumo", _ex1(problems_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["success"] is False
        assert payload["P"] is None
        assert payload["tail"] == pytest.approx(0.2289, abs=1e-3)

    def test_success_verdict(self, problems_dir, capsys):
        assert main(["nagumo", _ex2(problems_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["success"] is True
        assert payload["P"] == pytest.approx(5.9795, abs=1e-3)
        assert payload["phi"] == "0.042957*(s^2 + 2.65)"

    def test_config_without_section(self, tmp_path, capsys):
        data = copy.deepcopy(EXAMPLE1)
        del data["nagumo"]
        cfg = _config_file(tmp_path, data)
        assert main(["nagumo", cfg]) == 1
        capsys.readouterr()


class TestParsing:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_config_argument(self, capsys):
        assert main(["check"]) == 1
        capsys.readouterr()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "absent.json")]) == 1
        assert "validation error" in capsys.readouterr().err
