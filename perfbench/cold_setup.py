"""The set-up a fresh process pays before its first solve.

Import mibvp, load the configs, build each problem and run scan_k over the
config's scan range, which certifies the k intervals the benchmark draws
from. Run as a script with config paths, it is the process whose wall time
is `setup_s` for the in-process workloads:

    python3 perfbench/cold_setup.py problems/example1.json problems/example2.json
"""
import sys


def setup(paths):
    """{path: (config, problem, certified intervals)} for each config path."""
    from mibvp import ProblemConfig, Regime, build_problem, scan_k

    loaded = {}
    for path in paths:
        config = ProblemConfig.load(path)
        problem = build_problem(config)
        lo, hi, steps = config.scan_range()
        regime = Regime.POSITIVE_K if lo > 0 else Regime.NEGATIVE_K
        intervals = scan_k(config.boundary_config, problem.lip, regime, lo, hi, steps)
        loaded[path] = (config, problem, intervals)
    return loaded


if __name__ == "__main__":
    setup(sys.argv[1:])
