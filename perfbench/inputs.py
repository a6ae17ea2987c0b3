"""Seeded operation lists for the benchmark workloads.

A workload is a sequence of rounds. Round r is a pure function of
(workload, seed, r, scale), and the number of rounds a run makes is a pure
function of (workload, --seconds), so two runs with the same seed and
--seconds make the same operations in the same order, however fast the
machine is: the attempted and failed counts repeat exactly.
Every round covers each k stratum of each config it uses exactly once, so
every completed round carries the same mix of cheap and expensive draws and
the figures of runs with different seeds stay comparable.
"""
from __future__ import annotations

import hashlib
import json
import random

CONFIGS = ("example1", "example2")

# Certified scan_k intervals of the bundled configs at the commit that
# defined the benchmark, rounded inward. They are constants, not the live
# scan_k output, so that later commits are measured on the same k draws;
# run.py checks at set-up that the program still certifies all of them.
CERTIFIED = {"example1": (0.4798, 0.8678), "example2": (-10.0, -1.4473)}

SCALES = {
    "full": {
        "fine_grid": 2001,        # solve-fine grid
        "fine_strata": 2,         # k strata per config in a solve-fine round
        "coarse_grid": 501,       # iterate-coarse grid
        "coarse_strata": 8,       # k strata in an iterate-coarse round
        "cli_grid": 501,          # centre of the cli-session solve grids
        "greens_grid": 101,       # greens-dump --grid-n
        "setup_samples": 3,       # fresh processes timed for setup_s
    },
    # A tiny version of every workload, for the benchmark's own tests.
    "smoke": {
        "fine_grid": 201,
        "fine_strata": 1,
        "coarse_grid": 101,
        "coarse_strata": 2,
        "cli_grid": 101,
        "greens_grid": 11,
        "setup_samples": 1,
    },
}

# k strata per config in a cli-session round: one each for check, solve,
# oracle-compare and greens-dump.
CLI_K_STRATA = 4
# cli-session solve grids lie within this many nodes of the centre grid.
CLI_GRID_HALFWIDTH = 10

DIGEST_ROUNDS = 4

# Nominal wall time of one full-scale round of each workload, measured on a
# 2-vCPU Xeon VM at the commit that defined the benchmark. A run makes
# round(--seconds / nominal) rounds, at least one, so a run takes about
# --seconds there and the amount of work never depends on the clock.
ROUND_SECONDS = {"solve-fine": 26.0, "iterate-coarse": 5.3, "cli-session": 21.0}


def rounds_for(workload, seconds):
    """How many rounds a run of `seconds` makes: fixed work, not a time limit."""
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def _stratified_ks(rng, interval, n):
    """One k per stratum of `interval`, in stratum order.

    The jitter is antithetic: stratum i and its mirror n-1-i use u and 1-u,
    so the mean k of a round, and with it the mean iteration count, is the
    same for every seed. The draws still cover each stratum uniformly.
    """
    lo, hi = interval
    width = (hi - lo) / n
    us = [rng.random() for _ in range((n + 1) // 2)]
    ks = []
    for i in range(n):
        j = min(i, n - 1 - i)
        u = us[j] if i <= n - 1 - i else 1.0 - us[j]
        ks.append(round(lo + (i + u) * width, 6))
    return ks


def _on_lattice(n):
    """True when the uniform n-node grid has xi and eta (multiples of 0.1) as nodes."""
    return (n - 1) % 10 == 0


def _solve_fine(rng, sc):
    per_cfg = {}
    for cfg in CONFIGS:
        ks = _stratified_ks(rng, CERTIFIED[cfg], sc["fine_strata"])
        rng.shuffle(ks)
        per_cfg[cfg] = ks
    order = list(CONFIGS)
    rng.shuffle(order)
    return [{"config": cfg, "k": per_cfg[cfg][i], "grid_n": sc["fine_grid"]}
            for i in range(sc["fine_strata"]) for cfg in order]


def _iterate_coarse(rng, sc):
    ks = _stratified_ks(rng, CERTIFIED["example2"], sc["coarse_strata"])
    rng.shuffle(ks)
    return [{"config": "example2", "k": k, "grid_n": sc["coarse_grid"]} for k in ks]


def _cli_session(rng, sc):
    centre = sc["cli_grid"]
    grids = range(centre - CLI_GRID_HALFWIDTH, centre + CLI_GRID_HALFWIDTH + 1)
    on = [n for n in grids if _on_lattice(n)]
    off = [n for n in grids if not _on_lattice(n)]
    # One solve of the round runs on a grid that has xi and eta as uniform
    # nodes, the other on a grid where build_grid has to insert them.
    solve_grids = [rng.choice(on), rng.choice(off)]
    rng.shuffle(solve_grids)
    ops = []
    for cfg, grid_n in zip(CONFIGS, solve_grids):
        ks = _stratified_ks(rng, CERTIFIED[cfg], CLI_K_STRATA)
        rng.shuffle(ks)
        k_check, k_solve, k_oracle, k_greens = (repr(k) for k in ks)
        ops += [
            {"config": cfg, "argv": ["check", "--k", k_check]},
            {"config": cfg, "argv": ["scan-k"]},
            {"config": cfg, "argv": ["nagumo"]},
            {"config": cfg, "argv": ["solve", "--k", k_solve, "--grid-n", str(grid_n)]},
            {"config": cfg, "argv": ["oracle-compare", "--k", k_oracle]},
            {"config": cfg, "argv": ["greens-dump", "--k", k_greens,
                                     "--grid-n", str(sc["greens_grid"])]},
        ]
    rng.shuffle(ops)
    return ops


ROUND_BUILDERS = {
    "solve-fine": _solve_fine,
    "iterate-coarse": _iterate_coarse,
    "cli-session": _cli_session,
}
WORKLOADS = tuple(ROUND_BUILDERS)


def round_ops(workload, seed, r, scale="full"):
    """The operations of round r, as plain JSON-serialisable dicts."""
    rng = random.Random("%s/%d/%d" % (workload, seed, r))
    return ROUND_BUILDERS[workload](rng, SCALES[scale])


def inputs_digest(workload, seed, scale, config_bytes):
    """sha256 over the first rounds and the config files the program reads."""
    h = hashlib.sha256()
    for r in range(DIGEST_ROUNDS):
        h.update(json.dumps(round_ops(workload, seed, r, scale), sort_keys=True).encode())
    for name in sorted(config_bytes):
        h.update(name.encode())
        h.update(config_bytes[name])
    return h.hexdigest()
