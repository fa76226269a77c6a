"""Workload definitions: the run configs each workload feeds to the CLI.

A workload is a list of operations; each operation is one `dpmps` run
config.  Configs depend only on (workload, seed, scale), so the same seed
always gives the same inputs.  `scale="tiny"` shrinks every workload so the
self-test runs the whole harness in seconds.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1
# one BLAS thread: steadier timings on a small shared machine, and the
# DP's own --threads stays at its default of 1
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
NAMES = ("dp-fine-short", "dp-long-uniform", "net-d2", "commuting-dense")
SCALES = ("full", "tiny")


def _solve(model: dict, delta: float) -> dict:
    return {"model": model, "solver": {"D": 1, "delta": delta},
            "run": {"mode": "solve"}}


def _net_stats(D: int, delta: float, epsilon_op) -> dict:
    solver = {"D": D, "delta": delta}
    if epsilon_op is not None:
        solver["epsilon_op"] = epsilon_op
    return {"model": {"name": "heisenberg", "n": 6}, "solver": solver,
            "run": {"mode": "net-stats"}}


def operations(workload: str, seed: int, scale: str = "full") -> list:
    """Run configs (without output paths) for one pass of a workload."""
    tiny = scale == "tiny"
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    if workload == "dp-fine-short":
        model = {"name": "random_hermitian", "n": 6 if tiny else 12,
                 "seed": seed}
        return [_solve(model, 0.25 if tiny else 0.05)]
    if workload == "dp-long-uniform":
        g = 0.5 + random.Random(seed).random()
        model = {"name": "transverse_ising", "n": 12 if tiny else 800,
                 "params": {"g": g}}
        return [_solve(model, 0.25 if tiny else 0.1)]
    if workload == "net-d2":
        # seed-independent; tiny keeps the two thresholds but drops to D=1
        D, delta = (1, 0.25) if tiny else (2, 0.25)
        return [_net_stats(D, delta, 0.05), _net_stats(D, delta, None)]
    if workload == "commuting-dense":
        n = 6 if tiny else 10
        return [{"model": {"name": "rotated_classical", "n": n,
                           "seed": seed + k},
                 "run": {"mode": "commuting"}} for k in range(6)]
    raise ValueError(f"unknown workload {workload!r}")
