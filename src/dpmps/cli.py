"""Config-driven command line front end.

Reads a JSON run configuration, runs one mode, and writes a
machine-readable result document.  Each `run.mode` has one handler in the
mode table `_HANDLERS` (`MODES` is its keys); `execute` builds the model,
calls the handler, and adds what every document shares: the model echo,
the warnings (bounds vacuous whenever the document's `epsilon_cert` is at
least 1), timings and digest.

`main` maps each failure onto its exit code by the error's base type; the
exit codes and their causes are listed once, in the `errors` docstring.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from decimal import Decimal

from numpy.linalg import LinAlgError

from . import commuting as cm
from . import dp, epsnet, oracle
from .errors import ConfigError, InfeasibleError, NumericalError
from .hamiltonian import build_model, dense_dim, group_boundaries, is_commuting
from .mps import canonicalize, mps_to_json, product_basis_state

@dataclass
class RunConfig:
    """Validated run configuration with defaults filled in."""

    model_name: str
    model_params: dict
    n: int
    seed: int | None
    D: int
    delta: float
    epsilon_op: float | None
    target_error: float | None
    epsilon: float | None
    cap: int
    mode: str
    out_path: str | None
    emit_mps: bool
    start: str
    sweeps: int
    verbose: bool = False


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _finite_float(val) -> float:
    """val as a finite float, else NaN, which fails every range check."""
    try:
        x = float(val) if _is_number(val) else math.nan
    except OverflowError:
        x = math.nan
    return x if math.isfinite(x) else math.nan


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer past the int-to-str digit limit,
        # or nesting past the recursion limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    for section in ("model", "solver", "run", "output"):
        if not isinstance(doc.get(section, {}), dict):
            raise ConfigError(f"{section} must be an object")
    model = doc.get("model", {})
    solver = doc.get("solver", {})
    run = doc.get("run", {})
    output = doc.get("output", {})

    name = model.get("name")
    if not isinstance(name, str):
        raise ConfigError("model.name is required")
    n = model.get("n")
    if not _is_int(n) or n < 3:
        raise ConfigError("model.n must be an integer >= 3")
    seed = model.get("seed")
    if seed is not None and not _is_int(seed):
        raise ConfigError("model.seed must be an integer")
    params = {} if model.get("params") is None else model["params"]
    if not isinstance(params, dict) or not all(
            _is_number(v) for v in params.values()):
        raise ConfigError("model.params must be an object of numbers")

    D = solver.get("D", 1)
    if not _is_int(D) or D < 1:
        raise ConfigError("solver.D must be an integer >= 1")
    delta = _finite_float(solver.get("delta", 0.25))
    if not 0.0 < delta <= 0.5:
        raise ConfigError("solver.delta must lie in (0, 0.5]")
    cap = solver.get("cap", epsnet.DEFAULT_CAP)
    if not _is_int(cap) or cap < 1:
        raise ConfigError("solver.cap must be a positive integer")
    eps = {}
    for key in ("epsilon_op", "target_error", "epsilon"):
        val = solver.get(key)
        eps[key] = None if val is None else _finite_float(val)
        if val is not None and not eps[key] > 0.0:
            raise ConfigError(f"solver.{key} must be a positive finite number")

    mode = run.get("mode")
    if mode not in MODES:
        raise ConfigError(f"run.mode must be one of {MODES}")
    sweeps = run.get("sweeps", 4)
    if not _is_int(sweeps) or sweeps < 0:
        raise ConfigError("run.sweeps must be a nonnegative integer")
    start = run.get("start", "all_up")
    if start not in ("all_up", "all_down"):
        raise ConfigError("run.start must be 'all_up' or 'all_down'")
    out_path = output.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError("output.path must be a string or null")

    return RunConfig(
        model_name=name, model_params=params,
        n=n, seed=seed, D=D, delta=delta, cap=cap, **eps, mode=mode,
        out_path=out_path, emit_mps=bool(output.get("emit_mps")),
        start=start, sweeps=sweeps,
    )


def _epsilon_op_for(cfg: RunConfig, hg, default=None) -> float:
    """solver.epsilon_op, else the value solver.target_error implies, else
    `default`, else the certified epsilon of the pair net, for the
    boundary-grouped chain hg."""
    if cfg.epsilon_op is not None:
        return cfg.epsilon_op
    if cfg.target_error is not None:
        eps = dp.epsilon_for_target(cfg.target_error, hg.J, cfg.D, hg.n)
        if eps > 0.0:
            return eps
        raise ConfigError("solver.target_error gives an epsilon_op of 0")
    if default is not None:
        return default
    return epsnet.certified_epsilon(hg.dims[1], cfg.D, cfg.delta)


def _nets(cfg: RunConfig, hg, eps_op: float) -> tuple:
    """(pair net, end net) of the run's D, delta and cap for the
    boundary-grouped chain hg."""
    return (epsnet.build_pair_net(cfg.D, hg.dims[1], cfg.delta, eps_op,
                                  cfg.cap),
            epsnet.build_end_net(cfg.D, hg.dims[0], cfg.delta, cfg.cap))


def _solve(cfg: RunConfig, h0) -> dict:
    hg = group_boundaries(h0, cfg.D)
    sr = dp.solve(hg, cfg.D, cfg.delta, epsilon_op=_epsilon_op_for(cfg, hg),
                  cap=cfg.cap)
    out = {
        "timings": sr.timings,
        "e_alg": sr.e_alg, "e_true": sr.e_true,
        "lower_bound": sr.lower_bound, "upper_slack": sr.upper_slack,
        "N": sr.N, "end_net_size": sr.n_end,
        "epsilon_cert": sr.epsilon_used, "epsilon_op": sr.epsilon_op,
        "assignment": sr.assignment, "digest": sr.digest,
        "omega_defect_max": sr.omega_defect_max,
        "dp_steps": sr.dp_steps, "dp_lists": sr.dp_lists,
    }
    if cfg.emit_mps and cfg.out_path:
        out["mps"] = mps_to_json(sr.omega)
    return out


def _oracle(cfg: RunConfig, h0) -> dict:
    gt = oracle.exact_ground(h0)
    return {"e_exact": gt.e0, "degeneracy": gt.degeneracy, "gap": gt.gap}


def _enumerate(cfg: RunConfig, h0) -> dict:
    hg = group_boundaries(h0, cfg.D)
    eps_op = _epsilon_op_for(cfg, hg)
    pn, en = _nets(cfg, hg, eps_op)
    e_alg, assignment = oracle.enumerate_net_optimum(hg, en, pn, eps_op)
    return {"e_alg": e_alg, "assignment": assignment,
            "N": pn.size, "end_net_size": en.size,
            "epsilon_cert": pn.epsilon_cert, "epsilon_op": eps_op}


def _commuting(cfg: RunConfig, h0) -> dict:
    if not is_commuting(h0):
        raise ConfigError(
            f"model {cfg.model_name!r} is not commuting; "
            "commuting mode requires pairwise-commuting terms"
        )
    e0, ground = oracle.ground_pair(h0)
    rr = cm.refine_to_eigenstate(ground, h0)
    return {
        "energy": rr.energy, "e_exact": e0,
        "chosen": [[t, j, c] for t, j, c in rr.chosen],
        "residual_max": max(rr.residuals),
        "matched_exact": bool(abs(rr.energy - e0) <= 1e-8),
    }


def _funnel(cert: epsnet.NetCertificate) -> dict:
    """One family's filter funnel, in pipeline order."""
    return {"candidates": cert.candidate_count,
            "kept_norm_filter": cert.survivors_norm_filter,
            "kept_overlap_filter": cert.survivors_overlap_filter,
            "dropped_gram_schmidt": cert.dropped_degenerate,
            "size": cert.size}


def _net_stats(cfg: RunConfig, h0) -> dict:
    hg = group_boundaries(h0, cfg.D)
    pn, en = _nets(cfg, hg, _epsilon_op_for(cfg, hg, cfg.epsilon))
    # solver.epsilon sizes the paper's bound; it defaults to the certified one
    eps = cfg.epsilon if cfg.epsilon is not None else pn.epsilon_cert
    # Decimal prints past the int-to-str digit limit a tiny epsilon reaches
    bound = str(Decimal(epsnet.net_size_estimate(cfg.D, hg.dims[1], eps)))
    return {
        "paper_bound": bound,
        "paper_bound_log10": len(bound) - 1,
        "N": pn.size, "end_net_size": en.size,
        "epsilon": eps, "epsilon_cert": pn.epsilon_cert,
        "funnel": {
            "lambda": _funnel(pn.lam_cert), "B": _funnel(pn.b_cert),
            "pairs": {"candidates": pn.size + pn.filtered_out,
                      "kept_left_canonical": pn.size},
            "end": _funnel(en.cert),
        },
    }


def _baseline(cfg: RunConfig, h0) -> dict:
    dense_dim(h0)           # the size guard, before the start state is built
    k = 0 if cfg.start == "all_up" else h0.dims[0] - 1
    v = product_basis_state(h0.n, h0.dims[1], h0.dims[0], [k] * h0.n)
    start = canonicalize(v, h0.n, h0.dims[1], cfg.D, h0.dims[0])
    e = oracle.local_sweep_baseline(h0, start, cfg.sweeps)
    return {"e_baseline": e, "sweeps": cfg.sweeps, "start": cfg.start}


# run.mode -> handler(cfg, ungrouped model) returning the mode's fields
_HANDLERS = {
    "solve": _solve, "oracle": _oracle, "enumerate": _enumerate,
    "commuting": _commuting, "net-stats": _net_stats, "baseline": _baseline,
}
MODES = tuple(_HANDLERS)


def execute(cfg: RunConfig) -> dict:
    """Run the configured mode and return the result document.  With
    `output.emit_mps` and an output path, a solve also returns the MPS
    document under "mps"; `main` writes it beside the result."""
    res = {
        "mode": cfg.mode,
        "model": {"name": cfg.model_name, "params": cfg.model_params,
                  "n": cfg.n, "seed": cfg.seed},
        "warnings": [],
        "timings": {},
    }
    t0 = time.perf_counter()
    try:
        h0 = build_model(cfg.model_name, cfg.model_params, cfg.n, cfg.seed)
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"model {cfg.model_name!r}: {exc}") from exc
    res.update(_HANDLERS[cfg.mode](cfg, h0))
    if res.get("epsilon_cert", 0.0) >= 1.0:
        res["warnings"].append("certified epsilon exceeds 1: bounds vacuous")
    res["timings"]["total_ms"] = 1e3 * (time.perf_counter() - t0)
    res["digest"] = res.get("digest") or _doc_digest(res)
    return res


def _doc_digest(res: dict) -> str:
    doc = {k: v for k, v in res.items() if k not in ("timings", "digest")}
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, default=repr).encode()
    ).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="dpmps",
        description="Net-based dynamic programming for MPS ground states",
    )
    ap.add_argument("--config", required=True, help="path to JSON run config")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as f:
            config_text = f.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"config error: config is not UTF-8: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(config_text)
        cfg.verbose = args.verbose
        res = execute(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4

    mps_doc = res.pop("mps", None)
    try:
        text = json.dumps(res, default=float, allow_nan=False)
        mps_text = None if mps_doc is None else json.dumps(mps_doc,
                                                           allow_nan=False)
    except ValueError as exc:
        print(f"numerical failure: result is not finite: {exc}",
              file=sys.stderr)
        return 4
    if not cfg.out_path:
        print(text)
        return 0
    files = [(cfg.out_path, text + "\n")]
    if mps_text is not None:
        files.append((cfg.out_path + ".mps.json", mps_text))
    try:
        _write_all(files)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    if cfg.verbose:
        print(f"wrote {cfg.out_path}")
    return 0


def _write_all(files: list):
    """Write each (path, text) in order.  If one fails, remove the files
    this call opened, so a failed run leaves no partial output."""
    opened = []
    try:
        for path, text in files:
            with open(path, "w", encoding="utf-8") as f:
                opened.append(path)
                f.write(text)
    except OSError:
        for path in opened:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


if __name__ == "__main__":
    sys.exit(main())
