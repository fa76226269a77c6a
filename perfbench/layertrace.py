"""Outside-in span tracer: wraps the public functions of each dpmps layer.

The benchmark installs this in a traced child process only.  It replaces
every module attribute that holds a wrapped function object, because
`dp`, `cli` and `commuting` import functions by name.  Each call records a
span (name, parent, start, end) and, from the return value, the counts the
per-layer metrics need.  Self time is a span's duration minus the time its
child spans and the tracer's own bookkeeping took.

Per-element helpers are left unwrapped: `net-d2` alone calls them hundreds
of thousands of times, so wrapping them would measure the tracer.

This wrapper stands in until the library emits its own trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "hamiltonian", "epsnet", "dp", "mps", "oracle", "commuting")
PER_ELEMENT = {"left_gram_offdiag", "mu_of", "local_energy",
               "local_energy_left", "local_energy_right"}
MIB = 1024.0 * 1024.0


class _Frame:
    __slots__ = ("name", "parent", "inner", "peak")

    def __init__(self, name: str, parent: str | None):
        self.name = name
        self.parent = parent
        self.inner = 0.0        # time covered by child spans and bookkeeping
        self.peak = 0           # highest traced bytes seen inside the span


class Tracer:
    """Span and counter recorder; one per traced pass."""

    def __init__(self, track_memory: bool):
        self.track_memory = track_memory
        self.spans = []             # (name, parent, start, end, self_s, peak_b)
        self.counts = defaultdict(float)
        self.term_keys = set()
        self._stack = []

    # -- installation -------------------------------------------------
    def install(self):
        """Wrap every public layer function, wherever it is bound."""
        modules = {name: importlib.import_module(f"dpmps.{name}")
                   for name in LAYERS}
        originals = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and attr not in PER_ELEMENT):
                    originals[id(obj)] = (obj, f"{layer}.{attr}")
        wrappers = {key: self._wrap(name, fn)
                    for key, (fn, name) in originals.items()}
        package = importlib.import_module("dpmps")
        for mod in list(modules.values()) + [package]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and originals[id(obj)][0] is obj:
                    setattr(mod, attr, wrappers[id(obj)])

    def start(self):
        if self.track_memory:
            tracemalloc.start()

    def stop(self):
        if self.track_memory:
            tracemalloc.stop()

    # -- recording ----------------------------------------------------
    def _wrap(self, name: str, fn):
        on_return = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_enter = time.perf_counter()
            parent = self._stack[-1] if self._stack else None
            frame = _Frame(name, parent.name if parent else None)
            if self.track_memory:
                base, peak = tracemalloc.get_traced_memory()
                if parent is not None:
                    parent.peak = max(parent.peak, peak)
                tracemalloc.reset_peak()
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
            if self.track_memory:
                _, peak = tracemalloc.get_traced_memory()
                frame.peak = max(frame.peak, peak)
                if parent is not None:
                    parent.peak = max(parent.peak, frame.peak)
                peak_added = frame.peak - base
            else:
                peak_added = 0
            if on_return is not None:
                on_return(self, args, kwargs, out)
            self.spans.append((name, frame.parent, t0, t1,
                               (t1 - t0) - frame.inner, peak_added))
            if parent is not None:
                parent.inner += time.perf_counter() - t_enter
            return out

        return wrapper

    # -- summary ------------------------------------------------------
    def totals(self) -> dict:
        """Per function: calls, inclusive seconds, self seconds, peak MiB."""
        out = {}
        for name, _, t0, t1, self_s, peak_b in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "peak_mib": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += self_s
            row["peak_mib"] = max(row["peak_mib"], peak_b / MIB)
        return out


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_transition(tr, args, kwargs, out):
    net = _arg(args, kwargs, 0, "net")
    n = len(net.pairs)
    D, d = net.pairs[0].b.shape[0], net.pairs[0].b.shape[1]
    tr.counts["transition_flop"] += 8.0 * n * n * (d * D) ** 2
    tr.counts["transition_bytes"] += 16.0 * n * n


def _count_mask(tr, args, kwargs, out):
    tr.counts["mask_calls"] += 1
    tr.counts["mask_mean_sum"] += float(out.mean())


def _count_extend(tr, args, kwargs, out):
    net = _arg(args, kwargs, 1, "net")
    hterm = _arg(args, kwargs, 2, "hterm")
    key = np.ascontiguousarray(hterm).tobytes()
    if key in tr.term_keys:
        tr.counts["term_repeats"] += 1
    tr.term_keys.add(key)
    tr.counts["live_frac_sum"] += len(out) / len(net.pairs)


def _count_family(tr, args, kwargs, out):
    cert = out[1]
    tr.counts["family_candidates"] += cert.candidate_count
    tr.counts["family_kept_norm"] += cert.survivors_norm_filter
    tr.counts["family_kept_overlap"] += cert.survivors_overlap_filter
    tr.counts["family_dropped_gs"] += cert.dropped_degenerate
    tr.counts["family_size"] += cert.size


def _count_pair_net(tr, args, kwargs, out):
    tr.counts["pair_net_size"] += out.size
    tr.counts["pair_filtered_out"] += out.filtered_out


_COUNTERS = {
    "dp.transition_energies": _count_transition,
    "dp.stitching_mask": _count_mask,
    "dp.extend_list": _count_extend,
    "epsnet.orthonormal_family": _count_family,
    "epsnet.build_pair_net": _count_pair_net,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metric values of one traced pass, by metric name."""
    t = tracer.totals()
    c = tracer.counts

    def get(name, key):
        return t.get(name, {}).get(key, 0.0)

    extend_calls = get("dp.extend_list", "calls")
    pair_size = c["pair_net_size"]
    return {
        "dp.initial_list_s": get("dp.initial_list", "total_s"),
        "dp.solve_self_s": get("dp.solve", "self_s"),
        "dp.transition_energies_s": get("dp.transition_energies", "total_s"),
        "dp.transition_energies_calls": get("dp.transition_energies", "calls"),
        "dp.transition_repeat_frac": _ratio(c["term_repeats"], extend_calls),
        "dp.transition_flop": c["transition_flop"],
        "dp.transition_bytes": c["transition_bytes"],
        "dp.stitching_mask_s": get("dp.stitching_mask", "total_s"),
        "dp.admissible_frac": _ratio(c["mask_mean_sum"], c["mask_calls"]),
        "dp.min_reduce_s": get("dp.extend_list", "self_s"),
        "dp.extend_list_calls": extend_calls,
        "dp.live_frac": _ratio(c["live_frac_sum"], extend_calls),
        "dp.peak_traced_mib": get("dp.solve", "peak_mib"),
        "epsnet.pair_filter_s": get("epsnet.build_pair_net", "self_s"),
        "epsnet.pair_net_size": pair_size,
        "epsnet.pair_keep_frac": _ratio(pair_size,
                                        pair_size + c["pair_filtered_out"]),
        "epsnet.build_end_net_s": get("epsnet.build_end_net", "total_s"),
        "epsnet.orthonormal_family_s": get("epsnet.orthonormal_family",
                                           "total_s"),
        "epsnet.family_candidates": c["family_candidates"],
        "epsnet.family_kept_norm": c["family_kept_norm"],
        "epsnet.family_kept_overlap": c["family_kept_overlap"],
        "epsnet.family_dropped_gs": c["family_dropped_gs"],
        "epsnet.family_size": c["family_size"],
        "epsnet.pair_net_peak_mib": get("epsnet.build_pair_net", "peak_mib"),
        "mps.expectation_full_s": get("mps.expectation_full", "total_s"),
        "mps.canonicalize_s": get("mps.canonicalize", "total_s"),
        "mps.to_dense_s": get("mps.to_dense", "total_s"),
        "mps.to_dense_calls": get("mps.to_dense", "calls"),
        "commuting.refine_self_s": get("commuting.refine_to_eigenstate",
                                       "self_s"),
        "commuting.apply_projector_s": get("commuting.apply_projector",
                                           "total_s"),
        "commuting.verify_eigenstate_s": get("commuting.verify_eigenstate",
                                             "total_s"),
        "commuting.eig_projectors_s": get("commuting.eig_projectors",
                                          "total_s"),
        "oracle.exact_ground_s": get("oracle.exact_ground", "self_s"),
        "oracle.exact_ground_peak_mib": get("oracle.exact_ground", "peak_mib"),
        "hamiltonian.to_dense_hamiltonian_s": get(
            "hamiltonian.to_dense_hamiltonian", "total_s"),
        "hamiltonian.to_dense_hamiltonian_calls": get(
            "hamiltonian.to_dense_hamiltonian", "calls"),
        "hamiltonian.build_model_s": get("hamiltonian.build_model", "total_s"),
        "hamiltonian.group_boundaries_s": get("hamiltonian.group_boundaries",
                                              "total_s"),
        "hamiltonian.is_commuting_s": get("hamiltonian.is_commuting",
                                          "total_s"),
        "cli.execute_s": get("cli.execute", "total_s"),
        "cli.io_s": get("cli.main", "total_s") - get("cli.execute", "total_s"),
    }
