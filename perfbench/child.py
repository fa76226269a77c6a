"""One pass of a workload in a fresh interpreter.

Usage, from the root of a checkout (`run.py` starts it):

    python3 perfbench/child.py SPAWN_T MODE [CONFIG ...]

SPAWN_T is the parent's CLOCK_MONOTONIC reading just before it started this
process, so `setup_s` covers interpreter start-up plus `import dpmps.cli`.
MODE is `setup` (import only), `pass` (run `dpmps.cli.main` once per
config, in order), `trace` (the same with the layer tracer installed) or
`memory` (the tracer plus tracemalloc, for per-span peak memory; its
times are inflated by tracemalloc and not used).
The last stdout line is a JSON object with `setup_s` and, for a pass, the
pass wall time, the peak RSS read right after the pass, and each
operation's exit code (null when `main` raised).  Each config names the
path its result document goes to; the parent reads those.
"""

import json
import resource
import sys
import time
import traceback


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def run_pass(configs: list, mode: str) -> dict:
    import dpmps.cli
    tracer = None
    if mode in ("trace", "memory"):
        from layertrace import Tracer
        tracer = Tracer(track_memory=mode == "memory")
        tracer.install()
        tracer.start()
    codes = []
    t0 = time.perf_counter()
    for path in configs:
        try:
            codes.append(dpmps.cli.main(["--config", path]))
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc()
            codes.append(None)
    wall_s = time.perf_counter() - t0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"wall_s": wall_s, "peak_rss_mib": peak_rss_mib, "codes": codes}
    if tracer is not None:
        tracer.stop()
        from layertrace import layer_metrics
        out["layers"] = layer_metrics(tracer)
        out["spans"] = tracer.totals()
    return out


def main() -> int:
    spawn_t, mode, configs = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    sys.path.insert(0, "src")
    import dpmps.cli  # noqa: F401  (this import is what setup_s times)
    result = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - spawn_t}
    if mode != "setup":
        import numpy as np
        result.update(run_pass(configs, mode))
        result["blas_threads"] = blas_threads()
        result["numpy"] = np.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
