"""Benchmark for the dpmps CLI: one workload per run, checked results.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

The run writes the workload's configs (generated from the seed) under
`.perfbench_work/`, then runs passes until the next pass would end after
`--seconds`; every pass runs `dpmps.cli.main` once per operation in a
fresh child interpreter, so each child's peak RSS belongs to one pass.
Several import-only children add `setup_s` samples.  With `--trace 1` the
run makes one untraced pass, one pass traced with tracemalloc (for the
per-span peak memory only), then traced passes without tracemalloc, and
reports the per-layer metrics instead of the end-to-end ones.  After the
passes, each distinct result document is checked (see checks.py).

Every metric is printed as `name value unit`; the last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}.  The exit code
is 0 only when every operation succeeded and passed its checks.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = ".perfbench_work"
SETUP_SAMPLES = 9
RUN_BUDGET_S = 170.0


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def metric_unit(name: str) -> str:
    """Unit of a metric, from its name's suffix."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_frac"):
        return "fraction"
    return {"dp.transition_flop": "flop",
            "dp.transition_bytes": "B"}.get(name, "count")


class Run:
    """Children, samples and results of one benchmark run."""

    def __init__(self, workload: str, seed: int, scale: str, work_dir: str):
        self.ops = workloads.operations(workload, seed, scale)
        self.started = now()
        self.env = dict(os.environ, **workloads.THREAD_ENV)
        self.config_paths, self.out_paths = [], []
        for k, cfg in enumerate(self.ops):
            out = os.path.join(work_dir, f"op{k}.out.json")
            path = os.path.join(work_dir, f"op{k}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(dict(cfg, output={"path": out}), f)
            self.config_paths.append(path)
            self.out_paths.append(out)
        self.setup_samples = []
        self.passes = []            # (mode, child result or None, docs)

    def spawn(self, mode: str, args: list):
        """Run one child to completion; its parsed result or None."""
        t_spawn = now()
        timeout = max(1.0, RUN_BUDGET_S - (t_spawn - self.started))
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, repr(t_spawn), mode] + args,
                stdout=subprocess.PIPE, env=self.env, timeout=timeout,
                check=False, text=True)
        except subprocess.TimeoutExpired:
            print(f"child ({mode}) exceeded {timeout:.0f} s", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"child ({mode}) exited with {proc.returncode}",
                  file=sys.stderr)
            return None
        result = json.loads(lines[-1])
        self.setup_samples.append(result["setup_s"])
        return result

    def measure_setup(self, count: int):
        for _ in range(count):
            self.spawn("setup", [])

    def one_pass(self, mode: str) -> float:
        t0 = now()
        result = self.spawn(mode, self.config_paths)
        docs = []
        for out in self.out_paths:
            if os.path.exists(out):
                with open(out, encoding="utf-8") as f:
                    docs.append(json.load(f))
                os.remove(out)
            else:
                docs.append(None)
        self.passes.append((mode, result, docs))
        return now() - t0

    def completed(self, mode: str) -> list:
        return [p for p in self.passes if p[0] == mode and p[1]]

    def passes_until(self, mode: str, seconds: float):
        """At least one pass; another only if it should end in time."""
        took = [self.one_pass(mode)]
        while (now() - self.started) + statistics.median(took) <= seconds:
            took.append(self.one_pass(mode))

    def verdicts(self):
        """(attempted, failed, problems) over every operation of every
        pass; identical result documents are checked once."""
        golden = checks.load_golden()
        seen = {}
        attempted = failed = 0
        problems = []
        for _, result, docs in self.passes:
            codes = result["codes"] if result else [None] * len(self.ops)
            for k, (cfg, code, doc) in enumerate(zip(self.ops, codes, docs)):
                attempted += 1
                if code != 0:
                    failed += 1
                    problems.append(f"op{k}: exit code {code}")
                    continue
                key = json.dumps(
                    {a: b for a, b in (doc or {}).items() if a != "timings"},
                    sort_keys=True)
                if key not in seen:
                    seen[key] = checks.check_operation(cfg, doc, golden)
                if seen[key]:
                    failed += 1
                    problems += [f"op{k}: {p}" for p in seen[key]]
        return attempted, failed, problems


def median_of(passes: list, key: str) -> float:
    return statistics.median(r[key] for _, r, _ in passes)


def end_to_end(run: Run):
    """(metrics, sample counts) of an untraced run, or None."""
    untraced = run.completed("pass")
    if not untraced or not run.setup_samples:
        return None
    values = {"wall_s": median_of(untraced, "wall_s"),
              "setup_s": statistics.median(run.setup_samples),
              "peak_rss_mib": median_of(untraced, "peak_rss_mib")}
    samples = {"wall_s": len(untraced), "setup_s": len(run.setup_samples),
               "peak_rss_mib": len(untraced)}
    return values, samples


def per_layer(run: Run):
    """(metrics, sample counts) of a traced run, or None.  Peak-memory
    metrics come from the tracemalloc passes, all others from the timing
    passes, whose wall time against the untraced pass gives the overhead."""
    untraced = run.completed("pass")
    traced, memory = run.completed("trace"), run.completed("memory")
    if not (untraced and traced and memory):
        return None
    values, samples = {}, {}
    for name in traced[0][1]["layers"]:
        source = memory if name.endswith("_mib") else traced
        values[name] = statistics.median(r["layers"][name]
                                         for _, r, _ in source)
        samples[name] = len(source)
    values["trace_overhead_frac"] = (median_of(traced, "wall_s")
                                     / median_of(untraced, "wall_s") - 1.0)
    samples["trace_overhead_frac"] = len(traced)
    return values, samples


def read_text(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read().strip()


def environment(seed: int, run: Run) -> dict:
    import numpy as np
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (read_text(os.path.join(idx, n))
                                 for n in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}-{kind}"] = size
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = next((r.get("blas_threads") for _, r, _ in run.passes if r),
                   None)
    return {"nproc": os.cpu_count(), "cpu": cpu, "caches": caches,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "dp_threads": 1, "seed": seed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=workloads.SCALES, default="full",
                    help="tiny shrinks every workload (for the self-test)")
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running child before this process ends
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join("src", "dpmps", "cli.py")):
        print("error: run from the root of a dpmps checkout "
              "(src/dpmps/cli.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        run = Run(args.workload, args.seed, args.scale, work_dir)
        run.measure_setup(SETUP_SAMPLES)
        if args.trace:
            run.one_pass("pass")
            run.one_pass("memory")
            run.passes_until("trace", args.seconds)
        else:
            run.passes_until("pass", args.seconds)
        attempted, failed, problems = run.verdicts()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)

    measured = per_layer(run) if args.trace else end_to_end(run)
    values, samples = measured or ({}, {})
    metrics = {name: {"value": v, "unit": metric_unit(name)}
               for name, v in values.items()}

    print("env " + json.dumps(environment(args.seed, run)))
    for p in problems:
        print(f"check failed: {p}")
    if args.trace and measured:
        spans = run.completed("trace")[0][1]["spans"]
        for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"span {name} calls={row['calls']} total_s={row['total_s']:.4g}"
                  f" self_s={row['self_s']:.4g}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']} (n={samples[name]})")
    print(f"error_rate {failed / max(attempted, 1):.6g} fraction "
          f"({failed} of {attempted} operations)")
    correct = measured is not None and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
