"""Self-test of the benchmark harness at tiny sizes.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Checks that:
  * every workload runs end to end, untraced and traced, with no failed
    operation and exactly the metrics BENCHMARK.json names;
  * a corrupted result document (e_alg shifted by 1e-6, one assignment
    index changed, a wrong net size or exact energy) counts as a failed
    operation, so the checker really checks;
  * in a directory holding only BENCHMARK.json and the benchmark's files,
    the benchmark exits nonzero without printing a result.
Exits nonzero on the first failed expectation.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import workloads  # noqa: E402

RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def expect(cond: bool, what: str):
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def metric_names(key: str) -> set:
    with open("BENCHMARK.json", encoding="utf-8") as f:
        return {m["name"] for m in json.load(f)[key]}


def check_workloads_run():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for name in workloads.NAMES:
            proc = subprocess.run(
                RUN + ["--workload", name, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace), "--scale", "tiny"],
                capture_output=True, text=True, timeout=170, check=False)
            res = last_json(proc.stdout)
            expect(proc.returncode == 0 and res is not None
                   and res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1,
                   f"{name} --trace {trace} runs with no failed operation")
            expect(set(res["metrics"]) == metric_names(key),
                   f"{name} --trace {trace} reports every {key} metric")


def corrupted_runs():
    """(label, workload, op index, corrupt(doc)) cases for the checker."""
    def shift(key):
        def f(doc):
            doc[key] += 1e-6
        return f

    def bump_assignment(doc):
        a = doc["assignment"]
        a[1] = (a[1] + 1) % doc["N"]

    def bump_n(doc):
        doc["N"] += 1

    return [("e_alg + 1e-6", "dp-fine-short", 0, shift("e_alg")),
            ("one assignment index changed", "dp-long-uniform", 0,
             bump_assignment),
            ("net size + 1", "net-d2", 1, bump_n),
            ("e_exact + 1e-6", "commuting-dense", 2, shift("e_exact"))]


def check_corruption_counts():
    sys.path.insert(0, "src")
    for label, name, k, corrupt in corrupted_runs():
        work = os.path.join(bench.WORK_ROOT, f"selftest-{os.getpid()}")
        os.makedirs(work, exist_ok=True)
        try:
            run = bench.Run(name, workloads.DEFAULT_SEED, "tiny", work)
            run.one_pass("pass")
            _, failed, _ = run.verdicts()
            expect(failed == 0, f"{name}: clean pass has no failure")
            mode, result, docs = run.passes[0]
            docs = copy.deepcopy(docs)
            corrupt(docs[k])
            run.passes.append((mode, result, docs))
            attempted, failed, problems = run.verdicts()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        expect(failed == 1 and attempted == 2 * len(run.ops),
               f"{name}: {label} counts as one failed operation "
               f"({problems[0] if problems else 'no problem found'})")


def check_bare_directory():
    bare = os.path.join(bench.WORK_ROOT, f"bare-{os.getpid()}")
    os.makedirs(bare, exist_ok=True)
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            RUN + ["--workload", "dp-fine-short", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=170,
            check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not os.listdir(bench.WORK_ROOT):
            os.rmdir(bench.WORK_ROOT)
    expect(proc.returncode != 0 and last_json(proc.stdout) is None,
           "without the program the benchmark fails and prints no result")


def main() -> int:
    check_workloads_run()
    check_corruption_counts()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
