"""Record golden.json: the checked fields of every default-seed operation.

Usage, from the root of a checkout:

    python3 perfbench/record_golden.py

Runs each operation of every workload at the default seed, at both
scales, through `dpmps.cli.main` in this process, and writes the config
with its golden fields (see checks.golden_fields).  Re-record only when a
change is meant to alter results, and say so in the change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

os.environ.update(workloads.THREAD_ENV)   # before numpy loads, as in run.py
sys.path.insert(0, "src")

import checks  # noqa: E402
from dpmps import cli  # noqa: E402


def main() -> int:
    work = os.path.join(".perfbench_work", f"golden-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cfg_path, out_path = os.path.join(work, "op.json"), os.path.join(work, "out.json")
    entries = []
    try:
        for scale in workloads.SCALES:
            for name in workloads.NAMES:
                for cfg in workloads.operations(name, workloads.DEFAULT_SEED,
                                                scale):
                    with open(cfg_path, "w", encoding="utf-8") as f:
                        json.dump(dict(cfg, output={"path": out_path}), f)
                    if cli.main(["--config", cfg_path]) != 0:
                        raise SystemExit(f"{name} ({scale}) failed")
                    with open(out_path, encoding="utf-8") as f:
                        doc = json.load(f)
                    entries.append({"workload": name, "scale": scale,
                                    "config": cfg,
                                    "expect": checks.golden_fields(cfg, doc)})
                    print(name, scale, file=sys.stderr)
    finally:
        for p in (cfg_path, out_path):
            if os.path.exists(p):
                os.remove(p)
        os.rmdir(work)
    with open(checks.GOLDEN_PATH, "w", encoding="utf-8") as f:
        json.dump({"seed": workloads.DEFAULT_SEED, "operations": entries}, f,
                  indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
