#!/usr/bin/env python3
"""Host-time benchmark of the apar package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-paper --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

Each workload runs in its own fresh interpreter (``worker.py``), one after
another, with BLAS and OpenMP pinned to one thread.  The last line printed
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  See perfbench/README.md for what each metric means per workload.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("serve-paper", "decode-bench", "prep-corpus")
CHILD_TIMEOUT_S = 170
SINGLE_THREAD = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    """Run one workload in a child interpreter; None if it failed."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", **SINGLE_THREAD)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds), str(trace)]
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"error: {workload} ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {workload} exited with code {proc.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"error: {workload} printed no result", file=sys.stderr)
        return None
    print("\n".join(lines[:-1]))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[name] = result
        if len(names) > 1:
            print(json.dumps({name: result}))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
