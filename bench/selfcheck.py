#!/usr/bin/env python3
"""The benchmark's own checks.

    python3 bench/selfcheck.py [--seconds 4]

For every workload this makes one short timed run and two short traced
runs, each in a fresh process (the two traced runs under different hash
seeds), and checks that

* each run prints exactly the metrics BENCHMARK.json lists for its mode,
  with the units it lists;
* the two traced runs report identical counters: every per-layer metric
  except times, shares of time and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seconds: float, trace: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def is_timing(name: str, unit: str) -> bool:
    return unit in ("s", "ms") or name.endswith((".share", "overhead_frac"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=4.0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        results = [
            (0, run(workload, args.seconds, 0, "0")),
            (1, run(workload, args.seconds, 1, "1")),
            (1, run(workload, args.seconds, 1, "2")),
        ]
        for trace, result in results:
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != listed[trace]:
                problems.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} failed solves")
        first, second = results[1][1]["metrics"], results[2][1]["metrics"]
        for name, metric in first.items():
            if not is_timing(name, metric["unit"]) and metric["value"] != second[name]["value"]:
                problems.append(
                    f"{workload}: counter {name} is {metric['value']} then {second[name]['value']}"
                )
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
