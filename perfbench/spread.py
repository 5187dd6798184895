"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload defend --seeds 1-10 [--seconds S] [--trace 0|1]

Runs one after another, never in parallel. For every metric it prints the
median over the runs and the distance between the first and third quartile
as a share of that median, the figure a metric's bound in BENCHMARK.json is
compared with. --seconds defaults to run_seconds from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from spans import median, quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=300)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':40} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        mid = median(series)
        spread = quartile_spread(series) if len(series) > 1 and mid else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  > bound/3"
        print(f"{name:40} {mid:14.6g} {spread:8.4f} {bound if bound is not None else '':>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
