"""Run the benchmark on several seeds and report each metric's spread.

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.
Run from the repository root::

    python3 perfbench/steady.py --workload planted_exact --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--logs", metavar="DIR",
                        help="also write each run's standard output here")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict = {}
    for seed in seed_list(args.seeds):
        cmd = list(config["command"]) + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(config["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        if args.logs:
            Path(args.logs).mkdir(parents=True, exist_ok=True)
            (Path(args.logs) / f"{args.workload}-{seed}.txt").write_text(proc.stdout)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        row = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    for name, series in values.items():
        median = statistics.median(series)
        if len(series) >= 2 and median:
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / abs(median)
            bound = bounds.get(name)
            note = f" (bound {bound}, {spread / bound:.2f} of it)" if bound else ""
            print(f"{name}: median {median:.5g} spread {spread:.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
