"""Run the benchmark on several seeds and print each end-to-end metric's
median and run-to-run spread (interquartile distance over the median).

    python3 perfbench/spread.py --workloads count,cli --seeds 1-10 --seconds 12

Each run's JSON line is appended to `.perfbench/spread.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="count,equality,certify,cli")
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--seconds", default="12")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    log = os.path.join(ROOT, ".perfbench", "spread.jsonl")
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(first, last + 1):
            started = time.monotonic()
            done = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result["wall_s"] = time.monotonic() - started
            runs.append(result)
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
        print(f"{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
              f"failed/attempted={sorted({(r['failed'], r['attempted']) for r in runs})[:3]}, "
              f"wall mean {statistics.mean(r['wall_s'] for r in runs):.1f} s, "
              f"max {max(r['wall_s'] for r in runs):.1f} s")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:12s} median {median:12.4f}  spread {(q3 - q1) / median:6.3f}")


if __name__ == "__main__":
    main()
