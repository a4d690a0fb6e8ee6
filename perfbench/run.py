"""Benchmark entry point for padicmeasure.

    python3 perfbench/run.py --workload {count,equality,certify,cli} \
        --seed N --seconds S --trace {0,1} [--small] [--wrong-expected]

Run from the root of a source checkout; the package is imported from `src`
and the input generators from `tests`, nothing needs installing.  The
workload runs in one fresh worker process (worker.py).  Set-up time is
sampled in several more fresh processes that stop once their inputs are
ready, and reported as the median.  Times are CPU times scaled to the
machine's reference speed (speed.py).  The last line of standard output is a
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
See README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 7  # the worker's own set-up counts as one of them


def _worker(args, extra: list[str]) -> tuple[float, dict]:
    """Run one worker; returns (spawn time, its JSON result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out-dir", OUT_DIR, *extra]
    spawned = time.monotonic()
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=170)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if done.returncode != 0 or not lines:
        raise SystemExit(f"worker for {args.workload} exited with {done.returncode}")
    return spawned, json.loads(lines[-1])


def _setup_s(result: dict) -> float:
    """A worker's set-up CPU time, scaled to the reference speed."""
    return result["ready_cpu"] * speed.REFERENCE_S / result["setup_probe"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("count", "equality", "certify", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="one short round of every operation and check")
    parser.add_argument("--wrong-expected", action="store_true",
                        help="perturb the first expected value, to show checks can fail")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "padicmeasure", "__init__.py")):
        raise SystemExit("run from a padicmeasure checkout: src/padicmeasure is missing")
    os.makedirs(OUT_DIR, exist_ok=True)
    # one CPU for this process and every process it starts: a `cli` child
    # then runs where the worker's speed probe runs (speed.py), and no
    # process moves between CPUs while it is timed
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for sub in ("src", "tests", "perfbench"):
        compileall.compile_dir(os.path.join(ROOT, sub), quiet=1)

    extra = (["--small"] if args.small else []) + (
        ["--wrong-expected"] if args.wrong_expected else [])
    setups, setup_walls = [], []
    if not args.trace and not args.small:
        for _ in range(SETUP_SAMPLES - 1):
            spawned, result = _worker(args, extra + ["--setup-only"])
            setups.append(_setup_s(result))
            setup_walls.append(result["ready"] - spawned)
    spawned, result = _worker(args, extra)
    setups.append(_setup_s(result))
    setup_walls.append(result["ready"] - spawned)

    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    summary = {"correct": result["correct"], "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({**summary, "setup_samples": setups, "setup_wall_samples": setup_walls,
                   **{k: result[k] for k in ("rounds", "timed_s", "probe_median", "cpu",
                                             "wall", "p50_ms_by_kind")}},
                  handle, indent=1)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
