"""One workload in one fresh process: set up, time the operations, check them.

Started by run.py with `src` and `tests` on PYTHONPATH, so that the package's
module-level caches start empty, as they do for a user, and no workload warms
another's.  The last line of standard output is a JSON object for run.py.
"""

from __future__ import annotations

import time

_IMPORT_START = time.perf_counter()
import padicmeasure.cli  # noqa: E402,F401  (imports the whole package)

IMPORT_S = time.perf_counter() - _IMPORT_START

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import layertrace  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, Checker, CliWorkload  # noqa: E402


SETUP_PROBES = 25  # probes timed after set-up, to scale its CPU time


def children_cpu_s() -> float:
    """CPU seconds of the waited-for child processes so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def summary(seconds: list[float], percentile: float) -> dict[str, float]:
    return {"ops_per_s": len(seconds) / sum(seconds),
            "op_p50_ms": statistics.median(seconds) * 1000,
            "op_tail_ms": nearest_rank(seconds, percentile) * 1000}


def tail_beyond(count: int, percentile: float) -> int:
    return count - math.ceil(percentile / 100 * count)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--wrong-expected", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cls = WORKLOADS[args.workload]
    workdir = os.path.join(args.out_dir, f"cli-{os.getpid()}")
    if cls is CliWorkload:
        workload = cls(args.seed, args.small, workdir, os.path.join(root, "src"))
    else:
        workload = cls(args.seed, args.small)
    ready = time.monotonic()
    ready_cpu = time.process_time()  # CPU seconds since this process started
    setup_probe = speed.probe_median(SETUP_PROBES)
    if args.setup_only:
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"ready": ready, "ready_cpu": ready_cpu, "setup_probe": setup_probe}))
        return

    tracer = layertrace.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    # an operation's cost is the CPU time of the process that does the work:
    # this one for the library workloads, the child for `cli`; untraced runs
    # scale it to the machine's reference speed (speed.py)
    cpu_clock = children_cpu_s if cls is CliWorkload else time.process_time
    probe = None if tracer is not None else speed.SpeedProbe()
    done = []  # (op, output, error, cpu seconds, wall seconds, wall start)
    rounds = workload.rounds(args.seconds)
    if probe is not None:
        probe.start()
    try:
        for index in range(rounds):
            for op in workload.round(index):
                error = output = None
                seconds = wall = 0.0
                t0 = time.perf_counter()
                try:
                    if op.prepare is not None:
                        op.prepare()
                    if tracer is not None:
                        tracer.enable()
                    spent = probe.spent if probe is not None else 0.0
                    c0, t0 = cpu_clock(), time.perf_counter()
                    try:
                        output = op.run()
                    finally:
                        wall = time.perf_counter() - t0
                        seconds = cpu_clock() - c0
                        if tracer is not None:
                            tracer.disable()
                    if probe is not None and cls is not CliWorkload:
                        seconds -= probe.spent - spent
                except Exception:  # an operation that raises counts as failed
                    error = traceback.format_exc(limit=3)
                done.append((op, output, error, seconds, wall, t0))
    finally:
        if probe is not None:
            probe.stop()
    usage = resource.RUSAGE_CHILDREN if cls is CliWorkload else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
    layer = tracer.layer_metrics() if tracer is not None else {}

    # checks, after the timed phase
    correct = True
    failed = 0
    latencies: list[float] = []
    walls: list[float] = []
    by_kind: dict[str, list[float]] = {}
    problems = []
    checker_wrong = args.wrong_expected
    cpu_raw: list[float] = []
    for op, output, error, seconds, wall, t0 in done:
        chk = Checker(checker_wrong)
        if error is None:
            try:
                op.check(output, chk)
            except Exception:
                chk.problems.append("check raised: " + traceback.format_exc(limit=3))
            checker_wrong = chk.wrong_expected
        else:
            chk.problems.append(f"operation raised: {error}")
        if chk.problems:
            failed += 1
            if not op.known_fault:
                correct = False
                problems.append((op.kind, chk.problems[:3]))
            continue
        cpu_raw.append(seconds)
        walls.append(wall)
        if probe is not None:
            seconds *= probe.scale(t0, t0 + wall)
        latencies.append(seconds)
        by_kind.setdefault(op.kind, []).append(seconds)
    shutil.rmtree(workdir, ignore_errors=True)
    for kind, msgs in problems[:5]:
        print(f"check failed ({kind}): {msgs}")

    if not latencies:
        raise SystemExit("no operation completed")
    if not args.small and tail_beyond(len(latencies), cls.tail_percentile) < 10:
        raise SystemExit(f"only {len(latencies)} operations completed; "
                         f"p{cls.tail_percentile} needs ten beyond it")
    metrics = {}
    if args.trace:
        for name, (value, unit) in layer.items():
            metrics[name] = {"value": value, "unit": unit}
        metrics["ring.cert_kb"] = {"value": getattr(workload, "cert_bytes", 0) / 1024,
                                   "unit": "KB"}
        metrics["cli.import_s"] = {"value": IMPORT_S, "unit": "s"}
        for verb in layertrace.CLI_VERBS:
            values = by_kind.get(verb) if cls is CliWorkload else None
            metrics[f"cli.{verb}.p50_ms"] = {
                "value": statistics.median(values) * 1000 if values else 0.0, "unit": "ms"}
        tracer.dump(os.path.join(args.out_dir, f"trace-{args.workload}-{args.seed}.json"))
    else:
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms"}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in summary(latencies, cls.tail_percentile).items()}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print(json.dumps({
        "ready": ready,
        "ready_cpu": ready_cpu,
        "correct": correct,
        "attempted": len(done),
        "failed": failed,
        "rounds": rounds,
        "timed_s": sum(wall for *_, wall, _ in done),
        "setup_probe": setup_probe,
        "probe_median": statistics.median(probe.took) if probe is not None else None,
        "cpu": summary(cpu_raw, cls.tail_percentile),
        "wall": summary(walls, cls.tail_percentile),
        "p50_ms_by_kind": {kind: [len(v), statistics.median(v) * 1000]
                           for kind, v in by_kind.items()},
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
