"""The benchmark's checks are not vacuous, it prints what BENCHMARK.json
promises, and it scales timings by the speed probes around them.  The
command tests run its small-size mode, which makes every operation and every
check of a workload once, in seconds."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("count", "equality", "certify", "cli")


def bench(workload: str, *extra: str, trace: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--small", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def declared(kind: str) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"] for m in json.load(handle)[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_value_fails_one_operation(workload):
    honest = bench(workload)
    wrong = bench(workload, "--wrong-expected")
    assert honest["correct"]
    assert set(honest["metrics"]) == declared("end_to_end")
    assert not wrong["correct"]
    assert wrong["attempted"] == honest["attempted"]
    assert wrong["failed"] == honest["failed"] + 1


def test_traced_run_reports_every_layer_metric():
    traced = bench("certify", trace=1)
    assert traced["correct"]
    assert set(traced["metrics"]) == declared("per_layer")
    assert traced["metrics"]["ring.find_invalid_step.calls"]["value"] > 0


def test_speed_scale_uses_the_probes_around_an_operation():
    import speed

    probe = speed.SpeedProbe()
    probe.at = [float(t) for t in range(100)]
    probe.took = [speed.REFERENCE_S * (2 if t < 50 else 1) for t in range(100)]
    # an operation inside the slow half is scaled down by half ...
    assert probe.scale(10.0, 30.0) == 0.5
    # ... a short one takes its speed from the NEAREST probes around it
    assert probe.scale(80.2, 80.3) == 1.0
