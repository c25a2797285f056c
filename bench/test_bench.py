"""Self-test of the benchmark harness.

    python3 -m pytest bench

Tiny runs of every workload, the exact counters of the traced run, and the
failures a wrong fingerprint or a missing package source must cause.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bits")]


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny(workload, trace, cwd=ROOT):
    """A run of the fewest passes the harness makes."""
    return run(
        "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace), cwd=cwd
    )


def copy_checkout(tmp_path, with_source=True):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_source:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = tiny(workload, trace)
    assert proc.returncode == 0, proc.stderr
    got = result(proc)
    assert set(got) == {"correct", "attempted", "failed", "metrics"}
    assert got["correct"] and got["failed"] == 0 and got["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in got["metrics"].items()} == spec
    lines = proc.stdout.splitlines()
    for name, unit in spec.items():
        assert any(
            line.startswith(f"metric {name} ") and line.endswith(f" {unit}") for line in lines
        ), name


@pytest.mark.parametrize(
    "workload, decide_calls", [("correct-lift", 3), ("incorrect-check", 2)]
)
def test_exact_counters_repeat_and_follow_the_call_graph(workload, decide_calls):
    first, second = (result(tiny(workload, 1))["metrics"] for _ in range(2))
    assert {n: first[n] for n in EXACT} == {n: second[n] for n in EXACT}
    # correct-lift: one decision by the benchmark, two inside lift_collinear_centers;
    # incorrect-check: one by the benchmark, one inside planarity_certificate.
    assert first["checker.decide_calls"]["value"] == decide_calls
    # Later passes over the same inputs do the same calls: nothing is cached across them.
    assert first["trace.repeat_calls_ratio"]["value"] == 1
    if workload == "incorrect-check":
        for name in ("lift.lift_collinear_centers_ms", "lift.verify_witness_ms"):
            assert first[name]["value"] == 0


def _wrong_fingerprint(tmp_path, workload, *keys):
    """A copy of the checkout whose recorded fingerprint at keys is wrong."""
    copy_checkout(tmp_path)
    path = tmp_path / "bench" / "fingerprints.json"
    prints = json.loads(path.read_text(encoding="utf-8"))
    node = prints["workloads"][workload]
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = "0" * 64
    path.write_text(json.dumps(prints), encoding="utf-8")


@pytest.mark.parametrize(
    "keys", [("canary", "inputs"), ("canary", "outputs"), ("seeds", "0", "outputs")]
)
def test_wrong_fingerprint_fails(tmp_path, keys):
    _wrong_fingerprint(tmp_path, "incorrect-check", *keys)
    proc = tiny("incorrect-check", 0, cwd=tmp_path)
    assert proc.returncode == 1
    assert not result(proc)["correct"] and result(proc)["failed"] == 1


def test_fails_without_the_package_source(tmp_path):
    copy_checkout(tmp_path, with_source=False)
    proc = run("--workload", "correct-lift", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_profile_prints_a_top_ten():
    proc = run("--workload", "correct-lift", "--profile")
    assert proc.returncode == 0, proc.stderr
    assert "tottime" in proc.stdout
