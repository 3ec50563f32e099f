"""Self-tests of the benchmark, at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import layers  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

TINY = 0.05


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_manifest_names_the_benchmarked_workloads():
    names = tuple(w["name"] for w in _manifest()["workloads"])
    assert names == bench.WORKLOADS == workloads.NAMES


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run_prints_every_end_to_end_metric_with_unit(name):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "1",
                  "--trace", "0", "--scale", str(TINY))
    res = _result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= bench.MIN_RUNS
    declared = {m["name"]: m["unit"] for m in _manifest()["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    for metric, unit in declared.items():
        assert res["metrics"][metric]["value"] > 0
        assert any(
            line.split()[:1] == [metric] and line.split()[-1] == unit
            for line in proc.stdout.splitlines()
        ), metric


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_prints_every_layer_metric_and_covers_the_run(name):
    res = _result(_bench("--workload", name, "--seed", "3", "--seconds", "1",
                         "--trace", "1", "--scale", str(TINY)))
    assert res["correct"] is True
    declared = {m["name"]: m["unit"] for m in _manifest()["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert metrics["trace.covered_ratio"] == pytest.approx(1.0, abs=0.05)
    assert metrics["trace.overhead_ratio"] > 0
    validate = sum(v for k, v in metrics.items()
                   if k.startswith("validate.") and k.endswith("_s"))
    if name == "fleet_checked":
        assert validate > 0 and metrics["validate.on_event_calls"] > 0
    else:
        assert validate == 0


def _tiny_run(name="fleet_scale"):
    built = workloads.build(name, seed=5, scale=TINY)
    built.report = built.system.run()
    if built.monitors is not None:
        built.monitors.finalize()
    return built


def test_clean_run_passes_its_checks():
    out = workloads.outcome(_tiny_run())
    assert out.errors == [] and out.failed == 0
    assert out.attempted == out.terminal > 0


def test_leaked_request_fails_every_request_of_the_run():
    built = _tiny_run("serving_preempt")
    built.system.tracker.requests[0].outcome = "pending"
    out = workloads.outcome(built)
    assert out.errors
    assert out.failed == out.attempted


def test_open_fleet_ledger_is_caught():
    built = _tiny_run("fleet_checked")
    built.report.conservation["accounted"] = False
    out = workloads.outcome(built)
    assert out.errors and out.failed == out.attempted


def _fake_run(digest, attempted=10, errors=()):
    return {"schedule_hash": digest, "attempted": attempted, "failed": 0,
            "errors": list(errors)}


def test_hash_mismatch_between_runs_fails_every_run():
    correct, attempted, failed, problems = bench.check_runs(
        [_fake_run("aaaa"), _fake_run("aaaa"), _fake_run("bbbb")]
    )
    assert not correct and attempted == failed == 30
    assert any("schedule hash" in p for p in problems)


def test_failed_check_fails_only_that_run():
    correct, attempted, failed, _ = bench.check_runs(
        [_fake_run("aaaa"), _fake_run("aaaa", errors=["ledger open"])]
    )
    assert not correct and attempted == 20 and failed == 10


def test_installed_observability_hub_is_reported():
    from repro.obs import observed

    with observed():
        built = workloads.build("serving_preempt", seed=5, scale=TINY)
        assert worker.hook_problems(built)
    assert worker.hook_problems(
        workloads.build("serving_preempt", seed=5, scale=TINY)
    ) == []


def test_same_seed_same_inputs_and_other_seed_other_inputs():
    def key(seed):
        return [(a.at_us, a.kernel_name, a.tenant)
                for t in workloads.arrivals("fleet_scale", seed, TINY)
                for a in t.arrivals]

    assert key(4) == key(4)
    assert key(4) != key(5)


def test_tracer_uninstall_restores_every_method():
    from repro.gpu.kernel import TaskPool
    from repro.gpu.sim import Simulator

    run_before = Simulator.run
    remaining_before = TaskPool.__dict__["remaining"]
    tracer = layers.LayerTracer().install()
    assert Simulator.run is not run_before
    assert tracer.missing == []
    tracer.uninstall()
    assert Simulator.run is run_before
    assert TaskPool.__dict__["remaining"] is remaining_before


def test_refuses_to_run_without_the_simulator_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "fleet_scale", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
