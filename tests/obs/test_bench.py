"""Bench-suite tests: report schema round-trip, the drift gate, and a
tiny injected scenario table so nothing here costs real time."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    BENCH_SCHEMA,
    BUDGETS,
    BenchReport,
    BenchScenario,
    SCENARIOS,
    compare_reports,
    load_bench_report,
    run_bench,
)
from repro.obs import bench as bench_mod


def _tiny_scenario(scale):
    """A microscopic real workload: one solo kernel through FLEP."""
    from repro.core.flep import FlepSystem
    from repro.runtime.engine import RuntimeConfig

    system = FlepSystem(
        policy="hpf", config=RuntimeConfig(oracle_model=True)
    )
    system.submit_at(0.0, "solo", "VA", "trivial", priority=0)
    result = system.run()
    return {"invocations": len(result.invocations)}


@pytest.fixture
def tiny(monkeypatch):
    """Swap the suite for one microscopic scenario."""
    monkeypatch.setattr(bench_mod, "SCENARIOS", {
        "tiny": BenchScenario("tiny", _tiny_scenario, "one solo VA[trivial]"),
    })


def _report(**overrides):
    """A synthetic two-scenario report for compare tests."""
    base = {
        "schema": BENCH_SCHEMA,
        "budget": "small",
        "scenarios": [
            {
                "name": "s1", "events": 1000, "wall_s": 1.0,
                "events_per_sec": 1000.0, "sim_us": 5e5,
                "sim_us_per_wall_s": 5e5, "peak_queue_depth": 10,
                "schedule_hash": "aaaa0001",
            },
            {
                "name": "s2", "events": 2000, "wall_s": 1.0,
                "events_per_sec": 2000.0, "sim_us": 1e6,
                "sim_us_per_wall_s": 1e6, "peak_queue_depth": 20,
                "schedule_hash": "aaaa0002",
            },
        ],
    }
    base.update(overrides)
    return BenchReport.from_dict(base)


def _scaled(report, factor):
    """The same report with every rate scaled by ``factor``."""
    data = report.as_dict()
    for s in data["scenarios"]:
        s["events_per_sec"] *= factor
        s["sim_us_per_wall_s"] *= factor
    return BenchReport.from_dict(data)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------
class TestRunBench:
    def test_tiny_suite_produces_engine_numbers(self, tiny):
        report = run_bench(budget="small")
        row = report.scenario("tiny")
        assert row["events"] > 0
        assert row["events_per_sec"] > 0
        assert row["sim_us_per_wall_s"] > 0
        assert row["extras"] == {"invocations": 1}

    def test_event_counts_are_deterministic(self, tiny):
        a = run_bench(budget="small")
        b = run_bench(budget="small")
        assert (
            a.scenario("tiny")["events"] == b.scenario("tiny")["events"]
        )

    def test_schedule_hash_is_recorded_and_deterministic(self, tiny):
        a = run_bench(budget="small")
        b = run_bench(budget="small")
        h = a.scenario("tiny")["schedule_hash"]
        assert isinstance(h, str) and len(h) == 8
        int(h, 16)  # crc32 hexdigest
        assert h == b.scenario("tiny")["schedule_hash"]

    def test_warm_up_and_timed_run_must_agree(self, monkeypatch):
        """The untimed warm-up run doubles as a reproducibility check: a
        scenario whose second run schedules differently fails."""
        from repro.core.flep import FlepSystem
        from repro.runtime.engine import RuntimeConfig

        kernels = iter(["VA", "SPMV"])

        def drifting(scale):
            system = FlepSystem(
                policy="hpf", config=RuntimeConfig(oracle_model=True)
            )
            system.submit_at(0.0, "solo", next(kernels), "trivial")
            system.run()
            return {}

        monkeypatch.setattr(bench_mod, "SCENARIOS", {
            "drifting": BenchScenario("drifting", drifting, "two kernels"),
        })
        with pytest.raises(ObservabilityError, match="not reproducible"):
            run_bench(budget="small")

    def test_unknown_budget_and_scenario_rejected(self, tiny):
        with pytest.raises(ObservabilityError, match="unknown budget"):
            run_bench(budget="huge")
        with pytest.raises(ObservabilityError, match="unknown scenarios"):
            run_bench(budget="small", only=["nope"])

    def test_progress_callback_sees_each_row(self, tiny):
        seen = []
        run_bench(
            budget="small",
            on_progress=lambda name, row: seen.append(name),
        )
        assert seen == ["tiny"]

    def test_real_scenario_table_is_complete(self):
        assert set(SCENARIOS) == {
            "serving_sweep", "fig8_mix", "preempt_storm", "fuzz_stress",
            "fleet_sweep",
        }
        assert set(BUDGETS) == {"small", "default", "large"}


# ---------------------------------------------------------------------------
# report schema
# ---------------------------------------------------------------------------
class TestReportSchema:
    def test_round_trip_through_json_file(self, tiny, tmp_path):
        report = run_bench(budget="small")
        path = tmp_path / "BENCH_test.json"
        report.write(str(path))
        loaded = load_bench_report(str(path))
        assert loaded.as_dict() == report.as_dict()
        assert loaded.schema == BENCH_SCHEMA

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "flep-bench/99"}))
        with pytest.raises(ObservabilityError, match="unsupported"):
            load_bench_report(str(path))

    def test_v1_files_are_rejected(self, tmp_path):
        """A pre-hash snapshot cannot be checked for drift, so it does
        not load."""
        data = _report().as_dict()
        data["schema"] = "flep-bench/1"
        path = tmp_path / "BENCH_v1.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ObservabilityError, match="flep-bench/1"):
            load_bench_report(str(path))

    def test_missing_scenario_lookup_raises(self):
        with pytest.raises(ObservabilityError, match="no scenario"):
            _report().scenario("nope")

    def test_format_renders_every_scenario(self):
        text = _report().format()
        assert "s1" in text and "s2" in text and "events/s" in text


# ---------------------------------------------------------------------------
# the drift gate
# ---------------------------------------------------------------------------
class TestCompare:
    def test_schedule_hash_mismatch_is_drift(self):
        old = _report()
        data = old.as_dict()
        data["scenarios"][0]["schedule_hash"] = "deadbeef"
        cmp = compare_reports(old, BenchReport.from_dict(data))
        assert len(cmp.drifts) == 1
        assert cmp.drifts[0]["scenario"] == "s1"
        assert [r["status"] for r in cmp.rows] == ["drift", "ok"]
        assert "deadbeef" in cmp.format()

    def test_event_count_change_is_informational_not_drift(self):
        """Macro fast-forward legitimately collapses event counts, so
        the report shows them but only the kernel-level timeline (the
        hash) is compared."""
        old = _report()
        data = old.as_dict()
        data["scenarios"][0]["events"] = 999
        cmp = compare_reports(old, BenchReport.from_dict(data))
        assert cmp.drifts == []
        assert all(r["status"] == "ok" for r in cmp.rows)

    def test_no_drift_on_identical_counts(self):
        """Speed is host noise here: halving or doubling every rate
        changes no row."""
        old = _report()
        for factor in (0.5, 2.0):
            cmp = compare_reports(old, _scaled(old, factor))
            assert cmp.drifts == []
            assert all(r["status"] == "ok" for r in cmp.rows)

    def test_scenario_missing_in_new_is_reported(self):
        old = _report()
        data = old.as_dict()
        data["scenarios"] = data["scenarios"][:1]
        cmp = compare_reports(old, BenchReport.from_dict(data))
        statuses = {r["status"] for r in cmp.rows}
        assert "missing-in-new" in statuses
        assert cmp.drifts == []  # a --scenario subset is not drift
