"""Bench-suite tests: report schema round-trip, the regression gate,
and a tiny injected scenario table so nothing here costs real time."""

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
    default_bench_filename,
    load_bench_report,
    run_bench,
)


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


TINY = {
    "tiny": BenchScenario("tiny", _tiny_scenario, "one solo VA[trivial]"),
}


def _report(**overrides):
    """A synthetic two-scenario report for compare tests."""
    base = {
        "schema": BENCH_SCHEMA,
        "budget": "small",
        "created": "2026-08-08T00:00:00",
        "git_sha": "abc1234",
        "python": "3.11.7",
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
    """The same report with every gated rate scaled by ``factor``."""
    data = report.as_dict()
    for s in data["scenarios"]:
        s["events_per_sec"] *= factor
        s["sim_us_per_wall_s"] *= factor
    return BenchReport.from_dict(data)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------
class TestRunBench:
    def test_tiny_suite_produces_engine_numbers(self):
        report = run_bench(budget="small", scenarios=TINY)
        row = report.scenario("tiny")
        assert row["events"] > 0
        assert row["events_per_sec"] > 0
        assert row["sim_us_per_wall_s"] > 0
        assert row["extras"] == {"invocations": 1}
        assert row["profile"]["task_pulls"] > 0

    def test_event_counts_are_deterministic(self):
        a = run_bench(budget="small", scenarios=TINY)
        b = run_bench(budget="small", scenarios=TINY)
        assert (
            a.scenario("tiny")["events"] == b.scenario("tiny")["events"]
        )

    def test_schedule_hash_is_recorded_and_deterministic(self):
        a = run_bench(budget="small", scenarios=TINY)
        b = run_bench(budget="small", scenarios=TINY)
        h = a.scenario("tiny")["schedule_hash"]
        assert isinstance(h, str) and len(h) == 8
        int(h, 16)  # crc32 hexdigest
        assert h == b.scenario("tiny")["schedule_hash"]

    def test_unknown_budget_and_scenario_rejected(self):
        with pytest.raises(ObservabilityError, match="unknown budget"):
            run_bench(budget="huge", scenarios=TINY)
        with pytest.raises(ObservabilityError, match="unknown scenarios"):
            run_bench(budget="small", only=["nope"], scenarios=TINY)

    def test_progress_callback_sees_each_row(self):
        seen = []
        run_bench(
            budget="small", scenarios=TINY,
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
    def test_round_trip_through_json_file(self, tmp_path):
        report = run_bench(budget="small", scenarios=TINY)
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

    def test_default_filename_embeds_date_and_sha(self):
        report = _report()
        assert default_bench_filename(report) == "BENCH_20260808_abc1234.json"

    def test_missing_scenario_lookup_raises(self):
        with pytest.raises(ObservabilityError, match="no scenario"):
            _report().scenario("nope")

    def test_format_renders_every_scenario(self):
        text = _report().format()
        assert "s1" in text and "s2" in text and "events/s" in text


# ---------------------------------------------------------------------------
# the regression gate
# ---------------------------------------------------------------------------
class TestCompare:
    def test_twenty_percent_slowdown_is_a_regression(self):
        old = _report()
        cmp = compare_reports(old, _scaled(old, 0.8))
        assert not cmp.ok
        assert {r["scenario"] for r in cmp.regressions} == {"s1", "s2"}
        assert "REGRESSION" in cmp.format()

    def test_ten_percent_slowdown_passes_default_threshold(self):
        old = _report()
        cmp = compare_reports(old, _scaled(old, 0.9))
        assert cmp.ok
        assert all(r["status"] == "ok" for r in cmp.rows)

    def test_speedup_is_flagged_improved_not_regression(self):
        old = _report()
        cmp = compare_reports(old, _scaled(old, 1.5))
        assert cmp.ok
        assert any(r["status"] == "improved" for r in cmp.rows)

    def test_threshold_is_tunable(self):
        old = _report()
        assert not compare_reports(old, _scaled(old, 0.9), threshold=0.05).ok
        assert compare_reports(old, _scaled(old, 0.8), threshold=0.25).ok
        with pytest.raises(ObservabilityError):
            compare_reports(old, old, threshold=0.0)

    def test_schedule_hash_mismatch_is_drift(self):
        old = _report()
        data = old.as_dict()
        data["scenarios"][0]["schedule_hash"] = "deadbeef"
        cmp = compare_reports(old, BenchReport.from_dict(data))
        assert cmp.ok  # drift is an identity break, not a perf regression
        drift = [r for r in cmp.rows if r["status"] == "drift"]
        assert len(drift) == 1
        assert drift[0]["scenario"] == "s1"
        assert drift[0]["metric"] == "schedule_hash"
        # the drifts property is what `flep bench --compare` gates on
        assert cmp.drifts == drift
        assert "deadbeef" in cmp.format()

    def test_event_count_change_is_informational_not_drift(self):
        """Macro fast-forward legitimately collapses event counts; only
        the kernel-level timeline (the hash) is gated."""
        old = _report()
        data = old.as_dict()
        data["scenarios"][0]["events"] = 999
        cmp = compare_reports(old, BenchReport.from_dict(data))
        assert cmp.ok
        assert cmp.drifts == []
        changed = {r["metric"] for r in cmp.rows if r["status"] == "changed"}
        assert changed == {"events"}
        # events_per_sec is reported, never compared: an event count
        # change makes it measure a different workload decomposition
        assert "events_per_sec" not in {r["metric"] for r in cmp.rows}

    def test_no_drift_on_identical_counts(self):
        old = _report()
        assert compare_reports(old, _scaled(old, 1.2)).drifts == []

    def test_scenario_missing_in_new_is_reported(self):
        old = _report()
        data = old.as_dict()
        data["scenarios"] = data["scenarios"][:1]
        cmp = compare_reports(old, BenchReport.from_dict(data))
        statuses = {r["status"] for r in cmp.rows}
        assert "missing-in-new" in statuses
        assert cmp.ok  # informational, not a perf regression

    def test_zero_baseline_is_not_divided_by(self):
        old = _report()
        data = old.as_dict()
        for s in data["scenarios"]:
            s["sim_us_per_wall_s"] = 0.0
        cmp = compare_reports(BenchReport.from_dict(data), old)
        assert any(r["status"] == "no-baseline" for r in cmp.rows)
        assert cmp.ok
