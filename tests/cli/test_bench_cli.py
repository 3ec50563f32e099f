"""`flep bench` / engine-block CLI tests, driven in process.

The bench subcommand runs against a tiny injected scenario table
(monkeypatched ``SCENARIOS``) so most of the file costs well under a
second; one test runs the real ``fig8_mix`` scenario against the
checked-in baseline.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import BENCH_SCHEMA, BenchScenario
from repro.obs import bench as bench_mod

SEED = (Path(__file__).resolve().parents[2]
        / "benchmarks" / "baseline" / "BENCH_seed.json")


def _tiny_scenario(scale):
    from repro.core.flep import FlepSystem
    from repro.runtime.engine import RuntimeConfig

    system = FlepSystem(
        policy="hpf", config=RuntimeConfig(oracle_model=True)
    )
    system.submit_at(0.0, "solo", "VA", "trivial", priority=0)
    system.run()
    return {}


@pytest.fixture
def tiny_scenarios(monkeypatch):
    monkeypatch.setattr(
        bench_mod, "SCENARIOS",
        {"tiny": BenchScenario("tiny", _tiny_scenario, "one solo kernel")},
    )


def _write_scaled(src_path, dst_path, factor):
    with open(src_path, encoding="utf-8") as fh:
        data = json.load(fh)
    for s in data["scenarios"]:
        s["events_per_sec"] *= factor
        s["sim_us_per_wall_s"] *= factor
    with open(dst_path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


class TestBenchCommand:
    def test_bench_writes_schema_versioned_report(
        self, tiny_scenarios, tmp_path, capsys
    ):
        out = tmp_path / "BENCH_new.json"
        assert main(["bench", "--budget", "small", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["schema"] == BENCH_SCHEMA
        assert data["budget"] == "small"
        row = data["scenarios"][0]
        assert row["name"] == "tiny"
        assert row["events"] > 0 and row["events_per_sec"] > 0
        assert "tiny" in capsys.readouterr().out

    def test_bench_json_output(self, tiny_scenarios, tmp_path, capsys):
        out = tmp_path / "b.json"
        assert main(["bench", "--budget", "small", "-o", str(out),
                     "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["schema"] == BENCH_SCHEMA

    def test_report_is_written_only_when_asked(
        self, tiny_scenarios, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--budget", "small"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_compare_against_self_passes(
        self, tiny_scenarios, tmp_path
    ):
        out = tmp_path / "b.json"
        assert main(["bench", "--budget", "small", "-o", str(out)]) == 0
        assert main(["bench", "--budget", "small",
                     "--compare", str(out)]) == 0

    def test_drift_exits_3_and_names_the_scenario(
        self, tiny_scenarios, tmp_path, capsys
    ):
        old = tmp_path / "old.json"
        assert main(["bench", "--budget", "small", "-o", str(old)]) == 0
        data = json.loads(old.read_text())
        data["scenarios"][0]["schedule_hash"] = "deadbeef"
        old.write_text(json.dumps(data))
        assert main(["bench", "--budget", "small",
                     "--compare", str(old)]) == 3
        assert "schedule-hash drift in: tiny" in capsys.readouterr().err

    def test_fail_on_drift_passes_on_identical_hashes(
        self, tiny_scenarios, tmp_path
    ):
        old = tmp_path / "old.json"
        fast = tmp_path / "fast.json"
        assert main(["bench", "--budget", "small", "-o", str(old)]) == 0
        # a baseline recorded on a host 5x faster, same schedules
        _write_scaled(old, fast, 5.0)
        assert main(["bench", "--budget", "small",
                     "--compare", str(fast)]) == 0

    def test_event_count_change_alone_is_not_drift(
        self, tiny_scenarios, tmp_path
    ):
        """The gate is the kernel-level timeline hash, not the engine's
        event count (macro fast-forward collapses the latter)."""
        old = tmp_path / "old.json"
        assert main(["bench", "--budget", "small", "-o", str(old)]) == 0
        data = json.loads(old.read_text())
        data["scenarios"][0]["events"] += 1
        old.write_text(json.dumps(data))
        assert main(["bench", "--budget", "small",
                     "--compare", str(old)]) == 0

    def test_v1_baseline_fails_the_drift_gate(
        self, tiny_scenarios, tmp_path, capsys
    ):
        """A baseline without hashes checks no schedule, so the drift
        gate must not pass on it: only current-schema files load."""
        v1 = tmp_path / "v1.json"
        assert main(["bench", "--budget", "small", "-o", str(v1)]) == 0
        data = json.loads(v1.read_text())
        data["schema"] = "flep-bench/1"
        for s in data["scenarios"]:
            del s["schedule_hash"]
        v1.write_text(json.dumps(data))
        assert main(["bench", "--budget", "small",
                     "--compare", str(v1)]) == 1
        assert "unsupported bench schema" in capsys.readouterr().err

    def test_ci_baseline_pins_every_scenario_hash(self):
        """The baseline CI's bench-smoke gates on carries a schedule hash
        for every scenario of the suite, so the drift gate checks them
        all."""
        from repro.obs import SCENARIOS, load_bench_report

        baseline = load_bench_report(str(SEED))
        assert baseline.schema == BENCH_SCHEMA
        assert baseline.budget == "small"
        assert {s["name"] for s in baseline.scenarios} == set(SCENARIOS)
        assert all(s.get("schedule_hash") for s in baseline.scenarios)

    def test_scenario_filter(self, tiny_scenarios, tmp_path, capsys):
        out = tmp_path / "b.json"
        assert main(["bench", "--budget", "small", "-o", str(out),
                     "--scenario", "tiny"]) == 0
        data = json.loads(out.read_text())
        assert [s["name"] for s in data["scenarios"]] == ["tiny"]


class TestSeedBaseline:
    def test_real_fig8_mix_holds_the_seed_hash(self, tmp_path, capsys):
        """The real scenario, at the baseline's budget: it matches the
        checked-in hash, and a baseline with that one hash edited makes
        the gate exit 3 and name it."""
        args = ["bench", "--budget", "small", "--scenario", "fig8_mix"]
        assert main(args + ["--compare", str(SEED)]) == 0
        data = json.loads(SEED.read_text())
        for row in data["scenarios"]:
            if row["name"] == "fig8_mix":
                row["schedule_hash"] = "00000000"
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(args + ["--compare", str(edited)]) == 3
        assert "schedule-hash drift in: fig8_mix" in capsys.readouterr().err


class TestEngineBlocks:
    def test_run_json_includes_engine_block(self, capsys):
        assert main(["run", "fig16", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        engine = reports[0]["engine"]
        assert engine["events"] > 0
        assert engine["events_per_sec"] > 0
        assert engine["wall_s"] > 0
        assert engine["peak_queue_depth"] > 0
        assert engine["sims"] >= 1
        h = reports[0]["schedule_hash"]
        assert isinstance(h, str) and len(h) == 8

    def test_serve_json_includes_engine_block(self, capsys):
        assert main([
            "serve", "--mode", "flep-spatial", "--duration", "5",
            "--json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        engine = rows[0]["engine"]
        assert engine["events"] > 0
        assert engine["peak_queue_depth"] > 0
        h = rows[0]["schedule_hash"]
        assert isinstance(h, str) and len(h) == 8
