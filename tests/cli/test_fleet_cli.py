"""`flep fleet` CLI tests, driven in process."""

import json

import pytest

from repro.cli import main

FAST = ["--gpus", "2", "--modes", "flep-temporal,mps", "--tenants", "3",
        "--rate", "0.5", "--duration", "10", "--seed", "3"]

#: The engine-block fields read off the wall clock; everything else in a
#: ``flep fleet --json`` document is a function of the seed alone.
WALL_CLOCK_FIELDS = ("wall_s", "events_per_sec", "sim_us_per_wall_s")


def _simulated(out):
    """A ``--json`` document without its wall-clock fields."""
    doc = json.loads(out)
    for key in WALL_CLOCK_FIELDS:
        del doc["engine"][key]
    return doc


class TestFleetCommand:
    def test_json_rollup_schema(self, capsys):
        assert main(["fleet", *FAST, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "flep-fleet/1"
        assert doc["config"]["gpus"] == 2
        assert doc["config"]["node_modes"] == ["flep-temporal", "mps"]
        assert doc["config"]["routing"] == "deadline"
        assert doc["config"]["steal"] is True
        assert doc["n_nodes"] == 2 and len(doc["nodes"]) == 2
        assert {n["mode"] for n in doc["nodes"]} == {"flep-temporal", "mps"}
        assert "fleet_attainment" in doc
        assert doc["serving"]["tenants"]
        h = doc["schedule_hash"]
        assert isinstance(h, str) and len(h) == 8
        assert doc["engine"]["sims"] == 2 and doc["engine"]["events"] > 0

    def test_text_report(self, capsys):
        assert main(["fleet", *FAST]) == 0
        out = capsys.readouterr().out
        assert "fleet: 2 nodes" in out
        assert "routing=deadline" in out
        assert "web0" in out and "batch2" in out

    def test_mode_list_cycles_to_gpu_count(self, capsys):
        assert main(["fleet", "--gpus", "3", "--modes", "flep-spatial,mps",
                     "--tenants", "3", "--rate", "0.3", "--duration", "5",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["node_modes"] == [
            "flep-spatial", "mps", "flep-spatial",
        ]

    def test_no_steal_flag(self, capsys):
        assert main(["fleet", *FAST, "--no-steal", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["steal"] is False
        assert doc["steals"] == 0

    def test_same_seed_same_json(self, capsys):
        def run_once():
            assert main(["fleet", *FAST, "--json"]) == 0
            return _simulated(capsys.readouterr().out)

        assert run_once() == run_once()

    def test_unknown_routing_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", *FAST, "--routing", "random"])


class TestFleetFaultFlags:
    def test_fault_spec_runs_and_accounts(self, capsys):
        assert main(["fleet", *FAST, "--faults",
                     "crash@2000:n0,rejoin@5000:n0", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["faults"] == "crash@2000:n0,rejoin@5000:n0"
        assert [f["action"] for f in doc["faults"]] == ["crash", "rejoin"]
        assert doc["conservation"]["accounted"] is True
        assert doc["nodes"][0]["rejoins"] == 1
        # the rejoined node's fresh simulator is in the engine block too
        assert doc["engine"]["sims"] == 3

    def test_fault_runs_are_reproducible(self, capsys):
        def run_once():
            assert main(["fleet", *FAST, "--faults", "crash@2000:n1",
                         "--json"]) == 0
            return _simulated(capsys.readouterr().out)

        assert run_once() == run_once()

    def test_fault_seed_derives_a_plan(self, capsys):
        assert main(["fleet", *FAST, "--fault-seed", "3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["fault_seed"] == 3
        assert doc["config"]["faults"] is not None
        assert doc["conservation"]["accounted"] is True

    def test_faults_and_fault_seed_conflict(self, capsys):
        assert main(["fleet", *FAST, "--faults", "crash@2000:n0",
                     "--fault-seed", "1"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_bad_fault_spec_is_a_clean_error(self, capsys):
        assert main(["fleet", *FAST, "--faults", "explode@99"]) == 1
        assert "bad fault spec" in capsys.readouterr().err

    def test_fault_on_missing_node_rejected(self, capsys):
        assert main(["fleet", *FAST, "--faults", "crash@2000:n9"]) == 1
        assert "only 2 node(s)" in capsys.readouterr().err


class TestFleetDeviceAndQueueFlags:
    def test_devices_cycle_and_appear_in_rollup(self, capsys):
        assert main(["fleet", *FAST, "--devices", "k40,p100",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["node_devices"] == ["k40", "p100"]
        assert [n["device"] for n in doc["nodes"]] == ["k40", "p100"]


class TestFuzzFleetBudget:
    def test_fleet_budget_extends_the_campaign(self, capsys):
        assert main(["fuzz", "--budget", "2", "--fleet-budget", "3",
                     "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "5/5 cases" in out
        assert "all invariants held" in out

    def test_fleet_token_replays(self, capsys):
        from repro.validate import encode_case, generate_fleet_case

        token = encode_case(generate_fleet_case(42))
        assert main(["fuzz", "--replay", token]) == 0
        out = capsys.readouterr().out
        assert "replaying:" in out
        assert "fleet-monitors" in out and "conservation" in out
