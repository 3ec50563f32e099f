"""Tests for the trace CLI and the traced FlepSystem."""

import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.flep import FlepSystem
from repro.runtime.engine import RuntimeConfig


class TestTracedSystem:
    def test_timeline_attached_and_closed(self, suite):
        system = FlepSystem(
            policy="hpf", device=suite.device, suite=suite,
            config=RuntimeConfig(oracle_model=True), trace=True,
        )
        system.submit_at(0.0, "a", "SPMV", "small")
        result = system.run()
        assert system.timeline is not None
        assert system.timeline.intervals
        # every recorded interval lies within the run
        for iv in system.timeline.intervals:
            assert 0 <= iv.start_us <= iv.end_us <= result.makespan_us

    def test_timeline_matches_task_work(self, suite):
        system = FlepSystem(
            policy="hpf", device=suite.device, suite=suite,
            config=RuntimeConfig(oracle_model=True), trace=True,
        )
        system.submit_at(0.0, "a", "MM", "small")
        system.run()
        inv = system.runtime.invocations[0]
        kernel_name = inv.image.name
        sm_time = system.timeline.kernel_sm_time_us(kernel_name)
        # SM-residency time is at least the pure task work
        work = inv.pool.done * inv.image.task_model.mean_task_us
        assert sm_time >= work * 0.99

    def test_untraced_system_has_no_timeline(self, suite):
        system = FlepSystem(policy="hpf", device=suite.device, suite=suite)
        assert system.timeline is None
        assert system.gpu.listeners == []


class TestTraceCLI:
    def test_trace_command_output(self, capsys):
        rc = main([
            "trace", "--low", "CFD", "--high", "NN",
            "--input", "trivial", "--delay", "500",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "decision journal" in out
        assert "preempt_spatial" in out
        assert "SM0" in out and "SM14" in out
        assert "turnaround=" in out

    def test_trace_temporal_scenario(self, capsys):
        rc = main(["trace", "--low", "NN", "--high", "SPMV"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "preempt_temporal" in out
        assert "resume" in out

    def test_trace_export_writes_chrome_trace(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        rc = main(["trace", "--export", str(path)])
        assert rc == 0
        assert "wrote Chrome trace" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        xs = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        names = {e["name"] for e in xs}
        # one complete invocation span per invocation, with the
        # preempt/drain and resume sub-spans of the temporal story
        assert any(n.startswith("NN[") for n in names)
        assert any(n.startswith("SPMV[") for n in names)
        assert {"drain", "resume", "wait", "execute"} <= names
        assert all("ts" in e and "dur" in e for e in xs)


GOLDEN = Path(__file__).parent / "golden"


def _normalise_ids(text):
    """Number invocation ids by first appearance: ``KernelInvocation``
    ids are process-wide, so the raw ``#<id>`` depends on test order."""
    ordinals = {}

    def ordinal(match):
        return "#%d" % ordinals.setdefault(match.group(1), len(ordinals) + 1)

    return re.sub(r"#(\d+)", ordinal, text)


def _sections(text):
    """Split ``flep trace`` output on its ``=== ... ===`` headers."""
    sections, current = {}, None
    for line in text.splitlines():
        if line.startswith("=== ") and line.endswith(" ==="):
            current = sections.setdefault(line, [])
        elif current is not None:
            current.append(line)
    return sections


class TestTracePinned:
    """``flep trace`` output pinned line by line: the decision log, the
    SM Gantt and the per-invocation summary."""

    @pytest.mark.parametrize("argv, golden", [
        (["--low", "CFD", "--high", "NN", "--input", "trivial",
          "--delay", "500"], "trace_spatial.txt"),
        (["--low", "NN", "--high", "SPMV"], "trace_temporal.txt"),
    ])
    def test_output_matches_golden(self, capsys, argv, golden):
        assert main(["trace"] + argv) == 0
        got = _sections(_normalise_ids(capsys.readouterr().out))
        want = _sections((GOLDEN / golden).read_text())
        assert list(got) == list(want)
        for header in want:
            assert got[header] == want[header], header
