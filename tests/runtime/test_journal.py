"""Decision-journal tests."""

import pytest

from repro.core.flep import FlepSystem
from repro.runtime.engine import RuntimeConfig
from repro.runtime.journal import DecisionJournal, DecisionKind, format_journal


def run_priority_pair(suite):
    system = FlepSystem(
        policy="hpf", device=suite.device, suite=suite,
        config=RuntimeConfig(oracle_model=True),
    )
    system.submit_at(0.0, "low", "NN", "large", priority=0)
    system.submit_at(100.0, "high", "SPMV", "small", priority=1)
    system.run()
    return system.runtime.journal


class TestJournalContents:
    def test_full_preemption_story(self, suite):
        journal = run_priority_pair(suite)
        kinds = [e.kind for e in journal.events]
        # arrival(low) launch(low) arrival(high) preempt launch(high)
        # drained(low) complete(high) resume(low) complete(low)
        assert kinds[0] is DecisionKind.ARRIVAL
        assert DecisionKind.PREEMPT_TEMPORAL in kinds
        assert DecisionKind.DRAINED in kinds
        assert DecisionKind.RESUME in kinds
        assert kinds[-1] is DecisionKind.COMPLETE
        assert journal.count(DecisionKind.COMPLETE) == 2

    def test_events_time_ordered(self, suite):
        journal = run_priority_pair(suite)
        times = [e.at_us for e in journal.events]
        assert times == sorted(times)

    def test_spatial_preemption_logged(self, suite):
        system = FlepSystem(
            policy="hpf", device=suite.device, suite=suite,
            config=RuntimeConfig(oracle_model=True),
        )
        system.submit_at(0.0, "victim", "CFD", "large", priority=0)
        system.submit_at(500.0, "guest", "NN", "trivial", priority=1)
        system.run()
        journal = system.runtime.journal
        spatial = journal.of_kind(DecisionKind.PREEMPT_SPATIAL)
        assert len(spatial) == 1
        assert "yield_sms=5" in spatial[0].detail
        assert journal.count(DecisionKind.TOP_UP) == 1
        assert journal.count(DecisionKind.PREEMPT_TEMPORAL) == 0

    def test_format_is_readable(self, suite):
        journal = run_priority_pair(suite)
        text = journal.format()
        assert "preempt_temporal" in text
        assert "SPMV@high" in text
        filtered = journal.format(
            lambda e: e.kind is DecisionKind.COMPLETE
        )
        assert filtered.count("complete") == 2

    def test_format_kind_filter(self, suite):
        journal = run_priority_pair(suite)
        text = journal.format(kind=DecisionKind.COMPLETE)
        assert text.count("complete") == 2
        assert "arrival" not in text

    def test_format_process_filter(self, suite):
        journal = run_priority_pair(suite)
        text = journal.format(process="high")
        assert "SPMV@high" in text
        assert "@low" not in text

    def test_format_filters_compose(self, suite):
        journal = run_priority_pair(suite)
        text = journal.format(
            kind=DecisionKind.COMPLETE,
            process="low",
            predicate=lambda e: e.at_us >= 0,
        )
        assert text.count("complete") == 1
        assert "NN@low" in text
        # an impossible combination filters everything out
        assert journal.format(
            kind=DecisionKind.PREEMPT_SPATIAL, process="low"
        ) == ""

    def test_module_level_format_journal(self, suite):
        journal = run_priority_pair(suite)
        assert format_journal(journal) == journal.format()
        assert format_journal(
            journal, kind=DecisionKind.RESUME, process="low"
        ).count("resume") == 1

    def test_preemptions_helper(self, suite):
        journal = run_priority_pair(suite)
        assert len(journal.preemptions()) == 1

    def test_empty_journal(self):
        j = DecisionJournal()
        assert len(j) == 0
        assert j.format() == ""
