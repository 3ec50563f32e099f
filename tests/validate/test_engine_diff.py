"""The macro-event engine against the per-batch reference loop on
generated workloads (:func:`repro.validate.fuzz.engine_diff`): the
schedule hash and the task-pull and flag-poll totals must match, case by
case. ``test_schedule_identity.py`` pins the same identity on the five
bench scenarios; these cover the fuzzer's random co-runs and fleets."""

import pytest

from repro.serving.server import build_backend
from repro.validate.fuzz import engine_diff, generate_case, generate_fleet_case

#: Generated MPS cases whose ``MD[small]`` CTAs retire at the same
#: instant as another job's CTAs are placed. The macro replay does not
#: reproduce how an original (non-persistent) grid's retires tie with
#: such a launch, so only persistent chains may be absorbed.
MPS_TIE_CASES = (100293, 200046, 200695, 200876, 201351)
MPS_TIE_FLEET_CASE = 300114


@pytest.mark.parametrize("seed", MPS_TIE_CASES)
def test_mps_tie_case_matches_the_reference_loop(seed):
    assert engine_diff(generate_case(seed)) is None


def test_mps_tie_fleet_case_matches_the_reference_loop():
    assert engine_diff(generate_fleet_case(MPS_TIE_FLEET_CASE)) is None


def test_generated_cases_match_the_reference_loop():
    """60 single-GPU cases over every mode and policy, and 10 fleets
    (faults included): a few seconds for both loops."""
    cases = [generate_case(seed) for seed in range(100_000, 100_060)]
    cases += [generate_fleet_case(seed) for seed in range(300_000, 300_010)]
    assert {case.mode for case in cases[:60]} == {
        "mps", "flep-temporal", "flep-spatial",
    }
    diffs = [d for d in map(engine_diff, cases) if d is not None]
    assert diffs == []


def test_crashed_node_counts_the_batches_it_ran():
    """A fleet node that crashes mid-cohort still charges the batches
    its cohort replayed before the crash, as the reference loop does."""
    case = generate_fleet_case(300197)
    assert any(f.kind == "crash" for f in case.faults)
    assert engine_diff(case) is None


def test_fresh_grid_launch_cancels_no_event():
    """One persistent grid alone on the GPU: the placement pass hands
    its 120 first claims straight to the macro cohort, so the run
    schedules no event it later cancels."""
    backend = build_backend("flep-temporal", "fifo", oracle_model=True)
    backend.submit_at(0.0, "p", "SPMV", "small")
    backend.run()
    stats = backend.sim.stats
    assert stats.cancelled == 0
    assert stats.scheduled == stats.processed
