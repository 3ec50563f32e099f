"""Absolute schedule pins for the two priority schedulers, HPF and EDF.

Two sets of cases, each run through ``build_backend`` on the oracle
model with no monitors attached, and hashed by an ``EngineWindow``:

* every :func:`~repro.validate.fuzz.generate_case` seed in 0-199 whose
  policy is ``hpf`` or ``edf`` (random kernel mixes over three priority
  levels, temporal and spatial);
* two hand-made cases under both policies in both FLEP modes: a tie
  (identical same-priority requests arrive together behind a running
  lower-priority kernel, so they carry equal T_r under HPF and equal
  deadlines under EDF), and a draining victim whose falling T_r takes
  it past a waiter in HPF's queue.

A change to either policy, or to the queues they share, that moves a
schedule must re-record these hashes and say why.
"""

import pytest

from repro.obs.recorder import EngineWindow
from repro.serving.server import build_backend
from repro.validate.fuzz import generate_case, submit_jobs

#: schedule hash of ``generate_case(seed)`` for every seed in 0-199
#: drawing ``hpf`` or ``edf``
PINNED_CASE_HASHES = {
    6: "62ea9e34", 9: "bb5eee50", 10: "9a9e44fd", 11: "f1e48492",
    19: "64c45dc5", 23: "98e06ab3", 25: "9d706ad2", 29: "8c5f7852",
    36: "ad896e63", 37: "ade8356c", 40: "d0d98540", 42: "9dc11f9a",
    44: "cef5a89a", 47: "ad93595e", 52: "a4b01504", 56: "48e5aaec",
    64: "54bf374d", 69: "155289ee", 71: "85ab4c18", 73: "2f1b78f5",
    74: "fe5b80ba", 75: "300f2367", 92: "485e64cf", 93: "b7549f25",
    95: "810baaf7", 98: "9179d231", 110: "1115ab8c", 112: "809223c1",
    116: "6c7a7978", 124: "8aa0c659", 126: "ed8d0695", 129: "b737421c",
    134: "24a02695", 141: "ab085e82", 144: "4c90e214", 145: "27df377e",
    148: "76d1220a", 153: "b649c51e", 155: "3c570ffb", 163: "5116a852",
    168: "07f93584", 169: "b12789a5", 170: "b5e3343f", 181: "dd4c4f51",
    184: "402734ba", 191: "c3808dfb", 194: "25f1ff97", 196: "f2d1548b",
    197: "53f66a5f",
}

#: (schedule hash, processes in finish order) of each hand-made case,
#: the same under both policies in both FLEP modes. The hash folds
#: kernel names, not processes, so the order pins which of two
#: same-kernel requests ran first.
PINNED_HAND_MADE = {
    "drain": ("84e6f968", ["h", "x", "y"]),
    "tie": ("d2642437", ["a", "b", "c", "low"]),
}


def _run(mode, policy, suite, submit):
    """(schedule hash, processes in finish order) of one run."""
    with EngineWindow() as window:
        backend = build_backend(mode, policy, suite=suite, oracle_model=True)
        submit(backend)
        result = backend.run()
    assert result.all_finished
    finished = sorted(
        result.invocations, key=lambda inv: inv.record.finished_at
    )
    return window.schedule_hash(), [inv.process for inv in finished]


def test_pinned_seeds_are_every_priority_case_in_range():
    seeds = [
        seed for seed in range(200)
        if generate_case(seed).policy in ("hpf", "edf")
    ]
    assert seeds == sorted(PINNED_CASE_HASHES)


@pytest.mark.parametrize("seed", sorted(PINNED_CASE_HASHES))
def test_generated_case_schedule_is_pinned(seed, suite):
    case = generate_case(seed)
    got, _ = _run(
        case.mode, case.policy, suite, lambda b: submit_jobs(b, case)
    )
    assert got == PINNED_CASE_HASHES[seed]


def _submit_tie(backend, suite):
    """Three identical requests arrive together behind a running
    lower-priority kernel: the first preempts it, and the other two wait
    with equal keys. The running one's T_r exceeds its preemption
    overhead, so only the strict same-priority tests keep it running."""
    backend.submit_at(0.0, "low", "CFD", "large", priority=0)
    for name in ("a", "b", "c"):
        backend.submit_at(
            200.0, name, "NN", "small", priority=1, deadline_us=5_000.0
        )


def _submit_drain(backend, suite):
    """A draining victim overtakes a waiter in HPF's T_r order: ``y``
    arrives 20 us shorter than running ``x``'s T_r (too little to pay
    for a preemption), ``h`` preempts ``x`` 5 us later, and ``x``'s T_r
    keeps falling while it drains in the queue behind ``y``."""
    predict = backend.runtime.models.predict
    x_us = predict("CFD", suite["CFD"].input("large"))
    y_us = predict("NN", suite["NN"].input("small"))
    at = x_us - y_us - 20.0
    backend.submit_at(0.0, "x", "CFD", "large", priority=0)
    backend.submit_at(at, "y", "NN", "small", priority=0)
    backend.submit_at(at + 5.0, "h", "SPMV", "small", priority=1)


HAND_MADE = {"drain": _submit_drain, "tie": _submit_tie}


@pytest.mark.parametrize("policy", ["hpf", "edf"])
@pytest.mark.parametrize("mode", ["flep-temporal", "flep-spatial"])
@pytest.mark.parametrize("case", sorted(PINNED_HAND_MADE))
def test_hand_made_schedule_is_pinned(case, mode, policy, suite):
    got = _run(mode, policy, suite, lambda b: HAND_MADE[case](b, suite))
    assert got == PINNED_HAND_MADE[case]
