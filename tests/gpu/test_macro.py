"""Unit checks for the array helpers of the macro-event engine.

End-to-end identity with the per-batch reference loop is pinned by
``test_schedule_identity.py``; these pin the two closed forms the
window replay relies on.
"""

import math

import numpy as np

from repro.gpu import macro


def _reference_polls(since: int, batch: int, L: int) -> int:
    """``CTAContext._polls_in_batch`` for a persistent context."""
    first = (L - since) % L
    return 0 if first >= batch else 1 + (batch - 1 - first) // L


def test_polls_closed_form_matches_the_context_count():
    for L in range(1, 10):
        since = np.repeat(np.arange(L), 70)
        batch = np.tile(np.arange(70), L)
        got = macro._polls(since, batch, L).tolist()
        want = [
            _reference_polls(s, b, L)
            for s, b in zip(since.tolist(), batch.tolist())
        ]
        assert got == want


def _reference_chain(rem: int, width2: int, L_grid: int):
    """A context's guided claim applied claim after claim."""
    out = []
    while rem > 0:
        b = min(max(math.ceil(rem / width2), 1), rem)
        if L_grid and b > L_grid:
            b = (b // L_grid) * L_grid
        out.append(b)
        rem -= b
    return out


def test_guided_chain_matches_per_claim_sizing_in_chunks():
    for rem, width2, L_grid in [
        (1, 2, 0), (37, 2, 4), (5_000, 240, 8), (123_457, 64, 1),
        (900, 30, 0),
    ]:
        want = _reference_chain(rem, width2, L_grid)
        got = []
        left = rem
        need = 7
        while left > 0:
            chunk = macro._guided_chain(left, width2, L_grid, need)
            # shared through the cache: a write would corrupt later cohorts
            assert not chunk.flags.writeable
            sizes = chunk.tolist()
            assert 0 < len(sizes) <= need
            got += sizes
            left -= sum(sizes)
            need *= 2
        assert got == want
