"""The seeded generators of ``pathlab.samples``."""

from __future__ import annotations

import random

import pytest

from pathlab import samples
from pathlab.paths import from_edges, full_path, union_all, vec_delta


class _LowDraws(random.Random):
    """Every ``randint(a, b)`` draws a."""

    def randint(self, a, b):
        return a


class _HighDraws(random.Random):
    """Every ``randint(a, b)`` draws b."""

    def randint(self, a, b):
        return b


@pytest.mark.parametrize("k", [2, 3, 7, 12])
def test_chain_covering_fills_outward_when_its_attempts_run_out(k):
    # low draws start at (0, 1) and redraw it on every attempt, so the fill
    # adds the edges 2..k rightward; high draws start at (k - 1, k) and
    # redraw it, so the fill adds the edges k - 1..1 leftward
    for rng, fill in ((_LowDraws(1), range(2, k + 1)), (_HighDraws(1), range(k - 1, 0, -1))):
        seq = samples.random_chain_covering(rng, k)
        assert union_all(seq) == full_path(k)
        assert vec_delta(seq) == 1
        n = len(fill)
        assert seq[len(seq) - n :] == [from_edges([e]) for e in fill]
        assert union_all(seq[: len(seq) - n]) != full_path(k)
