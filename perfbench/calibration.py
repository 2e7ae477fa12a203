"""A fixed reference computation that times the machine, not the program.

The run calls ``measure()`` at the start of every block and then every
``CALIBRATE_EVERY_S`` of the run, between verdicts and outside their timed
regions.
It runs the benchmark's own reference subset DP
(``oracles.ordering_optimum``) on a fixed list of plain interval
coverings, so it calls no pathlab code and does the same work on every
commit and under every seed: its time changes only with the speed of the
machine.  Its work, many small exhaustive DPs over Python integers, lists
and tuples, is close to what the workloads spend their time on.
"""

from __future__ import annotations

import random
import time

import oracles

# time of one ``measure()`` on the machine the reported times are scaled to
NOMINAL_S = 0.003


def _coverings() -> list[list[tuple]]:
    """Twelve coverings of 3 to 8 distinct members, each member one or two
    intervals of length 1 to 3 in [0, 16]."""
    rng = random.Random("perfbench calibration")
    out = []
    for i in range(12):
        members: set[tuple] = set()
        while len(members) < 3 + i % 6:
            s = rng.randint(0, 13)
            g = ((s, s + rng.randint(1, 3)),)
            s2 = rng.randint(0, 15)
            if rng.random() < 0.5 and not oracles.touches((s2, s2 + 1), g):
                g = tuple(sorted(g + ((s2, s2 + 1),)))
            members.add(g)
        out.append(sorted(members))
    return out


COVERINGS = _coverings()


def measure() -> float:
    """Seconds taken by the reference DP over every covering."""
    t0 = time.perf_counter()
    for cov in COVERINGS:
        oracles.ordering_optimum(cov)
    return time.perf_counter() - t0
