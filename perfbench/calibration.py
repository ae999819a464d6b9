"""Machine-speed calibration, so that timings survive a shared host's drift.

The hosts this benchmark runs on change speed by up to 1.8x, for seconds to
minutes at a time, as other tenants load the physical cores they share. No
run is long enough to wait that out, so every timed span is paired with the
machine's speed at that moment: a calibration round, a fixed piece of
pure-Python work that belongs to the benchmark (Erdős–Gallai tests on a
fixed list of sequences), is timed right before and right after the span,
and the span is scaled by REFERENCE_S over the mean of the two rounds. A
scaled time is the time the span would take on a machine that runs one
round in REFERENCE_S. The program under test cannot change what a round
costs, so a change that makes the program slower shows in full.

On a 2-vCPU Intel Xeon VM at 2.1 GHz, one round takes about 4.5 ms when the
host is quiet and about 9 ms when it is busy. Over 40-second windows of a
5-minute log there, the median of scaled survey times spread 4 % between
windows, against 14 % for raw times.
"""

from __future__ import annotations

import random
import time

REFERENCE_S = 0.005


def is_graphic(terms: list[int]) -> bool:
    """Erdős–Gallai on a non-increasing list; the benchmark's own copy, so
    that neither the calibration nor the query inputs depend on the program
    under test."""
    if sum(terms) % 2:
        return False
    prefix = 0
    for k in range(1, len(terms) + 1):
        prefix += terms[k - 1]
        if prefix > k * (k - 1) + sum(min(x, k) for x in terms[k:]):
            return False
    return True


def _round_inputs() -> tuple[list[int], ...]:
    rng = random.Random(20081230)
    out = []
    for _ in range(1200):
        n = rng.randint(6, 11)
        out.append(sorted((rng.randint(1, n - 1) for _ in range(n)), reverse=True))
    return tuple(out)


_ROUND = _round_inputs()


def round_s() -> float:
    """Seconds one calibration round takes now."""
    start = time.perf_counter()
    for terms in _ROUND:
        is_graphic(terms)
    return time.perf_counter() - start


class Speed:
    """Scales spans by the calibration rounds taken at either end of them.

    Construct it right before the first span and call ``scale`` right after
    each span; a span starts where the previous one ended.
    """

    def __init__(self) -> None:
        self.last = round_s()

    def scale(self) -> float:
        """REFERENCE_S over the mean round time around the span just ended."""
        now = round_s()
        factor = 2 * REFERENCE_S / (self.last + now)
        self.last = now
        return factor
