"""A gauge of the machine's current speed, to take its drift out of timings.

On a small shared VM the speed of the CPU drifts by tens of percent over
seconds to minutes, and the drift changes most timings of a run alike.  The
gauge times a fixed reference routine, independent of the package under
test, every ``INTERVAL_S`` during a run.  A timing is scaled by
``REFERENCE_S / t``, where ``t`` is the median time of the reference routine
in the samples taken nearest to it: it reads as it would on a machine on
which the routine takes ``REFERENCE_S``.  A change to the package cannot
change the routine's time, so it moves the scaled timings in the same
proportion as the raw ones.  README.md gives what the scaling leaves.

The routine does what the package spends its time on: a subset construction
over a fixed nondeterministic automaton with string state ids, with
naturally sorted tuples as estimates, sets, frozensets and dict lookups.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from collections import deque

# The median time of one reference routine on the 2-vCPU VM the benchmark
# was built on, so scaled timings read close to raw ones there.
REFERENCE_S = 0.0035
INTERVAL_S = 0.2
NEAREST = 7  # samples around a timing whose median scales it
STATES = 400
EVENTS = ("a", "b", "c")
ESTIMATES = 400


def _table() -> dict[tuple[str, str], frozenset[str]]:
    rng = random.Random("gauge")
    return {
        (str(x), event): frozenset(str(rng.randrange(STATES)) for _ in range(rng.choice((1, 1, 2))))
        for x in range(STATES)
        for event in EVENTS
    }


TABLE = _table()


def _key(state: str) -> tuple[int, str]:
    return (len(state), state)


def reference() -> int:
    """A bounded subset construction; returns the number of estimates."""
    start = ("0", "1")
    seen = {start}
    todo = deque([start])
    delta = {}
    while todo and len(seen) < ESTIMATES:
        estimate = todo.popleft()
        for event in EVENTS:
            moved: set[str] = set()
            for state in estimate:
                moved.update(TABLE[state, event])
            target = tuple(sorted(moved, key=_key))
            delta[estimate, event] = target
            if target not in seen:
                seen.add(target)
                todo.append(target)
    return len(seen)


class Gauge:
    """Reference-routine samples over a run, as (midpoint, duration)."""

    def __init__(self):
        for _ in range(3):  # warm-up
            reference()
        self.times: list[float] = []
        self.durations: list[float] = []
        self.last = float("-inf")

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            began = time.perf_counter()
            reference()
            ended = time.perf_counter()
            self.times.append((began + ended) / 2)
            self.durations.append(ended - began)
            self.last = ended

    def tick(self) -> None:
        """Sample if ``INTERVAL_S`` has passed since the last sample."""
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def scale(self, at: float) -> float:
        """The factor that turns a timing made at ``at`` into one at the
        reference speed."""
        index = bisect.bisect_left(self.times, at)
        lo = max(0, min(index - NEAREST // 2, len(self.times) - NEAREST))
        return REFERENCE_S / statistics.median(self.durations[lo : lo + NEAREST])

    def unscaled(self, began: float, ended: float) -> float:
        """The time from ``began`` to ``ended`` less the samples taken in it."""
        lo, hi = bisect.bisect_left(self.times, began), bisect.bisect_right(self.times, ended)
        return ended - began - sum(self.durations[lo:hi])

    def scaled(self, began: float, ended: float) -> float:
        """``unscaled`` at the reference speed of the samples taken in the
        interval and the one on each side of it."""
        lo, hi = bisect.bisect_left(self.times, began), bisect.bisect_right(self.times, ended)
        around = self.durations[max(0, lo - 1) : hi + 1]
        return self.unscaled(began, ended) * REFERENCE_S / statistics.median(around)
