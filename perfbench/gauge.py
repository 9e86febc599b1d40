"""Machine-speed gauge: a fixed pure-Python routine timed between queries.

On a shared host the CPU time of one fixed piece of Python work drifts by a
third or more within minutes, as other tenants load the same cores. A fixed
reference routine slows with it. Timing that routine between queries and
scaling each query's time by REFERENCE_S / (nearby routine time) reports
the query as it would run on a machine where the routine takes exactly
REFERENCE_S. Runs made at different moments then agree, while a change to
the program still moves every scaled time, because the routine is the
benchmark's own code and never calls matdecide.

The routine mixes the kinds of work the pure-Python pipeline does: JSON
parsing, free reduction with a list stack, set and dict updates, and 2x2
integer products. Garbage collection is off while it runs, so that the
program's live objects cannot slow it.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import time

import workloads

# The routine's median CPU time on the 2-vCPU machine the benchmark was tuned
# on; any fixed value would do, this one keeps scaled and raw times close.
REFERENCE_S = 0.003
# Gauge readings around a query whose median scales it.
WINDOW = 9
# Query time between readings; readings take 5-8% of a run.
EVERY_S = 0.1

_RNG = random.Random("gauge")
_DOCS = [workloads.word_automaton(_RNG, nonempty) for nonempty in (True, False)]
_WORDS = [workloads.random_letters(_RNG, 500) for _ in range(4)]


def routine() -> workloads.Mat:
    for doc in _DOCS:
        json.loads(doc)
    seen: set = set()
    counts: dict = {}
    for word in _WORDS:
        stack: list = []
        for x in word + [-y for y in reversed(word)]:
            if stack and stack[-1] == -x:
                stack.pop()
            else:
                stack.append(x)
            seen.add((len(stack), x))
            counts[x] = counts.get(x, 0) + 1
    m = workloads.I2
    for i in range(900):
        m = workloads.mul(m, workloads.GL2_POOL[i % len(workloads.GL2_POOL)])
    return m


def read() -> float:
    """CPU seconds of one pass of the routine. An untimed pass goes first,
    so that the timed one finds the routine's data in the caches whatever
    the program did just before."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        routine()
        t0 = time.process_time()
        routine()
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Readings taken between queries; each query remembers how many
    readings preceded it, and is scaled by the median of the WINDOW
    readings centred there."""

    def __init__(self):
        self.readings: list[float] = []
        self._since = EVERY_S

    def before_query(self) -> int:
        """Take a reading if EVERY_S of query time passed since the last,
        and return the position of the next query among the readings."""
        if self._since >= EVERY_S:
            self.readings.append(read())
            self._since = 0.0
        return len(self.readings)

    def after_query(self, seconds: float) -> None:
        self._since += seconds

    def finish(self) -> None:
        self.readings.append(read())

    def scale(self, mark: int) -> float:
        """REFERENCE_S over the median reading around position `mark`."""
        lo = max(0, min(mark - WINDOW // 2, len(self.readings) - WINDOW))
        return REFERENCE_S / statistics.median(self.readings[lo:lo + WINDOW])
