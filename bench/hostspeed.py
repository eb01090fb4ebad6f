"""Host speed probe: scales wall times to a host of steady speed.

The benchmark runs on a shared virtual machine whose speed drifts: the
same pure-Python work takes up to 1.6x longer for stretches of seconds to
minutes, and every operation of the program slows with it (by 1.2-1.6x
for each class of calculator command).  Ten runs of unchanged code then
spread by 0.2-0.3 of their median, more than any bound a regression check
can use.

So the benchmark times a fixed probe between operations: an associativity
scan of the order-24 dihedral group's table, the same kind of work as the
program's hot loops (``make_group``, ``is_hom``) but none of its code.  An
operation's time is multiplied by ``REFERENCE_S`` over the median of the
probes taken during its pass.  A change to the program moves the scaled time
as much as the wall time; a change of the host's speed moves the probe
too, and cancels.  The factor is taken per pass: a calculator pass lasts
about 5 s and a verify pass about 10 s, while the host's speed holds for
stretches of seconds to minutes.
"""

from __future__ import annotations

import statistics
import time

from reference import Metacyclic

_TABLE = Metacyclic(12, 2, 11).table

# The probe's median time in the fast state of a 2-vCPU Intel Xeon
# (2.1 GHz) virtual machine, Python 3.11.7.  Scaled times read as wall
# times on that host in that state.
REFERENCE_S = 0.55e-3

# Probes run between operations once this long has passed since the last
# ones: about every fourth calculator command, and between all verify
# operations.  One probe is run per interval passed, up to MAX_BATCH, so
# that a stretch of verify operations is sampled about as densely as one
# of calculator commands.
INTERVAL_S = 0.04
MAX_BATCH = 16


def probe() -> float:
    """Wall time of one associativity scan of the probe table."""
    t = _TABLE
    n = len(t)
    ok = True
    started = time.perf_counter()
    for a in range(n):
        ra = t[a]
        for b in range(n):
            rab = t[ra[b]]
            rb = t[b]
            for c in range(n):
                if rab[c] != ra[rb[c]]:
                    ok = False
    elapsed = time.perf_counter() - started
    if not ok:
        raise AssertionError("probe table is not associative")
    return elapsed


def scale(samples: list[float]) -> float:
    """Factor that takes a wall time measured next to these probes to the reference speed."""
    return REFERENCE_S / statistics.median(samples)


class SpeedLog:
    """Probe times taken between the operations of one pass."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def between_ops(self) -> None:
        waited = time.perf_counter() - self._last
        if waited >= INTERVAL_S:
            count = max(1, int(min(MAX_BATCH, waited / INTERVAL_S)))
            self.samples += [probe() for _ in range(count)]
            self._last = time.perf_counter()

    def factor(self) -> float:
        return scale(self.samples)
