"""Machine-speed probe: puts host times measured on a shared CPU on one scale.

On a shared host the same loop can run 1.5 times slower for a minute or
more while other tenants are busy, so no statistic taken inside one run
removes the difference between a slow run and a fast one.  The probe
measures that speed while the workload runs.  A ``SIGALRM`` interval timer
runs a fixed pure-Python ``reference`` every ``PERIOD_S`` on the main
thread, at the next bytecode boundary of whatever is running, and records
how long it took.  A time measured from ``t0`` to ``t1`` is then divided by
the median reference time around it and multiplied by ``REF_NS``: it
becomes the time the same work takes on a machine that runs the reference
in ``REF_NS``.

Every object the reference makes is freed before it returns, and the
collector is off while it runs, so the program's collections fall where
they would without the probe.  Time spent in the probe is counted in
``stolen``, so callers can take it out of what they measured.
"""

from __future__ import annotations

import gc
import re
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter_ns

PERIOD_S = 0.025
# Reference samples within this distance of a timed interval count for it:
# about five before and five after a short operation.
WINDOW_NS = 125_000_000
# About the median time of ``reference`` on the 2-vCPU Intel Xeon KVM guest
# described in README.md, in its faster state.  A constant, so that every
# run on every commit is scaled the same way.
REF_NS = 400_000

_TEXT = "\n".join(
    f"{i}. Item number {i}: keep the cache warm and see https://example.org/{i} for notes."
    for i in range(12)
)
_ITEM = re.compile(r"^(\d+)\.\s+([^:]+):", re.M)


class _Node:
    __slots__ = ("key", "next", "weight")

    def __init__(self, key: int, next: _Node | None):
        self.key, self.next, self.weight = key, next, key % 5

    def depth(self) -> int:
        total, node, hops = 0, self, 0
        while node is not None and hops < 4:
            total, node, hops = total + node.weight, node.next, hops + 1
        return total


def reference() -> int:
    """A fixed mix of interpreter work, weighted by how well each part tracked
    the workloads' own slowdowns: building and dropping lists of ints (three
    fifths of the time), regex and string work, and linked small objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        total = 0
        for _ in range(3):
            cells = list(range(4000))
            total += cells[-1]
            del cells
        for match in _ITEM.finditer(_TEXT):
            total += len(match.group(2))
        total += len(" ".join(w.strip(".:") for w in _TEXT.lower().split()))
        node, nodes = None, {}
        for i in range(150):
            node = _Node(i, node if i % 3 else None)
            nodes[i] = node
        return total + sum(n.depth() for n in nodes.values())
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    def __init__(self):
        self.starts: list[int] = []  # perf_counter_ns at the start of each sample
        self.times: list[int] = []  # ns the reference took in each sample
        self.stolen = 0  # ns spent in the probe so far

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter_ns()
        reference()
        t1 = perf_counter_ns()
        self.starts.append(t0)
        self.times.append(t1 - t0)
        self.stolen += t1 - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: int, t1: int) -> float:
        """REF_NS over the median reference time around [t0, t1]."""
        lo = bisect_left(self.starts, t0 - WINDOW_NS)
        hi = bisect_right(self.starts, t1 + WINDOW_NS)
        if lo == hi:
            raise RuntimeError("no speed sample near a timed interval")
        return REF_NS / statistics.median(self.times[lo:hi])
