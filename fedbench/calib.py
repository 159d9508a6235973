"""Calibrated host time: slice the timed phase, time a fixed reference
loop after every slice, report the ratio.

The sandbox this benchmark was built on drifts: a fixed pure-Python loop
alternates between two speeds roughly 1.6x apart, switching every few
seconds, so raw wall time of the same work moves 6-20% between sets of
runs. Work done in a slice and the reference loop right after it run at
(nearly) the same host speed, so their ratio cancels the drift.

The phases slow cache-missing code less than register-bound code, so
the reference has two halves: interpreter dispatch on small ints, and a
pointer chase through a ~20 MB shuffled chain of objects (far larger
than L2, like the simulator's heap). Over five repetitions of one seed
the mixed reference spread 2.6-5.5% where the first half alone spread
7-11% (soak, grid, chaos; see README.md).
"""

from __future__ import annotations

import resource
import time

#: 256 small ints: iterating them and indexing with them allocates
#: nothing (CPython caches ints in [-5, 256]).
_KEYS = tuple(range(256))
_TABLE = {k: (k * 7 + 3) & 255 for k in _KEYS}
#: Rounds of 256 dispatch steps per reference call (at most 256, so the
#: round counter stays a cached small int too).
REF_ROUNDS = 64
#: Chain length (a power of two, ~6 MB of nodes: three times L2) and
#: (outer, inner) step counts of the pointer chase.
CHAIN_NODES = 1 << 17
CHASE_STEPS = (50, 250)
#: Set-up cannot be sliced, so ``setup_s`` is its wall time scaled by
#: this over the reference time measured right before and after it:
#: seconds on a host where one reference call takes 3.5 ms (its fast
#: phase on the 2-core VM this was built on).
REF_NOMINAL_S = 0.0035
#: Span layer of the reference loops in traced mode (not a program layer).
CALIBRATION = "calibration"


class _Node:
    __slots__ = ("v", "nxt")


def _build_chain(n: int) -> "_Node":
    """One cycle through ``n`` nodes in scattered order: i -> (5i + 1)
    mod n has full period for a power-of-two ``n``. Builds no index
    list, so the only temporary is the node list (freed to the OS)."""
    nodes = [_Node() for _ in range(n)]
    for i, node in enumerate(nodes):
        node.v = i & 255
        node.nxt = nodes[(5 * i + 1) % n]
    return nodes[0]


def _rss_mb() -> float:
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * resource.getpagesize() / 2**20


_rss0 = _rss_mb()
_CHAIN = _build_chain(CHAIN_NODES)
#: Resident memory the chain holds (MB); ``rep.py`` takes it off the
#: process's peak so ``peak_rss_mb`` is the program's.
CHAIN_RSS_MB = _rss_mb() - _rss0


class _Acc:
    __slots__ = ("acc",)

    def __init__(self):
        self.acc = 0

    def step(self, k: int) -> None:
        self.acc = (self.acc + k) & 255


def reference_loop() -> int:
    """Fixed work without allocating: the interpreter's common operations
    (method call, attribute store, dict lookup, int arithmetic), then a
    cache-missing pointer chase. Returns a value that depends on every
    step."""
    acc = _Acc()
    table = _TABLE
    for _ in range(REF_ROUNDS):
        for k in _KEYS:
            acc.step(table[k])
    node = _CHAIN
    total = acc.acc
    outer, inner = CHASE_STEPS
    for _ in range(outer):
        for _ in range(inner):
            total = (total + node.v) & 255
            node = node.nxt
    return total


class SlicedClock:
    """Accumulates host time of work slices and of the reference loop
    run after each one. ``host_cal`` is their ratio.

    ``repeats`` reference loops follow each slice; coarse slices (a
    whole chaos campaign run) take more so the reference keeps about the
    same share of the run."""

    def __init__(self, repeats: int = 1, tracer=None):
        self.repeats = repeats
        #: In traced mode the reference loops are a span of their own,
        #: so a layer span that encloses slices does not absorb them.
        self.tracer = tracer
        self.work_s = 0.0
        self.ref_s = 0.0
        self.slices = 0

    def run(self, fn, *args):
        """Time ``fn(*args)`` as one slice, then one reference loop."""
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        if self.tracer is not None:
            self.tracer.enter(CALIBRATION, "reference_loop")
        for _ in range(self.repeats):
            reference_loop()
        if self.tracer is not None:
            self.tracer.exit()
        t2 = time.perf_counter()
        self.work_s += t1 - t0
        self.ref_s += t2 - t1
        self.slices += 1
        return result

    @property
    def host_cal(self) -> float:
        return self.work_s / self.ref_s

    @property
    def ref_unit_s(self) -> float:
        """Mean seconds of one reference loop in this run."""
        return self.ref_s / (self.slices * self.repeats)


def reference_seconds(loops: int = 4) -> float:
    """Mean wall seconds of one reference loop, measured now."""
    t0 = time.perf_counter()
    for _ in range(loops):
        reference_loop()
    return (time.perf_counter() - t0) / loops
