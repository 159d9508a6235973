"""Kernel queue soak: a million random occurrences against the invariants.

Full tier pushes ~1M occurrences through the environment's event queue;
``REPRO_BENCH_SMOKE=1`` (the CI smoke tier) drops to 50k. Invariants
under load:

* monotone time — pops never go backwards;
* FIFO within ties — same ``(time, priority)`` keys drain in scheduling
  order when the tie-break shuffle is off;
* conservation — every scheduled occurrence fires exactly once.
"""

import os

import numpy as np
import pytest

from repro.sim import Environment
from repro.sim.core import SHUFFLE_SEED_ENV

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
SOAK_EVENTS = 50_000 if SMOKE else 1_000_000
ENV_EVENTS = 20_000 if SMOKE else 200_000


@pytest.mark.slow
def test_queue_soak_invariants(monkeypatch):
    """Random push/step storm driven from outside the event loop."""
    monkeypatch.delenv(SHUFFLE_SEED_ENV, raising=False)
    env = Environment()
    rng = np.random.default_rng(0xC0FFEE)
    fired: list[tuple] = []
    pushed = 0
    # Pushes slightly outnumber steps so the queue grows through the run,
    # then the final drain empties it.
    op_draw = rng.random(SOAK_EVENTS)
    time_draw = rng.random(SOAK_EVENTS)
    for i in range(SOAK_EVENTS):
        if op_draw[i] < 0.52 or env.peek() == float("inf"):
            # A coarse lattice so same-instant ties are common.
            priority = i % 3
            ev = env.timeout(round(float(time_draw[i]) * 50.0, 1),
                             value=pushed, priority=priority)
            ev.callbacks.append(lambda ev, priority=priority: fired.append(
                (env.now, priority, ev.value)))
            pushed += 1
        else:
            env.step()
    env.run()
    assert len(fired) == pushed, "lost or duplicated occurrences"
    times = [t for t, _, _ in fired]
    assert times == sorted(times), "time went backwards"
    # A zero-delay push lands behind lower-priority peers already popped
    # at this instant, so only FIFO within one (time, priority) key holds.
    last: dict[tuple, int] = {}
    for t, priority, index in fired:
        assert last.get((t, priority), -1) < index, "FIFO within ties broken"
        last[(t, priority)] = index


@pytest.mark.slow
def test_environment_soak_invariants():
    """Whole-kernel soak: hundreds of processes rescheduling themselves on
    a tie-heavy lattice; the clock never regresses, every timer fires
    exactly as often as its schedule allows, and same-instant direct
    timeouts fire in scheduling order."""
    env = Environment()
    rng = np.random.default_rng(2009)
    n_procs = 200
    per_proc = max(ENV_EVENTS // n_procs, 1)
    fired: list[tuple] = []
    observed_now = [0.0]

    def ticker(pid, delays):
        for delay in delays:
            yield env.timeout(delay)
            assert env.now >= observed_now[0], "clock went backwards"
            observed_now[0] = env.now
            fired.append((env.now, pid))

    for pid in range(n_procs):
        delays = (rng.integers(0, 40, size=per_proc) * 0.25).tolist()
        env.process(ticker(pid, delays))

    # Direct same-instant burst: all scheduled up front from one event
    # context, so FIFO-within-tie is exactly creation order.
    burst_fired: list[int] = []
    for index in range(512):
        env.timeout(7.25).callbacks.append(
            lambda ev, index=index: burst_fired.append(index))

    env.run()
    assert len(fired) == n_procs * per_proc, "lost or duplicated events"
    assert burst_fired == list(range(512))
    times = [t for t, _ in fired]
    assert times == sorted(times)


def test_smoke_tier_is_documented():
    """The env knob the CI smoke tier uses must keep cutting the soak."""
    assert SOAK_EVENTS >= 50_000
    assert ENV_EVENTS >= 20_000
