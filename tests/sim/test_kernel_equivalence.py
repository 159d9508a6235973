"""The kernel's ordering contract on its one event queue.

Pending events pop in ``(time, priority, tie, seq)`` order. ``tie`` is 0.0
unless the tie-break shuffle harness is on, in which case a seeded draw
reorders same-``(time, priority)`` peers; priority classes and causal
order survive the shuffle. These tests pin that contract, the race
sanitizer's view of a same-instant conflict, and the read-only views
(``pending()``, ``scheduler_stats()``) the snapshot capture and the
management plane depend on.
"""

import pytest

from repro.sim import Environment
from repro.sim.core import LOW, NORMAL, SHUFFLE_SEED_ENV, URGENT


def _tie_break_order(seed):
    env = Environment(tie_break_seed=seed)
    fired = []

    def waiter(index):
        yield env.timeout(1.0)
        fired.append(index)

    for index in range(12):
        env.process(waiter(index))
    env.run()
    return fired


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tie_break_shuffle_deviates_from_fifo(seed, monkeypatch):
    monkeypatch.delenv(SHUFFLE_SEED_ENV, raising=False)
    shuffled = _tie_break_order(seed)
    assert shuffled != list(range(12))
    assert sorted(shuffled) == list(range(12))
    assert _tie_break_order(seed) == shuffled  # seeded, so reproducible
    assert _tie_break_order(None) == list(range(12))


def test_sanitizer_reports_planted_race():
    """A same-timestamp write/read pair on one cell is reported."""
    env = Environment(sanitize="record")
    cell = {"value": 0}

    def writer():
        yield env.timeout(1.0)
        env.sanitizer.record("cell", "w", "the shared cell")
        cell["value"] = 1

    def reader():
        yield env.timeout(1.0)
        env.sanitizer.record("cell", "r", "the shared cell")
        cell["value"]

    env.process(writer())
    env.process(reader())
    env.run()
    reports = [(v.label, v.time) for v in env.sanitizer.violations]
    assert reports == [("the shared cell", 1.0)]


def test_priority_classes_order_within_an_instant():
    for seed in (None, 5):
        env = Environment(tie_break_seed=seed)
        fired = []
        env.timeout(1.0, priority=LOW).callbacks.append(
            lambda ev: fired.append("low"))
        env.timeout(1.0, priority=NORMAL).callbacks.append(
            lambda ev: fired.append("normal"))
        env.timeout(1.0, priority=URGENT).callbacks.append(
            lambda ev: fired.append("urgent"))
        env.run()
        assert fired == ["urgent", "normal", "low"]


def test_pending_is_pop_order_and_non_mutating():
    env = Environment()
    fired = []
    for index in range(40):
        env.timeout(float(index % 7), value=index,
                    priority=index % 3).callbacks.append(
            lambda ev: fired.append(ev.value))
    before = env.scheduler_stats()
    listed = env.pending()
    assert env.pending() == listed
    assert env.scheduler_stats() == before
    env.run()
    assert fired == [entry[4].value for entry in listed]


def test_scheduler_stats_balance():
    env = Environment()
    for index in range(10):
        env.timeout(float(index))
    env.run(until=4.5)
    stats = env.scheduler_stats()
    assert stats == {"kind": "heap", "pending": 5, "pushes": 10, "pops": 5}
