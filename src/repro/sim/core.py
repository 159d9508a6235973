"""Discrete-event simulation kernel.

A small, deterministic, SimPy-like engine. Everything in the SenSORCER
reproduction — the network, Jini discovery, Rio provisioning, the SORCER
exertion runtime and the sensor devices — runs as processes inside one
:class:`Environment`.

Design notes
------------
* Time is a float in simulated seconds. There is no wall clock anywhere.
* Pending events live in one binary heap of ``(time, priority, tie, seq,
  event)`` tuples owned by :class:`Environment`. ``seq`` is a
  monotonically increasing counter, unique per occurrence, which makes the
  execution order a strict total order and fully deterministic.
* A :class:`Process` wraps a generator. The generator yields :class:`Event`
  objects; when a yielded event triggers, the process resumes with the
  event's value (or the event's exception is thrown into the generator).
* Failed events that nobody waits on are raised out of :meth:`Environment.run`
  so tests surface unhandled simulation errors instead of silently
  swallowing them.
"""

from __future__ import annotations

import os
import random as _random
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from . import sanitizer as _san
from .sanitizer import RaceSanitizer, SanitizerViolation  # noqa: F401 - re-export

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "RaceSanitizer",
    "SanitizerViolation",
    "SimulationError",
    "StopSimulation",
]

#: Environment variable honoured by :class:`Environment` when no explicit
#: ``tie_break_seed`` is passed — lets a test run (or CI job) shuffle every
#: scenario it builds without threading a parameter through the builders.
SHUFFLE_SEED_ENV = "REPRO_SHUFFLE_SEED"

#: Priority for "urgent" events (used internally for interrupts).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1
#: Priority for observers that must see an instant *after* it settles
#: (management-plane beats). Priority ordering is preserved under tie-break
#: shuffling — only same-priority peers get reordered — so a LOW timeout is
#: a deterministic "run me last at this timestamp" request.
LOW = 2


class SimulationError(Exception):
    """Raised when the simulation itself is misused (not a modelled failure)."""


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Environment.run` early."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    ``cause`` carries an arbitrary, caller-supplied reason object.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        return self.args[0]


#: Sentinel distinguishing "not yet set" from a ``None`` event value.
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event goes through three states: *pending* (created), *triggered*
    (succeed/fail called, callbacks scheduled) and *processed* (callbacks
    ran). Its value or exception is immutable once triggered.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: Set True when some process observed (yielded on) this event's
        #: failure, so the environment does not re-raise it.
        self._defused = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy another event's outcome onto this one (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            event._defused = True
            self.fail(event._value)

    # -- plumbing ----------------------------------------------------------

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None
        for cb in callbacks:
            cb(self)
        if self._ok is False and not self._defused:
            raise self._value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None,
                 priority: int = NORMAL):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, priority, delay)

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout cannot be retriggered")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout cannot be retriggered")


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env._schedule(self, URGENT)


class Process(Event):
    """Wraps a generator as a process; the process *is* an event that
    triggers with the generator's return value when it finishes."""

    __slots__ = ("_generator", "name", "_target")

    def __init__(self, env: "Environment", generator: Generator, name: str | None = None):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on (None while running).
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current wait."""
        if not self.is_alive:
            raise SimulationError(f"{self.name} has terminated; cannot interrupt")
        if self._target is None:
            raise SimulationError(f"{self.name} cannot interrupt itself")
        interrupt_ev = Event(self.env)
        interrupt_ev._ok = False
        interrupt_ev._value = Interrupt(cause)
        interrupt_ev._defused = True
        interrupt_ev.callbacks.append(self._resume)
        self.env._schedule(interrupt_ev, URGENT)

    def _resume(self, event: Event) -> None:
        # Ignore stale wakeups: after an interrupt, the original target may
        # still trigger later; by then self._target no longer references it.
        if self._value is not _PENDING:
            if not event._ok:
                event._defused = True
            return
        if (self._target is not None and event is not self._target
                and not isinstance(event._value, Interrupt)):
            if not event._ok:
                event._defused = True
            return
        # Detach from the event we were waiting on.
        if self._target is not None and self._target is not event:
            if self._target.callbacks is not None:
                try:
                    self._target.callbacks.remove(self._resume)
                except ValueError:
                    pass
        self.env._active_process = self
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event._defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as exc:
            self._target = None
            self.env._active_process = None
            self._ok = True
            self._value = exc.value
            self.env._schedule(self, NORMAL)
            return
        except BaseException as exc:
            self._target = None
            self.env._active_process = None
            self._ok = False
            self._value = exc
            self.env._schedule(self, NORMAL)
            return
        self.env._active_process = None
        if not isinstance(next_event, Event):
            error = SimulationError(
                f"process {self.name!r} yielded non-event {next_event!r}")
            self._generator.throw(error)
            return
        self._target = next_event
        if next_event.callbacks is not None:
            next_event.callbacks.append(self._resume)
        else:
            # Already processed: resume immediately (respecting outcome).
            resume_ev = Event(self.env)
            resume_ev._ok = next_event._ok
            resume_ev._value = next_event._value
            if not next_event._ok:
                resume_ev._defused = True
            resume_ev.callbacks.append(self._resume)
            self._target = resume_ev
            self.env._schedule(resume_ev, URGENT)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name} alive={self.is_alive}>"


class Condition(Event):
    """Triggers based on the outcomes of several child events."""

    __slots__ = ("events", "_evaluate", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event],
                 evaluate: Callable[[int, int], bool]):
        super().__init__(env)
        self.events = list(events)
        self._evaluate = evaluate
        self._done = 0
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._done += 1
        if self._evaluate(len(self.events), self._done):
            self.succeed([ev._value for ev in self.events if ev.triggered])


class AllOf(Condition):
    """Triggers when *all* child events have triggered; fails on first failure."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events, lambda total, done: done == total)


class AnyOf(Condition):
    """Triggers as soon as *any* child event has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events, lambda total, done: done >= 1)


class Environment:
    """The simulation environment: clock plus event queue.

    ``sanitize`` enables the same-timestamp race sanitizer (see
    :mod:`repro.sim.sanitizer`); pass ``True`` for raise-on-violation or
    ``"record"`` to accumulate violations in ``env.sanitizer.violations``.

    ``tie_break_seed`` enables the tie-break shuffle harness: ordering among
    events at identical ``(time, priority)`` is randomized by a
    seeded generator instead of strict scheduling order, while causal order
    (an event scheduled during another's execution runs after it) is
    preserved. Tests use it to prove results do not depend on the
    tie-breaker. When ``None``, the ``REPRO_SHUFFLE_SEED`` environment
    variable is consulted so whole suites can be shuffled externally.
    """

    def __init__(self, initial_time: float = 0.0,
                 sanitize: bool | str = False,
                 tie_break_seed: Optional[int] = None):
        self._now = float(initial_time)
        #: The pending-event heap of ``(time, priority, tie, seq, event)``.
        self._queue: list[tuple] = []
        #: Next scheduling sequence number; also the lifetime push count.
        self._seq = 0
        self._active_process: Optional[Process] = None
        if tie_break_seed is None:
            from_env = os.environ.get(SHUFFLE_SEED_ENV)
            if from_env:
                tie_break_seed = int(from_env)
        self.tie_break_seed = tie_break_seed
        # The tie-break stream deliberately sits outside the substream
        # scheme: it must not perturb (or be perturbed by) model RNG.
        self._tie_rng = (_random.Random(tie_break_seed)  # repro: allow[DET005]
                         if tie_break_seed is not None else None)
        self.sanitizer: Optional[RaceSanitizer] = None
        if sanitize:
            mode = sanitize if isinstance(sanitize, str) else "raise"
            self.sanitizer = RaceSanitizer(mode=mode)
        #: Wall-clock flight recorder hook (see
        #: :mod:`repro.observability.profile`). ``None`` keeps :meth:`step`
        #: on the branch-free fast path; when set, the recorder's
        #: ``enter``/``exit`` pair brackets every event's callbacks. The
        #: kernel itself never reads a wall clock — the recorder owns it —
        #: and the recorder only observes, so simulation state and event
        #: order are bit-identical with or without it.
        self._profiler = None
        #: Sampled-mode countdown to the next profiler stamp; owned by
        #: :meth:`step` (see there), reset by the recorder's ``attach``.
        self._prof_countdown = 1

    # -- clock --------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None,
                priority: int = NORMAL) -> Timeout:
        return Timeout(self, delay, value, priority)

    def process(self, generator: Generator, name: str | None = None) -> Process:
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling / execution ----------------------------------------------

    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        seq = self._seq
        self._seq = seq + 1
        tie = 0.0 if self._tie_rng is None else self._tie_rng.random()
        if self.sanitizer is not None:
            self.sanitizer.on_schedule(seq, event)
        heappush(self._queue, (self._now + delay, priority, tie, seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def scheduler_stats(self) -> dict:
        """Operation totals of the pending-event heap. Every push gets one
        ``seq`` and nothing leaves the heap except by a pop, so
        ``pops = pushes - pending``. Read-only and wall-clock-free, but
        tie-break-variant: never part of a canonical output."""
        pending = len(self._queue)
        return {"kind": "heap", "pending": pending, "pushes": self._seq,
                "pops": self._seq - pending}

    def pending(self) -> list:
        """Every pending occurrence as ``(time, priority, tie, seq, event)``
        tuples in pop order, without disturbing the queue. The snapshot
        capture enumerates the event set through this. ``seq`` is unique,
        so sorting never compares two events."""
        return sorted(self._queue)

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._queue:
            raise SimulationError("nothing scheduled")
        when, prio, _tie, seq, event = heappop(self._queue)
        self._now = when
        profiler = self._profiler
        if self.sanitizer is None:
            if profiler is None:
                event._run_callbacks()
                return
            if profiler.exit is None:
                # Observe-only recorder (sampled mode). The kernel owns
                # the countdown so the off-sample path is pure integer
                # arithmetic — no hook call, no bracketing. The counter
                # is deterministic state (no wall clock enters the
                # kernel) and exists only while a recorder is attached.
                countdown = self._prof_countdown - 1
                if countdown:
                    self._prof_countdown = countdown
                    event._run_callbacks()
                    return
                self._prof_countdown = profiler.period
                profiler.enter(event)
                event._run_callbacks()
                return
            profiler.enter(event)
            try:
                event._run_callbacks()
            finally:
                profiler.exit(event)
            return
        # Sanitize mode: make this environment's sanitizer visible to
        # instrumented shared state for the duration of the callbacks.
        self.sanitizer.begin_event(when, prio, seq, event)
        previous = _san._active
        _san._active = self.sanitizer
        bracketed = None
        if profiler is not None:
            if profiler.exit is None:
                countdown = self._prof_countdown - 1
                if countdown:
                    self._prof_countdown = countdown
                else:
                    self._prof_countdown = profiler.period
                    profiler.enter(event)
            else:
                bracketed = profiler
                profiler.enter(event)
        try:
            event._run_callbacks()
        finally:
            _san._active = previous
            if bracketed is not None:
                bracketed.exit(event)

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event queue drains;
        * a number — run until simulated time reaches it (clock is advanced
          to exactly ``until`` even if no event lands there);
        * an :class:`Event` — run until that event is processed, returning
          its value (or raising its exception).
        """
        stop_value: list[Any] = []
        if isinstance(until, Event):
            target = until

            def _stop(ev: Event) -> None:
                stop_value.append(ev)
                raise StopSimulation()

            if target.callbacks is None:
                if not target._ok:
                    raise target._value
                return target._value
            target.callbacks.append(_stop)
            deadline = float("inf")
        elif until is None:
            target = None
            deadline = float("inf")
        else:
            target = None
            deadline = float(until)
            if deadline < self._now:
                raise SimulationError(
                    f"until={deadline} is in the past (now={self._now})")

        try:
            queue = self._queue
            while queue and queue[0][0] <= deadline:
                self.step()
        except StopSimulation:
            ev = stop_value[0]
            if self.sanitizer is not None:
                self.sanitizer.flush()
            if not ev._ok:
                ev._defused = True
                raise ev._value
            return ev._value
        if self.sanitizer is not None:
            # The final tie group has no successor to trigger its analysis.
            self.sanitizer.flush()
        if target is not None:
            raise SimulationError("run(until=event): queue drained before event triggered")
        if deadline != float("inf"):
            self._now = deadline
        return None
