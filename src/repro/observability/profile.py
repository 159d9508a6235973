"""Flight recorder — a wall-clock profiler for the simulation kernel.

The ROADMAP's scale arc can prove *that* the kernel is fast (E-KERNEL) but
not *where* wall-clock time goes inside a run. This module answers that:
a :class:`FlightRecorder` attaches to an :class:`~repro.sim.Environment`
through the kernel's ``_profiler`` hook and stamps ``perf_counter``
around every event's callbacks, aggregating

* **per-event-type / per-callback attribution** — each step is charged to
  a ``(event type, target)`` pair, where the target is the process a
  ``Process._resume`` callback belongs to (``process:health-monitor``),
  the condition instance for fan-in events, or the bare event type;
* **rolling throughput** — an (elapsed wall, sim time, events) sample
  every ``sample_every`` events, so a long run yields an events/sec
  trajectory instead of one end-to-end average;
* **kernel queue totals** — pending events, pushes and pops, read from
  :meth:`~repro.sim.Environment.scheduler_stats` at report time;
* **service-time aggregation** — sim-side per-provider service-time and
  per-host RPC round-trip summaries folded out of the metrics registry,
  so one report ties wall-clock hot spots to the simulated services that
  caused them.

Two recording modes trade precision for cost:

* **sampled** (the default): a statistical profile. The recorder leaves
  ``exit`` as ``None``, which tells the kernel to run its own countdown
  inline — all but every ``period``-th event pay one integer decrement,
  no hook call, no bracketing ``try/finally``. A triggered sample takes
  one clock stamp and charges the whole stretch since the previous
  stamp — scheduler pops, dispatch and callbacks for ``period`` events —
  to the event caught at the stamp. Exactly the semantics of an
  interrupt-driven sampling profiler: per-row shares converge on the
  true distribution while the per-event cost stays near the kernel's
  fast path. Attribution covers ~100% of the run by construction (every
  stretch is charged to some row; at most ``period - 1`` trailing
  events go unattributed). ``period=1`` degenerates to exact per-event
  timing. This is the always-on mode E-PROF gates at ≤5% wall clock.
* **detail** (``detail=True``): exact, not sampled — two stamps per
  event, splitting callback time from kernel dispatch time (reported as
  an explicit ``kernel/scheduler+dispatch`` row) with exact per-row
  event counts. Costs 15-25% on event-dense workloads, which is fine
  for its user: the explicit ``repro profile`` CLI run.

Determinism contract (DESIGN §12): profiling data is a **side channel**.
The recorder only ever *reads* simulation state — it never schedules,
never draws randomness, never mutates an event — so event order, metrics,
traces, ``status --json`` bytes and chaos verdicts are identical with the
recorder attached or not. That invariant is pinned by
``tests/observability/test_profile.py`` and the E-PROF benchmark. The
wall-clock values themselves are of course machine-dependent; they never
feed back into the simulation.

The hook bodies are generated as closures at attach time: the kernel
calls them once per event, and closure-cell state is measurably cheaper
than attribute traffic on ``self`` at that call rate.
"""
# repro: allow-file[DET001] - the flight recorder *is* the wall clock probe: it measures the simulator itself and stays out of sim state

from __future__ import annotations

import time
from typing import Callable, Optional

from ..sim.core import Process

__all__ = ["FlightRecorder", "profile_run", "service_times"]


class FlightRecorder:
    """Aggregating wall-clock profiler for one simulation run.

    ``clock`` is injectable (tests pass a fake counter); it must be a
    zero-argument callable returning monotonically increasing seconds.
    ``sample_every`` sets the rolling-throughput granularity in events.
    ``period`` is the sampled mode's countdown: one clock stamp every
    ``period`` events (1 = exact per-event timing). ``detail`` selects
    the exact two-stamp callback/kernel split (see the module
    docstring); leave it off for always-on recording.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 sample_every: int = 4096, period: int = 32,
                 detail: bool = False):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if period < 1:
            raise ValueError("period must be >= 1")
        self._clock = clock
        self.sample_every = sample_every
        self.period = period
        self.detail = detail
        self.env = None
        #: (event class, target) -> [count, wall_seconds]; target is a
        #: process name, a pre-formatted 1-tuple (cold path) or None.
        #: In sampled mode ``count`` is the number of *samples*; report()
        #: scales it by ``period`` into an event-count estimate.
        self._agg: dict[tuple, list] = {}
        #: Rolling throughput samples: (elapsed_wall_s, sim_t, events).
        self._throughput: list[tuple] = []
        self._events = 0
        self._attached_at: Optional[float] = None
        self._run_wall = 0.0       # wall seconds covered while attached
        self._attributed_wall = 0.0  # wall seconds charged to event rows
        self._kernel_wall = 0.0    # detail mode: dispatch between callbacks
        # Kernel hook slots; real closures are installed by attach().
        self.enter = self._not_attached
        self.exit = self._not_attached
        self._sync = lambda: None

    @staticmethod
    def _not_attached(event) -> None:
        raise RuntimeError("recorder is not attached (use attach()/"
                           "profile_run)")

    # -- lifecycle -------------------------------------------------------------

    def attach(self, env) -> "FlightRecorder":
        """Start recording ``env``; returns self (context-manager style is
        :func:`profile_run`). Re-attaching to another env is an error —
        one recorder aggregates one run."""
        if self.env is not None and self.env is not env:
            raise ValueError("recorder is already attached to another env")
        if env._profiler is not None and env._profiler is not self:
            raise ValueError("environment already has a profiler attached")
        self.env = env
        self._attached_at = self._clock()
        self._install_hooks(env)
        if not self.detail:
            env._prof_countdown = self.period
        env._profiler = self
        return self

    def _install_hooks(self, env) -> None:
        """Build ``enter``/``exit`` as closures over local cells.

        They run once per kernel event; keeping the mutable counters in
        closure cells instead of instance attributes is what keeps the
        combined mode inside its overhead budget. ``_sync`` publishes the
        cells back onto the instance for report()/detach().
        """
        clock = self._clock
        agg = self._agg
        agg_get = agg.get
        sample_every = self.sample_every
        period = self.period
        throughput_append = self._throughput.append
        attached_at = self._attached_at
        base_events = self._events
        events = base_events
        samples = 0
        # Throughput cadence, expressed in triggers so the hot path never
        # tracks a second counter.
        throughput_every = max(1, sample_every // period)
        kernel_wall = 0.0
        last_mark = attached_at
        label = None
        t0 = attached_at

        def sampled_enter(event):
            # Called by the kernel only on every period-th event (its
            # inline countdown gates the rest). A trigger charges the
            # stretch since the previous stamp — period events of pops,
            # dispatch and callbacks — to the event caught here, while
            # its callback list is intact (_run_callbacks clears it).
            nonlocal samples, last_mark
            now = clock()
            dt = now - last_mark
            last_mark = now
            cb = event.callbacks
            if cb:
                try:
                    owner = cb[0].__self__
                except AttributeError:
                    owner = None
                if type(owner) is Process:
                    key = (event.__class__, owner.name)
                else:  # cold: condition checks, run()'s stop hook, ...
                    key = (event.__class__, (_cold_target(cb[0], owner),))
            else:
                key = (event.__class__, None)
            entry = agg_get(key)
            if entry is None:
                agg[key] = [1, dt]
            else:
                entry[0] += 1
                entry[1] += dt
            samples += 1
            if not samples % throughput_every:
                throughput_append(
                    (now - attached_at, env._now,
                     base_events + samples * period))

        def detail_enter(event):
            nonlocal label, t0, kernel_wall
            callbacks = event.callbacks
            if callbacks:
                owner = getattr(callbacks[0], "__self__", None)
                if type(owner) is Process:
                    label = (event.__class__, owner.name)
                else:
                    label = (event.__class__,
                             (_cold_target(callbacks[0], owner),))
            else:
                label = (event.__class__, None)
            now = clock()
            # Since the previous stamp the kernel was popping/dispatching.
            kernel_wall += now - last_mark
            t0 = now

        def detail_exit(event):
            nonlocal last_mark, events
            now = clock()
            dt = now - t0
            last_mark = now
            entry = agg_get(label)
            if entry is None:
                agg[label] = [1, dt]
            else:
                entry[0] += 1
                entry[1] += dt
            events += 1
            if not events % sample_every:
                throughput_append((now - attached_at, env._now, events))

        # Attributed wall equals the sum charged into the aggregation table
        # in both modes, so the hot path never maintains a separate total —
        # sync() derives it on demand. Seed the baseline with whatever a
        # previous attach already published so re-attaching never
        # double-counts.
        synced_attributed = sum(entry[1] for entry in agg.values())
        synced_kernel = 0.0

        detail = self.detail

        def sync():
            # Idempotent: publishes only the growth since the last sync,
            # so live report()/events reads never double-count. The
            # sampled mode reconstructs the exact event count from the
            # countdown instead of paying a counter on every call.
            nonlocal synced_attributed, synced_kernel
            if detail:
                self._events = events
            else:
                # The kernel's countdown says how far into the current
                # period the run is, making the count exact.
                self._events = (base_events + samples * period
                                + (period - env._prof_countdown))
            attributed = sum(entry[1] for entry in agg.values())
            self._attributed_wall += attributed - synced_attributed
            self._kernel_wall += kernel_wall - synced_kernel
            synced_attributed = attributed
            synced_kernel = kernel_wall

        if detail:
            self.enter, self.exit = detail_enter, detail_exit
        else:
            # exit=None tells the kernel this recorder is observe-only:
            # it runs its inline countdown and calls enter only on every
            # period-th event, skipping the try/finally entirely.
            self.enter, self.exit = sampled_enter, None
        self._sync = sync

    def detach(self) -> None:
        """Stop recording (idempotent); totals and samples are kept."""
        if self.env is None:
            return
        self._sync()
        self._sync = lambda: None
        self.enter = self._not_attached
        self.exit = self._not_attached
        if self._attached_at is not None:
            self._run_wall += self._clock() - self._attached_at
            self._attached_at = None
        if self.env._profiler is self:
            self.env._profiler = None

    @property
    def attached(self) -> bool:
        return self.env is not None and self.env._profiler is self

    @property
    def events(self) -> int:
        self._sync()
        return self._events

    # -- reporting -------------------------------------------------------------

    def report(self, registry=None, top: Optional[int] = None) -> dict:
        """The full flight-recorder report as plain JSON-ready data.

        ``registry`` (a :class:`MetricsRegistry`) adds the sim-side
        service-time aggregation; ``top`` truncates the attribution table
        (the dropped tail is summed into the ``truncated`` entry so shares
        always account for every measured event).
        """
        self._sync()
        wall = self._run_wall
        if self._attached_at is not None:  # still attached: live view
            wall += self._clock() - self._attached_at
        attributed = self._attributed_wall
        kernel_wall = self._kernel_wall
        # Sampled mode stores sample counts; scale them into event-count
        # estimates so the column means the same thing in both modes.
        scale = 1 if self.detail else self.period
        rows = sorted(
            ((cls.__name__, _display_target(target), count * scale, seconds)
             for (cls, target), (count, seconds) in self._agg.items()),
            key=lambda row: (-row[3], row[0], row[1]))
        if self.detail:
            # Detail mode measured dispatch separately — surface it as an
            # explicit named row, not unaccounted mystery time.
            rows.insert(
                _insertion_index(rows, kernel_wall),
                ("kernel", "scheduler+dispatch", self._events, kernel_wall))
            attributed += kernel_wall
        truncated = None
        if top is not None and len(rows) > top:
            tail = rows[top:]
            rows = rows[:top]
            truncated = {
                "rows": len(tail),
                "count": sum(r[2] for r in tail),
                "wall_s": round(sum(r[3] for r in tail), 6),
            }
        attribution = [
            {"event_type": etype, "target": target, "count": count,
             "wall_s": round(seconds, 6),
             "share": round(seconds / wall, 4) if wall > 0 else 0.0}
            for etype, target, count, seconds in rows]
        report = {
            "mode": "detail" if self.detail else "sampled",
            "events": self._events,
            "wall_s": round(wall, 6),
            "events_per_sec": (round(self._events / wall, 1)
                               if wall > 0 else 0.0),
            # Fraction of attached wall time landing in a named attribution
            # row; the remainder is time outside the event loop (attach-to-
            # first-event, run()-call framing) plus the recorder's own
            # clock reads.
            "attributed_share": (round(min(1.0, attributed / wall), 4)
                                 if wall > 0 else 0.0),
            "attribution": attribution,
            "throughput": [
                {"wall_s": round(w, 6), "sim_t": t, "events": n}
                for w, t, n in self._throughput],
            "scheduler": (self.env.scheduler_stats()
                          if self.env is not None else None),
        }
        if self.detail:
            if wall > 0:
                report["kernel_share"] = round(kernel_wall / wall, 4)
                report["callback_share"] = round(
                    (attributed - kernel_wall) / wall, 4)
        else:
            report["sample_period"] = self.period
        if truncated is not None:
            report["truncated"] = truncated
        if registry is not None:
            report["services"] = service_times(registry)
        return report


def service_times(registry) -> dict:
    """Sim-side service-time aggregation out of the metrics registry.

    Summarizes every ``provider.service_time{provider=...}`` and
    ``rpc.rtt{host=...}`` histogram into count / mean / p50 / p95 rows —
    deterministic (pure function of registry state), so it rides along in
    the profile report without breaking the side-channel contract.
    """
    out: dict[str, dict] = {}
    for section, prefix in (("providers", "provider.service_time"),
                            ("rpc", "rpc.rtt")):
        rows = {}
        for key, metric in registry.items(prefix):
            if getattr(metric, "metric_type", None) != "histogram" \
                    or not metric.count:
                continue
            label = key[len(prefix):].strip("{}")
            rows[label or "-"] = {
                "count": metric.count,
                "mean": round(metric.mean, 6),
                "p50": _round(metric.quantile_interpolated(0.5)),
                "p95": _round(metric.quantile_interpolated(0.95)),
            }
        out[section] = rows
    return out


def _round(value, digits: int = 6):
    return round(value, digits) if value is not None else None


def _cold_target(cb, owner) -> str:
    """Display target for the rare non-``Process._resume`` callbacks
    (condition ``_check`` hooks, ``run()``'s stop closure, plain
    functions). Computed eagerly — this path fires a handful of times per
    run — and wrapped in a 1-tuple by the caller so report-time rendering
    can tell it from a process name."""
    if owner is not None:
        name = getattr(owner, "name", None)
        if name is not None:
            return f"{type(owner).__name__}:{name}"
        return type(owner).__name__
    return getattr(cb, "__qualname__", "callback")


def _display_target(target) -> str:
    if target is None:
        return "-"
    if type(target) is tuple:  # pre-formatted cold-path label
        return target[0]
    return f"process:{target}"


def _insertion_index(rows: list, seconds: float) -> int:
    """Where a row with ``seconds`` of wall time slots into the
    descending-by-wall attribution table."""
    for i, row in enumerate(rows):
        if seconds > row[3]:
            return i
    return len(rows)


class profile_run:
    """Context manager: attach a recorder to ``env`` for the ``with`` body.

    >>> recorder = FlightRecorder(detail=True)
    >>> with profile_run(env, recorder):
    ...     env.run(until=30.0)
    >>> recorder.report()
    """

    def __init__(self, env, recorder: Optional[FlightRecorder] = None):
        self.recorder = recorder if recorder is not None else FlightRecorder()
        self._env = env

    def __enter__(self) -> FlightRecorder:
        return self.recorder.attach(self._env)

    def __exit__(self, *exc) -> None:
        self.recorder.detach()
