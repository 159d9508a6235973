"""Traced mode: per-layer self time and work counts, measured from outside.

``LayerTracer.install()`` wraps, before the workload is built:

* every public method (and every ``_op_*`` remote-operation handler) of
  the classes each layer package exports in ``__all__``;
* ``Environment.process``, so each simulation process is attributed to
  the layer whose module defines its generator, and ``Environment.run``,
  the root span of every timed slice;
* the scenario build functions (``build_paper_lab``,
  ``build_sensorcer_grid``, ``build_load_lab``) for
  ``scenarios.build_share``.

A call opens a span on entry and closes it on return; a generator opens
one around each resume. Spans therefore nest exactly like the host call
stack, and a span's self time is its duration minus its children's. The
root spans cover the timed phase, so the layers' self times add up to
the traced timed host time. ``trace.closure`` divides that sum by the
slice clock's own total, which it matches up to the clock's stamps; the
reference loops run in a ``calibration`` span that no layer is charged.

Wrappers only observe: arguments, return values, exceptions, ``send``,
``throw`` and ``close`` pass through unchanged, and nothing here draws
from a random stream, so a traced run yields the same canonical output
as an untraced one.
"""

from __future__ import annotations

import enum
import functools
import importlib
import statistics
import time
import types

from calib import CALIBRATION

#: The layers, named after the program's packages. Code anywhere else
#: (``rio``, ``load``, ``metrics``, ``util``, the benchmark's own client
#: processes) is ``other``.
LAYERS = ("sim", "observability", "net", "jini", "sorcer", "core", "expr",
          "sensors", "overload", "resilience", "chaos", "scenarios")
#: Packages whose exported classes get wrapped (``sim`` is wrapped at
#: ``Environment.run``/``process`` only; its events are the kernel).
WRAPPED_PACKAGES = tuple(p for p in LAYERS if p not in ("sim", "scenarios"))

#: Named spans behind per-method metrics.
TICK = "HealthMonitor.tick"
MODEL = "HealthModel.evaluate"
COLLECT = "TimeSeriesStore.collect"
SLO = "SloEngine.evaluate"
EXERT = "Exerter.exert"
CSP_READ = "CompositeSensorProvider._op_get_value"
LUS_LOOKUPS = ("LookupService.lookup", "LookupService.lookup_all")
LUS_REGISTER = "LookupService.register"
#: Remote renewal entry points of every jini landlord (LUS, mailbox, txn).
RENEW = ".renew_lease"
EXPR_EVAL = "Expression.evaluate"
CHAOS_APPLY = ("InjectorEngine", "ChaosLink")
CHAOS_JUDGE = "evaluate_invariants"


def layer_of_file(path: str) -> str:
    marker = "/repro/"
    i = path.rfind(marker)
    if i < 0:
        return "other"
    package = path[i + len(marker):].split("/", 1)[0]
    return package if package in LAYERS else "other"


class LayerTracer:
    def __init__(self):
        self.stack = []
        self.layer_self = dict.fromkeys(LAYERS + ("other", CALIBRATION), 0.0)
        self.calls = {}
        self.method_self = {}
        self.method_incl = {}
        self.points = 0          # sensor locations sampled
        self.sample_calls = 0
        self._file_layer = {}
        self.build_s = 0.0

    # -- spans ---------------------------------------------------------------

    def enter(self, layer: str, name: str) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.stack.append([layer, name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        now = time.perf_counter()
        layer, name, start, child = self.stack.pop()
        duration = now - start
        own = duration - child
        self.layer_self[layer] += own
        self.method_self[name] = self.method_self.get(name, 0.0) + own
        self.method_incl[name] = self.method_incl.get(name, 0.0) + duration
        if self.stack:
            self.stack[-1][3] += duration

    def traced_generator(self, gen, layer: str, name: str):
        enter, exit_ = self.enter, self.exit

        def resumes():
            send, throw = gen.send, gen.throw
            value, error = None, None
            while True:
                enter(layer, name)
                try:
                    out = send(value) if error is None else throw(error)
                except StopIteration as stop:
                    exit_()
                    return stop.value
                except BaseException:
                    exit_()
                    raise
                exit_()
                error = None
                try:
                    value = yield out
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # thrown in: pass it on
                    value, error = None, exc

        wrapper = resumes()
        # Process names default to the generator's __name__.
        wrapper.__name__ = gen.__name__
        wrapper.__qualname__ = gen.__qualname__
        return wrapper

    def wrap(self, fn, layer: str, name: str, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(tracer, args)
            tracer.enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if type(result) is types.GeneratorType:
                return tracer.traced_generator(result, layer, name)
            return result

        traced.__fedbench_wrapped__ = True
        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        from repro.sim import Environment
        tracer = self
        run, process = Environment.run, Environment.process

        @functools.wraps(run)
        def traced_run(env, until=None):
            tracer.enter("sim", "Environment.run")
            try:
                return run(env, until)
            finally:
                tracer.exit()

        @functools.wraps(process)
        def traced_process(env, generator, name=None):
            if type(generator) is types.GeneratorType and \
                    generator.gi_code is not _RESUMES_CODE:
                path = generator.gi_code.co_filename
                layer = tracer._file_layer.get(path)
                if layer is None:
                    layer = tracer._file_layer[path] = layer_of_file(path)
                generator = tracer.traced_generator(
                    generator, layer, generator.__qualname__)
            return process(env, generator, name)

        Environment.run = traced_run
        Environment.process = traced_process
        for package in WRAPPED_PACKAGES:
            module = importlib.import_module(f"repro.{package}")
            for export in getattr(module, "__all__", ()):
                obj = getattr(module, export, None)
                if isinstance(obj, type):
                    self._wrap_class(obj, package)
        self._wrap_sensors()
        self._wrap_scenario_builds()
        self._wrap_chaos_judge()

    def _wrap_class(self, cls, layer: str) -> None:
        if (issubclass(cls, (BaseException, enum.Enum))
                or not cls.__module__.startswith(f"repro.{layer}")):
            return
        for attr, value in list(vars(cls).items()):
            public = not attr.startswith("_") or attr.startswith("_op_")
            if (public and isinstance(value, types.FunctionType)
                    and not getattr(value, "__fedbench_wrapped__", False)):
                setattr(cls, attr, self.wrap(value, layer,
                                             f"{cls.__name__}.{attr}"))

    def _wrap_sensors(self) -> None:
        from repro.sensors import PhysicalEnvironment

        def one(tracer, args):
            tracer.points += 1
            tracer.sample_calls += 1

        def many(tracer, args):
            tracer.points += len(args[2])
            tracer.sample_calls += 1

        # Re-wrap with counters (the class pass wrapped them plainly).
        for attr, count in (("sample", one), ("sample_many", many)):
            fn = getattr(PhysicalEnvironment, attr).__wrapped__
            setattr(PhysicalEnvironment, attr, self.wrap(
                fn, "sensors", f"PhysicalEnvironment.{attr}", count=count))

    def _wrap_scenario_builds(self) -> None:
        import repro.scenarios as scenarios
        import repro.scenarios.grids as grids
        import repro.scenarios.paper_lab as paper_lab
        import repro.load as load
        import repro.load.scenario as load_scenario
        tracer = self

        def build_span(fn, name):
            wrapped = self.wrap(fn, "scenarios", name)

            @functools.wraps(fn)
            def timed(*args, **kwargs):
                outer = not any(f[1].startswith("build:") for f in tracer.stack)
                t0 = time.perf_counter()
                try:
                    return wrapped(*args, **kwargs)
                finally:
                    if outer:
                        tracer.build_s += time.perf_counter() - t0

            return timed

        paper = build_span(paper_lab.build_paper_lab, "build:paper_lab")
        grid = build_span(grids.build_sensorcer_grid, "build:sensorcer_grid")
        lab = build_span(load_scenario.build_load_lab, "build:load_lab")
        for module in (scenarios, paper_lab, load_scenario):
            module.build_paper_lab = paper
        for module in (scenarios, grids):
            module.build_sensorcer_grid = grid
        for module in (load, load_scenario):
            module.build_load_lab = lab

    def _wrap_chaos_judge(self) -> None:
        import repro.chaos.campaign as campaign
        campaign.evaluate_invariants = self.wrap(
            campaign.evaluate_invariants, "chaos", "evaluate_invariants")

    # -- phases ------------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "layer_self": dict(self.layer_self),
            "calls": dict(self.calls),
            "method_self": dict(self.method_self),
            "method_incl": dict(self.method_incl),
            "points": self.points,
            "sample_calls": self.sample_calls,
        }

    def start(self, tally: dict) -> None:
        """Mark the start of the timed phase; ``tally`` holds the
        workload's :func:`net_tally` totals at that point."""
        self._start = self.snapshot()
        self._registry0, self._spans0 = tally["registry"], tally["spans"]

    def stop(self, tally: dict) -> None:
        self._stop = self.snapshot()
        self._registry1, self._spans1 = tally["registry"], tally["spans"]

    def report(self, wl, clock, setup_s: float, events: int,
               sim_s: float) -> dict:
        a, b = self._start, self._stop

        def delta(key):
            return {k: v - a[key].get(k, 0) for k, v in b[key].items()}

        layer_self = delta("layer_self")
        calls = delta("calls")
        method_self = delta("method_self")
        method_incl = delta("method_incl")
        # Traced timed host time: every span but the reference loops.
        total = sum(v for k, v in layer_self.items() if k != CALIBRATION)
        counters, hists = registry_delta(self._registry0, self._registry1)

        def share(seconds):
            return seconds / total

        def named(table, names):
            return sum(v for k, v in table.items()
                       if any(k == n or k.startswith(n + ".") for n in names))

        beats = calls.get(TICK, 0)
        exertions = calls.get(EXERT, 0)
        lookups = sum(calls.get(n, 0) for n in LUS_LOOKUPS)
        csp_reads = calls.get(CSP_READ, 0)
        faults = 0
        if isinstance(getattr(wl, "summary", None), dict):  # chaos
            faults = sum(sum(run["faults"]["applied"].values())
                         for run in wl.summary["runs"])
        metrics = {
            "sim.events": (events, "count"),
            "sim.events_per_sim_s": (events / sim_s, "1/sim-s"),
            "observability.beats": (beats, "count"),
            "observability.beat_cal": (
                (method_incl.get(TICK, 0.0) / beats / clock.ref_unit_s)
                if beats else 0.0, "ref"),
            "observability.tick_self_share": (
                share(method_self.get(TICK, 0.0)), "ratio"),
            "observability.model_self_share": (
                share(method_self.get(MODEL, 0.0)), "ratio"),
            "observability.collect_self_share": (
                share(method_self.get(COLLECT, 0.0)), "ratio"),
            "observability.slo_self_share": (
                share(method_self.get(SLO, 0.0)), "ratio"),
            "observability.spans": (self._spans1 - self._spans0, "count"),
            "net.messages": (counters.get("net.messages", 0), "count"),
            "net.bytes": (counters.get("net.bytes", 0), "bytes"),
            "net.dropped": (counters.get("net.dropped", 0), "count"),
            "net.rpc_calls": (counters.get("rpc.calls", 0), "count"),
            "net.rpc_timeouts": (counters.get("rpc.timeouts", 0), "count"),
            "net.rpc_rtt_ms_p50": (hist_p50_ms(hists, "rpc.rtt"), "sim_ms"),
            "jini.lookups": (lookups, "count"),
            "jini.lookups_per_exertion": (
                lookups / exertions if exertions else 0.0, "ratio"),
            "jini.registers": (calls.get(LUS_REGISTER, 0), "count"),
            "jini.lease_renewals": (
                sum(n for k, n in calls.items() if k.endswith(RENEW)),
                "count"),
            "jini.leases_lost": (counters.get("lease.lost", 0), "count"),
            "sorcer.exertions": (exertions, "count"),
            "sorcer.exert_ms_p50": (hist_p50_ms(hists, "exertion.latency"),
                                    "sim_ms"),
            "sorcer.retries": (counters.get("exertion.retries", 0), "count"),
            "sorcer.failures": (counters.get("exertion.failures", 0), "count"),
            "core.csp_reads": (csp_reads, "count"),
            "core.coalesced": (counters.get("csp.coalesced", 0), "count"),
            "core.coalesce_ratio": (
                counters.get("csp.coalesced", 0) / csp_reads
                if csp_reads else 0.0, "ratio"),
            "core.esp_samples": (counters.get("esp.samples", 0), "count"),
            "expr.evals": (calls.get(EXPR_EVAL, 0), "count"),
            "sensors.points": (b["points"] - a["points"], "count"),
            "sensors.sample_calls": (b["sample_calls"] - a["sample_calls"],
                                     "count"),
            "overload.admitted": (counters.get("overload.admitted", 0),
                                  "count"),
            "overload.rejected": (counters.get("overload.rejected", 0),
                                  "count"),
            "overload.queue_wait_ms_p50": (
                hist_p50_ms(hists, "overload.queue_wait"), "sim_ms"),
            "resilience.retries": (
                counters.get("resilience.retry_scheduled", 0), "count"),
            "resilience.breaker_opens": (
                counters.get("resilience.breaker_open", 0), "count"),
            "resilience.deadline_exceeded": (
                counters.get("resilience.deadline_exceeded", 0), "count"),
            "chaos.faults_applied": (faults, "count"),
            "chaos.apply_self_share": (
                share(named(method_self, CHAOS_APPLY)), "ratio"),
            # Judging runs the invariant oracles inside one call; its
            # inclusive time is the judge's cost.
            "chaos.judge_self_share": (
                share(method_incl.get(CHAOS_JUDGE, 0.0)), "ratio"),
            "scenarios.build_share": (
                self.build_s / (setup_s + clock.work_s), "ratio"),
        }
        for layer in LAYERS + ("other",):
            metrics[f"{layer}.self_share"] = (share(layer_self[layer]),
                                              "ratio")
        metrics["trace.closure"] = (total / clock.work_s, "ratio")
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()}


#: Code of the wrapper generators, so a wrapped generator handed to
#: ``Environment.process`` is not wrapped (and attributed) twice.
_RESUMES_CODE = next(c for c in LayerTracer.traced_generator.__code__.co_consts
                     if isinstance(c, types.CodeType) and c.co_name == "resumes")


def net_tally(net) -> dict:
    """Trace-mode totals of one network: its metrics registry (counters
    summed by name, histogram buckets merged by name), its traffic
    counters and its span count."""
    from repro.observability import metrics_registry, tracer_of
    stats = net.stats
    counters = {"net.messages": stats.messages,
                "net.bytes": stats.total_bytes,
                "net.dropped": stats.dropped}
    hists = {}
    for key, metric in metrics_registry(net).iter_items():
        name = key.split("{", 1)[0]
        if metric.metric_type == "counter":
            counters[name] = counters.get(name, 0) + metric.value
        elif metric.metric_type == "histogram":
            hists[name] = _merge_hist(hists.get(name), (metric.buckets,
                                                        metric.counts))
    return {"registry": (counters, hists), "spans": len(tracer_of(net))}


def _merge_hist(a, b):
    if a is None:
        return b[0], list(b[1])
    if a[0] != b[0]:
        raise ValueError("histograms with different buckets")
    return a[0], [x + y for x, y in zip(a[1], b[1])]


def merge_tallies(a: dict, b: dict) -> dict:
    counters = dict(a["registry"][0])
    for k, v in b["registry"][0].items():
        counters[k] = counters.get(k, 0) + v
    hists = dict(a["registry"][1])
    for k, v in b["registry"][1].items():
        hists[k] = _merge_hist(hists.get(k), v)
    return {"registry": (counters, hists), "spans": a["spans"] + b["spans"]}


EMPTY_TALLY = {"registry": ({}, {}), "spans": 0}


def registry_delta(before: tuple, after: tuple) -> tuple:
    c0, h0 = before
    c1, h1 = after
    counters = {k: v - c0.get(k, 0) for k, v in c1.items()}
    hists = {}
    for name, (bounds, counts) in h1.items():
        base = h0.get(name, (bounds, [0] * len(counts)))[1]
        hists[name] = (bounds, [x - y for x, y in zip(counts, base)])
    return counters, hists


def hist_p50_ms(hists: dict, name: str) -> float:
    from repro.metrics.quantiles import quantile_from_buckets
    if name not in hists:
        return 0.0
    bounds, counts = hists[name]
    value = quantile_from_buckets(bounds, counts, 0.5)
    return 0.0 if value is None else value * 1e3


def per_layer(traced: list, untraced: list, notes: list) -> dict:
    """Aggregate traced repetitions (median per metric) and add the
    tracing overhead against the untraced repetitions of the same run."""
    names = traced[0]["layers"].keys()
    out = {}
    for name in names:
        values = [rep["layers"][name]["value"] for rep in traced]
        out[name] = {"value": statistics.median(values),
                     "unit": traced[0]["layers"][name]["unit"]}
    overhead = (statistics.median(r["host_cal"] for r in traced)
                / statistics.median(r["host_cal"] for r in untraced))
    out["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    shares = sorted(((name[:-len(".self_share")], v["value"])
                     for name, v in out.items()
                     if name.endswith(".self_share")),
                    key=lambda item: -item[1])
    notes.append("self-time shares of traced timed host time: " + ", ".join(
        f"{layer} {value:.3f}" for layer, value in shares))
    for name, (k, n) in (("core.coalesce_ratio",
                          ("core.coalesced", "core.csp_reads")),
                         ("jini.lookups_per_exertion",
                          ("jini.lookups", "sorcer.exertions"))):
        notes.append(f"{name} {out[name]['value']:.4f} "
                     f"({out[k]['value']:g}/{out[n]['value']:g})")
    notes.append(f"accounting: layer self times sum to "
                 f"{out['trace.closure']['value']:.4f} of the traced slice "
                 f"time; tracing overhead {overhead:.2f}x")
    return out
