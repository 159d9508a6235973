"""The four workloads, built only from the program's public API.

Each workload has a set-up phase (build, settle, warm-up; timed as raw
wall time) and a timed phase cut into slices at fixed simulated-time
boundaries. ``env.run(until=t)`` schedules no event, so the slice
boundaries do not change the run: a sliced run and a one-shot run to the
same end time process the same events and produce the same canonical
output (``test_fedbench.py`` checks this).

Every client read is recorded as ``(t_done, latency_s, value, target)``
in simulated time; value error is computed after the timed phase, so the
truth oracle costs no timed host time.
"""

from __future__ import annotations

import hashlib
import json

#: Workload names in the order ``BENCHMARK.json`` lists them.
NAMES = ("soak", "load", "grid", "chaos")


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class _Sliced:
    """A workload whose timed phase is ``env.run`` to fixed boundaries."""

    def tallies(self) -> list:
        """``self.tally`` of every (environment, network) the workload
        runs; ``self.tally`` is set before ``setup``."""
        return [self.tally(self.env, self.net)]

    def boundaries(self) -> list:
        start, end, step = self.t_start, self.t_end, self.slice_sim_s
        count = round((end - start) / step)
        return [start + step * (i + 1) for i in range(count)]

    def run_timed(self, clock, oneshot: bool = False) -> None:
        run = self.env.run
        if oneshot:
            clock.run(run, self.t_end)
            return
        for t in self.boundaries():
            clock.run(run, t)

    def sim_seconds(self) -> float:
        return self.t_end - self.t_start


class Soak(_Sliced):
    """Fig 2 lab, six steps, then 5400 sim-s of steady state with the
    health plane on and one closed-loop read of New-Composite every 30
    sim-s (timer-dominated: health beats, lease renewals, ESP sampling)."""

    horizon = 5400.0
    period = 30.0
    slice_sim_s = 30.0
    target = "New-Composite"

    def setup(self, seed: int) -> None:
        from repro.scenarios import build_paper_lab
        from repro.snapshot.programs import six_step_experiment
        self.lab = lab = build_paper_lab(seed=seed)
        self.env, self.net = lab.env, lab.net
        lab.settle(6.0)
        value = lab.env.run(until=lab.env.process(
            six_step_experiment(lab.browser), name="six-steps"))
        self.six_step = (lab.env.now, value)
        self.reads = []
        self.failed = 0
        self.t_start = lab.env.now
        self.t_end = self.t_start + self.horizon
        lab.env.process(self._client(), name="bench-soak-client")

    def _client(self):
        env, browser = self.env, self.lab.browser
        while True:
            t0 = env.now
            try:
                value = yield from browser.get_value(self.target)
            except Exception:  # counted; the run goes on
                self.failed += 1
            else:
                self.reads.append((env.now, env.now - t0, value, self.target))
            yield env.timeout(self.period - (env.now - t0) % self.period)

    def truth(self, target: str, t: float) -> float:
        # New-Composite = (Composite-Service + Coral)/2 and
        # Composite-Service = (Neem + Jade + Diamond)/3 (the six steps).
        names = ("Neem-Sensor", "Jade-Sensor", "Diamond-Sensor",
                 "Coral-Sensor")
        locs = [self.lab.sensors[n].probe.location for n in names]
        n, j, d, c = self.lab.world.sample_many("temperature", locs, t)
        return ((n + j + d) / 3 + c) / 2

    def check(self) -> list:
        t, value = self.six_step
        err = abs(value - self.truth(self.target, t))
        problems = []
        if not err < 1.5:
            problems.append(f"six-step value {value:.3f} is {err:.3f} C "
                            f"from truth")
        return problems

    def canonical(self) -> str:
        from repro.observability import status_json
        return status_json(self.lab.health.snapshot(), seed=self.seed)


class Load:
    """``build_load_lab`` at 2x capacity: open-loop seeded Poisson
    arrivals for three tenants (3:2:1) over 45 sim-s with admission
    control and read coalescing on (request-heavy).

    Under overload the median latency of one 45 s realization moves
    +-15% with the arrival seed (the mean moves +-1%), so a repetition
    runs ``labs`` independent realizations, seeded from the workload
    seed, and pools their requests."""

    labs = 2
    duration = 45.0
    scale = 2.0
    #: Arrivals stop at +45 s; every request has a 2 s deadline, so the
    #: engine has drained well before +55 s.
    horizon = 55.0
    slice_sim_s = 0.5

    def setup(self, seed: int) -> None:
        from repro.load import build_load_lab
        self.reads = []
        self.failed = 0
        self.load_labs, self.procs = [], []
        for k in range(self.labs):
            ll = build_load_lab(seed=seed * self.labs + k,
                                duration=self.duration, scale=self.scale)
            self._observe(ll, k)
            self.load_labs.append(ll)
        self.t_start = self.load_labs[0].env.now
        for ll in self.load_labs:
            self.procs.append(ll.env.process(ll.engine.run(),
                                             name="load-engine"))

    def _observe(self, ll, k: int) -> None:
        env, exerter = ll.env, ll.engine.exerter
        exert = exerter.exert

        def observed_exert(task, *args, **kwargs):
            # Pass-through: same generator protocol, same return value.
            t0 = env.now
            result = yield from exert(task, *args, **kwargs)
            if not result.is_failed:
                name = task.context.get_value("arg/name", None)
                self.reads.append((env.now, env.now - t0,
                                   result.context.get_return_value(),
                                   (k, name)))
            return result

        exerter.exert = observed_exert

    def tallies(self) -> list:
        return [self.tally(ll.env, ll.lab.net) for ll in self.load_labs]

    def run_timed(self, clock, oneshot: bool = False) -> None:
        for ll in self.load_labs:
            env, end = ll.env, self.t_start + self.horizon
            if oneshot:
                clock.run(env.run, end)
                continue
            count = round(self.horizon / self.slice_sim_s)
            for i in range(count):
                clock.run(env.run, self.t_start + self.slice_sim_s * (i + 1))

    def sim_seconds(self) -> float:
        return self.horizon * self.labs

    def summaries(self) -> list:
        return [ll.engine.summary() for ll in self.load_labs]

    def total(self) -> dict:
        keys = ("offered", "completed", "goodput", "failed", "rejected")
        return {key: sum(s["total"][key] for s in self.summaries())
                for key in keys}

    def truth(self, key, t: float) -> float:
        k, target = key
        lab = self.load_labs[k].lab
        loc = lab.sensors[target].probe.location
        return lab.world.sample("temperature", loc, t)

    def check(self) -> list:
        problems = []
        if not all(proc.processed for proc in self.procs):
            problems.append("load engine still running at the horizon")
        total = self.total()
        if total["offered"] != (total["completed"] + total["rejected"]
                                + total["failed"]):
            problems.append(f"load accounting does not close: {total}")
        if total["completed"] != len(self.reads):
            problems.append(f"observed {len(self.reads)} completions, "
                            f"summaries say {total['completed']}")
        return problems

    def canonical(self) -> str:
        return _canonical(self.summaries())


class Grid(_Sliced):
    """1024 ESPs under a fanout-16 CSP tree (root -> 4 -> 64 subnet
    composites -> 1024 ESPs) with unicast locator discovery, the health
    plane and the stock SLOs; 60 sim-s of steady state (scale).

    One closed-loop client reads every 0.5 sim-s: the fleet mean at the
    root every 40th read (3-level fan-in over all 1024 ESPs), otherwise
    the next subnet composite round-robin (16-ESP fan-in). A root read
    costs about as much host time as 70 subnet reads, so 120 root reads
    would not fit a run; this mix gives 120 latency samples per run."""

    n_sensors = 1024
    fanout = 16
    horizon = 60.0
    period = 0.5
    root_every = 40
    slice_sim_s = 0.25

    def setup(self, seed: int) -> None:
        from repro.net import Host
        from repro.observability import default_slos, health_monitor
        from repro.scenarios import build_sensorcer_grid, seed_locator_discovery
        from repro.sorcer import Exerter
        self.grid = grid = build_sensorcer_grid(
            self.n_sensors, seed=seed, tree_fanout=self.fanout,
            discovery="locator")
        self.env, self.net = grid.env, grid.net
        self.health = health_monitor(grid.net)
        for slo in default_slos():
            self.health.engine.add(slo)
        client = seed_locator_discovery(Host(grid.net, "bench-client"))
        self.exerter = Exerter(client)
        index_of = {esp.service_id: i for i, esp in enumerate(grid.sensors)}
        #: target name -> (service id, indices of the probes it averages)
        self.targets = {"Root": (grid.root.service_id,
                                 list(range(self.n_sensors)))}
        self.subnets = []
        self._truth_locs = {}
        for csp in grid.composites:
            if csp.name.startswith("Group-L0-"):
                self.targets[csp.name] = (
                    csp.service_id,
                    [index_of[c.service_id] for c in csp.children])
                self.subnets.append(csp.name)
        grid.settle(6.0)
        self.reads = []
        self.failed = 0
        # Warm-up: the first query pays one-off discovery latency.
        warm = self.env.run(until=self.env.process(self._query("Root")))
        if warm is None:
            raise RuntimeError("grid warm-up query failed")
        self.t_start = self.env.now
        self.t_end = self.t_start + self.horizon
        self.env.process(self._client(), name="bench-grid-client")

    def _query(self, target: str):
        from repro.core import SENSOR_DATA_ACCESSOR
        from repro.sorcer import ServiceContext, Signature, Task
        task = Task(f"mean:{target}",
                    Signature(SENSOR_DATA_ACCESSOR, "getValue",
                              service_id=self.targets[target][0]),
                    ServiceContext())
        task.control.invocation_timeout = 30.0
        result = yield self.env.process(self.exerter.exert(task))
        if result.is_failed:
            return None
        return result.context.get_return_value()

    def _client(self):
        env = self.env
        count = 0
        while True:
            if count % self.root_every == 0:
                target = "Root"
            else:
                target = self.subnets[count % len(self.subnets)]
            count += 1
            t0 = env.now
            value = yield from self._query(target)
            if value is None:
                self.failed += 1
            else:
                self.reads.append((env.now, env.now - t0, value, target))
            yield env.timeout(self.period - (env.now - t0) % self.period)

    def truth(self, target: str, t: float) -> float:
        from repro.scenarios import probe_location
        # Where each probe really sits: probe_location(i), 559 distinct
        # points for 1024 probes. The program's own ground_truth_mean
        # averages the 1024 points of grid_locations(n) instead (a known
        # defect; see README.md). One list per target, so the world's
        # per-list caches are reused across reads.
        locs = self._truth_locs.get(target)
        if locs is None:
            locs = self._truth_locs[target] = [
                probe_location(i) for i in self.targets[target][1]]
        values = self.grid.world.sample_many("temperature", locs, t)
        return sum(values) / len(values)

    def check(self) -> list:
        from repro.scenarios import probe_location
        problems = []
        for i, esp in enumerate(self.grid.sensors):
            if tuple(esp.probe.location) != probe_location(i):
                problems.append(f"probe {i} is not at probe_location({i})")
                break
        if len(self.subnets) != self.n_sensors // self.fanout:
            problems.append(f"expected {self.n_sensors // self.fanout} "
                            f"subnet composites, found {len(self.subnets)}")
        return problems

    def canonical(self) -> str:
        from repro.observability import status_json
        return status_json(self.health.snapshot(), seed=self.seed)


class Chaos:
    """``CampaignRunner("paper-lab")`` with the default config over a
    list of campaign seeds derived from the workload seed (resilience,
    injectors, oracles, lease churn, per-seed lab rebuilds)."""

    campaign_seeds = 24
    #: One slice is a whole campaign run (~0.2 s); see SlicedClock.
    ref_repeats = 8

    def setup(self, seed: int) -> None:
        from repro.chaos import CampaignRunner
        from repro.chaos.campaign import SCENARIOS
        build = SCENARIOS["paper-lab"]
        self.reads = []
        #: Tallies of finished campaign runs; only the newest lab is kept
        #: alive, as in the runner itself, so peak RSS is the program's.
        self.closed = []
        self.open = None
        self.sim_s = 0.0
        self.seeds = [seed * self.campaign_seeds + i + 1
                      for i in range(self.campaign_seeds)]

        def observed_build(config):
            context = build(config)
            request = context.request
            env = context.env

            def observed_request(target):
                t0 = env.now
                value = yield from request(target)
                self.reads.append((env.now, env.now - t0, value, target))
                return value

            context.request = observed_request
            self._close()
            self.open = (env, context.net)
            return context

        self.runner = CampaignRunner("paper-lab",
                                     scenario_factory=observed_build)

    def _close(self) -> None:
        if self.open is not None:
            self.closed.append(self.tally(*self.open))
            self.sim_s += self.open[0].now
            self.open = None

    def tallies(self) -> list:
        return self.closed + ([self.tally(*self.open)] if self.open else [])

    def run_timed(self, clock, oneshot: bool = False) -> None:
        if oneshot:
            self.summary = clock.run(self.runner.run, self.seeds)
            self._close()
            return
        run_seed = self.runner.run_seed

        def calibrated_run_seed(seed):
            return clock.run(run_seed, seed)

        self.runner.run_seed = calibrated_run_seed
        try:
            self.summary = self.runner.run(self.seeds)
        finally:
            del self.runner.run_seed
        self._close()

    def sim_seconds(self) -> float:
        return self.sim_s

    def truth(self, target: str, t: float) -> float:
        from repro.scenarios.paper_lab import SENSOR_LOCATIONS
        from repro.sensors import PhysicalEnvironment
        # Every campaign run builds the lab at the fixed scenario seed
        # and chaos adds no field events, so one oracle world serves all.
        if not hasattr(self, "_world"):
            self._world = PhysicalEnvironment(
                seed=self.runner.config.scenario_seed)
        world = self._world
        if target == "Composite-Service":
            names = ("Neem-Sensor", "Jade-Sensor", "Diamond-Sensor")
            vals = world.sample_many(
                "temperature", [SENSOR_LOCATIONS[n] for n in names], t)
            return sum(vals) / 3
        return world.sample("temperature", SENSOR_LOCATIONS[target], t)

    def check(self) -> list:
        problems = []
        for run in self.summary["runs"]:
            w = run["workload"]
            if w["issued"] != w["completed"] + w["failed"] + w["inflight"]:
                problems.append(f"campaign seed {run['seed']}: workload "
                                f"accounting does not close: {w}")
        completed = sum(r["workload"]["completed"]
                        for r in self.summary["runs"])
        if completed != len(self.reads):
            problems.append(f"observed {len(self.reads)} completions, "
                            f"verdicts say {completed}")
        return problems

    def canonical(self) -> str:
        from repro.chaos import campaign_json
        return campaign_json(self.summary)


WORKLOADS = {"soak": Soak, "load": Load, "grid": Grid, "chaos": Chaos}
