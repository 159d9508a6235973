"""E-KERNEL — simulation-kernel throughput, proven against the old shape.

One measurement, wall-clock (this file is the sanctioned exception to the
no-wall-clock rule — measuring the simulator itself is its job):

* **paper tick** — one simulated fleet tick (every sensor delivers a
  reading) at N sensors, run both ways on the same kernel, so the ratio
  measures the change of *shape* alone. *Legacy* reproduces the
  pre-refactor hot path: one recurring timer event per sensor, scalar
  field sampling with no knot reuse (each read builds its noise RNGs from
  scratch, as ``_knot`` used to). *New* is the shipped path: one batched
  timer per tick, vectorized :meth:`sample_many` with cached knots. The
  acceptance gate is ``new.reads_per_sec >= 5 x legacy.reads_per_sec``.

Results land in ``BENCH_KERNEL.json`` (plus a table under
``benchmarks/results/``). CI runs ``--smoke`` and compares the paper-tick
*speedup ratio* against the committed baseline
(``benchmarks/results/bench_kernel_baseline.json``): the ratio is
machine-independent where absolute events/sec are not, so the >20%%
regression gate does not flap across runner hardware.
"""
# repro: allow-file[DET001] - benchmarks time real work on the wall clock

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.metrics import render_table  # noqa: E402
from repro.scenarios.grids import grid_locations  # noqa: E402
from repro.sensors import PhysicalEnvironment  # noqa: E402
from repro.sim import Environment  # noqa: E402

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: The acceptance-criteria size (full mode); smoke keeps CI fast.
N_SENSORS = 512 if SMOKE else 4096
TICKS = 20 if SMOKE else 50

RESULTS_DIR = Path(__file__).resolve().parent / "results"
BASELINE_PATH = RESULTS_DIR / "bench_kernel_baseline.json"
OUTPUT = Path.cwd() / "BENCH_KERNEL.json"

#: Paper-tick speedup the refactor must clear (acceptance criteria).
MIN_SPEEDUP = 5.0
#: Allowed regression against the committed baseline ratio.
REGRESSION_BAND = 0.8
#: Repetitions per paper-tick leg; each leg keeps its best run. Scheduler
#: noise on a shared runner only ever *slows* a run, so max-of-N is the
#: robust throughput estimator and keeps the ratio gate from flapping.
REPS = 3


def _timed_run(env: Environment, until: float) -> dict:
    t0 = time.perf_counter()
    env.run(until=until)
    wall = max(time.perf_counter() - t0, 1e-9)
    events = env.scheduler_stats()["pushes"]  # occurrences scheduled so far
    return {"wall_s": round(wall, 6), "events": events,
            "events_per_sec": round(events / wall, 1)}


def paper_tick(mode: str, n: int, ticks: int) -> dict:
    """One fleet reading per sensor per simulated second, measured end to end."""
    env = Environment()
    world = PhysicalEnvironment(seed=5, vectorize=(mode == "new"))
    locations = grid_locations(n)
    reads = [0]

    if mode == "legacy":
        def sensor(loc):
            while True:
                yield env.timeout(1.0)
                world.sample("temperature", loc, env.now)
                reads[0] += 1

        for loc in locations:
            env.process(sensor(loc))

        def knot_spoiler():
            # Pre-refactor _knot had no cache: every read rebuilt its noise
            # RNGs. Dropping the cache each tick reproduces that cost.
            while True:
                world._knots.clear()
                yield env.timeout(1.0)

        env.process(knot_spoiler())
    else:
        def fleet():
            while True:
                yield env.timeout(1.0)
                reads[0] += len(world.sample_many("temperature", locations,
                                                  env.now))

        env.process(fleet())

    stats = _timed_run(env, until=float(ticks))
    stats["reads"] = reads[0]
    stats["reads_per_sec"] = round(reads[0] / stats["wall_s"], 1)
    return stats


def _best_paper_tick(mode: str) -> dict:
    runs = [paper_tick(mode, N_SENSORS, TICKS) for _ in range(REPS)]
    return max(runs, key=lambda stats: stats["reads_per_sec"])


def collect() -> dict:
    legacy = _best_paper_tick("legacy")
    new = _best_paper_tick("new")
    speedup = new["reads_per_sec"] / legacy["reads_per_sec"]
    return {
        "smoke": SMOKE,
        "n_sensors": N_SENSORS,
        "ticks": TICKS,
        "paper_tick": {"legacy": legacy, "new": new,
                       "speedup": round(speedup, 2)},
    }


def check_gates(results: dict) -> list:
    """Returns a list of failure strings (empty = all gates pass)."""
    failures = []
    speedup = results["paper_tick"]["speedup"]
    if speedup < MIN_SPEEDUP:
        failures.append(
            f"paper-tick speedup {speedup:.2f}x is below the required "
            f"{MIN_SPEEDUP:.0f}x at N={results['n_sensors']}")
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        floor = baseline["paper_tick"]["speedup"] * REGRESSION_BAND
        if speedup < floor:
            failures.append(
                f"paper-tick speedup {speedup:.2f}x regressed >20% against "
                f"the committed baseline "
                f"{baseline['paper_tick']['speedup']:.2f}x (floor "
                f"{floor:.2f}x)")
    return failures


def render(results: dict) -> str:
    tick = results["paper_tick"]
    rows = [
        ["paper tick (legacy)", tick["legacy"]["reads_per_sec"],
         tick["legacy"]["events_per_sec"], tick["legacy"]["wall_s"]],
        ["paper tick (new)", tick["new"]["reads_per_sec"],
         tick["new"]["events_per_sec"], tick["new"]["wall_s"]],
    ]
    title = (f"E-KERNEL — kernel throughput at N={results['n_sensors']} "
             f"(paper-tick speedup {tick['speedup']}x)")
    return render_table(["workload", "reads/s", "events/s", "wall (s)"],
                        rows, title=title)


def write_output(results: dict) -> None:
    from repro.util.atomicio import atomic_write_text
    atomic_write_text(OUTPUT, json.dumps(results, indent=2, sort_keys=True)
                      + "\n")


def test_kernel_throughput(report):
    results = collect()
    write_output(results)
    report(render(results))
    failures = check_gates(results)
    assert not failures, "; ".join(failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI tier: small N, short runs "
                             "(same as REPRO_BENCH_SMOKE=1)")
    global N_SENSORS, TICKS, SMOKE
    args = parser.parse_args(argv)
    if args.smoke and not SMOKE:
        os.environ["REPRO_BENCH_SMOKE"] = "1"
        SMOKE = True
        N_SENSORS, TICKS = 512, 20
    results = collect()
    write_output(results)
    print(render(results))
    failures = check_gates(results)
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    print(f"wrote {OUTPUT}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
