"""One repetition of one workload, in a fresh interpreter.

    python3 fedbench/rep.py --workload soak --seed 1 [--trace] [--oneshot]
                                              [--setup-only]

Prints one JSON object on stdout. ``run.py`` starts this script once per
repetition with ``src`` on ``PYTHONPATH``. Nothing imports the program
before ``run()`` starts the set-up clock, so ``setup_s`` covers importing
it, building the scenario and settling it.
"""

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from calib import (CHAIN_RSS_MB, REF_NOMINAL_S, SlicedClock,  # noqa: E402
                   reference_seconds)
from workloads import WORKLOADS, sha  # noqa: E402


def make_tally(tracer):
    """The totals a workload reports for each (environment, network)."""
    def tally(env, net) -> dict:
        stats = env.scheduler_stats()
        out = {"events": stats["pops"], "messages": net.stats.messages,
               "kinds": {stats["kind"]}}
        if tracer is not None:
            from layers import net_tally
            out.update(net_tally(net))
        return out
    return tally


def combine(tallies: list, traced: bool) -> dict:
    out = {"events": 0, "messages": 0, "kinds": set()}
    if traced:
        from layers import EMPTY_TALLY, merge_tallies
        out.update(EMPTY_TALLY)
    for t in tallies:
        out["events"] += t["events"]
        out["messages"] += t["messages"]
        out["kinds"] |= t["kinds"]
        if traced:
            out.update(merge_tallies(out, t))
    return out


def run(workload: str, seed: int, trace: bool = False,
        oneshot: bool = False, setup_only: bool = False) -> dict:
    ref_before = reference_seconds()
    t_start = time.perf_counter()
    tracer = None
    if trace:
        from layers import LayerTracer
        tracer = LayerTracer()
        tracer.install()
    wl = WORKLOADS[workload]()
    wl.seed = seed
    wl.tally = make_tally(tracer)
    wl.setup(seed)
    setup_wall = time.perf_counter() - t_start
    setup_s = setup_wall * REF_NOMINAL_S / (
        (ref_before + reference_seconds()) / 2)
    if setup_only:
        return {"setup_s": setup_s, "setup_wall_s": setup_wall}
    before = combine(wl.tallies(), traced=trace)
    if tracer is not None:
        tracer.start(before)
    clock = SlicedClock(repeats=getattr(wl, "ref_repeats", 1), tracer=tracer)
    wl.run_timed(clock, oneshot=oneshot)
    after = combine(wl.tallies(), traced=trace)
    if tracer is not None:
        tracer.stop(after)
    sim_s = wl.sim_seconds()

    errors = [abs(value - wl.truth(target, t))
              for t, _lat, value, target in wl.reads]
    canonical = wl.canonical()
    out = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "oneshot": oneshot,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall,
        "work_s": clock.work_s,
        "ref_s": clock.ref_s,
        "slices": clock.slices,
        "host_cal": clock.host_cal,
        "events": after["events"] - before["events"],
        "messages": after["messages"] - before["messages"],
        "sim_s": sim_s,
        "latencies_s": [lat for _t, lat, _v, _target in wl.reads],
        "value_err_c": sum(errors) / len(errors) if errors else None,
        "values_digest": sha(repr([v for _t, _l, v, _g in wl.reads])),
        "canonical_digest": sha(canonical),
        "canonical_bytes": len(canonical),
        "problems": wl.check(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0 - CHAIN_RSS_MB,
        "scheduler": ",".join(sorted(after["kinds"])),
        "client_failed": getattr(wl, "failed", 0),
    }
    if workload == "load":
        out["load_total"] = wl.total()
    if workload == "chaos":
        runs = wl.summary["runs"]
        out["chaos"] = {
            "runs": len(runs),
            "passed": sum(1 for r in runs if r["ok"]),
            "issued": sum(r["workload"]["issued"] for r in runs),
            "completed": sum(r["workload"]["completed"] for r in runs),
        }
        recovered = [(r["recovery"]["mttr"], r["recovery"]["recovered"])
                     for r in runs if r["recovery"]["mttr"] is not None]
        incidents = sum(n for _m, n in recovered)
        # Per-run means weighted by their incident counts: the mean over
        # every recovered incident of the campaign.
        out["chaos"]["mttr_weighted"] = {
            "incidents": incidents,
            "mean": (sum(m * n for m, n in recovered) / incidents
                     if incidents else None),
        }
    if tracer is not None:
        out["layers"] = tracer.report(wl, clock, setup_wall,
                                      out["events"], sim_s)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--oneshot", action="store_true",
                        help="run the timed phase as one env.run call")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit after set-up (another setup_s sample)")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, trace=args.trace,
                 oneshot=args.oneshot, setup_only=args.setup_only)
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
