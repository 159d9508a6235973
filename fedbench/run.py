"""Benchmark runner: one workload, repeated in fresh interpreters.

    python3 fedbench/run.py --workload soak --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (``src/repro`` must exist). Each
repetition is ``rep.py`` in a new single-threaded interpreter; the
runner starts repetitions until ``--seconds`` of wall time are used (at
least ``MIN_REPS``), checks that every repetition produced the same
canonical output, and prints human-readable notes followed by one JSON
line with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics (see ``layers.py``) instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

from workloads import NAMES  # noqa: E402

#: Settings that select a non-default program; the benchmark measures
#: only the default one.
REFUSED_ENV = ("REPRO_KERNEL_SCHEDULER", "REPRO_SHUFFLE_SEED",
               "REPRO_BENCH_SMOKE")
#: Untraced repetitions per run at least; with --trace 1, one untraced
#: and one traced. Either way two runs of the workload are compared.
MIN_REPS = 2
#: setup_s cannot be sliced, so besides its reference-loop scaling it is
#: the median of this many set-ups; set-up-only repetitions make up the
#: count the full repetitions leave.
SETUP_SAMPLES = 3
REP_TIMEOUT_S = 150


def fail(message: str) -> None:
    sys.stderr.write(f"fedbench: {message}\n")
    sys.exit(2)


def source_id() -> str:
    """The commit if this is a git checkout, else a digest of the source."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = out.stdout.split()
        # Only this checkout's own repository, not one that encloses it.
        if out.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "source-sha256:" + digest.hexdigest()[:16]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Each repetition gets its own hash seed on purpose: served values
    # depend on it (a known defect, see README.md).
    env.pop("PYTHONHASHSEED", None)
    return env


def run_rep(workload: str, seed: int, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"repetition of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(samples: list) -> tuple:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it
    (nearest rank). Returns (label, value, samples beyond) or Nones."""
    ordered = sorted(samples)
    n = len(ordered)
    best = (None, None, None)
    for label, q in (("p90", 0.90), ("p99", 0.99), ("p99.9", 0.999)):
        rank = math.ceil(q * n)
        if rank >= 1 and n - rank >= 10:
            best = (label, ordered[rank - 1], n - rank)
    return best


def ratio(k: float, n: float) -> str:
    return f"{k / n:.4f} ({k}/{n})" if n else f"- (0/{n})"


def end_to_end(workload: str, reps: list, setups: list,
               notes: list) -> dict:
    first = reps[0]
    lat_ms = [x * 1e3 for x in first["latencies_s"]]
    label, tail, beyond = tail_percentile(lat_ms)
    if tail is None:
        raise ValueError(f"{len(lat_ms)} latency samples cannot support p90")
    notes.append(f"query_tail_ms is {label} of n={len(lat_ms)} "
                 f"({beyond} samples beyond it)")
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "host_cal": (statistics.median(r["host_cal"] for r in reps), "ratio"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps),
                        "MB"),
        "query_p50_ms": (statistics.median(lat_ms), "sim_ms"),
        "query_tail_ms": (tail, "sim_ms"),
        "msgs_per_sim_s": (first["messages"] / first["sim_s"], "1/sim-s"),
        "value_err_c": (statistics.median(r["value_err_c"] for r in reps),
                        "C"),
    }
    notes.append(f"messages {first['messages']} over {first['sim_s']:g} "
                 f"sim-s; events {first['events']}")
    if workload == "load":
        total = first["load_total"]
        notes.append(f"goodput_ratio {ratio(total['goodput'], total['offered'])}"
                     f" (in-deadline completions / offered)")
        notes.append(f"shed_ratio {ratio(total['rejected'], total['offered'])}"
                     f" (typed Overloaded rejections / offered)")
    if workload == "chaos":
        chaos = first["chaos"]
        notes.append(f"goodput_ratio {ratio(chaos['completed'], chaos['issued'])}"
                     f" (completed / issued workload requests)")
        mttrs = chaos["mttr_weighted"]
        notes.append(f"mttr_s {mttrs['mean']:.4f} sim-s over "
                     f"{mttrs['incidents']} recovered incidents")
        notes.append(f"invariant_pass_ratio "
                     f"{ratio(chaos['passed'], chaos['runs'])} (raw)")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    refused = [var for var in REFUSED_ENV if os.environ.get(var)]
    if refused:
        fail(f"refusing to run with {', '.join(refused)} set: the benchmark "
             f"measures only the default program")
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program source at {SRC / 'repro'}; run from the root of "
             f"a source checkout")
    # Byte-compile once so no repetition pays for it inside setup_s.
    compileall.compile_dir(str(SRC / "repro"), quiet=1)

    started = time.perf_counter()
    reps, traced = [], []
    while True:
        want_trace = bool(args.trace) and len(traced) < len(reps)
        t0 = time.perf_counter()
        rep = run_rep(args.workload, args.seed,
                      *(["--trace"] if want_trace else []))
        (traced if want_trace else reps).append(rep)
        took = time.perf_counter() - t0
        elapsed = time.perf_counter() - started
        enough = (len(reps) + len(traced) >= MIN_REPS
                  and (traced or not args.trace))
        if enough and elapsed + took > args.seconds:
            break
    setups = list(reps)
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(run_rep(args.workload, args.seed, "--setup-only"))

    problems = []
    for rep in reps + traced:
        problems += [f"rep seed {rep['seed']}: {p}" for p in rep["problems"]]
    digests = {(r["canonical_digest"], r["canonical_bytes"],
                json.dumps(r["latencies_s"]), r["events"], r["messages"])
               for r in reps + traced}
    if len(digests) != 1:
        problems.append(f"canonical outputs differ across "
                        f"{len(reps + traced)} repetitions: "
                        f"{sorted(d[0] for d in digests)}")
    first = reps[0]
    attempted = sum(len(r["latencies_s"]) + r["client_failed"] for r in reps)
    failed = sum(r["client_failed"] for r in reps)
    if args.workload == "load":
        attempted = sum(r["load_total"]["offered"] for r in reps)
        failed = sum(r["load_total"]["failed"] for r in reps)
    if args.workload == "chaos":
        # Client requests that fail under injected faults are the
        # behaviour measured (goodput_ratio); a benchmark operation here
        # is one campaign run, which must produce its verdict.
        attempted = sum(r["chaos"]["runs"] for r in reps)
        failed = 0

    notes = [
        f"workload {args.workload} seed {args.seed}: {len(reps)} "
        f"repetition(s)" + (f" + {len(traced)} traced" if traced else ""),
        f"program {source_id()}, kernel scheduler {first['scheduler']}",
        f"canonical output sha256 {first['canonical_digest']} "
        f"({first['canonical_bytes']} bytes), identical across repetitions: "
        f"{len(digests) == 1}",
        f"distinct served-value digests across repetitions: "
        f"{len({r['values_digest'] for r in reps + traced})} "
        f"(values depend on the interpreter hash seed; see README.md)",
        "raw seconds (notes only): " + ", ".join(
            f"work {r['work_s']:.3f} ref {r['ref_s']:.3f}" for r in reps)
        + "; set-up wall " + " ".join(f"{r['setup_wall_s']:.3f}"
                                      for r in setups),
    ]
    try:
        if args.trace:
            from layers import per_layer
            metrics = per_layer(traced, reps, notes)
        else:
            metrics = end_to_end(args.workload, reps, setups, notes)
    except (ValueError, KeyError, ZeroDivisionError, TypeError) as exc:
        problems.append(f"metrics: {exc!r}")
        metrics = {}
    for value in metrics.values():
        if not math.isfinite(value["value"]):
            problems.append(f"non-finite metric {value}")
    for note in notes:
        print(note)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
        sys.stderr.write(f"fedbench: CHECK FAILED: {problem}\n")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
