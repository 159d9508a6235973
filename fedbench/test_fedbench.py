"""Self-checks of the benchmark itself.

    python3 -m pytest fedbench -q

Each workload repetition runs in its own interpreter, as in the
benchmark; the whole file takes a few minutes on a 2-core VM.
"""

import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calib import SlicedClock, reference_loop  # noqa: E402
from run import tail_percentile  # noqa: E402
from workloads import NAMES  # noqa: E402

IDENTITY = ("canonical_digest", "canonical_bytes", "events", "messages",
            "latencies_s", "problems")


def rep(workload, *flags, seed=3):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), "--workload", workload,
         "--seed", str(seed), *flags],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def bench(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, "fedbench/run.py", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("workload", NAMES)
def test_sliced_run_equals_one_shot_run(workload):
    sliced, oneshot = rep(workload), rep(workload, "--oneshot")
    assert sliced["slices"] > oneshot["slices"]
    assert sliced["problems"] == []
    for key in IDENTITY:
        assert sliced[key] == oneshot[key], key


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_equals_untraced_run(workload):
    plain, traced = rep(workload), rep(workload, "--trace")
    for key in IDENTITY:
        assert plain[key] == traced[key], key
    layers = traced["layers"]
    # The accounting closes: layer self times sum to the slice time.
    assert layers["trace.closure"]["value"] == pytest.approx(1.0, abs=0.02)
    shares = sum(v["value"] for k, v in layers.items()
                 if k.endswith(".self_share"))
    assert shares == pytest.approx(1.0, rel=1e-9)


def test_emitted_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        out = bench("--workload", "chaos", "--seed", "2", "--seconds", "1",
                    "--trace", trace)
        assert out.returncode == 0, out.stderr[-3000:]
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        declared = {m["name"]: m["unit"] for m in spec[key]}
        emitted = {n: m["unit"] for n, m in result["metrics"].items()}
        assert emitted == declared


def test_reference_loop_is_fixed_allocation_free_work():
    assert reference_loop() == reference_loop()
    reference_loop()
    tracemalloc.start()
    try:
        reference_loop()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One small accumulator object; no per-step allocation.
    assert peak < 512
    clock = SlicedClock(repeats=3)
    assert clock.run(lambda x: x + 1, 1) == 2
    assert clock.slices == 1 and clock.ref_s > 0


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(99)))[0] is None
    label, value, beyond = tail_percentile(list(range(1, 101)))
    assert (label, value, beyond) == ("p90", 90, 10)
    assert tail_percentile(list(range(1, 1001)))[:2] == ("p99", 990)
    assert tail_percentile(list(range(1, 10001)))[:2] == ("p99.9", 9990)


def test_traced_generator_passes_everything_through():
    from layers import LayerTracer
    tracer = LayerTracer()

    def inner():
        got = yield 1
        try:
            yield got * 2
        except KeyError as exc:
            yield f"caught {exc.args[0]}"
        return "done"

    gen = tracer.traced_generator(inner(), "core", "inner")
    assert gen.__name__ == "inner"
    assert next(gen) == 1
    assert gen.send(5) == 10
    assert gen.throw(KeyError("k")) == "caught k"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    assert tracer.stack == [] and tracer.calls["inner"] == 4

    closed = []

    def closable():
        try:
            yield 1
        finally:
            closed.append(True)

    gen = tracer.traced_generator(closable(), "core", "closable")
    next(gen)
    gen.close()
    assert closed == [True]


@pytest.mark.parametrize("var", ["REPRO_KERNEL_SCHEDULER", "REPRO_SHUFFLE_SEED",
                                 "REPRO_BENCH_SMOKE"])
def test_refuses_non_default_program(var):
    out = bench("--workload", "chaos", "--seed", "1", "--seconds", "1",
                "--trace", "0", env=dict(os.environ, **{var: "1"}))
    assert out.returncode != 0 and out.stdout == ""
    assert var in out.stderr


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "fedbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "soak", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout
