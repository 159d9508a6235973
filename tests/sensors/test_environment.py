"""Physical environment model."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.sensors import FieldEvent, FieldSpec, PhysicalEnvironment


def test_sample_deterministic():
    e1 = PhysicalEnvironment(seed=42)
    e2 = PhysicalEnvironment(seed=42)
    for t in (0.0, 100.0, 12345.6):
        assert e1.sample("temperature", (3.0, 4.0), t) == \
            e2.sample("temperature", (3.0, 4.0), t)


def test_sample_independent_of_python_hash_seed():
    """Noise knots are seeded from a stable hash, so served values do not
    change with ``PYTHONHASHSEED`` (builtin ``hash()`` of a str does)."""
    script = ("from repro.sensors import PhysicalEnvironment\n"
              "world = PhysicalEnvironment(seed=7)\n"
              "print(repr(world.sample('temperature', (10, 20), 33.3)))\n"
              "print(repr(world.sample_many('humidity', [(1, 2), (3.5, 4)],"
              " 900.0)))\n")
    src = str(Path(repro.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    here = PhysicalEnvironment(seed=7)
    assert outputs[0].splitlines()[0] == repr(
        here.sample("temperature", (10, 20), 33.3))


def test_different_seeds_differ():
    e1 = PhysicalEnvironment(seed=1)
    e2 = PhysicalEnvironment(seed=2)
    samples1 = [e1.sample("temperature", (0, 0), t) for t in range(0, 600, 60)]
    samples2 = [e2.sample("temperature", (0, 0), t) for t in range(0, 600, 60)]
    assert samples1 != samples2


def test_unknown_quantity_raises():
    env = PhysicalEnvironment()
    with pytest.raises(KeyError):
        env.sample("radiation", (0, 0), 0.0)


def test_gradient_shifts_by_location():
    env = PhysicalEnvironment(seed=0, fields={
        "flat": FieldSpec(base=10.0, unit="x", gradient=(1.0, 0.0))})
    v0 = env.sample("flat", (0.0, 0.0), 0.0)
    v5 = env.sample("flat", (5.0, 0.0), 0.0)
    assert v5 - v0 == pytest.approx(5.0)


def test_diurnal_cycle():
    env = PhysicalEnvironment(seed=0, fields={
        "wave": FieldSpec(base=0.0, unit="x", amplitude=10.0, period=100.0)})
    assert env.sample("wave", (0, 0), 25.0) == pytest.approx(10.0)
    assert env.sample("wave", (0, 0), 75.0) == pytest.approx(-10.0)
    assert env.sample("wave", (0, 0), 50.0) == pytest.approx(0.0, abs=1e-9)


def test_noise_is_continuous():
    env = PhysicalEnvironment(seed=7, fields={
        "noisy": FieldSpec(base=0.0, unit="x", noise_sigma=1.0, noise_tau=60.0)})
    a = env.sample("noisy", (0, 0), 100.0)
    b = env.sample("noisy", (0, 0), 100.5)
    assert abs(a - b) < 0.2  # within one knot, near-linear


def test_noise_bounded_statistics():
    env = PhysicalEnvironment(seed=7, fields={
        "noisy": FieldSpec(base=0.0, unit="x", noise_sigma=1.0, noise_tau=10.0)})
    samples = [env.sample("noisy", (0, 0), t * 10.0) for t in range(500)]
    mean = sum(samples) / len(samples)
    assert abs(mean) < 0.3


def test_event_applies_within_radius_and_window():
    env = PhysicalEnvironment(seed=0, fields={
        "flat": FieldSpec(base=0.0, unit="x")})
    env.add_event(FieldEvent("flat", center=(0, 0), radius=10.0, delta=5.0,
                             start=100.0, end=200.0))
    assert env.sample("flat", (0, 0), 150.0) == pytest.approx(5.0)
    # Linear falloff with distance.
    assert env.sample("flat", (5, 0), 150.0) == pytest.approx(2.5)
    # Outside radius / outside window: no effect.
    assert env.sample("flat", (20, 0), 150.0) == 0.0
    assert env.sample("flat", (0, 0), 50.0) == 0.0
    assert env.sample("flat", (0, 0), 250.0) == 0.0


def test_event_for_unknown_quantity_rejected():
    env = PhysicalEnvironment()
    with pytest.raises(KeyError):
        env.add_event(FieldEvent("plasma", (0, 0), 1.0, 1.0, 0.0, 1.0))


def test_mean_over_matches_manual():
    env = PhysicalEnvironment(seed=3)
    locations = [(0, 0), (10, 5), (-3, 8)]
    manual = sum(env.sample("temperature", loc, 42.0)
                 for loc in locations) / 3
    assert env.mean_over("temperature", locations, 42.0) == pytest.approx(manual)


def test_default_fields_present():
    env = PhysicalEnvironment()
    for quantity in ("temperature", "humidity", "light", "pressure"):
        value = env.sample(quantity, (0, 0), 0.0)
        assert isinstance(value, float)
    assert env.unit_of("temperature") == "celsius"


def test_custom_field_definition():
    env = PhysicalEnvironment()
    env.define_field("co2", FieldSpec(base=410.0, unit="ppm"))
    assert env.sample("co2", (0, 0), 0.0) == pytest.approx(410.0)
