"""Recorded programs: how a snapshot's run is rebuilt and replayed.

CPython cannot pickle generator frames, so a snapshot does not try to
freeze in-flight processes. Instead every snapshot records a **program
spec** — a small JSON document naming a program kind plus the exact
inputs (seed, scenario, plan, tie-break seed) that
deterministically reproduce the run. Restore rebuilds the program from
the spec, replays it with an identically-scheduled
:class:`~repro.snapshot.checkpoint.Checkpointer`, verifies the replayed
state against the captured state at the checkpoint, and continues.

Two program kinds cover the repo's end-to-end surfaces:

* ``status`` — the paper-lab deployment, optional §VI six-step browser
  experiment, settle to a fixed sim time; outputs the canonical
  ``status --json`` document and the trace JSONL (the byte-equivalence
  oracles used across DESIGN §12);
* ``campaign`` — one chaos campaign run of a recorded
  :class:`~repro.chaos.plan.ChaosPlan`; outputs the canonical verdict
  JSON.

The tie-break seed lives in the spec because it is an input to event
ordering: drivers force the recorded value through the environment
variable for the duration of the scenario build, then restore whatever
the process had (so a restore in a process configured with another
shuffle seed still replays faithfully).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.snapshot.checkpoint import Checkpointer

__all__ = [
    "forced_kernel",
    "six_step_experiment",
    "status_spec",
    "campaign_spec",
    "run_program",
    "spec_from_env",
]


@contextmanager
def forced_kernel(tie_break_seed):
    """Force the kernel's shuffle seed for a scenario build."""
    from repro.sim.core import SHUFFLE_SEED_ENV
    saved = os.environ.get(SHUFFLE_SEED_ENV)
    if tie_break_seed is None:
        os.environ.pop(SHUFFLE_SEED_ENV, None)
    else:
        os.environ[SHUFFLE_SEED_ENV] = str(tie_break_seed)
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(SHUFFLE_SEED_ENV, None)
        else:
            os.environ[SHUFFLE_SEED_ENV] = saved


def spec_from_env(spec: dict, env) -> dict:
    """Stamp the live kernel's tie seed into a program spec."""
    out = dict(spec)
    out["tie_break_seed"] = env.tie_break_seed
    return out


def six_step_experiment(browser):
    """The §VI six-step browser experiment (single source of truth —
    the CLI's ``experiment``/``status`` commands run this same body)."""
    yield from browser.compose_service(
        "Composite-Service",
        ["Neem-Sensor", "Jade-Sensor", "Diamond-Sensor"])
    yield from browser.add_expression("Composite-Service", "(a + b + c)/3")
    yield from browser.create_service("New-Composite")
    yield from browser.compose_service(
        "New-Composite", ["Composite-Service", "Coral-Sensor"])
    yield from browser.add_expression("New-Composite", "(a + b)/2")
    value = yield from browser.get_value("New-Composite")
    yield from browser.get_info("New-Composite")
    yield from browser.refresh_topology()
    return value


# -- spec constructors -------------------------------------------------------

def status_spec(seed: int = 2009, until: float = 30.0,
                six_steps: bool = True,
                tie_break_seed: int | None = None) -> dict:
    return {
        "kind": "status",
        "seed": int(seed),
        "six_steps": bool(six_steps),
        "tie_break_seed": tie_break_seed,
        "until": float(until),
    }


def campaign_spec(plan_dict: dict, scenario: str = "paper-lab",
                  tie_break_seed: int | None = None) -> dict:
    return {
        "kind": "campaign",
        "plan": plan_dict,
        "scenario": scenario,
        "tie_break_seed": tie_break_seed,
    }


# -- drivers -----------------------------------------------------------------

def _run_status(spec: dict, checkpoint_at, sink, on_capture):
    from repro.observability import status_json, trace_to_jsonl, tracer_of
    from repro.scenarios import build_paper_lab

    with forced_kernel(spec.get("tie_break_seed")):
        lab = build_paper_lab(seed=spec["seed"])
    env = lab.env
    recorded = spec_from_env(spec, env)
    checkpointer = None
    if checkpoint_at:
        checkpointer = Checkpointer(env, checkpoint_at, sink=sink,
                                    program=recorded, label="status",
                                    on_capture=on_capture)
    lab.settle(6.0)
    if spec.get("six_steps", True):
        env.run(until=env.process(six_step_experiment(lab.browser),
                                  name="six-steps"))
    if env.now < spec["until"]:
        env.run(until=spec["until"])
    outputs = {
        "status": status_json(lab.health.snapshot(), seed=spec["seed"]),
        "trace": trace_to_jsonl(tracer_of(lab.net)),
    }
    return outputs, checkpointer


def _run_campaign(spec: dict, checkpoint_at, sink, on_capture):
    from repro.chaos import CampaignRunner, ChaosPlan, verdict_json

    plan = ChaosPlan.from_dict(spec["plan"])
    runner = CampaignRunner(scenario=spec.get("scenario", "paper-lab"))
    holder: list = []

    def factory(env):
        recorded = spec_from_env(spec, env)
        checkpointer = Checkpointer(env, checkpoint_at, sink=sink,
                                    program=recorded, label="campaign",
                                    on_capture=on_capture)
        holder.append(checkpointer)
        return checkpointer

    with forced_kernel(spec.get("tie_break_seed")):
        verdict = runner.run_plan(
            plan, checkpointer=factory if checkpoint_at else None)
    outputs = {"verdict": verdict_json(verdict)}
    return outputs, (holder[0] if holder else None)


_PROGRAMS = {
    "campaign": _run_campaign,
    "status": _run_status,
}


def run_program(spec: dict, checkpoint_at=(), sink=None, on_capture=None):
    """Run a recorded program end to end.

    Returns ``(outputs, checkpointer)`` where ``outputs`` maps output
    names to canonical text and ``checkpointer`` is ``None`` when no
    checkpoint schedule was requested. The byte contents of ``outputs``
    are the equivalence oracle: an uninterrupted run and a
    restore-and-continue of the same spec must agree exactly.
    """
    kind = spec.get("kind")
    if kind not in _PROGRAMS:
        raise ValueError(f"unknown snapshot program kind {kind!r}; "
                         f"known: {', '.join(sorted(_PROGRAMS))}")
    return _PROGRAMS[kind](spec, tuple(checkpoint_at), sink, on_capture)
