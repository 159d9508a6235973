"""Restore-and-continue equivalence — the tentpole acceptance matrix.

Snapshot a run at time T, restore from the file, continue to the end:
every canonical output (``status --json`` document, trace JSONL, chaos
verdict JSON) must be byte-identical to the same run left uninterrupted —
under multiple tie-break shuffle seeds, because the snapshot records the
shuffle seed in its program spec and the replay forces it.
"""

import json

import pytest

from repro.snapshot.capture import state_digest
from repro.snapshot.format import (
    RestoreMismatch,
    SnapshotCorrupt,
    read_snapshot,
    write_snapshot,
)
from repro.snapshot.programs import campaign_spec, run_program, status_spec
from repro.snapshot.restore import diff_sections, restore_run

CHECKPOINT_AT = 12.0
UNTIL = 24.0


def _status_round_trip(tmp_path, tie_break_seed):
    spec = status_spec(seed=2009, until=UNTIL, tie_break_seed=tie_break_seed)
    path = tmp_path / "run.snap"
    baseline, checkpointer = run_program(spec, checkpoint_at=[CHECKPOINT_AT],
                                         sink=str(path))
    assert [str(written) for written in checkpointer.written] == [str(path)]
    restored, body = restore_run(path)
    return baseline, restored, body


@pytest.mark.parametrize("tie_break_seed", [None, 1, 2])
def test_status_restore_is_byte_identical(tmp_path, tie_break_seed):
    baseline, restored, body = _status_round_trip(tmp_path, tie_break_seed)
    assert "scheduler" not in body["program"]
    assert body["program"]["tie_break_seed"] == tie_break_seed
    assert sorted(restored) == ["status", "trace"]
    assert restored["status"] == baseline["status"]
    assert restored["trace"] == baseline["trace"]


def test_snapshot_state_is_substantial(tmp_path):
    _, _, body = _status_round_trip(tmp_path, None)
    state = body["state"]
    assert state["kernel"]["now"] == CHECKPOINT_AT
    # The whole federation is in the file, not just the kernel clock.
    for section in ("health", "metrics", "net", "trace"):
        assert section in state
    assert any(key.startswith("jini.lus.") for key in state)
    assert any(key.startswith("resilience.breakers.") for key in state)
    assert any(key.startswith("sensor.probe.") for key in state)
    assert len(state) >= 18


def test_campaign_restore_reproduces_the_verdict(tmp_path):
    from repro.chaos import CampaignConfig, CampaignRunner
    runner = CampaignRunner(scenario="paper-lab",
                            config=CampaignConfig(horizon=45.0))
    spec = campaign_spec(runner.plan_for(5).to_dict())
    path = tmp_path / "campaign.snap"
    baseline, _ = run_program(spec, checkpoint_at=[10.0], sink=str(path))
    restored, body = restore_run(path)
    assert body["checkpoint"]["label"] == "campaign"
    assert restored["verdict"] == baseline["verdict"]
    # The recorded plan really produced a judged run, not a vacuous pass.
    assert json.loads(baseline["verdict"])["plan"]["events"]


def test_tampered_state_fails_before_replay(tmp_path):
    _, _, body = _status_round_trip(tmp_path, None)
    body["state"]["metrics"] = {"forged": True}
    path = tmp_path / "tampered.snap"
    write_snapshot(path, body)
    # Recorded digest no longer covers the recorded state: refused before
    # any program is rebuilt.
    with pytest.raises(SnapshotCorrupt, match="digest does not match"):
        restore_run(path)


def test_divergent_state_raises_restore_mismatch(tmp_path):
    _, _, body = _status_round_trip(tmp_path, None)
    body["state"]["metrics"] = {"forged": True}
    body["digest"] = state_digest(body["state"])  # consistent but wrong
    path = tmp_path / "divergent.snap"
    write_snapshot(path, body)
    with pytest.raises(RestoreMismatch, match="metrics"):
        restore_run(path)


def test_missing_section_fields_are_typed(tmp_path):
    _, _, body = _status_round_trip(tmp_path, None)
    del body["program"]
    path = tmp_path / "gutted.snap"
    write_snapshot(path, body)
    with pytest.raises(SnapshotCorrupt, match="missing 'program'"):
        restore_run(path)


def test_verify_only_stops_at_the_checkpoint(tmp_path):
    _, _, body = _status_round_trip(tmp_path, None)
    path = tmp_path / "verify.snap"
    write_snapshot(path, body)
    outputs, verified_body = restore_run(path, continue_run=False)
    assert outputs is None
    assert verified_body["digest"] == body["digest"]


def test_diff_sections_reports_changed_and_missing():
    expected = {"a": 1, "b": {"x": 2}, "c": 3}
    actual = {"a": 1, "b": {"x": 99}, "d": 4}
    # Sorted by key, with presence markers for one-sided sections.
    assert diff_sections(expected, actual) == ["b", "-c", "+d"]


def test_unknown_program_kind_rejected():
    with pytest.raises(ValueError, match="unknown snapshot program"):
        run_program({"kind": "mystery"})


def test_snapshot_file_round_trips_through_reader(tmp_path):
    _, _, body = _status_round_trip(tmp_path, 1)
    path = tmp_path / "reread.snap"
    digest = write_snapshot(path, body)
    reread = read_snapshot(path)
    assert reread == body
    assert len(digest) == 64
