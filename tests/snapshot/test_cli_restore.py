"""The snapshot/restore CLI verbs, including a genuinely fresh process.

The restore contract demands equivalence when the restoring process is a
*different* process from the snapshotting one — and even one configured
with a tie-break shuffle seed, because the snapshot's program spec wins
over process environment.
"""

import io
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.cli import main
from repro.sim.core import SHUFFLE_SEED_ENV
from repro.snapshot.format import read_snapshot

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def _snapshot(tmp_path, *extra):
    path = tmp_path / "cli.snap"
    code, text = _run(["snapshot", "--at", "12", "--out", str(path), *extra])
    assert code == 0, text
    assert "snapshot written" in text
    return path


def test_snapshot_then_verify_only(tmp_path):
    path = _snapshot(tmp_path)
    code, text = _run(["restore", str(path), "--verify-only"])
    assert code == 0
    assert "replayed state matches checkpoint" in text


def test_restore_json_equals_straight_status(tmp_path):
    path = _snapshot(tmp_path)
    code, restored = _run(["restore", str(path), "--json"])
    assert code == 0
    straight_code, straight = _run(["status", "--json"])
    assert straight_code == 0
    assert restored == straight


def test_checkpoint_outside_horizon_refused(tmp_path):
    code, text = _run(["snapshot", "--at", "99",
                       "--out", str(tmp_path / "never.snap")])
    assert code == 2
    assert "outside the run's horizon" in text
    assert not (tmp_path / "never.snap").exists()


def test_torn_snapshot_is_a_typed_cli_error(tmp_path):
    path = _snapshot(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    code, text = _run(["restore", str(path)])
    assert code == 2
    assert "SnapshotCorrupt" in text


def test_restore_spill_marks_run_as_restored(tmp_path):
    from repro.observability import HistoryStore
    path = _snapshot(tmp_path)
    db = tmp_path / "hist.db"
    code, text = _run(["restore", str(path), "--spill", str(db),
                       "--run-id", "resumed"])
    assert code == 0, text
    digest = read_snapshot(path)["digest"]
    with HistoryStore(db) as store:
        (run,) = store.runs()
    assert run["run_id"] == "resumed"
    assert run["restored_from"] == digest
    code, listing = _run(["history", "--db", str(db), "list"])
    assert code == 0
    assert "restored-from" in listing
    assert digest[:12] in listing


def test_restore_in_fresh_process_matches(tmp_path):
    path = _snapshot(tmp_path)
    _, straight = _run(["status", "--json"])
    assert read_snapshot(path)["program"]["tie_break_seed"] is None
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    # Hostile restore environment: the fresh process shuffles same-instant
    # events; the spec's recorded (absent) shuffle seed must override it.
    env[SHUFFLE_SEED_ENV] = "7"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "restore", str(path), "--json"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == straight
