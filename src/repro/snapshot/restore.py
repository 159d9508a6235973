"""Restore a federation from a snapshot file and continue the run.

The restore contract (DESIGN §14): given a snapshot taken at sim time T
during some run, ``restore_run`` in a *fresh process* must produce,
for the continuation beyond T, byte-identical outputs — ``status
--json``, trace JSONL, chaos verdicts — to the original uninterrupted
run. That holds for any tie-break shuffle seed, because the snapshot
records it in its program spec and the replay forces it.

Mechanically restore is record/replay: read and validate the envelope
(:func:`repro.snapshot.format.read_snapshot` — torn files raise
:class:`~repro.snapshot.format.SnapshotCorrupt` before any state is
touched), rebuild the program from the spec, re-run it with a
:class:`~repro.snapshot.checkpoint.Checkpointer` on the identical
schedule, and at the recorded checkpoint index compare the replayed
state document against the snapshot's — digest first, then a
section-level diff for the error message. A mismatch raises
:class:`~repro.snapshot.format.RestoreMismatch` at the checkpoint
instant, *before* the continuation runs; on a match the run simply
continues to completion and returns its outputs.
"""

from __future__ import annotations

from repro.snapshot.capture import state_digest
from repro.snapshot.format import (
    RestoreMismatch,
    SnapshotCorrupt,
    canonical_dumps,
    read_snapshot,
)
from repro.snapshot.programs import run_program

__all__ = ["restore_run", "diff_sections"]


def diff_sections(expected: dict, actual: dict) -> list:
    """Section keys whose canonical bytes differ between two captures."""
    differing = []
    for key in sorted(set(expected) | set(actual)):
        if key not in expected:
            differing.append(f"+{key}")
        elif key not in actual:
            differing.append(f"-{key}")
        elif canonical_dumps(expected[key]) != canonical_dumps(actual[key]):
            differing.append(key)
    return differing


def restore_run(path, continue_run: bool = True):
    """Restore from ``path``; returns ``(outputs, body)``.

    ``outputs`` is the program's output map (``None`` when
    ``continue_run`` is false — verification only). ``body`` is the
    validated snapshot document, so callers can report checkpoint
    metadata without re-reading the file.
    """
    body = read_snapshot(path)
    for field in ("program", "checkpoint", "state", "digest"):
        if field not in body:
            raise SnapshotCorrupt(f"{path}: snapshot body missing {field!r}")
    checkpoint = body["checkpoint"]
    expected_state = body["state"]
    expected_digest = body["digest"]
    if state_digest(expected_state) != expected_digest:
        raise SnapshotCorrupt(
            f"{path}: recorded digest does not match recorded state")
    target_index = checkpoint["index"]
    verified = []

    def verify(index, at, state, digest):
        if index != target_index:
            return
        if digest != expected_digest:
            sections = diff_sections(expected_state, state)
            raise RestoreMismatch(
                f"replayed state diverges from snapshot at checkpoint "
                f"{index} (t={at}); differing sections: "
                f"{', '.join(sections) or 'digest only'}")
        verified.append(index)
        if not continue_run:
            raise _StopReplay()

    try:
        outputs, _ = run_program(body["program"],
                                 checkpoint_at=checkpoint["schedule"],
                                 on_capture=verify)
    except _StopReplay:
        return None, body
    if target_index not in verified:
        raise RestoreMismatch(
            f"replay never reached checkpoint index {target_index} "
            f"(schedule {checkpoint['schedule']})")
    return outputs, body


class _StopReplay(BaseException):
    """Internal: abort the replay right after a verify-only restore.

    Derives from ``BaseException`` so the simulated program cannot
    accidentally swallow it with a broad ``except Exception``.
    """
