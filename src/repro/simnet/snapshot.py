"""Deterministic snapshot/restore of a running simulation.

The sweep orchestrator (:mod:`repro.orchestrator`) checkpoints long
runs so that a killed worker can resume instead of starting over. That
only works if a restored :class:`~repro.core.system.RacSystem` replays
*exactly* the run the original would have produced — same event order,
same RNG draws, same wire bytes. This module provides that guarantee
on top of :mod:`pickle`:

* Everything reachable from a ``RacSystem`` is plain data, ``random.Random``
  instances (whose Mersenne state pickles exactly) or bound methods of
  picklable objects. The two constructs pickle cannot handle were
  removed at the source: :class:`~repro.simnet.engine.Simulator`
  exports its ``itertools.count`` sequence counter as an integer
  (``__getstate__``/``__setstate__``), and
  :class:`~repro.simnet.network.StarNetwork` schedules bound methods
  with explicit arguments instead of closures.

* ``set``/``frozenset`` iteration order depends on each table's private
  insertion history (and, for strs, on ``PYTHONHASHSEED``), so a naive
  pickle of a restored system is not guaranteed to reproduce its own
  snapshot. The snapshot pickler therefore writes every set as a
  *persistent id* carrying a canonically ordered element list (sorted
  by ``repr``, which totally orders the mixed int/str/tuple keys the
  protocol uses; nested frozensets are spelled in that same order),
  making ``snapshot → restore → snapshot`` a byte
  fixed-point — and that fixed-point is the cheap integrity check
  :func:`snapshot_system` can run before a checkpoint is trusted.

* ``persistent_id`` is the one hook the C pickler consults before its
  builtin ``set`` fast path (``dispatch_table`` and ``reducer_override``
  come too late), so the canonical pickler runs at C speed. Persistent
  ids are not memoized, so each set's id also carries an explicit
  reference number; a later occurrence of the same set is written as
  that number alone and restores as the *same* object. The unpickler
  files sets under the number written in the blob, never by arrival
  order: it builds inner frozensets before the outer one that was
  numbered first.

Invariants (pinned by ``tests/integration/test_determinism.py``):

1. restore(snapshot(S)) continued for T sim-seconds produces the same
   ``stats_report()``, event count and clock as S continued for T;
2. snapshot(restore(blob)) == blob (byte equality, ``verify=True``);
3. taking a snapshot does not perturb the live system (the continued
   original and the restored copy stay in lock-step).
"""

from __future__ import annotations

import io
import os
import pickle
from typing import Any, Dict, Tuple

__all__ = [
    "SnapshotError",
    "snapshot_system",
    "restore_system",
    "verify_roundtrip",
    "save_snapshot",
    "load_snapshot",
    "SNAPSHOT_MAGIC",
]

#: Versioned header; bump the digit when the snapshot layout changes.
SNAPSHOT_MAGIC = b"RACSNAP/2\n"


class SnapshotError(Exception):
    """A snapshot could not be taken, verified or restored."""


def _canonical_key(obj: Any) -> str:
    """Sort key for set elements: ``repr``, except that a nested
    frozenset lists its own elements in canonical order (its ``repr``
    follows iteration order, which the hash seed can change)."""
    cls = type(obj)
    if cls is frozenset:
        return "frozenset({%s})" % ", ".join(sorted(map(_canonical_key, obj)))
    if cls is tuple:
        return "(%s%s)" % (", ".join(map(_canonical_key, obj)), "," if len(obj) == 1 else "")
    return repr(obj)


class _CanonicalPickler(pickle.Pickler):
    """C pickler that writes each set as ``(frozen, ref, sorted elements)``
    the first time it is seen and as the bare ``ref`` after that."""

    def __init__(self, file: io.BytesIO) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        # id(set) -> (ref, set); holding the set keeps its id unique.
        self._refs: "Dict[int, Tuple[int, Any]]" = {}

    def persistent_id(self, obj: Any) -> Any:
        cls = type(obj)
        if cls is not set and cls is not frozenset:
            return None
        seen = self._refs.get(id(obj))
        if seen is not None:
            return seen[0]
        ref = len(self._refs)
        self._refs[id(obj)] = (ref, obj)
        return (cls is frozenset, ref, sorted(obj, key=_canonical_key))


class _CanonicalUnpickler(pickle.Unpickler):
    """Inverse of :class:`_CanonicalPickler`: sets are filed by the
    reference number in the blob, so aliases restore as one object."""

    def __init__(self, file: io.BytesIO) -> None:
        super().__init__(file)
        self._sets: "Dict[int, Any]" = {}

    def persistent_load(self, pid: Any) -> Any:
        if type(pid) is int:
            return self._sets[pid]
        frozen, ref, elements = pid
        obj = frozenset(elements) if frozen else set(elements)
        self._sets[ref] = obj
        return obj


def _dumps(obj: Any) -> bytes:
    buffer = io.BytesIO()
    _CanonicalPickler(buffer).dump(obj)
    return buffer.getvalue()


def _loads(data: bytes) -> Any:
    return _CanonicalUnpickler(io.BytesIO(data)).load()


def snapshot_system(system: Any, verify: bool = False) -> bytes:
    """Serialize a (possibly mid-run) system to a self-contained blob.

    The blob is *canonical*: a first, plain pickle is restored in
    memory and re-pickled canonically, which erases identity artifacts
    of the live process (equal strings interned into one object pickle
    as memo references; their restored counterparts are distinct
    objects). One round-trip reaches the byte fixed-point
    ``snapshot(restore(blob)) == blob``; the live system is only read.

    With ``verify=True`` that fixed-point is actually checked — a
    failure means some new state crept in that does not round-trip
    deterministically, and the blob must not be trusted as a checkpoint.
    """
    try:
        raw = pickle.dumps(system, protocol=pickle.HIGHEST_PROTOCOL)
        blob = SNAPSHOT_MAGIC + _dumps(pickle.loads(raw))
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise SnapshotError(f"system state is not snapshot-safe: {exc}") from exc
    if verify:
        verify_roundtrip(blob)
    return blob


def restore_system(blob: bytes) -> Any:
    """Rebuild the system a blob was taken from; it resumes where the
    original stood, down to the pending event queue and RNG streams."""
    if not blob.startswith(SNAPSHOT_MAGIC):
        if blob.startswith(b"RACSNAP/"):
            found = blob[:32].split(b"\n", 1)[0].decode("ascii", "replace")
            raise SnapshotError(
                f"snapshot format {found} is not readable by this build, which "
                f"reads {SNAPSHOT_MAGIC.decode().strip()}; delete it and rerun from the start"
            )
        raise SnapshotError("not a RAC snapshot (bad magic header)")
    try:
        return _loads(blob[len(SNAPSHOT_MAGIC):])
    except Exception as exc:  # unpickling raises wildly varied types
        raise SnapshotError(f"snapshot blob is corrupt: {exc}") from exc


def verify_roundtrip(blob: bytes) -> Any:
    """Assert the blob is a byte fixed-point; return the restored system.

    ``snapshot(restore(blob)) == blob`` is the invariant: the restored
    system re-serializes to the identical bytes, so a checkpoint chain
    (snapshot → restore → run → snapshot → ...) cannot drift.
    """
    restored = restore_system(blob)
    again = SNAPSHOT_MAGIC + _dumps(restored)
    if again != blob:
        raise SnapshotError(
            "snapshot round-trip is not byte-stable "
            f"({len(blob)} vs {len(again)} bytes) — restored runs may diverge"
        )
    return restored


def save_snapshot(system: Any, path: str, verify: bool = False) -> int:
    """Atomically write a snapshot file (tmp + rename); returns its size.

    The rename is what makes checkpointing crash-safe: a worker killed
    mid-write leaves the previous checkpoint intact, never a torn file.
    """
    blob = snapshot_system(system, verify=verify)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return len(blob)


def load_snapshot(path: str) -> Any:
    """Restore a system from a snapshot file written by :func:`save_snapshot`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    return restore_system(blob)
