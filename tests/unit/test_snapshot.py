"""Unit tests for the simulation snapshot layer.

The contract (see ``repro/simnet/snapshot.py``): snapshots are
byte-deterministic — the same simulation state always serialises to the
same blob, and ``snapshot(restore(blob)) == blob`` — and taking one
never perturbs the live system. Checkpoint/resume and the sweep
orchestrator both build on these invariants.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.core.config import RacConfig
from repro.core.system import RacSystem
from repro.simnet.engine import Simulator
from repro.simnet.snapshot import (
    SNAPSHOT_MAGIC,
    SnapshotError,
    load_snapshot,
    restore_system,
    save_snapshot,
    snapshot_system,
    verify_roundtrip,
)


def _mid_run_system(seed: int = 11, nodes: int = 6) -> RacSystem:
    system = RacSystem(RacConfig.small(), seed=seed)
    ids = system.bootstrap(nodes)
    for index, src in enumerate(ids):
        system.send(src, ids[(index + 1) % len(ids)], f"snap/{index}".encode())
    system.run(1.0)
    return system


def _noop() -> None:
    pass


class TestSimulatorPickling:
    def test_sequence_counter_survives_pickling(self):
        sim = Simulator()
        sim.schedule(1.0, _noop)
        sim.schedule(2.0, _noop)
        clone = pickle.loads(pickle.dumps(sim))
        # Scheduling on the clone exercises the rebuilt itertools
        # counter (it would raise if _seq were restored as a bare int).
        clone.schedule(3.0, _noop)
        clone.run(until=5.0)
        assert clone.events_processed == 3
        assert clone.now == 5.0

    def test_original_counter_still_monotonic_after_getstate(self):
        sim = Simulator()
        sim.schedule(1.0, _noop)
        pickle.dumps(sim)
        # __getstate__ rebuilds the itertools counter; scheduling on the
        # live simulator afterwards must not reuse sequence numbers.
        sim.schedule(2.0, _noop)
        sim.run(until=3.0)
        assert sim.events_processed == 2


class TestSnapshotInvariants:
    def test_blob_has_magic_and_verifies(self):
        blob = snapshot_system(_mid_run_system(), verify=True)
        assert blob.startswith(SNAPSHOT_MAGIC)
        verify_roundtrip(blob)

    def test_snapshot_is_byte_deterministic(self):
        system = _mid_run_system()
        assert snapshot_system(system) == snapshot_system(system)

    def test_snapshot_of_restore_is_identity(self):
        blob = snapshot_system(_mid_run_system())
        assert snapshot_system(restore_system(blob)) == blob

    def test_two_identically_seeded_runs_snapshot_identically(self):
        assert snapshot_system(_mid_run_system(seed=5)) == snapshot_system(
            _mid_run_system(seed=5)
        )

    def test_different_seeds_snapshot_differently(self):
        assert snapshot_system(_mid_run_system(seed=5)) != snapshot_system(
            _mid_run_system(seed=6)
        )

    def test_snapshotting_does_not_perturb_the_live_run(self):
        untouched = _mid_run_system()
        snapshotted = _mid_run_system()
        snapshot_system(snapshotted, verify=True)
        untouched.run(2.0)
        snapshotted.run(2.0)
        assert untouched.now == snapshotted.now
        assert untouched.sim.events_processed == snapshotted.sim.events_processed
        assert untouched.stats_report() == snapshotted.stats_report()

    def test_restored_system_continues_like_the_original(self):
        original = _mid_run_system()
        restored = restore_system(snapshot_system(original))
        original.run(2.0)
        restored.run(2.0)
        assert restored.now == original.now
        assert restored.sim.events_processed == original.sim.events_processed
        assert restored.stats_report() == original.stats_report()
        for node_id in original.nodes:
            assert restored.nodes[node_id].delivered == original.nodes[node_id].delivered


class TestSnapshotErrors:
    def test_restore_rejects_wrong_magic(self):
        with pytest.raises(SnapshotError):
            restore_system(b"NOTASNAP" + pickle.dumps(object))

    def test_restore_rejects_truncated_blob(self):
        with pytest.raises(SnapshotError):
            restore_system(SNAPSHOT_MAGIC[:4])

    def test_restore_names_both_versions_for_an_old_format_blob(self):
        # A checkpoint left in a run directory by an older build.
        old = b"RACSNAP/1\n" + pickle.dumps(({"epoch_done": 0}, [1, 2]))
        with pytest.raises(SnapshotError) as info:
            restore_system(old)
        message = str(info.value)
        assert "RACSNAP/1" in message
        assert SNAPSHOT_MAGIC.decode().strip() in message
        assert "RACSNAP/1" not in SNAPSHOT_MAGIC.decode()

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_snapshot(str(tmp_path / "missing.snap"))


class TestSnapshotFiles:
    def test_save_load_round_trip(self, tmp_path):
        system = _mid_run_system()
        path = str(tmp_path / "run.snap")
        size = save_snapshot(system, path, verify=True)
        assert load_snapshot(path).now == system.now
        with open(path, "rb") as fh:
            blob = fh.read()
        assert len(blob) == size
        assert blob.startswith(SNAPSHOT_MAGIC)

    def test_save_leaves_no_tmp_file(self, tmp_path):
        path = tmp_path / "run.snap"
        save_snapshot(_mid_run_system(), str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["run.snap"]

    def test_plain_objects_snapshot_too(self, tmp_path):
        # Checkpoints store (system, progress) tuples, not bare systems.
        payload = ({"t_done": 1.5}, [1, 2, 3])
        path = str(tmp_path / "obj.snap")
        save_snapshot(payload, path, verify=True)
        assert load_snapshot(path) == payload


_HASH_SEED_SCRIPT = """
import hashlib
from repro.core.config import RacConfig
from repro.core.system import RacSystem
from repro.simnet.snapshot import snapshot_system
system = RacSystem(RacConfig.small(), seed=11)
ids = system.bootstrap(6)
for index, src in enumerate(ids):
    system.send(src, ids[(index + 1) % len(ids)], f"snap/{index}".encode())
system.run(1.0)
tags = {f"tag-{i}" for i in range(40)}
nested = frozenset(frozenset({f"a{i}", f"b{i}"}) for i in range(8))
print(hashlib.sha256(snapshot_system((system, tags, nested), verify=True)).hexdigest())
"""


class TestCanonicalOrdering:
    def test_same_bytes_under_different_hash_seeds(self):
        # Set iteration order of strs follows PYTHONHASHSEED; canonical
        # ordering is what keeps the blob independent of it. Only
        # separate processes can have different hash seeds.
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        digests = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src_dir)
            result = subprocess.run(
                [sys.executable, "-c", _HASH_SEED_SCRIPT],
                env=env, capture_output=True, text=True, check=True,
            )
            digests.append(result.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]
