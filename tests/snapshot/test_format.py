"""Snapshot wire format: header, versioning, compression, safety."""

from __future__ import annotations

import os
import pickle

import pytest

from repro import Machine, MachineConfig
from repro.errors import ReproError, SnapshotError, SnapshotVersionError
from repro.snapshot import MAGIC, SNAPSHOT_VERSION, restore, snapshot
from repro.snapshot.format import _FLAG_COMPRESSED, _HEADER, encode

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _header(blob: bytes):
    return _HEADER.unpack_from(blob)


def test_blob_starts_with_magic():
    assert snapshot({"a": 1}).startswith(MAGIC)


def test_round_trip_plain_data():
    obj = {"x": [1, 2, 3], "y": (4, 5), "z": b"bytes", "w": {6, 7}}
    assert restore(snapshot(obj)) == obj


def test_round_trip_preserves_shared_references():
    inner = [1, 2, 3]
    obj = {"a": inner, "b": inner}
    out = restore(snapshot(obj))
    out["a"].append(4)
    assert out["b"] == [1, 2, 3, 4]


def test_snapshot_is_deterministic_for_a_machine():
    machine = Machine(config=MachineConfig(mem_size=1 << 18))
    machine.run_until_idle()
    assert snapshot(machine) == snapshot(machine)


def test_short_blob_rejected():
    with pytest.raises(SnapshotError):
        restore(b"xx")


def test_bad_magic_rejected():
    blob = bytearray(snapshot([1]))
    blob[:8] = b"NOTSNAPS"
    with pytest.raises(SnapshotError, match="magic"):
        restore(bytes(blob))


def test_version_mismatch_raises_typed_error():
    blob = encode({"k": "v"}, version=SNAPSHOT_VERSION + 1)
    with pytest.raises(SnapshotVersionError) as excinfo:
        restore(blob)
    err = excinfo.value
    assert err.found == SNAPSHOT_VERSION + 1
    assert err.expected == SNAPSHOT_VERSION
    assert str(SNAPSHOT_VERSION + 1) in str(err)
    assert str(SNAPSHOT_VERSION) in str(err)


def test_version_1_blob_is_refused():
    # Version 2 changed the clock's persisted shape (tuple queue entries,
    # a plain ``now`` attribute) and version 3 changed it again (the
    # queue holds Event lists; no same-time bucket, no event free list),
    # so neither older version can be restored.
    for version in (1, 2):
        blob = encode({"k": "v"}, version=version)
        with pytest.raises(SnapshotVersionError) as excinfo:
            restore(blob)
        assert excinfo.value.found == version
        assert excinfo.value.expected == 3


def test_version_error_is_a_snapshot_and_repro_error():
    assert issubclass(SnapshotVersionError, SnapshotError)
    assert issubclass(SnapshotError, ReproError)


def test_version_check_precedes_payload_decode():
    # A refusable header glued onto unreadable garbage must still produce
    # the version diagnosis, never a decompression/unpickling error.
    blob = _HEADER.pack(MAGIC, SNAPSHOT_VERSION + 7, 0) + b"\xff" * 32
    with pytest.raises(SnapshotVersionError) as excinfo:
        restore(blob)
    assert excinfo.value.found == SNAPSHOT_VERSION + 7


def test_corrupt_compressed_payload_rejected():
    blob = bytearray(snapshot(bytes(range(256)) * 64))
    assert _header(blob)[2] & _FLAG_COMPRESSED
    blob[_HEADER.size + 4] ^= 0xFF
    with pytest.raises(SnapshotError):
        restore(bytes(blob))


def test_corrupt_uncompressed_payload_rejected():
    blob = bytearray(snapshot([1, 2, 3]))
    blob[_HEADER.size] ^= 0xFF
    with pytest.raises(SnapshotError):
        restore(bytes(blob))


def test_small_payload_stays_uncompressed():
    _, version, flags = _header(snapshot([1, 2, 3]))
    assert version == SNAPSHOT_VERSION
    assert not flags & _FLAG_COMPRESSED


def test_large_payload_is_compressed():
    _, _, flags = _header(snapshot(bytes(range(256)) * 64))
    assert flags & _FLAG_COMPRESSED


def test_disallowed_global_rejected():
    # A blob naming a module outside the allow-list must be refused at
    # the unpickler, regardless of what the object would do.
    payload = pickle.dumps(os.getcwd)
    blob = _HEADER.pack(MAGIC, SNAPSHOT_VERSION, 0) + payload
    with pytest.raises(SnapshotError, match="os"):
        restore(blob)


def test_unsnapshottable_object_raises_at_capture():
    with pytest.raises(SnapshotError, match="not snapshottable"):
        snapshot(lambda: None)


def test_golden_version0_fixture_refused():
    """The committed version-0 blob must stay refusable forever.

    If SNAPSHOT_VERSION is ever bumped, this fixture keeps proving that
    pre-bump blobs fail with a diagnosable error instead of garbage.
    """
    with open(os.path.join(DATA_DIR, "snapshot_v0.snap"), "rb") as fh:
        blob = fh.read()
    with pytest.raises(SnapshotVersionError) as excinfo:
        restore(blob)
    assert excinfo.value.found == 0
    assert excinfo.value.expected == SNAPSHOT_VERSION
