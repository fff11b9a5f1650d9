"""The snapshot wire format: a versioned header over a compressed pickle.

Layout (all integers little-endian, fixed width)::

    offset  size  field
    0       8     MAGIC          b"SHRIMPSN"
    8       4     version        uint32, must equal SNAPSHOT_VERSION
    12      4     flags          uint32, bit 0 = payload is zlib-compressed
    16      ...   payload        pickle (optionally zlib-compressed)

The header is parsed *before* any unpickling, so version refusal never
depends on the payload being readable: a blob from a different build
fails with :class:`~repro.errors.SnapshotVersionError` naming both
versions, not with an opaque unpickling error three layers deep.

Snapshots serialise internal object graphs, so the version is bumped on
*any* change to the persisted shape of a component -- there is no
migration path, only refusal (see ``docs/SNAPSHOT.md``).
"""

from __future__ import annotations

import io
import pickle
import struct
import zlib

from repro.errors import SnapshotError, SnapshotVersionError

#: identifies a blob as a simulator snapshot before anything is trusted
MAGIC = b"SHRIMPSN"

#: bump on any change to a pickled component's persisted shape
SNAPSHOT_VERSION = 3

#: payloads at or above this size are zlib-compressed (mostly zero-filled
#: physical memory compresses ~100x; tiny payloads skip the overhead)
_COMPRESS_THRESHOLD = 4096

_FLAG_COMPRESSED = 1

_HEADER = struct.Struct("<8sII")


def encode(obj: object, *, version: int = SNAPSHOT_VERSION) -> bytes:
    """Serialise ``obj`` into a framed snapshot blob.

    ``version`` is overridable only so tests can mint blobs that the
    reader must refuse; production callers always write the current
    version.
    """
    try:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise SnapshotError(
            f"object graph is not snapshottable: {exc}"
        ) from exc
    flags = 0
    if len(payload) >= _COMPRESS_THRESHOLD:
        compressed = zlib.compress(payload, level=1)
        if len(compressed) < len(payload):
            payload = compressed
            flags |= _FLAG_COMPRESSED
    return _HEADER.pack(MAGIC, version, flags) + payload


def decode(blob: bytes) -> object:
    """Parse a snapshot blob back into the object graph it captured."""
    if len(blob) < _HEADER.size:
        raise SnapshotError(
            f"blob is {len(blob)} bytes, shorter than the "
            f"{_HEADER.size}-byte snapshot header"
        )
    magic, version, flags = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise SnapshotError(
            f"bad magic {magic!r}: not a simulator snapshot"
        )
    if version != SNAPSHOT_VERSION:
        raise SnapshotVersionError(found=version, expected=SNAPSHOT_VERSION)
    payload = blob[_HEADER.size:]
    if flags & _FLAG_COMPRESSED:
        try:
            payload = zlib.decompress(payload)
        except zlib.error as exc:
            raise SnapshotError(f"corrupt compressed payload: {exc}") from exc
    try:
        return _RestrictedUnpickler(io.BytesIO(payload)).load()
    except SnapshotError:
        raise
    except Exception as exc:
        raise SnapshotError(f"corrupt snapshot payload: {exc}") from exc


class _RestrictedUnpickler(pickle.Unpickler):
    """Refuses globals outside the simulator and the stdlib.

    Snapshots are produced and consumed by the same trusted process
    family (checkpointing, test tiers), but CI also round-trips blobs
    through artifact uploads; limiting resolvable globals keeps a
    tampered artifact from importing arbitrary code on load.
    """

    _ALLOWED_ROOTS = frozenset(
        {
            "repro",
            "builtins",
            "collections",
            "_collections",
            "functools",
            "_functools",
            "itertools",
            "operator",
            "_operator",
            "copyreg",
        }
    )

    def find_class(self, module: str, name: str):
        if module.split(".", 1)[0] in self._ALLOWED_ROOTS:
            return super().find_class(module, name)
        raise SnapshotError(
            f"snapshot references disallowed global {module}.{name}"
        )
