"""The packet pool's ownership ledger (``PacketPool(debug=True)``).

Each violation case trips exactly one ledger check: the packets carry
empty payloads, so no other check can raise in its place.
"""

import pytest

from repro.errors import PoolIntegrityError
from repro.net.packet import Packet
from repro.net.pool import PacketPool


def _acquire(pool: PacketPool) -> Packet:
    return pool.acquire(0, 1, 0x1000, b"payload", seq=7)


def test_double_release_raises():
    pool = PacketPool(debug=True)
    packet = _acquire(pool)
    pool.release(packet)
    with pytest.raises(PoolIntegrityError, match="packet double-released"):
        pool.release(packet)


def test_non_data_release_raises():
    pool = PacketPool(debug=True)
    ack = Packet(0, 1, 0, b"", kind="ack", _pooled=True)
    with pytest.raises(PoolIntegrityError, match="non-data packet"):
        pool.release(ack)


def test_foreign_acquire_raises():
    pool = PacketPool(debug=True)
    # A shell on the free list that never went through release().
    pool._packets.append(Packet(0, 1, 0, b"", _pooled=True))
    with pytest.raises(PoolIntegrityError, match="does not own"):
        _acquire(pool)
