"""Free-list pooling for packets and payload buffers.

The per-message hot path used to allocate one :class:`Packet` and one
``bytes`` payload snapshot per message; at millions of messages per run
the allocator and the garbage collector dominate host time.  This module
pools both allocations.

A :class:`PacketPool` is owned by the backplane
(:class:`~repro.net.interconnect.Interconnect`), one per backplane --
which in the sharded kernel means one per shard, so pools never cross a
process boundary.  The sending NIC acquires a packet (with a recycled
``bytearray`` payload of the right size); the receiving NIC releases it
after the receive DMA has copied the payload into physical memory.

Recycling rules (enforced by construction, checked in ``debug`` mode):

* Only ``data`` packets travel through the pool; ACKs and fault-injected
  decodes are ordinary garbage-collected packets.
* Pooling is bypassed whenever anything downstream may retain the packet
  past delivery: a reliability plane (it keeps packets for retransmit and
  builds ``dataclasses.replace`` copies sharing the payload), receive
  hooks, or span tracking.  Such packets simply skip the pool -- the
  simulation is identical either way, which the chaos ``--no-pool``
  differential oracle verifies.
* On release the payload is detached from the packet, so a stale
  reference to a recycled packet can never read a successor's data.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.errors import PoolIntegrityError
from repro.net.packet import Packet
from repro.snapshot.protocol import SnapshotMixin

#: retained Packet shells (beyond this, releases fall back to the GC)
PACKET_FREE_LIST_CAP = 4096
#: retained payload buffers per distinct size
BUFFER_FREE_LIST_CAP = 1024


class PacketPool(SnapshotMixin):
    """Free lists for :class:`Packet` shells and payload ``bytearray``\\ s.

    ``debug=True`` keeps an ownership ledger and raises
    :class:`~repro.errors.PoolIntegrityError` on a double release or an
    acquire of an object the pool does not own.
    """

    __slots__ = (
        "debug",
        "packet_reuses",
        "packet_allocs",
        "buffer_reuses",
        "releases",
        "_packets",
        "_buffers",
        "_owned_packet_ids",
        "_owned_buffer_ids",
    )

    def __init__(self, debug: bool = False) -> None:
        self.debug = debug
        self.packet_reuses = 0
        self.packet_allocs = 0
        self.buffer_reuses = 0
        self.releases = 0
        self._packets: List[Packet] = []
        self._buffers: Dict[int, List[bytearray]] = {}
        self._owned_packet_ids: Set[int] = set()
        self._owned_buffer_ids: Set[int] = set()

    def acquire(
        self,
        src_node: int,
        dst_node: int,
        dst_paddr: int,
        data: "bytes | bytearray | memoryview",
        seq: int,
    ) -> Packet:
        """A ``data`` packet whose payload is a private snapshot of ``data``.

        The payload lands in a recycled ``bytearray`` when one of the
        right size is available -- the packetizer's one send-side copy,
        without the allocation.
        """
        nbytes = len(data)
        bufs = self._buffers.get(nbytes)
        if bufs:
            payload = bufs.pop()
            if self.debug:
                self._owned_buffer_ids.discard(id(payload))
            self.buffer_reuses += 1
        else:
            payload = bytearray(nbytes)
        payload[:] = data
        packets = self._packets
        if packets:
            packet = packets.pop()
            if self.debug:
                self._debug_acquire(packet)
            set_ = object.__setattr__
            set_(packet, "src_node", src_node)
            set_(packet, "dst_node", dst_node)
            set_(packet, "dst_paddr", dst_paddr)
            set_(packet, "payload", payload)
            set_(packet, "seq", seq)
            self.packet_reuses += 1
        else:
            packet = Packet(
                src_node, dst_node, dst_paddr, payload, seq, _pooled=True
            )
            self.packet_allocs += 1
        return packet

    def release(self, packet: Packet) -> None:
        """Return a delivered pooled packet (and its payload buffer).

        Packets the pool did not produce pass through untouched, so call
        sites need no provenance bookkeeping of their own.
        """
        if not packet._pooled:
            return
        payload = packet.payload
        if self.debug:
            self._debug_release(packet, payload)
        # Detach the payload first: a stale reference to the recycled
        # packet sees an empty payload, never a successor's bytes.
        object.__setattr__(packet, "payload", b"")
        self.releases += 1
        if len(self._packets) < PACKET_FREE_LIST_CAP:
            self._packets.append(packet)
        if isinstance(payload, bytearray):
            nbytes = len(payload)
            bufs = self._buffers.get(nbytes)
            if bufs is None:
                bufs = self._buffers[nbytes] = []
            if len(bufs) < BUFFER_FREE_LIST_CAP:
                bufs.append(payload)

    # -------------------------------------------------------- snapshotting
    def __getstate__(self) -> dict:
        # The debug ownership ledgers key on id(); object identities do
        # not survive a pickle round trip, so they are rebuilt from the
        # free lists on restore.
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in ("_owned_packet_ids", "_owned_buffer_ids")
        }

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._owned_packet_ids = {id(p) for p in self._packets}
        self._owned_buffer_ids = {
            id(buf) for bufs in self._buffers.values() for buf in bufs
        }

    def stats(self) -> Dict[str, int]:
        """Pool-effectiveness counters (reported by the bench harness)."""
        return {
            "packet_reuses": self.packet_reuses,
            "packet_allocs": self.packet_allocs,
            "buffer_reuses": self.buffer_reuses,
            "releases": self.releases,
            "free_packets": len(self._packets),
            "free_buffers": sum(len(b) for b in self._buffers.values()),
        }

    # ------------------------------------------------------------ debug
    def _debug_acquire(self, packet: Packet) -> None:
        pid = id(packet)
        if pid not in self._owned_packet_ids:
            raise PoolIntegrityError(
                "acquired a packet the pool does not own"
            )
        self._owned_packet_ids.discard(pid)
        if packet.payload != b"":
            raise PoolIntegrityError("pooled packet still carries a payload")

    def _debug_release(self, packet: Packet, payload) -> None:
        pid = id(packet)
        if pid in self._owned_packet_ids:
            raise PoolIntegrityError("packet double-released to pool")
        if packet.kind != "data":
            raise PoolIntegrityError(
                f"non-data packet ({packet.kind!r}) released to pool"
            )
        if isinstance(payload, bytearray) and id(payload) in self._owned_buffer_ids:
            raise PoolIntegrityError("payload buffer double-released to pool")
        self._owned_packet_ids.add(pid)
        if isinstance(payload, bytearray):
            self._owned_buffer_ids.add(id(payload))
