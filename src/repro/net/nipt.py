"""The Network Interface Page Table (NIPT).

"All potential message destinations are stored in the Network Interface
Page Table, each entry of which specifies a remote node and a physical
memory page on that node. ... The rightmost 15 bits of the page number are
used to index directly into the Network Interface Page Table to obtain a
destination node ID and a destination page number.  ... Since the NIPT is
indexed with 15 bits, it can hold 32K different destination pages"
(section 8).

The NIPT is configured by the operating system (the receive side must
export a page before a sender's OS will install an entry for it); the
hardware only reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError, NetworkError
from repro.snapshot.protocol import SnapshotMixin

#: the paper's NIPT size: a 15-bit index
DEFAULT_NIPT_ENTRIES = 1 << 15


@dataclass(frozen=True)
class NiptEntry:
    """One destination: a remote node and a page on it.

    ``dst_page`` is a *physical* frame number in the paper's design.
    Under the virtual-address RDMA tier (``repro.iommu``) an entry may
    instead name a destination address space: ``dst_asid >= 0`` marks the
    entry virtual and ``dst_page`` becomes a virtual page number in that
    ASID, translated by the receiving node's IOMMU at delivery time.
    """

    dst_node: int
    dst_page: int
    #: destination address-space id; -1 (the default) keeps the entry
    #: physical, exactly the paper's NIPT
    dst_asid: int = -1

    @property
    def virtual(self) -> bool:
        """True when this entry names a virtual page (IOMMU tier)."""
        return self.dst_asid >= 0


class NetworkInterfacePageTable(SnapshotMixin):
    """A direct-indexed table of remote destinations."""

    def __init__(self, num_entries: int = DEFAULT_NIPT_ENTRIES) -> None:
        if num_entries <= 0:
            raise ConfigurationError(
                f"NIPT needs a positive entry count, got {num_entries}"
            )
        self.num_entries = num_entries
        self._entries: Dict[int, NiptEntry] = {}
        #: bumped on every OS-side mutation; the send fast lane caches
        #: per-channel lookups keyed on this, so a remap or eviction
        #: invalidates every cached plan in O(1)
        self.generation = 0
        #: host-side observers of OS mutations (protection backends mint
        #: and revoke send capabilities from these); called with
        #: ``(index, installed)`` after the table has been updated
        self._listeners: List[Callable[[int, bool], None]] = []

    def add_listener(self, listener: Callable[[int, bool], None]) -> None:
        """Subscribe to set/clear events (host-side, costs nothing)."""
        self._listeners.append(listener)

    def set_entry(
        self, index: int, dst_node: int, dst_page: int, dst_asid: int = -1
    ) -> None:
        """OS-side: install a destination mapping.

        ``dst_asid >= 0`` installs a *virtual* entry (the IOMMU tier):
        ``dst_page`` is then a virtual page in that remote address space.
        """
        self._check_index(index)
        if dst_node < 0 or dst_page < 0:
            raise ConfigurationError(
                f"NIPT entry must name a real destination, got node {dst_node} "
                f"page {dst_page}"
            )
        self._entries[index] = NiptEntry(dst_node, dst_page, dst_asid)
        self.generation += 1
        for listener in self._listeners:
            listener(index, True)

    def clear_entry(self, index: int) -> None:
        """OS-side: invalidate a destination mapping."""
        self._check_index(index)
        removed = self._entries.pop(index, None)
        self.generation += 1
        if removed is not None:
            for listener in self._listeners:
                listener(index, False)

    def lookup(self, index: int) -> Optional[NiptEntry]:
        """Hardware-side: fetch the destination, or None if invalid."""
        self._check_index(index)
        return self._entries.get(index)

    def require(self, index: int) -> NiptEntry:
        """Hardware-side lookup that treats an invalid entry as an error.

        Only in-range indices are ever installed, so a hit needs no
        range check; a miss is checked before it is reported.
        """
        entry = self._entries.get(index)
        if entry is None:
            self._check_index(index)
            raise NetworkError(f"NIPT entry {index} is invalid")
        return entry

    @property
    def valid_entries(self) -> int:
        """Number of installed entries."""
        return len(self._entries)

    def entries(self) -> Iterable[Tuple[int, NiptEntry]]:
        """Installed entries in index order (inspection / snapshots)."""
        return sorted(self._entries.items())

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.num_entries:
            raise ConfigurationError(
                f"NIPT index {index} out of range [0, {self.num_entries})"
            )
