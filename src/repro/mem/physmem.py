"""Byte-addressable physical memory.

A :class:`PhysicalMemory` is a flat buffer of frames.  All data that
"really exists" in a simulated node lives here; DMA engines, the CPU (via
the MMU) and the receive side of the NIC all read and write through this
object, so tests can verify end-to-end data movement byte for byte.

The zero-copy data plane hands out :class:`memoryview` windows via
:meth:`PhysicalMemory.view`; all internal byte/word/frame I/O routes
through one long-lived view of the backing buffer, so a ``read`` costs one
copy and a ``write`` from any buffer-protocol object (bytes, bytearray,
another node's view) costs exactly one copy into RAM.  See
``docs/PERFORMANCE.md`` for the ownership rules a view borrower must obey.

The buffer is anonymous ``mmap`` memory whose pages the host zero-fills on
first touch, so building a node costs no zero-filling and untouched frames
cost no resident memory.  It is mapped ``MAP_PRIVATE``: with ``fileno=-1``
Python defaults to ``MAP_SHARED``, and a forked worker process would then
write into its parent's RAM.
"""

from __future__ import annotations

import mmap

from repro.errors import AddressError
from repro.params import DEFAULT_PAGE_SIZE, WORD_SIZE
from repro.snapshot.protocol import SnapshotMixin


class PhysicalMemory(SnapshotMixin):
    """Main memory of one node.

    Args:
        size: total bytes of RAM; must be a positive multiple of ``page_size``.
        page_size: frame size in bytes (power of two).
    """

    def __init__(self, size: int, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError(f"page_size must be a power of two, got {page_size}")
        if size <= 0 or size % page_size:
            raise ValueError(
                f"memory size {size} must be a positive multiple of the "
                f"page size {page_size}"
            )
        self.size = size
        self.page_size = page_size
        self._map()

    @property
    def num_frames(self) -> int:
        """Number of physical frames."""
        return self.size // self.page_size

    # -------------------------------------------------------- snapshotting
    def __getstate__(self) -> dict:
        # Neither mmaps nor memoryviews pickle: RAM travels as a
        # bytearray and is mapped afresh on restore.
        state = self.__dict__.copy()
        del state["_mv"]
        state["_data"] = bytearray(self._data)
        return state

    def __setstate__(self, state: dict) -> None:
        data = state.pop("_data")
        self.__dict__.update(state)
        self._map()
        # Copy back only the non-zero pages, so a restored or forked
        # machine stays as small as the one it was taken from.
        page = self.page_size
        zero = bytes(page)
        src = memoryview(data)
        for base in range(0, self.size, page):
            if not data.startswith(zero, base):
                self._mv[base : base + page] = src[base : base + page]

    def _map(self) -> None:
        self._data = mmap.mmap(-1, self.size, flags=mmap.MAP_PRIVATE)
        # One long-lived writable view; slicing it is allocation-light and
        # never copies the underlying RAM.
        self._mv = memoryview(self._data)

    # -------------------------------------------------------- zero-copy I/O
    def view(self, paddr: int, nbytes: int) -> memoryview:
        """A writable :class:`memoryview` window onto RAM.

        The view *aliases* memory: writes through it are visible to every
        later read, with no copy in either direction.  Borrowers must
        treat it as a loan -- consume it inside the call that received it
        (or copy), never retain it across simulated time (see
        ``docs/PERFORMANCE.md``).
        """
        self._check_range(paddr, nbytes)
        return self._mv[paddr : paddr + nbytes]

    # ------------------------------------------------------------ byte I/O
    def read(self, paddr: int, nbytes: int) -> bytes:
        """Read ``nbytes`` starting at physical address ``paddr`` (one copy)."""
        self._check_range(paddr, nbytes)
        return bytes(self._mv[paddr : paddr + nbytes])

    def readinto(self, paddr: int, buf: "bytearray | memoryview") -> int:
        """Fill a caller-supplied writable buffer from RAM (one copy).

        The receive-side twin of :meth:`write`: callers that own a
        reusable buffer (``CPU.read_into``, snapshot capture) avoid the
        intermediate ``bytes`` object :meth:`read` would allocate.
        Returns the number of bytes copied (``len(buf)``).
        """
        mv = memoryview(buf)
        nbytes = len(mv)
        self._check_range(paddr, nbytes)
        mv[:] = self._mv[paddr : paddr + nbytes]
        return nbytes

    def write(self, paddr: int, data: "bytes | bytearray | memoryview") -> None:
        """Write ``data`` (any buffer-protocol object) at ``paddr`` (one copy)."""
        end = paddr + len(data)
        if paddr < 0 or end > self.size:
            self._check_range(paddr, len(data))
        self._mv[paddr:end] = data

    # ------------------------------------------------------------ word I/O
    def read_word(self, paddr: int) -> int:
        """Read one little-endian word as an unsigned integer."""
        self._check_range(paddr, WORD_SIZE)
        return int.from_bytes(self._mv[paddr : paddr + WORD_SIZE], "little")

    def write_word(self, paddr: int, value: int) -> None:
        """Write one little-endian word (value taken modulo 2**32)."""
        self.write(paddr, (value % (1 << 32)).to_bytes(WORD_SIZE, "little"))

    # ----------------------------------------------------------- frame I/O
    def frame_base(self, frame: int) -> int:
        """Physical address of the first byte of ``frame``."""
        if not 0 <= frame < self.num_frames:
            raise AddressError(frame * self.page_size, "no such frame")
        return frame * self.page_size

    def frame_view(self, frame: int) -> memoryview:
        """A writable view of an entire frame (same loan rules as :meth:`view`)."""
        return self.view(self.frame_base(frame), self.page_size)

    def read_frame(self, frame: int) -> bytes:
        """Read an entire frame."""
        return self.read(self.frame_base(frame), self.page_size)

    def write_frame(self, frame: int, data: "bytes | bytearray | memoryview") -> None:
        """Overwrite an entire frame (data must be exactly one page)."""
        if len(data) != self.page_size:
            raise ValueError(
                f"frame write must be exactly {self.page_size} bytes, "
                f"got {len(data)}"
            )
        self.write(self.frame_base(frame), data)

    def zero_frame(self, frame: int) -> None:
        """Fill a frame with zero bytes (fresh-page semantics)."""
        base = self.frame_base(frame)
        self._mv[base : base + self.page_size] = bytes(self.page_size)

    # ------------------------------------------------------------ internal
    def _check_range(self, paddr: int, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError(f"negative length {nbytes}")
        if paddr < 0 or paddr + nbytes > self.size:
            raise AddressError(paddr, f"{nbytes}-byte access exceeds RAM size {self.size:#x}")
