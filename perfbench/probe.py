"""Host-speed probe: how fast this CPU runs interpreter-bound Python right now.

The benchmark's host is a shared virtual machine whose speed drifts by
tens of percent over minutes, while a 20-second run sees only one phase
of that drift.  A short probe run just before each repeat, on the same
core, tracks the drift: the ratio of a repeat's rate to the probe's rate
stays steady where the raw rate does not.  The end-to-end host metrics
are scaled by ``REFERENCE_RATE / probe rate``, that is, to a host that
runs the probe at :data:`REFERENCE_RATE` loops per second.

The probe never imports the simulator, so a change to ``src/`` cannot
move it; change this file and every recorded host metric must be
re-recorded.
"""

from __future__ import annotations

import heapq
import time

#: probe loops per second that the scaled host metrics are expressed at
#: (about the median of the host the baseline was recorded on)
REFERENCE_RATE = 25.0


class _Node:
    __slots__ = ("key", "value", "hits")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value
        self.hits = 0

    def touch(self, n: int) -> int:
        self.hits += n
        return self.hits


def _loop(n: int = 20_000) -> int:
    """Method calls, attributes, dict lookups, a heap and small copies."""
    heap: list = []
    table: dict = {}
    buf = bytearray(4096)
    src = bytes(range(256)) * 2
    acc = 0
    for i in range(n):
        node = table.get(i & 511)
        if node is None:
            node = table[i & 511] = _Node(i & 511, i)
        acc += node.touch(1)
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        off = (i * 64) & 4095
        buf[off:off + 64] = src[:64]
    return acc


def probe_rate(seconds: float = 0.2) -> float:
    """Probe loops per second, measured over at least ``seconds``."""
    loops = 0
    t0 = time.perf_counter()
    while True:
        _loop()
        loops += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return loops / elapsed
