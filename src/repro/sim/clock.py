"""The global cycle clock and discrete-event queue.

Every component of a simulated machine shares one :class:`Clock`.  The CPU
*charges* cycles for the instructions it executes (`advance`), while
asynchronous hardware (DMA engines, NICs, disks, the interconnect) schedules
completion callbacks at absolute cycle times (`schedule`).  Whenever the
clock advances past an event's due time, the event fires.

Time is kept in integer cycles.  Fractional byte/cycle rates are rounded up
when converted to durations, which models the bus clocking the last partial
burst.

The queue is one binary heap whose entries are the :class:`Event` handles
themselves: each is a ``list`` ``[time, key, seq, callback, clock]``,
``key`` being ``()`` for every plain event and an arrival key on the
sharded kernel's :class:`ShardClock`.  Heap order is therefore a C list
compare on ``(time, key, seq)`` with no Python ``__lt__`` call; ``seq`` is
unique, so a compare never reaches the callback.  A handle is never
reused, so a stale ``cancel()`` through a retained reference can only hit
its own (fired or cancelled) event, where it is a no-op.

The queue is scan-free on the hot path: a live-event counter makes
:meth:`Clock.pending` O(1), cancellation clears the callback slot at once
(so closed-over buffers are reclaimable before the tombstone is popped),
and the heap compacts itself when tombstones outnumber live events.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationLimitError
from repro.snapshot.protocol import SnapshotMixin

#: Compaction fires when ``len(queue) > 2 * live + COMPACT_SLACK``: the
#: slack keeps tiny queues from compacting on every cancel.
COMPACT_SLACK = 64


class Event(list):
    """One scheduled callback, and its own queue entry.

    The handle is the list ``[time, key, seq, callback, clock]`` that the
    clock's heap holds, so scheduling builds it without a Python-level
    ``__init__`` and heap sifts are C list compares.  The callback slot
    is cleared when the event fires or is cancelled; a cleared slot in
    the queue is a tombstone.
    """

    __slots__ = ()

    @property
    def callback(self) -> Optional[Callable[[], None]]:
        """The pending callback; None once fired or cancelled."""
        return self[3]

    def cancel(self) -> None:
        """Prevent the event from firing.

        The tombstone stays in the queue until popped or compacted, but
        the callback reference (and anything it closes over -- staging
        buffers, endpoints) is released *now*, so a cancelled transfer
        does not pin its buffers until the due time passes.  Cancelling
        an already-fired or already-cancelled event is a no-op.
        """
        if self[3] is None:
            return
        self[3] = None
        self[4]._on_cancel()


class Clock(SnapshotMixin):
    """A shared cycle counter with an event queue.

    The clock never runs backwards.  Events scheduled for a time that has
    already passed fire on the next :meth:`advance` / :meth:`run` call.
    """

    def __init__(self) -> None:
        #: the current time in cycles; a plain attribute that only the
        #: clock itself writes
        self.now = 0
        self._queue: List[Event] = []
        self._seq = itertools.count()
        self._live = 0  # exact count of scheduled-but-unfired, uncancelled
        #: total events fired over the clock's lifetime (host-perf metric;
        #: the bench harness reports events/second against it)
        self.events_fired = 0
        #: optional auditing hook invoked after every fired event (the
        #: chaos harness's continuous invariant auditor); None keeps the
        #: hot path a single attribute check
        self.audit_hook: Optional[Callable[[], None]] = None

    # ---------------------------------------------------------- snapshotting
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # The audit hook is an observer owned by whoever installed it
        # (the chaos InvariantAuditor); pickling it would drag the whole
        # auditor -- and its captured log -- into every snapshot.  It is
        # dropped here and re-installed by the owner after restore.
        state["audit_hook"] = None
        return state

    # ------------------------------------------------------------- reading
    def pending(self) -> int:
        """Number of live (uncancelled) events still queued.  O(1)."""
        return self._live

    def next_event_time(self) -> Optional[int]:
        """Due time of the earliest live event, or None if the queue is idle."""
        head = self._peek()
        return None if head is None else head[0]

    # ---------------------------------------------------------- scheduling
    def schedule(self, delay: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to fire ``delay`` cycles from now.

        A zero delay fires as soon as time next moves (or on :meth:`run`).
        Negative delays are configuration errors.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule an event {delay} cycles in the past")
        event = Event((self.now + delay, (), next(self._seq), callback, self))
        heapq.heappush(self._queue, event)
        self._live += 1
        return event

    def schedule_at(self, time: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute cycle ``time`` (>= now)."""
        return self.schedule(time - self.now, callback)

    # ------------------------------------------------------------- running
    def advance(self, cycles: int) -> None:
        """Charge ``cycles`` of CPU work, firing any events that come due.

        This is how the simulated CPU consumes time: events interleave with
        instruction execution at cycle granularity.
        """
        if cycles < 0:
            raise ValueError(f"cannot advance time by {cycles} cycles")
        target = self.now + cycles
        if self._live and self._queue[0][0] <= target:
            self._fire_until(target)
        self.now = target

    def run(self, until: Optional[int] = None) -> None:
        """Fire queued events until the queue drains (or ``until`` is hit).

        Used when the CPU is idle (e.g. a process blocked on I/O) and the
        simulation should coast forward on device activity alone.  When
        nothing is due by ``until``, time just moves there.
        """
        if until is None:
            self._fire_until(math.inf)
            return
        queue = self._queue
        if queue and queue[0][0] <= until:
            self._fire_until(until)
        if until > self.now:
            self.now = until

    def run_until_idle(self, max_events: int = 1_000_000) -> None:
        """Drain every queued event (events may schedule further events).

        ``max_events`` guards against a component that reschedules itself
        forever.  On exhaustion the guard trips *before* firing event
        ``max_events + 1`` and raises :class:`SimulationLimitError` with
        the stop point; the unfired event stays queued, so
        :meth:`pending` / :meth:`next_event_time` remain consistent and
        the caller can inspect (or keep draining) the survivors.
        """
        start = self.events_fired
        self._fire_until(math.inf, max_events)
        head = self._peek()
        if head is not None:
            raise SimulationLimitError(
                limit=max_events,
                fired=self.events_fired - start,
                pending=self._live,
                now=self.now,
                next_event_time=head[0],
            )

    # ------------------------------------------------------------ internal
    def _peek(self) -> Optional[Event]:
        """Earliest live entry, without popping it (skims tombstones)."""
        queue = self._queue
        while queue and queue[0][3] is None:
            heapq.heappop(queue)
        return queue[0] if queue else None

    def _fire_until(self, target: float, limit: int = -1) -> None:
        """Fire every live entry due at or before ``target``, in order.

        The one firing loop behind :meth:`advance`, :meth:`run`,
        :meth:`run_until_idle` and :meth:`ShardClock.fire_next`; it stops
        early after ``limit`` events when ``limit`` is not negative.  A
        fired entry's callback slot is cleared before the callback runs,
        so a later ``cancel()`` through its handle is a no-op.
        """
        queue = self._queue
        pop = heapq.heappop
        while queue and limit:
            entry = queue[0]
            callback = entry[3]
            if callback is None:
                pop(queue)  # tombstone
                continue
            time = entry[0]
            if time > target:
                return
            pop(queue)
            entry[3] = None
            limit -= 1
            self._live -= 1
            self.events_fired += 1
            if time > self.now:
                self.now = time
            callback()
            hook = self.audit_hook
            if hook is not None:
                hook()

    def _on_cancel(self) -> None:
        self._live -= 1
        if len(self._queue) > 2 * self._live + COMPACT_SLACK:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without tombstones.

        In place (``[:]``) so iterators holding the list object -- the
        localised hot loops above -- stay valid if a callback's cancel
        triggers compaction mid-drain.
        """
        self._queue[:] = [e for e in self._queue if e[3] is not None]
        heapq.heapify(self._queue)


class ShardClock(Clock):
    """A per-node clock driven by a shard engine instead of by itself.

    In the sharded kernel every node owns one ShardClock.  Two rules make
    the execution order a pure function of the workload (and therefore
    bit-identical across shard counts and across the in-process /
    worker-process engines):

    1. **Charging never fires.**  :meth:`advance` only moves ``now``; the
       engine fires events explicitly, between workload steps, in
       canonical ``(time, key, seq)`` order.  Conservative-PDES bounds can
       then only *delay* an event, never reorder it relative to the
       node's other work.
    2. **Arrivals are keyed.**  Cross-node deliveries are scheduled with
       :meth:`schedule_keyed` carrying ``(1, src_node, channel_seq)``, so
       same-cycle arrivals sort after local hardware events (empty key)
       and in a source order independent of delivery interleaving.

    ``run`` / ``run_until_idle`` raise: any component that coasts the
    clock itself would fire events outside engine control and silently
    break the determinism contract, so misuse fails loudly.
    """

    def advance(self, cycles: int) -> None:
        """Charge CPU cycles without firing events (engine fires them)."""
        if cycles < 0:
            raise ValueError(f"cannot advance time by {cycles} cycles")
        self.now += cycles

    def run(self, until: Optional[int] = None) -> None:
        raise ConfigurationError(
            "ShardClock is engine-driven: components must not coast the "
            "clock (got run()); sharded workloads must use non-blocking "
            "initiations"
        )

    def run_until_idle(self, max_events: int = 1_000_000) -> None:
        raise ConfigurationError(
            "ShardClock is engine-driven: use the shard engine to drain "
            "events, not run_until_idle()"
        )

    # -------------------------------------------------------- engine API
    def schedule_keyed(
        self, time: int, key: Tuple, callback: Callable[[], None]
    ) -> Event:
        """Schedule at absolute ``time`` with an explicit ordering key.

        Unlike :meth:`schedule_at` this permits ``time <= now``: a
        cross-shard arrival may be ingested after the receiving node's
        clock has already charged past the wire arrival cycle; it still
        sorts (and fires) at its true arrival time.
        """
        event = Event((time, key, next(self._seq), callback, self))
        heapq.heappush(self._queue, event)
        self._live += 1
        return event

    def next_op(self) -> Optional[Tuple[int, Tuple]]:
        """(time, key) of the earliest live event, or None if idle."""
        head = self._peek()
        if head is None:
            return None
        return (head[0], head[1])

    def fire_next(self) -> int:
        """Pop and fire the earliest live event; returns its due time."""
        head = self._peek()
        if head is None:
            raise ConfigurationError("fire_next() on an idle ShardClock")
        time = head[0]
        self._fire_until(time, 1)
        return time


def transfer_cycles(nbytes: int, bytes_per_cycle: float) -> int:
    """Cycles to move ``nbytes`` at ``bytes_per_cycle``, rounded up.

    The round-up models the bus clocking the last partial burst.
    Zero-byte transfers take zero cycles.
    """
    if nbytes < 0:
        raise ValueError(f"cannot transfer {nbytes} bytes")
    if nbytes == 0:
        return 0
    if bytes_per_cycle <= 0:
        raise ValueError(f"bytes_per_cycle must be positive, got {bytes_per_cycle}")
    return int(math.ceil(nbytes / bytes_per_cycle))
