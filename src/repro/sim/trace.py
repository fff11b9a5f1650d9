"""Structured event tracing.

Components emit :class:`TraceEvent` records through a shared
:class:`Tracer`.  Tracing is off by default (the null tracer discards
everything at near-zero cost); tests and the bench harness attach a
recording tracer to observe hardware-level behaviour -- state-machine
transitions, packets on the wire, page faults -- without poking at
internals.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TraceEvent:
    """One traced occurrence.

    Attributes:
        time: cycle timestamp.
        source: emitting component (e.g. ``"udma"``, ``"nic0"``, ``"kernel"``).
        kind: event name (e.g. ``"state"``, ``"packet-tx"``, ``"page-fault"``).
        detail: free-form payload fields.
    """

    time: int
    source: str
    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        fields = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time:>10}] {self.source}.{self.kind} {fields}".rstrip()


class Tracer:
    """Collects trace events and dispatches them to subscribers.

    With ``record=False`` and no subscribers, :meth:`emit` is a cheap no-op
    apart from building the call; the hot paths therefore guard emission
    with :attr:`enabled`.  ``enabled`` is a plain precomputed attribute
    (not a property) so those guards cost one attribute load on the
    simulator's hottest paths; it is kept in sync by the ``record`` setter
    and :meth:`subscribe`.
    """

    def __init__(self, record: bool = False) -> None:
        self.events: List[TraceEvent] = []
        self._subscribers: List[Callable[[TraceEvent], None]] = []
        self._record = record
        #: True when emitting would have any observable effect (read-only;
        #: derived from ``record`` and the subscriber list)
        self.enabled = record
        #: subscriber exceptions swallowed (observers must never be able
        #: to crash the simulation step that emitted the event)
        self.subscriber_errors = 0

    @property
    def record(self) -> bool:
        """Whether emitted events are kept in :attr:`events`."""
        return self._record

    @record.setter
    def record(self, value: bool) -> None:
        self._record = value
        self._refresh_enabled()

    def subscribe(self, handler: Callable[[TraceEvent], None]) -> None:
        """Add a live handler invoked for every emitted event."""
        self._subscribers.append(handler)
        self._refresh_enabled()

    def _refresh_enabled(self) -> None:
        self.enabled = self._record or bool(self._subscribers)

    def emit(self, time: int, source: str, kind: str, **detail: Any) -> None:
        """Record and dispatch one event (no-op when disabled)."""
        if not self.enabled:
            return
        event = TraceEvent(time, source, kind, detail)
        if self.record:
            self.events.append(event)
        for handler in self._subscribers:
            # Observers are isolated: a broken handler must not propagate
            # into (and desync) the simulation step that emitted the event.
            try:
                handler(event)
            except Exception:
                self.subscriber_errors += 1
                _log.exception(
                    "trace subscriber %r raised on %s.%s", handler, source, kind
                )

    # -------------------------------------------------------- snapshotting
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # Subscribers are external observers (test harnesses, exporters);
        # a snapshot captures the machine, not its audience.  Dropping
        # them also drops ``enabled`` back to the record flag alone.
        state["_subscribers"] = []
        state["enabled"] = state["_record"]
        return state

    def __reduce_ex__(self, protocol: int):
        # The process-wide null tracer must restore to the *same* object:
        # components compare it by identity, and duplicating it would give
        # a restored machine a private, orphaned default tracer.
        if self is NULL_TRACER:
            return (_null_tracer, ())
        return super().__reduce_ex__(protocol)

    # ------------------------------------------------------------ querying
    def of_kind(self, kind: str) -> List[TraceEvent]:
        """All recorded events with the given kind."""
        return [e for e in self.events if e.kind == kind]

    def from_source(self, source: str) -> List[TraceEvent]:
        """All recorded events emitted by the given source."""
        return [e for e in self.events if e.source == source]

    def clear(self) -> None:
        """Drop all recorded events."""
        self.events.clear()

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


#: A process-wide tracer that drops everything; components use it as the
#: default so callers never need to pass a tracer explicitly.
NULL_TRACER = Tracer(record=False)


def _null_tracer() -> Tracer:
    """Pickle target restoring the module-level null tracer by identity."""
    return NULL_TRACER
