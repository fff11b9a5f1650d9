"""Golden fire order: the time and callback of every event a run fires.

Fingerprints and the differential tests compare totals and end states.
This test pins the whole event sequence instead: a recorder wraps the
cluster clock's public ``schedule``/``schedule_at`` so each callback,
when it fires, appends ``(clock.now, callback qualname)``; the sha256 of
that sequence must equal the digest recorded before the clock became
one heap of event lists.  A change that keeps the totals but reorders
two events, or moves one by a cycle, fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from tests.traffic.test_pump_groups import SCENARIOS, build_engine


class _Recorded:
    """A scheduled callback that notes its firing before it runs."""

    __slots__ = ("log", "clock", "callback")

    def __init__(self, log: list, clock, callback) -> None:
        self.log = log
        self.clock = clock
        self.callback = callback

    def __call__(self) -> None:
        target = getattr(self.callback, "func", self.callback)  # partials
        self.log.append(f"{self.clock.now} {target.__qualname__}")
        self.callback()


def record_fire_order(clock) -> list:
    """Wrap ``clock.schedule``/``schedule_at``; returns the live log."""
    log: list = []
    schedule, schedule_at = clock.schedule, clock.schedule_at

    def wrap(callback):
        # schedule_at may route through schedule: wrap each callback once.
        if isinstance(callback, _Recorded):
            return callback
        return _Recorded(log, clock, callback)

    clock.schedule = lambda delay, callback: schedule(delay, wrap(callback))
    clock.schedule_at = lambda time, callback: schedule_at(time, wrap(callback))
    return log


#: name -> (engine builder, sha256 of the fire-order log, events fired)
GOLDEN = {
    "saturating_incast": (
        lambda mp: build_engine(mp, **SCENARIOS["saturating_incast"]),
        "49089d834c66e9a656297fb4b7b969ac3b71f36eeb1dba4734339cd658ebb9fb",
        1600,
    ),
    "all_to_all": (
        # fifo_bytes is the NIC's default: this run never fills a FIFO.
        lambda mp: build_engine(
            mp, pattern="all_to_all", num_nodes=6, messages=300, seed=7,
            gap_cycles=4000, fifo_bytes=1 << 20,
        ),
        "282a2d3c8a51ebd8534b5ec9d1d8ec8f4b8e42b95f03a254ad65963fb6025db3",
        1200,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fire_order_matches_golden(monkeypatch, name):
    build, digest, events = GOLDEN[name]
    engine = build(monkeypatch)
    log = record_fire_order(engine.cluster.clock)
    result = engine.run()
    assert result.delivered == result.messages
    assert len(log) == result.events == events
    got = hashlib.sha256("\n".join(log).encode()).hexdigest()
    assert got == digest
