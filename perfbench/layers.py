"""Per-layer measurement for the benchmark's traced pass.

A layer is a ``repro`` package (``net`` is split by module, because the
NIC, FIFOs, interconnect, pools and NIPT are separate layers of the
modelled hardware).  Two instruments read the layers, each in a pass of
its own so that neither distorts the other:

* :class:`SpanTracer` wraps the public entry points listed in
  :data:`SPAN_POINTS` at run time.  Each wrapper keeps a span on a stack
  (start, end, and its parent, the frame below it) and, when the span
  ends, adds its duration minus its child spans' time to the entry
  point's *self time*.  A run makes millions of spans, so they are
  aggregated as they close instead of being stored.  Code that is not
  an entry point -- private helpers and the event callbacks the clock
  fires -- counts toward the nearest wrapped ancestor.
* :class:`CallCounter` runs :mod:`cProfile` and aggregates Python calls
  by the ``repro/<pkg>`` file their code lives in.  For a deterministic
  simulation the counts repeat exactly.  A few counting wrappers on the
  same entry points count what the profile cannot see: bytes copied, and
  sends that never reached ``UdmaUser.initiate``.

Both instruments measure only the *window*: the inside of
``TrafficEngine.run`` or ``InProcessEngine.run``, minus
``TenantPlacement.build`` (cluster set-up that ``TrafficEngine.run``
performs before its pump starts).
"""

from __future__ import annotations

import cProfile
import gc
import importlib
import os
import time
from typing import Callable, Dict, List, Tuple

#: (module, class, method, layer) of every wrapped entry point
SPAN_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.traffic.tenants", "TenantPlacement", "churn", "traffic"),
    ("repro.sim.clock", "Clock", "run", "sim"),
    ("repro.sim.clock", "Clock", "run_until_idle", "sim"),
    ("repro.sim.clock", "Clock", "advance", "sim"),
    ("repro.sim.clock", "Clock", "schedule", "sim"),
    ("repro.sim.clock", "ShardClock", "advance", "sim"),
    ("repro.sim.clock", "ShardClock", "schedule_keyed", "sim"),
    ("repro.sim.clock", "ShardClock", "fire_next", "sim"),
    ("repro.userlib.messaging", "Sender", "try_send", "userlib"),
    ("repro.userlib.udma", "UdmaUser", "initiate", "userlib"),
    ("repro.core.controller", "UdmaController", "io_store", "core"),
    ("repro.core.controller", "UdmaController", "io_load", "core"),
    ("repro.cpu.cpu", "CPU", "load", "cpu"),
    ("repro.cpu.cpu", "CPU", "store", "cpu"),
    ("repro.cpu.cpu", "CPU", "set_context", "cpu"),
    ("repro.vm.mmu", "MMU", "translate", "vm"),
    ("repro.kernel.scheduler", "Scheduler", "switch_to", "kernel"),
    ("repro.dma.engine", "DmaEngine", "start", "dma"),
    ("repro.net.nic", "ShrimpNic", "dma_write", "net.nic"),
    ("repro.net.nic", "ShrimpNic", "deliver", "net.nic"),
    ("repro.net.interconnect", "Interconnect", "route", "net.interconnect"),
    ("repro.net.fifo", "BoundedFifo", "push", "net.fifo"),
    ("repro.net.fifo", "BoundedFifo", "pop", "net.fifo"),
    ("repro.net.pool", "PacketPool", "acquire", "net.pool"),
    ("repro.net.pool", "PacketPool", "release", "net.pool"),
    ("repro.mem.physmem", "PhysicalMemory", "read", "mem"),
    ("repro.mem.physmem", "PhysicalMemory", "write", "mem"),
    ("repro.mem.physmem", "PhysicalMemory", "readinto", "mem"),
    ("repro.net.nipt", "NetworkInterfacePageTable", "set_entry", "net.nipt"),
    ("repro.net.nipt", "NetworkInterfacePageTable", "clear_entry", "net.nipt"),
    ("repro.sharding.shard", "Shard", "run_until_blocked", "sharding"),
)

#: the calls whose inside is the measured window, with their layer
WINDOWS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.traffic.engine", "TrafficEngine", "run", "traffic"),
    ("repro.sharding.engine", "InProcessEngine", "run", "sharding"),
)

#: set-up work a window performs before its per-message work starts
PAUSES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.traffic.tenants", "TenantPlacement", "build"),
)

#: every layer the tables report, in report order
LAYERS: Tuple[str, ...] = (
    "traffic", "sim", "userlib", "core", "cpu", "vm", "kernel", "dma",
    "net.nic", "net.interconnect", "net.fifo", "net.pool", "net.nipt",
    "mem", "sharding",
)


def layer_of_file(filename: str) -> str:
    """The layer a source file belongs to, or ``""`` outside ``repro``."""
    parts = filename.replace(os.sep, "/").split("/")
    try:
        at = len(parts) - 1 - parts[::-1].index("repro")
    except ValueError:
        return ""
    rest = parts[at + 1:]
    if len(rest) < 2:
        return "repro"  # a top-level module such as cluster.py
    if rest[0] == "net":
        return "net." + rest[1].rsplit(".", 1)[0]
    return rest[0]


def _attr(module: str, cls: str, method: str):
    klass = getattr(importlib.import_module(module), cls)
    if method not in klass.__dict__:
        raise AttributeError(f"{cls}.{method} is not defined on {cls} itself")
    return klass, klass.__dict__[method]


class _Patches:
    """Class attributes replaced for one pass, restored on exit."""

    def __init__(self) -> None:
        self._undo: List[Tuple[type, str, object]] = []

    def replace(self, klass: type, name: str, wrapper: Callable) -> None:
        self._undo.append((klass, name, klass.__dict__[name]))
        setattr(klass, name, wrapper)

    def restore(self) -> None:
        while self._undo:
            klass, name, original = self._undo.pop()
            setattr(klass, name, original)


class SpanTracer:
    """Self time per entry point inside the window, from stacked spans.

    Use as a context manager around the runs to trace; read
    :meth:`layer_self_seconds` and :attr:`window_seconds` after.
    """

    def __init__(self) -> None:
        self.points = SPAN_POINTS + WINDOWS
        self.self_seconds = [0.0] * len(self.points)
        self.inclusive_seconds = [0.0] * len(self.points)
        self.window_seconds = 0.0
        self._patches = _Patches()

    def __enter__(self) -> "SpanTracer":
        active = [False]
        paused = [0.0]
        stack: List[float] = []
        now = time.perf_counter
        self_s, incl_s = self.self_seconds, self.inclusive_seconds
        tracer = self

        def span(fn, i):
            def wrapper(*args, **kwargs):
                if not active[0]:
                    return fn(*args, **kwargs)
                stack.append(0.0)
                t0 = now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = now() - t0
                    self_s[i] += dt - stack.pop()
                    incl_s[i] += dt
                    stack[-1] += dt
            return wrapper

        def window(fn, i):
            def wrapper(*args, **kwargs):
                active[0] = True
                paused[0] = 0.0
                stack.append(0.0)
                t0 = now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = now() - t0 - paused[0]
                    active[0] = False
                    self_s[i] += dt - stack.pop()
                    incl_s[i] += dt
                    tracer.window_seconds += dt
            return wrapper

        def pause(fn):
            def wrapper(*args, **kwargs):
                if not active[0]:
                    return fn(*args, **kwargs)
                active[0] = False
                t0 = now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    active[0] = True
                    # Set-up runs directly under the window; its time
                    # leaves the window instead of counting as self time.
                    paused[0] += now() - t0
            return wrapper

        n_spans = len(SPAN_POINTS)
        for i, (module, cls, method, _layer) in enumerate(self.points):
            klass, fn = _attr(module, cls, method)
            make = span(fn, i) if i < n_spans else window(fn, i)
            self._patches.replace(klass, method, make)
        for module, cls, method in PAUSES:
            klass, fn = _attr(module, cls, method)
            self._patches.replace(klass, method, pause(fn))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def layer_self_seconds(self) -> Dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for (_m, _c, _f, layer), seconds in zip(self.points, self.self_seconds):
            out[layer] += seconds
        return out

    def inclusive(self, cls: str, method: str) -> float:
        for (_m, c, f, _layer), seconds in zip(self.points, self.inclusive_seconds):
            if (c, f) == (cls, method):
                return seconds
        raise KeyError(f"{cls}.{method}")


class CallCounter:
    """Python calls per layer inside the window, plus work counters.

    ``function_calls`` maps ``"<path under repro/>:<name>"`` to its call
    count; ``layer_calls`` sums them per layer.  Counters: ``accepted_sends``,
    ``fast_sends`` (accepted without reaching ``UdmaUser.initiate``) and
    ``bytes_copied`` (through ``PhysicalMemory.read``/``write``/
    ``readinto`` and the packet snapshot in ``PacketPool.acquire``).
    """

    def __init__(self) -> None:
        self.function_calls: Dict[Tuple[str, str], int] = {}
        self.layer_calls: Dict[str, int] = {}
        self.accepted_sends = 0
        self.fast_sends = 0
        self.initiations = 0
        self.bytes_copied = 0
        self._profile = cProfile.Profile()
        self._patches = _Patches()
        self._gc_was_enabled = False

    def __enter__(self) -> "CallCounter":
        active = [False]
        profile = self._profile
        counter = self

        def window(fn):
            def wrapper(*args, **kwargs):
                active[0] = True
                profile.enable()
                try:
                    return fn(*args, **kwargs)
                finally:
                    profile.disable()
                    active[0] = False
            return wrapper

        def pause(fn):
            def wrapper(*args, **kwargs):
                if not active[0]:
                    return fn(*args, **kwargs)
                profile.disable()
                active[0] = False
                try:
                    return fn(*args, **kwargs)
                finally:
                    active[0] = True
                    profile.enable()
            return wrapper

        def try_send(fn):
            def wrapper(*args, **kwargs):
                before = counter.initiations
                ok = fn(*args, **kwargs)
                if ok and active[0]:
                    counter.accepted_sends += 1
                    if counter.initiations == before:
                        counter.fast_sends += 1
                return ok
            return wrapper

        def initiate(fn):
            def wrapper(*args, **kwargs):
                counter.initiations += 1
                return fn(*args, **kwargs)
            return wrapper

        def copies(fn, size):
            def wrapper(*args, **kwargs):
                if active[0]:
                    counter.bytes_copied += size(*args, **kwargs)
                return fn(*args, **kwargs)
            return wrapper

        counting = {
            ("repro.userlib.messaging", "Sender", "try_send"): try_send,
            ("repro.userlib.udma", "UdmaUser", "initiate"): initiate,
            ("repro.mem.physmem", "PhysicalMemory", "read"):
                lambda fn: copies(fn, lambda self, paddr, nbytes: nbytes),
            ("repro.mem.physmem", "PhysicalMemory", "write"):
                lambda fn: copies(fn, lambda self, paddr, data: len(data)),
            ("repro.mem.physmem", "PhysicalMemory", "readinto"):
                lambda fn: copies(fn, lambda self, paddr, buf: memoryview(buf).nbytes),
            ("repro.net.pool", "PacketPool", "acquire"):
                lambda fn: copies(fn, lambda self, src, dst, paddr, data, seq: len(data)),
        }
        for (module, cls, method), make in counting.items():
            klass, fn = _attr(module, cls, method)
            self._patches.replace(klass, method, make(fn))
        for module, cls, method, _layer in WINDOWS:
            klass, fn = _attr(module, cls, method)
            self._patches.replace(klass, method, window(fn))
        for module, cls, method in PAUSES:
            klass, fn = _attr(module, cls, method)
            self._patches.replace(klass, method, pause(fn))
        # A collection may run finalisers at a different point each run;
        # with the collector off the call counts repeat exactly.
        gc.collect()
        self._gc_was_enabled = gc.isenabled()
        gc.disable()
        return self

    def __exit__(self, *exc) -> None:
        if self._gc_was_enabled:
            gc.enable()
        self._patches.restore()
        self._profile.create_stats()
        for (filename, _line, name), row in self._profile.stats.items():
            layer = layer_of_file(filename)
            if not layer:
                continue
            path = filename.replace(os.sep, "/")
            key = path[path.rindex("/repro/") + len("/repro/"):] + ":" + name
            self.function_calls[key] = self.function_calls.get(key, 0) + row[1]
            self.layer_calls[layer] = self.layer_calls.get(layer, 0) + row[1]

    def calls_of(self, function: str) -> int:
        """Calls of ``"<path under repro/>:<name>"``, e.g. ``"vm/mmu.py:translate"``."""
        return self.function_calls.get(function, 0)
