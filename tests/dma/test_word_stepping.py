"""Tests for the word-stepping (burst-granular) DMA engine mode."""

import math

import pytest

from repro.devices.sink import SinkDevice
from repro.dma.engine import DeviceEndpoint, DmaEngine, MemoryEndpoint
from repro.mem.physmem import PhysicalMemory
from repro.params import shrimp
from repro.sim.clock import Clock
from repro.config import MachineConfig


@pytest.fixture
def rig():
    clock = Clock()
    costs = shrimp()
    ram = PhysicalMemory(1 << 16)
    engine = DmaEngine(clock, costs, burst_bytes=64)
    sink = SinkDevice(size=1 << 13)
    sink.attach(clock)
    return clock, costs, ram, engine, sink


class TestStepping:
    def test_data_still_arrives_complete(self, rig):
        clock, _, ram, engine, sink = rig
        data = bytes(range(256)) * 4
        ram.write(0x100, data)
        engine.start(MemoryEndpoint(ram, 0x100), DeviceEndpoint(sink, 0), 1024)
        clock.run_until_idle()
        assert sink.peek(0, 1024) == data

    def test_total_duration_matches_analytic_mode(self, rig):
        clock, costs, ram, engine, sink = rig
        analytic = DmaEngine(Clock(), costs)
        expected = analytic.transfer_duration(
            MemoryEndpoint(ram, 0), DeviceEndpoint(sink, 0), 1024
        )
        engine.start(MemoryEndpoint(ram, 0), DeviceEndpoint(sink, 0), 1024)
        clock.run_until_idle()
        assert clock.now == expected

    def test_progress_is_observable_mid_transfer(self, rig):
        clock, costs, ram, engine, sink = rig
        engine.start(MemoryEndpoint(ram, 0), DeviceEndpoint(sink, 0), 1024)
        assert engine.progress_bytes == 0
        duration = engine.transfer_duration(
            MemoryEndpoint(ram, 0), DeviceEndpoint(sink, 0), 1024
        )
        clock.run(until=clock.now + duration // 2)
        assert 0 < engine.progress_bytes < 1024
        clock.run_until_idle()
        assert not engine.busy and engine.progress_bytes is None

    def test_memory_destination_fills_incrementally(self, rig):
        clock, _, ram, engine, sink = rig
        sink.poke(0, b"\xab" * 1024)
        engine.start(DeviceEndpoint(sink, 0), MemoryEndpoint(ram, 0x800), 1024)
        duration = engine.transfer_duration(
            DeviceEndpoint(sink, 0), MemoryEndpoint(ram, 0x800), 1024
        )
        clock.run(until=clock.now + duration // 2)
        written = engine.progress_bytes
        assert 0 < written < 1024
        assert ram.read(0x800, written) == b"\xab" * written  # partial data!
        assert ram.read(0x800 + written, 64) != b"\xab" * 64
        clock.run_until_idle()
        assert ram.read(0x800, 1024) == b"\xab" * 1024

    def test_device_destination_delivered_once(self, rig):
        clock, _, ram, engine, sink = rig
        ram.write(0, b"\x11" * 512)
        engine.start(MemoryEndpoint(ram, 0), DeviceEndpoint(sink, 0), 512)
        clock.run_until_idle()
        assert sink.writes == 1  # staged, not one write per burst

    def test_device_source_read_once(self, rig):
        clock, _, ram, engine, sink = rig
        sink.poke(0, b"\x22" * 512)
        engine.start(DeviceEndpoint(sink, 0), MemoryEndpoint(ram, 0), 512)
        clock.run_until_idle()
        assert sink.reads == 1  # snapshot at start, not per burst

    def test_abort_leaves_partial_memory_writes(self, rig):
        """The fidelity point: abort mid-transfer leaves real debris."""
        clock, _, ram, engine, sink = rig
        sink.poke(0, b"\xcd" * 1024)
        engine.start(DeviceEndpoint(sink, 0), MemoryEndpoint(ram, 0x400), 1024)
        duration = engine.transfer_duration(
            DeviceEndpoint(sink, 0), MemoryEndpoint(ram, 0x400), 1024
        )
        clock.run(until=clock.now + duration // 2)
        delivered = engine.progress_bytes
        engine.abort()
        clock.run_until_idle()
        assert not engine.busy
        assert ram.read(0x400, delivered) == b"\xcd" * delivered
        assert ram.read(0x400 + delivered, 32) == bytes(32)

    def test_abort_after_a_fired_burst_spares_unrelated_events(self, rig):
        """abort() cancels every burst handle, fired ones included; a
        fired burst's handle must not reach an event scheduled later."""
        clock, _, ram, engine, sink = rig
        engine.start(MemoryEndpoint(ram, 0), DeviceEndpoint(sink, 0), 512)
        clock.run(until=clock.next_event_time())  # the first burst fires
        assert engine.progress_bytes == 64
        fired = []
        clock.schedule(10_000, lambda: fired.append(clock.now))
        engine.abort()
        assert clock.pending() == 1
        clock.run_until_idle()
        assert fired == [clock.now]
        assert not engine.busy

    def test_source_mutation_mid_transfer_is_visible(self, rig):
        """Memory sources are read burst by burst, so concurrent writes
        to not-yet-transferred bytes are picked up (as on real hardware
        without pinning-style copy semantics)."""
        clock, _, ram, engine, sink = rig
        ram.write(0, b"\x00" * 1024)
        engine.start(MemoryEndpoint(ram, 0), DeviceEndpoint(sink, 0), 1024)
        duration = engine.transfer_duration(
            MemoryEndpoint(ram, 0), DeviceEndpoint(sink, 0), 1024
        )
        clock.run(until=clock.now + duration // 2)
        moved = engine.progress_bytes
        ram.write(1023, b"\xff")  # mutate the tail before it is read
        clock.run_until_idle()
        assert moved < 1023
        assert sink.peek(1023, 1) == b"\xff"

    def test_small_transfer_single_burst(self, rig):
        clock, _, ram, engine, sink = rig
        ram.write(0, b"tiny")
        engine.start(MemoryEndpoint(ram, 0), DeviceEndpoint(sink, 0), 4)
        clock.run_until_idle()
        assert sink.peek(0, 4) == b"tiny"


class TestSteppingMachine:
    def test_machine_end_to_end_with_stepping_engine(self):
        from repro import Machine
        from repro.userlib import DeviceRef, MemoryRef, UdmaUser
        from repro.bench.workloads import make_payload

        machine = Machine(
                      config=MachineConfig(
                          mem_size=1 << 20,
                          dma_burst_bytes=64,
                      ),
                  )
        sink = SinkDevice("sink", size=1 << 14)
        machine.attach_device(sink)
        p = machine.create_process("app")
        buf = machine.kernel.syscalls.alloc(p, 8192)
        grant = machine.kernel.syscalls.grant_device_proxy(p, "sink")
        udma = UdmaUser(machine, p)
        data = make_payload(6000)
        machine.cpu.write_bytes(buf, data)
        udma.transfer(MemoryRef(buf), DeviceRef(grant), 6000)
        machine.run_until_idle()
        assert sink.peek(0, 6000) == data

    def test_remaining_bytes_tracks_true_progress(self):
        from repro import Machine, UdmaStatus

        machine = Machine(
                      config=MachineConfig(
                          mem_size=1 << 20,
                          dma_burst_bytes=64,
                      ),
                  )
        sink = SinkDevice("sink", size=1 << 14)
        machine.attach_device(sink)
        p = machine.create_process("app")
        buf = machine.kernel.syscalls.alloc(p, 4096)
        grant = machine.kernel.syscalls.grant_device_proxy(p, "sink")
        machine.cpu.write_bytes(buf, b"\x01" * 4096)
        machine.cpu.store(grant, 4096)
        machine.cpu.fence()
        machine.cpu.load(machine.proxy(buf))  # start
        readings = []
        for _ in range(5):
            machine.clock.advance(1500)
            word = machine.cpu.load(machine.proxy(buf))
            readings.append(UdmaStatus.decode(word).remaining_bytes)
        machine.run_until_idle()
        non_zero = [r for r in readings if r > 0]
        assert non_zero == sorted(non_zero, reverse=True)  # monotone drain
        assert readings[-1] == 0 or readings[-1] < readings[0]
