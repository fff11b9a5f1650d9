"""Tests for physical memory."""

import os

import pytest

from repro import Machine, MachineConfig
from repro.errors import AddressError
from repro.mem.physmem import PhysicalMemory
from repro.snapshot import fork, restore, snapshot


@pytest.fixture
def ram():
    return PhysicalMemory(64 * 1024, page_size=4096)


class TestConstruction:
    def test_num_frames(self, ram):
        assert ram.num_frames == 16

    def test_size_must_be_page_multiple(self):
        with pytest.raises(ValueError):
            PhysicalMemory(5000, page_size=4096)

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            PhysicalMemory(0)

    def test_page_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            PhysicalMemory(8192, page_size=3000)

    def test_starts_zeroed(self, ram):
        assert ram.read(0, 16) == bytes(16)


class TestByteIO:
    def test_write_read_roundtrip(self, ram):
        ram.write(100, b"hello")
        assert ram.read(100, 5) == b"hello"

    def test_write_at_end(self, ram):
        ram.write(ram.size - 4, b"tail")
        assert ram.read(ram.size - 4, 4) == b"tail"

    def test_read_past_end_rejected(self, ram):
        with pytest.raises(AddressError):
            ram.read(ram.size - 2, 4)

    def test_write_past_end_rejected(self, ram):
        with pytest.raises(AddressError):
            ram.write(ram.size - 2, b"long")

    def test_negative_address_rejected(self, ram):
        with pytest.raises(AddressError):
            ram.read(-1, 1)

    def test_negative_length_rejected(self, ram):
        with pytest.raises(ValueError):
            ram.read(0, -1)


class TestWordIO:
    def test_word_roundtrip(self, ram):
        ram.write_word(8, 0xDEADBEEF)
        assert ram.read_word(8) == 0xDEADBEEF

    def test_word_is_little_endian(self, ram):
        ram.write_word(0, 0x01020304)
        assert ram.read(0, 4) == bytes([4, 3, 2, 1])

    def test_word_wraps_modulo_32_bits(self, ram):
        ram.write_word(0, 1 << 33)
        assert ram.read_word(0) == 0

    def test_negative_word_stored_as_twos_complement(self, ram):
        ram.write_word(0, -1)
        assert ram.read_word(0) == 0xFFFFFFFF


class TestFrameIO:
    def test_frame_base(self, ram):
        assert ram.frame_base(3) == 3 * 4096

    def test_frame_base_out_of_range(self, ram):
        with pytest.raises(AddressError):
            ram.frame_base(16)

    def test_frame_roundtrip(self, ram):
        data = bytes(range(256)) * 16
        ram.write_frame(2, data)
        assert ram.read_frame(2) == data

    def test_frame_write_must_be_exact_page(self, ram):
        with pytest.raises(ValueError):
            ram.write_frame(0, b"short")

    def test_zero_frame(self, ram):
        ram.write_frame(1, b"\xff" * 4096)
        ram.zero_frame(1)
        assert ram.read_frame(1) == bytes(4096)


class TestLazilyZeroedBacking:
    """RAM is anonymous MAP_PRIVATE memory, zero-filled on first touch."""

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_writes_stay_private(self, ram):
        ram.write(100, b"parent")
        before = ram.read(0, ram.size)
        pid = os.fork()
        if pid == 0:  # child: write everywhere, report whether it stuck
            code = 1
            try:
                ram.write(100, b"child!")
                ram.write_frame(7, b"\xee" * 4096)
                code = 0 if ram.read(100, 6) == b"child!" else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        assert ram.read(0, ram.size) == before
        assert ram.read(100, 6) == b"parent"

    def test_snapshot_and_fork_keep_every_frame(self):
        machine = Machine(config=MachineConfig(mem_size=1 << 18))
        physmem = machine.physmem
        for frame, fill in ((0, 0x11), (5, 0x5A), (physmem.num_frames - 1, 0xFF)):
            physmem.write_frame(frame, bytes([fill]) * physmem.page_size)
        physmem.write(9 * physmem.page_size + 17, b"partial page")
        for copy in (restore(snapshot(machine)), fork(machine)):
            twin = copy.physmem
            assert twin.num_frames == physmem.num_frames
            for frame in range(physmem.num_frames):
                assert twin.read_frame(frame) == physmem.read_frame(frame), frame
            twin.write(0, b"twin")  # copies share no RAM with the original
            assert physmem.read(0, 4) == b"\x11" * 4

    def test_pickled_state_is_a_bytearray(self, ram):
        ram.write(4096, b"abc")
        state = ram.__getstate__()
        assert isinstance(state["_data"], bytearray)
        assert state["_data"][4096:4099] == b"abc"
        assert "_mv" not in state
