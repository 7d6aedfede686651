"""Unit tests for PhysicalMemory."""

import numpy as np
import pytest

from repro.errors import MemoryFault
from repro.hw.memory import PhysicalMemory


@pytest.fixture
def mem():
    return PhysicalMemory(64 * 1024)


def test_alloc_returns_aligned_regions(mem):
    r1 = mem.alloc("a", 100)
    r2 = mem.alloc("b", 100)
    assert r1.base % 16 == 0
    assert r2.base % 16 == 0
    assert r2.base >= r1.end


def test_alloc_duplicate_name_rejected(mem):
    mem.alloc("a", 10)
    with pytest.raises(ValueError):
        mem.alloc("a", 10)


def test_alloc_zero_size_rejected(mem):
    with pytest.raises(ValueError):
        mem.alloc("z", 0)


def test_alloc_exhaustion(mem):
    with pytest.raises(MemoryError):
        mem.alloc("big", 10**9)


def test_read_write_roundtrip(mem):
    r = mem.alloc("buf", 32)
    mem.write(r.base, b"hello world")
    assert mem.read(r.base, 11) == b"hello world"


def test_word_accessors_little_endian(mem):
    r = mem.alloc("w", 16)
    mem.store_u32(r.base, 0x11223344)
    assert mem.read(r.base, 4) == bytes([0x44, 0x33, 0x22, 0x11])
    assert mem.load_u32(r.base) == 0x11223344
    assert mem.load_u16(r.base) == 0x3344
    assert mem.load_u8(r.base + 3) == 0x11


def test_u16_accessors(mem):
    r = mem.alloc("h", 8)
    mem.store_u16(r.base, 0xBEEF)
    assert mem.load_u16(r.base) == 0xBEEF


def test_store_truncates_to_width(mem):
    r = mem.alloc("t", 8)
    mem.store_u8(r.base, 0x1FF)
    assert mem.load_u8(r.base) == 0xFF
    mem.store_u32(r.base, 1 << 40 | 5)
    assert mem.load_u32(r.base) == 5


def test_out_of_range_access_faults(mem):
    with pytest.raises(MemoryFault):
        mem.load_u32(mem.size - 2)
    with pytest.raises(MemoryFault):
        mem.read(mem.size, 1)


def test_address_zero_unmapped(mem):
    with pytest.raises(MemoryFault):
        mem.load_u8(0)


def test_region_contains(mem):
    r = mem.alloc("r", 64)
    assert r.contains(r.base)
    assert r.contains(r.base + 60, 4)
    assert not r.contains(r.base + 61, 4)
    assert not r.contains(r.base - 1)


def test_u8_window_shares_storage(mem):
    r = mem.alloc("np", 16)
    win = mem.u8_window(r.base, 16)
    win[:4] = [1, 2, 3, 4]
    assert mem.read(r.base, 4) == bytes([1, 2, 3, 4])


def test_numpy_view_is_uint8(mem):
    assert mem.view.dtype == np.uint8
    assert len(mem.view) == mem.size


def test_fresh_memory_reads_zero_and_data_slices_copy():
    """``data`` is zero-on-demand pages, not a bytearray, but indexes and
    slices the same way (the JIT binds it directly)."""
    big = PhysicalMemory(16 * 1024 * 1024)
    assert big.read(big.size - 64, 64) == bytes(64)
    assert not big.view[4096:8192].any()
    big.data[100] = 0x41
    big.data[101:103] = b"BC"
    snapshot = big.data[100:103]
    big.data[100] = 0
    assert snapshot == b"ABC" and big.data[100] == 0
    assert bytes(big.read_view(101, 2)) == b"BC" and big.view[102] == 0x43
