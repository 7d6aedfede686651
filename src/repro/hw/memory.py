"""Physical memory for one node: a flat byte array plus region accounting.

Every buffer the modelled system uses — NIC receive rings, protocol
buffers, application data structures, ASH scratch space — is carved out
of one :class:`PhysicalMemory` with a bump allocator.  Addresses are
plain integers, which is what lets the sandboxer do real range checks
and lets the cache model attribute misses to real locations.

The DECstations ran MIPS in little-endian mode, so multi-byte loads and
stores are little-endian; network byte order is handled where it
belongs, in :mod:`repro.net.headers`.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from ..errors import AllocationError, MemoryFault

__all__ = ["Region", "PhysicalMemory"]

_ALIGN = 16  # allocate on cache-line boundaries


def _zero_pages(size: int) -> mmap.mmap:
    """``size`` bytes of zero-on-demand memory: anonymous pages the OS
    zeroes when first touched.  A node maps 16 MiB and a short world
    touches a few hundred KiB of it; ``bytearray(size)`` would write
    (and so make resident) every page up front.  Indexes and slices
    like the ``bytearray`` it replaces (a slice read copies to
    ``bytes``)."""
    if hasattr(mmap, "MAP_ANONYMOUS"):
        return mmap.mmap(-1, size,
                         flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return mmap.mmap(-1, size)  # no flags off Unix; anonymous all the same


@dataclass(frozen=True)
class Region:
    """A named, contiguous span of physical memory."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, size: int = 1) -> bool:
        return self.base <= addr and addr + size <= self.end


class PhysicalMemory:
    """Byte-addressable memory with range-checked accessors."""

    def __init__(self, size: int = 8 * 1024 * 1024):
        self.size = size
        self.data = _zero_pages(size)
        self.view = np.frombuffer(self.data, dtype=np.uint8)
        self._mv = memoryview(self.data)
        self._brk = _ALIGN  # keep address 0 unmapped: it makes bugs loud
        self.regions: dict[str, Region] = {}
        #: fault-injection seam: a FaultPlane installs a MemPressure
        #: injector here (see repro.sim.faults); None = allocations
        #: always succeed while physical memory lasts
        self.pressure = None
        #: injected allocation failures observed, by site
        self.alloc_failures: dict[str, int] = {}

    # -- allocation -------------------------------------------------------
    def pressure_gate(self, site: str) -> bool:
        """One allocation attempt at ``site``; True when injected memory
        pressure refuses it.  Call sites that allocate without going
        through :meth:`alloc` (rx-ring refills) consult this gate
        directly and degrade on refusal."""
        injector = self.pressure
        if injector is None or not injector.should_fail(site):
            return False
        self.alloc_failures[site] = self.alloc_failures.get(site, 0) + 1
        return True

    def alloc(self, name: str, size: int, align: int = _ALIGN,
              site: str | None = None) -> Region:
        """Carve a new region; names must be unique per node.

        ``site`` labels the allocating call site for the fault plane's
        memory-pressure seam; a gated site raises
        :class:`~repro.errors.AllocationError` (counted under
        ``mem.alloc_failures{site}``) which the caller must degrade on.
        Genuine exhaustion still raises :class:`MemoryError`.
        """
        if site is not None and self.pressure_gate(site):
            raise AllocationError(site, name)
        if name in self.regions:
            raise ValueError(f"region {name!r} already allocated")
        if size <= 0:
            raise ValueError(f"region {name!r}: size must be positive")
        base = self._brk
        if base % align:
            base += align - base % align
        if base + size > self.size:
            raise MemoryError(
                f"out of physical memory allocating {name!r} ({size} bytes)"
            )
        self._brk = base + size
        region = Region(name, base, size)
        self.regions[name] = region
        return region

    # -- checked accessors ---------------------------------------------------
    def _check(self, addr: int, size: int) -> None:
        if addr < _ALIGN or addr + size > self.size or size < 0:
            raise MemoryFault(f"physical access out of range: [{addr}, {addr + size})")

    def read(self, addr: int, size: int) -> bytes:
        self._check(addr, size)
        return bytes(self.data[addr:addr + size])

    def read_view(self, addr: int, size: int) -> memoryview:
        """A zero-copy window over ``[addr, addr+size)``.

        The view aliases live memory: it changes if the range is
        rewritten (e.g. a receive buffer being replenished), so callers
        that outlive the buffer must materialize with ``bytes()``.
        """
        self._check(addr, size)
        return self._mv[addr:addr + size]

    def copy_range(self, src: int, dst: int, size: int) -> None:
        """Bulk memory-to-memory copy (no cycle accounting)."""
        self._check(src, size)
        self._check(dst, size)
        self.view[dst:dst + size] = self.view[src:src + size]

    def write(self, addr: int, payload: bytes | bytearray | memoryview) -> None:
        self._check(addr, len(payload))
        self.data[addr:addr + len(payload)] = payload

    def load_u8(self, addr: int) -> int:
        self._check(addr, 1)
        return self.data[addr]

    def store_u8(self, addr: int, value: int) -> None:
        self._check(addr, 1)
        self.data[addr] = value & 0xFF

    def load_u16(self, addr: int) -> int:
        self._check(addr, 2)
        return int.from_bytes(self.data[addr:addr + 2], "little")

    def store_u16(self, addr: int, value: int) -> None:
        self._check(addr, 2)
        self.data[addr:addr + 2] = (value & 0xFFFF).to_bytes(2, "little")

    def load_u32(self, addr: int) -> int:
        self._check(addr, 4)
        return int.from_bytes(self.data[addr:addr + 4], "little")

    def store_u32(self, addr: int, value: int) -> None:
        self._check(addr, 4)
        self.data[addr:addr + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    # -- numpy windows (used by the compiled DILP kernels) -------------------
    def u8_window(self, addr: int, size: int) -> np.ndarray:
        self._check(addr, size)
        return self.view[addr:addr + size]
