"""Direct-mapped write-through data-cache model.

The DECstation 5000/240 has a 64 KB direct-mapped write-through data
cache with a write buffer.  The model captures exactly the effects the
paper's Tables III and IV depend on:

* a **load** of a line not present stalls for ``miss_penalty_cycles``
  and installs the line,
* a **store** drains through the write buffer without a stall and (in
  the default configuration) installs the line, so data just written is
  warm for a subsequent traversal,
* an explicit **flush** (the paper flushes the message region after DMA
  and between benchmark iterations) evicts lines so the next traversal
  misses again.

The cache tracks *tags only* — data lives in
:class:`repro.hw.memory.PhysicalMemory` — because a write-through cache
never holds dirty data, so correctness never depends on cached bytes.

The tag store is an ``array('q')`` with a shared ``numpy`` int64 view
over the same buffer.  Scalar probes (the VCODE interpreter and the
JIT's inlined cache model index ``_tags`` one line at a time) stay
plain-int fast, while bulk range operations — whole-packet copies,
checksums and flushes — cost a fixed handful of numpy calls on the
``fast`` substrate: consecutive lines map to consecutive sets, so a
range is a *slice* of the tag array compared against a precomputed ramp
of line addresses (two slices where it wraps past the last set).  Both
paths compute identical hit/miss counts and stall cycles;
``REPRO_SIM_SUBSTRATE=legacy`` forces the scalar walks everywhere (the
original behavior, kept as the oracle the slice walk is tested against).
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import Optional

import numpy as np

from ..sim.engine import active_substrate
from .calibration import Calibration

__all__ = ["DirectMappedCache"]

#: ranges touching at most this many lines take the scalar walk even on
#: the fast substrate: it costs 0.35 us + 0.105 us/line resident (0.16
#: missing), the slice walk a flat 2.5 us, so they cross at 14-20 lines
#: (timeit of ``_touch_scalar`` / ``_walk_sliced`` at 4-32 lines)
_SCALAR_CUTOFF = 16


@lru_cache(maxsize=None)
def _line_ramp(line: int, nlines: int) -> np.ndarray:
    """``[0, line, 2*line, ...]``, one entry per set: added to a range's
    first line address it gives the tags a fully resident range would
    hold.  Read-only and shared by every cache of the same geometry."""
    ramp = np.arange(nlines, dtype=np.int64) * line
    ramp.flags.writeable = False
    return ramp


class DirectMappedCache:
    """Tag store + cycle accounting for a direct-mapped cache."""

    def __init__(self, cal: Calibration, substrate: Optional[str] = None):
        self.cal = cal
        self.line = cal.cache_line
        self.nlines = cal.cache_size // cal.cache_line
        # tags[i] is the full line address cached in set i, or -1.
        # array('q') + frombuffer share one buffer: scalar int indexing
        # for the interpreter/JIT, slice walks for bulk ranges.
        self._tags = array("q", bytes(8 * self.nlines))
        self._tags_np = np.frombuffer(self._tags, dtype=np.int64)
        self._tags_np.fill(-1)
        self._ramp = _line_ramp(self.line, self.nlines)
        self._vectorized = active_substrate(substrate) == "fast"
        self.hits = 0
        self.misses = 0

    # -- internals -------------------------------------------------------
    def _index(self, line_addr: int) -> int:
        return (line_addr // self.line) % self.nlines

    def _span(self, addr: int, size: int) -> tuple[int, int]:
        """(first line address, number of lines) for ``[addr, addr+size)``."""
        first = addr - (addr % self.line)
        nl = (addr + size - 1 - first) // self.line + 1
        return first, nl

    # -- single accesses ---------------------------------------------------
    def load(self, addr: int, size: int) -> int:
        """Account for a load of ``size`` bytes at ``addr``.

        Returns the stall cycles incurred (0 if every touched line hits).
        """
        return self.touch_range(addr, size, is_store=False)

    def store(self, addr: int, size: int) -> int:
        """Account for a store; write-through stores never stall."""
        return self.touch_range(addr, size, is_store=True)

    # -- bulk accesses -----------------------------------------------------
    def touch_range(self, addr: int, size: int, is_store: bool = False) -> int:
        """Walk every line in ``[addr, addr+size)``; return stall cycles.

        This is the primitive both the VCODE interpreter (word at a
        time) and the compiled DILP kernels (whole buffers at once) use,
        so both charge identical miss costs for identical access
        patterns.  Wide ranges walk tag slices on the fast substrate;
        the result (hits, misses, stalls, final tag state) is
        bit-identical to the scalar walk.
        """
        if size <= 0:
            return 0
        first, nl = self._span(addr, size)
        if not self._vectorized or nl <= _SCALAR_CUTOFF:
            return self._touch_scalar(first, nl, is_store)
        misses = nl - self._walk_sliced(
            first, nl, install=not is_store or self.cal.store_installs_line)
        self.hits += nl - misses
        self.misses += misses
        return 0 if is_store else misses * self.cal.miss_penalty_cycles

    def _touch_scalar(self, first: int, nl: int, is_store: bool) -> int:
        stall = 0
        tags = self._tags
        line = self.line
        nlines = self.nlines
        install = self.cal.store_installs_line
        penalty = self.cal.miss_penalty_cycles
        for line_addr in range(first, first + nl * line, line):
            idx = (line_addr // line) % nlines
            if tags[idx] == line_addr:
                self.hits += 1
            else:
                self.misses += 1
                if is_store:
                    if install:
                        tags[idx] = line_addr
                else:
                    stall += penalty
                    tags[idx] = line_addr
        return stall

    def _walk_sliced(self, first: int, nl: int, install: bool = False,
                     evict: bool = False) -> int:
        """Probe ``nl`` lines from ``first`` a run of sets at a time;
        returns the hits.  ``install`` leaves the probed sets holding the
        range, ``evict`` invalidates the lines of it that were resident.

        A run is the stretch of consecutive sets up to the last one: the
        whole range, unless it wraps.  Its sets are distinct, so it is
        probed (and installed) in one go against the ramp of addresses
        that would hit, and taking the runs in order reproduces the
        scalar walk even for a range longer than the cache — a later
        run probes the tags an earlier one installed.
        """
        nlines = self.nlines
        i0 = (first // self.line) % nlines
        hits = 0
        while nl > 0:
            n = min(nl, nlines - i0)
            window = self._tags_np[i0:i0 + n]
            want = self._ramp[:n] + first
            if evict:
                window[window == want] = -1
            else:
                hits += int(np.count_nonzero(window == want))
                if install:
                    window[:] = want
            first += n * self.line
            nl -= n
            i0 = 0
        return hits

    def miss_count_range(self, addr: int, size: int) -> int:
        """How many lines of the range would currently miss (no update)."""
        if size <= 0:
            return 0
        first, nl = self._span(addr, size)
        if self._vectorized and nl > _SCALAR_CUTOFF:
            return nl - self._walk_sliced(first, nl)
        line = self.line
        nlines = self.nlines
        tags = self._tags
        return sum(
            1
            for line_addr in range(first, first + nl * line, line)
            if tags[(line_addr // line) % nlines] != line_addr
        )

    # -- flushes -----------------------------------------------------------
    def flush_range(self, addr: int, size: int) -> None:
        """Invalidate every line overlapping ``[addr, addr+size)``."""
        if size <= 0:
            return
        first, nl = self._span(addr, size)
        if self._vectorized and nl > _SCALAR_CUTOFF:
            self._walk_sliced(first, nl, evict=True)
            return
        line = self.line
        nlines = self.nlines
        tags = self._tags
        for line_addr in range(first, first + nl * line, line):
            idx = (line_addr // line) % nlines
            if tags[idx] == line_addr:
                tags[idx] = -1

    def flush_all(self) -> None:
        # in place: the numpy view (and the JIT's ``_tags`` alias) must
        # keep seeing the same buffer
        self._tags_np.fill(-1)

    # -- inspection ----------------------------------------------------------
    def contains(self, addr: int) -> bool:
        line_addr = addr - (addr % self.line)
        return self._tags[self._index(line_addr)] == line_addr

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
