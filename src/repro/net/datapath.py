"""Cost-accounted data movement for the user-level protocol libraries.

The protocol libraries are trusted C code in the paper — they are not
interpreted — but their *data-touching* costs (copies, checksum passes)
are exactly what Tables II-IV measure.  :class:`DataPath` provides
those operations over a node's memory with the same cycle/cache model
the VCODE loops use:

* ``copy`` — the tuned (unrolled) memcpy: 11 instructions per 16 bytes,
* ``checksum`` — the straightforward per-word RFC 1071 pass protocol
  code uses: 6 cycles per word (the paper's *separate* strategy).

Each returns the cycles consumed; the caller charges them to a process
or interrupt context.  Checksum values are returned in the little-endian
accumulation domain (see :mod:`repro.net.checksum`).

The *integrated* strategy is not here: a DILP engine is compiled where
it runs (an ASH's ``ash_dilp``, the TCP fast path, the Ethernet
copy-out), so building a stack compiles nothing.
"""

from __future__ import annotations

from ..hw.cache import DirectMappedCache
from ..hw.calibration import Calibration
from ..hw.node import Node
from .checksum import le_word_sum

__all__ = ["DataPath"]

#: instruction cycles per 16-byte main-loop iteration of the tuned copy
_COPY_MAIN = 12
#: per-word iteration of the tail loop / per-word checksum pass
_COPY_TAIL = 7
_CKSUM_WORD = 6
#: loop prologue/epilogue overhead
_LOOP_FIXED = 6


class DataPath:
    """Data-touching operations with the node's cache/cycle model."""

    def __init__(self, node: Node):
        self.node = node
        self.mem = node.memory
        self.cache: DirectMappedCache = node.dcache
        self.cal: Calibration = node.cal
        self.tel = node.telemetry
        # per-op instrument cache: _record sits on every copy/checksum
        # call, so the registry lookup is paid once per op, not per call
        self._instruments: dict[str, tuple] = {}

    def _record(self, op: str, nbytes: int, cycles: int) -> None:
        tel = self.tel
        if tel.enabled:
            pair = self._instruments.get(op)
            if pair is None:
                pair = (tel.counter("datapath.bytes", op=op),
                        tel.counter("datapath.cycles", op=op))
                self._instruments[op] = pair
            pair[0].inc(nbytes)
            pair[1].inc(cycles)

    # -- copies ------------------------------------------------------------
    def copy(self, src: int, dst: int, nbytes: int) -> int:
        """Tuned word copy; returns cycles (including cache stalls)."""
        if nbytes == 0:
            return 0
        self.mem.copy_range(src, dst, nbytes)
        whole = nbytes - nbytes % 4
        main, tail_words = divmod(whole // 4, 4)
        cycles = (
            _LOOP_FIXED
            + main * _COPY_MAIN
            + tail_words * _COPY_TAIL
            + (nbytes - whole) * 4
        )
        cycles += self.cache.touch_range(src, nbytes, is_store=False)
        self.cache.touch_range(dst, nbytes, is_store=True)
        self._record("copy", nbytes, cycles)
        return cycles

    def copy_in(self, dst: int, data: bytes) -> int:
        """Copy from application data structures into a protocol buffer
        (the write-interface staging copy).  The application source is
        assumed uncached; returns cycles."""
        self.mem.write(dst, data)
        n = len(data)
        if n == 0:
            return 0
        whole = n - n % 4
        main, tail_words = divmod(whole // 4, 4)
        line = self.cal.cache_line
        cycles = (
            _LOOP_FIXED
            + main * _COPY_MAIN
            + tail_words * _COPY_TAIL
            + (n - whole) * 4
            + self.cal.miss_penalty_cycles * ((n + line - 1) // line)
        )
        self.cache.touch_range(dst, n, is_store=True)
        self._record("copy_in", n, cycles)
        return cycles

    # -- checksums ----------------------------------------------------------
    def checksum(self, addr: int, nbytes: int, init: int = 0) -> tuple[int, int]:
        """Separate checksum pass; returns (le-domain acc32, cycles)."""
        if nbytes == 0:
            return init, _LOOP_FIXED
        total = le_word_sum(self.mem.read_view(addr, nbytes), init)
        words_touched = (nbytes + 3) // 4
        cycles = _LOOP_FIXED + words_touched * _CKSUM_WORD
        cycles += self.cache.touch_range(addr, nbytes, is_store=False)
        self._record("checksum", nbytes, cycles)
        return total, cycles
