"""The byte-range layers against their loop references.

``hw.cache`` walks a range as slices of the tag array, ``net.checksum``
sums a buffer as one big integer or one numpy reduction, ``DataPath`` and
the DILP fast path move a range in one pass.  Each is held here to the
loop it replaced — the scalar line walk (still the ``legacy`` substrate's
path), the RFC 1071 byte-pair loop and the per-word fold, which now live
only in this file — on every side of every length cutoff, and to a
budget of Python-level calls that does not grow with the range.
"""

import random
import sys
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.ash.examples import (PARAM_COUNTER, PARAM_REPLY_VCI, PARAM_SCRATCH,
                                build_remote_increment)
from repro.bench.testbed import make_an2_pair
from repro.bench.workloads import remote_increment
from repro.hw import cache as cache_mod
from repro.hw.cache import DirectMappedCache
from repro.hw.calibration import DEFAULT, Calibration
from repro.hw.memory import PhysicalMemory
from repro.net import checksum as checksum_mod
from repro.net.checksum import (inet_checksum, inet_checksum_numpy,
                                le_fold_final, le_word_sum)
from repro.net.datapath import DataPath
from repro.sandbox.rewriter import Sandboxer
from repro.vcode import jit
from repro.vcode.vm import Vm

#: derandomized: tier-1 draws the same examples on every run
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# references (the loops the range forms replaced)
# ---------------------------------------------------------------------------

def ref_inet(data) -> int:
    """RFC 1071, a byte pair at a time."""
    data = bytes(data)
    total = 0
    for i in range(0, len(data) - 1, 2):
        total += (data[i] << 8) | data[i + 1]
    if len(data) % 2:
        total += data[-1] << 8
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def ref_le_words(data, init: int = 0) -> int:
    """Little-endian 32-bit words, folded after every add (``cksum32``)."""
    buf = bytes(data) + b"\x00" * (-len(data) % 4)
    total = init
    for i in range(0, len(buf), 4):
        total += int.from_bytes(buf[i:i + 4], "little")
        while total > 0xFFFFFFFF:
            total = (total & 0xFFFFFFFF) + (total >> 32)
    return total


def buffer_forms(data: bytes):
    yield data
    yield bytearray(data)
    yield memoryview(data)
    yield np.frombuffer(data, dtype=np.uint8)
    # a window at an odd offset of a larger buffer, as receive paths pass
    yield memoryview(b"\x5a" + data + b"\xa5")[1:1 + len(data)]


# ---------------------------------------------------------------------------
# cache: slice walk == scalar walk
# ---------------------------------------------------------------------------

def small_cal(store_installs_line: bool) -> Calibration:
    """64 sets of 16 B: ranges wrap and exceed the cache all the time."""
    return Calibration(cache_size=1024, cache_line=16,
                       store_installs_line=store_installs_line)


class AlwaysSliced(DirectMappedCache):
    """``fast`` with the scalar short-cut off: short ranges take the
    slice walk too."""

    def _sliced(self, method, *args, **kwargs):
        with mock.patch.object(cache_mod, "_SCALAR_CUTOFF", 0):
            return method(*args, **kwargs)

    def touch_range(self, *args, **kwargs):
        return self._sliced(super().touch_range, *args, **kwargs)

    def miss_count_range(self, *args, **kwargs):
        return self._sliced(super().miss_count_range, *args, **kwargs)

    def flush_range(self, *args, **kwargs):
        return self._sliced(super().flush_range, *args, **kwargs)


def caches(cal: Calibration):
    """The scalar oracle (``legacy``), then the shipped ``fast`` selection
    and the slice walk alone."""
    return (DirectMappedCache(cal, substrate="legacy"),
            DirectMappedCache(cal, substrate="fast"),
            AlwaysSliced(cal, substrate="fast"))


def apply_op(cache: DirectMappedCache, op) -> int:
    kind, addr, size, is_store = op
    if kind == "touch":
        return cache.touch_range(addr, size, is_store=is_store)
    if kind == "count":
        return cache.miss_count_range(addr, size)
    cache.flush_range(addr, size)
    return 0


def assert_same_walks(cal: Calibration, ops) -> None:
    oracle, *others = caches(cal)
    for op in ops:
        want = apply_op(oracle, op)
        for cache in others:
            assert apply_op(cache, op) == want, op
            assert (cache.hits, cache.misses) == (oracle.hits, oracle.misses), op
            assert cache._tags == oracle._tags, op


def range_ops(cache_bytes: int):
    """(op, addr, size, is_store): sizes from zero to three times the
    cache, addresses anywhere in four cache-sized windows — so inside one
    run of sets, across the end of the set array, and all the way round."""
    size = st.one_of(
        st.integers(0, 64),
        st.integers(0, cache_bytes // 2),
        st.integers(cache_bytes - 40, 3 * cache_bytes),
    )
    addr = st.one_of(
        st.integers(16, 4 * cache_bytes),
        # the last lines of the set array: the next line wraps to set 0
        st.integers(0, 80).map(lambda back: 2 * cache_bytes - back),
    )
    return st.lists(
        st.tuples(st.sampled_from(("touch", "touch", "count", "flush")),
                  addr, size, st.booleans()),
        min_size=1, max_size=24,
    )


class TestCacheWalks:
    @pytest.mark.parametrize("installs", (True, False))
    @given(ops=range_ops(1024))
    @PROPERTY
    def test_random_sequences_small_cache(self, installs, ops):
        assert_same_walks(small_cal(installs), ops)

    @pytest.mark.parametrize("installs", (True, False))
    @given(ops=range_ops(64 * 1024))
    @settings(PROPERTY, max_examples=25)
    def test_random_sequences_default_geometry(self, installs, ops):
        assert_same_walks(Calibration(store_installs_line=installs), ops)

    def test_wrap_and_overlong_spelled_out(self):
        """One of each shape by hand: within a run, over the end of the
        set array, twice round the cache, and nothing at all."""
        line, nlines = DEFAULT.cache_line, DEFAULT.cache_size // DEFAULT.cache_line
        end = nlines * line
        ops = [
            ("touch", 0x1000, 40 * line, False),            # one run
            ("touch", end - 5 * line, 40 * line, False),    # straddles
            ("count", end - 5 * line, 40 * line, False),
            ("touch", 0x1000 + 8, 2 * end + 3 * line, True),  # twice round
            ("touch", 0x1000, 2 * end, False),
            ("flush", end - 100 * line, 300 * line, False),
            ("flush", 0, 3 * end, False),
            ("touch", 0x2000, 0, False),                    # zero length
            ("flush", 0x2000, 0, False),
            ("count", 0x2000, 0, False),
        ]
        assert_same_walks(DEFAULT, ops)

    def test_both_sides_of_the_scalar_cutoff(self):
        """``cutoff - 1 .. cutoff + 1`` lines, cold then warm then
        flushed: the selection is invisible."""
        cut = cache_mod._SCALAR_CUTOFF
        line = DEFAULT.cache_line
        for nl in (cut - 1, cut, cut + 1):
            oracle = DirectMappedCache(DEFAULT, substrate="legacy")
            fast = DirectMappedCache(DEFAULT, substrate="fast")
            for op in (("touch", 0x4008, nl * line - 8, False),
                       ("touch", 0x4008, nl * line - 8, False),
                       ("count", 0x4000, nl * line, False),
                       ("touch", 0x14000, nl * line, True),
                       ("flush", 0x14000, nl * line, False),
                       ("count", 0x14000, nl * line, False)):
                assert apply_op(fast, op) == apply_op(oracle, op), (nl, op)
            assert (fast.hits, fast.misses) == (oracle.hits, oracle.misses)
            assert fast._tags == oracle._tags

    def test_ramp_is_shared_and_read_only(self):
        a = DirectMappedCache(DEFAULT, substrate="fast")
        b = DirectMappedCache(DEFAULT, substrate="fast")
        assert a._ramp is b._ramp
        assert a._ramp.nbytes <= 32 * 1024
        with pytest.raises(ValueError):
            a._ramp[0] = 1


# ---------------------------------------------------------------------------
# checksums: big-int and numpy forms == the loops
# ---------------------------------------------------------------------------

class TestChecksumForms:
    def test_every_length_to_600(self):
        rng = random.Random(1996)
        for n in range(601):
            for data in (rng.randbytes(n), bytes(n), b"\xff" * n):
                want16, want32 = ref_inet(data), ref_le_words(data)
                for form in buffer_forms(data):
                    assert inet_checksum(form) == want16, n
                    assert inet_checksum_numpy(form) == want16, n
                    assert le_word_sum(form) == want32, n

    def test_both_sides_of_the_big_int_cutoffs(self):
        rng = random.Random(7)
        for cut in (checksum_mod._BIGINT_MAX16, checksum_mod._BIGINT_MAX32):
            for n in range(cut - 4, cut + 5):
                data = rng.randbytes(n)
                init = rng.getrandbits(32)
                for form in buffer_forms(data):
                    assert inet_checksum(form) == ref_inet(data), n
                    assert le_word_sum(form, init) == ref_le_words(data, init), n

    @given(st.binary(max_size=1500), st.integers(0, 0xFFFFFFFF))
    @PROPERTY
    def test_le_sum_with_init(self, data, init):
        want = ref_le_words(data, init)
        assert le_word_sum(data, init) == want
        assert le_fold_final(want) == (~ref_inet(
            int.to_bytes(want, 4, "big"))) & 0xFFFF

    def test_end_around_corner(self):
        """A sum that is an exact multiple of the modulus folds to the
        all-ones word, not to 0; only a zero sum gives 0."""
        for n_words in (1, 2, 7, 200, 400):
            ones16 = b"\xff\xff" * n_words               # n * 0xFFFF
            pair16 = b"\x00\x01\xff\xfe" * n_words       # 1 + 0xFFFE
            ones32 = b"\xff\xff\xff\xff" * n_words
            pair32 = (b"\x01\x00\x00\x00" b"\xfe\xff\xff\xff") * n_words
            for data in (ones16, pair16, ones32, pair32):
                assert inet_checksum(data) == ref_inet(data) == 0xFFFF
                assert inet_checksum_numpy(data) == 0xFFFF
            for data in (ones32, pair32):
                assert le_word_sum(data) == ref_le_words(data) == 0xFFFFFFFF
            zeros = bytes(4 * n_words)
            assert inet_checksum(zeros) == inet_checksum_numpy(zeros) == 0
            assert le_word_sum(zeros) == 0
            # the corner reached through ``init``
            assert le_word_sum(zeros, 0xFFFFFFFF) == 0xFFFFFFFF
            one = (1).to_bytes(4, "little") + zeros
            assert le_word_sum(one, 0xFFFFFFFE) \
                == ref_le_words(one, 0xFFFFFFFE) == 0xFFFFFFFF
            assert le_word_sum(one, 0xFFFFFFFF) \
                == ref_le_words(one, 0xFFFFFFFF) == 1
        assert le_fold_final(0) == 0xFFFF
        assert le_fold_final(0xFFFF) == le_fold_final(0xFFFFFFFF) == 0


# ---------------------------------------------------------------------------
# DataPath: tails fold into the same move / sum
# ---------------------------------------------------------------------------

@pytest.fixture
def datapath():
    tb = make_an2_pair()
    mem = tb.server.memory
    src = mem.alloc("brsrc", 16384).base
    dst = mem.alloc("brdst", 16384).base
    data = random.Random(3).randbytes(16384)
    mem.write(src, data)
    return DataPath(tb.server), mem, src, dst, data


def scalar_twin(dp: DataPath) -> DirectMappedCache:
    """A scalar-walk cache to charge the same ranges to."""
    return DirectMappedCache(dp.cal, substrate="legacy")


class TestDataPathTails:
    LENGTHS = [n for k in (0, 1, 9, 10, 64, 255, 2047) for n in
               (4 * k + 1, 4 * k + 2, 4 * k + 3, 4 * k + 4)]

    def test_copy_lengths_4k_plus_1_to_3(self, datapath):
        dp, mem, src, dst, data = datapath
        twin = scalar_twin(dp)
        for n in self.LENGTHS:
            mem.write(dst, b"\xee" * (n + 8))
            cycles = dp.copy(src + 3, dst + 1, n)
            assert mem.read(dst + 1, n) == data[3:3 + n], n
            assert mem.read(dst + 1 + n, 4) == b"\xee" * 4, n   # no overrun
            whole = n - n % 4
            main, tail_words = divmod(whole // 4, 4)
            want = (6 + main * 12 + tail_words * 7 + (n - whole) * 4
                    + twin.touch_range(src + 3, n, is_store=False))
            twin.touch_range(dst + 1, n, is_store=True)
            assert cycles == want, n

    def test_checksum_lengths_4k_plus_1_to_3(self, datapath):
        dp, mem, src, dst, data = datapath
        twin = scalar_twin(dp)
        for n in self.LENGTHS:
            for init in (0, 0xFFFFFFFF, 0x89ABCDEF):
                acc, cycles = dp.checksum(src + 2, n, init)
                assert acc == ref_le_words(data[2:2 + n], init), n
                assert cycles == (6 + ((n + 3) // 4) * 6
                                  + twin.touch_range(src + 2, n)), n

    def test_copy_in_tail(self, datapath):
        dp, mem, src, dst, data = datapath
        for n in self.LENGTHS:
            dp.copy_in(dst + 5, data[:n])
            assert mem.read(dst + 5, n) == data[:n]

    def test_integrated_equals_separate(self, datapath):
        dp, mem, src, dst, data = datapath
        for n in (4, 40, 1024, 8192):
            acc, _ = dp.copy_checksum_integrated(src, dst, n, init=0x1234)
            assert acc == ref_le_words(data[:n], 0x1234)
            assert mem.read(dst, n) == data[:n]
            assert mem.read(src, n) == data[:n]


# ---------------------------------------------------------------------------
# call budget: no per-line Python work
# ---------------------------------------------------------------------------

def python_calls(fn) -> int:
    """Python-level function calls ``fn()`` makes (C calls not counted)."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(tracer)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count - 1          # the lambda / function passed in


class TestCallBudget:
    """Pinned like PR 12's event budget: a regression to per-line or
    per-word Python work fails here without a stopwatch.  The counts are
    Python-level frames only (numpy's C work is the point), and the
    big-range column must not depend on the range at all."""

    #: nbytes -> Python-level calls of (checksum, copy, integrated copy+sum)
    BUDGET = {40: (10, 12, 23), 1024: (14, 18, 29), 8192: (14, 18, 29)}

    @pytest.mark.parametrize("nbytes", sorted(BUDGET))
    def test_calls_per_range(self, datapath, nbytes):
        dp, mem, src, dst, data = datapath
        got = (
            python_calls(lambda: dp.checksum(src, nbytes)),
            python_calls(lambda: dp.copy(src, dst, nbytes)),
            python_calls(
                lambda: dp.copy_checksum_integrated(src, dst, nbytes)),
        )
        assert all(g <= b for g, b in zip(got, self.BUDGET[nbytes])), got

    def test_unaligned_tail_costs_no_extra_calls(self, datapath):
        dp, mem, src, dst, data = datapath
        assert python_calls(lambda: dp.copy(src, dst, 1027)) \
            == python_calls(lambda: dp.copy(src, dst, 1024))
        assert python_calls(lambda: dp.checksum(src, 1027)) \
            == python_calls(lambda: dp.checksum(src, 1024))


# ---------------------------------------------------------------------------
# JIT: the message region is not part of the specialization
# ---------------------------------------------------------------------------

class TestMessageRegionNotBaked:
    CTX, COUNTER, SCRATCH = 0x2000, 0x3000, 0x3100
    STATIC = [(CTX, 64), (COUNTER, 64), (SCRATCH, 64)]
    RING = [0x4000 + 0x100 * i for i in range(8)]

    def machine(self):
        mem = PhysicalMemory(1 << 16)
        mem.store_u32(self.CTX + PARAM_COUNTER, self.COUNTER)
        mem.store_u32(self.CTX + PARAM_REPLY_VCI, 7)
        mem.store_u32(self.CTX + PARAM_SCRATCH, self.SCRATCH)
        for buf in self.RING:
            mem.store_u32(buf, 3)
        return mem, Vm(mem, cache=DirectMappedCache(DEFAULT), cal=DEFAULT)

    def invoke(self, vm, program, buf, engine, **regions):
        env = {"ash_send": lambda ctx: (ctx.arg(1), 120)}
        return vm.run(program, args=(buf, 4, self.CTX), regs=[0] * 32,
                      env=env, cycle_budget=50_000, engine=engine, **regions)

    def test_one_translation_over_a_buffer_ring(self):
        program, _ = Sandboxer().sandbox(build_remote_increment())
        mem, vm = self.machine()
        jit.clear_code_cache()
        jit.stats.reset()
        for lap in range(3):
            for buf in self.RING:
                self.invoke(vm, program, buf, "jit", allowed=self.STATIC,
                            msg_region=(buf, 64))
        assert jit.stats.misses == 1
        assert jit.stats.hits == 3 * len(self.RING) - 1
        assert mem.load_u32(self.COUNTER) == 3 * 3 * len(self.RING)

    def test_message_region_is_still_enforced(self):
        """The two runtime compares bound the handler to *this* message:
        last round's buffer, a region too short for the load, or no
        message region at all fault as they do in the interpreter, to
        the cycle."""
        from repro.errors import MemoryFault

        program, _ = Sandboxer().sandbox(build_remote_increment())
        _, vm = self.machine()
        jit.clear_code_cache()
        buf = self.RING[0]
        for regions in ({"msg_region": (self.RING[1], 64)},
                        {"msg_region": (buf, 2)},
                        {}):
            faults = []
            for engine in ("jit", "interp"):
                self.invoke(vm, program, buf, engine, allowed=self.STATIC,
                            msg_region=(buf, 64))
                with pytest.raises(MemoryFault) as exc:
                    self.invoke(vm, program, buf, engine,
                                allowed=self.STATIC, **regions)
                faults.append((str(exc.value), exc.value.cycles))
            assert faults[0] == faults[1], regions

    def test_ash_receive_path_translates_the_handler_once(self):
        """End to end: the AN2 ring hands the handler another buffer per
        message; ``AshSystem.invoke`` must not let that reach the key."""
        jit.clear_code_cache()
        jit.stats.reset()
        result = remote_increment(mode="ash", iters=12, warmup=0)
        assert result.sandbox_added_insns > 0          # the sandboxed build
        assert (jit.stats.misses, jit.stats.hits) == (1, 11)
