"""Single-node microbenchmarks: memory system, ILP, sandbox overhead.

These reproduce the experiments of Sections V-A and V-D that run on one
machine: Table III (copy throughput), Table IV (integrated vs separate
data manipulation) and the sandboxing-overhead comparison of the
generic vs application-specific remote write.

Methodology (Section V): "The user-level microbenchmarks measure
throughput in megabytes per second for operations performed on 4096
bytes of data.  We assume that the message and its application-space
destination are not cached when the message arrives, and so perform
cache flushes at every iteration."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..ash.examples import (
    RWS_DATA,
    build_remote_write_generic,
    build_remote_write_specific,
)
from ..hw.cache import DirectMappedCache
from ..hw.calibration import Calibration, DEFAULT
from ..hw.memory import PhysicalMemory
from ..pipes import (
    PIPE_WRITE,
    compile_pl,
    mk_byteswap_pipe,
    mk_cksum_pipe,
    pipel,
)
from ..sandbox.rewriter import Sandboxer
from ..sim.engine import Engine
from ..telemetry import Telemetry
from ..vcode import (
    Vm,
    build_byteswap,
    build_checksum,
    build_copy,
    build_integrated,
)

__all__ = [
    "copy_throughput",
    "ilp_throughput",
    "SandboxOverheadPoint",
    "sandbox_overhead",
]

SIZE = 4096


def _mbps(nbytes: int, cycles: int, cal: Calibration) -> float:
    seconds = cycles / (cal.cpu_mhz * 1e6)
    return nbytes / seconds / 1e6


def _fresh(cal: Calibration):
    mem = PhysicalMemory(1 << 20)
    cache = DirectMappedCache(cal)
    vm = Vm(mem, cache=cache, cal=cal)
    src = mem.alloc("src", SIZE)
    mid = mem.alloc("mid", SIZE)
    dst = mem.alloc("dst", SIZE)
    mem.write(src.base, bytes(range(256)) * (SIZE // 256))
    return mem, cache, vm, src, mid, dst


def copy_throughput(cal: Calibration = DEFAULT) -> dict[str, float]:
    """Table III: single / double (cached) / double (uncached) copies."""
    results: dict[str, float] = {}
    copy = build_copy()

    mem, cache, vm, src, mid, dst = _fresh(cal)
    cache.flush_all()
    t = vm.run(copy, args=(src.base, dst.base, SIZE)).cycles
    results["single copy"] = _mbps(SIZE, t, cal)

    mem, cache, vm, src, mid, dst = _fresh(cal)
    cache.flush_all()
    t = vm.run(copy, args=(src.base, mid.base, SIZE)).cycles
    t += vm.run(copy, args=(mid.base, dst.base, SIZE)).cycles
    results["double copy"] = _mbps(SIZE, t, cal)

    mem, cache, vm, src, mid, dst = _fresh(cal)
    cache.flush_all()
    t = vm.run(copy, args=(src.base, mid.base, SIZE)).cycles
    cache.flush_all()  # "much time occurs in between"
    t += vm.run(copy, args=(mid.base, dst.base, SIZE)).cycles
    results["double copy (uncached)"] = _mbps(SIZE, t, cal)
    return results


def ilp_throughput(with_byteswap: bool = False) -> dict[str, float]:
    """Table IV: separate / separate-uncached / C-integrated / DILP."""
    cal = DEFAULT
    results: dict[str, float] = {}

    def separate(uncached: bool) -> int:
        mem, cache, vm, src, mid, dst = _fresh(cal)
        cache.flush_all()
        cycles = vm.run(build_copy(), args=(src.base, dst.base, SIZE)).cycles
        if uncached:
            cache.flush_all()
        cycles += vm.run(build_checksum(), args=(dst.base, 0, SIZE)).cycles
        if with_byteswap:
            if uncached:
                cache.flush_all()
            cycles += vm.run(
                build_byteswap(), args=(dst.base, 0, SIZE)
            ).cycles
        return cycles

    results["Separate"] = _mbps(SIZE, separate(False), cal)
    results["Separate/uncached"] = _mbps(SIZE, separate(True), cal)

    mem, cache, vm, src, mid, dst = _fresh(cal)
    cache.flush_all()
    t = vm.run(
        build_integrated(do_checksum=True, do_byteswap=with_byteswap),
        args=(src.base, dst.base, SIZE),
    ).cycles
    results["C integrated"] = _mbps(SIZE, t, cal)

    mem, cache, vm, src, mid, dst = _fresh(cal)
    cache.flush_all()
    pl = pipel()
    mk_cksum_pipe(pl)
    if with_byteswap:
        mk_byteswap_pipe(pl)
    pipeline = compile_pl(pl, PIPE_WRITE, cal=cal)
    # no Node here, so give the pipeline a standalone hub: it registers
    # with any active telemetry session and is free when none is open.
    pipeline.telemetry = Telemetry(Engine(), source="micro.ilp")
    t = pipeline.run_fast(mem, src.base, dst.base, SIZE, cache)
    results["DILP"] = _mbps(SIZE, t, cal)
    return results


@dataclass
class SandboxOverheadPoint:
    size: int
    unsafe_cycles: int
    sandboxed_cycles: int
    unsafe_insns: int
    sandboxed_insns: int

    @property
    def ratio(self) -> float:
        return self.sandboxed_cycles / self.unsafe_cycles


def sandbox_overhead() -> tuple[list[SandboxOverheadPoint], dict[str, int]]:
    """Section V-D: the application-specific remote write, sandboxed vs
    not, "in isolation, without the cost of communication".

    Returns measurements for 40- and 4096-byte messages plus static
    instruction counts for the generic and application-specific
    handlers.
    """
    cal = DEFAULT
    mem = PhysicalMemory(1 << 20)
    cache = DirectMappedCache(cal)
    vm = Vm(mem, cache=cache, cal=cal)
    data_region = mem.alloc("appdata", 8192)
    msg_region = mem.alloc("msg", 8192)

    # a write-mode copy pipeline, as the handlers would register
    pl = pipel()
    pipeline = compile_pl(pl, PIPE_WRITE, cal=cal)

    def ash_dilp(ctx):
        src, dst, length = ctx.arg(1), ctx.arg(2), ctx.arg(3)
        cycles = cal.trusted_call_check_cycles
        cycles += pipeline.run_fast(mem, src, dst, length, cache)
        return 0, cycles

    env = {"ash_dilp": ash_dilp}

    specific = build_remote_write_specific(ilp_id=1)
    sandboxed, _report = Sandboxer().sandbox(specific)
    generic = build_remote_write_generic(ilp_id=1)

    points = []
    for size in (40, 4096):
        msg = (
            (data_region.base + 64).to_bytes(4, "little")
            + size.to_bytes(4, "little")
            + bytes(size)
        )
        mem.write(msg_region.base, msg)
        cache.flush_all()
        unsafe_res = vm.run(
            specific, args=(msg_region.base, len(msg), 0), env=env,
        )
        cache.flush_all()
        # the application's data is the static region; the message, which
        # moves per run, arrives as the message window (as in
        # AshSystem.invoke)
        boxed_res = vm.run(
            sandboxed, args=(msg_region.base, len(msg), 0), env=env,
            allowed=[(data_region.base, data_region.size)],
            msg_region=(msg_region.base, len(msg)),
        )
        points.append(SandboxOverheadPoint(
            size=size,
            unsafe_cycles=unsafe_res.cycles,
            sandboxed_cycles=boxed_res.cycles,
            unsafe_insns=unsafe_res.insns_executed,
            sandboxed_insns=boxed_res.insns_executed,
        ))

    counts = {
        "specific static insns": len(specific),
        "specific sandboxed static insns": len(sandboxed),
        "generic static insns": len(generic),
    }
    return points, counts
