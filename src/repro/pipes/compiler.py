"""The dynamic-ILP compiler: pipe lists -> integrated transfer engines.

This is the paper's ``compile_pl``: "The ASH pipe compiler dynamically
integrates several pipes into a tightly integrated message transfer
engine which is encoded in a specialized data copying loop."

The compiler emits two artifacts that are kept provably in sync:

1. a **VCODE loop program** (the reference semantics, runnable on the
   interpreting VM with full cycle/cache accounting), and
2. a **vectorized fast path** whose cycle charge is computed from the
   very same emitted loop (per-section instruction costs x iteration
   counts + cache-model stalls on the exact addresses touched), so
   multi-megabyte transfers cost O(1) Python work but the *model* cost
   is identical to interpreting the loop.

Different back ends are generated per network interface (Section
III-C): the contiguous loop for the AN2, and a de-striping loop for the
Ethernet DMA layout.  "Only the back end of the DILP engine should have
to change" — here the back end is the ``interface`` argument.

Gauge conversion (Section II-B: a 16-bit pipe composing with 32-bit
neighbours) is implemented by splitting each 32-bit stream word into
little-endian halves/bytes, running the narrow pipe on each, and
re-aggregating — "it is aggregated into a single register".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import VcodeError
from ..hw.cache import DirectMappedCache
from ..hw.calibration import Calibration, DEFAULT
from ..hw.memory import PhysicalMemory
from ..hw.nic.ethernet import STRIPE_CHUNK, striped_size
from ..vcode.builder import VBuilder
from ..vcode.isa import Insn, Program, insn_cost
from ..vcode.registers import P_VAR
from ..vcode.vm import Vm, VmResult
from .kernels import apply_pipe_at_gauge, gather_striped
from .pipe import P_GAUGE32, Pipe
from .pipelist import PipeList

__all__ = ["TransferMode", "Interface", "IntegratedPipeline", "compile_pl",
           "PIPE_WRITE", "PIPE_READ", "PIPE_INPLACE"]

WORD = 4  # the stream gauge is 32 bits


class TransferMode(enum.Enum):
    WRITE = "write"      #: read src, transform, write dst
    READ = "read"        #: read src only (checksum/verify without a copy)
    INPLACE = "inplace"  #: transform src in place


# the paper's constant names
PIPE_WRITE = TransferMode.WRITE
PIPE_READ = TransferMode.READ
PIPE_INPLACE = TransferMode.INPLACE


class Interface(enum.Enum):
    """Which DMA layout the generated loop reads from."""

    CONTIGUOUS = "contiguous"   #: AN2: data is contiguous in memory
    ETH_STRIPED = "eth-striped" #: Ethernet: 16B data / 16B pad stripes


@dataclass
class _Sections:
    """Per-section cycle costs of the emitted loop."""

    prologue: int = 0
    main_check: int = 0
    main_iter: int = 0    #: body + pointer steps + loop-back jump
    tail_check: int = 0
    tail_iter: int = 0
    epilogue: int = 0
    #: of main_iter/tail_iter, the cycles spent in pipe bodies (the rest
    #: is traversal scaffolding: loads, stores, pointer steps, jumps)
    main_chain: int = 0
    tail_chain: int = 0


class IntegratedPipeline:
    """A compiled pipe list: one loop doing all the work in one pass."""

    def __init__(
        self,
        pl: PipeList,
        mode: TransferMode,
        interface: Interface,
        unroll: int,
        cal: Calibration,
        program: Program,
        sections: _Sections,
        state_regs: dict[tuple[int, str], int],
    ):
        self.pl = pl
        self.mode = mode
        self.interface = interface
        self.unroll = unroll
        self.cal = cal
        self.program = program
        self.sections = sections
        self.state_regs = state_regs
        #: set by the ASH system / data path so runs report metrics
        self.telemetry = None
        #: Vectorized execution requires every pipe to provide a body,
        #: and stateful pipes to be commutative (vector order != loop
        #: order).  The pipe list is frozen into ``program`` here, so
        #: this is decided once, not per transfer.
        self.has_fast_path = all(
            pipe.has_fast_path and (pipe.commutative or not pipe.state_vars)
            for pipe in pl
        )
        #: each pipe with the ``pl.state`` keys of its variables
        self._stages = [
            (pipe, [(var, (pipe.pipe_id, var)) for var in pipe.state_vars])
            for pipe in pl
        ]

    def _check_args(self, nbytes: int) -> None:
        if nbytes % WORD:
            raise VcodeError(
                f"DILP transfers require length % 4 == 0, got {nbytes}"
            )

    def _iters(self, nbytes: int) -> tuple[int, int]:
        step = self.unroll * WORD
        main = nbytes // step
        tail = (nbytes - main * step) // WORD
        return main, tail

    # -- analytic cost (must mirror the VM exactly) ------------------------
    def loop_cycles(self, nbytes: int) -> int:
        """Instruction cycles of one transfer, excluding cache stalls."""
        main, tail = self._iters(nbytes)
        s = self.sections
        return (
            s.prologue
            + (main + 1) * s.main_check
            + main * s.main_iter
            + (tail + 1) * s.tail_check
            + tail * s.tail_iter
            + s.epilogue
        )

    def overhead_cycles(self, nbytes: int) -> int:
        """Cycles of one transfer spent in loop scaffolding (loads,
        stores, pointer steps, checks) rather than pipe bodies."""
        main, tail = self._iters(nbytes)
        s = self.sections
        return (
            self.loop_cycles(nbytes)
            - main * s.main_chain
            - tail * s.tail_chain
        )

    def fusion_saved_cycles(self, nbytes: int) -> int:
        """Estimated cycles saved by integration: running the n pipes as
        separate loops would pay the traversal scaffold n times instead
        of once ("performs the actions of multiple pipes during a single
        data copy")."""
        npipes = len(list(self.pl))
        if npipes <= 1:
            return 0
        return (npipes - 1) * self.overhead_cycles(nbytes)

    def _record(self, nbytes: int, cycles: int) -> None:
        tel = self.telemetry
        if tel is None or not tel.enabled:
            return
        loop = self.program.name
        tel.counter("dilp.runs", loop=loop).inc()
        tel.counter("dilp.bytes", loop=loop).inc(nbytes)
        tel.counter("dilp.cycles", loop=loop).inc(cycles)
        tel.counter("dilp.saved_cycles",
                    loop=loop).inc(self.fusion_saved_cycles(nbytes))

    def _cache_stalls(
        self, cache: DirectMappedCache, src: int, dst: Optional[int], nbytes: int
    ) -> int:
        stalls = 0
        if self.interface is Interface.CONTIGUOUS:
            stalls += cache.touch_range(src, nbytes, is_store=False)
        else:
            full, rem = divmod(nbytes, STRIPE_CHUNK)
            for c in range(full):
                stalls += cache.touch_range(
                    src + c * 2 * STRIPE_CHUNK, STRIPE_CHUNK, is_store=False
                )
            if rem:
                stalls += cache.touch_range(
                    src + full * 2 * STRIPE_CHUNK, rem, is_store=False
                )
        if self.mode is TransferMode.WRITE and dst is not None:
            cache.touch_range(dst, nbytes, is_store=True)
        elif self.mode is TransferMode.INPLACE:
            cache.touch_range(src, nbytes, is_store=True)
        return stalls

    # -- execution ---------------------------------------------------------
    def run_vm(
        self,
        vm: Vm,
        src: int,
        dst: int,
        nbytes: int,
    ) -> VmResult:
        """Execute the emitted loop on the VM (JIT engine by default,
        translated on first use); ``REPRO_VCODE_ENGINE=interp`` gives the
        reference run."""
        self._check_args(nbytes)
        regs = [0] * 32
        for key, reg in self.state_regs.items():
            regs[reg] = self.pl.state[key]
        result = vm.run(self.program, args=(src, dst, nbytes), regs=regs)
        for key, reg in self.state_regs.items():
            self.pl.state[key] = regs[reg]
        self._record(nbytes, result.cycles)
        return result

    def run_fast(
        self,
        mem: PhysicalMemory,
        src: int,
        dst: int,
        nbytes: int,
        cache: Optional[DirectMappedCache] = None,
    ) -> int:
        """Vectorized execution; returns the cycles the loop would take."""
        self._check_args(nbytes)
        if not self.has_fast_path:
            raise VcodeError(
                "pipeline has no vectorized fast path; use run_vm"
            )
        # gather input: a window on the source itself when contiguous —
        # a transforming pipe returns a fresh array, a no_mod pipe its
        # input, so the store below is the transfer's only move.  The
        # window is read-only, so that a body writing its input fails
        # instead of corrupting the source.
        if self.interface is Interface.CONTIGUOUS:
            stream = mem.u8_window(src, nbytes)
            stream.flags.writeable = False
        else:
            buf = mem.u8_window(src, striped_size(nbytes))
            stream = gather_striped(buf, nbytes)
        # one traversal through every pipe
        pl_state = self.pl.state
        for pipe, keys in self._stages:
            state = {}
            for var, key in keys:   # (a loop: a comprehension is a call)
                state[var] = pl_state[key]
            stream = apply_pipe_at_gauge(stream, pipe, state)
            for var, key in keys:
                pl_state[key] = state[var] & 0xFFFFFFFF
        # scatter output
        if self.mode is TransferMode.WRITE:
            mem.u8_window(dst, nbytes)[:] = stream
        elif self.mode is TransferMode.INPLACE:
            mem.u8_window(src, nbytes)[:] = stream
        # cost
        cycles = self.loop_cycles(nbytes)
        if cache is not None:
            cycles += self._cache_stalls(cache, src, dst, nbytes)
        self._record(nbytes, cycles)
        return cycles

    def run(
        self,
        mem: PhysicalMemory,
        src: int,
        dst: int,
        nbytes: int,
        cache: Optional[DirectMappedCache] = None,
    ) -> int:
        """Execute, preferring the fast path; returns cycles."""
        if self.has_fast_path:
            return self.run_fast(mem, src, dst, nbytes, cache)
        vm = Vm(mem, cache=cache, cal=self.cal, telemetry=self.telemetry)
        return self.run_vm(vm, src, dst, nbytes).cycles


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

def _emit_pipe_chain(
    b: VBuilder,
    pipes: list[Pipe],
    state_regs: dict[tuple[int, str], int],
    word_reg: int,
    scratch: list[int],
) -> int:
    """Inline every pipe body for one 32-bit stream word.

    Returns the register holding the final value.  Narrow pipes are fed
    little-endian sub-words and re-aggregated, charging the gauge
    conversion the paper describes.
    """
    cur = word_reg
    for pipe in pipes:
        regs = {var: state_regs[(pipe.pipe_id, var)] for var in pipe.state_vars}
        if pipe.gauge == P_GAUGE32:
            out = scratch[0] if not pipe.no_mod else cur
            pipe.emit(b, cur, out, regs)
            cur = out
        else:
            # pick conversion scratch registers distinct from `cur`
            free = [r for r in scratch if r != cur][:3]
            cur = _emit_narrow_pipe(b, pipe, regs, cur, free)
    return cur


def _emit_narrow_pipe(
    b: VBuilder,
    pipe: Pipe,
    state_regs: dict[str, int],
    cur: int,
    scratch: list[int],
) -> int:
    """Split a 32-bit word, run a narrow-gauge pipe, re-aggregate."""
    part, acc, tmp = scratch[0], scratch[1], scratch[2]
    width = pipe.gauge
    mask = (1 << width) - 1
    pieces = 32 // width
    b.v_li(acc, 0)
    for k in range(pieces):
        # little-endian order: piece k holds bits [k*width, (k+1)*width)
        if k:
            b.v_srl(part, cur, k * width)
            b.v_andi(part, part, mask)
        else:
            b.v_andi(part, cur, mask)
        pipe.emit(b, part, part, state_regs)
        if k:
            b.v_sll(tmp, part, k * width)
            b.v_or(acc, acc, tmp)
        else:
            b.v_or(acc, acc, part)
    b.v_move(cur, acc)
    return cur


def compile_pl(
    pl: PipeList,
    mode: TransferMode = TransferMode.WRITE,
    interface: Interface = Interface.CONTIGUOUS,
    unroll: int = 4,
    cal: Calibration = DEFAULT,
) -> IntegratedPipeline:
    """Compile a pipe list into an integrated transfer engine.

    The generated loop follows the calling convention
    ``A0 = src, A1 = dst, A2 = length`` and processes ``unroll`` 32-bit
    words per main-loop iteration (the Ethernet back end fixes
    ``unroll`` at 4 so one iteration consumes exactly one 16-byte
    stripe).
    """
    if interface is Interface.ETH_STRIPED:
        if unroll != 4:
            raise VcodeError("the striped back end requires unroll=4")
        if mode is TransferMode.INPLACE:
            raise VcodeError("in-place transforms require contiguous data")
    if unroll < 1:
        raise VcodeError("unroll must be >= 1")

    pipes = list(pl)
    b = VBuilder(f"dilp[{'+'.join(p.name for p in pipes) or 'copy'}]")
    sections = _Sections()

    # persistent state registers
    state_regs: dict[tuple[int, str], int] = {}
    for pipe in pipes:
        for var in pipe.state_vars:
            state_regs[(pipe.pipe_id, var)] = b.getreg(P_VAR)

    # scratch registers for the chain and gauge conversion
    word = b.getreg()
    scratch = [b.getreg(), b.getreg(), b.getreg()]
    step_reg = b.getreg()
    remaining = b.A2

    def section_cost(start: int) -> int:
        return sum(
            insn_cost(item, cal)
            for item in b.items[start:]
            if isinstance(item, Insn)
        )

    step_bytes = unroll * WORD
    src_step = 2 * STRIPE_CHUNK if interface is Interface.ETH_STRIPED else step_bytes

    main_check = b.label("main_check")
    tail_check = b.label("tail_check")
    done = b.label("done")

    # -- prologue -----------------------------------------------------------
    mark = len(b.items)
    b.v_li(step_reg, step_bytes)
    sections.prologue = section_cost(mark)

    # -- main loop ----------------------------------------------------------
    mark = len(b.items)
    b.mark(main_check)
    b.v_bltu(remaining, step_reg, tail_check)
    sections.main_check = section_cost(mark)

    mark = len(b.items)
    for w in range(unroll):
        if interface is Interface.ETH_STRIPED:
            off = (w * WORD // STRIPE_CHUNK) * 2 * STRIPE_CHUNK + (w * WORD % STRIPE_CHUNK)
        else:
            off = w * WORD
        b.v_ld32(word, b.A0, off)
        chain_mark = len(b.items)
        final = _emit_pipe_chain(b, pipes, state_regs, word, scratch)
        sections.main_chain += section_cost(chain_mark)
        if mode is TransferMode.WRITE:
            b.v_st32(final, b.A1, w * WORD)
        elif mode is TransferMode.INPLACE:
            b.v_st32(final, b.A0, off)
    b.v_addiu(b.A0, b.A0, src_step)
    if mode is TransferMode.WRITE:
        b.v_addiu(b.A1, b.A1, step_bytes)
    b.v_addiu(remaining, remaining, -step_bytes)
    b.v_j(main_check)
    sections.main_iter = section_cost(mark)

    # -- tail loop (one word at a time) ---------------------------------------
    mark = len(b.items)
    b.mark(tail_check)
    b.v_beq(remaining, b.ZERO, done)
    sections.tail_check = section_cost(mark)

    mark = len(b.items)
    b.v_ld32(word, b.A0, 0)
    chain_mark = len(b.items)
    final = _emit_pipe_chain(b, pipes, state_regs, word, scratch)
    sections.tail_chain += section_cost(chain_mark)
    if mode is TransferMode.WRITE:
        b.v_st32(final, b.A1, 0)
    elif mode is TransferMode.INPLACE:
        b.v_st32(final, b.A0, 0)
    # In the striped back end a tail word advances within the 16-byte data
    # half of a stripe; tails are < 16 bytes, so plain +4 stays inside it.
    b.v_addiu(b.A0, b.A0, WORD)
    if mode is TransferMode.WRITE:
        b.v_addiu(b.A1, b.A1, WORD)
    b.v_addiu(remaining, remaining, -WORD)
    b.v_j(tail_check)
    sections.tail_iter = section_cost(mark)

    # -- epilogue -----------------------------------------------------------
    mark = len(b.items)
    b.mark(done)
    b.v_ret()
    sections.epilogue = section_cost(mark)

    program = b.finish()
    return IntegratedPipeline(
        pl=pl,
        mode=mode,
        interface=interface,
        unroll=unroll,
        cal=cal,
        program=program,
        sections=sections,
        state_regs=state_regs,
    )
