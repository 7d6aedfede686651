"""The VCODE virtual machine: executes handler code in the "kernel".

The VM is the modelled CPU running a downloaded handler's machine code.
It is where the paper's safety story becomes concrete:

* **cycle accounting** — every instruction charges its cost (plus cache
  stalls for loads) against a cycle budget; exceeding the budget raises
  :class:`~repro.errors.BudgetExceeded` (the two-clock-tick timer abort),
* **memory faults** — loads/stores outside physical memory, and checked
  accesses (``chkld``/``chkst``, inserted by the sandboxer) outside the
  handler's *allowed regions*, raise :class:`~repro.errors.MemoryFault`,
* **jump faults** — indirect jumps outside the program raise
  :class:`~repro.errors.JumpFault`,
* **prevented exceptions** — ``divu`` by zero raises
  :class:`~repro.errors.ArithmeticFault`; forbidden (signed/FP) opcodes
  are refused outright.

Execution is synchronous; the caller charges ``result.cycles`` to the
simulated CPU afterwards.  Side-effectful trusted calls are recorded in
``result.call_log`` with the cycle offset at which they happened so the
ASH runtime can time externally-visible actions (message sends)
correctly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..errors import (
    ArithmeticFault,
    BudgetExceeded,
    JumpFault,
    MemoryFault,
    VcodeError,
    VmFault,
)
from ..hw.cache import DirectMappedCache
from ..hw.calibration import Calibration, DEFAULT
from ..hw.memory import PhysicalMemory
from .isa import (
    FORBIDDEN_OPS,
    Insn,
    NUM_REGS,
    Program,
    REG_A0,
    REG_V0,
    REG_ZERO,
    insn_cost,
)

__all__ = ["Vm", "VmResult", "TrustedCallContext", "ENGINES", "ENV_ENGINE"]

from . import jit  # noqa: E402  (jit imports vm lazily; no cycle)

MASK32 = 0xFFFFFFFF

#: hard cap on instructions for un-budgeted runs (unit tests, tools)
DEFAULT_MAX_INSNS = 50_000_000

#: valid execution engines; "jit" is the default (see README
#: "Execution engines" — both produce bit-identical VmResults)
ENGINES = ("jit", "interp")

#: environment override for the default engine
ENV_ENGINE = "REPRO_VCODE_ENGINE"


@dataclass
class TrustedCallContext:
    """What a trusted kernel call sees: the VM registers and memory."""

    vm: "Vm"
    regs: list[int]
    cycles: int     #: cycles consumed so far (at the call instruction)

    def arg(self, i: int) -> int:
        """i-th argument register (A0..A3)."""
        return self.regs[REG_A0 + i]


#: A trusted call: ctx -> (return value for V0, extra cycles to charge).
TrustedCall = Callable[[TrustedCallContext], tuple[int, int]]


@dataclass
class VmResult:
    value: int                       #: V0 at exit
    regs: list[int]
    cycles: int
    insns_executed: int
    call_log: list[tuple[str, int, int]] = field(default_factory=list)
    #: (name, cycles_at_call, return_value) per trusted call, in order


def _cksum32(acc: int, val: int) -> int:
    """One's-complement 32-bit accumulate with end-around carry."""
    total = acc + val
    while total > MASK32:
        total = (total & MASK32) + (total >> 32)
    return total


def _bswap32(v: int) -> int:
    return (
        ((v & 0x000000FF) << 24)
        | ((v & 0x0000FF00) << 8)
        | ((v & 0x00FF0000) >> 8)
        | ((v & 0xFF000000) >> 24)
    )


def _bswap16(v: int) -> int:
    v &= 0xFFFF
    return ((v & 0xFF) << 8) | (v >> 8)


class Vm:
    """Executes assembled VCODE programs (JIT by default, with a
    reference interpreter for differential testing and deopt resume)."""

    def __init__(
        self,
        memory: PhysicalMemory,
        cache: Optional[DirectMappedCache] = None,
        cal: Calibration = DEFAULT,
        telemetry=None,
    ):
        self.memory = memory
        self.cache = cache
        self.cal = cal
        self.telemetry = telemetry
        # the environment default is stable for the Vm's lifetime; read
        # it once instead of hitting os.environ on every run()
        self._env_default = os.environ.get(ENV_ENGINE) or "jit"

    def _resolve_engine(self, engine: Optional[str]) -> str:
        eng = engine or self._env_default
        if eng not in ENGINES:
            raise VcodeError(
                f"unknown execution engine {eng!r} (expected one of {ENGINES})"
            )
        return eng

    def run(
        self,
        program: Program,
        args: tuple[int, ...] = (),
        regs: Optional[list[int]] = None,
        env: Optional[dict[str, TrustedCall]] = None,
        cycle_budget: Optional[int] = None,
        allowed: Optional[list[tuple[int, int]]] = None,
        max_insns: int = DEFAULT_MAX_INSNS,
        engine: Optional[str] = None,
        msg_region: Optional[tuple[int, int]] = None,
    ) -> VmResult:
        """Execute ``program`` and return a :class:`VmResult`.

        ``args`` load into A0..A3.  ``regs`` (if given) is the incoming
        register file — this is how persistent registers survive across
        invocations; it is mutated in place.  ``allowed`` is the region
        list the sandbox checks consult, and ``msg_region`` one more
        region checked the same way: the one that moves from run to run
        (the message buffer), which the JIT therefore keeps out of the
        list it specializes on.  ``cycle_budget`` is the abort threshold
        (None = unlimited, for trusted code).

        ``engine`` picks the execution engine: ``"jit"`` (default)
        translates the program to native Python via
        :mod:`repro.vcode.jit` and caches it; ``"interp"`` is the
        reference interpreter.  Both produce bit-identical results; the
        call-site argument overrides the ``REPRO_VCODE_ENGINE``
        environment variable.
        """
        if len(args) > 4:
            raise VcodeError("at most 4 register arguments")
        if regs is None:
            regs = [0] * NUM_REGS
        for i, arg in enumerate(args):
            regs[REG_A0 + i] = arg & MASK32
        env = env or {}
        static = allowed or []
        allowed = static if msg_region is None else static + [msg_region]
        # Normalize the hardwired zero register before dispatch: the
        # interpreter resets it after every instruction, the JIT folds it
        # to the literal 0, and both assume it starts out as 0.
        regs[REG_ZERO] = 0
        eng = engine or self._env_default
        if eng != "jit":
            self._resolve_engine(eng)  # raises on unknown engines
        elif program.jit_safe is not False:
            compiled = jit.get_compiled(
                program, self.cal, self.cache is not None, self.telemetry,
                static,
            )
            if compiled is not None:
                call_log: list[tuple[str, int, int]] = []
                out = compiled.fn(
                    self, regs, env, cycle_budget, allowed, max_insns,
                    call_log, msg_region or (0, 0),
                )
                if out[0] == 0:
                    return VmResult(
                        value=out[1],
                        regs=regs,
                        cycles=out[2],
                        insns_executed=out[3],
                        call_log=call_log,
                    )
                # Deoptimization: the compiled code could not prove the
                # next chunk stays within budget/instruction-cap (or hit
                # an indirect jump to an unknown target); resume in the
                # reference interpreter from the exact machine state so
                # faults and accounting stay bit-identical.
                tel = self.telemetry
                if tel is not None and tel.enabled:
                    tel.counter("vcode.jit.deopts").inc()
                return self._interp(
                    program, regs, env, cycle_budget, allowed, max_insns,
                    pc=out[1], cycles=out[2], executed=out[3],
                    call_log=call_log,
                )
        return self._interp(program, regs, env, cycle_budget, allowed, max_insns)

    def _interp(
        self,
        program: Program,
        regs: list[int],
        env: dict[str, TrustedCall],
        cycle_budget: Optional[int],
        allowed: list[tuple[int, int]],
        max_insns: int,
        pc: int = 0,
        cycles: int = 0,
        executed: int = 0,
        call_log: Optional[list[tuple[str, int, int]]] = None,
    ) -> VmResult:
        """Reference interpreter.

        The non-zero ``pc``/``cycles``/``executed``/``call_log`` entry
        points exist for JIT deoptimization: compiled code that cannot
        prove the next chunk stays within the cycle budget writes back
        its state and resumes here, mid-program.
        """
        mem = self.memory
        cache = self.cache
        cal = self.cal
        insns = program.insns
        nprog = len(insns)

        if call_log is None:
            call_log = []
        # The forbidden-op gate is invariant per program: scan once
        # (cached on the Program) and skip the per-instruction set
        # membership test entirely for clean code.
        has_forbidden = bool(program.forbidden_pcs)

        def check_range(addr: int, size: int) -> None:
            for base, rsize in allowed:
                if base <= addr and addr + size <= base + rsize:
                    return
            raise MemoryFault(
                f"{program.name}: checked access to {addr:#x}+{size} outside "
                f"allowed regions"
            )

        try:
            while pc < nprog:
                insn = insns[pc]
                op = insn.op
                if has_forbidden and op in FORBIDDEN_OPS:
                    raise VmFault(
                        f"{program.name}: refused forbidden instruction {op!r} "
                        f"at {pc}"
                    )
                cycles += insn_cost(insn, cal)
                executed += 1
                if cycle_budget is not None and cycles > cycle_budget:
                    raise BudgetExceeded(
                        f"{program.name}: exceeded cycle budget "
                        f"({cycles} > {cycle_budget}) at pc={pc}"
                    )
                if executed > max_insns:
                    raise BudgetExceeded(
                        f"{program.name}: exceeded instruction cap {max_insns}"
                    )
                next_pc = pc + 1

                if op == "addu":
                    regs[insn.rd] = (regs[insn.rs] + regs[insn.rt]) & MASK32
                elif op == "addiu":
                    regs[insn.rd] = (regs[insn.rs] + insn.imm) & MASK32
                elif op == "subu":
                    regs[insn.rd] = (regs[insn.rs] - regs[insn.rt]) & MASK32
                elif op == "multu":
                    regs[insn.rd] = (regs[insn.rs] * regs[insn.rt]) & MASK32
                elif op == "divu":
                    if regs[insn.rt] == 0:
                        raise ArithmeticFault(
                            f"{program.name}: divide by zero at pc={pc}"
                        )
                    regs[insn.rd] = (regs[insn.rs] // regs[insn.rt]) & MASK32
                elif op == "and":
                    regs[insn.rd] = regs[insn.rs] & regs[insn.rt]
                elif op == "or":
                    regs[insn.rd] = regs[insn.rs] | regs[insn.rt]
                elif op == "xor":
                    regs[insn.rd] = regs[insn.rs] ^ regs[insn.rt]
                elif op == "nor":
                    regs[insn.rd] = ~(regs[insn.rs] | regs[insn.rt]) & MASK32
                elif op == "sltu":
                    regs[insn.rd] = 1 if regs[insn.rs] < regs[insn.rt] else 0
                elif op == "sltiu":
                    regs[insn.rd] = 1 if regs[insn.rs] < (insn.imm & MASK32) else 0
                elif op == "andi":
                    regs[insn.rd] = regs[insn.rs] & (insn.imm & MASK32)
                elif op == "ori":
                    regs[insn.rd] = regs[insn.rs] | (insn.imm & MASK32)
                elif op == "xori":
                    regs[insn.rd] = regs[insn.rs] ^ (insn.imm & MASK32)
                elif op == "sll":
                    regs[insn.rd] = (regs[insn.rs] << (insn.imm & 31)) & MASK32
                elif op == "srl":
                    regs[insn.rd] = regs[insn.rs] >> (insn.imm & 31)
                elif op == "sllv":
                    regs[insn.rd] = (regs[insn.rs] << (regs[insn.rt] & 31)) & MASK32
                elif op == "srlv":
                    regs[insn.rd] = regs[insn.rs] >> (regs[insn.rt] & 31)
                elif op == "li":
                    regs[insn.rd] = insn.imm & MASK32
                elif op == "nop":
                    pass
                elif op == "ld32":
                    addr = (regs[insn.rs] + insn.imm) & MASK32
                    if cache is not None:
                        cycles += cache.load(addr, 4)
                    regs[insn.rd] = mem.load_u32(addr)
                elif op == "ld16":
                    addr = (regs[insn.rs] + insn.imm) & MASK32
                    if cache is not None:
                        cycles += cache.load(addr, 2)
                    regs[insn.rd] = mem.load_u16(addr)
                elif op == "ld8":
                    addr = (regs[insn.rs] + insn.imm) & MASK32
                    if cache is not None:
                        cycles += cache.load(addr, 1)
                    regs[insn.rd] = mem.load_u8(addr)
                elif op == "st32":
                    addr = (regs[insn.rs] + insn.imm) & MASK32
                    if cache is not None:
                        cache.store(addr, 4)
                    mem.store_u32(addr, regs[insn.rt])
                elif op == "st16":
                    addr = (regs[insn.rs] + insn.imm) & MASK32
                    if cache is not None:
                        cache.store(addr, 2)
                    mem.store_u16(addr, regs[insn.rt])
                elif op == "st8":
                    addr = (regs[insn.rs] + insn.imm) & MASK32
                    if cache is not None:
                        cache.store(addr, 1)
                    mem.store_u8(addr, regs[insn.rt])
                elif op == "beq":
                    if regs[insn.rs] == regs[insn.rt]:
                        next_pc = insn.target
                elif op == "bne":
                    if regs[insn.rs] != regs[insn.rt]:
                        next_pc = insn.target
                elif op == "bltu":
                    if regs[insn.rs] < regs[insn.rt]:
                        next_pc = insn.target
                elif op == "bgeu":
                    if regs[insn.rs] >= regs[insn.rt]:
                        next_pc = insn.target
                elif op == "j":
                    next_pc = insn.target
                elif op == "jr":
                    target = regs[insn.rs]
                    if not 0 <= target <= nprog:
                        raise JumpFault(
                            f"{program.name}: indirect jump to {target} outside "
                            f"code (len {nprog}) at pc={pc}"
                        )
                    next_pc = target
                elif op == "ret":
                    break
                elif op == "call":
                    fn = env.get(insn.label)
                    if fn is None:
                        raise JumpFault(
                            f"{program.name}: call to unknown trusted entry "
                            f"{insn.label!r} at pc={pc}"
                        )
                    ctx = TrustedCallContext(vm=self, regs=regs, cycles=cycles)
                    value, extra = fn(ctx)
                    regs[REG_V0] = value & MASK32
                    cycles += extra
                    call_log.append((insn.label, cycles, value & MASK32))
                elif op == "cksum32":
                    regs[insn.rd] = _cksum32(regs[insn.rd], regs[insn.rs])
                elif op == "bswap32":
                    regs[insn.rd] = _bswap32(regs[insn.rs])
                elif op == "bswap16":
                    regs[insn.rd] = _bswap16(regs[insn.rs])
                elif op == "chkld" or op == "chkst":
                    addr = (regs[insn.rs] + (insn.imm or 0)) & MASK32
                    size = insn.rt if insn.rt else 4
                    check_range(addr, size)
                elif op == "chkjmp":
                    target = regs[insn.rs]
                    if program.jump_map is not None:
                        # Sandboxed code computes jump targets in terms of the
                        # pre-sandbox layout; translate valid label addresses
                        # and abort on anything else.
                        if target in program.jump_map:
                            regs[insn.rs] = program.jump_map[target]
                        else:
                            raise JumpFault(
                                f"{program.name}: chkjmp rejected unsandboxed "
                                f"target {target} at pc={pc}"
                            )
                    elif not 0 <= target <= nprog:
                        raise JumpFault(
                            f"{program.name}: chkjmp rejected target {target} "
                            f"at pc={pc}"
                        )
                elif op == "chkbudget":
                    # The budget itself is enforced above on every instruction
                    # (the "timer"); this opcode models the *cost* of a pure
                    # software check at a loop back-edge.
                    pass
                else:  # pragma: no cover - OPCODES is exhaustive
                    raise VcodeError(f"unimplemented opcode {op!r}")

                regs[REG_ZERO] = 0  # hardwired
                pc = next_pc
        except VmFault as exc:
            # Attach accounting so the ASH runtime can charge the
            # cycles a faulting handler burnt before its abort.
            exc.cycles = cycles
            exc.insns_executed = executed
            raise

        return VmResult(
            value=regs[REG_V0],
            regs=regs,
            cycles=cycles,
            insns_executed=executed,
            call_log=call_log,
        )
