"""The VCODE JIT: dynamic code generation for the handler hot path.

The paper's performance story *is* dynamic code generation — DPF
"compil[es] packet filters to executable code when they are installed",
and the pipe compiler integrates pipes "encoded in a specialized data
copying loop".  This module applies the same idea to our modelled CPU
itself: instead of pushing every handler instruction through the
interpreter's ~60-arm dispatch chain, a :class:`~repro.vcode.isa.Program`
is translated once into a single ``exec``-generated Python function
(threaded code, one suite per basic block) and cached by content hash.

The translation is *specializing*:

* register accesses become Python locals (``r8``), loaded from the
  caller's register file at entry and written back at exit, around
  trusted calls, and on faults;
* instruction costs are constant-folded — a basic block charges its
  cycle sum in one ``cycles += K`` instead of per-instruction adds;
* immediates, masks, branch targets, sandbox-check sizes, the
  calibration's per-op costs and the presence of a data cache are all
  baked into the generated source;
* the forbidden-op check disappears: the translator sees every opcode
  at compile time and emits an inline trap only where a forbidden
  instruction actually occurs;
* the memory and cache *models* are inlined: a ``ld32`` becomes a
  direct-mapped tag probe (line size, set count and miss penalty are
  compile-time constants), an inline bounds check with the exact
  :class:`~repro.errors.MemoryFault` message, and a little-endian read
  of the backing ``bytearray`` — no method calls on the hot path.
  Cache hit/miss counters accumulate in locals and flush to the cache
  object at every observable exit (fault, trusted call, deopt, return).

**Bit-identical semantics.**  The JIT must produce exactly the
interpreter's :class:`~repro.vcode.vm.VmResult` — cycles, executed
count, call-log cycle offsets, fault type/message and the register file
— including the per-instruction budget/instruction-cap abort points.
Cheap per-instruction checks would forfeit the speedup, so the
generated code uses *deoptimization*: each straight-line chunk is
guarded by one conservative precheck (entry cycles + worst-case chunk
cost, where the worst case bounds every load's possible cache stalls).
If the chunk could trip the cycle budget or instruction cap, the
function writes its state back and returns a ``deopt`` record; the VM
resumes in the interpreter from that exact pc, which then reproduces
the abort (or completes) with reference semantics.  Chunks that pass
the precheck provably cannot fault on budget, so they run with no
per-instruction checks at all.

Memory faults, arithmetic faults, jump faults and trusted calls are
observable events: the generated code materializes exact ``cycles`` /
``executed`` values immediately before each one, so fault accounting
and ``call_log`` offsets match the interpreter to the cycle.

The translation also aggregates the sandbox's region checks at
initiation time, exactly as the paper's trusted calls do (III-B2): when
a run supplies a small ``allowed`` region list, the list is baked into
the generated source as constant interval tests and becomes part of the
code-cache key, so ``chkld``/``chkst`` cost a couple of compares
instead of a Python loop over tuples.  The one region that moves per
invocation — the message buffer — arrives separately (``msg``) and is
tested against two locals, so it never enters the key.

The code cache is keyed by ``(content hash, calibration, has-cache,
allowed-regions)``.
Compile cost is charged to telemetry as a deterministic proxy
(``COMPILE_CYCLES_PER_INSN`` per translated instruction) so canonical
telemetry sidecars stay byte-stable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import (
    ArithmeticFault,
    JumpFault,
    MemoryFault,
    VcodeError,
    VmFault,
)
from ..hw.calibration import Calibration
from ..hw.memory import _ALIGN as _MEM_BASE
from .isa import (
    ALU_OPS,
    ALU_IMM_OPS,
    BRANCH_OPS,
    FORBIDDEN_OPS,
    LOAD_OPS,
    STORE_OPS,
    Insn,
    Program,
    insn_cost,
)

__all__ = [
    "CompiledProgram",
    "JitError",
    "clear_code_cache",
    "code_cache_size",
    "get_compiled",
    "program_fingerprint",
    "stats",
    "COMPILE_CYCLES_PER_INSN",
]

MASK32 = 0xFFFFFFFF
_INF_BUDGET = 0x7FFFFFFFFFFFFFFF

#: deterministic modelled cost of translating one VCODE instruction,
#: charged to the ``vcode.jit.compile_cycles`` counter (a proxy for the
#: real, wall-clock codegen cost, which must not leak into deterministic
#: telemetry snapshots).
COMPILE_CYCLES_PER_INSN = 10

#: region lists longer than this are not baked into the code (one
#: compiled specialization per distinct list would stop paying off)
MAX_BAKED_REGIONS = 8

_ACCESS_SIZE = {"ld8": 1, "ld16": 2, "ld32": 4, "st8": 1, "st16": 2, "st32": 4}


class JitError(VcodeError):
    """Translation failed (the VM falls back to the interpreter)."""


@dataclass
class JitStats:
    """Process-wide code-cache accounting (see also the telemetry
    counters ``vcode.jit.cache_hits`` / ``cache_misses``)."""

    hits: int = 0
    misses: int = 0

    def reset(self) -> None:
        self.hits = self.misses = 0


#: module-wide stats; reset via ``stats.reset()`` (benchmarks do)
stats = JitStats()

#: (fingerprint, calibration, has_cache, baked region list or None)
#: -> CompiledProgram
_CODE_CACHE: dict[tuple, "CompiledProgram"] = {}

#: bumped by :func:`clear_code_cache` so per-Program lookup memos (which
#: the global clear cannot reach) invalidate themselves
_cache_epoch = 0


class CompiledProgram:
    """One translated program: the entry function plus metadata.

    ``fn(vm, regs, env, cycle_budget, allowed, max_insns, call_log, msg)``
    returns ``(0, value, cycles, executed)`` on completion or
    ``(1, pc, cycles, executed)`` to request interpreter resumption
    (deoptimization) from ``pc`` with the given accounting state.
    """

    __slots__ = ("fn", "n_insns", "source")

    def __init__(self, fn: Callable, n_insns: int, source: str):
        self.fn = fn
        self.n_insns = n_insns
        self.source = source


# ---------------------------------------------------------------------------
# cache management
# ---------------------------------------------------------------------------

def program_fingerprint(program: Program) -> str:
    """Content hash of everything the translation depends on: branches
    by resolved ``target``, labels by the positions :func:`_leaders`
    reads, and a label name only as a ``call``'s trusted entry (the
    builder numbers anonymous labels process-wide)."""
    cached = program.__dict__.get("_jit_fingerprint")
    if cached is not None:
        return cached
    h = hashlib.sha256()
    h.update(program.name.encode())
    h.update(b"|%d" % int(program.sandboxed))
    if program.jump_map is not None:
        h.update(repr(sorted(program.jump_map.items())).encode())
    h.update(repr(sorted(set(program.labels.values()))).encode())
    for insn in program.insns:
        entry = insn.label if insn.op == "call" else None
        h.update(
            f"|{insn.op},{insn.rd},{insn.rs},{insn.rt},"
            f"{insn.imm},{entry},{insn.target}".encode()
        )
    fp = h.hexdigest()
    program.__dict__["_jit_fingerprint"] = fp
    return fp


def clear_code_cache() -> None:
    """Drop every compiled program (cold-cache benchmarking)."""
    global _cache_epoch
    _CODE_CACHE.clear()
    _cache_epoch += 1


def code_cache_size() -> int:
    return len(_CODE_CACHE)


_UNSEEN = object()


def _allowed_key(program: Program, allowed) -> Optional[tuple]:
    """The allowed-region component of the code-cache key.

    Region checks are baked into the generated source (the paper's
    aggregated initiation-time checks), so programs containing
    ``chkld``/``chkst`` specialize per region list.  None means "keep
    the generic runtime loop" (no chk ops, or an oversized list).

    Specialization is *monomorphic*: the first region list a program
    runs with is baked; if a later run supplies a different list, the
    program permanently falls back to the generic loop — otherwise a
    caller that moves a region per run would force a fresh translation
    each time.  (The ASH receive path's per-packet message buffer is
    not in this list: see ``msg`` in :class:`CompiledProgram`.)"""
    uses_chk = program.__dict__.get("_jit_uses_chk")
    if uses_chk is None:
        uses_chk = any(i.op in ("chkld", "chkst") for i in program.insns)
        program.__dict__["_jit_uses_chk"] = uses_chk
    if not uses_chk or allowed is None or len(allowed) > MAX_BAKED_REGIONS:
        return None
    seen = program.__dict__.get("_jit_seen_allowed", _UNSEEN)
    if seen is None:  # already went polymorphic
        return None
    ak = tuple(allowed)
    if seen is _UNSEEN:
        program.__dict__["_jit_seen_allowed"] = ak
        return ak
    if seen != ak:
        program.__dict__["_jit_seen_allowed"] = None  # polymorphic
        return None
    return seen


def get_compiled(
    program: Program,
    cal: Calibration,
    has_cache: bool,
    telemetry=None,
    allowed=None,
) -> Optional[CompiledProgram]:
    """Look up or translate ``program``; None if translation failed."""
    ak = _allowed_key(program, allowed)
    # Fast path: a per-Program memo avoids hashing the fingerprint and
    # the (40-field, dataclass-hashed) Calibration on every invocation.
    # Guarded by calibration identity and the cache epoch so it can
    # never outlive a clear_code_cache() or a different calibration.
    memo = program.__dict__.get("_jit_memo")
    if memo is not None:
        entry = memo.get((has_cache, ak))
        if entry is not None and entry[0] is cal and entry[2] == _cache_epoch:
            stats.hits += 1
            if telemetry is not None and telemetry.enabled:
                telemetry.counter("vcode.jit.cache_hits").inc()
            return entry[1]
    fp = program_fingerprint(program)
    key = (fp, cal, has_cache, ak)
    compiled = _CODE_CACHE.get(key)
    tel_on = telemetry is not None and telemetry.enabled
    if compiled is not None:
        stats.hits += 1
        if tel_on:
            telemetry.counter("vcode.jit.cache_hits").inc()
        program.__dict__.setdefault("_jit_memo", {})[(has_cache, ak)] = (
            cal, compiled, _cache_epoch
        )
        return compiled
    stats.misses += 1
    if tel_on:
        telemetry.counter("vcode.jit.cache_misses").inc()
    try:
        compiled = _translate(program, key)
    except Exception:
        program.jit_safe = False  # don't retry a failing translation
        return None
    if tel_on:
        telemetry.counter("vcode.jit.compile_cycles").inc(
            COMPILE_CYCLES_PER_INSN * compiled.n_insns
        )
    _CODE_CACHE[key] = compiled
    program.__dict__.setdefault("_jit_memo", {})[(has_cache, ak)] = (
        cal, compiled, _cache_epoch
    )
    program.jit_safe = True
    return compiled


# ---------------------------------------------------------------------------
# translation
# ---------------------------------------------------------------------------

def _register_fields(insn: Insn) -> tuple[list[int], list[int]]:
    """(read registers, written registers) of one instruction.

    ``chkld``/``chkst`` carry the access *size* in ``rt`` — not a
    register — which is why this cannot just scan the rd/rs/rt fields.
    """
    op = insn.op
    reads: list[int] = []
    writes: list[int] = []
    if op in ALU_OPS or op == "divu":
        reads += [insn.rs, insn.rt]
        writes.append(insn.rd)
    elif op in ALU_IMM_OPS:
        reads.append(insn.rs)
        writes.append(insn.rd)
    elif op == "li":
        writes.append(insn.rd)
    elif op in LOAD_OPS:
        reads.append(insn.rs)
        writes.append(insn.rd)
    elif op in STORE_OPS:
        reads += [insn.rs, insn.rt]
    elif op in BRANCH_OPS:
        reads += [insn.rs, insn.rt]
    elif op in ("jr", "chkjmp"):
        reads.append(insn.rs)
        if op == "chkjmp":
            writes.append(insn.rs)  # jump-map translation rewrites rs
    elif op in ("chkld", "chkst"):
        reads.append(insn.rs)
    elif op == "cksum32":
        reads += [insn.rd, insn.rs]
        writes.append(insn.rd)
    elif op in ("bswap32", "bswap16"):
        reads.append(insn.rs)
        writes.append(insn.rd)
    # nop/ret/j/call/chkbudget/forbidden: no direct register operands
    return ([r for r in reads if r is not None],
            [r for r in writes if r is not None])


def _leaders(program: Program) -> list[int]:
    """Basic-block leader pcs (always includes 0 and len(program))."""
    nprog = len(program.insns)
    leaders = {0, nprog}
    for pc, insn in enumerate(program.insns):
        op = insn.op
        if op in BRANCH_OPS or op == "j":
            if insn.target is not None:
                leaders.add(insn.target)
            leaders.add(pc + 1)
        elif op in ("jr", "ret"):
            leaders.add(pc + 1)
    # any label is a potential indirect-jump target; jump-map values are
    # what sandboxed chkjmp+jr pairs actually land on
    leaders.update(program.labels.values())
    if program.jump_map is not None:
        leaders.update(program.jump_map.values())
    return sorted(x for x in leaders if 0 <= x <= nprog)


def _max_lines_touched(size: int, line: int) -> int:
    """Upper bound on cache lines a ``size``-byte access can span."""
    return (size - 2) // line + 2 if size > 1 else 1


class _Emitter:
    """Source assembly helper with indent tracking."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def w(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _translate(program: Program, key: tuple) -> CompiledProgram:
    """Translate ``program`` for its code-cache ``key``, under a code
    name unique to the key so a profile keeps translations apart."""
    _, cal, has_cache, allowed_key = key
    insns = program.insns
    nprog = len(insns)
    name = program.name

    # -- analysis ----------------------------------------------------------
    used_regs: set[int] = set()
    used_ops: set[str] = set()
    for insn in insns:
        reads, writes = _register_fields(insn)
        used_regs.update(reads)
        used_regs.update(writes)
        used_ops.add(insn.op)
    has_call = "call" in used_ops
    if has_call:
        used_regs.add(2)  # V0 receives trusted-call return values
    used_regs.discard(0)  # the zero register folds to the literal 0
    regs_sorted = sorted(used_regs)

    leaders = _leaders(program)
    starts = [x for x in leaders if x < nprog]
    block_of = {start: bid for bid, start in enumerate(starts)}
    exit_id = len(starts)
    leader_map = dict(block_of)
    leader_map[nprog] = exit_id

    def R(reg: Optional[int]) -> str:
        return "0" if not reg else f"r{reg}"

    def W(reg: Optional[int]) -> str:
        return "_" if not reg else f"r{reg}"

    uses_mem = bool(used_ops & (LOAD_OPS | STORE_OPS))
    # cache-model constants, baked into the generated source
    cline = cal.cache_line
    cnlines = cal.cache_size // cal.cache_line
    cmiss = cal.miss_penalty_cycles
    cinstall = cal.store_installs_line
    inline_cache = has_cache and uses_mem
    # an access wider than a line can span >2 lines; keep the model call
    need_cl = has_cache and any(
        _ACCESS_SIZE[op] > cline for op in used_ops & LOAD_OPS
    )
    need_cs = has_cache and any(
        _ACCESS_SIZE[op] > cline for op in used_ops & STORE_OPS
    )

    e = _Emitter()
    w = e.w
    w(0, "def _jit_entry(vm, regs, env, cycle_budget, allowed, max_insns,"
         " call_log, msg):")
    if allowed_key is not None:
        w(1, "_mb, _mz = msg")
    if uses_mem:
        w(1, "mem = vm.memory")
        w(1, "_mdata = mem.data")
        w(1, "_msize = mem.size")
    if "ld32" in used_ops:
        w(1, "_ifb = int.from_bytes")
    if inline_cache:
        w(1, "_cache = vm.cache")
        w(1, "_tags = _cache._tags")
        w(1, "_chit = 0")
        w(1, "_cmiss = 0")
    if need_cl:
        w(1, "_cl = _cache.load")
    if need_cs:
        w(1, "_cs = _cache.store")
    w(1, f"_bud = cycle_budget if cycle_budget is not None else {_INF_BUDGET}")
    w(1, "cycles = 0")
    w(1, "executed = 0")
    if has_call:
        w(1, "_incall = False")
    for reg in regs_sorted:
        w(1, f"r{reg} = regs[{reg}]")

    writeback = [f"regs[{reg}] = r{reg}" for reg in regs_sorted]
    reload_ = [f"r{reg} = regs[{reg}]" for reg in regs_sorted]

    w(1, "try:")
    w(2, "_b = 0")
    w(2, "while True:")

    # pending constant-folded accounting, flushed at observable points
    pend = {"c": 0, "e": 0}

    def flush(ind: int) -> None:
        if pend["c"]:
            w(ind, f"cycles += {pend['c']}")
        if pend["e"]:
            w(ind, f"executed += {pend['e']}")
        pend["c"] = pend["e"] = 0

    def pend_now(ind: int) -> None:
        """Materialize pending accounting on a fault branch (which
        raises, so the fall-through path keeps accumulating).  Cycle
        totals only need to be exact at observable points; deferring
        the adds keeps them off the hot path."""
        if pend["c"]:
            w(ind, f"cycles += {pend['c']}")
        if pend["e"]:
            w(ind, f"executed += {pend['e']}")

    def emit_writeback(ind: int) -> None:
        for line in writeback:
            w(ind, line)

    def emit_cache_flush(ind: int) -> None:
        """Publish locally-accumulated hit/miss counts to the cache
        object (before anything observable can read or replace them)."""
        if not inline_cache:
            return
        w(ind, "_cache.hits += _chit")
        w(ind, "_cache.misses += _cmiss")
        w(ind, "_chit = 0")
        w(ind, "_cmiss = 0")

    def emit_cache_touch(ind: int, size: int, is_store: bool) -> None:
        """Inline DirectMappedCache.touch_range for an access at ``_a``.

        A ``size``-byte access with ``size <= line`` touches at most two
        lines, so the tag walk unrolls to one probe plus a guarded
        second; anything wider falls back to the model call.
        """
        if size > cline:
            w(ind, f"_cs(_a, {size})" if is_store
                   else f"cycles += _cl(_a, {size})")
            return
        pow2 = cline & (cline - 1) == 0 and cnlines & (cnlines - 1) == 0
        shift = cline.bit_length() - 1

        def probe(ind2: int) -> None:
            if pow2:
                w(ind2, f"_i = _la >> {shift} & {cnlines - 1}")
            else:
                w(ind2, f"_i = _la // {cline} % {cnlines}")
            w(ind2, "if _tags[_i] == _la:")
            w(ind2 + 1, "_chit += 1")
            w(ind2, "else:")
            w(ind2 + 1, "_cmiss += 1")
            if is_store:
                if cinstall:
                    w(ind2 + 1, "_tags[_i] = _la")
            else:
                w(ind2 + 1, f"cycles += {cmiss}")
                w(ind2 + 1, "_tags[_i] = _la")

        if pow2:
            w(ind, f"_la = _a & {-cline}")
        else:
            w(ind, f"_la = _a - _a % {cline}")
        probe(ind)
        if size > 1:
            if pow2:
                w(ind, f"if _a & {cline - 1} > {cline - size}:")
            else:
                w(ind, f"if _a + {size - 1} >= _la + {cline}:")
            w(ind + 1, f"_la += {cline}")
            probe(ind + 1)

    def emit_bounds(ind: int, size: int) -> None:
        """Inline PhysicalMemory._check with its exact fault message."""
        w(ind, f"if _a < {_MEM_BASE} or _a + {size} > _msize:")
        pend_now(ind + 1)
        w(ind + 1, "raise _MemoryFault('physical access out of range: ['"
                   f" + str(_a) + ', ' + str(_a + {size}) + ')')")

    def emit_addr(ind: int, rs: Optional[int], imm: Optional[int]) -> None:
        if imm:
            w(ind, f"_a = ({R(rs)} + {imm}) & {MASK32}")
        else:
            w(ind, f"_a = {R(rs)} & {MASK32}")

    def emit_precheck(ind: int, chunk_pc: int, chunk: list[Insn]) -> None:
        """One conservative budget/cap guard for a straight-line chunk."""
        worst = 0
        for insn in chunk:
            worst += insn_cost(insn, cal)
            if has_cache and insn.op in LOAD_OPS:
                worst += cal.miss_penalty_cycles * _max_lines_touched(
                    _ACCESS_SIZE[insn.op], cal.cache_line
                )
        n = len(chunk)
        w(ind, f"if cycles + {worst} > _bud or executed + {n} > max_insns:")
        emit_writeback(ind + 1)
        emit_cache_flush(ind + 1)
        w(ind + 1, f"return (1, {chunk_pc}, cycles, executed)")

    def emit_insn(ind: int, pc: int, insn: Insn) -> bool:
        """Emit one instruction; True if it unconditionally leaves the
        block (so the remaining instructions are unreachable)."""
        op = insn.op
        if op in FORBIDDEN_OPS:
            # the interpreter refuses *before* charging this instruction
            flush(ind)
            msg = f"{name}: refused forbidden instruction {op!r} at {pc}"
            w(ind, f"raise _VmFault({msg!r})")
            return True
        pend["c"] += insn_cost(insn, cal)
        pend["e"] += 1
        rd, rs, rt, imm = insn.rd, insn.rs, insn.rt, insn.imm

        if op == "addu":
            w(ind, f"{W(rd)} = ({R(rs)} + {R(rt)}) & {MASK32}")
        elif op == "addiu":
            w(ind, f"{W(rd)} = ({R(rs)} + {imm}) & {MASK32}")
        elif op == "subu":
            w(ind, f"{W(rd)} = ({R(rs)} - {R(rt)}) & {MASK32}")
        elif op == "multu":
            w(ind, f"{W(rd)} = ({R(rs)} * {R(rt)}) & {MASK32}")
        elif op == "divu":
            msg = f"{name}: divide by zero at pc={pc}"
            w(ind, f"if {R(rt)} == 0:")
            pend_now(ind + 1)
            w(ind + 1, f"raise _ArithmeticFault({msg!r})")
            w(ind, f"{W(rd)} = ({R(rs)} // {R(rt)}) & {MASK32}")
        elif op == "and":
            w(ind, f"{W(rd)} = {R(rs)} & {R(rt)}")
        elif op == "or":
            w(ind, f"{W(rd)} = {R(rs)} | {R(rt)}")
        elif op == "xor":
            w(ind, f"{W(rd)} = {R(rs)} ^ {R(rt)}")
        elif op == "nor":
            w(ind, f"{W(rd)} = ~({R(rs)} | {R(rt)}) & {MASK32}")
        elif op == "sltu":
            w(ind, f"{W(rd)} = 1 if {R(rs)} < {R(rt)} else 0")
        elif op == "sltiu":
            w(ind, f"{W(rd)} = 1 if {R(rs)} < {imm & MASK32} else 0")
        elif op == "andi":
            w(ind, f"{W(rd)} = {R(rs)} & {imm & MASK32}")
        elif op == "ori":
            w(ind, f"{W(rd)} = {R(rs)} | {imm & MASK32}")
        elif op == "xori":
            w(ind, f"{W(rd)} = {R(rs)} ^ {imm & MASK32}")
        elif op == "sll":
            w(ind, f"{W(rd)} = ({R(rs)} << {imm & 31}) & {MASK32}")
        elif op == "srl":
            w(ind, f"{W(rd)} = {R(rs)} >> {imm & 31}")
        elif op == "sllv":
            w(ind, f"{W(rd)} = ({R(rs)} << ({R(rt)} & 31)) & {MASK32}")
        elif op == "srlv":
            w(ind, f"{W(rd)} = {R(rs)} >> ({R(rt)} & 31)")
        elif op == "li":
            w(ind, f"{W(rd)} = {imm & MASK32}")
        elif op == "nop":
            pass
        elif op in LOAD_OPS:
            size = _ACCESS_SIZE[op]
            emit_addr(ind, rs, imm)
            if has_cache:
                # the interpreter charges the cache before the bounds
                # check, so a wild load still updates tags/stats
                emit_cache_touch(ind, size, is_store=False)
            emit_bounds(ind, size)
            if size == 1:
                w(ind, f"{W(rd)} = _mdata[_a]")
            elif size == 2:
                w(ind, f"{W(rd)} = _mdata[_a] | _mdata[_a + 1] << 8")
            else:
                w(ind, f"{W(rd)} = _ifb(_mdata[_a:_a + 4], 'little')")
        elif op in STORE_OPS:
            size = _ACCESS_SIZE[op]
            emit_addr(ind, rs, imm)
            if has_cache:
                emit_cache_touch(ind, size, is_store=True)
            emit_bounds(ind, size)
            if size == 1:
                w(ind, f"_mdata[_a] = {R(rt)} & 0xFF")
            elif size == 2:
                w(ind, f"_t = {R(rt)} & 0xFFFF")
                w(ind, "_mdata[_a] = _t & 0xFF")
                w(ind, "_mdata[_a + 1] = _t >> 8")
            else:
                w(ind, f"_mdata[_a:_a + 4] = "
                       f"({R(rt)} & {MASK32}).to_bytes(4, 'little')")
        elif op in BRANCH_OPS:
            flush(ind)
            cmp_ = {"beq": "==", "bne": "!=", "bltu": "<", "bgeu": ">="}[op]
            tid = leader_map[insn.target]
            w(ind, f"if {R(rs)} {cmp_} {R(rt)}:")
            if tid == exit_id:
                w(ind + 1, "break")
            else:
                w(ind + 1, f"_b = {tid}")
                w(ind + 1, "continue")
            # not taken: fall through to the next block's dispatch test
            fid = leader_map[pc + 1]
            if fid == exit_id:
                w(ind, "break")
            else:
                w(ind, f"_b = {fid}")
            return True
        elif op == "j":
            flush(ind)
            tid = leader_map[insn.target]
            if tid == exit_id:
                w(ind, "break")
            else:
                w(ind, f"_b = {tid}")
                w(ind, "continue")
            return True
        elif op == "jr":
            flush(ind)
            pre = f"{name}: indirect jump to "
            post = f" outside code (len {nprog}) at pc={pc}"
            w(ind, f"_t = {R(rs)}")
            w(ind, f"if not 0 <= _t <= {nprog}:")
            w(ind + 1, f"raise _JumpFault({pre!r} + str(_t) + {post!r})")
            w(ind, "_b = _LEADERS.get(_t, -1)")
            w(ind, "if _b < 0:")
            emit_writeback(ind + 1)
            emit_cache_flush(ind + 1)
            w(ind + 1, "return (1, _t, cycles, executed)")
            w(ind, "continue")
            return True
        elif op == "ret":
            flush(ind)
            w(ind, "break")
            return True
        elif op == "call":
            flush(ind)
            label = insn.label
            msg = (f"{name}: call to unknown trusted entry "
                   f"{label!r} at pc={pc}")
            w(ind, f"_fn = env.get({label!r})")
            w(ind, "if _fn is None:")
            w(ind + 1, f"raise _JumpFault({msg!r})")
            emit_writeback(ind)
            emit_cache_flush(ind)
            w(ind, "_incall = True")
            w(ind, "_v, _x = _fn(_TCC(vm, regs, cycles))")
            w(ind, "_incall = False")
            for line in reload_:
                w(ind, line)
            if inline_cache:
                # flush_all() now clears the tag store in place (the
                # cache keeps a numpy view over the same buffer), but a
                # re-bind is cheap and keeps us correct even if a
                # trusted entry swaps the store wholesale
                w(ind, "_tags = _cache._tags")
            w(ind, f"r2 = _v & {MASK32}")
            w(ind, "cycles += _x")
            w(ind, f"call_log.append(({label!r}, cycles, r2))")
        elif op == "cksum32":
            w(ind, f"_t = {R(rd)} + {R(rs)}")
            w(ind, f"while _t > {MASK32}:")
            w(ind + 1, f"_t = (_t & {MASK32}) + (_t >> 32)")
            w(ind, f"{W(rd)} = _t")
        elif op == "bswap32":
            v = R(rs)
            w(ind, f"{W(rd)} = ((({v}) & 0xFF) << 24) | "
                   f"((({v}) & 0xFF00) << 8) | "
                   f"((({v}) & 0xFF0000) >> 8) | "
                   f"((({v}) & 0xFF000000) >> 24)")
        elif op == "bswap16":
            w(ind, f"_t = {R(rs)} & 0xFFFF")
            w(ind, f"{W(rd)} = ((_t & 0xFF) << 8) | (_t >> 8)")
        elif op in ("chkld", "chkst"):
            size = rt if rt else 4
            pre = f"{name}: checked access to "
            post = f"+{size} outside allowed regions"
            emit_addr(ind, rs, imm)
            if allowed_key is not None:
                # the aggregated initiation-time check: the region list
                # is part of the code-cache key, so each interval test
                # is a chained compare against two constants
                tests = [
                    f"{base} <= _a <= {base + rsize - size}"
                    for base, rsize in allowed_key
                    if rsize >= size
                ]
                # the per-invocation message region, last: two compares
                tests.append(f"_mb <= _a <= _mb + _mz - {size}")
                w(ind, f"if not ({' or '.join(tests)}):")
                pend_now(ind + 1)
                w(ind + 1, f"raise _MemoryFault({pre!r} + format(_a, '#x')"
                           f" + {post!r})")
            else:
                w(ind, "for _rb, _rz in allowed:")
                w(ind + 1, f"if _rb <= _a and _a + {size} <= _rb + _rz:")
                w(ind + 2, "break")
                w(ind, "else:")
                pend_now(ind + 1)
                w(ind + 1, f"raise _MemoryFault({pre!r} + format(_a, '#x')"
                           f" + {post!r})")
        elif op == "chkjmp":
            w(ind, f"_t = {R(rs)}")
            if program.jump_map is not None:
                pre = f"{name}: chkjmp rejected unsandboxed target "
                post = f" at pc={pc}"
                w(ind, "if _t in _JM:")
                w(ind + 1, f"{W(rs)} = _JM[_t]")
                w(ind, "else:")
                pend_now(ind + 1)
                w(ind + 1, f"raise _JumpFault({pre!r} + str(_t) + {post!r})")
            else:
                pre = f"{name}: chkjmp rejected target "
                post = f" at pc={pc}"
                w(ind, f"if not 0 <= _t <= {nprog}:")
                pend_now(ind + 1)
                w(ind + 1, f"raise _JumpFault({pre!r} + str(_t) + {post!r})")
        elif op == "chkbudget":
            pass  # cost-only probe; the budget itself is the precheck
        else:  # pragma: no cover - OPCODES is exhaustive
            raise JitError(f"unimplemented opcode {op!r}")
        return False

    # -- block bodies ------------------------------------------------------
    for bid, start in enumerate(starts):
        end = leaders[leaders.index(start) + 1]
        w(3, f"if _b == {bid}:")
        ind = 4
        closed = False
        i = start
        while i < end:
            # a chunk is straight-line code up to (and including) the
            # next trusted call — after a call, cycles are data-dependent
            # and a fresh precheck is required
            j = i
            while j < end - 1 and insns[j].op != "call":
                j += 1
            chunk = insns[i:j + 1]
            emit_precheck(ind, i, chunk)
            for pc in range(i, j + 1):
                closed = emit_insn(ind, pc, insns[pc])
                if closed:
                    break
            if closed:
                break
            i = j + 1
        if not closed:
            # falls through to the next leader
            flush(ind)
            w(ind, f"_b = {leader_map[end]}" if end < nprog else "break")
            if end < nprog and leader_map[end] != bid + 1:
                w(ind, "continue")
        assert pend["c"] == 0 and pend["e"] == 0
    w(3, f"if _b == {exit_id}:")
    w(4, "break")
    w(3, "raise _VcodeError('jit: bad dispatch target')")

    # -- fault annotation / epilogue ---------------------------------------
    w(1, "except _VmFault as exc:")
    # cache deltas are zeroed around trusted calls, so this flush is
    # safe (adds 0) even when the fault came from inside a call
    emit_cache_flush(2)
    if has_call:
        w(2, "if not _incall:")
        emit_writeback(3)
    else:
        emit_writeback(2)
    w(2, "exc.cycles = cycles")
    w(2, "exc.insns_executed = executed")
    w(2, "raise")
    emit_writeback(1)
    emit_cache_flush(1)
    w(1, "return (0, regs[2], cycles, executed)")

    source = e.source()
    from .vm import TrustedCallContext  # local: vm imports jit lazily

    namespace = {
        "_VmFault": VmFault,
        "_MemoryFault": MemoryFault,
        "_ArithmeticFault": ArithmeticFault,
        "_JumpFault": JumpFault,
        "_VcodeError": VcodeError,
        "_TCC": TrustedCallContext,
        "_JM": program.jump_map,
        "_LEADERS": leader_map,
    }
    tag = hashlib.sha256(repr(key).encode()).hexdigest()[:12]
    exec(compile(source, f"<vcode-jit:{name}:{tag}>", "exec"),  # noqa: S102
         namespace)
    return CompiledProgram(
        fn=namespace["_jit_entry"],
        n_insns=nprog,
        source=source,
    )
