"""The VCODE JIT: dynamic code generation for the handler hot path.

The paper's performance story *is* dynamic code generation — DPF
"compil[es] packet filters to executable code when they are installed",
and the pipe compiler integrates pipes "encoded in a specialized data
copying loop".  This module applies the same idea to our modelled CPU
itself: instead of pushing every handler instruction through the
interpreter's ~60-arm dispatch chain, a :class:`~repro.vcode.isa.Program`
is translated once into a single ``exec``-generated Python function
(threaded code: one suite per basic block, but a block that only a
branch's fall-through reaches goes on in its predecessor's) and cached
by content hash.

The translation is *specializing*:

* register accesses become Python locals (``r8``).  A local is loaded
  from the caller's register file at entry only if some path may read
  it before assigning it, and written back only where the file can be
  read -- before a trusted call and at an exit -- and only if it may
  have been assigned since entry or the last call (forward dataflow over
  the blocks).  A trusted call reads the registers and returns V0
  (:class:`~repro.vcode.vm.TrustedCallContext`), so nothing but V0 is
  reloaded after one;
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
  compile-time constants), an inline bounds check and a ``struct`` read
  of the backing memory — no method calls on the hot path.  The rare
  access that spans two cache lines goes through
  :meth:`~repro.hw.cache.DirectMappedCache.load` / ``store`` instead.
  Hit/miss counts accumulate in locals and are published to the cache
  object before a trusted call (if any accrued since the last) and at
  every exit.

**Bit-identical semantics.**  The JIT must produce exactly the
interpreter's :class:`~repro.vcode.vm.VmResult` — cycles, executed
count, call-log cycle offsets, fault type/message and the register file
— including the per-instruction budget/instruction-cap abort points.
Cheap per-instruction checks would forfeit the speedup, so the
generated code uses *deoptimization*: each straight-line chunk is
guarded by one conservative precheck (entry cycles + worst-case chunk
cost, where the worst case bounds every load's possible cache stalls;
as every instruction costs a cycle or more, keeping cycles within the
smaller of budget and instruction cap keeps the instruction count within
the cap too).  If the chunk could trip either, the function leaves by
its one shared deopt exit, which publishes every register local and the
cache counts and returns a ``deopt`` record; the VM resumes in the
interpreter from that exact pc, which then reproduces the abort (or
completes) with reference semantics.  Chunks that pass the precheck
provably cannot fault on budget, so they run with no per-instruction
checks at all.

Memory faults, arithmetic faults, jump faults and trusted calls are
observable events: the generated code materializes exact ``cycles`` /
``executed`` values immediately before each one, so fault accounting
and ``call_log`` offsets match the interpreter to the cycle.  A fault
leaves through the same publishing exit as a deopt, and its message is
built by one helper from the translation's table of templates.

The translation also aggregates the sandbox's region checks at
initiation time, exactly as the paper's trusted calls do (III-B2): a
program with ``chkld``/``chkst`` is always translated with the run's
``allowed`` region list baked in as constant interval tests (constants
of its namespace, so translations over other regions share its source
and its ``compile``), and the list is part of the code-cache key: each
list a program runs over gets its own translation, and a check costs a
couple of compares per region.  The one region that moves per
invocation — the message buffer — arrives separately (``msg``) and is
tested against two locals, its limits computed once per run, so it never
enters the key.  A check directly followed by the access it guards
(same base and offset, size no larger) hands that access its address,
and the access skips its bounds test: the check implies it whenever the
baked regions and the message window lie in memory, which one test at
entry establishes (a run where they do not is resumed in the
interpreter from pc 0).

The code cache is keyed by ``(content hash, calibration, has-cache,
baked regions)``, the last None for a program without checks.
Translation is charged to the ``vcode.jit.compile_cycles`` counter as
a deterministic proxy, ``COMPILE_CYCLES_PER_INSN`` per translated
instruction: it counts instructions, not source, so it does not change
when a translation's source grows or shrinks (the census prints each
translation's bytes of source, and ``tests/goldens.json`` caps them),
and canonical telemetry sidecars stay byte-stable.
"""

from __future__ import annotations

import functools
import hashlib
import struct
import types
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

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
    "source_bytes",
    "stats",
    "COMPILE_CYCLES_PER_INSN",
]

MASK32 = 0xFFFFFFFF
_INF_BUDGET = 0x7FFFFFFFFFFFFFFF

#: deterministic modelled cost of translating one VCODE instruction,
#: charged to the ``vcode.jit.compile_cycles`` counter: a per-instruction
#: proxy for the real, wall-clock codegen cost (which must not leak into
#: deterministic telemetry snapshots), blind to how much source the
#: instructions become.
COMPILE_CYCLES_PER_INSN = 10

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

#: (fingerprint, calibration, has_cache, baked region tuple, or None
#: for a program without region checks) -> CompiledProgram
_CODE_CACHE: dict[tuple, "CompiledProgram"] = {}

#: generated source -> its compiled entry function's code: translations
#: that differ only in their baked regions share one source (the regions
#: are constants of the namespace), so ``compile`` runs once for them
_ENTRY_CODE: dict[str, types.CodeType] = {}

#: bumped by :func:`clear_code_cache` so per-Program lookup memos (which
#: the global clear cannot reach) invalidate themselves
_cache_epoch = 0


class CompiledProgram:
    """One translated program: the entry function plus metadata.

    ``fn(vm, regs, env, cycle_budget, max_insns, call_log, msg)`` -- the
    static regions baked in, ``msg`` the message window (``(0, 0)`` for
    none) -- returns ``(0, value, cycles, executed)`` on
    completion or ``(1, pc, cycles, executed)`` to request interpreter
    resumption (deoptimization) from ``pc`` with the given accounting
    state.
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
    _ENTRY_CODE.clear()
    _cache_epoch += 1


def code_cache_size() -> int:
    return len(_CODE_CACHE)


def source_bytes(code) -> int:
    """Bytes of source the cached translation running ``code`` was
    compiled from (0 if none is cached)."""
    for compiled in _CODE_CACHE.values():
        if compiled.fn.__code__ is code:
            return len(compiled.source)
    return 0


def _regions_key(program: Program, allowed) -> Optional[tuple]:
    """The region component of the code-cache key: the list a program
    with ``chkld``/``chkst`` bakes into its translation (the paper's
    aggregated initiation-time checks), so each list it runs over gets
    a translation of its own; None for a program without checks, whose
    code does not depend on the list.  The region that moves per run,
    the message buffer, is not in it: see ``msg`` in
    :class:`CompiledProgram`."""
    uses_chk = program.__dict__.get("_jit_uses_chk")
    if uses_chk is None:
        uses_chk = any(i.op in ("chkld", "chkst") for i in program.insns)
        program.__dict__["_jit_uses_chk"] = uses_chk
    return tuple(allowed or ()) if uses_chk else None


def get_compiled(
    program: Program,
    cal: Calibration,
    has_cache: bool,
    telemetry=None,
    allowed=None,
) -> Optional[CompiledProgram]:
    """Look up or translate ``program`` for the static region list
    ``allowed`` (baked into the translation of a program with region
    checks, ignored by one without); None if translation failed."""
    # Fast path: the program's last lookup asked the same question
    # (calibration identity, cache presence, region list content, cache
    # epoch) -- one handler run message after message -- and is answered
    # without hashing the fingerprint and the (40-field, dataclass-hashed)
    # Calibration.  The epoch keeps it from outliving clear_code_cache().
    last = program.__dict__.get("_jit_last")
    if (last is not None and last[0] is cal and last[1] == has_cache
            and last[2] == allowed and last[3] == _cache_epoch):
        stats.hits += 1
        if telemetry is not None and telemetry.enabled:
            telemetry.counter("vcode.jit.cache_hits").inc()
        return last[4]
    key = (program_fingerprint(program), cal, has_cache,
           _regions_key(program, allowed))
    compiled = _CODE_CACHE.get(key)
    tel_on = telemetry is not None and telemetry.enabled
    if compiled is not None:
        stats.hits += 1
        if tel_on:
            telemetry.counter("vcode.jit.cache_hits").inc()
    else:
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
        program.jit_safe = True
    # (the region list copied: a caller may change its own in place)
    program.__dict__["_jit_last"] = (
        cal, has_cache, None if allowed is None else list(allowed),
        _cache_epoch, compiled,
    )
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


#: the dirty-set member standing for hit/miss counts not yet published
#: to the cache object
_COUNTS = -1


def _flow(insns: list[Insn], starts: list[int], ends: list[int],
          block_of: dict[int, int], writes: list[frozenset],
          ) -> list[tuple[frozenset, frozenset]]:
    """Forward dataflow over the blocks: for each, the registers (and
    ``_COUNTS``) that *may* have been assigned since entry or the last
    trusted call when control reaches it, and those *certainly* assigned
    since entry.  A call publishes everything and assigns V0; an
    indirect jump may reach any block."""
    state: list[Optional[tuple[frozenset, frozenset]]] = [None] * len(starts)
    state[0] = (frozenset(), frozenset())
    work = [0]
    while work:
        bid = work.pop()
        dirty, done = state[bid]
        succ: tuple = ()
        for pc in range(starts[bid], ends[bid]):
            insn = insns[pc]
            op = insn.op
            if op == "ret" or op in FORBIDDEN_OPS:
                break
            if op == "call":
                dirty, done = frozenset((2,)), done | {2}
            else:
                dirty, done = dirty | writes[pc], done | writes[pc]
            if op in BRANCH_OPS:
                succ = (insn.target, pc + 1)
                break
            if op == "j":
                succ = (insn.target,)
                break
            if op == "jr":
                succ = tuple(starts)
                break
        else:
            succ = (ends[bid],)
        for target in succ:
            sid = block_of.get(target)
            if sid is None:     # the exit
                continue
            old = state[sid]
            new = (dirty, done) if old is None else (old[0] | dirty,
                                                     old[1] & done)
            if new != old:
                state[sid] = new
                work.append(sid)
    return [s or (frozenset(), frozenset()) for s in state]


class _Deopt(Exception):
    """Raised inside a translation to leave by its one deopt exit, which
    publishes the machine state and returns the pc kept in ``_dpc``; it
    never escapes the translation."""


def _fault(specs: list[tuple], k: int, value: int) -> VmFault:
    """Fault ``k`` of a translation, worded as the interpreter words it:
    ``specs[k]`` is ``(class, template, size)``, and the template's
    ``{0}`` is the offending value, ``{1}`` that value plus the size."""
    cls, template, size = specs[k]
    return cls(template.format(value, value + size))


def _lit(text: str) -> str:
    """``text`` as a literal part of a :func:`_fault` template."""
    return text.replace("{", "{{").replace("}", "}}")


_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_B32 = struct.Struct(">I")


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
    _, cal, has_cache, regions = key
    insns = program.insns
    nprog = len(insns)
    name = program.name

    # -- analysis ----------------------------------------------------------
    used_regs: set[int] = set()
    used_ops: set[str] = set()
    writes_of: list[frozenset] = []
    for insn in insns:
        reads, writes = _register_fields(insn)
        used_regs.update(reads)
        used_regs.update(writes)
        used_ops.add(insn.op)
        writes_of.append(frozenset(r for r in writes if r))
    if "call" in used_ops:
        used_regs.add(2)  # V0 receives trusted-call return values
    used_regs.discard(0)  # the zero register folds to the literal 0

    leaders = _leaders(program)
    starts = leaders[:-1]
    ends = leaders[1:]
    block_of = {start: bid for bid, start in enumerate(starts)}
    # A block entered only by falling through a conditional branch (no
    # branch, label or jump-map entry names it) goes on in its
    # predecessor's suite: one dispatch test per such run of blocks, an
    # *arm*, and an indirect jump into one deopts.
    named = {0, *program.labels.values(), *(program.jump_map or {}).values()}
    named.update(insn.target for insn in insns if insn.target is not None)
    heads = [start for start in starts
             if start in named or insns[start - 1].op not in BRANCH_OPS]
    exit_id = len(heads)
    leader_map = {head: aid for aid, head in enumerate(heads)}
    leader_map[nprog] = exit_id

    uses_mem = bool(used_ops & (LOAD_OPS | STORE_OPS))
    # cache-model constants, baked into the generated source
    cline = cal.cache_line
    cnlines = cal.cache_size // cal.cache_line
    cmiss = cal.miss_penalty_cycles
    cinstall = cal.store_installs_line
    inline_cache = has_cache and uses_mem
    if inline_cache:
        writes_of = [marks | {_COUNTS} if insn.op in _ACCESS_SIZE else marks
                     for insn, marks in zip(insns, writes_of)]
    flow = _flow(insns, starts, ends, block_of, writes_of)
    # Every instruction costs a cycle or more (and a trusted call's
    # extra cycles are never negative), so ``executed <= cycles``: a
    # chunk that keeps ``cycles`` within min(budget, cap) keeps
    # ``executed`` within the cap, and one compare guards both.
    one_guard = all(insn_cost(insn, cal) >= 1 for insn in insns)

    # A guard directly followed by the access it checks (same base and
    # offset, size no larger) leaves that access's address in ``_a``,
    # and, when every baked region lies in memory, implies its bounds
    # test; the entry guard below deopts the runs whose message window
    # does not.
    baked = [(base, size) for base, size in regions or () if size > 0]
    fused: set[int] = set()
    if all(b >= _MEM_BASE for b, _ in baked):
        leader_set = set(leaders)
        for pc in range(1, nprog):
            insn, guard = insns[pc], insns[pc - 1]
            if (insn.op in _ACCESS_SIZE and pc not in leader_set
                    and guard.op in ("chkld", "chkst")
                    and guard.rs == insn.rs
                    and (guard.imm or 0) == (insn.imm or 0)
                    and _ACCESS_SIZE[insn.op] <= (guard.rt or 4)):
                fused.add(pc)
    chk_sizes = sorted({insn.rt or 4 for insn in insns
                        if insn.op in ("chkld", "chkst")})
    bound_sizes = sorted({_ACCESS_SIZE[insn.op]
                          for pc, insn in enumerate(insns)
                          if insn.op in _ACCESS_SIZE and pc not in fused})

    # fault k of the translation: (class, message template, size)
    specs: list[tuple] = []

    def fault(cls: type, template: str, size: int = 0) -> int:
        spec = (cls, template, size)
        if spec not in specs:
            specs.append(spec)
        return specs.index(spec)

    #: registers read somewhere they may not have been assigned yet: the
    #: ones the prologue loads from the register file
    need: set[int] = set()

    # the baked regions' bounds, as names of the namespace
    bounds: dict[str, int] = {}

    def bound(name: str, value: int) -> str:
        bounds[name] = value
        return name

    def R(reg: Optional[int]) -> str:
        if not reg:
            return "0"
        if reg not in done:
            need.add(reg)
        return f"r{reg}"

    def W(reg: Optional[int]) -> str:
        return "_" if not reg else f"r{reg}"

    body = _Emitter()
    w = body.w

    # pending constant-folded accounting, flushed at observable points:
    # cycles, instructions executed, and inline cache probes (a probe's
    # hit is counted as a probe that did not miss)
    pend = {"c": 0, "e": 0, "p": 0}
    totals = {"c": "cycles", "e": "executed", "p": "_cprobe"}

    def flush(ind: int) -> None:
        pend_now(ind)
        pend.update(c=0, e=0, p=0)

    def pend_now(ind: int) -> None:
        """Materialize pending accounting on a fault branch (which
        raises, so the fall-through path keeps accumulating).  Cycle
        totals only need to be exact at observable points; deferring
        the adds keeps them off the hot path."""
        for what, n in pend.items():
            if n:
                w(ind, f"{totals[what]} += {n}")

    def emit_writeback(ind: int) -> None:
        """Write back what was assigned since the last publication."""
        for reg in sorted(r for r in dirty if r > 0):
            w(ind, f"regs[{reg}] = {R(reg)}")

    def emit_counts(ind: int, zero: bool) -> None:
        """Publish the locally accumulated hit/miss counts."""
        w(ind, "_cache.hits += _cprobe - _cmiss")
        w(ind, "_cache.misses += _cmiss")
        if zero:
            w(ind, "_cprobe = _cmiss = 0")

    def emit_exit(ind: int) -> None:
        """The normal exit: publish what changed and return."""
        emit_writeback(ind)
        if _COUNTS in dirty:
            emit_counts(ind, zero=False)
        v0 = R(2) if 2 in used_regs else "regs[2]"
        w(ind, f"return (0, {v0}, cycles, executed)")

    def emit_publish_all(ind: int) -> None:
        """Publish every register local bound so far (each holds its
        register's value: a trusted call writes none) and the counts
        (zeroed at their last publication): the rare exits' way."""
        if inline_cache:
            emit_counts(ind, zero=False)
        if used_regs:
            w(ind, "_l = locals()")
            w(ind, "for _r, _n in _REGS:")
            w(ind + 1, "if _n in _l:")
            w(ind + 2, "regs[_r] = _l[_n]")

    def emit_deopt(ind: int, pc_expr) -> None:
        w(ind, f"_dpc = {pc_expr}")
        w(ind, "raise _Deopt")

    def goto(ind: int, tid: int, cont: bool) -> None:
        if tid == exit_id:
            emit_exit(ind)
        else:
            w(ind, f"_b = {tid}")
            if cont:
                w(ind, "continue")

    def emit_raise(ind: int, k: int, value: str) -> None:
        w(ind, f"raise _fault({k}, {value})")

    def emit_cache_touch(ind: int, size: int, is_store: bool) -> None:
        """Inline DirectMappedCache.touch_range for an access at ``_a``
        that stays within one line; one that spans two (or is wider
        than a line) goes through the model itself."""
        model = (f"_cache.store(_a, {size})" if is_store
                 else f"cycles += _cache.load(_a, {size})")
        if size > cline:
            w(ind, model)
            return
        pow2 = cline & (cline - 1) == 0 and cnlines & (cnlines - 1) == 0
        if pow2:
            shift = cline.bit_length() - 1
            idx, la = f"_a >> {shift} & {cnlines - 1}", f"_a & {-cline}"
        else:
            idx, la = f"_a // {cline} % {cnlines}", f"_a - _a % {cline}"
        miss = f"_tags[{idx}] != {la}:"
        if size > 1:
            off = f"_a & {cline - 1}" if pow2 else f"_a % {cline}"
            w(ind, f"if {off} > {cline - size}:")
            w(ind + 1, model)
            w(ind + 1, "_cprobe -= 1")    # the model counted it itself
            w(ind, "elif " + miss)
        else:
            w(ind, "if " + miss)
        pend["p"] += 1
        w(ind + 1, "_cmiss += 1")
        if not is_store:
            w(ind + 1, f"cycles += {cmiss}")
        if not is_store or cinstall:
            w(ind + 1, f"_tags[{idx}] = {la}")

    def emit_bounds(ind: int, size: int) -> None:
        """Inline PhysicalMemory._check with its exact fault message."""
        w(ind, f"if _a < {_MEM_BASE} or _a > _ml{size}:")
        pend_now(ind + 1)
        emit_raise(ind + 1, fault(
            MemoryFault, "physical access out of range: [{0}, {1})", size),
            "_a")

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
        cap = "" if one_guard else f" or executed + {len(chunk)} > max_insns"
        w(ind, f"if cycles + {worst} > _bud{cap}:")
        emit_deopt(ind + 1, chunk_pc)

    def emit_insn(ind: int, pc: int, insn: Insn) -> bool:
        """Emit one instruction; True if it unconditionally leaves the
        block (so the remaining instructions are unreachable)."""
        nonlocal dirty, done
        op = insn.op
        at = f"{_lit(name)}: "
        if op in FORBIDDEN_OPS:
            # the interpreter refuses *before* charging this instruction
            flush(ind)
            emit_raise(ind, fault(VmFault, at + _lit(
                f"refused forbidden instruction {op!r} at {pc}")), "0")
            return True
        pend["c"] += insn_cost(insn, cal)
        pend["e"] += 1
        rd, rs, rt, imm = insn.rd, insn.rs, insn.rt, insn.imm

        if op == "addu":
            terms = [R(reg) for reg in (rs, rt) if reg]   # (a move: one)
            w(ind, f"{W(rd)} = ({' + '.join(terms)}) & {MASK32}" if terms
                   else f"{W(rd)} = 0")
        elif op == "addiu":
            w(ind, f"{W(rd)} = ({R(rs)} + {imm}) & {MASK32}" if imm
                   else f"{W(rd)} = {R(rs)} & {MASK32}")
        elif op == "subu":
            w(ind, f"{W(rd)} = ({R(rs)} - {R(rt)}) & {MASK32}")
        elif op == "multu":
            w(ind, f"{W(rd)} = ({R(rs)} * {R(rt)}) & {MASK32}")
        elif op == "divu":
            w(ind, f"if {R(rt)} == 0:")
            pend_now(ind + 1)
            emit_raise(ind + 1, fault(ArithmeticFault,
                                      at + f"divide by zero at pc={pc}"), "0")
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
        elif op in LOAD_OPS or op in STORE_OPS:
            size = _ACCESS_SIZE[op]
            is_store = op in STORE_OPS
            if pc not in fused:
                emit_addr(ind, rs, imm)
            if has_cache:
                # the interpreter charges the cache before the bounds
                # check, so a wild access still updates tags/stats
                emit_cache_touch(ind, size, is_store)
            if pc not in fused:
                emit_bounds(ind, size)
            if not is_store:
                w(ind, f"{W(rd)} = " + ("_mdata[_a]" if size == 1 else
                                        f"_u{8 * size}(_mdata, _a)[0]"))
            elif size == 1:
                w(ind, f"_mdata[_a] = {R(rt)} & 0xFF")
            else:
                w(ind, f"_p{8 * size}(_mdata, _a, {R(rt)} & "
                       f"{(1 << 8 * size) - 1})")
        elif op in BRANCH_OPS:
            flush(ind)
            cmp_ = {"beq": "==", "bne": "!=", "bltu": "<", "bgeu": ">="}[op]
            w(ind, f"if {R(rs)} {cmp_} {R(rt)}:")
            goto(ind + 1, leader_map[insn.target], cont=True)
            if pc + 1 not in leader_map:
                return False    # not taken: on in this arm
            # not taken: fall through to the next arm's dispatch test
            goto(ind, leader_map[pc + 1], cont=False)
            return True
        elif op == "j":
            flush(ind)
            goto(ind, leader_map[insn.target], cont=True)
            return True
        elif op == "jr":
            flush(ind)
            w(ind, f"_t = {R(rs)}")
            w(ind, f"if not 0 <= _t <= {nprog}:")
            emit_raise(ind + 1, fault(JumpFault, at + "indirect jump to {0}"
                                      f" outside code (len {nprog}) at "
                                      f"pc={pc}"), "_t")
            w(ind, "_b = _LEADERS.get(_t, -1)")
            w(ind, "if _b < 0:")
            emit_deopt(ind + 1, "_t")
            w(ind, "continue")
            return True
        elif op == "ret":
            flush(ind)
            emit_exit(ind)
            return True
        elif op == "call":
            flush(ind)
            label = insn.label
            w(ind, "try:")
            w(ind + 1, f"_fn = env[{label!r}]")
            w(ind, "except KeyError:")
            w(ind + 1, "_fn = None")
            w(ind, "if _fn is None:")
            emit_raise(ind + 1, fault(JumpFault, at + _lit(
                f"call to unknown trusted entry {label!r} at pc={pc}")), "0")
            # the call reads the register file and returns V0 (see
            # TrustedCallContext): publish what changed, reload nothing
            emit_writeback(ind)
            if _COUNTS in dirty:
                emit_counts(ind, zero=True)
            w(ind, "_ctx.cycles = cycles")
            w(ind, "_v, _x = _fn(_ctx)")
            w(ind, f"r2 = _v & {MASK32}")
            w(ind, "cycles += _x")
            w(ind, f"call_log.append(({label!r}, cycles, r2))")
            dirty, done = frozenset((2,)), done | {2}
            return False
        elif op == "cksum32":
            w(ind, f"_t = {R(rd)} + {R(rs)}")
            w(ind, f"while _t > {MASK32}:")
            w(ind + 1, f"_t = (_t & {MASK32}) + (_t >> 32)")
            w(ind, f"{W(rd)} = _t")
        elif op == "bswap32":
            w(ind, f"{W(rd)} = _ub32(_p32le({R(rs)} & {MASK32}))[0]")
        elif op == "bswap16":
            w(ind, f"_t = {R(rs)} & 0xFFFF")
            w(ind, f"{W(rd)} = ((_t & 0xFF) << 8) | (_t >> 8)")
        elif op in ("chkld", "chkst"):
            size = rt if rt else 4
            k = fault(MemoryFault, at + "checked access to {0:#x}"
                      f"+{size} outside allowed regions")
            emit_addr(ind, rs, imm)
            # the aggregated initiation-time check: the region list is
            # part of the code-cache key, so each interval test is a
            # chained compare against two constants, and the message
            # window's against two locals
            tests = [
                f"{bound(f'_b{i}', base)} <= _a <= "
                f"{bound(f'_e{i}_{size}', base + rsize - size)}"
                for i, (base, rsize) in enumerate(regions)
                if rsize >= size
            ]
            tests.append(f"_mb <= _a <= _mh{size}")
            w(ind, f"if not ({' or '.join(tests)}):")
            pend_now(ind + 1)
            emit_raise(ind + 1, k, "_a")
        elif op == "chkjmp":
            w(ind, f"_t = {R(rs)}")
            if program.jump_map is not None:
                w(ind, "if _t in _JM:")
                w(ind + 1, f"{W(rs)} = _JM[_t]")
                w(ind, "else:")
                pend_now(ind + 1)
                emit_raise(ind + 1, fault(JumpFault, at + "chkjmp rejected "
                                          f"unsandboxed target {{0}} at "
                                          f"pc={pc}"), "_t")
            else:
                w(ind, f"if not 0 <= _t <= {nprog}:")
                pend_now(ind + 1)
                emit_raise(ind + 1, fault(JumpFault, at + "chkjmp rejected "
                                          f"target {{0}} at pc={pc}"), "_t")
        elif op == "chkbudget":
            pass  # cost-only probe; the budget itself is the precheck
        else:  # pragma: no cover - OPCODES is exhaustive
            raise JitError(f"unimplemented opcode {op!r}")
        dirty, done = dirty | writes_of[pc], done | writes_of[pc]
        return False

    # -- arm bodies --------------------------------------------------------
    for aid, (start, end) in enumerate(zip(heads, heads[1:] + [nprog])):
        dirty, done = flow[block_of[start]]
        w(3, f"if _b == {aid}:")
        ind = 4
        closed = False
        i = start
        while i < end:
            # a chunk is the arm's code up to (and including) the next
            # trusted call — after a call, cycles are data-dependent and
            # a fresh precheck is required; its branches out of the arm
            # only make the precheck's bound the more conservative
            j = i
            while j < end - 1 and insns[j].op != "call":
                j += 1
            emit_precheck(ind, i, insns[i:j + 1])
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
            goto(ind, leader_map[end], cont=False)
        assert not any(pend.values())
    if "jr" in used_ops:
        # an indirect jump to the end, from wherever
        w(3, f"if _b == {exit_id}:")
        emit_publish_all(4)
        w(4, "return (0, regs[2], cycles, executed)")
    w(3, "raise _VcodeError('jit: bad dispatch target')")

    # -- the shared exits: deopt and fault ----------------------------------
    w(1, "except _Deopt:")
    emit_publish_all(2)
    w(2, "return (1, _dpc, cycles, executed)")
    w(1, "except _VmFault as exc:")
    emit_publish_all(2)
    w(2, "exc.cycles = cycles")
    w(2, "exc.insns_executed = executed")
    w(2, "raise")

    # -- prologue ------------------------------------------------------------
    e = _Emitter()
    w = e.w
    w(0, "def _jit_entry(vm, regs, env, cycle_budget, max_insns, call_log,"
         " msg):")
    if chk_sizes:
        # the message window's limits, once per run
        w(1, "_mb, _mz = msg")
        w(1, "_me = _mb + _mz")
        for size in chk_sizes:
            w(1, f"_mh{size} = _me - {size}")
    if uses_mem:
        w(1, "_mdata = vm.memory.data")
        w(1, "_msize = vm.memory.size")
        for size in bound_sizes:
            w(1, f"_ml{size} = _msize - {size}")
    if fused:
        reach = ([f"_msize < {bound('_top', max(b + z for b, z in baked))}"]
                 if baked else [])
        reach.append(f"_mz and (_mb < {_MEM_BASE} or _me > _msize)")
        w(1, f"if {' or '.join(reach)}:")
        w(2, "return (1, 0, 0, 0)")
    if inline_cache:
        w(1, "_cache = vm.cache")
        w(1, "_tags = _cache._tags")
        w(1, "_cprobe = _cmiss = 0")
    if one_guard:
        w(1, "_bud = (max_insns if cycle_budget is None"
             " or cycle_budget > max_insns else cycle_budget)")
    else:
        w(1, "_bud = cycle_budget if cycle_budget is not None"
             f" else {_INF_BUDGET}")
    w(1, "cycles = executed = 0")
    if "call" in used_ops:
        # one context serves the run's calls (TrustedCallContext)
        w(1, "_ctx = _TCC(vm, regs, 0)")
    for reg in sorted(need):
        w(1, f"r{reg} = regs[{reg}]")
    w(1, "try:")
    w(2, "_b = 0")
    w(2, "while True:")
    source = e.source() + body.source()
    from .vm import TrustedCallContext  # local: vm imports jit lazily

    namespace = {
        **bounds,
        "_VmFault": VmFault,
        "_VcodeError": VcodeError,
        "_Deopt": _Deopt,
        "_fault": functools.partial(_fault, specs),
        "_TCC": TrustedCallContext,
        "_JM": program.jump_map,
        "_LEADERS": leader_map,
        "_REGS": tuple((reg, f"r{reg}") for reg in sorted(used_regs)),
        "_u16": _U16.unpack_from,
        "_u32": _U32.unpack_from,
        "_p16": _U16.pack_into,
        "_p32": _U32.pack_into,
        "_p32le": _U32.pack,
        "_ub32": _B32.unpack,
    }
    code = _ENTRY_CODE.get(source)
    if code is None:
        module = compile(source, "<vcode-jit>", "exec")
        code = _ENTRY_CODE[source] = next(
            c for c in module.co_consts if isinstance(c, types.CodeType))
    # named apart (two code objects that differ in file name alone
    # compare equal, and a profile or census keyed by code would merge
    # them)
    tag = hashlib.sha256(repr(key).encode()).hexdigest()[:12]
    code = code.replace(co_filename=f"<vcode-jit:{name}:{tag}>",
                        co_name=f"_jit_entry_{tag}")
    return CompiledProgram(
        fn=types.FunctionType(code, namespace),
        n_insns=nprog,
        source=source,
    )
