"""Differential testing: the JIT must be bit-identical to the interpreter.

Every program in the corpus (example handlers raw + sandboxed, the
extension loops, DILP fused loops, targeted fault programs) and a few
hundred fixed-seed randomized programs run under both engines on
identical machine state.  *Everything observable* must match: the
VmResult (value, cycles, insns_executed, call_log with cycle offsets),
the final register file, final memory contents, cache hit/miss
counters — and for faulting programs the fault type, message (including
the pc), and the cycles/insns annotations attached to the exception.
"""

import random
from dataclasses import replace

import pytest

from repro.ash.examples import (
    PARAM_COUNTER,
    PARAM_REPLY_VCI,
    PARAM_SCRATCH,
    build_echo,
    build_remote_increment,
    build_remote_write_generic,
    build_remote_write_specific,
)
from repro.errors import (
    ArithmeticFault,
    BudgetExceeded,
    JumpFault,
    MemoryFault,
    VmFault,
)
from repro.hw.cache import DirectMappedCache
from repro.hw.calibration import DEFAULT
from repro.hw.memory import PhysicalMemory
from repro.sandbox.rewriter import Sandboxer
from repro.vcode import jit
from repro.vcode.extensions import (
    build_byteswap,
    build_checksum,
    build_copy,
    build_integrated,
)
from repro.vcode.isa import Insn, Program, assemble
from repro.vcode.vm import Vm

MEM_SIZE = 1 << 16
MSG, CTX, COUNTER, SCRATCH = 0x1000, 0x2000, 0x3000, 0x3100
ALLOWED = [(MSG, 64), (CTX, 64), (COUNTER, 64), (SCRATCH, 64)]


def _setup_memory() -> PhysicalMemory:
    mem = PhysicalMemory(MEM_SIZE)
    mem.write(0x100, bytes(range(256)) * 8)          # data buffers
    mem.write(MSG, (1234).to_bytes(4, "little") + bytes(60))
    mem.store_u32(CTX + PARAM_COUNTER, COUNTER)
    mem.store_u32(CTX + PARAM_REPLY_VCI, 7)
    mem.store_u32(CTX + PARAM_SCRATCH, SCRATCH)
    mem.store_u32(COUNTER, 41)
    return mem


def _stub_env():
    """Deterministic trusted-call stubs (fresh closure per engine run)."""
    state = {"n": 0}

    def _call(ret_base, extra):
        def fn(ctx):
            state["n"] += 1
            return (ret_base + state["n"] + ctx.arg(0)) & 0xFFFFFFFF, extra
        return fn

    return {
        "ash_send": _call(100, 120),
        "net_send": _call(200, 90),
        "ash_dilp": _call(0, 500),
        "ash_ilp_get": _call(7, 40),
        "ash_ilp_set": _call(0, 40),
        "ash_notify": _call(0, 30),
        "t0": _call(55, 17),
        # reads the whole register file: a register the JIT failed to
        # write back before the call shows in the value
        "regsum": lambda ctx: (
            sum((i + 1) * r for i, r in enumerate(ctx.regs)) & 0xFFFFFFFF,
            ctx.cycles % 7),
    }


def _observe(program, *, args=(), regs=None, budget=None, allowed=None,
             max_insns=200_000, use_cache=True, engine="interp",
             msg_region=None, cal=DEFAULT):
    """Run one engine on fresh state; return every observable output."""
    mem = _setup_memory()
    cache = DirectMappedCache(cal) if use_cache else None
    vm = Vm(mem, cache=cache, cal=cal)
    my_regs = list(regs) if regs is not None else None
    out = {}
    try:
        res = vm.run(
            program,
            args=args,
            regs=my_regs,
            env=_stub_env(),
            cycle_budget=budget,
            allowed=allowed,
            max_insns=max_insns,
            engine=engine,
            msg_region=msg_region,
        )
        out["ok"] = True
        out["value"] = res.value
        out["cycles"] = res.cycles
        out["executed"] = res.insns_executed
        out["call_log"] = res.call_log
        out["regs"] = list(res.regs)
    except VmFault as exc:
        out["ok"] = False
        out["fault_type"] = type(exc).__name__
        out["fault_msg"] = str(exc)
        out["fault_cycles"] = exc.cycles
        out["fault_executed"] = exc.insns_executed
        out["regs"] = list(my_regs) if my_regs is not None else None
    # addresses 0..15 are unmapped by PhysicalMemory; pad so indices align
    out["memory"] = bytes(16) + mem.read(16, MEM_SIZE - 16)
    if cache is not None:
        out["cache"] = (cache.hits, cache.misses)
    return out


def assert_equivalent(program, **kwargs):
    a = _observe(program, engine="interp", **kwargs)
    b = _observe(program, engine="jit", **kwargs)
    assert a == b, (
        f"{program.name}: engines diverge\n"
        + "\n".join(
            f"  {k}: interp={a[k]!r} jit={b[k]!r}"
            for k in a
            if a.get(k) != b.get(k)
        )
    )
    return a


# ---------------------------------------------------------------------------
# corpus: example handlers, raw and sandboxed
# ---------------------------------------------------------------------------

EXAMPLES = [
    build_echo,
    build_remote_increment,
    lambda: build_remote_write_generic(1),
    lambda: build_remote_write_specific(1),
]


@pytest.mark.parametrize("builder", EXAMPLES,
                         ids=lambda b: getattr(b, "__name__", "lambda"))
def test_example_handlers_raw(builder):
    prog = builder()
    assert_equivalent(prog, args=(MSG, 4, CTX), allowed=ALLOWED)


@pytest.mark.parametrize("builder", EXAMPLES,
                         ids=lambda b: getattr(b, "__name__", "lambda"))
def test_example_handlers_sandboxed(builder):
    sandboxed, _report = Sandboxer().sandbox(builder())
    res = assert_equivalent(
        sandboxed, args=(MSG, 4, CTX), allowed=ALLOWED, budget=100_000
    )
    assert res is not None


def test_remote_increment_semantics_preserved_under_jit():
    prog = build_remote_increment()
    out = _observe(prog, args=(MSG, 4, CTX), allowed=ALLOWED, engine="jit")
    assert out["ok"]
    # counter 41 += 1234 from the message
    assert int.from_bytes(out["memory"][COUNTER:COUNTER + 4], "little") == 1275
    assert [name for name, _, _ in out["call_log"]] == ["ash_send"]


# ---------------------------------------------------------------------------
# corpus: extension loops (with and without a modelled cache)
# ---------------------------------------------------------------------------

LOOPS = [
    lambda: build_copy(unroll=1),
    lambda: build_copy(unroll=4),
    lambda: build_checksum(unroll=1),
    lambda: build_checksum(unroll=2),
    lambda: build_byteswap(),
    lambda: build_integrated(),
]


@pytest.mark.parametrize("use_cache", [True, False], ids=["cache", "nocache"])
@pytest.mark.parametrize("nbytes", [0, 4, 40, 1024])
@pytest.mark.parametrize("loop", range(len(LOOPS)))
def test_extension_loops(loop, nbytes, use_cache):
    prog = LOOPS[loop]()
    assert_equivalent(
        prog, args=(0x100, 0x800, nbytes), use_cache=use_cache
    )


def test_dilp_fused_loop():
    from repro.pipes.compiler import compile_pl
    from repro.pipes.library import mk_cksum_pipe, mk_xor_pipe
    from repro.pipes.pipelist import pipel

    pl = pipel()
    mk_cksum_pipe(pl)
    mk_xor_pipe(pl, 0xDEADBEEF)
    pipeline = compile_pl(pl)
    assert_equivalent(pipeline.program, args=(0x100, 0x800, 256))


# ---------------------------------------------------------------------------
# fault corpus: both engines must fault identically
# ---------------------------------------------------------------------------

def _prog(name, items, **kwargs):
    p = assemble(name, items)
    for k, v in kwargs.items():
        setattr(p, k, v)
    return p


def test_budget_exceeded_in_loop_same_pc():
    prog = _prog("spin", [
        ("label", "top"),
        Insn("addiu", rd=8, rs=8, imm=1),
        Insn("j", label="top"),
    ])
    out = assert_equivalent(prog, budget=1000)
    assert out["fault_type"] == "BudgetExceeded"
    assert "at pc=" in out["fault_msg"]


def test_budget_exceeded_mid_straightline_block():
    # a long unrolled checksum with a budget that trips mid-block: the
    # JIT's precheck deopts and the interpreter must abort at the exact
    # instruction the reference does
    prog = build_checksum(unroll=4)
    for budget in (1, 7, 50, 333, 1000):
        out = assert_equivalent(
            prog, args=(0x100, 0x800, 1024), budget=budget
        )
        assert out["fault_type"] == "BudgetExceeded"


def test_insn_cap_exceeded():
    prog = _prog("spin2", [
        ("label", "top"),
        Insn("addiu", rd=8, rs=8, imm=1),
        Insn("j", label="top"),
    ])
    out = assert_equivalent(prog, max_insns=100)
    assert out["fault_type"] == "BudgetExceeded"
    assert "instruction cap" in out["fault_msg"]


def test_insn_cap_exceeded_with_free_instructions():
    # where an instruction costs no cycle, the cycle count no longer
    # bounds the instruction count: the cap needs its own guard
    from dataclasses import replace as with_costs

    prog = _prog("spin3", [
        ("label", "top"),
        Insn("addiu", rd=8, rs=8, imm=1),
        Insn("j", label="top"),
    ])
    out = assert_equivalent(prog, max_insns=100,
                            cal=with_costs(DEFAULT, insn_cycles=0))
    assert "instruction cap" in out["fault_msg"]


def test_memory_fault_wild_load():
    prog = _prog("wild", [
        Insn("li", rd=8, imm=0x7FFFFFF0),
        Insn("ld32", rd=9, rs=8, imm=0),
        Insn("ret"),
    ])
    out = assert_equivalent(prog)
    assert out["fault_type"] == "MemoryFault"


def test_memory_fault_checked_access():
    """A checked access outside the regions faults as the interpreter
    does.  Each region list a program runs over is baked into a
    translation of its own (no per-run loop over regions), and each
    faults, or not, exactly where the interpreter does."""
    prog = _prog("chk", [
        Insn("li", rd=8, imm=0x100),
        Insn("chkld", rs=8, rt=4),
        Insn("ret"),
    ])
    out = assert_equivalent(prog, allowed=[(0x2000, 64)])
    assert out["fault_type"] == "MemoryFault"
    assert "outside allowed regions" in out["fault_msg"]

    sandboxed = Sandboxer().sandbox(build_remote_increment())[0]
    jit.clear_code_cache()
    for allowed, ok in ((ALLOWED, True), (ALLOWED[1:], False)):
        out = assert_equivalent(sandboxed, args=(MSG, 4, CTX),
                                allowed=allowed)
        assert out["ok"] is ok
        if not ok:
            assert f"checked access to {MSG:#x}+4" in out["fault_msg"]
    assert jit.code_cache_size() == 2
    for compiled in jit._CODE_CACHE.values():
        loops = [line.strip() for line in compiled.source.splitlines()
                 if line.lstrip().startswith(("for ", "while "))]
        # the dispatch loop and the register publication, nothing else
        assert set(loops) <= {"while True:", "for _r, _n in _REGS:"}


def test_arithmetic_fault_divide_by_zero():
    prog = _prog("div0", [
        Insn("li", rd=8, imm=10),
        Insn("divu", rd=9, rs=8, rt=16),
        Insn("ret"),
    ])
    out = assert_equivalent(prog)
    assert out["fault_type"] == "ArithmeticFault"
    assert "divide by zero at pc=1" in out["fault_msg"]


def test_jump_fault_indirect_out_of_range():
    prog = _prog("jrbad", [
        Insn("li", rd=8, imm=1000),
        Insn("jr", rs=8),
        Insn("ret"),
    ])
    out = assert_equivalent(prog)
    assert out["fault_type"] == "JumpFault"
    assert "indirect jump to 1000" in out["fault_msg"]


def test_jump_fault_unknown_trusted_entry():
    prog = _prog("badcall", [Insn("call", label="nope"), Insn("ret")])
    out = assert_equivalent(prog)
    assert out["fault_type"] == "JumpFault"
    assert "unknown trusted entry" in out["fault_msg"]


def test_jump_fault_chkjmp_rejects():
    prog = _prog("chkj", [
        Insn("li", rd=8, imm=999),
        Insn("chkjmp", rs=8),
        Insn("ret"),
    ])
    out = assert_equivalent(prog)
    assert out["fault_type"] == "JumpFault"
    assert "chkjmp rejected" in out["fault_msg"]


def test_forbidden_instruction_refused_on_execution():
    prog = _prog("forbid", [
        Insn("li", rd=8, imm=1),
        Insn("add", rd=9, rs=8, rt=8),
        Insn("ret"),
    ])
    out = assert_equivalent(prog)
    assert out["fault_type"] == "VmFault"
    assert "refused forbidden instruction" in out["fault_msg"]


def test_dead_forbidden_op_does_not_trap():
    # trap-on-execution, not trap-on-presence: a forbidden op after ret
    # never runs, in either engine
    prog = _prog("deadforbid", [
        Insn("li", rd=2, imm=5),
        Insn("ret"),
        Insn("fadd", rd=8, rs=8, rt=8),
    ])
    out = assert_equivalent(prog)
    assert out["ok"] and out["value"] == 5


def test_trusted_call_extra_cycles_trip_budget_at_next_insn():
    # ash_dilp charges 500 extra cycles; with budget 100 the interpreter
    # notices only at the *next* instruction — the JIT must match
    prog = _prog("call_over", [
        Insn("call", label="ash_dilp"),
        Insn("addiu", rd=8, rs=8, imm=1),
        Insn("ret"),
    ])
    out = assert_equivalent(prog, budget=100)
    assert out["fault_type"] == "BudgetExceeded"
    assert "at pc=1" in out["fault_msg"]
    # the call itself completed and was logged before the abort
    assert out["fault_cycles"] > 500


def test_jr_to_non_leader_deopts_correctly():
    # jr lands mid-block (pc=2 is not a branch target or label), forcing
    # the JIT down its deopt path; results must still match
    prog = _prog("jrmid", [
        Insn("li", rd=8, imm=2),
        Insn("jr", rs=8),
        Insn("li", rd=2, imm=77),
        Insn("ret"),
    ])
    out = assert_equivalent(prog)
    assert out["ok"] and out["value"] == 77


# ---------------------------------------------------------------------------
# randomized differential testing (fixed seed)
# ---------------------------------------------------------------------------

_RAND_ALU = ["addu", "subu", "multu", "and", "or", "xor", "nor", "sltu",
             "sllv", "srlv"]
_RAND_IMM = ["addiu", "andi", "ori", "xori", "sltiu", "sll", "srl"]


def _random_program(rng: random.Random, idx: int) -> Program:
    n = rng.randint(4, 40)
    insns = []
    for pc in range(n):
        roll = rng.random()
        regs = [rng.randint(0, 31) for _ in range(3)]
        if roll < 0.35:
            insns.append(Insn(rng.choice(_RAND_ALU),
                              rd=regs[0], rs=regs[1], rt=regs[2]))
        elif roll < 0.55:
            insns.append(Insn(rng.choice(_RAND_IMM), rd=regs[0], rs=regs[1],
                              imm=rng.randint(-64, 4096)))
        elif roll < 0.62:
            insns.append(Insn("li", rd=regs[0],
                              imm=rng.randint(0, 0xFFFFFFFF)))
        elif roll < 0.70:  # load/store near a valid window, may fault
            op = rng.choice(["ld8", "ld16", "ld32", "st8", "st16", "st32"])
            kw = {"rd": regs[0]} if op.startswith("ld") else {"rt": regs[0]}
            insns.append(Insn(op, rs=0, imm=0x100 + 4 * rng.randint(0, 60),
                              **kw))
        elif roll < 0.80:
            insns.append(Insn(rng.choice(["beq", "bne", "bltu", "bgeu"]),
                              rs=regs[0], rt=regs[1],
                              target=rng.randint(0, n)))
        elif roll < 0.84:
            insns.append(Insn("j", target=rng.randint(0, n)))
        elif roll < 0.88:
            insns.append(Insn("divu", rd=regs[0], rs=regs[1], rt=regs[2]))
        elif roll < 0.92:
            insns.append(Insn(rng.choice(["cksum32", "bswap32", "bswap16"]),
                              rd=regs[0], rs=regs[1]))
        elif roll < 0.95:
            insns.append(Insn("call", label="t0"))
        elif roll < 0.97:
            insns.append(Insn("jr", rs=regs[0]))
        else:
            insns.append(Insn("ret"))
    return Program(name=f"rand{idx}", insns=insns)


def test_randomized_programs_equivalent():
    rng = random.Random(0xA5A5)
    for idx in range(250):
        prog = _random_program(rng, idx)
        regs = [rng.randint(0, 0xFFFFFFFF) for _ in range(32)]
        assert_equivalent(
            prog,
            regs=regs,
            budget=rng.choice([None, 50, 1000, 100_000]),
            max_insns=3000,
            use_cache=bool(idx % 2),
        )


#: base registers of the sandboxed slice: the message pointer (A0) and
#: three the program points at the static regions, never written
_BASES = {4: None, 20: CTX, 21: COUNTER, 22: SCRATCH}
_DATA = (2, 8, 9, 10, 11, 12, 16, 17)
#: static region lists: the usual, and with one reaching past the end
_STATIC = ([(CTX, 64), (COUNTER, 64), (SCRATCH, 64)],
           [(CTX, 64), (COUNTER, 64), (SCRATCH, 64), (MEM_SIZE - 16, 64)])
#: message windows: in memory, none, past the end, below its start
_WINDOWS = ((MSG, 64), (MSG, 64), None, (MEM_SIZE - 24, 64), (4, 40))


def _random_sandboxed(rng: random.Random, idx: int) -> Program:
    """A random handler over the static regions and the message, for
    the sandboxer to guard: accesses in the regions and at their edges,
    trusted calls between register writes, branches both ways, labels
    an indirect jump may reach, zero divisors."""
    insns = [Insn("li", rd=reg, imm=base)
             for reg, base in _BASES.items() if base is not None]
    n = rng.randint(6, 30)
    for _ in range(n):
        roll = rng.random()
        d = [rng.choice(_DATA) for _ in range(3)]
        if roll < 0.22:
            insns.append(Insn(rng.choice(_RAND_ALU), rd=d[0], rs=d[1],
                              rt=d[2]))
        elif roll < 0.32:
            insns.append(Insn(rng.choice(_RAND_IMM), rd=d[0], rs=d[1],
                              imm=rng.randint(-64, 4096)))
        elif roll < 0.57:
            op = rng.choice(["ld8", "ld16", "ld32", "st8", "st16", "st32"])
            kw = {"rd": d[0]} if op.startswith("ld") else {"rt": d[0]}
            size = int(op[2:]) // 8
            # a quarter just inside or just outside a region's edge
            imm = (rng.choice((-1, 0, 64 - size, 65 - size))
                   if rng.random() < 0.25 else rng.randint(0, 60))
            insns.append(Insn(op, rs=rng.choice((4, 4, 20, 21, 22)),
                              imm=imm, **kw))
        elif roll < 0.75:
            insns.append(Insn("call", label=rng.choice(["regsum", "t0"])))
        elif roll < 0.85:
            insns.append(Insn(rng.choice(["beq", "bne", "bltu", "bgeu"]),
                              rs=d[0], rt=d[1],
                              target=rng.randint(0, len(insns) + 4)))
        elif roll < 0.88:
            insns.append(Insn("divu", rd=d[0], rs=d[1], rt=d[2]))
        elif roll < 0.90:
            insns.append(Insn("li", rd=d[0], imm=rng.randint(0, 8)))
            insns.append(Insn("jr", rs=d[0]))
        elif roll < 0.95:
            insns.append(Insn("j", target=rng.randint(0, len(insns) + 4)))
        else:
            insns.append(Insn("ret"))
    insns.append(Insn("ret"))
    end = len(insns)
    insns = [i if i.target is None else replace(i, target=min(i.target, end))
             for i in insns]
    labels = {f"L{pc}": pc for pc in rng.sample(range(end), 3)}
    prog = Program(name=f"sbx{idx}", insns=insns, labels=labels)
    return Sandboxer().sandbox(prog)[0]


def test_randomized_sandboxed_programs_equivalent():
    """Sandboxed random handlers under baked regions and a message
    window (inside memory, absent, or reaching outside it), with budgets
    that deopt mid-run: every guard-fused access, dirty-register write
    back, trusted call, deopt and fault matches the interpreter."""
    rng = random.Random(0x5EED)
    for idx in range(240):
        prog = _random_sandboxed(rng, idx)
        window = rng.choice(_WINDOWS)
        msg = window[0] if window is not None else MSG
        regs = [rng.randint(0, 0xFFFFFFFF) for _ in range(32)]
        jit.clear_code_cache()
        assert_equivalent(
            prog,
            args=(msg, 4, CTX),
            regs=regs,
            allowed=rng.choice(_STATIC),
            msg_region=window,
            budget=rng.choice([None, 40, 300, 5000]),
            max_insns=2000,
            use_cache=bool(idx % 2),
        )


# ---------------------------------------------------------------------------
# the JIT is actually engaged (not silently falling back)
# ---------------------------------------------------------------------------

def test_jit_actually_compiles_and_caches():
    jit.clear_code_cache()
    jit.stats.reset()
    prog = build_checksum()
    _observe(prog, args=(0x100, 0x800, 256), engine="jit")
    assert jit.stats.misses == 1 and jit.code_cache_size() == 1
    _observe(prog, args=(0x100, 0x800, 256), engine="jit")
    assert jit.stats.hits == 1 and jit.code_cache_size() == 1
    # a fresh build numbers its labels anew: same content, same code
    again = build_checksum()
    assert again.labels != prog.labels
    _observe(again, args=(0x100, 0x800, 256), engine="jit")
    assert jit.stats.misses == 1 and jit.code_cache_size() == 1


def _translations(*programs) -> int:
    jit.clear_code_cache()
    for prog in programs:
        assert jit.get_compiled(prog, DEFAULT, True) is not None
    return jit.code_cache_size()


def test_trusted_entry_is_part_of_the_content():
    def calling(entry):
        return _prog("caller", [Insn("call", label=entry), Insn("ret")])

    assert _translations(calling("ash_send"), calling("ash_send")) == 1
    assert _translations(calling("ash_send"), calling("net_send")) == 2


def test_branch_target_is_part_of_the_content():
    def branching(marks, to):
        """``beq`` to label ``to``; ``marks`` names the labels at pcs 2, 3."""
        return _prog("branch", [
            Insn("beq", rs=4, rt=0, label=to),
            Insn("addiu", rd=2, rs=2, imm=1),
            ("label", marks[0]),
            Insn("addiu", rd=2, rs=2, imm=2),
            ("label", marks[1]),
            Insn("ret"),
        ])

    # label names are not content; the resolved target is
    assert _translations(branching("ab", "b"), branching("xy", "y")) == 1
    assert _translations(branching("ab", "b"), branching("ab", "a")) == 2


def test_each_translation_has_its_own_code_name():
    """``pingpong_small`` translates ``tcp_fastpath.sandboxed`` twice,
    once per flow's baked region list; a profile keys rows by code
    name, so the two must not share one."""
    from repro.bench.census import _perf_worlds

    worlds = _perf_worlds()
    jit.clear_code_cache()
    world = worlds.BUILDERS["pingpong_small"](
        worlds.generate_inputs("pingpong_small", 1, smoke=True))
    world.run()
    world.close()
    names = [c.fn.__code__.co_filename for c in jit._CODE_CACHE.values()]
    fastpath = [n for n in names
                if n.startswith("<vcode-jit:tcp_fastpath.sandboxed:")]
    assert len(fastpath) == 2
    assert len(set(names)) == len(names)


def test_jit_telemetry_counters():
    from repro.telemetry.metrics import MetricsRegistry

    jit.clear_code_cache()
    tel = MetricsRegistry("test")
    prog = build_copy()
    compiled = jit.get_compiled(prog, DEFAULT, True, telemetry=tel)
    assert compiled is not None
    jit.get_compiled(prog, DEFAULT, True, telemetry=tel)
    snap = {
        (c["name"]): c["value"]
        for c in tel.snapshot()["counters"]
    }
    assert snap["vcode.jit.cache_misses"] == 1
    assert snap["vcode.jit.cache_hits"] == 1
    assert snap["vcode.jit.compile_cycles"] == (
        jit.COMPILE_CYCLES_PER_INSN * len(prog.insns)
    )
