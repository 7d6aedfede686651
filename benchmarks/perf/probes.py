"""Micro-probes: tight loops over each layer's public functions.

Run as a script (``run.py`` starts it in a process of its own), this
times calls into one module at a time and prints one JSON object of raw
host nanoseconds -- raw because a probe is read beside ``host.calib_s``
from the same process, never gated.  Each probe takes the best of three
batches, each batch sized to last a few tens of milliseconds.

A probe touches only public names.  What the end-to-end numbers should do
when a probe moves is written down in README.md ("How they interact").
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))

#: seconds one batch should last; ``--quick`` (smoke) shrinks it
BATCH_S = 0.012


def per_call_ns(fn, batch_s: float | None = None, inner: int = 1) -> float:
    """Best-of-three ns per call of ``fn`` (``inner`` = operations one
    call performs)."""
    batch_s = BATCH_S if batch_s is None else batch_s
    fn()                                   # warm caches, lazy imports
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        dt = time.perf_counter() - t0
        if dt >= batch_s or n >= 1 << 22:
            break
        n = max(n * 2, int(n * batch_s / max(dt, 1e-9) * 1.1))
    best = dt
    for _ in range(2):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / n / inner * 1e9


def once_s(fn, repeats: int = 3) -> float:
    """Best-of-``repeats`` seconds for one call of a slow ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------

def _engine_loop(substrate: str, n: int) -> float:
    """Seconds per fired event of a process that sleeps ``n`` times."""
    from repro.sim.engine import Engine

    eng = Engine(substrate=substrate)

    def sleeper():
        for _ in range(n):
            yield eng.sleep(1000)

    eng.spawn(sleeper())
    t0 = time.perf_counter()
    eng.run()
    return (time.perf_counter() - t0) / eng.stats()["fired"]


def probe_engine(out: dict, scale: float) -> None:
    from repro.sim.engine import Engine
    from repro.sim.queues import Channel

    n = max(2000, int(20_000 * scale))
    fast = min(_engine_loop("fast", n) for _ in range(3))
    legacy = min(_engine_loop("legacy", n) for _ in range(3))
    out["sim.engine.timer_ns_per_event"] = fast * 1e9
    out["sim.engine.legacy_over_fast"] = legacy / fast

    def resume_loop() -> float:
        eng = Engine()
        ping, pong = Channel(eng, "ping"), Channel(eng, "pong")

        def left():
            for i in range(n // 2):
                ping.put(i)
                yield pong.get()

        def right():
            for _ in range(n // 2):
                v = yield ping.get()
                pong.put(v)

        eng.spawn(left())
        eng.spawn(right())
        t0 = time.perf_counter()
        eng.run()
        return (time.perf_counter() - t0) / eng.stats()["fired"]

    out["sim.engine.resume_ns_per_event"] = \
        min(resume_loop() for _ in range(3)) * 1e9


def _hold(queue, occupancy: int, ops: int) -> float:
    """Classic hold model: keep ``occupancy`` entries pending, pop the
    earliest and push one a random delay later; ns per pop+push."""
    rng = random.Random(7)
    span = 50_000_000_000        # 50 simulated ms, in ps
    seq = 0
    for _ in range(occupancy):
        seq += 1
        queue.push([rng.randrange(span), seq, _hold, (), None])
    delays = [rng.randrange(1, span) for _ in range(1024)]
    push, pop = queue.push, queue.pop
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(ops):
            entry = pop()
            seq += 1
            push([entry[0] + delays[i & 1023], seq, _hold, (), None])
        best = min(best, time.perf_counter() - t0)
    return best / ops * 1e9


def probe_queues(out: dict, scale: float) -> None:
    from repro.sim.engine import DEFAULT_TIMER_HORIZON_US
    from repro.sim.queues import CalendarQueue, HeapEventQueue

    def calendar():
        return CalendarQueue.for_horizon(DEFAULT_TIMER_HORIZON_US * 1_000_000)

    # occupancies as measured (``sim.queues.peak_pending``): the two-to-
    # four-pair worlds hold 12-25 events, ``scale_smp`` 540 (about 1100 at
    # the issue's 20 pairs); nothing here reaches the issue's 100 k
    ops = max(2000, int(40_000 * scale))
    out["sim.queues.calendar_push_pop_ns_occ100"] = _hold(calendar(), 100, ops)
    out["sim.queues.calendar_push_pop_ns_occ1k"] = _hold(calendar(), 1000, ops)
    out["sim.queues.heap_push_pop_ns_occ1k"] = \
        _hold(HeapEventQueue(), 1000, ops)

    def cancel_batch() -> float:
        queue = calendar()
        entries = [[(i + 1) * 3_000_000, i, _hold, (), None]
                   for i in range(ops)]
        for entry in entries:
            queue.push(entry)
        cancel = queue.cancel
        t0 = time.perf_counter()
        for entry in entries:
            cancel(entry)
        return (time.perf_counter() - t0) / ops * 1e9

    out["sim.queues.calendar_cancel_ns"] = min(cancel_batch()
                                               for _ in range(3))


def probe_faults(out: dict, scale: float) -> None:
    from repro.hw.link import Frame, Link
    from repro.sim.engine import Engine
    from repro.sim.faults import FaultPlane

    eng = Engine()
    link = Link(eng, rate_bytes_per_s=16.8e6, latency_us=10.0, name="probe")
    imp = FaultPlane(eng, seed=1).impair_link(
        link, drop=0.03, reorder=0.03, duplicate=0.02, corrupt=0.02)
    frame = Frame(bytes(1024), vci=1)
    out["sim.faults.link_hook_ns_per_frame"] = per_call_ns(
        lambda: imp.on_send(0, frame, 1_000_000))


# ---------------------------------------------------------------------------
# hw
# ---------------------------------------------------------------------------

def probe_hw(out: dict, scale: float) -> None:
    from repro.hw.cache import DirectMappedCache
    from repro.hw.calibration import DEFAULT
    from repro.hw.link import Frame
    from repro.hw.memory import PhysicalMemory
    from repro.hw.nic.base import RxDescriptor
    from repro.hw.nic.rss import RssDispatcher

    # hold every instance: a freed 16 MiB block would be handed straight
    # back, and the cost a world pays is zeroing *fresh* pages
    held: list = []
    out["hw.memory.construct_ms_16mib"] = once_s(
        lambda: held.append(PhysicalMemory(16 * 1024 * 1024))) * 1e3
    del held
    mem = PhysicalMemory(1 << 20)
    out["hw.memory.copy_range_ns_per_kib"] = per_call_ns(
        lambda: mem.copy_range(0x1000, 0x40000, 8192), inner=8)

    cache = DirectMappedCache(DEFAULT, substrate="fast")
    addrs = iter(range(1 << 40))
    out["hw.cache.touch_range_ns_per_kib"] = per_call_ns(
        lambda: cache.touch_range((next(addrs) * 8192) & 0xFFFFF, 8192),
        inner=8)
    out["hw.cache.load_ns"] = per_call_ns(
        lambda: cache.load((next(addrs) * 4) & 0xFFFFF, 4))

    rss = RssDispatcher(4)
    descs = [RxDescriptor(nic=None, frame=Frame(bytes(64), vci=1 + i % 64),
                          addr=0, length=64, vci=1 + i % 64)
             for i in range(256)]
    which = iter(range(1 << 40))
    out["hw.nic.rss.steer_ns_per_frame"] = per_call_ns(
        lambda: rss.steer(descs[next(which) & 255]))


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def _dpf(nfilters: int):
    from repro.hw.calibration import DEFAULT
    from repro.kernel.dpf import DpfEngine, Predicate

    dpf = DpfEngine(DEFAULT)
    for port in range(nfilters):
        dpf.insert([
            Predicate(offset=0, size=1, value=0x45, mask=0xFF),
            Predicate(offset=9, size=1, value=17, mask=0xFF),
            Predicate(offset=22, size=2, value=5000 + port),
        ])
    packet = (bytes([0x45]) + bytes(8) + bytes([17]) + bytes(12)
              + (5000 + nfilters // 2).to_bytes(2, "big") + bytes(16))
    return dpf, packet


def probe_kernel(out: dict, scale: float) -> None:
    from repro.bench.workloads import raw_stream_throughput
    from repro.kernel.dpf import Predicate

    for n in (10, 1000):
        dpf, packet = _dpf(n)
        out[f"kernel.dpf.classify_ns_f{n}"] = per_call_ns(
            lambda: dpf.classify(packet))
    dpf, _ = _dpf(100)
    ports = iter(range(6000, 1 << 30))
    out["kernel.dpf.insert_us"] = per_call_ns(lambda: dpf.insert([
        Predicate(offset=0, size=1, value=0x45, mask=0xFF),
        Predicate(offset=22, size=2, value=next(ports) & 0xFFFF),
    ]), batch_s=BATCH_S / 3) / 1e3

    count = max(20, int(200 * scale))
    out["kernel.kernel.raw_deliver_us_per_frame"] = once_s(
        lambda: raw_stream_throughput(size=64, count=count)) / count * 1e6


# ---------------------------------------------------------------------------
# vcode / sandbox / pipes / ash
# ---------------------------------------------------------------------------

MSG, CTX, COUNTER, SCRATCH = 0x1000, 0x2000, 0x3000, 0x3100
ALLOWED = [(MSG, 64), (CTX, 64), (COUNTER, 64), (SCRATCH, 64)]


def _handler_machine():
    from repro.ash.examples import (PARAM_COUNTER, PARAM_REPLY_VCI,
                                    PARAM_SCRATCH)
    from repro.hw.memory import PhysicalMemory

    mem = PhysicalMemory(1 << 16)
    mem.write(0x100, bytes(range(256)) * 16)
    mem.write(MSG, (1).to_bytes(4, "little") + bytes(60))
    mem.store_u32(CTX + PARAM_COUNTER, COUNTER)
    mem.store_u32(CTX + PARAM_REPLY_VCI, 7)
    mem.store_u32(CTX + PARAM_SCRATCH, SCRATCH)
    return mem


def probe_vcode(out: dict, scale: float) -> None:
    from repro.ash.examples import build_remote_increment
    from repro.hw.cache import DirectMappedCache
    from repro.hw.calibration import DEFAULT
    from repro.sandbox.rewriter import Sandboxer
    from repro.sandbox.verifier import verify
    from repro.vcode import jit
    from repro.vcode.extensions import build_checksum
    from repro.vcode.vm import Vm

    mem = _handler_machine()
    vm = Vm(mem, cache=DirectMappedCache(DEFAULT), cal=DEFAULT)
    cksum = build_checksum(unroll=4)
    insns = vm.run(cksum, args=(0x100, 0, 1024),
                   engine="interp").insns_executed
    out["vcode.vm.interp_ns_per_insn"] = per_call_ns(
        lambda: vm.run(cksum, args=(0x100, 0, 1024), engine="interp"),
        inner=insns)

    program, _ = Sandboxer().sandbox(build_remote_increment())
    regs = [0] * 32
    env = {"ash_send": lambda ctx: (ctx.arg(1), 120)}

    def invoke(engine):
        return vm.run(program, args=(MSG, 4, CTX), regs=regs, env=env,
                      cycle_budget=50_000, allowed=ALLOWED, engine=engine)

    warm = per_call_ns(lambda: invoke("jit"))
    interp = per_call_ns(lambda: invoke("interp"))
    out["vcode.jit.warm_ns_per_invocation"] = warm
    out["vcode.jit.warm_over_interp"] = warm / interp

    def cold():
        jit.clear_code_cache()
        invoke("jit")

    out["vcode.jit.cold_translate_us"] = per_call_ns(
        cold, batch_s=BATCH_S / 2) / 1e3 - warm / 1e3

    source = build_remote_increment()
    out["sandbox.rewriter.sandbox_us"] = per_call_ns(
        lambda: Sandboxer().sandbox(source), batch_s=BATCH_S / 2) / 1e3
    out["sandbox.verifier.verify_us"] = per_call_ns(
        lambda: verify(source), batch_s=BATCH_S / 2) / 1e3


def probe_pipes(out: dict, scale: float) -> None:
    from repro.hw.cache import DirectMappedCache
    from repro.hw.calibration import DEFAULT
    from repro.pipes.compiler import PIPE_WRITE, compile_pl
    from repro.pipes.library import mk_cksum_pipe, mk_xor_pipe
    from repro.pipes.pipelist import pipel
    from repro.vcode.vm import Vm

    def build():
        pl = pipel()
        mk_cksum_pipe(pl)
        mk_xor_pipe(pl, 0xDEADBEEF)
        return compile_pl(pl, PIPE_WRITE, cal=DEFAULT)

    out["pipes.compiler.compile_us"] = per_call_ns(
        build, batch_s=BATCH_S / 2) / 1e3
    pipeline = build()
    mem = _handler_machine()
    cache = DirectMappedCache(DEFAULT)
    vm = Vm(mem, cache=cache, cal=DEFAULT)
    out["pipes.compiler.run_vm_ns_per_kib"] = per_call_ns(
        lambda: pipeline.run_vm(vm, 0x100, 0x2000, 2048), inner=2)
    out["pipes.compiler.run_fast_ns_per_kib"] = per_call_ns(
        lambda: pipeline.run_fast(mem, 0x100, 0x2000, 2048, cache), inner=2)


def probe_ash(out: dict, scale: float) -> None:
    from repro.ash.examples import build_remote_increment
    from repro.ash.tenancy import TenantManager
    from repro.bench.testbed import make_an2_pair
    from repro.bench.workloads import remote_increment
    from repro.hw.link import Frame

    tb = make_an2_pair(mem_size=1 << 20)
    sk = tb.server_kernel
    state = tb.server.memory.alloc("probe_state", 64)
    out["ash.system.download_us"] = per_call_ns(
        lambda: sk.ash_system.download(
            build_remote_increment(), allowed_regions=[(state.base, 64)],
            user_word=state.base + 32),
        batch_s=BATCH_S / 2) / 1e3

    iters = max(10, int(60 * scale))
    out["ash.system.rinc_host_us_per_rt"] = once_s(
        lambda: remote_increment(mode="ash", iters=iters, warmup=0),
        repeats=2) / iters * 1e6

    manager = TenantManager(sk)
    manager.create("probe", rings=4, buffers=16, handler_cycles=100_000,
                   bytes_per_round=1_000_000_000, burst_bytes=1_000_000_000)
    sk.create_endpoint_an2(tb.server_nic, 30, tenant="probe")
    frame = Frame(bytes(256), vci=30)
    out["ash.tenancy.check_ns_per_frame"] = per_call_ns(
        lambda: manager.check(tb.server_nic, frame))


# ---------------------------------------------------------------------------
# net
# ---------------------------------------------------------------------------

def probe_net(out: dict, scale: float) -> None:
    from repro.net.checksum import inet_checksum
    from repro.net.headers import TCP_ACK, Ipv4Header, TcpHeader, ip_aton
    from repro.net.tcp.sack import ReassemblyQueue, SackScoreboard
    from repro.net.tcp.segment import build_segment, parse_segment

    small, large = bytes(range(64)), bytes(range(256)) * 32
    out["net.checksum.inet_ns_per_kib_64b"] = per_call_ns(
        lambda: inet_checksum(small), inner=1 / 16)
    out["net.checksum.inet_ns_per_kib_8kib"] = per_call_ns(
        lambda: inet_checksum(large), inner=8)

    src, dst = ip_aton("10.0.0.1"), ip_aton("10.0.0.2")
    ip = Ipv4Header(src=src, dst=dst, proto=6, total_length=40)
    out["net.headers.pack_parse_ns"] = per_call_ns(
        lambda: Ipv4Header.unpack(ip.pack()))

    hdr = TcpHeader(src_port=5000, dst_port=80, seq=1000, ack=7000,
                    flags=TCP_ACK, window=8192)
    payload = bytes(512)
    out["net.tcp.segment.build_parse_ns"] = per_call_ns(
        lambda: parse_segment(build_segment(src, dst, hdr, payload), 0x1000))

    seg_bytes = bytes(1024)

    def scoreboard_round():
        board = SackScoreboard()
        for i in range(8):
            board.record(1000 + i * 1024, seg_bytes, 0)
        board.apply_sack([(1000 + 3 * 1024, 1000 + 5 * 1024)])
        for i in range(1, 9):
            board.ack(1000 + i * 1024)

    out["net.tcp.sack.scoreboard_ns_per_ack"] = per_call_ns(
        scoreboard_round, inner=8)

    def reassembly_round():
        queue = ReassemblyQueue()
        for i in (3, 1, 5, 2, 4, 7, 6):     # out of order, then drain
            queue.add(1000 + i * 1024, seg_bytes, 1000)
        queue.blocks()
        queue.pop_ready(1000 + 1024)

    out["net.tcp.sack.reassembly_ns_per_seg"] = per_call_ns(
        reassembly_round, inner=7)


# ---------------------------------------------------------------------------
# telemetry
# ---------------------------------------------------------------------------

def _pingpong_slice_s(enabled: bool, rounds: int) -> float:
    """CPU seconds of a ``pingpong_small`` slice with the session on/off."""
    from repro import telemetry

    import worlds

    inputs = worlds.generate_inputs("pingpong_small", 1)
    inputs["rounds"] = rounds
    with telemetry.session(enabled=enabled):
        world = worlds.build_pingpong_small(inputs)
        t0 = time.process_time()
        world.run()
        dt = time.process_time() - t0
    _attempted, failed, notes = world.verify()
    if failed:
        raise RuntimeError(f"telemetry probe world failed: {notes}")
    return dt


def probe_telemetry(out: dict, scale: float) -> None:
    from repro.sim.engine import Engine
    from repro.telemetry import Telemetry

    tel = Telemetry(Engine(), source="probe", enabled=True)
    counter = tel.counter("probe.count", kind="x")
    hist = tel.histogram("probe.hist")
    values = iter(range(1 << 40))
    out["telemetry.metrics.counter_inc_ns"] = per_call_ns(counter.inc)
    out["telemetry.metrics.hist_observe_ns"] = per_call_ns(
        lambda: hist.observe(next(values) & 1023))

    def span_round():
        span = tel.spans.begin("rx", 0)
        span.stage("nic_rx", 10)
        span.stage("demux", 20)
        tel.spans.finish(span, 30)

    out["telemetry.spans.begin_finish_ns"] = per_call_ns(span_round)

    rounds = max(4, int(12 * scale))
    off = min(_pingpong_slice_s(False, rounds) for _ in range(2))
    on = min(_pingpong_slice_s(True, rounds) for _ in range(2))
    out["telemetry.on_over_off"] = on / off


PROBES = (probe_engine, probe_queues, probe_faults, probe_hw, probe_kernel,
          probe_vcode, probe_pipes, probe_ash, probe_net, probe_telemetry)


def main(argv=None) -> int:
    global BATCH_S
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    scale = 0.1 if quick else 1.0
    if quick:
        BATCH_S = 0.004
    import calib

    readings = [calib.run() for _ in range(4)]
    sys.path.insert(0, os.path.join(REPO, "src"))
    out: dict = {}
    t0 = time.perf_counter()
    for probe in PROBES:
        probe(out, scale)
    wall = time.perf_counter() - t0
    readings += [calib.run() for _ in range(4)]
    print(json.dumps({"probes": out, "calib_s": readings, "wall_s": wall}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
