"""Golden exit matrix: every way a descriptor can leave the receive path.

The benchmark's world workloads leave ``Kernel._deliver`` through
``ring``, ``ash`` and ``kernel_handler`` only; this file drives small
worlds through every *other* exit — declined / aborted / throttled
levels, upcalls, the Ethernet copy-out and ``no_kbuf`` drop, demux
misses, and a crash landing at each resumption point of the path — and
pins a SHA-256 of everything observable afterwards: ``kernel.stats()``
of both nodes (telemetry off), each message's outcome with the reason
every level above it was skipped, ``engine.now``, NIC counters and
free-buffer address order.  Engine events fired are pinned beside the
digests, not inside them: an engine hop nobody can observe is exactly
what a digest must not see.

Each scenario runs on 1 core with the direct ``rx_callback`` hand-off
and on 2 cores with ``rx_batch`` 1 and 8.  The worlds are defined here;
their values, and the per-delivery budgets below, are pinned in
``tests/goldens.json`` (``PYTHONPATH=src python -m tests.goldens``).
"""

import functools
import gc
import hashlib
import json
import sys

import pytest

from repro import telemetry
from repro.ash.examples import (
    PARAM_COUNTER,
    PARAM_REPLY_VCI,
    PARAM_SCRATCH,
    build_remote_increment,
)
from repro.ash.handler import AshBuilder
from repro.ash.tenancy import TenantManager
from repro.bench.testbed import (
    CLIENT_TO_SERVER_VCI,
    SERVER_TO_CLIENT_VCI,
    make_an2_pair,
    make_eth_pair,
)
from repro.hw.calibration import PRIO_INTERRUPT, Calibration
from repro.hw.link import Frame
from repro.kernel.dpf import Predicate
from repro.kernel.upcall import UpcallHandler
from repro.sim.units import us

CONFIGS = {
    "1core": dict(ncores=1, rx_batch=None),
    "2core_b1": dict(ncores=2, rx_batch=1),
    "2core_b8": dict(ncores=2, rx_batch=8),
}
VCI = CLIENT_TO_SERVER_VCI
MEM = 1 << 20
ETH_TAG = 0x7A


# ---------------------------------------------------------------------------
# world plumbing
# ---------------------------------------------------------------------------

class World:
    """One testbed plus the recorder the digest is taken from."""

    def __init__(self, tb):
        self.tb = tb
        self.sk = tb.server_kernel
        self.ck = tb.client_kernel
        self.notes = []     #: (outcome, [(level, skip reason), ...]) per message
        self.extra = {}     #: scenario-specific observables
        inner = self.sk._note_delivery

        def note(outcome, skips):
            self.notes.append((outcome, sorted(skips.items())))
            return inner(outcome, skips)

        self.sk._note_delivery = note

    def at(self, when_us, fn, *args):
        """Call ``fn(*args)`` at ``when_us`` of simulated time."""
        def script():
            yield self.tb.engine.sleep(us(when_us))
            fn(*args)
        self.tb.engine.spawn(script())

    def send(self, payload, when_us=0.0, vci=VCI):
        """Put a frame on the wire towards the server (no client CPU)."""
        self.at(when_us, self.tb.client_nic.transmit, Frame(payload, vci=vci))

    def crash_on_entry(self, obj, name, outage_us=300.0):
        """The first call of ``obj.name`` schedules ``crash()`` one tick
        later — inside the CPU hold that call opens — and the reboot."""
        orig = getattr(obj, name)
        engine, kernel = self.tb.engine, self.sk
        armed = [True]

        def script():
            yield engine.sleep(1)
            kernel.crash()
            yield engine.sleep(us(outage_us))
            kernel.reboot()

        def hooked(*args, **kwargs):
            if armed[0]:
                armed[0] = False
                engine.spawn(script())
            return orig(*args, **kwargs)

        setattr(obj, name, hooked)

    def crash_at(self, when_us, outage_us=300.0):
        self.at(when_us, self.sk.crash)
        self.at(when_us + outage_us, self.sk.reboot)

    def consumer(self, ep, count, replenish=True, hold_us=0.0,
                 start_us=0.0):
        """An application that receives ``count`` messages on ``ep``
        (sleeping through the first ``start_us``)."""
        sk, got = self.sk, self.extra.setdefault("app", [])

        def body(proc):
            if start_us:
                yield from proc.block_on(proc.engine.sleep(us(start_us)))
            for _ in range(count):
                desc = yield from sk.sys_recv_block(proc, ep)
                got.append([desc.length, bytes(sk.node.memory.read(
                    desc.addr, desc.length)).hex()])
                if hold_us:
                    yield from proc.compute_us(hold_us)
                if replenish:
                    yield from sk.sys_replenish(proc, ep, desc)

        ep.owner = sk.spawn_process("app", body)

    def observe(self):
        tb = self.tb
        tb.run()
        counter = self.extra.get("counter_at")
        if counter is not None:
            self.extra["counter"] = tb.server.memory.load_u32(counter)
        out = {
            "server": self.sk.stats(),
            "client": self.ck.stats(),
            "notes": self.notes,
            "now": tb.engine.now,
            "fired": tb.engine.stats()["fired"],
            "extra": self.extra,
            "nodes": {},
        }
        for node in (tb.client, tb.server):
            eps = {}
            for ep in node.kernel.endpoints:
                binding = ep.nic.binding(ep.vci) if ep.vci is not None else None
                eps[ep.name] = {
                    "ring": len(ep.ring),
                    "kbufs": list(ep.kbufs),
                    "filter": ep.filter_id,
                    "free": (None if binding is None
                             else [addr for addr, _size in binding.buffers]),
                }
            out["nodes"][node.name] = {
                "endpoints": eps,
                "slots": {
                    nic.name: list(nic._free_slots)
                    for nic in node.nics.values()
                    if hasattr(nic, "_free_slots")
                },
                "cpu": [cpu.cycles_charged for cpu in node.cpus],
            }
        assert self.sk.degradation_order_violations == 0
        return out


def an2_world(cfg, cal=None, nbufs=8, **server_opts):
    tb = make_an2_pair(cal or Calibration(), mem_size=MEM,
                       server_kernel_opts=server_opts, **cfg)
    w = World(tb)
    w.ep = w.sk.create_endpoint_an2(tb.server_nic, VCI, nbufs=nbufs)
    w.cli_ep = w.ck.create_endpoint_an2(tb.client_nic, SERVER_TO_CLIENT_VCI)
    return w


def eth_world(cfg, nkbufs=8):
    tb = make_eth_pair(mem_size=MEM, **cfg)
    w = World(tb)
    w.ep = w.sk.create_endpoint_eth(
        tb.server_nic, [Predicate(offset=0, size=1, value=ETH_TAG)],
        nkbufs=nkbufs,
    )
    return w


def eth_payload(n, fill=0):
    return bytes([ETH_TAG]) + bytes((fill + i) & 0xFF for i in range(n - 1))


def increment_state(w, name="state"):
    """Parameter block for remote_increment; returns its base address."""
    mem = w.tb.server.memory
    state = mem.alloc(name, 64)
    mem.store_u32(state.base + PARAM_COUNTER, state.base + 48)
    mem.store_u32(state.base + PARAM_REPLY_VCI, SERVER_TO_CLIENT_VCI)
    mem.store_u32(state.base + PARAM_SCRATCH, state.base + 56)
    w.extra["counter_at"] = state.base + 48
    return state.base


def bind_increment_ash(w):
    base = increment_state(w)
    ash_id = w.sk.ash_system.download(
        build_remote_increment(), [(base, 64)], user_word=base)
    w.sk.ash_system.bind(w.ep, ash_id)
    return ash_id


def bind_increment_upcall(w, base=None):
    base = increment_state(w, "ustate") if base is None else base
    w.ep.upcall = UpcallHandler(program=build_remote_increment(),
                                user_word=base)


def small_program(name, verb):
    b = AshBuilder(name)
    getattr(b, verb)()
    return b.finish()


def bind_sink_ash(w):
    ash_id = w.sk.ash_system.download(small_program("sink", "v_consume"), [])
    w.sk.ash_system.bind(w.ep, ash_id)
    return ash_id


def word(v):
    return v.to_bytes(4, "little")


# ---------------------------------------------------------------------------
# scenarios: clean exits
# ---------------------------------------------------------------------------

def kh_consumed(cfg):
    w = an2_world(cfg)

    def echo(kernel, ep, desc):
        payload = kernel.node.memory.read(desc.addr, desc.length)
        yield from kernel.kernel_send(
            desc.nic, Frame(payload, vci=SERVER_TO_CLIENT_VCI),
            cpu=kernel.node.cpus[desc.core])
        return True

    w.ep.kernel_handler = echo
    w.send(b"ping")
    w.send(b"pong!", 40.0)
    return w.observe()


def kh_declined(cfg):
    w = an2_world(cfg)

    def picky(kernel, ep, desc):
        yield from kernel.node.cpus[desc.core].exec_us(3.0, PRIO_INTERRUPT)
        return desc.length == 4

    w.ep.kernel_handler = picky
    w.consumer(w.ep, 1)
    w.send(b"four")
    w.send(b"seven!!", 40.0)
    return w.observe()


def ash_consumed(cfg):
    w = an2_world(cfg)
    bind_increment_ash(w)
    w.send(word(5))
    w.send(word(7), 60.0)
    return w.observe()


def ash_voluntary_pass(cfg):
    w = an2_world(cfg)
    bind_increment_ash(w)
    w.consumer(w.ep, 1)
    w.send(b"toolong!")          # wrong length: the handler passes
    w.send(word(3), 80.0)
    return w.observe()


def ash_pass_upcall_consumed(cfg):
    w = an2_world(cfg)
    ash_id = w.sk.ash_system.download(small_program("shy", "v_pass"), [])
    w.sk.ash_system.bind(w.ep, ash_id)
    bind_increment_upcall(w)
    w.send(word(9))
    return w.observe()


def ash_abort_upcall_ring(cfg):
    """involuntary abort -> upcall declines -> ring."""
    w = an2_world(cfg)
    bind_increment_ash(w)
    w.ep.upcall = UpcallHandler(program=small_program("shy", "v_pass"))
    w.tb.attach_fault_plane(seed=3).install("ash", w.sk, every=1)
    w.consumer(w.ep, 2)
    w.send(word(1))
    w.send(word(2), 90.0)
    return w.observe()


def ash_abort_upcall_consumed(cfg):
    w = an2_world(cfg)
    bind_increment_ash(w)
    bind_increment_upcall(w, w.extra["counter_at"] - 48)
    w.tb.attach_fault_plane(seed=3).install("ash", w.sk, every=2)
    for i in range(4):
        w.send(word(i + 1), 70.0 * i)
    return w.observe()


def livelock_throttle(cfg):
    w = an2_world(cfg, cal=Calibration(ash_livelock_limit=2))
    bind_sink_ash(w)
    for i in range(5):           # back to back: one batch where batching
        w.send(b"x" * (i + 1))
    # well into the next tick: the window has reset
    w.send(b"late", 2 * w.tb.cal.tick_us)
    return w.observe()


def tenant_cycle_throttle(cfg):
    tb = make_an2_pair(mem_size=MEM, **cfg)
    w = World(tb)
    manager = TenantManager(w.sk)
    manager.create("m", handler_cycles=3)
    w.ep = w.sk.create_endpoint_an2(tb.server_nic, VCI, tenant="m")
    bind_sink_ash(w)
    for i in range(3):
        w.send(b"abcd", 30.0 * i)
    out = w.observe()
    assert manager.order_violations == 0
    return out


def upcall_consumed(cfg):
    w = an2_world(cfg)
    bind_increment_upcall(w)
    w.send(word(7))
    w.send(word(8), 90.0)
    return w.observe()


def upcall_declined(cfg):
    w = an2_world(cfg)
    w.ep.upcall = UpcallHandler(program=small_program("shy", "v_pass"))
    w.consumer(w.ep, 1)
    w.send(b"decline me")
    return w.observe()


def upcall_faulted(cfg):
    w = an2_world(cfg)
    b = AshBuilder("crasher")
    reg = b.getreg()
    b.v_li(reg, 1)
    b.v_divu(reg, reg, b.ZERO)
    b.v_consume()
    w.ep.upcall = UpcallHandler(program=b.finish())
    w.send(b"boom")
    out = w.observe()
    out["upcall_faults"] = w.ep.upcall.faults
    return out


def ring_boost_wake(cfg):
    """The owner is descheduled behind a cruncher: arrival pays the
    wake-up scan on the steered core and boosts it."""
    w = an2_world(cfg, boost_on_packet=True)
    w.consumer(w.ep, 2, hold_us=20.0)
    w.sk.spawn_process("crunch", lambda proc: proc.compute_us(3000.0),
                       core=w.ep.owner.core)
    w.send(b"wake", 100.0)
    w.send(b"again", 400.0)
    return w.observe()


def an2_demux_miss(cfg):
    """A VC bound on the device with no kernel endpoint behind it."""
    w = an2_world(cfg)
    region = w.tb.server.memory.alloc("stray", 2 * 4096)
    w.tb.server_nic.bind_vci(
        77, [(region.base, 4096), (region.base + 4096, 4096)])
    w.send(b"nobody home", vci=77)
    out = w.observe()
    out["stray"] = [a for a, _s in w.tb.server_nic.binding(77).buffers]
    return out


def eth_ring_copyout(cfg):
    """Copy-out lengths 4k, 4k+1, 4k+2, 4k+3 (and a multi-stripe one)."""
    w = eth_world(cfg)
    w.consumer(w.ep, 6)
    for i, n in enumerate((60, 61, 62, 63, 17, 201)):
        w.send(eth_payload(n, fill=i), 400.0 * i, vci=None)
    return w.observe()


def eth_no_kbuf(cfg):
    w = eth_world(cfg, nkbufs=2)
    for i in range(4):
        w.send(eth_payload(64, fill=i), 200.0 * i, vci=None)
    return w.observe()


def eth_demux_miss(cfg):
    w = eth_world(cfg)
    w.send(b"\x11 not for anyone here" + bytes(40), vci=None)
    return w.observe()


def eth_ash_consumed_and_passed(cfg):
    w = eth_world(cfg)
    b = AshBuilder("even")
    val = b.getreg()
    b.v_ld8(val, b.MSG, 1)
    take = b.label("take")
    b.v_beq(val, b.ZERO, take)
    b.v_pass()
    b.mark(take)
    b.v_consume()
    ash_id = w.sk.ash_system.download(b.finish(), [])
    w.sk.ash_system.bind(w.ep, ash_id)
    w.consumer(w.ep, 1)
    w.send(eth_payload(64, fill=0), vci=None)         # byte 1 == 0: consumed
    w.send(eth_payload(66, fill=4), 300.0, vci=None)  # passed -> copy-out
    return w.observe()


def eth_upcall_consumed(cfg):
    w = eth_world(cfg)
    w.ep.upcall = UpcallHandler(program=small_program("sink", "v_consume"))
    w.send(eth_payload(70), vci=None)
    return w.observe()


def tenant_revoke_late_replenish(cfg):
    tb = make_an2_pair(mem_size=MEM, **cfg)
    w = World(tb)
    manager = TenantManager(w.sk)
    manager.create("m", buffers=1)
    w.ep = w.sk.create_endpoint_an2(tb.server_nic, VCI, tenant="m", nbufs=4)
    sk, ep, descs = w.sk, w.ep, []

    def app(proc):
        for _ in range(3):
            descs.append((yield from sk.sys_recv_block(proc, ep)))
        # the first two were revoked as their successors arrived;
        # returning them late must not double-insert their addresses
        for desc in descs:
            yield from sk.sys_replenish(proc, ep, desc)

    ep.owner = sk.spawn_process("app", app)
    for i in range(3):
        w.send(bytes([65 + i]) * 4, 50.0 * i)
    out = w.observe()
    assert manager.order_violations == 0
    return out


# ---------------------------------------------------------------------------
# scenarios: a crash at each resumption point of the path
# ---------------------------------------------------------------------------

def crash_before_demux_an2(cfg):
    w = an2_world(cfg)
    w.consumer(w.ep, 1)
    w.crash_on_entry(w.sk, "_rx_interrupt")
    w.send(b"lost in the driver hold")
    w.send(b"after reboot", 1500.0)
    return w.observe()


def crash_before_demux_eth(cfg):
    w = eth_world(cfg)
    w.consumer(w.ep, 1)
    w.crash_on_entry(w.sk, "_rx_interrupt")
    w.send(eth_payload(64), vci=None)
    w.send(eth_payload(65, fill=9), 1500.0, vci=None)
    return w.observe()


def crash_in_kernel_handler(cfg):
    """The handler declines across a crash (message dies) — and, second
    world state, commits across one (its work stands)."""
    w = an2_world(cfg)

    def slow(kernel, ep, desc):
        yield from kernel.node.cpus[desc.core].exec_us(10.0, PRIO_INTERRUPT)
        return desc.length == 6

    w.ep.kernel_handler = slow
    w.consumer(w.ep, 1)
    w.crash_on_entry(w.ep, "kernel_handler")
    w.send(b"dies")
    w.send(b"queued", 1500.0)          # consumed by the re-bound handler
    w.send(b"ring", 1600.0)
    return w.observe()


def crash_commit_in_kernel_handler(cfg):
    w = an2_world(cfg)

    def slow(kernel, ep, desc):
        yield from kernel.node.cpus[desc.core].exec_us(10.0, PRIO_INTERRUPT)
        return True

    w.ep.kernel_handler = slow
    w.crash_on_entry(w.ep, "kernel_handler")
    w.send(b"commits across the crash")
    w.send(b"after", 1500.0)
    return w.observe()


def crash_in_invoke(cfg):
    w = an2_world(cfg)
    bind_increment_ash(w)
    bind_increment_upcall(w, w.extra["counter_at"] - 48)
    w.crash_on_entry(w.sk.ash_system, "invoke")
    w.send(word(5))
    w.send(word(6), 1500.0)
    return w.observe()


def crash_mid_burst(cfg):
    """Four frames back to back; the crash lands in the first one's
    sandbox entry, the rest are still queued behind it (as concurrent
    interrupts, or on the per-core rx ring where batching)."""
    w = an2_world(cfg)
    bind_sink_ash(w)
    w.crash_on_entry(w.sk.ash_system, "invoke")
    for i in range(4):
        w.send(bytes([48 + i]) * 6)
    w.send(b"after", 1500.0)
    return w.observe()


def crash_in_abort_charge(cfg):
    """The crash lands while an involuntary abort's burnt cycles are
    being charged: the message dies, it is not a counted fallback."""
    w = an2_world(cfg)
    bind_increment_ash(w)
    bind_increment_upcall(w, w.extra["counter_at"] - 48)
    injector = w.tb.attach_fault_plane(seed=3).install("ash", w.sk, every=1)
    w.crash_on_entry(injector, "consider")
    w.send(word(5))
    w.send(word(6), 1500.0)
    return w.observe()


def crash_in_dispatch(cfg):
    w = an2_world(cfg)
    bind_increment_upcall(w)
    w.crash_on_entry(w.sk.upcalls, "dispatch")
    w.send(word(5))
    w.send(word(6), 1500.0)
    return w.observe()


def crash_in_dispatch_after_abort(cfg):
    """abort -> (counted fallback) -> upcall dispatch -> crash."""
    w = an2_world(cfg)
    bind_increment_ash(w)
    bind_increment_upcall(w, w.extra["counter_at"] - 48)
    w.tb.attach_fault_plane(seed=3).install("ash", w.sk, every=1)
    w.crash_on_entry(w.sk.upcalls, "dispatch")
    w.send(word(5))
    w.send(word(6), 1500.0)
    return w.observe()


def crash_in_copyout(cfg):
    w = eth_world(cfg)
    w.consumer(w.ep, 1)
    w.crash_on_entry(w.sk, "_eth_copy_out")
    w.send(eth_payload(200), vci=None)
    w.send(eth_payload(67, fill=3), 1500.0, vci=None)
    return w.observe()


def crash_pending_ring_an2(cfg):
    w = an2_world(cfg, nbufs=4)
    for i in range(3):
        w.send(bytes([97 + i]) * 8, 10.0 * i)
    w.crash_at(200.0)
    w.consumer(w.ep, 2, start_us=1000.0)
    for i in range(2):
        w.send(bytes([65 + i]) * 8, 1500.0 + 10.0 * i)
    return w.observe()


def crash_pending_ring_eth_kbuf(cfg):
    w = eth_world(cfg, nkbufs=3)
    for i in range(2):
        w.send(eth_payload(64 + i, fill=i), 200.0 * i, vci=None)
    w.crash_at(800.0)
    w.consumer(w.ep, 3, start_us=1400.0)
    for i in range(3):
        w.send(eth_payload(70 + i, fill=i), 1500.0 + 200.0 * i, vci=None)
    return w.observe()


def crash_pending_ring_eth_slot(cfg):
    """A descriptor parked on a ring while still in its device slot
    (never produced by ``_deliver`` itself; ``crash()`` reclaims it
    all the same)."""
    w = eth_world(cfg)
    nic, ep = w.tb.server_nic, w.ep
    callback, kick = nic.rx_callback, nic.rx_kick

    def restore():
        nic.rx_callback, nic.rx_kick = callback, kick

    def divert(desc):
        ep.ring.put(desc)
        restore()

    nic.rx_callback = divert
    nic.rx_kick = lambda dev, core: divert(dev.rx_rings[core].popleft())
    w.send(eth_payload(64), vci=None)
    w.crash_at(400.0)
    w.consumer(w.ep, 1, start_us=1400.0)
    w.send(eth_payload(68, fill=5), 1500.0, vci=None)
    return w.observe()


def replenish_during_outage(cfg):
    """The application returns a buffer while the kernel is down: it is
    parked in the rebind set, not lost and not double-inserted."""
    w = an2_world(cfg, nbufs=2)
    w.consumer(w.ep, 3, hold_us=400.0)
    w.send(b"held across the crash")
    w.crash_at(200.0, outage_us=600.0)
    w.send(b"second", 1500.0)
    w.send(b"third", 2500.0)
    return w.observe()


SCENARIOS = [
    kh_consumed, kh_declined, ash_consumed, ash_voluntary_pass,
    ash_pass_upcall_consumed, ash_abort_upcall_ring,
    ash_abort_upcall_consumed, livelock_throttle, tenant_cycle_throttle,
    upcall_consumed, upcall_declined, upcall_faulted, ring_boost_wake,
    an2_demux_miss, eth_ring_copyout, eth_no_kbuf, eth_demux_miss,
    eth_ash_consumed_and_passed, eth_upcall_consumed,
    tenant_revoke_late_replenish,
    crash_before_demux_an2, crash_before_demux_eth,
    crash_in_kernel_handler, crash_commit_in_kernel_handler,
    crash_in_invoke, crash_mid_burst, crash_in_abort_charge, crash_in_dispatch,
    crash_in_dispatch_after_abort, crash_in_copyout,
    crash_pending_ring_an2, crash_pending_ring_eth_kbuf,
    crash_pending_ring_eth_slot, replenish_during_outage,
]


def digest(observables) -> str:
    blob = json.dumps(observables, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def run_matrix():
    """(digests, events fired), each ``{scenario: {config: value}}``."""
    digests, fired = {}, {}
    for scenario in SCENARIOS:
        name = scenario.__name__
        digests[name], fired[name] = {}, {}
        for config, cfg in CONFIGS.items():
            observables = scenario(dict(cfg))
            fired[name][config] = observables.pop("fired")
            digests[name][config] = digest(observables)
    return digests, fired


# ---------------------------------------------------------------------------
# deterministic budgets: engine events and Python frames per delivery
# ---------------------------------------------------------------------------

def _eth_no_kbuf_world(cfg):
    w = eth_world(cfg, nkbufs=1)
    w.ep.kbufs.clear()
    return w


def _kh_world(cfg):
    w = an2_world(cfg)

    def sink(kernel, ep, desc):
        yield from kernel.node.cpus[desc.core].exec_us(2.0, PRIO_INTERRUPT)
        return True

    w.ep.kernel_handler = sink
    return w


def _ash_world(cfg):
    w = an2_world(cfg)
    bind_sink_ash(w)
    return w


def _ash_reply_world(cfg):
    w = an2_world(cfg)
    bind_increment_ash(w)
    return w


def _upcall_world(cfg):
    w = an2_world(cfg)
    w.ep.upcall = UpcallHandler(program=small_program("sink", "v_consume"))
    return w


def _an2_frame(i):
    return Frame(word(i + 1), vci=VCI)


def _eth_frame(i):
    return Frame(eth_payload(64, fill=i))


def _eth_stray(i):
    return Frame(b"\x11" + bytes(63))


#: exit -> (world, frame maker).  No application is attached: the budget
#: is the kernel's path from the wire to the exit, on an idle node.
BUDGET_WORLDS = {
    "kernel_handler": (_kh_world, _an2_frame),
    "ash": (_ash_world, _an2_frame),
    "ash_reply": (_ash_reply_world, _an2_frame),
    "upcall": (_upcall_world, _an2_frame),
    "ring_an2": (an2_world, _an2_frame),
    "ring_eth": (eth_world, _eth_frame),
    "drop_no_kbuf": (_eth_no_kbuf_world, _eth_frame),
    "demux_miss_eth": (eth_world, _eth_stray),
}


def _deliver_one(w, frame, profile=None):
    """Hand ``frame`` to the server NIC from outside the event loop (no
    injector events) and run the node back to idle; returns the engine
    events that took."""
    engine = w.tb.engine
    before = engine.stats()["fired"]
    # a collection inside the window would count its finalizers' frames,
    # and the frame budget is a ceiling with no slack
    gc.disable()
    outer = sys.getprofile()
    if profile is not None:
        sys.setprofile(profile)
    try:
        w.tb.server_nic._on_wire_frame(frame)
        engine.run(until=engine.now + us(1000.0))
    finally:
        sys.setprofile(outer)
        gc.enable()
    return engine.stats()["fired"] - before


def _warm_world(exit_name, config, **engine):
    """A world that has delivered two messages (JIT and pools warm), the
    engine events each took, and the third frame, for the caller to
    deliver under its instrument (on ``engine=``, if one is given)."""
    make_world, make_frame = BUDGET_WORLDS[exit_name]
    w = make_world(dict(CONFIGS[config], **engine))
    w.tb.engine.run(until=us(10.0))
    counts = [_deliver_one(w, make_frame(i)) for i in range(2)]
    return w, counts, make_frame(2)


#: the event budget's configurations: direct hand-off and batched
BUDGET_CONFIGS = ("1core", "2core_b8")


@functools.lru_cache(maxsize=None)
def events_per_message(exit_name, config):
    """Engine events fired by each of three messages delivered in turn
    (the ledger's ``event_budget`` is the warm third)."""
    w, counts, frame = _warm_world(exit_name, config)
    return (*counts, _deliver_one(w, frame))


#: the exits whose warm delivery is also profiled and censused on 1 core
PROFILED_EXITS = ("ash", "ring_eth")


@functools.lru_cache(maxsize=None)
def frames_per_message(exit_name):
    """Python frames entered (function calls and generator resumes)
    while one warm message is delivered on 1 core, by defining file."""
    w, _counts, frame = _warm_world(exit_name, "1core")
    by_file = {}

    def profile(frame, event, arg):
        if event == "call":
            name = frame.f_code.co_filename
            by_file[name] = by_file.get(name, 0) + 1

    _deliver_one(w, frame, profile)
    return by_file


@functools.lru_cache(maxsize=None)
def bytecodes_per_message(exit_name):
    """Bytecodes the interpreter executes while one warm message is
    delivered on 1 core, by layer (``repro.bench.census --bytecodes``),
    on the benchmark's substrate whatever ``REPRO_SIM_SUBSTRATE`` says:
    the legacy one runs other code."""
    from repro.bench.census import BytecodeCensus
    from repro.sim.engine import Engine

    w, _counts, frame = _warm_world(exit_name, "1core",
                                    engine=Engine("fast"))
    engine = w.tb.engine
    with BytecodeCensus() as census:
        w.tb.server_nic._on_wire_frame(frame)
        engine.run(until=engine.now + us(1000.0))
    return census.by_layer()


@functools.lru_cache(maxsize=None)
def sites_per_message(exit_name):
    """Where the processes delivering one warm message on 1 core came to
    rest: ``{(function, target kind, "pending" | "hop" | "continued"):
    waits}`` (see ``repro.bench.census``)."""
    from repro.bench.census import YieldCensus

    w, _counts, frame = _warm_world(exit_name, "1core")
    with YieldCensus() as census:
        _deliver_one(w, frame)
    return census.by_function()


PLANE_FILES = ("ash/tenancy.py", "sim/faults.py", "telemetry/spans.py")


def _chaos_ash_world():
    """Lossy link, one server crash + reboot mid-transfer, the TCP fast
    path as an ASH: crash-lifetime counters, one lost message, SACK."""
    from repro.bench.workloads import chaos_transfer

    chaos_transfer(96_000, 11, mode="ash", faults=[
        {"site": "link", "target": "link", "drop": 0.08},
        {"site": "crash", "target": "server_kernel", "at_us": 1960.0,
         "outage_us": 20_000.0}])


def _tenant_flood_world():
    from repro.bench.workloads import tenant_world

    tenant_world(scenario="flood", rounds=4)


#: the two telemetry-on worlds whose whole export is pinned and whose
#: instrument traffic is priced (``tests/goldens.py``)
TELEMETRY_WORLDS = {
    "chaos_ash": _chaos_ash_world,
    "tenant_flood": _tenant_flood_world,
}


@functools.lru_cache(maxsize=None)
def telemetry_export(world_name):
    """Run one of ``TELEMETRY_WORLDS`` inside a telemetry session, once
    per process; returns its merged metrics document and the calls of
    ``MetricsRegistry.counter/gauge/histogram`` (a collector's ``total``
    goes through ``counter``) from world construction through export."""
    from repro import telemetry
    from repro.telemetry.metrics import MetricsRegistry
    from repro.vcode import jit

    # as a fresh process sees it: the code cache is process-wide, and a
    # translation counts (vcode.jit.cache_misses, compile_cycles)
    jit.clear_code_cache()
    originals = {kind: getattr(MetricsRegistry, kind)
                 for kind in ("counter", "gauge", "histogram")}
    lookups = [0]

    def counting(original):
        def lookup(self, name, *args, **labels):
            lookups[0] += 1
            return original(self, name, *args, **labels)
        return lookup

    try:
        for kind, original in originals.items():
            setattr(MetricsRegistry, kind, counting(original))
        with telemetry.session() as sess:
            TELEMETRY_WORLDS[world_name]()
        doc = sess.export_metrics(include_span_events=False)
    finally:
        for kind, original in originals.items():
            setattr(MetricsRegistry, kind, original)
    return doc, lookups[0]


def _matrix_moved(fired):
    """The ``exit_matrix`` ledger leaves that moved: the ``fired`` counts,
    or the digests."""
    from tests import goldens       # goldens imports this module

    rows = [row for row in goldens.moved("exit_matrix", goldens.load())
            if row[1].endswith("/fired") == fired]
    return rows and "leaves moved:\n" + goldens.table(rows)


def test_exit_matrix_matches_golden():
    """Every scenario's digest, on every configuration, is its leaf."""
    moved = _matrix_moved(fired=False)
    assert not moved, moved


def test_exit_matrix_events_fired():
    """So is every scenario's count of engine events fired."""
    moved = _matrix_moved(fired=True)
    assert not moved, moved


def test_upcall_fault_ledger_is_exported():
    """``upcall_faulted`` pins the handler's ledger; with telemetry on,
    the server exports the same count as ``upcall.faults``."""
    with telemetry.session() as sess:
        out = upcall_faulted(dict(CONFIGS["1core"]))
    server, = (t for t in sess.telemetries if t.source == "server")
    assert out["upcall_faults"] == 1
    assert server.registry.value("upcall.faults", handler="upcall") == 1


@pytest.mark.parametrize("exit_name", sorted(BUDGET_WORLDS))
def test_events_per_delivered_message(exit_name):
    """Warm, every message costs the same: the budget is a property of
    the path, not of when it was measured."""
    for config in BUDGET_CONFIGS:
        _cold, second, third = events_per_message(exit_name, config)
        assert second == third, config


@pytest.mark.parametrize("exit_name", PROFILED_EXITS)
def test_waits_per_delivery_by_site(exit_name):
    """The census accounts for every event: a timer wait is the timer and
    the wake-up, a charge carried on at a segment end the timer alone,
    any other wait one resume, plus the process start."""
    sites = sites_per_message(exit_name)
    cost = sum(n * (2 if (kind, how) == ("Timeout", "pending") else 1)
               for (_function, kind, how), n in sites.items())
    assert 1 + cost == events_per_message(exit_name, "1core")[-1]


@pytest.mark.parametrize("exit_name", PROFILED_EXITS)
def test_python_frames_per_delivery(exit_name):
    """A plane-free world enters no plane code at all."""
    by_file = frames_per_message(exit_name)
    planes = {name: n for name, n in by_file.items()
              if name.replace("\\", "/").endswith(PLANE_FILES)}
    assert not planes
