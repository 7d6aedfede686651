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
digests, not inside them.

Each scenario runs on 1 core with the direct ``rx_callback`` hand-off
and on 2 cores with ``rx_batch`` 1 and 8.  The digests were captured on
the code *before* the receive path was recast as a loop over
``_DELIVERY_ORDER`` and must not move (the one exception, the Ethernet
crash-before-demux row, is a bug fix and is noted where it is pinned).
They were re-pinned twice since, each time on untouched ``src/``: when
the packet-buffer pool's ledger left the hashed state ahead of the
pool's deletion, and when ``fired`` left it for a table of its own
(``FIRED``) ahead of the first cut in the event count — an engine hop
nobody can observe is exactly what a digest must not see.
``python tests/test_exit_matrix.py`` prints a fresh table.
"""

import functools
import gc
import hashlib
import json
import sys

import pytest

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


GOLDEN = {
    'kh_consumed': {
        '1core': 'a08801ced30ab2d0',
        '2core_b1': 'ca0ca40f276b120e',
        '2core_b8': 'ca0ca40f276b120e',
    },
    'kh_declined': {
        '1core': '668cc10b1dfecb4b',
        '2core_b1': '1d7a2df9d7cebf33',
        '2core_b8': '1d7a2df9d7cebf33',
    },
    'ash_consumed': {
        '1core': '9235b8a3ed787a8e',
        '2core_b1': 'dae9bf57557ae2f2',
        '2core_b8': 'dae9bf57557ae2f2',
    },
    'ash_voluntary_pass': {
        '1core': '3f8de423141c8ce2',
        '2core_b1': 'e90915f18770d130',
        '2core_b8': 'e90915f18770d130',
    },
    'ash_pass_upcall_consumed': {
        '1core': 'f0d33a3b3249529b',
        '2core_b1': 'd78a51ea56016c61',
        '2core_b8': 'd78a51ea56016c61',
    },
    'ash_abort_upcall_ring': {
        '1core': 'ad73c9e5d6871fd0',
        '2core_b1': '76d6b95d389695a7',
        '2core_b8': '76d6b95d389695a7',
    },
    'ash_abort_upcall_consumed': {
        '1core': '5e82e1b0b3e65abf',
        '2core_b1': '41dd11c9dbd262f6',
        '2core_b8': '41dd11c9dbd262f6',
    },
    'livelock_throttle': {
        '1core': 'c58ed6004284ac38',
        '2core_b1': '074c81e753f2f14d',
        '2core_b8': '074c81e753f2f14d',
    },
    'tenant_cycle_throttle': {
        '1core': 'ba68cb76fe7ec0e4',
        '2core_b1': '54a66fd3ce630da7',
        '2core_b8': '54a66fd3ce630da7',
    },
    'upcall_consumed': {
        '1core': '9e2aacaf3e1c9871',
        '2core_b1': 'bd0efd76d7e55ec6',
        '2core_b8': 'bd0efd76d7e55ec6',
    },
    'upcall_declined': {
        '1core': 'e666412772ee630b',
        '2core_b1': '223cd292be3ec9c4',
        '2core_b8': '223cd292be3ec9c4',
    },
    'upcall_faulted': {
        '1core': '369fb7ba385c161e',
        '2core_b1': '238276bcae9af621',
        '2core_b8': '238276bcae9af621',
    },
    'ring_boost_wake': {
        '1core': '887cf45ef6d42d30',
        '2core_b1': '599fa314af07afe7',
        '2core_b8': '599fa314af07afe7',
    },
    'an2_demux_miss': {
        '1core': 'a4f2f9541a34f08e',
        '2core_b1': 'cace818f7b2f6df2',
        '2core_b8': 'cace818f7b2f6df2',
    },
    'eth_ring_copyout': {
        '1core': 'f3a32ae1297f51df',
        '2core_b1': '27f532cea708de03',
        '2core_b8': '27f532cea708de03',
    },
    'eth_no_kbuf': {
        '1core': 'a3b6dd6ecd3bf666',
        '2core_b1': '59a2e8ada0db5b69',
        '2core_b8': '59a2e8ada0db5b69',
    },
    'eth_demux_miss': {
        '1core': 'cf1f77bd0d13abde',
        '2core_b1': 'f336dd252b0360c9',
        '2core_b8': 'f336dd252b0360c9',
    },
    'eth_ash_consumed_and_passed': {
        '1core': 'd054649e68c9d30d',
        '2core_b1': '7748cca606cd4511',
        '2core_b8': '7748cca606cd4511',
    },
    'eth_upcall_consumed': {
        '1core': '0f34e4f8ab75989d',
        '2core_b1': '21e2350f58e546a0',
        '2core_b8': '21e2350f58e546a0',
    },
    'tenant_revoke_late_replenish': {
        '1core': '49761cf09a3e5d66',
        '2core_b1': '61ba79eed7633592',
        '2core_b8': '61ba79eed7633592',
    },
    'crash_before_demux_an2': {
        '1core': 'd2c775fa61e60d30',
        '2core_b1': '1619db6200835b7f',
        '2core_b8': '1619db6200835b7f',
    },
    # the one row that moved with the recast, on purpose: the frame
    # whose driver hold straddles the crash used to be classified
    # against the emptied filter table and booked as a demux_miss
    # (58b3cbfd3e849dc9 / c73d3e9a4a889215); it is a lost message
    'crash_before_demux_eth': {
        '1core': '5765b842704646ee',
        '2core_b1': 'b6f76fbbfb4766d1',
        '2core_b8': 'b6f76fbbfb4766d1',
    },
    'crash_in_kernel_handler': {
        '1core': '1c8b612b15f9741c',
        '2core_b1': '1eb91eff4dcdc624',
        '2core_b8': '1eb91eff4dcdc624',
    },
    'crash_commit_in_kernel_handler': {
        '1core': 'ce51c97d8d47523d',
        '2core_b1': '48d4d3154f421f50',
        '2core_b8': '48d4d3154f421f50',
    },
    'crash_in_invoke': {
        '1core': 'c2cd50d8b0ef7833',
        '2core_b1': '2ae972dcd9ce26d3',
        '2core_b8': '2ae972dcd9ce26d3',
    },
    'crash_mid_burst': {
        '1core': '27717b0c535e3d4c',
        '2core_b1': 'd9d18fef1c2bfa4c',
        '2core_b8': 'd9d18fef1c2bfa4c',
    },
    'crash_in_abort_charge': {
        '1core': 'ec64f837b60904dc',
        '2core_b1': 'ad5b05eb1cc2a8f9',
        '2core_b8': 'ad5b05eb1cc2a8f9',
    },
    'crash_in_dispatch': {
        '1core': '181a72847cdba132',
        '2core_b1': '5dc36fd31a1a161a',
        '2core_b8': '5dc36fd31a1a161a',
    },
    'crash_in_dispatch_after_abort': {
        '1core': '2b2f7cbb02e5d019',
        '2core_b1': '18d49ef870e70baa',
        '2core_b8': '18d49ef870e70baa',
    },
    'crash_in_copyout': {
        '1core': '0935880994a1a3c3',
        '2core_b1': 'b76f764534818c75',
        '2core_b8': 'b76f764534818c75',
    },
    'crash_pending_ring_an2': {
        '1core': 'b888b58a4aeb4ad1',
        '2core_b1': 'd5ed373eadfd5ff1',
        '2core_b8': 'd5ed373eadfd5ff1',
    },
    'crash_pending_ring_eth_kbuf': {
        '1core': '6b1bb9bc5708e7d1',
        '2core_b1': '0e2cf7ac8112389c',
        '2core_b8': '0e2cf7ac8112389c',
    },
    'crash_pending_ring_eth_slot': {
        '1core': '85a7f4c9138c606d',
        '2core_b1': '32d55f2efacc51e7',
        '2core_b8': '32d55f2efacc51e7',
    },
    'replenish_during_outage': {
        '1core': '399b030cdfc31d64',
        '2core_b1': '55545b539f76cb0a',
        '2core_b8': '55545b539f76cb0a',
    },
}


#: engine events fired by each scenario, in ``CONFIGS`` order.  Not an
#: observable: a hop elided or a wait that stops yielding lowers a count
#: here and must move no digest above.  (Sum 5702 while every lock and
#: gate grant was yielded, 4666 with the hop of a pass-through that ties
#: counted as fired, 4630 with it booked as ``requeued``, 4521 with a run
#: of back-to-back charges carried on as one hold.)
FIRED = {
    'kh_consumed': (28, 30, 30),
    'kh_declined': (30, 32, 32),
    'ash_consumed': (38, 40, 40),
    'ash_voluntary_pass': (42, 44, 44),
    'ash_pass_upcall_consumed': (25, 27, 27),
    'ash_abort_upcall_ring': (53, 55, 55),
    'ash_abort_upcall_consumed': (84, 86, 86),
    'livelock_throttle': (71, 61, 57),
    'tenant_cycle_throttle': (33, 35, 35),
    'upcall_consumed': (38, 40, 40),
    'upcall_declined': (24, 26, 26),
    'upcall_faulted': (14, 16, 16),
    'ring_boost_wake': (93, 79, 79),
    'an2_demux_miss': (9, 11, 11),
    'eth_ring_copyout': (113, 115, 115),
    'eth_no_kbuf': (42, 44, 44),
    'eth_demux_miss': (11, 13, 13),
    'eth_ash_consumed_and_passed': (42, 44, 44),
    'eth_upcall_consumed': (16, 18, 18),
    'tenant_revoke_late_replenish': (47, 49, 49),
    'crash_before_demux_an2': (31, 33, 33),
    'crash_before_demux_eth': (37, 39, 39),
    'crash_in_kernel_handler': (44, 46, 46),
    'crash_commit_in_kernel_handler': (25, 27, 27),
    'crash_in_invoke': (34, 36, 36),
    'crash_mid_burst': (53, 45, 42),
    'crash_in_abort_charge': (42, 44, 44),
    'crash_in_dispatch': (34, 36, 36),
    'crash_in_dispatch_after_abort': (44, 46, 46),
    'crash_in_copyout': (39, 41, 41),
    'crash_pending_ring_an2': (65, 63, 63),
    'crash_pending_ring_eth_kbuf': (93, 95, 95),
    'crash_pending_ring_eth_slot': (39, 41, 41),
    'replenish_during_outage': (59, 61, 61),
}


def _moved(pinned, fresh):
    return {
        f"{scenario}/{config}": (pinned.get(scenario, {}).get(config), got)
        for scenario, row in fresh.items() for config, got in row.items()
        if pinned.get(scenario, {}).get(config) != got
    }


def test_exit_matrix_matches_golden():
    fresh, _fired = run_matrix()
    moved = _moved(GOLDEN, fresh)
    assert not moved, f"(pinned, fresh) digests that moved: {moved}"
    assert set(fresh) == set(GOLDEN)


def test_exit_matrix_events_fired():
    _digests, fresh = run_matrix()
    pinned = {scenario: dict(zip(CONFIGS, row))
              for scenario, row in FIRED.items()}
    moved = _moved(pinned, fresh)
    assert not moved, f"(pinned, fresh) event counts that moved: {moved}"
    assert set(fresh) == set(FIRED)


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
    # and FRAME_BUDGET is a ceiling with no slack
    gc.disable()
    sys.setprofile(profile)
    try:
        w.tb.server_nic._on_wire_frame(frame)
        engine.run(until=engine.now + us(1000.0))
    finally:
        sys.setprofile(None)
        gc.enable()
    return engine.stats()["fired"] - before


def events_per_message(exit_name, cfg):
    make_world, make_frame = BUDGET_WORLDS[exit_name]
    w = make_world(dict(cfg))
    w.tb.engine.run(until=us(10.0))
    counts = [_deliver_one(w, make_frame(i)) for i in range(3)]
    assert counts[1] == counts[2], counts      # warm: every message alike
    return counts[2]


def _warm_world(exit_name, cfg):
    """A world that has delivered two messages (JIT and pools warm) and
    the third frame, for the caller to deliver under its instrument."""
    make_world, make_frame = BUDGET_WORLDS[exit_name]
    w = make_world(dict(cfg))
    w.tb.engine.run(until=us(10.0))
    for i in range(2):
        _deliver_one(w, make_frame(i))
    return w, make_frame(2)


def frames_per_message(exit_name, cfg):
    """Python frames entered (function calls and generator resumes)
    while one warm message is delivered, by defining file."""
    w, frame = _warm_world(exit_name, cfg)
    by_file = {}

    def profile(frame, event, arg):
        if event == "call":
            name = frame.f_code.co_filename
            by_file[name] = by_file.get(name, 0) + 1

    _deliver_one(w, frame, profile)
    return by_file


def sites_per_message(exit_name, cfg):
    """Where the processes delivering one warm message came to rest:
    ``{(function, target kind, "pending" | "hop"): waits}`` (see
    ``repro.bench.census``)."""
    from repro.bench.census import YieldCensus

    w, frame = _warm_world(exit_name, cfg)
    with YieldCensus() as census:
        _deliver_one(w, frame)
    return census.by_function()


#: engine events fired per delivered message, (1 core direct hand-off,
#: 2 cores batched).  7/13/21/13/4/10/7/7 on the hand-written hierarchy
#: this file's digests were first captured on and until an uncontended
#: CPU charge stopped yielding its lock grant: each charge on these idle
#: nodes is now a timer and a wake-up.  A handler's last stretch and its
#: exit charge are one run, carried on at the segment end without a
#: wake-up (ash / ash_reply / upcall were 9 / 15 / 9).  What is left is
#: broken down by yield site in ``SITE_BUDGET``.
EVENT_BUDGET = {
    'kernel_handler': (5, 5),
    'ash': (8, 8),
    'ash_reply': (14, 14),
    'upcall': (8, 8),
    'ring_an2': (3, 3),
    'ring_eth': (7, 7),
    'drop_no_kbuf': (5, 5),
    'demux_miss_eth': (5, 5),
}

#: Python frames entered per warm delivery on 1 core (CPython 3.11
#: accounting: one per call and one per generator resume), as measured
#: on today's path (the hand-written hierarchy took 173 / 170, the
#: always-yielding CPU charge 153 / 152, a charge that was one hold but
#: no more 136 / 143).  A ceiling, not an equality: fewer is fine, a
#: per-level generator hop or a plane hook on the clean path is not.
FRAME_BUDGET = {
    'ash': 125,
    'ring_eth': 141,
}

#: the event budget by charge site, 1 core: every wait of a warm
#: delivery is an uncontended CPU charge sitting on its timer (driver
#: and demux in ``_rx_interrupt``, sandbox entry, the handler's cycles,
#: the copy-out) — two events each, plus the interrupt process's start —
#: but for the abort timer's clearing, which the handler's run carries
#: on into at its last segment end: one event.  No lock or gate wait
#: comes to rest on an idle node.
SITE_BUDGET = {
    'ash': {('Kernel._rx_interrupt', 'Timeout', 'pending'): 1,
            ('AshSystem.invoke', 'Timeout', 'pending'): 1,
            ('Kernel.charge_with_sends', 'Timeout', 'pending'): 1,
            ('Kernel.charge_with_sends', 'Timeout', 'continued'): 1},
    'ring_eth': {('Kernel._rx_interrupt', 'Timeout', 'pending'): 2,
                 ('Kernel._eth_copy_out', 'Timeout', 'pending'): 1},
}

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


#: the two telemetry-on worlds whose whole export is pinned (SHA-256 in
#: ``tests/test_bench_infra.py``) and whose instrument traffic is priced
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


def lookups_per_frame(world_name):
    """(registry lookups, frames received by every NIC of the world)."""
    doc, lookups = telemetry_export(world_name)
    frames = sum(c["value"] for node in doc["nodes"]
                 for c in node["metrics"]["counters"]
                 if c["name"] == "nic.rx_frames")
    return lookups, frames


#: the price of the instruments: (registry lookups, received frames) on
#: the telemetry-on worlds, i.e. 8.4 and 5.6 dictionary probes per
#: frame — (3017, 100) and (1236, 45), 30.2 and 27.5 per frame, while
#: every total was pushed by the code that counted it; 846 and 259
#: while each flow also bound three counters nothing read
#: (``flow.losses`` / ``aborts`` / ``recoveries``), under a ceiling of
#: 1226 and 375.  The frame count is exact; the lookups are a ceiling.
LOOKUP_BUDGET = {
    'chaos_ash': (840, 100),
    'tenant_flood': (253, 45),
}


@pytest.mark.parametrize("exit_name", sorted(BUDGET_WORLDS))
def test_events_per_delivered_message(exit_name):
    got = (events_per_message(exit_name, CONFIGS["1core"]),
           events_per_message(exit_name, CONFIGS["2core_b8"]))
    assert got == EVENT_BUDGET[exit_name]


@pytest.mark.parametrize("exit_name", sorted(SITE_BUDGET))
def test_waits_per_delivery_by_site(exit_name):
    sites = sites_per_message(exit_name, CONFIGS["1core"])
    assert sites == SITE_BUDGET[exit_name]
    # and the census accounts for every event: a timer wait is the timer
    # and the wake-up, a charge carried on at a segment end the timer
    # alone, any other wait one resume, plus the process start
    cost = sum(n * (2 if (kind, how) == ("Timeout", "pending") else 1)
               for (_function, kind, how), n in sites.items())
    assert 1 + cost == EVENT_BUDGET[exit_name][0]


@pytest.mark.parametrize("exit_name", sorted(FRAME_BUDGET))
def test_python_frames_per_delivery(exit_name):
    by_file = frames_per_message(exit_name, CONFIGS["1core"])
    assert sum(by_file.values()) <= FRAME_BUDGET[exit_name], by_file
    # a plane-free world enters no plane code at all
    planes = {name: n for name, n in by_file.items()
              if name.replace("\\", "/").endswith(PLANE_FILES)}
    assert not planes


@pytest.mark.parametrize("world_name", sorted(TELEMETRY_WORLDS))
def test_registry_lookups_per_received_frame(world_name):
    lookups, frames = lookups_per_frame(world_name)
    ceiling, pinned_frames = LOOKUP_BUDGET[world_name]
    assert frames == pinned_frames
    assert lookups <= ceiling


if __name__ == "__main__":
    print("EVENT_BUDGET = {")
    for name in BUDGET_WORLDS:
        got = (events_per_message(name, CONFIGS["1core"]),
               events_per_message(name, CONFIGS["2core_b8"]))
        print(f"    {name!r}: {got!r},")
    print("}")
    print("FRAME_BUDGET = {")
    for name in ("ash", "ring_eth"):
        print(f"    {name!r}: "
              f"{sum(frames_per_message(name, CONFIGS['1core']).values())},")
    print("}")
    print("SITE_BUDGET = {")
    for name in ("ash", "ring_eth"):
        print(f"    {name!r}: {sites_per_message(name, CONFIGS['1core'])!r},")
    print("}")
    print("LOOKUP_BUDGET = {")
    for name in TELEMETRY_WORLDS:
        print(f"    {name!r}: {lookups_per_frame(name)!r},")
    print("}")
    digests, fired = run_matrix()
    print("GOLDEN = {")
    for scenario, row in digests.items():
        print(f"    {scenario!r}: {{")
        for config, value in row.items():
            print(f"        {config!r}: {value!r},")
        print("    },")
    print("}")
    print("FIRED = {")
    for scenario, row in fired.items():
        print(f"    {scenario!r}: {tuple(row.values())!r},")
    print("}")
    print(f"# sum {sum(n for row in fired.values() for n in row.values())}")
