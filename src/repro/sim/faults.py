"""Deterministic fault-injection plane.

The paper's premise is that ASHs run *in the kernel's interrupt path*,
so the system has to stay safe and live when messages are lost, mangled
or duplicated, when the NIC runs out of receive buffers, and when a
handler is involuntarily aborted mid-run.  The :class:`FaultPlane`
makes all of those conditions injectable at well-defined seams, one
injector class per **site** (:data:`SITES`):

* ``link`` (:class:`LinkImpairment`) — drop, bit-corrupt, duplicate,
  reorder and delay-jitter frames on a :class:`~repro.hw.link.Link`;
* ``nic`` (:class:`NicStress`) — forced rx-ring exhaustion and
  truncated DMA on a :class:`~repro.hw.nic.base.Nic`;
* ``ash`` (:class:`AshAbortInjector`) — forced involuntary ASH aborts
  mid-handler, via a deliberately tiny cycle budget
  (:func:`repro.sandbox.budget.forced_abort_budget`);
* ``crash`` (:class:`NodeCrash`) — a scripted kernel crash mid-flow
  that tears down every piece of kernel-volatile state (DPF filters,
  installed ASHs, upcall bindings, rx rings) while application memory —
  including the TCP ``SharedTcb`` region — survives; the reboot path
  rebuilds the kernel from boot records and the surviving application
  state (the exokernel bet);
* ``mem`` (:class:`MemPressure`) — injected allocation failure on
  ``mem.alloc`` and the allocation-like fast-path sites (rx-ring
  refill, ASH install), each of which must degrade gracefully, counted
  under ``mem.alloc_failures{site}``;
* ``cpu`` (:class:`CpuContention`) — seeded cycle-stealing bursts that
  stretch wall-clock time without advancing the victim's work,
  interacting with the sandbox abort budget and the receive-livelock
  admission throttle;
* ``tenant_flood`` / ``_leak`` / ``_hog`` / ``_abort`` / ``_script`` —
  one nontrusting tenant's abuses (:class:`TenantFlood` …), which a
  :class:`~repro.ash.tenancy.TenantManager` must contain.

Every decision is drawn from a per-seam :class:`random.Random` stream
seeded from ``(plane seed, seam name)`` and consumed in seam-call
order.  Because both simulation substrates produce bit-identical event
orderings, an identical seeded fault schedule yields **bit-identical
outcomes** (delivered bytes, retransmit counts, the fault ledger) on
``fast`` and ``legacy`` — the bar ``tests/test_faults.py`` pins.

A fault **schedule** is a list of ``site`` + ``target`` + the
injector's keyword knobs.  A target given as a string is an attribute
path on the testbed the plane is attached to, so a schedule is plain
data (JSON, but for ``tenant_script``'s ``program`` / ``policy``), and
activation windows (``start_us``/``stop_us``) are evaluated against the
engine's deterministic clock::

    plane = tb.attach_fault_plane(seed=42)
    plane.apply_scenario([
        {"site": "link", "target": "link", "drop": 0.05, "skip_first": 3},
        {"site": "nic", "target": "server_nic", "exhaust": 0.5,
         "start_us": 2_000.0, "stop_us": 4_000.0},
        {"site": "ash", "target": "server_kernel", "every": 2},
    ])

The plane keeps a deterministic **ledger** of everything it injected
(:meth:`FaultPlane.ledger`), exported as ``faults.*`` telemetry.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from ..errors import SimError
from .units import us

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.cpu import Cpu
    from ..hw.link import Frame, Link
    from ..hw.nic.base import Nic
    from ..hw.node import Node
    from ..kernel.kernel import Kernel

#: the plane and the site table; an injector class is reached through
#: :data:`SITES` and built by :meth:`FaultPlane.install`
__all__ = ["FaultPlane", "SITES"]


def _reframe(frame: "Frame", data) -> "Frame":
    """A second frame on ``frame``'s circuit carrying ``data``, with its
    own copy of the sidecar metadata."""
    from ..hw.link import Frame

    return Frame(data, vci=frame.vci, meta=dict(frame.meta))


class _Injector:
    """One installed injector: its seam's name and stream, the window +
    skip gates (subclasses hand those knobs down as ``**gates``) and
    the one trigger.  A subclass attaches itself to its seam in
    ``__init__``; :meth:`FaultPlane.install` is what builds it."""

    def __init__(self, plane: "FaultPlane", site: str, skip_first: int = 0,
                 start_us: Optional[float] = None,
                 stop_us: Optional[float] = None):
        # before the subclass touches the seam: a second injector would
        # overwrite the hook, share the stream and export totals twice
        if any(other.site == site for other in plane.injectors):
            raise SimError(f"fault seam {site!r} already has an injector")
        self.plane = plane
        self.site = site
        self.rng = plane._rng_for(site)
        self.skip_first = skip_first
        self.start = None if start_us is None else us(start_us)
        self.stop = None if stop_us is None else us(stop_us)
        self.seen = 0        #: seam invocations observed (incl. skipped)
        self.fired = 0       #: invocations :meth:`_trigger` fired on

    def _gate(self) -> bool:
        """One seam invocation: True when injection may fire now."""
        self.seen += 1
        if self.seen <= self.skip_first:
            return False
        now = self.plane.engine.now
        if self.start is not None and now < self.start:
            return False
        if self.stop is not None and now >= self.stop:
            return False
        return True

    def _trigger(self, kind: str, *, every: Optional[int] = None,
                 rate: float = 0.0, cap: Optional[int] = None,
                 seam: Optional["_Injector"] = None) -> bool:
        """One seam invocation: True when the fault fires now (counted,
        and entered in the ledger as ``kind``).

        Gate, then ``cap`` on fires so far, then ``every`` (each Nth
        invocation, skipped ones counted) before ``rate`` (one draw,
        only if ``every`` did not fire; a knob at 0 draws nothing).
        ``seam`` is the sub-seam whose count, gates and stream decide
        (:class:`MemPressure`: one per allocation site).
        """
        seam = seam or self
        if not seam._gate():
            return False
        if cap is not None and self.fired >= cap:
            return False
        fire = bool(every) and seam.seen % every == 0
        if not fire and rate:
            fire = seam.rng.random() < rate
        if fire:
            self.fired += 1
            self.plane.record(kind, seam.site)
        return fire

    def _until(self, at: int):
        """A scripted injector's preamble: sleep until tick ``at``."""
        delay = at - self.plane.engine.now
        if delay > 0:
            yield self.plane.engine.timeout(delay)

    def collect(self, reg) -> None:
        """Export what this injector counts beyond the plane's ledger
        (run by the plane's collector)."""


class LinkImpairment(_Injector):
    """Wire-level impairments for one :class:`~repro.hw.link.Link`.

    Rates are independent per-frame probabilities, drawn in a fixed
    order (drop, corrupt, duplicate, reorder, jitter) so each knob's
    pattern is a deterministic function of the seed and the frame
    sequence.  A dropped frame consumes no further draws.  Both
    directions of the link are impaired alike.
    """

    #: how long a reordered frame is held, and how far behind the
    #: original its duplicate arrives
    REORDER_TICKS = us(150.0)
    DUP_GAP_TICKS = us(5.0)

    def __init__(self, plane: "FaultPlane", link: "Link",
                 drop: float = 0.0, corrupt: float = 0.0,
                 duplicate: float = 0.0, reorder: float = 0.0,
                 delay_jitter_us: float = 0.0, **gates):
        super().__init__(plane, f"link:{link.name}", **gates)
        self.drop = drop
        self.corrupt = corrupt
        self.duplicate = duplicate
        self.reorder = reorder
        self.jitter_ticks = us(delay_jitter_us)
        link.impairment = self

    def on_send(self, from_end: int, frame: "Frame",
                arrival: int) -> list[tuple[int, "Frame"]]:
        """Deliveries for one frame transmitted from either end:
        ``[(tick, frame), ...]`` (empty = the wire ate it)."""
        if not self._gate():
            return [(arrival, frame)]
        rng = self.rng
        plane = self.plane
        site = self.site
        if self.drop and rng.random() < self.drop:
            plane.record("drop", site)
            return []
        if self.corrupt and rng.random() < self.corrupt and len(frame.data):
            frame = self._corrupt(frame, rng)
            plane.record("corrupt", site)
        deliveries = [(arrival, frame)]
        if self.duplicate and rng.random() < self.duplicate:
            deliveries.append((arrival + self.DUP_GAP_TICKS,
                               _reframe(frame, frame.data)))
            plane.record("duplicate", site)
        if self.reorder and rng.random() < self.reorder:
            # hold the frame long enough for later frames to overtake it
            deliveries = [(when + self.REORDER_TICKS, f)
                          for when, f in deliveries]
            plane.record("reorder", site)
        if self.jitter_ticks:
            extra = rng.randrange(self.jitter_ticks + 1)
            if extra:
                deliveries = [(when + extra, f) for when, f in deliveries]
                plane.record("delay", site)
        return deliveries

    @staticmethod
    def _corrupt(frame: "Frame", rng: random.Random) -> "Frame":
        """Flip one random bit of the payload (the link-CRC-escaping
        corruption transport checksums exist to catch)."""
        data = bytearray(frame.data)
        pos = rng.randrange(len(data))
        data[pos] ^= 1 << rng.randrange(8)
        return _reframe(frame, bytes(data))


class NicStress(_Injector):
    """Receive-side NIC stress: forced ring exhaustion, truncated DMA."""

    def __init__(self, plane: "FaultPlane", nic: "Nic",
                 exhaust: float = 0.0, truncate: float = 0.0,
                 truncate_to: int = 12, **gates):
        # NIC names repeat across nodes ("an2" on client and server), so
        # qualify the seam by the owning node — Nic.bind(node) set the
        # backref before any fault can be installed.  (Node-qualified,
        # not install-index-qualified: the seam name must not depend on
        # what *other* injectors a scenario happens to include, or
        # per-seam stream independence breaks.)
        super().__init__(plane, f"nic:{nic.node.name}.{nic.name}", **gates)
        self.exhaust = exhaust
        self.truncate = truncate
        self.truncate_to = truncate_to
        nic.stress = self

    def on_rx(self, frame: "Frame") -> Optional["Frame"]:
        """Transform an arriving frame; None = drop as if no buffer."""
        if not self._gate():
            return frame
        rng = self.rng
        if self.exhaust and rng.random() < self.exhaust:
            self.plane.record("nic_exhaust", self.site)
            return None
        if self.truncate and rng.random() < self.truncate \
                and len(frame.data) > self.truncate_to:
            self.plane.record("nic_truncate", self.site)
            return _reframe(frame, bytes(frame.data[:self.truncate_to]))
        return frame


class AshAbortInjector(_Injector):
    """Forces involuntary aborts mid-handler.

    Installed on a kernel's :class:`~repro.ash.system.AshSystem`; when
    it fires, the invocation runs under
    :func:`repro.sandbox.budget.forced_abort_budget` — a budget so small
    the handler trips ``BudgetExceeded`` partway through, exactly the
    paper's two-clock-tick timer abort, just early.  The kernel must
    then degrade to the next delivery path (upcall / normal) with zero
    message loss.
    """

    def __init__(self, plane: "FaultPlane", kernel: "Kernel",
                 every: Optional[int] = None, rate: float = 0.0, **gates):
        super().__init__(plane, f"ash:{kernel.node.name}", **gates)
        from ..sandbox.budget import forced_abort_budget

        self.every = every
        self.rate = rate
        self.budget = forced_abort_budget(kernel.cal)
        kernel.ash_system.fault_injector = self

    def consider(self) -> Optional[int]:
        """Called once per ASH invocation; returns the forced (tiny)
        cycle budget when this invocation must abort, else None."""
        if self._trigger("ash_abort", every=self.every, rate=self.rate):
            return self.budget
        return None


class NodeCrash(_Injector):
    """A scripted node crash + reboot, driven by its own engine process.

    At ``at_us`` the kernel crashes (:meth:`repro.kernel.kernel.Kernel.
    crash`): every piece of kernel-volatile state — DPF filters, the
    downloaded-ASH registry, upcall bindings, VCI bindings, pending rx
    rings — is torn down, while application memory (and with it the TCP
    ``SharedTcb`` region) survives untouched.  After ``outage_us`` of
    dead air (NICs down, arriving frames dropped as ``node_down``) the
    kernel reboots: filters are re-inserted, ASHs re-verified and
    re-downloaded through the sandbox, VCIs rebound, and the transport
    re-synchronizes from the surviving shared state via its ordinary
    retransmission machinery — bounded recovery, not a hang.

    A **reboot storm** is the same script run ``repeat`` times: crash,
    outage, reboot, then ``period_us`` after each crash the next one
    (default 4× the outage, so the node is up ~75% of the storm).  Each
    cycle's crash/reboot instants are kept in ``storms``.
    """

    def __init__(self, plane: "FaultPlane", kernel: "Kernel",
                 at_us: float, outage_us: float = 500.0,
                 repeat: int = 1, period_us: Optional[float] = None):
        super().__init__(plane, f"crash:{kernel.node.name}")
        if repeat < 1:
            raise SimError(f"NodeCrash repeat must be >= 1: {repeat}")
        self.kernel = kernel
        self.at = us(at_us)
        self.outage = us(outage_us)
        self.repeat = repeat
        self.period = (us(period_us) if period_us is not None
                       else 4 * self.outage)
        if self.repeat > 1 and self.period <= self.outage:
            raise SimError(
                f"NodeCrash period_us must exceed outage_us for a storm "
                f"(period {self.period} <= outage {self.outage})")
        #: one record per storm cycle: {"crashed_at", "rebooted_at"}
        self.storms: list[dict] = []
        plane.engine.spawn(self._script(), name=self.site)

    def _script(self):
        engine = self.plane.engine
        yield from self._until(self.at)
        for cycle in range(self.repeat):
            if self.kernel.crashed:
                return
            self.kernel.crash()
            crashed_at = engine.now
            self.plane.record("node_crash", self.site)
            yield engine.timeout(self.outage)
            self.kernel.reboot()
            self.plane.record("node_reboot", self.site)
            self.storms.append({"crashed_at": crashed_at,
                                "rebooted_at": engine.now})
            if cycle + 1 < self.repeat:
                # next crash lands period after the previous one
                yield engine.timeout(self.period - self.outage)


class MemPressure(_Injector):
    """Injected allocation failure, per allocating call site.

    Installed as ``node.memory.pressure``; every gated site
    (``rx_refill``, ``ash_install``, ``alloc`` — each exists on both
    substrates) draws from its **own** seeded stream
    (``mem:<node>:<site>``).  The streams stay per site because the
    committed fault schedules are drawn from them: one shared stream
    would move every pinned failure pattern.

    Refusals degrade, never crash: a refused rx-ring refill is deferred
    and flushed by the next successful one, a refused ASH install falls
    back to the upcall path.  Every refusal is counted under
    ``mem.alloc_failures{site}``.
    """

    DEFAULT_SITES = ("rx_refill", "ash_install", "alloc")

    def __init__(self, plane: "FaultPlane", node: "Node",
                 rate: float = 0.0, sites: Optional[tuple] = None,
                 max_failures: Optional[int] = None, **gates):
        super().__init__(plane, f"mem:{node.name}", **gates)
        self.node = node
        self.rate = rate
        self.max_failures = max_failures
        #: per allocation site: its own invocation count and stream
        self._seams = {
            site: _Injector(plane, f"{self.site}:{site}", **gates)
            for site in (self.DEFAULT_SITES if sites is None else sites)}
        node.memory.pressure = self

    def should_fail(self, site: str) -> bool:
        """One allocation attempt at ``site``; True = refuse it."""
        seam = self._seams.get(site)
        if seam is None or not self.rate:
            return False
        return self._trigger("mem_pressure", rate=self.rate,
                             cap=self.max_failures, seam=seam)

    def collect(self, reg) -> None:
        for site, n in self.node.memory.alloc_failures.items():
            reg.total("mem.alloc_failures", n, site=site, node=self.node.name)


class CpuContention(_Injector):
    """Seeded cycle-stealing bursts on one CPU.

    Installed as ``cpu.contention``.  Two seams consume the stream in
    seam-call order:

    * :meth:`steal` — once per :meth:`repro.hw.cpu.Cpu.exec` call; a
      firing burst holds the CPU for ``burst_cycles`` of *foreign* work
      before the victim's charge starts, stretching wall-clock without
      advancing the victim (so the livelock admission window fills with
      fewer messages served);
    * :meth:`budget_penalty` — once per timer-budgeted ASH invocation;
      the abort timer is wall-clock, so a burst landing inside the
      handler's window eats its cycle budget and can force an
      involuntary abort (which must then degrade in order, zero-loss).
    """

    def __init__(self, plane: "FaultPlane", node: "Node",
                 rate: float = 0.0, burst_cycles: int = 400,
                 budget_rate: Optional[float] = None, **gates):
        super().__init__(plane, f"cpu:{node.name}", **gates)
        #: the bursts land on core 0 (an SMP node contends per-core:
        #: they never slow work pinned to another core)
        self.cpu: "Cpu" = node.cpu
        self.rate = rate
        self.burst_cycles = burst_cycles
        self.budget_rate = rate if budget_rate is None else budget_rate
        self.cpu.contention = self

    def collect(self, reg) -> None:
        reg.total("cpu.contention_cycles", self.fired * self.burst_cycles,
                  cpu=self.cpu.name)

    def steal(self) -> int:
        """Cycles of foreign work stealing the CPU from this ``exec``
        call (0 = none this time)."""
        fire = self._trigger("cpu_contention", rate=self.rate)
        return self.burst_cycles if fire else 0

    def budget_penalty(self) -> int:
        """Cycles a contention burst eats out of a wall-clock abort
        budget for the ASH invocation starting now (0 = none)."""
        fire = self._trigger("cpu_contention", rate=self.budget_rate)
        return self.burst_cycles if fire else 0


class TenantFlood(_Injector):
    """A quota-exhaustion flood against one tenant's virtual circuit.

    An engine process blasts oversized frames straight at the NIC (as
    if an external aggressor held the VC), at a fixed cadence.  With a
    :class:`~repro.ash.tenancy.TenantManager` installed, every frame
    larger than the tenant's ``burst_bytes`` is mathematically
    inadmissible and is clipped *pre-DMA* — no buffer, no interrupt, no
    CPU — which is exactly the containment property the multi-tenant
    worlds pin.
    """

    def __init__(self, plane: "FaultPlane", nic: "Nic", vci: int,
                 frame_bytes: int = 20_000, count: int = 50,
                 start_us: float = 0.0, gap_us: float = 50.0):
        super().__init__(plane,
                         f"tenantflood:{nic.node.name}.{nic.name}:vc{vci}")
        if count < 1:
            raise SimError(f"TenantFlood count must be >= 1: {count}")
        if gap_us < 0:
            raise SimError(f"TenantFlood gap_us must be >= 0: {gap_us}")
        self.nic = nic
        self.vci = vci
        self.frame_bytes = frame_bytes
        self.count = count
        self.at = us(start_us)
        self.gap = us(gap_us)
        plane.engine.spawn(self._script(), name=self.site)

    def _script(self):
        from ..hw.link import Frame

        yield from self._until(self.at)
        payload = bytes(self.frame_bytes)
        for _ in range(self.count):
            self.nic._on_wire_frame(Frame(payload, vci=self.vci))
            self.plane.record("tenant_flood", self.site)
            if self.gap:
                yield self.plane.engine.timeout(self.gap)


class TenantLeak(_Injector):
    """A buffer-leak seam on one tenant's replenish path.

    Installed as the tenant's ``leak_injector``: a firing replenish is
    swallowed (the buffer silently stays on the tenant's held list),
    modelling an application that loses track of its rx buffers.  The
    manager's FIFO held-quota reclaim must keep the ring stocked — in
    the *same* buffer address order a well-behaved tenant would have
    produced — so the leak stays invisible to every other tenant.
    """

    def __init__(self, plane: "FaultPlane", manager, tenant: str, **gates):
        node = manager.kernel.node.name
        super().__init__(plane, f"tenantleak:{node}:{tenant}", **gates)
        manager.get(tenant).leak_injector = self

    def on_replenish(self) -> bool:
        """One replenish by the tenant; True = leak (swallow) it."""
        return self._trigger("tenant_leak", every=1)


class TenantCycleHog(_Injector):
    """A cycle-hog seam on one tenant's handler accounting.

    Installed as the tenant's ``hog_injector``: every charged handler
    invocation is inflated by ``factor``, as if the tenant's handler
    burned far more than it admitted to.  The per-round cycle quota
    must then throttle *this* tenant's handler (messages degrade to its
    normal path) without touching anyone else's.
    """

    def __init__(self, plane: "FaultPlane", manager, tenant: str,
                 factor: int = 16, **gates):
        node = manager.kernel.node.name
        super().__init__(plane, f"tenanthog:{node}:{tenant}", **gates)
        if factor < 1:
            raise SimError(f"TenantCycleHog factor must be >= 1: {factor}")
        self.factor = factor
        manager.get(tenant).hog_injector = self

    def inflate(self, cycles: int) -> int:
        """Accounting-side inflation of one invocation's cycle charge."""
        if self._trigger("tenant_hog", every=1):
            return cycles * self.factor
        return cycles


class TenantAbortLoop(_Injector):
    """A crash-looping handler: tenant-scoped forced involuntary aborts.

    Installed as the tenant's ``abort_injector`` — the per-tenant
    sibling of :class:`AshAbortInjector`.  Each firing invocation runs
    under a forced (tiny) cycle budget and aborts mid-handler; after
    :data:`repro.ash.tenancy.ABORT_BREAKER_LIMIT` consecutive aborts
    the manager cuts the tenant's ASH binding (the crash-loop breaker),
    and its traffic continues on the normal path.
    """

    def __init__(self, plane: "FaultPlane", manager, tenant: str, **gates):
        node = manager.kernel.node.name
        super().__init__(plane, f"tenantabort:{node}:{tenant}", **gates)
        from ..sandbox.budget import forced_abort_budget

        self.budget = forced_abort_budget(manager.cal)
        manager.get(tenant).abort_injector = self

    def consider(self) -> Optional[int]:
        """Called once per invocation on the tenant's endpoints; returns
        the forced budget when this invocation must abort, else None."""
        if self._trigger("tenant_abort", every=1):
            return self.budget
        return None


class TenantScript(_Injector):
    """One scripted tenant-lifecycle abuse at a fixed instant.

    ``action``:

    * ``"crash"`` — the tenant's application dies
      (:meth:`~repro.ash.tenancy.TenantManager.crash_tenant`): its ASHs
      and their boot records are removed, its frames drop pre-DMA;
    * ``"install_hog"`` — ``attempts`` downloads of ``program`` (a
      loop-free handler whose static bound exceeds the tenant's cycle
      quota), each refused at the tenant admission layer;
    * ``"install_crashloop"`` — ``attempts`` downloads of ``program``
      (an unverifiable handler); the tenant is quarantined after
      :data:`repro.ash.tenancy.CRASHLOOP_LIMIT` consecutive failures.

    All three are host-level control-plane actions: they consume no
    simulated time, which is what makes the containment bar (victim
    observables bit-identical to the unperturbed run) provable.
    """

    #: action -> ledger kind
    KINDS = {"crash": "tenant_crash", "install_hog": "tenant_hog",
             "install_crashloop": "tenant_crashloop"}

    def __init__(self, plane: "FaultPlane", manager, tenant: str,
                 at_us: float, action: str = "crash",
                 program=None, allowed_regions=None, policy=None,
                 attempts: int = 1):
        node = manager.kernel.node.name
        super().__init__(plane, f"tenant:{node}:{tenant}:{action}")
        if action not in self.KINDS:
            raise SimError(f"unknown TenantScript action {action!r}")
        if action != "crash" and program is None:
            raise SimError(f"TenantScript {action} needs a program")
        if attempts < 1:
            raise SimError(f"TenantScript attempts must be >= 1: {attempts}")
        self.manager = manager
        self.tenant = tenant
        self.at = us(at_us)
        self.action = action
        self.program = program
        self.allowed_regions = allowed_regions
        self.policy = policy
        self.attempts = attempts
        plane.engine.spawn(self._script(), name=self.site)

    def _script(self):
        yield from self._until(self.at)
        kind = self.KINDS[self.action]
        if self.action == "crash":
            self.manager.crash_tenant(self.tenant)
            self.plane.record(kind, self.site)
            return
        from ..ash.tenancy import TenantQuotaError
        from ..errors import SandboxViolation

        for _ in range(self.attempts):
            try:
                self.manager.download(
                    self.tenant, self.program, self.allowed_regions,
                    policy=self.policy)
            except (TenantQuotaError, SandboxViolation):
                pass  # the tenant's own counters record the refusal
            self.plane.record(kind, self.site)


#: the whole table: ``site`` -> class taking ``(plane, target, **knobs)``
SITES = {
    "link": LinkImpairment,
    "nic": NicStress,
    "ash": AshAbortInjector,
    "crash": NodeCrash,
    "mem": MemPressure,
    "cpu": CpuContention,
    "tenant_flood": TenantFlood,
    "tenant_leak": TenantLeak,
    "tenant_hog": TenantCycleHog,
    "tenant_abort": TenantAbortLoop,
    "tenant_script": TenantScript,
}


class FaultPlane:
    """Seeded, scenario-scriptable fault injection for one engine."""

    def __init__(self, engine, seed: int = 0, telemetry=None, testbed=None):
        self.engine = engine
        self.seed = seed
        self.telemetry = telemetry
        #: what a target given by name is resolved against
        self.testbed = testbed
        #: injected faults by (kind, site)
        self._ledger: dict[tuple[str, str], int] = {}
        self.injectors: list[_Injector] = []
        if telemetry is not None:
            telemetry.add_collector(self._collect)

    # -- deterministic randomness ----------------------------------------
    def _rng_for(self, site: str) -> random.Random:
        # string seeding is deterministic across processes (unlike
        # hash()), so the same (seed, site) always yields the same stream
        return random.Random(f"faultplane:{self.seed}:{site}")

    # -- installation -----------------------------------------------------
    def install(self, site: str, target, **knobs) -> _Injector:
        """Build the ``site`` injector (a :data:`SITES` key) with its
        keyword ``knobs`` — the one constructor.  ``target`` is the
        object the class hooks or its name, an attribute path on the
        plane's testbed: ``"link"`` / ``"server_nic"`` / ``"server"`` /
        ``"client_kernel"`` / ``"server_kernel.tenants"``.  A seam that
        already has an injector is refused."""
        cls = SITES.get(site)
        if cls is None:
            raise SimError(f"unknown fault site {site!r}")
        if isinstance(target, str):
            target = self._resolve(target)
        injector = cls(self, target, **knobs)
        self.injectors.append(injector)
        return injector

    def _resolve(self, path: str):
        if self.testbed is None:
            raise SimError(f"fault target {path!r} is a name, and this "
                           f"plane was built without a testbed")
        obj = self.testbed
        for part in path.split("."):
            obj = None if part.startswith("_") else getattr(obj, part, None)
            if obj is None:
                raise SimError(f"unknown fault target {path!r}: the "
                               f"testbed has no {part!r} there")
        return obj

    def apply_scenario(self, scenario: list[dict]) -> list[_Injector]:
        """Install a schedule: a list of specs, each a ``site``, a
        ``target`` and the injector's keyword knobs, in list order."""
        return [self.install(**spec) for spec in scenario]

    # benchmarks/perf/{worlds,probes}.py call these three and only a
    # `benchmark` PR may edit it: they go with ROADMAP's "Benchmark v2".
    def impair_link(self, link: "Link", **knobs) -> LinkImpairment:
        return self.install("link", link, **knobs)

    def crash_node(self, kernel: "Kernel", **knobs) -> NodeCrash:
        return self.install("crash", kernel, **knobs)

    def flood_tenant(self, nic: "Nic", vci: int, **knobs) -> TenantFlood:
        return self.install("tenant_flood", nic, vci=vci, **knobs)

    # -- accounting --------------------------------------------------------
    def record(self, kind: str, site: str) -> None:
        key = (kind, site)
        self._ledger[key] = self._ledger.get(key, 0) + 1
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.flight.record("fault", self.engine.now, fault=kind, site=site)

    def ledger(self) -> dict[str, int]:
        """Deterministic count of injected faults by kind — part of the
        substrate bit-identity bar."""
        by_kind: dict[str, int] = {}
        for (kind, _site), n in self._ledger.items():
            by_kind[kind] = by_kind.get(kind, 0) + n
        return dict(sorted(by_kind.items()))

    def total(self, kind: Optional[str] = None) -> int:
        return sum(n for (k, _site), n in self._ledger.items()
                   if kind is None or k == kind)

    def _collect(self, reg) -> None:
        for (kind, site), n in self._ledger.items():
            reg.total("faults.injected", n, kind=kind, site=site)
        for kind, n in self.ledger().items():
            reg.gauge("faults.ledger", kind=kind).set(n)
        for injector in self.injectors:
            injector.collect(reg)
