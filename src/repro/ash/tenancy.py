"""Multi-tenant isolation for the kernel-bypass receive path.

ASHs put untrusted application code inside the kernel's message path.
The paper's safety story (sandbox + DPF dispatch) protects the *kernel*
from a handler; nothing in it protects *tenants from each other* when
many applications share one NIC, DMA engine, receive-buffer supply and
CPU.  This module adds that second story: a first-class :class:`Tenant`
identity that owns its ASH installs, VCI bindings, rx-ring slots, held
receive buffers and handler cycle budget, with quotas enforced at three
choke points:

* **NIC admission** — a per-tenant token bucket (``bytes_per_round`` /
  ``burst_bytes``) evaluated *before* DMA, so an over-quota frame is
  clipped at zero cost: no buffer is consumed, no interrupt raised, no
  cycle charged.  Dead tenants' frames are dropped the same way.
* **held receive buffers** — past its ``buffers`` quota a tenant's
  *oldest* delivered-but-unreturned buffer is revoked and handed back to
  the rx ring (``tenant.reclaims``): the shared resource itself is
  metered, FIFO, so a leaking tenant starves only itself.
* **ASH scheduler** — per-round handler cycle accounting
  (``handler_cycles`` per ``round_us``); an exhausted tenant has its
  handler skipped for the rest of the round (the message takes the
  normal path), and a tenant whose handler aborts involuntarily
  :data:`ABORT_BREAKER_LIMIT` times in a row has the binding cut.

Degradation is *ordered and checked* per tenant — throttle (token
bucket) → defer-refill (FIFO buffer reclaim when the held-buffer quota
is exceeded, including an emergency reclaim when the rx ring runs
empty) → drop — and never touches another tenant's path.  A ``no
buffer`` drop that happens while the tenant still had reclaimable
buffers counts as a ``tenant.order_violations`` bug (must stay 0).

The exokernel split applies to tenancy too: the :class:`TenantManager`
and its quota/ownership records are **application-owned** control-plane
state that survives a kernel crash (like the TCP ``SharedTcb``), while
a tenant's installed ASHs and VCI bindings are kernel-volatile.
Killing a tenant removes its ASH boot records, so a later reboot's
replay restores only the survivors — in deterministic (sorted id)
order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..errors import AllocationError, SandboxViolation, SimError
from ..sandbox.budget import BudgetPolicy, straightline_cycle_bound
from ..sandbox.verifier import has_loops
from ..sim.units import us

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.link import Frame
    from ..hw.nic.base import Nic, RxDescriptor
    from ..kernel.kernel import Endpoint, Kernel
    from ..vcode.isa import Program

__all__ = ["Tenant", "TenantManager", "TenantQuota", "TenantQuotaError"]

#: consecutive failing installs before a tenant is quarantined (the
#: crash-loop breaker: a tenant that keeps shipping unverifiable
#: handlers loses its install privilege, not its traffic)
CRASHLOOP_LIMIT = 3

#: consecutive involuntary aborts before a tenant's ASH binding is cut
#: (messages then degrade, in order, to the normal path)
ABORT_BREAKER_LIMIT = 3

#: tenant counter key -> (the metric it is exported as, the label its
#: sub-counts are keyed by or None): the manager's collector reads it,
#: and the metrics lint matches the literal names against the registry
_TENANT_METRICS = {
    "admitted": ("tenant.admitted", None),
    "admitted_bytes": ("tenant.admitted_bytes", None),
    "throttled": ("tenant.throttled", None),
    "dropped": ("tenant.dropped", "reason"),
    "cycle_throttled": ("tenant.cycle_throttled", None),
    "cycles_used": ("tenant.cycles_used", None),
    "reclaims": ("tenant.reclaims", None),
    "quota_violations": ("tenant.quota_violations", None),
    "installs_refused": ("tenant.installs_refused", "reason"),
    "kills": ("tenant.kills", "action"),
    "order_violations": ("tenant.order_violations", None),
}


class TenantQuotaError(SimError):
    """A tenant asked for more than its quota allows."""


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant resource limits, validated at tenant creation.

    ``bytes_per_round`` and ``burst_bytes`` parameterize the admission
    token bucket: the bucket refills at ``bytes_per_round`` per
    ``round_us`` and caps at ``burst_bytes``, so a frame larger than
    ``burst_bytes`` can *never* be admitted.  ``handler_cycles`` is the
    tenant's ASH cycle budget per ``round_us`` window, and also the cap
    on the static bound of any loop-free handler it downloads.
    """

    rings: int = 4                  #: max VCI bindings (rx rings)
    buffers: int = 16               #: max held (unreturned) rx buffers
    handler_cycles: int = 40_000    #: ASH cycles per round window
    bytes_per_round: int = 65_536   #: admission refill per round
    burst_bytes: int = 16_384       #: admission bucket capacity
    round_us: float = 1000.0        #: quota round (one clock tick)

    def validate(self, tenant: str) -> None:
        """Reject non-positive knobs, naming the offending tenant."""
        for knob in ("rings", "buffers", "handler_cycles",
                     "bytes_per_round", "burst_bytes", "round_us"):
            value = getattr(self, knob)
            if value <= 0:
                raise ValueError(
                    f"tenant {tenant!r}: quota {knob} must be positive "
                    f"(got {value})"
                )


@dataclass
class Tenant:
    """One isolation domain: an application (or a colocated group of
    them) whose resource use must not be observable by its neighbors."""

    name: str
    quota: TenantQuota
    round_ticks: int = 0
    dead: bool = False
    quarantined: bool = False
    #: ASH ids this tenant downloaded (removed, with their boot
    #: records, when the tenant dies)
    ash_ids: set = field(default_factory=set)
    endpoints: list = field(default_factory=list)
    #: delivered-but-unreturned rx buffers, FIFO: ``(endpoint, desc)``
    held: deque = field(default_factory=deque)
    #: admission token bucket, in byte-ticks (integer-exact)
    bucket_level: int = 0
    bucket_last: int = 0
    #: per-round handler cycle window
    round_id: int = -1
    cycles_round: int = 0
    abort_streak: int = 0
    install_fail_streak: int = 0
    counters: dict = field(default_factory=dict)
    # fault seams: a FaultPlane installs tenant-scoped injectors here
    # (see repro.sim.faults); None = the tenant behaves
    leak_injector: object = None
    hog_injector: object = None
    abort_injector: object = None


class TenantManager:
    """Per-kernel tenant registry and quota enforcement.

    Installs itself as ``kernel.tenants`` and as the admission hook on
    every bound NIC.  Tenancy is keyed by VCI, so it covers the AN2
    kernel-bypass path (Ethernet frames carry no VCI and pass
    unattributed).
    """

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.engine = kernel.engine
        self.cal = kernel.cal
        self.telemetry = kernel.telemetry
        self.telemetry.add_collector(self._collect)
        self.tenants: dict[str, Tenant] = {}
        self._by_vci: dict[tuple[str, int], Tenant] = {}
        #: drops that skipped the defer-refill stage while reclaimable
        #: buffers existed — the checked degradation order (must stay 0)
        self.order_violations = 0
        kernel.tenants = self
        for nic in kernel.node.nics.values():
            nic.admission = self

    # -- registry -----------------------------------------------------------
    def create(self, name: str,
               quota: Optional[TenantQuota] = None, **knobs) -> Tenant:
        """Register a tenant; quota knobs are validated up front."""
        if name in self.tenants:
            raise SimError(f"tenant {name!r} already exists")
        quota = quota if quota is not None else TenantQuota(**knobs)
        quota.validate(name)
        tenant = Tenant(name=name, quota=quota,
                        round_ticks=us(quota.round_us))
        # a fresh tenant starts with a full burst allowance
        tenant.bucket_level = quota.burst_bytes * tenant.round_ticks
        tenant.bucket_last = self.engine.now
        self.tenants[name] = tenant
        return tenant

    def get(self, tenant) -> Tenant:
        if isinstance(tenant, Tenant):
            return tenant
        if tenant not in self.tenants:
            raise SimError(f"no tenant named {tenant!r}")
        return self.tenants[tenant]

    def _tenant_for(self, nic: "Nic", vci: Optional[int]) -> Optional[Tenant]:
        if vci is None:
            return None
        return self._by_vci.get((nic.name, vci))

    def _tenant_for_ep(self, ep: "Endpoint") -> Optional[Tenant]:
        return self._tenant_for(ep.nic, ep.vci)

    # -- endpoint ownership --------------------------------------------------
    def charge_endpoint(self, tenant, vci: int) -> Tenant:
        """Pre-flight for one VCI binding: enforce the ring quota before
        any buffer memory is allocated."""
        t = self.get(tenant)
        if t.dead:
            raise TenantQuotaError(f"tenant {t.name!r} is dead")
        if len(t.endpoints) >= t.quota.rings:
            self._count(t, "quota_violations")
            raise TenantQuotaError(
                f"tenant {t.name!r}: ring quota of {t.quota.rings} "
                f"exhausted (vci {vci} refused)"
            )
        return t

    def bind_endpoint(self, tenant, ep: "Endpoint") -> None:
        t = self.get(tenant)
        t.endpoints.append(ep)
        self._by_vci[(ep.nic.name, ep.vci)] = t

    def adopt_endpoint(self, tenant, ep: "Endpoint") -> Tenant:
        """Claim an endpoint created elsewhere (e.g. by a protocol
        stack) for ``tenant``, under the same ring quota."""
        t = self.charge_endpoint(tenant, ep.vci)
        self.bind_endpoint(t, ep)
        return t

    # -- NIC admission (stage 1: throttle) -----------------------------------
    def check(self, nic: "Nic", frame: "Frame") -> Optional[str]:
        """Pre-DMA admission: returns a drop reason, or None to admit.

        Runs before any buffer is consumed or interrupt raised, so a
        clipped frame costs its tenant's neighbors nothing — no memory,
        no CPU, no event.
        """
        t = self._tenant_for(nic, frame.vci)
        if t is None:
            return None
        if t.dead:
            self._count(t, "dropped", reason="tenant_dead")
            return "tenant_dead"
        quota = t.quota
        ticks = t.round_ticks
        cap = quota.burst_bytes * ticks
        now = self.engine.now
        level = t.bucket_level + (now - t.bucket_last) * quota.bytes_per_round
        t.bucket_level = cap if level > cap else level
        t.bucket_last = now
        cost = len(frame.data) * ticks
        if cost > t.bucket_level:
            self._count(t, "throttled")
            self._count(t, "dropped", reason="tenant_throttle")
            return "tenant_throttle"
        t.bucket_level -= cost
        self._count(t, "admitted")
        self._count(t, "admitted_bytes", len(frame.data))
        return None

    # -- buffer accounting (stage 2: defer-refill) ---------------------------
    def note_ring_delivery(self, ep: "Endpoint", desc: "RxDescriptor") -> None:
        """A descriptor landed on a tenant's notification ring.  Track
        it as held; past the ``buffers`` quota the *oldest* held buffer
        is revoked and returned to the rx ring (FIFO, so the ring's
        buffer address order is exactly what a well-behaved tenant's own
        replenish stream would have produced)."""
        t = self._tenant_for_ep(ep)
        if t is None:
            return
        t.held.append((ep, desc))
        while len(t.held) > t.quota.buffers:
            self._reclaim_oldest(t)

    def note_replenish(self, ep: "Endpoint", desc: "RxDescriptor") -> bool:
        """The application returned a buffer.  True = the manager
        swallowed the replenish (the kernel must not recycle)."""
        t = self._tenant_for_ep(ep)
        if t is None:
            return False
        if desc.tenant_revoked:
            # stage 2 already returned this buffer to the ring; the late
            # replenish must not double-insert the address
            desc.tenant_revoked = False
            return True
        injector = t.leak_injector
        if injector is not None and injector.on_replenish():
            # injected leak: the buffer silently stays on the held list,
            # where the quota reclaim above will recover it
            return True
        try:
            t.held.remove((ep, desc))
        except ValueError:
            pass  # e.g. a pre-crash descriptor: held list was cleared
        return False

    def _reclaim_oldest(self, t: Tenant) -> None:
        ep, desc = t.held.popleft()
        desc.tenant_revoked = True
        ep.nic.recycle(desc)
        self._count(t, "reclaims")

    def on_ring_empty(self, nic: "Nic", vci: int) -> bool:
        """The rx ring ran dry mid-DMA: emergency defer-refill.  If the
        tenant holds reclaimable buffers, revoke the oldest *now* so the
        frame is served instead of dropped (defer before drop)."""
        t = self._tenant_for(nic, vci)
        if t is None or not t.held:
            return False
        self._reclaim_oldest(t)
        return True

    def note_no_buffer(self, nic: "Nic", vci: int) -> None:
        """Stage 3 (drop) fired.  Legal only once stage 2 has nothing
        left to reclaim — anything else is a degradation-order bug."""
        t = self._tenant_for(nic, vci)
        if t is None:
            return
        self._count(t, "dropped", reason="no_buffer")
        if t.held:
            self.order_violations += 1
            self._count(t, "order_violations")

    # -- ASH scheduler (handler cycle quota) ---------------------------------
    def _roll_round(self, t: Tenant) -> None:
        round_id = self.engine.now // t.round_ticks
        if round_id != t.round_id:
            t.round_id = round_id
            t.cycles_round = 0

    def ash_allowed(self, ep: "Endpoint") -> bool:
        """Pre-invocation gate: False skips the handler for this message
        (it degrades, in order, to the upcall/normal path)."""
        t = self._tenant_for_ep(ep)
        if t is None:
            return True
        if t.dead:
            return False
        self._roll_round(t)
        if t.cycles_round >= t.quota.handler_cycles:
            self._count(t, "cycle_throttled")
            return False
        return True

    def consider_abort(self, ep: "Endpoint") -> Optional[int]:
        """Tenant-scoped forced-abort seam (see
        :class:`repro.sim.faults.TenantAbortLoop`)."""
        t = self._tenant_for_ep(ep)
        if t is None or t.abort_injector is None:
            return None
        return t.abort_injector.consider()

    def _charge(self, t: Tenant, cycles: int) -> None:
        injector = t.hog_injector
        if injector is not None:
            cycles = injector.inflate(cycles)
        self._roll_round(t)
        t.cycles_round += cycles
        self._count(t, "cycles_used", cycles)

    def note_success(self, ep: "Endpoint", cycles: int) -> None:
        t = self._tenant_for_ep(ep)
        if t is None:
            return
        t.abort_streak = 0
        self._charge(t, cycles)

    def note_abort(self, ep: "Endpoint", cycles: int) -> None:
        """An involuntary abort on a tenant's handler: charge the burnt
        cycles and, past :data:`ABORT_BREAKER_LIMIT` consecutive aborts,
        cut the ASH binding (the crash-loop breaker for handlers that
        fault on every message)."""
        t = self._tenant_for_ep(ep)
        if t is None:
            return
        self._charge(t, cycles)
        t.abort_streak += 1
        if t.abort_streak >= ABORT_BREAKER_LIMIT and ep.ash_id is not None:
            ep.ash_id = None
            t.abort_streak = 0
            self._count(t, "kills", action="ash_breaker")
            self._flight(t, "ash_breaker", ep=ep.name)

    # -- handler installs ----------------------------------------------------
    def download(self, tenant, program: "Program",
                 allowed_regions, **kwargs) -> int:
        """Download a handler on the tenant's behalf, under its quota.

        A loop-free (``STATIC_ESTIMATE``) handler whose proven bound
        exceeds ``handler_cycles`` is refused *here*, before the ASH
        system is touched — the refusal costs nothing and leaves no
        kernel state behind.  :data:`CRASHLOOP_LIMIT` consecutive
        failing installs quarantine the tenant.
        """
        t = self.get(tenant)
        if t.dead:
            raise TenantQuotaError(f"tenant {t.name!r} is dead")
        if t.quarantined:
            self._count(t, "installs_refused", reason="quarantined")
            raise TenantQuotaError(
                f"tenant {t.name!r} is quarantined after "
                f"{CRASHLOOP_LIMIT} failing installs"
            )
        policy = kwargs.get("policy")
        if policy is not None and policy.budget is BudgetPolicy.STATIC_ESTIMATE:
            if has_loops(program):
                self._note_install_failure(t, "verify")
                raise SandboxViolation(
                    f"{program.name}: static budget estimation requires "
                    f"loop-free code"
                )
            bound = straightline_cycle_bound(program, self.cal)
            if bound > t.quota.handler_cycles:
                self._count(t, "quota_violations")
                self._note_install_failure(t, "cycle_quota")
                raise TenantQuotaError(
                    f"tenant {t.name!r}: handler {program.name!r} static "
                    f"bound {bound} exceeds the "
                    f"{t.quota.handler_cycles}-cycle quota"
                )
        try:
            ash_id = self.kernel.ash_system.download(
                program, allowed_regions, **kwargs)
        except (SandboxViolation, AllocationError):
            self._note_install_failure(t, "verify")
            raise
        t.install_fail_streak = 0
        t.ash_ids.add(ash_id)
        return ash_id

    def install_version(self, tenant, old_id: int,
                        program: "Program", **kwargs) -> int:
        """Versioned upgrade of a handler the tenant owns."""
        t = self.get(tenant)
        if old_id not in t.ash_ids:
            self._count(t, "quota_violations")
            raise TenantQuotaError(
                f"tenant {t.name!r} does not own ASH {old_id}")
        if t.dead:
            raise TenantQuotaError(f"tenant {t.name!r} is dead")
        if t.quarantined:
            self._count(t, "installs_refused", reason="quarantined")
            raise TenantQuotaError(
                f"tenant {t.name!r} is quarantined after "
                f"{CRASHLOOP_LIMIT} failing installs"
            )
        try:
            new_id = self.kernel.ash_system.install_version(
                old_id, program, **kwargs)
        except (SandboxViolation, AllocationError):
            self._note_install_failure(t, "verify")
            raise
        t.install_fail_streak = 0
        t.ash_ids.add(new_id)
        return new_id

    def _note_install_failure(self, t: Tenant, reason: str) -> None:
        self._count(t, "installs_refused", reason=reason)
        t.install_fail_streak += 1
        if t.install_fail_streak >= CRASHLOOP_LIMIT and not t.quarantined:
            t.quarantined = True
            self._count(t, "kills", action="quarantine")
            self._flight(t, "quarantine")

    # -- lifecycle -----------------------------------------------------------
    def crash_tenant(self, tenant, reason: str = "crash") -> None:
        """The tenant's application died (or was evicted): its handlers
        and their boot records are removed — a later kernel reboot
        replays only the survivors — its bindings are cleared, its held
        buffers returned, and every frame still addressed to it is
        dropped pre-DMA as ``tenant_dead``."""
        t = self.get(tenant)
        if t.dead:
            return
        t.dead = True
        for ash_id in sorted(t.ash_ids):
            self.kernel.ash_system.remove(ash_id)
        for ep in t.endpoints:
            ep.clear_handlers()
        while t.held:
            self._reclaim_oldest(t)
        self._count(t, "kills", action=reason)
        self._flight(t, reason)

    def on_crash(self) -> None:
        """The *kernel* crashed: every held descriptor is stale (the
        rings were drained into the rebind set).  The manager itself is
        application-owned and survives."""
        for t in self.tenants.values():
            t.held.clear()
            t.abort_streak = 0

    # -- accounting ----------------------------------------------------------
    def _count(self, t: Tenant, key: str, n: int = 1, **labels) -> None:
        if labels:
            label = next(iter(labels.values()))
            bucket = t.counters.setdefault(key, {})
            bucket[label] = bucket.get(label, 0) + n
        else:
            t.counters[key] = t.counters.get(key, 0) + n

    def _collect(self, reg) -> None:
        """``Tenant.counters`` — the kernel-side accounting a tenant may
        never skip — is the one ledger; this exports it as ``tenant.*``."""
        for name, t in self.tenants.items():
            for key, value in t.counters.items():
                metric, label = _TENANT_METRICS[key]
                if label is None:
                    reg.total(metric, value, tenant=name)
                else:
                    for which, n in value.items():
                        reg.total(metric, n, tenant=name, **{label: which})

    def _flight(self, t: Tenant, action: str, **detail) -> None:
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.flight.record("tenant_kill", self.engine.now,
                              tenant=t.name, action=action, **detail)
            tel.flight.dump(f"tenant_{action}", self.engine.now,
                            tenant=t.name)

    def stats(self) -> dict:
        """Deterministic per-tenant snapshot for ``kernel.stats()`` and
        the containment bit-identity bar."""
        return {
            "order_violations": self.order_violations,
            "tenants": {
                name: {
                    "dead": t.dead,
                    "quarantined": t.quarantined,
                    "endpoints": [ep.name for ep in t.endpoints],
                    "ash_ids": sorted(t.ash_ids),
                    "held": len(t.held),
                    "counters": {
                        key: (dict(sorted(value.items()))
                              if isinstance(value, dict) else value)
                        for key, value in sorted(t.counters.items())
                    },
                }
                for name, t in sorted(self.tenants.items())
            },
        }
