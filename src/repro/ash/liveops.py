"""Live-operations plane: hot ASH upgrade with staged canary rollout.

The paper's whole premise is that applications download handler code
into the kernel; a production deployment of that idea needs to *replace*
a handler under live traffic.  This module provides the missing piece:
a :class:`RolloutController` that drives a versioned upgrade
(:meth:`~repro.ash.system.AshSystem.install_version`) through a staged
state machine::

    staged ──start_canary()──> canary ──evaluate()──> promoted
                                  │
                                  └──(digest / SLO / latency guard)──> rolled_back

* **staged** — the new version is downloaded (verified + sandboxed) and
  coexists with the old one; every flow still runs v(N).  The workload
  reports per-flow behaviour digests and round latencies via
  :meth:`RolloutController.note_round`; these become the **golden**
  reference.
* **canary** — a deterministic fraction of flows (chosen by FNV-1a hash
  of the endpoint name, never by wall clock or ``random``) is rebound to
  v(N+1).  Rebinding is a plain synchronous pointer swap between
  deliveries — a message is handled entirely by whichever version was
  bound when its delivery began, so the swap is atomic per message and
  loses nothing.
* **evaluate()** compares the canary cohort against golden: any digest
  mismatch, any increase of the node's counted ``slo.violations``, or a
  mean round-latency regression beyond the declared budget trips a
  guard and triggers **automatic rollback** (canary flows rebound to
  v(N), flight-recorder post-mortem dumped so forensics explain *why*);
  a clean canary is **promoted** (every flow rebound to v(N+1)).

The exokernel split applies: the controller and its golden digests live
in application memory and survive :meth:`Kernel.crash`, while the
version *bindings* ride the kernel's ordinary boot-record replay — both
versions have boot records, so a crash mid-canary reboots straight back
into the canary configuration.

Everything is deterministic: cohort choice, digests, and verdicts are
pure functions of the workload, so both simulation substrates and every
SMP width reach bit-identical rollout outcomes.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..errors import VcodeError
from ..hw.nic.rss import fnv1a32

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Endpoint, Kernel

__all__ = [
    "RolloutController",
    "RolloutTarget",
    "STAGED",
    "CANARY",
    "PROMOTED",
    "ROLLED_BACK",
]

STAGED = "staged"
CANARY = "canary"
PROMOTED = "promoted"
ROLLED_BACK = "rolled_back"


class RolloutTarget:
    """One flow under rollout: an endpoint and its two handler versions."""

    __slots__ = ("ep", "old_id", "new_id", "canary")

    def __init__(self, ep: "Endpoint", old_id: int, new_id: int):
        self.ep = ep
        self.old_id = old_id
        self.new_id = new_id
        self.canary = False


class RolloutController:
    """Staged canary rollout of one handler upgrade across many flows.

    ``targets`` is a list of ``(endpoint, old_ash_id, new_ash_id)``
    tuples — one per flow.  The workload drives the controller
    explicitly (``note_round`` once per flow per round, then
    ``start_canary`` / ``evaluate``), which keeps every decision on the
    deterministic simulated timeline.

    Guards, all evaluated by :meth:`evaluate`:

    * **digest** — a canary flow's round digest differs from its golden
      digest (captured for the same flow while staged);
    * **slo** — the node's counted ``slo.violations`` grew since the
      canary started;
    * **latency** — the canary cohort's mean round latency exceeds its
      golden mean by more than ``latency_budget`` (fractional).
    """

    def __init__(self, kernel: "Kernel",
                 targets: list[tuple["Endpoint", int, int]],
                 canary_fraction: float = 0.25,
                 latency_budget: float = 0.10,
                 name: str = "rollout"):
        if not targets:
            raise VcodeError("rollout needs at least one target flow")
        self.kernel = kernel
        self.telemetry = kernel.node.telemetry
        self.name = name
        self.latency_budget = latency_budget
        self.state = STAGED
        self.targets: list[RolloutTarget] = []
        by_ep: dict[str, RolloutTarget] = {}
        for ep, old_id, new_id in targets:
            old = kernel.ash_system.entry(old_id)
            new = kernel.ash_system.entry(new_id)
            if old.lineage != new.lineage or new.version <= old.version:
                raise VcodeError(
                    f"{name}: ash {new_id} (v{new.version}) is not an "
                    f"upgrade of ash {old_id} (v{old.version})"
                )
            target = RolloutTarget(ep, old_id, new_id)
            self.targets.append(target)
            by_ep[ep.name] = target
        self._by_ep = by_ep
        # deterministic cohort: rank flows by FNV-1a of the endpoint
        # name (salted with the rollout name) and canary the lowest
        # ceil(fraction * n), at least one — no clocks, no random module
        ranked = sorted(
            self.targets,
            key=lambda t: (fnv1a32(f"{name}:{t.ep.name}".encode()),
                           t.ep.name),
        )
        ncanary = max(1, round(canary_fraction * len(ranked)))
        for target in ranked[:ncanary]:
            target.canary = True
        #: golden reference, per flow key: list of (digest, latency_us)
        self.golden: dict[str, list[tuple[str, float]]] = {}
        #: canary-phase observations, same shape
        self.observed: dict[str, list[tuple[str, float]]] = {}
        #: guard trips from the last evaluate(): [(reason, detail), ...]
        self.guard_trips: list[tuple[str, str]] = []
        self.swaps = 0
        self._slo_baseline: Optional[int] = None

    # -- cohort ---------------------------------------------------------
    def is_canary(self, ep: "Endpoint") -> bool:
        target = self._by_ep.get(ep.name)
        return target is not None and target.canary

    def canary_flows(self) -> list[str]:
        return sorted(t.ep.name for t in self.targets if t.canary)

    # -- observations ---------------------------------------------------
    def note_round(self, key: str, digest: str, latency_us: float) -> None:
        """One flow finished one round of traffic.

        While staged the observation extends the golden reference; while
        canarying it is held for :meth:`evaluate`.  After a verdict the
        call is ignored (the rollout is over)."""
        if self.state == STAGED:
            self.golden.setdefault(key, []).append((digest, latency_us))
        elif self.state == CANARY:
            self.observed.setdefault(key, []).append((digest, latency_us))

    # -- phase transitions ----------------------------------------------
    def start_canary(self) -> list[str]:
        """Rebind the canary cohort to the new version; returns the
        cohort's endpoint names.  Requires golden coverage for every
        canary flow — rolling out without a reference is flying blind."""
        if self.state != STAGED:
            raise VcodeError(f"{self.name}: start_canary in {self.state}")
        missing = [t.ep.name for t in self.targets
                   if t.canary and t.ep.name not in self.golden]
        if missing:
            raise VcodeError(
                f"{self.name}: no golden digests for canary flows "
                f"{missing} — run staged traffic first"
            )
        self._slo_baseline = self._slo_count()
        for target in self.targets:
            if target.canary:
                self._swap(target.ep, target.new_id)
        self.state = CANARY
        tel = self.telemetry
        if tel.enabled:
            tel.counter("liveops.rollouts").inc()
            tel.gauge("liveops.canary_flows").set(
                sum(1 for t in self.targets if t.canary))
            tel.flight.record("rollout", self.kernel.engine.now,
                              rollout=self.name, phase="canary",
                              flows=len(self.canary_flows()))
        self.kernel.node.trace(
            "liveops.canary",
            f"{self.name}: {len(self.canary_flows())}/{len(self.targets)} "
            f"flows on the new version",
        )
        return self.canary_flows()

    def evaluate(self) -> str:
        """Judge the canary cohort; promote or roll back.  Returns the
        terminal state (:data:`PROMOTED` or :data:`ROLLED_BACK`)."""
        if self.state != CANARY:
            raise VcodeError(f"{self.name}: evaluate in {self.state}")
        trips: list[tuple[str, str]] = []
        canary_keys = [t.ep.name for t in self.targets if t.canary]
        gold_lat: list[float] = []
        seen_lat: list[float] = []
        for key in canary_keys:
            golden = self.golden.get(key, [])
            observed = self.observed.get(key, [])
            if not observed:
                trips.append(("digest", f"{key}: no canary traffic seen"))
                continue
            golden_digests = {d for d, _lat in golden}
            for digest, lat in observed:
                seen_lat.append(lat)
                if digest not in golden_digests:
                    trips.append(
                        ("digest", f"{key}: {digest[:12]} not in golden"))
            gold_lat.extend(lat for _d, lat in golden)
        slo_delta = self._slo_count() - self._slo_baseline
        if slo_delta > 0:
            trips.append(("slo", f"slo.violations grew by {slo_delta}"))
        if gold_lat and seen_lat:
            golden_mean = sum(gold_lat) / len(gold_lat)
            canary_mean = sum(seen_lat) / len(seen_lat)
            if canary_mean > golden_mean * (1.0 + self.latency_budget):
                trips.append((
                    "latency",
                    f"canary mean {canary_mean:.2f}us vs golden "
                    f"{golden_mean:.2f}us (budget "
                    f"{self.latency_budget:.0%})",
                ))
        self.guard_trips = trips
        tel = self.telemetry
        if tel.enabled:
            for reason, _detail in trips:
                tel.counter("liveops.guard_trips", reason=reason).inc()
        if trips:
            self._rollback(trips)
        else:
            self._promote()
        return self.state

    def _promote(self) -> None:
        for target in self.targets:
            self._swap(target.ep, target.new_id)
        self.state = PROMOTED
        tel = self.telemetry
        now = self.kernel.engine.now
        if tel.enabled:
            tel.counter("liveops.promotions").inc()
            tel.flight.record("rollout", now, rollout=self.name,
                              phase="promoted")
        self.kernel.node.trace("liveops.promote", self.name)

    def _rollback(self, trips: list[tuple[str, str]]) -> None:
        """Atomic rollback under live traffic: rebind every canary flow
        to the old version (the old entry never left the kernel, so this
        is the same synchronous swap the canary used) and dump the
        flight ring — the post-mortem carries the tripped guards."""
        for target in self.targets:
            if target.canary:
                self._swap(target.ep, target.old_id)
        self.state = ROLLED_BACK
        tel = self.telemetry
        now = self.kernel.engine.now
        if tel.enabled:
            tel.counter("liveops.rollbacks").inc()
            tel.flight.record(
                "rollout", now, rollout=self.name, phase="rolled_back",
                reason=trips[0][0], trips=len(trips))
            tel.flight.dump("canary_rollback", now, rollout=self.name,
                            reasons=sorted({r for r, _d in trips}))
        self.kernel.node.trace(
            "liveops.rollback",
            f"{self.name}: {trips[0][0]} ({len(trips)} guard trips)",
        )

    # -- plumbing -------------------------------------------------------
    def _swap(self, ep: "Endpoint", ash_id: int) -> None:
        """Rebind one endpoint (no-op when already bound).  Synchronous:
        there is no yield between reading and writing ``ep.ash_id``, so
        a swap lands *between* deliveries — every message runs entirely
        under one version and none is lost."""
        if ep.ash_id == ash_id:
            return
        self.kernel.ash_system.bind(ep, ash_id)
        self.swaps += 1
        if self.telemetry.enabled:
            self.telemetry.counter("liveops.swaps").inc()

    def _slo_count(self) -> int:
        tel = self.telemetry
        if tel._slo is None:
            return 0
        return (len(tel.slo.violations)
                + tel.slo.violations_dropped)

    def reapply(self) -> None:
        """Re-assert the bindings the current state implies.

        Normally unnecessary — a crash mid-rollout reboots back into the
        right configuration through the kernel's boot records (both
        versions have their own records, and each endpoint's record
        snapshots whichever version was bound at crash time).  This is a
        belt for worlds where an endpoint lost its handler for another
        reason (e.g. a re-install refused under memory pressure)."""
        for target in self.targets:
            if self.state == PROMOTED:
                want = target.new_id
            elif self.state == CANARY and target.canary:
                want = target.new_id
            else:
                want = target.old_id
            if self.kernel.ash_system.has(want):
                self._swap(target.ep, want)

    # -- introspection --------------------------------------------------
    def snapshot(self) -> dict:
        """Deterministic summary for observables / bench documents."""
        return {
            "name": self.name,
            "state": self.state,
            "flows": len(self.targets),
            "canary_flows": self.canary_flows(),
            "swaps": self.swaps,
            "guard_trips": [[reason, detail]
                            for reason, detail in self.guard_trips],
            "golden_rounds": {key: len(obs)
                              for key, obs in sorted(self.golden.items())},
            "canary_rounds": {key: len(obs)
                              for key, obs in sorted(self.observed.items())},
        }
