"""The ASH system: download, safety, binding and invocation.

Section II: "Operationally, ASH construction and integration has three
steps": the user writes routines against the VCODE conventions; the ASH
system "post-processes this object code, ensuring that the user handler
is safe through a combination of static and runtime checks, and
downloads it into the operating system, handing back an identifier";
the identifier is then bound to a demultiplexor, and "when the
demultiplexor accepts a packet for an application, the ASH will be
invoked".

Invocation (Section III):

* the application's addressing context is installed
  (``ash_invoke_us``) — here, the entry's *allowed regions* play the
  role of the application's pinned pages,
* the abort timer is armed ("aborting any ASH that attempts to use two
  clock ticks worth of time or more"; arming/clearing ≈ 1 µs each),
* the handler runs with its persistent register file, the message
  mapped into its allowed regions, and the trusted-call environment,
* a :class:`~repro.errors.VmFault` is an **involuntary abort**: the
  cycles burnt are charged, the message falls back to the normal path,
  and (per the paper) the application may no longer be consistent —
  the fault is recorded, not hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional, TYPE_CHECKING

from ..errors import AllocationError, SandboxViolation, VcodeError, VmFault
from ..hw.calibration import PRIO_INTERRUPT
from ..pipes.compiler import IntegratedPipeline
from ..sandbox.budget import (
    BudgetAccount,
    BudgetPolicy,
    budget_cycles,
    straightline_cycle_bound,
)
from ..sandbox.rewriter import SandboxPolicy, Sandboxer, SandboxReport
from ..sandbox.verifier import has_loops
from ..vcode.isa import NUM_REGS, Program
from .handler import ASH_CONSUMED
from .interface import build_handler_env

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.nic.base import RxDescriptor
    from ..kernel.kernel import Endpoint, Kernel

__all__ = ["AshEntry", "AshSystem"]


@dataclass
class AshEntry:
    """One downloaded handler."""

    ash_id: int
    program: Program
    allowed: Optional[list[tuple[int, int]]]   #: None = unsafe (trusted) ASH
    user_word: int
    report: Optional[SandboxReport]
    sandboxed: bool
    budget: BudgetPolicy = BudgetPolicy.TIMER
    #: generation number within this handler's upgrade lineage (1 = the
    #: original install; install_version() grows it)
    version: int = 1
    #: root ash_id of the upgrade lineage (the first-ever version's id);
    #: two entries with the same lineage are versions of one handler
    lineage: Optional[int] = None
    #: static cycle bound proved at download time (STATIC_ESTIMATE only)
    static_bound: Optional[int] = None
    regs: list[int] = field(default_factory=lambda: [0] * NUM_REGS)
    invocations: int = 0
    consumed: int = 0
    voluntary_aborts: int = 0
    involuntary_aborts: int = 0
    #: per-invocation cycle accounting against the abort budget
    account: Optional[BudgetAccount] = None

    def stats(self) -> dict:
        out = {
            "name": self.program.name,
            "version": self.version,
            "lineage": self.lineage,
            "sandboxed": self.sandboxed,
            "budget_policy": self.budget.value,
            "static_bound": self.static_bound,
            "invocations": self.invocations,
            "consumed": self.consumed,
            "voluntary_aborts": self.voluntary_aborts,
            "involuntary_aborts": self.involuntary_aborts,
        }
        if self.account is not None:
            out["cycles"] = self.account.snapshot()
        if self.report is not None:
            out["sandbox"] = {
                "original_insns": self.report.original_insns,
                "final_insns": self.report.final_insns,
                "added_insns": self.report.added_insns,
                "checks_inserted": self.report.checks_inserted,
                "jumps_guarded": self.report.jumps_guarded,
                "budget_probes": self.report.budget_probes,
            }
        return out


class AshSystem:
    """Per-kernel registry and runtime for downloaded handlers."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.cal = kernel.cal
        self.sandboxer = Sandboxer()
        self._entries: dict[int, AshEntry] = {}
        self._ilps: dict[int, IntegratedPipeline] = {}
        self._next_ash = 1
        self._next_ilp = 1
        #: durable half of each download: the pre-sandbox source and its
        #: policy, i.e. what the *application* holds.  A kernel reboot
        #: re-verifies and re-downloads from here — the installed
        #: (sandboxed) code and persistent registers are kernel-volatile
        self._boot_records: dict[int, dict] = {}
        self._saved_ilps: dict[int, IntegratedPipeline] = {}
        #: handler installs refused/re-installs failed under injected
        #: memory pressure
        self.install_failures = 0
        #: fault-injection seam: a FaultPlane installs an
        #: AshAbortInjector here (see repro.sim.faults); when it fires,
        #: the invocation runs under a forced (tiny) cycle budget
        self.fault_injector = None

    # -- download -----------------------------------------------------------
    def download(
        self,
        program: Program,
        allowed_regions: Optional[list[tuple[int, int]]],
        user_word: int = 0,
        policy: Optional[SandboxPolicy] = None,
        sandbox: bool = True,
        version: int = 1,
        lineage: Optional[int] = None,
    ) -> int:
        """Import a handler; returns its identifier.

        ``sandbox=False`` installs the code *unsafe* — the paper's
        baseline for measuring sandboxing overhead ("we report
        experimental results both with and without the cost of
        sandboxing").  Unsafe handlers still run under the abort timer.

        Installing a handler allocates kernel memory for its rewritten
        code; under injected memory pressure (the ``ash_install`` site)
        the download is refused with
        :class:`~repro.errors.AllocationError` and the caller must
        degrade (e.g. fall back to an upcall handler).
        """
        if self.kernel.node.memory.pressure_gate("ash_install"):
            self.install_failures += 1
            raise AllocationError("ash_install", program.name)
        source = program  # pre-sandbox: the durable, re-verifiable form
        ash_id = self._next_ash
        self._next_ash += 1
        entry = self._build_entry(
            ash_id, program, allowed_regions, user_word, policy, sandbox
        )
        entry.version = version
        entry.lineage = lineage if lineage is not None else ash_id
        self._entries[ash_id] = entry
        self._boot_records[ash_id] = {
            "program": source,
            "allowed": (list(allowed_regions)
                        if allowed_regions is not None else None),
            "user_word": user_word,
            "policy": policy,
            "sandbox": sandbox,
            "version": entry.version,
            "lineage": entry.lineage,
        }
        tel = self.kernel.node.telemetry
        if tel.enabled:
            tel.counter("ash.downloads").inc()
            if entry.report is not None:
                tel.gauge("ash.sandbox_added_insns",
                          handler=entry.program.name).set(
                              entry.report.added_insns)
        return ash_id

    def install_version(
        self,
        old_id: int,
        program: Program,
        allowed_regions: Optional[list[tuple[int, int]]] = None,
        user_word: Optional[int] = None,
        policy: Optional[SandboxPolicy] = None,
        sandbox: Optional[bool] = None,
    ) -> int:
        """Download a new *version* of an installed handler.

        The new code goes through the full verify + sandbox pipeline
        exactly like a first install (an upgrade must not weaken the
        safety argument) and receives its own id with
        ``version = old.version + 1`` in the same lineage.  Old and new
        versions **coexist**: endpoints still bound to ``old_id`` keep
        running the old code until something rebinds them, which is what
        makes staged canary rollout (and atomic rollback) possible.
        Region/word/policy defaults are inherited from the old version's
        boot record.
        """
        old = self.entry(old_id)
        boot = self._boot_records[old_id]
        new_id = self.download(
            program,
            (list(allowed_regions) if allowed_regions is not None
             else boot["allowed"]),
            user_word=(user_word if user_word is not None
                       else boot["user_word"]),
            policy=policy if policy is not None else boot["policy"],
            sandbox=sandbox if sandbox is not None else boot["sandbox"],
            version=old.version + 1,
            lineage=old.lineage if old.lineage is not None else old_id,
        )
        tel = self.kernel.node.telemetry
        if tel.enabled:
            tel.counter("liveops.installs",
                        handler=program.name).inc()
        self.kernel.node.trace(
            "ash.install_version",
            f"{program.name}: v{old.version} -> v{old.version + 1} "
            f"(id {old_id} -> {new_id})",
        )
        return new_id

    def versions(self, lineage: int) -> list[int]:
        """Installed ids in one upgrade lineage, oldest version first."""
        ids = [ash_id for ash_id, e in self._entries.items()
               if e.lineage == lineage]
        return sorted(ids, key=lambda i: (self._entries[i].version, i))

    def _build_entry(
        self,
        ash_id: int,
        program: Program,
        allowed_regions: Optional[list[tuple[int, int]]],
        user_word: int,
        policy: Optional[SandboxPolicy],
        sandbox: bool,
    ) -> AshEntry:
        """The verify + sandbox pipeline shared by first download and
        post-crash re-install (identical checks both times: a reboot
        must not weaken the safety argument)."""
        budget = policy.budget if policy is not None else BudgetPolicy.TIMER
        static_bound = None
        if budget is BudgetPolicy.STATIC_ESTIMATE:
            # "For ASHs which contain no loops ... we can simply
            # overestimate the effects of straight-line code": prove the
            # bound now, skip the per-invocation timer entirely.
            if has_loops(program):
                raise SandboxViolation(
                    f"{program.name}: static budget estimation requires "
                    f"loop-free code"
                )
            static_bound = straightline_cycle_bound(program, self.cal)
            if static_bound > budget_cycles(self.cal):
                raise SandboxViolation(
                    f"{program.name}: static bound {static_bound} exceeds "
                    f"the {budget_cycles(self.cal)}-cycle budget"
                )
        report = None
        if sandbox:
            sandboxer = Sandboxer(policy) if policy is not None else self.sandboxer
            program, report = sandboxer.sandbox(program)
        return AshEntry(
            ash_id=ash_id,
            program=program,
            allowed=(list(allowed_regions)
                     if allowed_regions is not None else None),
            user_word=user_word,
            report=report,
            sandboxed=sandbox,
            budget=budget,
            static_bound=static_bound,
            account=BudgetAccount(budget=budget_cycles(self.cal)),
        )

    def entry(self, ash_id: int) -> AshEntry:
        if ash_id not in self._entries:
            raise VcodeError(f"no ASH with id {ash_id}")
        return self._entries[ash_id]

    def has(self, ash_id: int) -> bool:
        return ash_id in self._entries

    def remove(self, ash_id: int) -> None:
        self._entries.pop(ash_id, None)
        self._boot_records.pop(ash_id, None)

    # -- crash / restart -----------------------------------------------------
    def crash(self) -> None:
        """Kernel-volatile teardown: installed (sandboxed) handlers,
        their persistent registers, and the compiled pipe-list registry
        all die with the kernel.  The boot records — pre-sandbox source
        and policy, what the application holds — survive, as do the
        pipe-list *sources* (modelled by stashing the compiled forms for
        deterministic re-registration at reboot under the same ids)."""
        self._entries.clear()
        self._saved_ilps = dict(self._ilps)
        self._ilps.clear()

    def reboot(self) -> tuple[set[int], int]:
        """Re-verify and re-download every recorded handler through the
        sandbox, keeping ids stable (endpoints re-bind by id); returns
        ``(reinstalled ids, install failures)``.  A re-install refused
        under memory pressure leaves that handler out — its endpoint
        comes back degraded to the upcall path."""
        self._ilps.update(self._saved_ilps)
        self._saved_ilps = {}
        reinstalled: set[int] = set()
        failures = 0
        memory = self.kernel.node.memory
        tel = self.kernel.node.telemetry
        for ash_id in sorted(self._boot_records):
            boot = self._boot_records[ash_id]
            if memory.pressure_gate("ash_install"):
                self.install_failures += 1
                failures += 1
                continue
            entry = self._build_entry(
                ash_id, boot["program"], boot["allowed"],
                boot["user_word"], boot["policy"], boot["sandbox"],
            )
            entry.version = boot.get("version", 1)
            entry.lineage = boot.get("lineage", ash_id)
            self._entries[ash_id] = entry
            reinstalled.add(ash_id)
            if tel.enabled:
                tel.counter("ash.downloads").inc()
        return reinstalled, failures

    # -- DILP registry ------------------------------------------------------
    def register_ilp(self, pipeline: IntegratedPipeline) -> int:
        """Install a compiled pipe list; returns the handle handlers
        pass to ``ash_dilp`` (the ``ilp`` of the paper's Fig. 1)."""
        ilp_id = self._next_ilp
        self._next_ilp += 1
        self._ilps[ilp_id] = pipeline
        # DILP runs report their cycles/fusion savings to this node
        pipeline.telemetry = self.kernel.node.telemetry
        return ilp_id

    def get_ilp(self, ilp_id: int) -> IntegratedPipeline:
        if ilp_id not in self._ilps:
            raise VcodeError(f"no compiled pipe list with id {ilp_id}")
        return self._ilps[ilp_id]

    # -- binding -----------------------------------------------------------
    def bind(self, ep: "Endpoint", ash_id: Optional[int]) -> None:
        """Associate the ASH with a demultiplexor (or unbind with None)."""
        if ash_id is not None:
            self.entry(ash_id)  # validate
        ep.ash_id = ash_id

    # -- invocation ----------------------------------------------------------
    def invoke(self, ep: "Endpoint", desc: "RxDescriptor") -> Generator:
        """Run the endpoint's ASH against a received message.

        Returns True when the handler consumed the message; False on a
        voluntary pass or an involuntary abort (the kernel then runs
        the normal delivery path).
        """
        entry = self.entry(ep.ash_id)
        entry.invocations += 1
        kernel = self.kernel
        # the handler runs on whichever core RSS steered the frame to
        cpu = kernel.node.cpus[desc.core]
        cal = self.cal
        tel = kernel.node.telemetry
        span = desc.span
        handler_name = entry.program.name

        # install addressing context + user stack; arm the abort timer
        # unless the budget was proven statically or is enforced by
        # backedge checks ("Systems with timers can be exploited to
        # remove all software checks" — and vice versa)
        invoke_us = cal.ash_invoke_us
        uses_timer = entry.budget is BudgetPolicy.TIMER
        if uses_timer:
            invoke_us += cal.ash_timer_setup_us
        yield from cpu.exec_us(invoke_us, PRIO_INTERRUPT)
        if kernel.crashed:
            # crash landed during sandbox entry: the entry table (and
            # every registered pipe list) is gone — do not run
            return False
        if span is not None:
            span.stage("sandbox_entry", kernel.engine.now)
        if tel.enabled:
            tel.counter("ash.invocations", handler=handler_name).inc()

        # the static regions and, apart from them, the one region that
        # moves per message: the JIT specializes on the former only
        allowed = entry.allowed
        msg_region = None
        if allowed is not None:
            msg_region = (desc.addr, desc.dma_span)
            allowed = allowed + [msg_region]

        pending: list = []
        env = build_handler_env(kernel, desc, pending, allowed, mode="ash", ep=ep)
        budget = budget_cycles(cal)
        injector = self.fault_injector
        if injector is not None:
            forced = injector.consider()
            if forced is not None:
                budget = forced
        tenants = kernel.tenants
        if tenants is not None:
            forced = tenants.consider_abort(ep)
            if forced is not None:
                budget = forced
        # the abort timer is wall-clock: a contention burst landing
        # inside the handler's window eats its cycle budget, possibly
        # down to a forced involuntary abort (which then degrades in
        # order through the delivery hierarchy, zero-loss)
        contention = cpu.contention
        if contention is not None and uses_timer:
            penalty = contention.budget_penalty()
            if penalty:
                budget = max(1, budget - penalty)
        try:
            result = kernel.vm.run(
                entry.program,
                args=(desc.addr, desc.length, entry.user_word),
                regs=entry.regs,
                env=env,
                cycle_budget=budget,
                allowed=entry.allowed,
                msg_region=msg_region,
            )
        except VmFault as exc:
            entry.involuntary_aborts += 1
            burnt = getattr(exc, "cycles", 0)
            entry.account.charge(burnt)
            if tenants is not None:
                tenants.note_abort(ep, burnt)
            yield from cpu.exec(burnt, PRIO_INTERRUPT)
            if uses_timer:
                yield from cpu.exec_us(cal.ash_timer_clear_us, PRIO_INTERRUPT)
            kernel.node.trace("ash.involuntary_abort",
                              f"{entry.program.name}: {exc}")
            if tel.enabled:
                tel.counter("ash.involuntary_aborts",
                            handler=handler_name).inc()
                tel.counter("ash.cycles_total", handler=handler_name).inc(burnt)
                now = kernel.engine.now
                tel.flight.record("ash_abort", now, handler=handler_name,
                                  cycles=burnt, fault=type(exc).__name__)
                tel.flight.dump("ash_involuntary_abort", now,
                                handler=handler_name)
            # tell the kernel the fall-through is abort recovery, not a
            # voluntary pass, so it can count the degradation — unless
            # the kernel crashed under the charges above: that message
            # dies with it, it does not degrade
            desc.ash_aborted = not kernel.crashed
            return False

        yield from kernel.charge_with_sends(result, pending, PRIO_INTERRUPT,
                                            cpu=cpu)
        if uses_timer:
            yield from cpu.exec_us(cal.ash_timer_clear_us, PRIO_INTERRUPT)
        remaining = entry.account.charge(result.cycles)
        if tenants is not None:
            tenants.note_success(ep, result.cycles)
        if span is not None:
            span.stage("ash_run", kernel.engine.now)
        if tel.enabled:
            self._record_run(tel, entry, handler_name, result, remaining)
        if result.value == ASH_CONSUMED:
            entry.consumed += 1
            return True
        entry.voluntary_aborts += 1
        if tel.enabled:
            tel.counter("ash.voluntary_aborts", handler=handler_name).inc()
        return False

    def _record_run(self, tel, entry: AshEntry, handler_name: str,
                    result, remaining: int) -> None:
        """Per-invocation cycle/budget metrics for one completed run."""
        from ..telemetry import CYCLE_BUCKETS

        tel.counter("ash.cycles_total", handler=handler_name).inc(result.cycles)
        tel.histogram("ash.cycles", buckets=CYCLE_BUCKETS,
                      handler=handler_name).observe(result.cycles)
        tel.gauge("ash.budget_remaining_cycles",
                  handler=handler_name).set(remaining)
        report = entry.report
        if report is not None and report.final_insns:
            # estimated share of this run spent in sandbox checks (the
            # inserted instructions, pro-rated over the dynamic mix)
            overhead = result.cycles * report.added_insns // report.final_insns
            tel.counter("ash.sandbox_overhead_cycles_est",
                        handler=handler_name).inc(overhead)

    # -- introspection ------------------------------------------------------
    def stats(self) -> dict:
        """Deterministic per-handler accounting for ``kernel.stats()``."""
        return {
            "handlers": [
                self._entries[ash_id].stats()
                for ash_id in sorted(self._entries)
            ],
            "ilps": sorted(self._ilps),
            "install_failures": self.install_failures,
        }
