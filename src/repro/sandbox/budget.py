"""Execution-time bounding strategies for handlers.

Section III-B3 describes three approaches, all implemented here:

1. **Static estimation** for loop-free handlers: "we can simply
   overestimate the effects of straight-line code to create overly
   pessimistic, but simple to implement estimations of execution time."
2. **Back-edge software checks** "at all backward jump locations" for
   handlers with loops (inserted by the rewriter as ``chkbudget``).
3. **Timers**: "Our prototype uses the third approach, aborting any ASH
   that attempts to use two clock ticks worth of time or more."  Timer
   setup and teardown cost about one microsecond each.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import SandboxViolation
from ..hw.calibration import Calibration
from ..vcode.isa import Program, insn_cost
from .verifier import has_loops

__all__ = [
    "BudgetPolicy",
    "BudgetAccount",
    "straightline_cycle_bound",
    "static_cycle_bound",
    "budget_cycles",
    "forced_abort_budget",
    "FORCED_ABORT_CYCLES",
]


class BudgetPolicy(enum.Enum):
    """How runtime is bounded for a downloaded handler."""

    #: loop-free only: prove a static bound at download time, no runtime cost
    STATIC_ESTIMATE = "static"
    #: insert software checks at backward branches
    BACKEDGE_CHECKS = "backedge"
    #: arm a hardware timer around the invocation (the paper's prototype)
    TIMER = "timer"


def straightline_cycle_bound(program: Program, cal: Calibration) -> int:
    """Pessimistic cycle bound for a loop-free program.

    Every instruction is assumed executed (no branch is taken early-out)
    and every load is assumed to miss — deliberately "overly
    pessimistic, but simple".
    """
    bound = 0
    for insn in program.insns:
        bound += insn_cost(insn, cal)
        if insn.op in ("ld8", "ld16", "ld32"):
            bound += cal.miss_penalty_cycles
    return bound


def static_cycle_bound(program: Program, cal: Calibration) -> int:
    """The download-time proof of a ``STATIC_ESTIMATE`` handler: refuse
    code with a loop (:class:`~repro.errors.SandboxViolation`), else
    return its :func:`straightline_cycle_bound`, which each caller holds
    to its own limit."""
    if has_loops(program):
        raise SandboxViolation(
            f"{program.name}: static budget estimation requires "
            f"loop-free code"
        )
    return straightline_cycle_bound(program, cal)


def budget_cycles(cal: Calibration) -> int:
    """The timer budget: two clock ticks, expressed in cycles."""
    return cal.us_to_cycles(cal.ash_budget_ticks * cal.tick_us)


#: default cycle budget for an injected mid-handler abort: large enough
#: that the handler demonstrably *starts* executing, small enough that
#: any real handler trips BudgetExceeded partway through
FORCED_ABORT_CYCLES = 8


def forced_abort_budget(cal: Calibration) -> int:
    """A deliberately tiny cycle budget used by fault injection to force
    an involuntary abort *mid-handler* — the paper's two-clock-tick timer
    expiry, made to fire early and deterministically.  Clamped strictly
    below the real budget so the abort accounting is always the
    involuntary-abort path."""
    return max(1, min(FORCED_ABORT_CYCLES, budget_cycles(cal) - 1))


@dataclass
class BudgetAccount:
    """Runtime cycle accounting for one downloaded handler.

    Tracks every invocation's cycles against the abort budget so the
    telemetry layer (and ``kernel.stats()``) can report how close each
    handler runs to its bound — the tunability knob sPIN-style systems
    expose per handler.
    """

    budget: int                  #: the per-invocation cycle budget
    invocations: int = 0
    cycles_total: int = 0
    cycles_last: int = 0
    cycles_max: int = 0
    overruns: int = 0            #: invocations that hit/exceeded the budget

    def charge(self, cycles: int) -> int:
        """Record one invocation; returns the budget remaining after it."""
        self.invocations += 1
        self.cycles_last = cycles
        self.cycles_total += cycles
        if cycles > self.cycles_max:
            self.cycles_max = cycles
        if cycles >= self.budget:
            self.overruns += 1
        return self.budget - cycles

    @property
    def remaining_last(self) -> int:
        return self.budget - self.cycles_last

    def snapshot(self) -> dict:
        return {
            "budget_cycles": self.budget,
            "invocations": self.invocations,
            "cycles_total": self.cycles_total,
            "cycles_last": self.cycles_last,
            "cycles_max": self.cycles_max,
            "remaining_last": self.remaining_last,
            "overruns": self.overruns,
        }
