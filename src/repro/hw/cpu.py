"""The CPU: a single execution resource with cycle accounting.

Everything that consumes processor time — kernel interrupt handlers,
ASH execution, protocol library code, application computation — runs by
holding the CPU and advancing virtual time with
:meth:`Cpu.exec`.  The CPU is a priority lock: device interrupts
(priority 0) get the processor ahead of kernel work (5) ahead of user
code (10).  The holder is preempted only at *charge-quantum* boundaries
(default 200 cycles = 5 µs), modelling interrupt delivery at instruction
granularity without per-instruction event overhead.

A charge is one *hold*: one timer for all of it, however many quanta
long.  Nobody wakes at the boundaries to look for waiters; instead the
lock (and, for gated user computation, the process gate) tells the open
hold when someone the holder yields to shows up, and the hold is cut
back to its next boundary — see :meth:`Cpu.cut`.

``exec`` is a generator: call it as ``yield from cpu.exec(cycles)``
from inside a simulation process.  It asks the lock every time but
yields the grant only when it has to wait for it — or for a sibling due
at the same tick (:meth:`repro.sim.engine.Engine.passes`): an
uncontended charge is one timer and one wake-up, nothing else.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..sim.engine import Engine, Event, Timeout
from ..sim.queues import Gate, PriorityLock
from ..sim.units import CYCLE_PS
from .calibration import Calibration, PRIO_USER

__all__ = ["Cpu", "YIELD_TO_ANY"]

#: ``yield_below`` bound of a hold that gives way to every waiter,
#: whatever its priority (gated user computation)
YIELD_TO_ANY = float("inf")


class Cpu:
    """One processor with a cycle ledger."""

    def __init__(self, engine: Engine, cal: Calibration, name: str = "cpu"):
        self.engine = engine
        self.cal = cal
        self.name = name
        self.lock = PriorityLock(engine, f"{name}.lock")
        self._busy_ticks = 0
        self._cycles_charged = 0
        #: fault-injection seam: a FaultPlane installs a CpuContention
        #: injector here (see repro.sim.faults); None = no one else is
        #: competing for the processor
        self.contention = None
        #: cycles stolen by injected contention bursts (foreign work:
        #: held the CPU but advanced nobody's charge)
        self.contention_cycles = 0
        self._quantum = cal.exec_quantum_cycles
        self._quantum_ticks = self._quantum * CYCLE_PS
        # -- the open hold (at most one: the lock serialises holders) --
        self._timer: Optional[Timeout] = None
        self._start = 0          # tick the hold began
        self._end_at = 0         # tick its timer is set for
        self._gate: Optional[Gate] = None
        #: waiters more urgent than this cut the open hold (read by the
        #: lock; only meaningful while the hold is registered there)
        self.yield_below = 0

    # -- the hold primitive -------------------------------------------------
    def begin_hold(self, cycles: int, yield_below: float,
                   gate: Optional[Gate] = None) -> Timeout:
        """Open a hold of up to ``cycles`` on the CPU the caller has just
        acquired; returns the timer to wait on.  Follow with :meth:`end_hold`.

        The timer covers the whole charge and the hold is registered on
        the lock (and ``gate``) so :meth:`cut` can shorten it — unless it
        fits in one quantum anyway, or someone the holder yields to is
        queued already (or ``gate`` is shut), in which case the holder
        takes its one quantum and then gives way.
        """
        engine = self.engine
        self._start = engine._now
        if cycles > self._quantum:
            waiters = self.lock._waiters
            if (waiters and waiters[0][0] < yield_below) or (
                gate is not None and not gate._open
            ):
                cycles = self._quantum
            else:
                self.yield_below = yield_below
                self._end_at = engine._now + cycles * CYCLE_PS
                self.lock.hold = self
                if gate is not None:
                    self._gate = gate
                    gate.hold = self
        self._timer = timer = Timeout(engine, cycles * CYCLE_PS)
        return timer

    def cut(self) -> None:
        """Cut the open hold back to its next quantum boundary at or
        after now (never past its end, never under one quantum): the
        tick at which a holder waking every quantum would have found
        what the caller just did — queued a waiter, shut the gate.
        """
        quantum = self._quantum_ticks
        start = self._start
        at = start + (-((start - self.engine._now) // quantum) or 1) * quantum
        # (once the timer has fired, now == _end_at: nothing left to cut)
        if at < self._end_at:
            self._end_at = at
            self._timer.reschedule(at)

    def end_hold(self) -> int:
        """Close the hold: settle the ledger from elapsed time and return
        the cycles charged.  A holder thrown out before its timer fired
        (an ``Interrupt``) is charged the whole quanta it completed, and
        the timer is withdrawn.
        """
        timer = self._timer
        self._timer = None
        lock = self.lock
        if lock.hold is not None:
            lock.hold = None
            gate = self._gate
            if gate is not None:
                gate.hold = self._gate = None
        elapsed = self.engine._now - self._start
        if not timer._state:
            timer.cancel()
            elapsed -= elapsed % self._quantum_ticks
        self._busy_ticks += elapsed
        cycles = elapsed // CYCLE_PS
        self._cycles_charged += cycles
        return cycles

    # -- core execution primitive -----------------------------------------
    def exec(
        self,
        cycles: int,
        prio: int = PRIO_USER,
    ) -> Generator[Event, None, None]:
        """Hold the CPU for ``cycles`` cycles at priority ``prio``.

        The charge is one hold; when a *more urgent* waiter queues, the
        hold is cut to its next quantum boundary and the CPU yielded
        there (then re-acquired), so an interrupt arriving
        mid-computation is served within one quantum.
        """
        cycles = int(cycles)
        if cycles < 0:
            raise ValueError(f"negative cycle charge: {cycles}")
        if cycles == 0:
            return
        lock = self.lock
        waiters = lock._waiters
        passes = self.engine.passes
        granted = lock.acquire(prio)
        if not passes(granted):
            yield granted
        try:
            injector = self.contention
            if injector is not None:
                stolen = injector.steal()
                if stolen:
                    # foreign work holds the CPU first: wall-clock
                    # stretches, but none of it counts toward ``cycles``
                    yield Timeout(self.engine, stolen * CYCLE_PS)
                    self.contention_cycles += stolen
            while True:
                timer = self.begin_hold(cycles, prio)
                try:
                    yield timer
                finally:
                    cycles -= self.end_hold()
                if cycles <= 0:
                    break
                if waiters and waiters[0][0] < prio:
                    lock.release()
                    granted = lock.acquire(prio)
                    if not passes(granted):
                        yield granted
        finally:
            lock.release()

    # -- convenience wrappers -------------------------------------------------
    def exec_us(
        self, usec: float, prio: int = PRIO_USER
    ) -> Generator[Event, None, None]:
        """Hold the CPU for a duration expressed in microseconds (a
        plain function handing back :meth:`exec`'s generator: a resume
        crosses no frame of its own)."""
        return self.exec(self.cal.us_to_cycles(usec), prio)

    # -- the ledger -------------------------------------------------------------
    def _open_quanta_ticks(self) -> int:
        """Whole quanta the open hold has completed but not yet settled
        (the ledger is written when the hold ends; readers in between
        see what a holder waking every quantum would have written)."""
        if self._timer is None:
            return 0
        elapsed = self.engine._now - self._start
        return elapsed - elapsed % self._quantum_ticks

    @property
    def busy_ticks(self) -> int:
        """Total held-and-computing time, in ticks."""
        return self._busy_ticks + self._open_quanta_ticks()

    @property
    def cycles_charged(self) -> int:
        return self._cycles_charged + self._open_quanta_ticks() // CYCLE_PS

    @property
    def busy_us(self) -> float:
        return self.busy_ticks / 1_000_000
