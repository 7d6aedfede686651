"""The CPU: a single execution resource with cycle accounting.

Everything that consumes processor time — kernel interrupt handlers,
ASH execution, protocol library code, application computation — runs by
holding the CPU and advancing virtual time with :meth:`Cpu.run` (one
segment: :meth:`Cpu.exec`, ``Process.compute``).  The CPU is a priority
lock: device interrupts (priority 0) get the processor ahead of kernel
work (5) ahead of user code (10).  The holder is preempted only at
*charge-quantum* boundaries (default 200 cycles = 5 µs), modelling
interrupt delivery at instruction granularity without per-instruction
event overhead.

A run of charges is one *hold*: one timer for all of it, however many
quanta long and however many back-to-back segments.  Nobody wakes at the
quantum boundaries to look for waiters; instead the lock (and, for gated
user computation, the process gate) tells the open hold when someone the
holder yields to shows up, and the hold is cut back to its next boundary
— see :meth:`Cpu.cut`.  Nobody wakes at a segment's end either when no
one could tell: the engine hands the due timer to
:meth:`Cpu.continue_hold`, which re-arms it for the next segment on the
same tick, and the holder wakes only where today's path would have
found something to do there.  Nor does a waiter wake only to open its
hold when the CPU is handed to it: it queues with its run, and the
holder's release has the engine open that run's hold where the waiter's
wake-up would have run (:meth:`Cpu.grant`), so the waiter sleeps on to
the end of its charge.

A run keeps its state in one :class:`Run` object: the lock's plan for a
queued charge, the one argument of :meth:`Cpu.begin_hold`, and what
:meth:`Cpu.continue_hold` moves on to the next segment.

``exec`` and ``run`` are generators: call them as ``yield from
cpu.exec(cycles)`` from inside a simulation process.  They ask the lock
every time but yield the grant only when they have to wait for it — or
for a sibling due at the same tick
(:meth:`repro.sim.engine.Engine.passes`): an uncontended charge is one
timer and one wake-up, nothing else.
"""

from __future__ import annotations

import operator
from typing import Generator, Iterable, Optional, TYPE_CHECKING

from ..sim.engine import Engine, Event, Timeout
from ..sim.queues import PriorityLock
from ..sim.units import CYCLE_PS
from .calibration import Calibration, PRIO_USER

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.process import Process

__all__ = ["Cpu", "YIELD_TO_ANY", "Segment"]

#: ``yield_below`` bound of a hold that gives way to every waiter,
#: whatever its priority (gated user computation)
YIELD_TO_ANY = float("inf")

#: one charge of a run: ``(cycles, prio, gated)``.  A gated segment runs
#: only while its process is scheduled: at user priority it is
#: ``Process.compute`` (it waits for the gate before every pass and gives
#: way to every waiter and to the gate shutting); at any other it is a
#: kernel crossing, which waits for the gate once, on entry, and then
#: runs as ``exec`` does
Segment = tuple[int, int, bool]


#: what a run keeps of its segments: those that charge anything (a
#: zero-cycle segment is no charge at all: no gate, no lock)
_CHARGES = operator.itemgetter(0)


class Run:
    """One :meth:`Cpu.run` call: the segment being charged (``seg``, of
    which ``cycles`` are left), the one lined up behind it (``nxt``,
    None at the last), the iterator over the ones after that (``rest``)
    and the process whose gate gated ones wait on (``proc``).

    It is the plan a charge that queues for the CPU leaves with its
    request (:class:`PriorityLock` offers the grant as ``grant(ev)``),
    what :meth:`Cpu.begin_hold` opens a hold for, and what
    :meth:`Cpu.continue_hold` moves on.  (No ``__init__``: ``Cpu.run``
    fills it in, without a Python frame per charge.)
    """

    __slots__ = ("cpu", "seg", "cycles", "nxt", "rest", "proc")

    def grant(self, ev: Event) -> bool:
        return self.cpu.grant(ev, self)


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
        self._end_at = 0         # tick its timer is set for (if registered)
        self._gate = None        # the gate it is registered on
        #: the run it charges, while its timer may carry it on (names
        #: this CPU as its hold)
        self._run: Optional[Run] = None
        #: waiters more urgent than this cut the open hold (read by the
        #: lock; only meaningful while the hold is registered there)
        self.yield_below = 0

    # -- the hold primitive -------------------------------------------------
    def begin_hold(self, run: "Run") -> Timeout:
        """Open a hold of up to ``run.cycles`` of ``run.seg`` on the CPU
        the caller has just acquired; returns the timer to wait on.
        Follow with :meth:`end_hold`.

        The timer covers the whole charge and the hold is registered on
        the lock (and, for user work, the process gate) so :meth:`cut`
        can shorten it — unless it fits in one quantum anyway, or someone
        the holder yields to is queued already (or the gate is shut), in
        which case the holder takes its one quantum and then gives way.
        While a segment is lined up behind (``run.nxt``) and the timer
        runs to the end of this one (and is not cut), it names this CPU
        as its hold, so that :meth:`continue_hold` can carry the hold on
        into the next segment: that moves ``run`` on and re-arms the same
        timer.
        """
        engine = self.engine
        self._start = now = engine._now
        seg = run.seg
        cycles = run.cycles
        carry = run.nxt is not None
        if cycles > self._quantum:
            prio = seg[1]
            gate = None
            if seg[2] and prio == PRIO_USER:
                gate = run.proc.gate
                prio = YIELD_TO_ANY
            waiters = self.lock._waiters
            if (waiters and waiters[0][0] < prio) or (
                gate is not None and not gate._open
            ):
                cycles = self._quantum
                carry = False   # it gives way at the end of that quantum
            else:
                self._end_at = now + cycles * CYCLE_PS
                self.yield_below = prio
                self.lock.hold = self
                if gate is not None:
                    self._gate = gate
                    gate.hold = self
        timer = self._timer
        if timer is None:
            self._timer = timer = Timeout(engine, cycles * CYCLE_PS)
            if not carry:
                return timer
        else:
            # carried on from the segment before: the holder, when it
            # wakes, finds out where it is from ``run``
            timer.delay = ticks = cycles * CYCLE_PS
            timer._entry = engine._schedule(now + ticks, timer, None)
            if not carry:
                timer.hold = None
                return timer
        self._run = run
        timer.hold = self
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
            timer = self._timer
            timer.hold = None   # it ends short of its segment: the holder wakes
            timer.reschedule(at)

    def continue_hold(self) -> bool:
        """The open hold's timer is due and a segment is lined up behind
        it: carry the hold on into that segment, re-arming the same timer
        on this tick without waking the holder, if nobody could tell.

        That is the case only when all of these hold — otherwise the
        holder wakes and takes the next segment from the top, as it
        would: the timer ran to the end of its segment (it was neither
        cut nor clipped to a quantum, or it would not name this CPU);
        nothing else is due at this tick
        (:meth:`Engine.alone`); nobody waits for the lock; the next
        segment's gate is open, if it waits on one; and no contention
        injector is installed (it draws a burst at each segment's
        start).  The holder would then settle the segment, release the
        lock, pass through the gate and the lock again and open the next
        hold, all on this tick with nothing in between: this does the
        same, bar the wake-up.  True when it did.

        Where the tie alone stands in the way, the holder's wake-up is a
        queue hop behind a same-tick sibling and is booked as one
        (``Engine._book_requeue``): which ticks coincide is the
        schedule's accident, so ``fired`` does not say it.
        """
        run = self._run
        nxt = run.nxt
        engine = self.engine
        if (self.lock._waiters or self.contention is not None
                or nxt[0] < 0 or (nxt[2] and not run.proc.gate._open)):
            return False
        if not engine.alone():
            engine._book_requeue()
            return False
        timer = self._timer
        self.end_hold()
        self._timer = timer
        run.seg = nxt
        run.cycles = nxt[0]
        run.nxt = next(run.rest, None)
        self.begin_hold(run)
        return True

    def grant(self, ev: Event, run: "Run") -> bool:
        """The lock is being handed to the waiter that queued ``ev`` for
        ``run``: let the engine open the run's hold where the waiter's
        wake-up would have run, with the waiter asleep until the hold's
        timer (:meth:`SimProcess.skip_hop`), if nobody could tell.  The
        waiter then wakes once, at the end of its charge, instead of
        first waking only to open it.

        That is the case only when all of these hold — otherwise
        :meth:`PriorityLock.release` succeeds ``ev`` and the waiter opens
        its hold one queue hop later, as ever: nothing else is due at
        this tick (:meth:`Engine.alone`, asked without advancing the
        calendar wheel: the hop would not have looked), so that hop
        would pop next; no contention injector is installed (it draws a
        burst before a segment's first hold); and the waiter's own
        resume is all that waits on ``ev`` (:meth:`Event.sole_waiter`).
        The hold opens at the very point the hop would have opened it,
        so it sees the lock and the gate as they are then: a releaser
        that queues again at once clips it to a quantum, as before, and
        a shut gate clips a user hold.  True when it did.
        """
        waiter = ev.sole_waiter()
        if (waiter is None or self.contention is not None
                or not self.engine.alone(advance=False)):
            return False
        waiter.skip_hop(ev, self.begin_hold, run)
        return True

    def end_hold(self) -> int:
        """Close the hold: settle the ledger from elapsed time and return
        the cycles charged (to the segment it was opened for, or the one
        it was carried on into: ``run.seg``).  A holder thrown out before
        its timer came due (an ``Interrupt``) is charged the whole quanta
        it completed, and the timer is withdrawn.
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
        if timer._entry[2] is not None:     # still queued
            timer.cancel()
            elapsed -= elapsed % self._quantum_ticks
        self._busy_ticks += elapsed
        cycles = elapsed // CYCLE_PS
        self._cycles_charged += cycles
        return cycles

    # -- core execution primitive -----------------------------------------
    def run(self, segments: Iterable[Segment],
            proc: Optional["Process"] = None) -> Generator[Event, None, None]:
        """Charge ``segments`` back to back, each as :data:`Segment`
        says; ``proc`` is the process gated ones belong to.

        Each segment is one hold; when a waiter the holder yields to
        queues, the hold is cut to its next quantum boundary and the CPU
        yielded there (then re-acquired), so an interrupt arriving
        mid-computation is served within one quantum.  Where nothing can
        tell, one hold runs on into the next segment without a wake-up
        (:meth:`continue_hold`): the segments must follow each other with
        no code in between, which is what handing them over together
        says.  The run's state is one :class:`Run`, which a charge that
        has to queue for the CPU leaves with the request, for the grant
        to open its hold (:meth:`grant`); thrown out of that wait, it
        withdraws the request or gives back what it was granted.
        ``segments`` may be endless (``Process.spin``).
        """
        engine = self.engine
        lock = self.lock
        # ``not engine.passes(ev)``, spelled out below as ``ev is not
        # engine._done or engine._skipped or engine._queue.peek_at() ==
        # engine._now``: one frame less per charge
        rest = filter(_CHARGES, segments)
        seg = next(rest, None)
        if seg is None:
            return
        run = Run()
        run.cpu, run.seg, run.rest, run.proc = self, seg, rest, proc
        run.cycles = cycles = seg[0]
        run.nxt = next(rest, None)
        fresh = True        # nothing of ``seg`` charged yet
        while True:
            if fresh and cycles < 0:
                raise ValueError(f"negative cycle charge: {cycles}")
            # a gated segment waits to be scheduled: user work before
            # every pass, a kernel crossing on entry
            if seg[2] and (fresh or seg[1] == PRIO_USER):
                scheduled = proc.gate.wait()
                if (scheduled is not engine._done or engine._skipped
                        or engine._queue.peek_at() == engine._now):
                    yield scheduled
            granted = lock.acquire(seg[1], run)
            timer = None
            if (granted is not engine._done or engine._skipped
                    or engine._queue.peek_at() == engine._now):
                try:
                    yield granted
                except BaseException:
                    # thrown out of the wait: withdraw the request, or
                    # give back the CPU it was granted (ending the hold
                    # opened at the grant, if it was)
                    if not lock.cancel_acquire(granted):
                        if self._timer is not None:
                            self.end_hold()
                        lock.release()
                    raise
                # woken by the grant, or at the end of the hold opened
                # for it (:meth:`grant`): then that timer is still open
                timer = self._timer
            try:
                if fresh and self.contention is not None and not (
                        seg[2] and seg[1] == PRIO_USER):
                    stolen = self.contention.steal()
                    if stolen:
                        # foreign work holds the CPU first: wall-clock
                        # stretches, but none of it counts toward
                        # ``cycles``
                        yield Timeout(engine, stolen * CYCLE_PS)
                        self.contention_cycles += stolen
                while True:
                    if timer is None:
                        timer = self.begin_hold(run)
                        try:
                            yield timer
                        finally:
                            charged = self.end_hold()
                    else:
                        charged = self.end_hold()
                    timer = None
                    seg = run.seg   # (moved on if the hold was carried on)
                    run.cycles = cycles = run.cycles - charged
                    # done, or cut: user work always gives way (and waits
                    # for its gate again), other work only to a more
                    # urgent waiter
                    if not cycles or (seg[2] and seg[1] == PRIO_USER) or (
                            lock._waiters and lock._waiters[0][0] < seg[1]):
                        break
            finally:
                lock.release()
            if cycles:
                fresh = False
            else:
                seg = run.nxt
                if seg is None:
                    return
                run.seg, run.cycles, run.nxt = seg, seg[0], next(rest, None)
                cycles, fresh = seg[0], True

    def exec(
        self,
        cycles: int,
        prio: int = PRIO_USER,
    ) -> Generator[Event, None, None]:
        """Hold the CPU for ``cycles`` cycles at priority ``prio``: a run
        of one ungated segment (a plain function handing back
        :meth:`run`'s generator: a resume crosses no frame of its own)."""
        return self.run(((int(cycles), prio, False),))

    # -- convenience wrappers -------------------------------------------------
    def exec_us(
        self, usec: float, prio: int = PRIO_USER
    ) -> Generator[Event, None, None]:
        """Hold the CPU for a duration expressed in microseconds (a
        plain function handing back :meth:`run`'s generator: a resume
        crosses no frame of its own)."""
        return self.run(((self.cal.us_to_cycles(usec), prio, False),))

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
