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
:meth:`Run.continue_hold`, which arms it again for the next segment on
the same tick, and the holder wakes only where today's path would have
found something to do there.  Nor does a waiter wake only to open its
hold when the CPU is handed to it: it queues with its run, and the
holder's release has the engine open that run's hold where the waiter's
wake-up would have run (:meth:`Run.grant`), so the waiter sleeps on to
the end of its charge.

A run keeps its state in one :class:`Run` object: the lock's plan for a
queued charge, the one argument of :meth:`Cpu.begin_hold`, and, named by
the hold's timer, what :meth:`Run.continue_hold` moves on to the next
segment.  Every hold of a CPU runs on the same timer, armed afresh by
:meth:`Cpu.begin_hold` (one hold is open at a time): a charge builds no
event of its own.

A segment of :data:`ENDLESS` cycles (``Process.spin``) is a hold with no
end of its own: it ends only when :meth:`Cpu.cut` ends it or the holder
is thrown out, and its timer is queued only once it is cut.

``exec`` and ``run`` are generators: call them as ``yield from
cpu.exec(cycles)`` from inside a simulation process.  They ask the lock
every time but yield the grant only when they have to wait for it — or
for a sibling due at the same tick
(:meth:`repro.sim.engine.Engine.passes`): an uncontended charge is one
timer and one wake-up, nothing else.  The path is the hottest of a run
(``python -m repro.bench.census --bytecodes``): it keeps a charge's
state in ticks, spells out the engine's pass-through and tie tests
where a call would cost a frame, and takes the common case — one
ungated segment, the lock free, nothing else due — with the fewest
tests.
"""

from __future__ import annotations

import operator
from heapq import heappush
from typing import Generator, Iterable, Optional, TYPE_CHECKING

from ..sim.engine import Engine, Event, Timeout
from ..sim.queues import PriorityLock
from ..sim.units import CYCLE_PS
from .calibration import Calibration, PRIO_USER

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.process import Process

__all__ = ["Cpu", "ENDLESS", "YIELD_TO_ANY", "Segment"]

#: ``yield_below`` bound of a hold that gives way to every waiter,
#: whatever its priority (gated user computation)
YIELD_TO_ANY = float("inf")

#: the cycles of a user segment that never ends (``Process.spin``): its
#: hold is queued nowhere until :meth:`Cpu.cut` gives it an end
ENDLESS = float("inf")

#: one charge of a run: ``(cycles, prio, gated)``.  A gated segment runs
#: only while its process is scheduled: at user priority it is
#: ``Process.compute`` (it waits for the gate before every pass and gives
#: way to every waiter and to the gate shutting); at any other it is a
#: kernel crossing, which waits for the gate once, on entry, and then
#: runs as ``exec`` does.  Only a gated user segment may be
#: :data:`ENDLESS`
Segment = tuple[int, int, bool]


#: what a run keeps of its segments: those that charge anything (a
#: zero-cycle segment is no charge at all: no gate, no lock)
_CHARGES = operator.itemgetter(0)


class Run:
    """One :meth:`Cpu.run` call: the segment being charged (``seg``, of
    which ``ticks`` are left), the one lined up behind it (``nxt``, None
    at the last), the iterator over the ones after that (``rest``) and
    the process whose gate gated ones wait on (``proc``).

    It is the plan a charge that queues for the CPU leaves with its
    request (:class:`PriorityLock` offers the grant as :meth:`grant`),
    what :meth:`Cpu.begin_hold` opens a hold for, and, named by the
    hold's timer, what :meth:`continue_hold` moves on.  (No
    ``__init__``: ``Cpu.run`` fills it in, without a Python frame per
    charge.)
    """

    __slots__ = ("cpu", "seg", "ticks", "nxt", "rest", "proc")

    def grant(self, ev: Event) -> bool:
        """The lock is being handed to the waiter that queued ``ev`` for
        this run: let the engine open the run's hold where the waiter's
        wake-up would have run, with the waiter asleep until the hold's
        timer (:meth:`Event.skip_hop`), if nobody could tell.  The
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
        cpu = self.cpu
        if cpu.contention is not None:
            return False
        # ``not engine.alone()``, asked without moving the calendar wheel
        # (the hop this stands for would not have looked), spelled out
        engine = cpu.engine
        now = engine._now
        if engine._skipped or engine._queue.peek_live_at(now, False) == now:
            return False
        return ev.skip_hop(cpu.begin_hold, self)

    def continue_hold(self) -> bool:
        """The timer of this run's hold is due and a segment is lined up
        behind it: carry the hold on into that segment, arming the same
        timer again on this tick without waking the holder, if nobody
        could tell.

        That is the case only when all of these hold — otherwise the
        holder wakes and takes the next segment from the top, as it
        would: the timer ran to the end of its segment (it was neither
        cut nor clipped to a quantum, or it would not name this run);
        nothing else is due at this tick (:meth:`Engine.alone`); nobody
        waits for the lock; the next segment's gate is open, if it waits
        on one; and no contention injector is installed (it draws a
        burst at each segment's start).  The holder would then settle
        the segment, release the lock, pass through the gate and the
        lock again and open the next hold, all on this tick with nothing
        in between: this does the same, bar the wake-up.  True when it
        did.

        Where the tie alone stands in the way, the holder's wake-up is a
        queue hop behind a same-tick sibling and is booked as one
        (``Engine._book_requeue``): which ticks coincide is the
        schedule's accident, so ``fired`` does not say it.
        """
        cpu = self.cpu
        nxt = self.nxt
        if (cpu.lock._waiters or cpu.contention is not None
                or nxt[0] < 0 or (nxt[2] and not self.proc.gate._open)):
            return False
        engine = cpu.engine
        if not engine.alone():
            engine._book_requeue()
            return False
        cpu.end_hold()
        self.seg = nxt
        self.ticks = nxt[0] * CYCLE_PS
        self.nxt = next(self.rest, None)
        cpu.begin_hold(self)
        return True


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
        #: the one timer every hold of this CPU runs on (one hold is open
        #: at a time: the lock serialises holders), armed per hold
        self._hold_timer = Timeout.unarmed(engine)
        # -- the open hold --
        self._timer: Optional[Timeout] = None   # its timer, while open
        self._start = 0          # tick the hold began
        self._end_at = 0         # tick its timer is set for (if registered)
        self._gate = None        # the gate it is registered on
        #: waiters more urgent than this cut the open hold (read by the
        #: lock; only meaningful while the hold is registered there)
        self.yield_below = 0

    # -- the hold primitive -------------------------------------------------
    def begin_hold(self, run: Run) -> Timeout:
        """Open a hold of up to ``run.ticks`` of ``run.seg`` on the CPU
        the caller has just acquired; returns the timer to wait on (the
        CPU's one hold timer, armed afresh).  Follow with
        :meth:`end_hold`.

        The timer covers the whole charge and the hold is registered on
        the lock (and, for user work, the process gate) so :meth:`cut`
        can shorten it — unless it fits in one quantum anyway, or
        someone the holder yields to is queued already (or the gate is
        shut), in which case the holder takes its one quantum and then
        gives way.  While a segment is lined up behind (``run.nxt``) and
        the timer runs to the end of this one (and is not cut), it names
        ``run`` as its hold, so that :meth:`Run.continue_hold` can carry
        the hold on into the next segment: that moves ``run`` on and
        arms the timer again without waking the holder.
        """
        engine = self.engine
        self._start = now = engine._now
        self._timer = timer = self._hold_timer
        timer.hold = run.nxt and run
        ticks = run.ticks
        if ticks > self._quantum_ticks:
            seg = run.seg
            lock = self.lock
            waiters = lock._waiters
            if not (seg[2] and seg[1] == PRIO_USER):
                # it gives way to a more urgent waiter
                prio = seg[1]
                if waiters and waiters[0][0] < prio:
                    ticks = self._quantum_ticks     # (one queued already)
                    timer.hold = None   # it gives way at that quantum's end
                else:
                    self._end_at = now + ticks
                    self.yield_below = prio
                    lock.hold = self
            else:
                # user work gives way to every waiter, and to its gate
                gate = run.proc.gate
                if waiters or not gate._open:
                    ticks = self._quantum_ticks
                    timer.hold = None
                else:
                    self._end_at = now + ticks
                    self.yield_below = YIELD_TO_ANY
                    lock.hold = gate.hold = self
                    self._gate = gate
        # ``Timeout.__init__``'s arming, on the timer there is: it has
        # fired, been withdrawn, or is firing now (carried on, its
        # holder still waiting on it); and the queue's ``push``, for an
        # entry that goes straight onto its due heap.  An endless hold
        # not clipped to a quantum (so registered above) pends on an
        # entry queued nowhere, with no sequence number, until
        # :meth:`cut` queues it
        timer._state = 0    # pending
        timer.delay = ticks
        at = now + ticks
        queue = engine._queue
        if at < queue._dlim:
            engine._seq = seq = engine._seq + 1
            timer._entry = entry = [at, seq, timer, (), None]
            heappush(queue._due, entry)
        elif at != ENDLESS:
            engine._seq = seq = engine._seq + 1
            timer._entry = entry = [at, seq, timer, (), None]
            queue.push(entry)
        else:
            timer._entry = [at, 0, timer, (), None]
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
        end_at = self._end_at
        if at < end_at:
            self._end_at = at
            timer = self._timer
            timer.hold = None   # it ends short of its segment: the holder wakes
            if end_at != ENDLESS:
                timer.reschedule(at)
            else:
                # an endless hold ends here: its timer is queued, as
                # ``reschedule`` queues a moved one (with nothing to
                # withdraw)
                timer.delay = at - start
                timer._entry = self.engine._schedule(at, timer)

    def end_hold(self) -> int:
        """Close the hold: settle the ledger from elapsed time and return
        the ticks charged (to the segment it was opened for, or the one
        it was carried on into: ``run.seg``).  A holder thrown out before
        its timer came due (an ``Interrupt``) is charged the whole quanta
        it completed, and the timer is withdrawn (an endless hold that
        was never cut has none queued).
        """
        timer = self._timer
        self._timer = None
        if self.lock.hold is not None:
            self.lock.hold = None
            gate = self._gate
            if gate is not None:
                gate.hold = self._gate = None
        elapsed = self.engine._now - self._start
        if not timer._state and timer._entry[2] is not None:  # still queued
            entry = timer._entry
            if entry[0] == ENDLESS:
                entry[2] = None     # (queued nowhere: nothing to withdraw)
            timer.cancel()
            elapsed -= elapsed % self._quantum_ticks
        self._busy_ticks += elapsed
        self._cycles_charged += elapsed // CYCLE_PS
        return elapsed

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
        (:meth:`Run.continue_hold`): the segments must follow each other with
        no code in between, which is what handing them over together
        says.  The run's state is one :class:`Run`, which a charge that
        has to queue for the CPU leaves with the request, for the grant
        to open its hold (:meth:`Run.grant`); thrown out of that wait, it
        withdraws the request or gives back what it was granted.  A
        segment of :data:`ENDLESS` cycles (``Process.spin``) is charged
        until the holder is thrown out: each cut ends one hold of it.
        """
        rest = filter(_CHARGES, segments)
        for seg in rest:
            break
        else:
            return
        engine = self.engine
        lock = self.lock
        run = Run()
        run.cpu = self
        run.nxt = next(rest, None)
        run.rest = rest
        run.proc = proc
        while True:                 # a segment: ``seg``
            cycles, prio, gated = seg
            if cycles < 0:
                raise ValueError(f"negative cycle charge: {cycles}")
            run.seg = seg
            run.ticks = cycles * CYCLE_PS
            fresh = True            # nothing of it charged yet
            while True:             # a pass at it: gate, lock, holds
                # a gated segment waits to be scheduled: user work before
                # every pass, a kernel crossing on entry.  ``not
                # engine.passes(ev)`` is spelled out below as ``ev is not
                # engine._done or engine._skipped or
                # engine._queue.peek_at() == engine._now``: one frame less
                # per charge
                if gated and (fresh or prio == PRIO_USER):
                    scheduled = proc.gate.wait()
                    if (scheduled is not engine._done or engine._skipped
                            or engine._queue.peek_at() == engine._now):
                        yield scheduled
                granted = lock.acquire(prio, run)
                timer = None
                if (granted is not engine._done or engine._skipped
                        or engine._queue.peek_at() == engine._now):
                    try:
                        yield granted
                    except BaseException:
                        # thrown out of the wait: withdraw the request,
                        # or give back the CPU it was granted (ending the
                        # hold opened at the grant, if it was)
                        if not lock.cancel_acquire(granted):
                            if self._timer is not None:
                                self.end_hold()
                            lock.release()
                        raise
                    # woken by the grant, or at the end of the hold
                    # opened for it (:meth:`Run.grant`): then that timer
                    # is still open
                    timer = self._timer
                try:
                    if fresh and self.contention is not None and not (
                            gated and prio == PRIO_USER):
                        stolen = self.contention.steal()
                        if stolen:
                            # foreign work holds the CPU first: wall-clock
                            # stretches, but none of it counts toward the
                            # charge
                            yield Timeout(engine, stolen * CYCLE_PS)
                            self.contention_cycles += stolen
                    while True:
                        if timer is None:
                            timer = self.begin_hold(run)
                            try:
                                yield timer
                            finally:
                                ticks = run.ticks - self.end_hold()
                        else:
                            ticks = run.ticks - self.end_hold()
                        if not ticks:
                            break
                        # cut: user work always gives way (and waits for
                        # its gate again), other work only to a more
                        # urgent waiter
                        run.ticks = ticks
                        seg = run.seg   # (moved on if it was carried on)
                        cycles, prio, gated = seg
                        if (gated and prio == PRIO_USER) or (
                                lock._waiters and lock._waiters[0][0] < prio):
                            break
                        timer = None
                finally:
                    lock.release()
                if not ticks:
                    break
                fresh = False
            seg = run.nxt
            if seg is None:
                return
            run.nxt = next(rest, None)

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
