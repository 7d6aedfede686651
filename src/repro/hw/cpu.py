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
found something to do there.  That holds through code between two
charges too (:meth:`Cpu.run_code`: a send's doorbell, a handler's
transmits, a library's header build): :meth:`Code.carry` runs it at the
boundary, once the segment is settled and the CPU released, where the
woken holder would have run it, and carries the hold on if the
holder's next pass would have gone straight through; if not, the
holder wakes ahead of whatever the code queued there, in the state it
would have reached itself.  Nor does a waiter wake only to open its
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
end of its own: it ends only when :meth:`Cpu.cut` ends it, and its timer
is queued only once it is cut.

Nothing throws into a charge.  The engine has no failed events and
throws nothing into a process (a process that raises is recorded as a
crash and never resumed again), and the model's aborts are flags and
the VM's cycle budget.  So a holder leaves each wait — its gate, its
grant, its hold timer, a contention burst — only when it triggers, and
settles its hold and releases the CPU on the one path there is.

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
from itertools import repeat
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
        this tick (as :meth:`continue_hold` asks it, but without
        advancing the calendar wheel: the hop would not have looked), so
        that hop would pop next; no contention injector is installed (it
        draws a burst before a segment's first hold); and the waiter's own
        resume is all that waits on ``ev`` (:meth:`Event.skip_hop` asks).
        The hold opens at the very point the hop would have opened it,
        so it sees the lock and the gate as they are then: a releaser
        that queues again at once clips it to a quantum, as before, and
        a shut gate clips a user hold.  True when it did.
        """
        cpu = self.cpu
        if cpu.contention is not None:
            return False
        # the tie test of ``continue_hold``, asked without moving the
        # calendar wheel (the hop this stands for would not have looked)
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
        nothing else live is due at this tick, nor a hop a grant saved
        (the tombstones due now are popped first, as the run loop would
        pop them next, so that both substrates answer alike: a cancel
        removes a wheel-resident entry on ``fast`` but leaves a
        tombstone on ``legacy``; with nothing in the due heap the
        calendar queue advances its wheel, as the tie test of the
        wake-up this stands for would); nobody waits for the lock; the
        next segment's gate is open, if it waits on one; and no
        contention injector is installed (it draws a burst at each
        segment's start).  The holder would then settle the segment,
        release the lock, pass through the gate and the lock again and
        open the next hold, all on this tick with nothing in between:
        this does the same, bar the wake-up.  True when it did.

        Where code comes next (a code run's mark, :class:`Code`) this is
        :meth:`Code.carry`'s to decide; the rest of a tuple of segments
        a code run yielded is carried on here, as a plain run's is.

        Where the tie alone stands in the way, the holder's wake-up is a
        queue hop behind a same-tick sibling and is booked as one
        (``Engine._book_requeue``): which ticks coincide is the
        schedule's accident, so ``fired`` does not say it.
        """
        cpu = self.cpu
        nxt = self.nxt
        if nxt[0] < 0:
            # a code run's mark (or a negative charge, which the holder
            # raises)
            code = nxt[1]
            if code.__class__ is not Code:
                return False
            for nxt in code.batch:
                # the next of a yielded tuple: no code between, so it is
                # carried on as a plain run's next segment is
                self.nxt = nxt
                if nxt[0] < 0:
                    return False
                break
            else:
                return code.carry(self)
        if (cpu.lock._waiters or cpu.contention is not None
                or (nxt[2] and not self.proc.gate._open)):
            return False
        # the tie test: the head of the due heap answers it, unless it
        # is due now (and perhaps a tombstone)
        engine = cpu.engine
        now = engine._now
        due = engine._queue._due
        if engine._skipped or not (due and due[0][0] != now) and (
                engine._queue.peek_live_at(now) == now):
            engine._book_requeue()
            return False
        cpu.end_hold()
        self.seg = nxt
        self.ticks = nxt[0] * CYCLE_PS
        self.nxt = next(self.rest, None)
        cpu.begin_hold(self)
        return True


class Code:
    """The segments of a run with code between them (:meth:`Cpu.run_code`):
    ``gen`` yields each segment that code follows — or a tuple of
    segments that follow each other with none between — and returns
    the last segment (or None); resuming it runs the code up to the next.

    The run's lookahead is a *mark* for every segment still to come,
    ``(-1, code, False)``: the one negative charge no real segment may
    have, so the run's own tests of it (``cycles < 0`` where a segment
    starts, ``nxt[0] < 0`` in :meth:`Run.continue_hold`) are where a
    code run turns off, and a run of plain segments pays nothing for it.
    A mark is traded for the segment it stands for (:meth:`fetch`) only
    at the boundary, where the holder would have run the code: by the
    holder, or by :meth:`carry`.
    """

    __slots__ = ("gen", "batch")

    def __init__(self, gen: Generator):
        self.gen = gen
        self.batch = _NO_SEGMENTS   # what is left of a yielded tuple

    def fetch(self, run: Run) -> Optional[Segment]:
        """The next segment that charges anything — the next of a
        yielded tuple, or else what the code up to it yields — or None
        when the run ends first (``run.nxt`` is None once ``gen`` has
        returned: the segment is the last)."""
        for seg in self.batch:
            return seg
        try:
            while True:
                seg = next(self.gen)
                if seg[0].__class__ is tuple:
                    self.batch = batch = filter(_CHARGES, seg)
                    for seg in batch:
                        break
                    else:
                        continue
                    break
                if seg[0]:
                    break
        except StopIteration as stop:
            run.nxt = None
            seg = stop.value
            if not (seg and seg[0]):
                return None
        if seg[0] < 0:
            raise ValueError(f"negative cycle charge: {seg[0]}")
        return seg

    def carry(self, run: Run) -> bool:
        """:meth:`Run.continue_hold` at a mark: the timer of ``run``'s
        hold is due at the end of a segment that code follows.  When
        the holder would wake alone at this tick (no lock waiter, no
        contention injector, no tie: ``continue_hold``'s tests), do here
        what it would do at once: settle the segment, release the CPU
        and run the code.  Then, if the holder's next pass would go
        straight through — a segment follows, nothing else is due at
        this tick (not even a tombstone: its tie test is
        :meth:`Engine.passes`'), still no injector, the gate open if the
        segment waits on one — take the CPU again and open that
        segment's hold on the same timer, the holder asleep.  True when
        it did.

        Otherwise the holder wakes as it would have woken to run the
        code, before anything the code queued at this tick, and finds
        what that code left: the run over, the next segment to take
        from the top (its gate, the tie test, its lock), or the code's
        exception to raise where it takes it.  False then, as it is
        when the carry is not tried at all.
        """
        cpu = run.cpu
        lock = cpu.lock
        if lock._waiters or cpu.contention is not None:
            return False
        engine = cpu.engine
        now = engine._now
        queue = engine._queue
        due = queue._due
        if engine._skipped or not (due and due[0][0] != now) and (
                queue.peek_live_at(now) == now):    # (as continue_hold)
            engine._book_requeue()
            return False
        cpu.end_hold()
        lock._locked = False    # ``release``, with nobody waiting
        try:
            seg = self.fetch(run)
        except BaseException as exc:
            self.gen = _reraise(exc)
            run.nxt = (-1, self, False)
        else:
            if seg is not None:
                # ``not engine.passes(engine._done)``, spelled out
                due = queue._due
                if not (engine._skipped
                        or ((due[0][0] == now) if due
                            else (queue.peek_at() == now))
                        or cpu.contention is not None
                        or (seg[2] and not run.proc.gate._open)):
                    lock._locked = True     # ``acquire``, of a free lock
                    run.seg = seg
                    run.ticks = seg[0] * CYCLE_PS
                    cpu.begin_hold(run)
                    return True
                run.nxt = seg
        # The holder's wake-up: at a segment end with nothing left to
        # settle, the CPU its own (a hold of no ticks, already fired).
        # With nothing queued at this tick the timer's own dispatch wakes
        # it next (the tie test again, of what the code queued); else it
        # is queued under the timer's own sequence number so that it
        # pops next, ahead of what the code queued, and the timer is
        # left with no one to wake.
        timer = cpu._timer = cpu._hold_timer
        cpu._start = now
        run.ticks = 0
        lock._locked = True
        due = queue._due
        if engine._skipped or ((due[0][0] == now) if due
                               else (queue.peek_at() == now)):
            for proc in timer._callbacks:
                engine._seq += 1
                queue.push([now, timer._entry[1], proc, (timer,), None])
            timer._callbacks = []
        return False


#: what a :class:`Code` holds of a yielded tuple used up (or none yet)
_NO_SEGMENTS = iter(())


def _reraise(exc: BaseException) -> Generator:
    """What a code run resumes once its code has raised in a carry: the
    holder meets the exception where it takes the next segment."""
    raise exc
    yield  # pragma: no cover - marks this as a generator


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
                timer._entry = self.engine._schedule(at, timer)

    def end_hold(self) -> int:
        """Close the hold at its timer's tick: settle the ledger from
        elapsed time and return the ticks charged (to the segment it was
        opened for, or the one it was carried on into: ``run.seg``).
        Nothing throws into a charge, so a hold ends only where its
        timer came due, with no timer left to withdraw.
        """
        self._timer = None
        if self.lock.hold is not None:
            self.lock.hold = None
            gate = self._gate
            if gate is not None:
                gate.hold = self._gate = None
        elapsed = self.engine._now - self._start
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
        says (code between them is :meth:`run_code`'s).  The run's state
        is one :class:`Run`, which a charge that has to queue for the CPU
        leaves with the request, for the grant to open its hold
        (:meth:`Run.grant`).  None of its waits can fail (see the
        module docstring), so it settles each hold and releases the CPU
        on the one path there is.  A segment of :data:`ENDLESS` cycles
        (``Process.spin``) never ends: each cut ends one hold of it.
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
                # a code run's mark: its code, up to the segment it
                # stands for (see :class:`Code`)
                if prio.__class__ is not Code:
                    raise ValueError(f"negative cycle charge: {cycles}")
                seg = prio.fetch(run)
                if seg is None:
                    return
                cycles, prio, gated = seg
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
                    yield granted
                    # woken by the grant, or at the end of the hold
                    # opened for it (:meth:`Run.grant`): then that timer
                    # is still open
                    timer = self._timer
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
                        yield self.begin_hold(run)
                    ticks = run.ticks - self.end_hold()
                    if not ticks:
                        break
                    # cut: user work always gives way (and waits for its
                    # gate again), other work only to a more urgent
                    # waiter
                    run.ticks = ticks
                    seg = run.seg   # (moved on if it was carried on)
                    cycles, prio, gated = seg
                    if (gated and prio == PRIO_USER) or (
                            lock._waiters and lock._waiters[0][0] < prio):
                        break
                    timer = None
                lock.release()
                if not ticks:
                    break
                fresh = False
            seg = run.nxt
            if seg is None:
                return
            run.nxt = next(rest, None)

    def run_code(self, segments: Generator[Segment, None, Optional[Segment]],
                 proc: Optional["Process"] = None
                 ) -> Generator[Event, None, None]:
        """:meth:`run` with code between the segments (:class:`Code`),
        a plain function handing back :meth:`run`'s generator.  The code
        runs at the boundary tick, where the woken holder would run it
        (:meth:`Code.carry`); it may schedule, shut a gate, spawn or
        raise, but it does not take this CPU itself."""
        return self.run(repeat((-1, Code(segments), False)), proc)

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
