"""Deterministic discrete-event simulation engine.

This is the substrate every other subsystem runs on: the modelled CPUs,
NICs, wires, kernels, protocol libraries and benchmark workloads are all
*simulation processes* — plain Python generators that ``yield`` events —
scheduled by a single :class:`Engine` with an integer picosecond clock.

The design follows the classic event/process style (as in SimPy) but is
intentionally small, dependency-free and strictly deterministic:

* events scheduled for the same tick fire in scheduling order (a
  monotonically increasing sequence number breaks ties),
* there is no wall-clock anywhere; re-running a workload reproduces the
  exact same event trace,
* no event fails and nothing is thrown into a process: a process whose
  generator raises is recorded once as a crash (:attr:`Engine.crashes`)
  and never triggers, which :meth:`Engine.run` reports.

Every CPU charge passes through here twice (its timer, its holder's
wake-up), so the ``fast`` run loop is written for the interpreter's
sake: it pops the calendar queue's due heap itself, a process is its
own callback from its first step on (no bound method to build or
unwrap), a timer fires with the value it was made with, and
``scheduled`` / ``fired`` are not counted per event but follow from the
sequence numbers, the queue and the hops elided and re-queued
(:meth:`Engine.stats`).

Example
-------
>>> eng = Engine()
>>> def hello(eng):
...     yield eng.sleep(10)
...     return eng.now
>>> proc = eng.spawn(hello(eng))
>>> eng.run()
>>> proc.value
10
"""

from __future__ import annotations

import math
import os
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from ..errors import SimError
from .queues import CalendarQueue, HeapEventQueue

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "SimProcess",
    "AnyOf",
    "SUBSTRATE_ENV",
    "active_substrate",
    "DEFAULT_TIMER_HORIZON_US",
]

#: environment variable selecting the simulation substrate
SUBSTRATE_ENV = "REPRO_SIM_SUBSTRATE"

_SUBSTRATES = ("fast", "legacy")

#: Default timer horizon (µs) used to auto-size the calendar queue's
#: bucket width: the farthest ahead the modelled protocols routinely
#: schedule.  Anchored to TCP's worst case — ``RTO_US`` backed off by
#: ``MAX_RTO_BACKOFF`` (50 ms × 8 = 400 ms) — with headroom; the sim
#: layer cannot import the net layer (layering is one-way), so the
#: constant lives here and ``tests/test_scale_smp.py`` cross-checks it
#: against the TCP calibration to keep the two from drifting apart.
DEFAULT_TIMER_HORIZON_US = 500_000


def active_substrate(override: Optional[str] = None) -> str:
    """Resolve the simulation substrate: ``fast`` (calendar-queue event
    engine, vectorized cache model, protocol stacks parsing views of
    the receive buffer) or ``legacy`` (single heapq, scalar cache walks,
    a ``bytes`` copy per received IP packet).

    ``REPRO_SIM_SUBSTRATE=legacy`` is the escape hatch; both substrates
    produce bit-identical simulated cycles (pinned by
    ``tests/test_determinism.py``).
    """
    value = (override or os.environ.get(SUBSTRATE_ENV) or "fast").lower()
    if value not in _SUBSTRATES:
        raise SimError(
            f"unknown {SUBSTRATE_ENV}={value!r} (expected one of {_SUBSTRATES})"
        )
    return value


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts *pending*; calling :meth:`succeed` triggers it
    exactly once, resuming every waiting process during the same
    simulation tick.  No event fails: nothing is ever thrown into a
    waiter.
    """

    __slots__ = ("engine", "name", "_value", "_state", "_callbacks")

    _PENDING = 0
    _TRIGGERED = 1

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.name = name
        self._value: Any = None
        self._state = 0     # Event._PENDING
        self._callbacks: list[Callable[["Event"], None]] = []

    @property
    def triggered(self) -> bool:
        return self._state == Event._TRIGGERED

    @property
    def value(self) -> Any:
        if not self._state:
            raise SimError(f"event {self.name!r} has not triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._state:
            raise SimError(f"event {self.name!r} already triggered")
        self._value = value
        self._state = Event._TRIGGERED
        self.engine._ready(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event triggers (immediately if done)."""
        if self._state:
            # Already dispatched: deliver through the scheduler so late
            # listeners still run, without recursing into the caller.
            self.engine._schedule(self.engine.now, fn, self)
        else:
            self._callbacks.append(fn)

    def skip_hop(self, step: Callable[[Any], "Event"], arg: Any) -> bool:
        """Trigger this event, which a process's resume alone waits on
        (no ``any_of``, no listener beside it), without the hop that
        would resume the process only for it to call ``step(arg)`` and
        wait on the event that returns: the engine makes that call
        itself, where the hop would have run, and the process waits on
        its result.  Call it only when nothing else is due at this tick:
        the hop would then be the next entry to pop, so it runs once the
        dispatch under way returns to the run loop, and until then every
        same-tick test sees it as due (see :attr:`Engine._skipped`).  A lock's grant that opens its
        grantee's CPU hold does this (:meth:`repro.hw.cpu.Run.grant`).
        True when it did; False, with nothing done, when anything else
        waits on the event."""
        cbs = self._callbacks
        if len(cbs) != 1 or cbs[0].__class__ is not SimProcess:
            return False
        self._state = Event._TRIGGERED
        self.engine._skipped.append((cbs.pop(), step, arg))
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {self.name!r} {state}>"


class Timeout(Event):
    """An event that fires after a fixed delay.

    A CPU hold's timer names the run it charges as its :attr:`hold`
    while a next charge segment is lined up behind the open one: when it
    comes due, the run loops ask :meth:`repro.hw.cpu.Run.continue_hold`
    first, which may arm it again for that segment instead of letting it
    fire.
    """

    __slots__ = ("_entry", "hold")

    def __init__(self, engine: "Engine", delay: int, value: Any = None):
        if delay < 0:
            raise SimError(f"negative timeout: {delay}")
        # Event.__init__ flattened: every CPU charge, wire delay and
        # protocol timer in a run is one of these.
        self.engine = engine
        self.name = "timeout"
        self._value = value     # (read only once it has fired)
        self._state = Event._PENDING
        self._callbacks = []
        self.hold = None
        delay = int(delay)
        # ``_schedule`` flattened (its into-the-past guard cannot fire:
        # ``delay >= 0``).  The queue entry's callable slot holds the
        # Timeout itself (``__call__`` aliases ``_fire``): no
        # bound-method allocation per schedule, and the run loops can
        # type-dispatch on it.  It fires with the value it holds, so
        # the entry carries no arguments.
        engine._seq = seq = engine._seq + 1
        self._entry = entry = [engine._now + delay, seq, self, (), None]
        engine._queue.push(entry)

    @classmethod
    def unarmed(cls, engine: "Engine") -> "Timeout":
        """A timeout that is not scheduled and will not fire until armed
        again (the CPU's hold timer, see
        :meth:`repro.hw.cpu.Cpu.begin_hold`): as one that has fired."""
        self = cls.__new__(cls)
        Event.__init__(self, engine, "timeout")
        self._state = Event._TRIGGERED
        self.hold = None
        self._entry = [engine._now, 0, None, (), None]
        return self

    def _fire(self) -> None:
        if not self._state:  # may have been cancelled
            hold = self.hold
            if hold is not None and hold.continue_hold():
                return
            self.succeed(self._value)

    __call__ = _fire

    def cancel(self) -> None:
        """Neutralise the timeout; it will never trigger.

        The scheduled entry is withdrawn from the event queue: removed
        outright when the calendar wheel still holds it, otherwise left
        as a tombstone the run loop pops and skips.
        """
        if not self._state:
            self._state = Event._TRIGGERED
            self._callbacks.clear()
            self.engine._cancel(self._entry)

    def reschedule(self, at: int) -> None:
        """Move a still-pending timeout to fire at absolute tick ``at``.

        The event object — and whoever waits on it — stays; only its
        queue entry is replaced (withdrawn like :meth:`cancel` does, then
        re-pushed under a fresh sequence number, so at its new tick it
        orders after everything already scheduled there).  Used by the
        CPU to cut a coalesced hold back to a quantum boundary.
        """
        old = self._entry
        if self._state != Event._PENDING or old[2] is None:
            raise SimError("cannot reschedule a timeout that already fired")
        self._entry = self.engine._schedule(at, self, *old[3])
        self.engine._cancel(old)


class AnyOf(Event):
    """Triggers as soon as any child event triggers.

    It carries no value: ask each child whether it triggered (one may
    trigger later in the same tick, after this one).
    """

    __slots__ = ()

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine, name="any_of")
        events = list(events)
        if not events:
            self.succeed()
            return
        for ev in events:
            ev.add_callback(self._check)

    def _check(self, ev: Event) -> None:
        if not self._state:
            self.succeed()


SimGenerator = Generator[Event, Any, Any]


def _not_an_event(proc: "SimProcess", target: Any) -> SimError:
    """The crash of a process that yielded ``target``, not an Event."""
    return SimError(
        f"process {proc.name!r} yielded {target!r}; processes must "
        "yield Event objects (use engine.sleep for delays)"
    )


class SimProcess(Event):
    """A running simulation process.

    Wraps a generator that yields :class:`Event` objects.  The process is
    itself an event: it triggers when the generator returns, with the
    generator's return value.  Other processes may therefore ``yield`` a
    process to join it.  It is also the callback it registers on the
    event it waits on: calling it with that event resumes it
    (:meth:`_on_event`), and it starts as the callback of a pre-triggered
    start event.

    A process whose generator raises, or yields something that is not
    an Event, has crashed: the engine records it once in
    :attr:`Engine.crashes`, and it never triggers (a joiner waits on).
    """

    __slots__ = ("gen",)

    def __init__(self, engine: "Engine", gen: SimGenerator, name: str = ""):
        super().__init__(engine, name=name or getattr(gen, "__name__", "proc"))
        self.gen = gen
        engine._schedule(engine.now, self, engine._start)

    def _on_event(self, ev: Event) -> None:
        """Resume with the value ``ev`` triggered with, and wait on what
        the generator yields next.  This is the legacy loop's step; the
        fast loop's is :meth:`Engine._send_step`, which takes the same
        step and may elide the hop of a target triggered already."""
        engine = self.engine
        if ev is engine._done:
            engine._book_requeue()
        try:
            target = self.gen.send(ev._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            engine._crashes.append((self, exc))
            return
        if not isinstance(target, Event):
            engine._crashes.append((self, _not_an_event(self, target)))
            return
        target.add_callback(self)

    __call__ = _on_event


class Engine:
    """The discrete-event scheduler: a queue of timestamped callbacks.

    The queue implementation is selected by the *substrate*: the
    ``fast`` default uses a :class:`~repro.sim.queues.CalendarQueue`
    (bucketed wheel + far-future heap, with true O(1) cancellation for
    wheel-resident timers); ``legacy`` keeps the original single binary
    heap.  Both pop in identical ``(time, seq)`` order, so the choice is
    invisible to simulated results.
    """

    def __init__(self, substrate: Optional[str] = None) -> None:
        self._now = 0
        self._seq = 0
        self.substrate = active_substrate(substrate)
        self._queue = (
            CalendarQueue.for_horizon(DEFAULT_TIMER_HORIZON_US * 1_000_000)
            if self.substrate == "fast"
            else HeapEventQueue()
        )
        self._crashes: list[tuple[SimProcess, BaseException]] = []
        #: monotonic trace-id mint (telemetry trace context).  Lives on
        #: the engine so ids are unique across every node sharing the
        #: clock, and reset with it: identical runs mint identical ids.
        self.trace_seq = 0
        # scheduling statistics (see stats(): ``scheduled`` and
        # ``fired`` follow from these, ``_seq`` and the queue's)
        self._cancelled = 0
        self._inlined = 0  # queue hops elided by the fast loop
        self._requeued = 0  # same-tick hops of processes that wait for nothing
        #: the hub the counters above are exported through (see
        #: :meth:`export_to`); the engine has none of its own
        self.telemetry = None
        # Shared pre-triggered event: what an open gate or an
        # uncontended lock hands back.  Stateless (value None, no
        # callbacks survive on it), so every pass-through wait can
        # yield the same object instead of allocating one.
        self._done = Event(self, "done")
        self._done._state = Event._TRIGGERED
        # What a new process is started against (its first step sends
        # it None): pre-triggered as ``_done`` is, but its hop is a
        # dispatch the model asked for, not a requeue.
        self._start = Event(self, "start")
        self._start._state = Event._TRIGGERED
        self.event: Callable[..., Event] = partial(Event, self)
        #: hops :meth:`Event.skip_hop` saved, ``(process, step,
        #: arg)``: each stands for an entry due now, at the head of the
        #: due heap (``passes`` says False, and no CPU hold is carried
        #: on or opened at a grant, while one waits),
        #: and is taken where it would pop: before the run loop pops
        #: anything else, or where ``_send_step`` would step aside for it
        self._skipped: list = []

    # -- clock ---------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in integer ticks (picoseconds)."""
        return self._now

    def next_trace_id(self) -> int:
        """Mint a run-unique message trace id (telemetry sidecar only:
        ids never feed back into scheduling, costs or wire contents)."""
        self.trace_seq += 1
        return self.trace_seq

    # -- event construction --------------------------------------------
    # ``event(name="")`` is ``Event`` bound to this engine, set in
    # ``__init__``: a partial, with no frame of its own.

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    # ``sleep`` reads better in process code than ``timeout``.
    sleep = timeout

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def spawn(self, gen: SimGenerator, name: str = "") -> SimProcess:
        return SimProcess(self, gen, name)

    def passes(self, event: Event) -> bool:
        """True when a process may walk through ``event`` without
        yielding it: it is the shared pre-triggered event (an open gate,
        an uncontended lock) *and* no other entry is due at this tick
        (a hop :meth:`Event.skip_hop` saved counts as one).

        That is the tie test :meth:`_send_step` applies before it elides
        the hop of such a wait, asked by the waiter itself: the hop
        would be the only entry at this tick and pop next with nothing
        in between, so not making it — no yield, no resume back down the
        ``yield from`` chain, no event booked — is order-identical.  With
        a same-tick sibling (or a tombstone) due, the caller yields and
        takes the generic hop behind it, as ever; that hop is a queue
        entry but no dispatch the model asked for, and is booked as
        ``requeued`` (see :meth:`_book_requeue`).  Use as::

            ev = lock.acquire(prio)     # always ask: the grant is a fact
            if not engine.passes(ev):
                yield ev
        """
        # peek_at, not a look at the due heap alone: with nothing due the
        # calendar queue advances its wheel here, exactly where the
        # elision it replaces did (but not behind a hop a grant saved,
        # which would sit at the head of the due heap)
        return (event is self._done and not self._skipped
                and self._queue.peek_at() != self._now)

    def _book_requeue(self) -> None:
        """Move the hop that just popped from ``scheduled`` / ``fired``
        to ``requeued``: it resumed a process that had yielded the
        shared pre-triggered event, i.e. one that waited for nothing and
        only stepped aside for what else was due at its tick.

        Whether a tick is shared is an accident of the schedule (two
        node pairs whose start staggers coincide run in lockstep and tie
        at every lock and gate), so with these hops in it ``fired``
        would differ from seed to seed by what coincided, not by what
        the model did.  The fast loop keeps ``fired`` free of that by
        counting the hops it elides (``inlined``); this keeps it so by
        not counting a hop that has to be made.  Queue entries popped
        are ``fired - inlined + requeued``."""
        self._requeued += 1

    # -- internal scheduling -------------------------------------------
    def _schedule(self, at: int, fn: Callable, *args: Any) -> list:
        """Enqueue ``fn(*args)`` at tick ``at``; returns the queue entry
        (a mutable ``[at, seq, fn, args, slot]`` list) so the caller can
        cancel it later via :meth:`_cancel`."""
        if at < self._now:
            raise SimError(f"cannot schedule into the past ({at} < {self._now})")
        self._seq += 1
        entry = [at, self._seq, fn, args, None]
        self._queue.push(entry)
        return entry

    def _cancel(self, entry: list) -> None:
        """Withdraw a scheduled entry (no-op if it already fired)."""
        if entry[2] is not None:
            self._queue.cancel(entry)
            self._cancelled += 1

    def _ready(self, event: Event) -> None:
        """Dispatch an event's callbacks at the current tick."""
        callbacks, event._callbacks = event._callbacks, []
        for fn in callbacks:
            self._schedule(self._now, fn, event)

    def _take_skipped(self) -> None:
        """Take the hop :meth:`Event.skip_hop` saved (there is at
        most one: no grant saves another while one waits): make its
        call and have its process wait on the result."""
        proc, step, arg = self._skipped.pop()
        step(arg)._callbacks.append(proc)

    # -- run loop --------------------------------------------------------
    def run(self, until: Optional[int] = None, raise_crashes: bool = True) -> None:
        """Run until the event queue drains or the clock reaches ``until``.

        The ``fast`` substrate uses a fused dispatch loop that inlines
        the two hottest event shapes (a timeout firing, a process
        resuming) — same events, same order, far fewer interpreter
        operations per event.  ``legacy`` keeps the original loop.

        If any process crashed (see :class:`SimProcess`) the first such
        exception is re-raised at the end of the run (pass
        ``raise_crashes=False`` to inspect ``engine.crashes`` instead).
        The clock never runs backwards: an ``until`` before ``now`` is
        an error.
        """
        if until is not None and until < self._now:
            raise SimError(f"cannot run until the past ({until} < {self._now})")
        if self.substrate == "fast":
            self._run_fast(until)
        else:
            self._run_legacy(until)
        if raise_crashes and self._crashes:
            _proc, exc = self._crashes[0]
            raise exc

    def _run_legacy(self, until: Optional[int]) -> None:
        queue = self._queue
        skipped = self._skipped
        while True:
            if skipped:
                self._take_skipped()
            at = queue.peek_at()
            if at is None:
                break
            if until is not None and at > until:
                # events remain beyond the horizon: park the clock there
                self._now = until
                break
            entry = queue.pop()
            self._now = at
            fn, args = entry[2], entry[3]
            if fn is not None:  # tombstones pop silently
                entry[2] = None  # mark fired: cancel is now a no-op
                fn(*args)
        # an empty queue leaves the clock at the last event (the
        # simulation is over; no reason to fast-forward to `until`)

    def _run_fast(self, until: Optional[int]) -> None:
        """Fused dispatch loop.

        Dispatch here is an exact transcription of what the generic
        path does — ``CalendarQueue.pop``, then ``Timeout._fire`` →
        ``succeed`` → ``_ready``, and ``SimProcess._on_event`` (as
        :meth:`_send_step`) — with the intermediate calls inlined.
        Anything that is not one of those two shapes falls through to a
        plain ``fn(*args)`` call, so ordering and side effects are
        identical to :meth:`_run_legacy` on the same schedule.
        """
        queue = self._queue
        advance = queue._advance
        push = queue.push
        peek_at = queue.peek_at
        send_step = self._send_step
        done = self._done
        skipped = self._skipped
        horizon = math.inf if until is None else until
        # Dispatch ledger deltas are accumulated locally and flushed on
        # exit: reentrant increments (``_book_requeue``, ``_send_step``)
        # still hit the attributes directly, and deltas compose.
        # ``_seq`` must NOT be localized — ``_schedule`` reads and bumps
        # it reentrantly mid-loop.
        inl_d = req_d = 0
        try:
            while True:
                if skipped:
                    # ``_take_skipped``, inlined
                    proc, step, arg = skipped.pop()
                    step(arg)._callbacks.append(proc)
                due = queue._due  # re-read each pass: _advance rebinds it
                if not due:
                    if not advance():
                        break   # nothing pending anywhere
                    due = queue._due
                entry = heappop(due)
                at, _seq, fn, args, _slot = entry
                if at > horizon:
                    # events remain beyond the horizon: put it back (the
                    # pop order is the keys', not the heap's layout) and
                    # park the clock
                    heappush(due, entry)
                    self._now = until
                    break
                self._now = at
                if fn is None:  # tombstones pop silently
                    queue.tombstones -= 1
                    queue.tombstones_popped += 1
                    continue
                entry[2] = None  # mark fired: cancel is now a no-op
                if fn.__class__ is Timeout:
                    # Timeout._fire → succeed → _ready, inlined.  (One
                    # that has fired already — by ``succeed`` — has no
                    # callbacks left; a cancelled one never pops live.)
                    hold = fn.hold
                    if hold is not None and hold.continue_hold():
                        continue  # re-armed: one event, no wake-up
                    fn._state = 1
                    cbs = fn._callbacks
                    if not cbs:
                        continue
                    # Tie test against the due heap directly (re-read:
                    # _advance rebinds it).  When it is empty, fall back
                    # to peek_at — its eager bucket advance keeps the
                    # wheel position ahead of the clock, so the next
                    # near-future push lands straight in the due heap
                    # instead of paying bucket residency.
                    due = queue._due
                    if (due[0][0] != at) if due else (peek_at() != at):
                        cb = cbs.pop()
                        if not cbs:
                            # No other entry at this tick, and one
                            # callback: running it right now is provably
                            # order-identical to scheduling it —
                            # anything it schedules at this tick still
                            # lands after it, just as it would behind
                            # its hop entry.  (With no other callback
                            # left to run in this dispatch, a process
                            # stepped here may take a hop a grant saved,
                            # see ``_send_step``.)  The timer keeps its
                            # callback list, emptied.
                            inl_d += 1
                            if cb.__class__ is SimProcess:
                                send_step(cb, fn._value)
                            else:
                                cb(fn)
                            continue
                        cbs.append(cb)
                    fn._callbacks = []
                    for cb in cbs:
                        self._seq += 1
                        push([at, self._seq, cb, (fn,), None])
                elif fn.__class__ is SimProcess:
                    # SimProcess._on_event, inlined
                    ev = args[0]
                    if ev is done:  # _book_requeue, on the deltas
                        req_d += 1
                    send_step(fn, ev._value)
                else:
                    fn(*args)
        finally:
            self._inlined += inl_d
            self._requeued += req_d

    def _send_step(self, proc: "SimProcess", value: Any) -> Optional[Event]:
        """Advance a process generator with ``value`` (the fast loop's
        inlined :meth:`SimProcess._on_event`); return the event it now
        waits on, or None once it has ended or crashed.

        When the yielded target has *already* triggered (an item already
        queued on a channel; a lock or gate whose caller did not ask
        :meth:`passes`) the generic path bounces through the queue: a
        same-tick hop entry that immediately resumes the process.  If
        no other entry is pending at this tick that hop is the sole
        entry and pops next with nothing in between, so resuming inline
        is order-identical — the loop below does exactly that, paying
        one queue round-trip less per such wait (booked as one
        scheduled-and-fired dispatch).  A hop a grant saved
        (:meth:`Event.skip_hop`) is due ahead of it: that one is
        taken first, where the process would have stepped aside for it.
        """
        while True:
            try:
                target = proc.gen.send(value)
            except StopIteration as stop:
                proc.succeed(stop.value)
                return None
            except BaseException as exc:
                self._crashes.append((proc, exc))
                return None
            if not isinstance(target, Event):
                self._crashes.append((proc, _not_an_event(proc, target)))
                return None
            if not target._state:
                target._callbacks.append(proc)
                return target
            # triggered already (no time passes here: ``now`` is the
            # tick being dispatched)
            now = self._now
            due = self._queue._due
            if self._skipped:
                # a hop a grant saved is due first, and it would sit
                # at the head of the due heap: look no further (no
                # eager advance), as behind it
                if due and due[0][0] == now:
                    self._schedule(now, proc, target)
                    return target
                # nothing else is due, and nothing else of this
                # dispatch is left to run (the run loop steps one
                # process at a time): take it here, where this
                # process would step aside for it, and go on
                self._take_skipped()
            elif (due[0][0] == now) if due else (self._queue.peek_at() == now):
                # same-tick siblings: generic hop
                self._schedule(now, proc, target)
                return target
            if target is not self._done:  # its hop would not count either
                self._inlined += 1
            value = target._value

    @property
    def crashes(self) -> list[tuple[SimProcess, BaseException]]:
        return list(self._crashes)

    @property
    def idle(self) -> bool:
        return len(self._queue) == 0

    # -- introspection ----------------------------------------------------
    def _dispatches(self) -> tuple[int, int]:
        """``(scheduled, fired)``, from what the hot paths count anyway.
        Every queue entry takes a sequence number, and is then popped
        live, withdrawn (``cancelled``) or still pending live (``len`` of
        the queue less its tombstones).  Scheduled are the entries, and
        fired those popped live, plus the hops elided (``inlined``: one
        scheduled-and-fired dispatch each) less the hops re-queued (a
        queue entry that counts as neither, see :meth:`_book_requeue`).
        Exact between dispatches; inside ``run`` the fast loop's
        ``inlined`` and ``requeued`` lag until it returns."""
        queue = self._queue
        hops = self._inlined - self._requeued
        live = len(queue) - queue.tombstones
        return (self._seq + hops,
                self._seq - self._cancelled - live + hops)

    def stats(self) -> dict:
        """Scheduling accounting: events scheduled/fired/cancelled (of
        the fired, ``inlined`` never touched the queue; ``requeued``
        same-tick hops did and are not among them), plus
        the queue's own structure-specific counters (tombstones pending
        and popped, wheel occupancy, overflow spills...)."""
        scheduled, fired = self._dispatches()
        return {
            "substrate": self.substrate,
            "now_ps": self._now,
            "scheduled": scheduled,
            "fired": fired,
            "cancelled": self._cancelled,
            "inlined": self._inlined,
            "requeued": self._requeued,
            "pending": len(self._queue),
            "queue": self._queue.stats(),
        }

    def export_to(self, hub) -> None:
        """Have ``hub`` collect the scheduling counters as
        ``sim.calendar.*`` (testbeds lend their client node's).  The
        first hub keeps the job, so an engine that many pairs share is
        exported once, not once per pair."""
        if self.telemetry is None:
            self.telemetry = hub
            hub.add_collector(self._collect)

    def _collect(self, reg) -> None:
        scheduled, fired = self._dispatches()
        reg.total("sim.calendar.scheduled", scheduled)
        reg.total("sim.calendar.fired", fired)
        reg.total("sim.calendar.inlined", self._inlined)
