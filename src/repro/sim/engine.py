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
  exact same event trace.

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

import os
from typing import Any, Callable, Generator, Iterable, Optional

from ..errors import SimError
from .queues import CalendarQueue, HeapEventQueue

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "SimProcess",
    "Interrupt",
    "AnyOf",
    "AllOf",
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


class Interrupt(Exception):
    """Thrown into a process by :meth:`SimProcess.interrupt`.

    The ASH runtime uses this to model the paper's two-clock-tick timer
    abort: the kernel interrupts the handler process mid-execution.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    triggers it exactly once, resuming every waiting process during the
    same simulation tick.
    """

    __slots__ = ("engine", "name", "_value", "_exc", "_state", "_callbacks")

    _PENDING = 0
    _TRIGGERED = 1

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.name = name
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._state = Event._PENDING
        self._callbacks: list[Callable[["Event"], None]] = []

    @property
    def triggered(self) -> bool:
        return self._state == Event._TRIGGERED

    @property
    def ok(self) -> bool:
        """True once the event succeeded (as opposed to failed)."""
        return self.triggered and self._exc is None

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimError(f"event {self.name!r} has not triggered yet")
        if self._exc is not None:
            raise self._exc
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise SimError(f"event {self.name!r} already triggered")
        self._value = value
        self._state = Event._TRIGGERED
        self.engine._ready(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self.triggered:
            raise SimError(f"event {self.name!r} already triggered")
        self._exc = exc
        self._state = Event._TRIGGERED
        self.engine._ready(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event triggers (immediately if done)."""
        if self.triggered:
            # Already dispatched: deliver through the scheduler so late
            # listeners still run, without recursing into the caller.
            self.engine._schedule(self.engine.now, fn, self)
        else:
            self._callbacks.append(fn)

    def remove_callback(self, fn: Callable[["Event"], None]) -> None:
        try:
            self._callbacks.remove(fn)
        except ValueError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {self.name!r} {state}>"


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay", "_entry")

    def __init__(self, engine: "Engine", delay: int, value: Any = None):
        if delay < 0:
            raise SimError(f"negative timeout: {delay}")
        # Event.__init__ flattened: every CPU charge, wire delay and
        # protocol timer in a run is one of these.
        self.engine = engine
        self.name = "timeout"
        self._value = None
        self._exc = None
        self._state = Event._PENDING
        self._callbacks = []
        self.delay = delay = int(delay)
        # ``_schedule`` flattened (its into-the-past guard cannot fire:
        # ``delay >= 0``).  The queue entry's callable slot holds the
        # Timeout itself (``__call__`` aliases ``_fire``): no
        # bound-method allocation per schedule, and the run loops can
        # type-dispatch on it.
        engine._seq = seq = engine._seq + 1
        engine._scheduled += 1
        self._entry = entry = [engine._now + delay, seq, self, (value,), None]
        engine._queue.push(entry)

    def _fire(self, value: Any) -> None:
        if not self.triggered:  # may have been cancelled
            self.succeed(value)

    __call__ = _fire

    def cancel(self) -> None:
        """Neutralise the timeout; it will never trigger.

        The scheduled entry is withdrawn from the event queue: removed
        outright when the calendar wheel still holds it, otherwise left
        as a tombstone the run loop pops and skips.
        """
        if not self.triggered:
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
        self.delay += at - old[0]
        self.engine._cancel(old)


class _ConditionBase(Event):
    __slots__ = ("events",)

    def __init__(self, engine: "Engine", events: Iterable[Event], name: str):
        super().__init__(engine, name=name)
        self.events = list(events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._check)

    def _results(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self.events if ev.ok}

    def _check(self, ev: Event) -> None:
        raise NotImplementedError


class AnyOf(_ConditionBase):
    """Triggers as soon as any child event triggers.

    The value is a dict mapping the already-triggered events to their
    values; failures propagate.
    """

    __slots__ = ()

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine, events, name="any_of")

    def _check(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev._exc is not None:
            self.fail(ev._exc)
        else:
            self.succeed(self._results())


class AllOf(_ConditionBase):
    """Triggers once every child event has triggered."""

    __slots__ = ()

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine, events, name="all_of")

    def _check(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev._exc is not None:
            self.fail(ev._exc)
        elif all(e.triggered for e in self.events):
            self.succeed(self._results())


SimGenerator = Generator[Event, Any, Any]


class SimProcess(Event):
    """A running simulation process.

    Wraps a generator that yields :class:`Event` objects.  The process is
    itself an event: it triggers when the generator returns, with the
    generator's return value.  Other processes may therefore ``yield`` a
    process to join it.
    """

    __slots__ = ("gen", "_waiting_on", "_interrupts", "_on_event_cb")

    def __init__(self, engine: "Engine", gen: SimGenerator, name: str = ""):
        super().__init__(engine, name=name or getattr(gen, "__name__", "proc"))
        self.gen = gen
        self._waiting_on: Optional[Event] = None
        self._interrupts: list[Interrupt] = []
        # the bound method is allocated once: it is registered as an
        # event callback on every wait, which would otherwise cost a
        # fresh bound-method object each time
        self._on_event_cb = self._on_event
        engine._schedule(engine.now, self._resume, None, None)

    @property
    def alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current tick."""
        if not self.alive:
            return
        self._interrupts.append(Interrupt(cause))
        # Detach from whatever we were waiting on and resume immediately.
        if self._waiting_on is not None:
            self._waiting_on.remove_callback(self._on_event_cb)
            self._waiting_on = None
        self.engine._schedule(self.engine.now, self._deliver_interrupt)

    def _deliver_interrupt(self) -> None:
        if not self.alive or not self._interrupts:
            return
        exc = self._interrupts.pop(0)
        self._step(lambda: self.gen.throw(exc))

    def _on_event(self, ev: Event) -> None:
        engine = self.engine
        if ev is engine._done:
            engine._book_requeue()
        if not self.alive:
            return
        self._waiting_on = None
        if ev._exc is not None:
            exc = ev._exc
            self._step(lambda: self.gen.throw(exc))
        else:
            self._resume(ev._value, None)

    def _resume(self, value: Any, _unused: Any = None) -> None:
        if not self.alive:
            return
        self._step(lambda: self.gen.send(value))

    def _step(self, advance: Callable[[], Any]) -> None:
        try:
            target = advance()
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            # An unhandled interrupt terminates the process quietly: the
            # interruptor is responsible for any cleanup semantics.
            self.succeed(None)
            return
        except BaseException as exc:
            self.fail(exc)
            self.engine._crashed(self, exc)
            return
        if not isinstance(target, Event):
            exc = SimError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event objects (use engine.sleep for delays)"
            )
            self.fail(exc)
            self.engine._crashed(self, exc)
            return
        self._waiting_on = target
        target.add_callback(self._on_event_cb)


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
        # scheduling statistics (see stats())
        self._scheduled = 0
        self._fired = 0
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
    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    # ``sleep`` reads better in process code than ``timeout``.
    sleep = timeout

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def spawn(self, gen: SimGenerator, name: str = "") -> SimProcess:
        return SimProcess(self, gen, name)

    def passes(self, event: Event) -> bool:
        """True when a process may walk through ``event`` without
        yielding it: it is the shared pre-triggered event (an open gate,
        an uncontended lock) *and* no other entry is due at this tick.

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
        # elision it replaces did
        return event is self._done and self._queue.peek_at() != self._now

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
        self._scheduled -= 1
        self._fired -= 1
        self._requeued += 1

    # -- internal scheduling -------------------------------------------
    def _schedule(self, at: int, fn: Callable, *args: Any) -> list:
        """Enqueue ``fn(*args)`` at tick ``at``; returns the queue entry
        (a mutable ``[at, seq, fn, args, slot]`` list) so the caller can
        cancel it later via :meth:`_cancel`."""
        if at < self._now:
            raise SimError(f"cannot schedule into the past ({at} < {self._now})")
        self._seq += 1
        self._scheduled += 1
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

    def _crashed(self, proc: SimProcess, exc: BaseException) -> None:
        self._crashes.append((proc, exc))

    # -- run loop --------------------------------------------------------
    def run(self, until: Optional[int] = None, raise_crashes: bool = True) -> None:
        """Run until the event queue drains or the clock reaches ``until``.

        The ``fast`` substrate uses a fused dispatch loop that inlines
        the two hottest event shapes (a timeout firing, a process
        resuming) — same events, same order, far fewer interpreter
        operations per event.  ``legacy`` keeps the original loop.

        If any process died with an unhandled exception the first such
        exception is re-raised at the end of the run (pass
        ``raise_crashes=False`` to inspect ``engine.crashes`` instead).
        """
        if self.substrate == "fast":
            self._run_fast(until)
        else:
            self._run_legacy(until)
        if raise_crashes and self._crashes:
            _proc, exc = self._crashes[0]
            raise exc

    def _run_legacy(self, until: Optional[int]) -> None:
        queue = self._queue
        while True:
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
                self._fired += 1
                fn(*args)
        # an empty queue leaves the clock at the last event (the
        # simulation is over; no reason to fast-forward to `until`)

    def _run_fast(self, until: Optional[int]) -> None:
        """Fused dispatch loop.

        Dispatch here is an exact transcription of what the generic
        path does — ``Timeout._fire`` → ``succeed`` → ``_ready``, and
        ``SimProcess._on_event``/``_resume`` → ``_step`` — with the
        intermediate bound-method hops inlined.  Anything that is not
        one of those two shapes falls through to a plain ``fn(*args)``
        call, so ordering and side effects are identical to
        :meth:`_run_legacy` on the same schedule.
        """
        queue = self._queue
        pop_due = queue.pop_due
        push = queue.push
        peek_at = queue.peek_at
        proc_on_event = SimProcess._on_event
        proc_resume = SimProcess._resume
        send_step = self._send_step
        done = self._done
        # Dispatch ledger deltas are accumulated locally and flushed on
        # exit: reentrant increments (``_schedule`` from callbacks,
        # ``_send_step``) still hit the attributes directly, and deltas
        # compose.  ``_seq`` must NOT be localized — ``_schedule`` reads
        # and bumps it reentrantly mid-loop.
        fired_d = sched_d = inl_d = req_d = 0
        try:
            while True:
                entry = pop_due(until)
                if entry is None:
                    if until is not None and len(queue):
                        # events remain beyond the horizon: park the clock
                        self._now = until
                    break
                self._now = entry[0]
                fn = entry[2]
                if fn is None:  # tombstones pop silently
                    continue
                entry[2] = None  # mark fired: cancel is now a no-op
                fired_d += 1
                if fn.__class__ is Timeout:
                    # Timeout._fire → succeed → _ready, inlined.
                    if fn._state == 0:  # may have been cancelled
                        fn._value = entry[3][0]
                        fn._state = 1
                        cbs = fn._callbacks
                        if cbs:
                            fn._callbacks = []
                            now = self._now
                            # Tie test against the due heap directly
                            # (re-read each pass: _advance rebinds it).
                            # When it is empty, fall back to peek_at —
                            # its eager bucket advance keeps the wheel
                            # position ahead of the clock, so the next
                            # near-future push lands straight in the due
                            # heap instead of paying bucket residency.
                            due = queue._due
                            if (due[0][0] != now) if due else (peek_at() != now):
                                # No other entry at this tick: running the
                                # callbacks right now, in list order, is
                                # provably order-identical to scheduling
                                # them — anything they schedule at this
                                # tick still lands after all of them, just
                                # as it would behind the hop entries.
                                for cb in cbs:
                                    # keep the ledger comparable with the
                                    # hop path: each callback counts as one
                                    # scheduled-and-fired dispatch
                                    sched_d += 1
                                    fired_d += 1
                                    inl_d += 1
                                    cbf = getattr(cb, "__func__", None)
                                    if cbf is proc_on_event:
                                        proc = cb.__self__
                                        if proc._state == 0:
                                            proc._waiting_on = None
                                            send_step(proc, fn._value)
                                    else:
                                        cb(fn)
                            else:
                                for cb in cbs:
                                    self._seq += 1
                                    sched_d += 1
                                    push([now, self._seq, cb, (fn,), None])
                else:
                    func = getattr(fn, "__func__", None)
                    if func is proc_on_event:
                        # SimProcess._on_event → _resume → _step, inlined.
                        proc = fn.__self__
                        ev = entry[3][0]
                        if ev is done:  # _book_requeue, on the deltas
                            sched_d -= 1
                            fired_d -= 1
                            req_d += 1
                        if proc._state == 0:  # alive
                            proc._waiting_on = None
                            if ev._exc is not None:
                                fn(ev)  # failure path: take the generic route
                            else:
                                send_step(proc, ev._value)
                    elif func is proc_resume:
                        proc = fn.__self__
                        if proc._state == 0:
                            send_step(proc, entry[3][0])
                    else:
                        fn(*entry[3])
        finally:
            self._fired += fired_d
            self._scheduled += sched_d
            self._inlined += inl_d
            self._requeued += req_d

    def _send_step(self, proc: "SimProcess", value: Any) -> None:
        """Advance a process generator with ``value`` (the fast loop's
        inlined ``SimProcess._step`` + ``add_callback``).

        When the yielded target has *already* triggered (an item already
        queued on a channel; a lock or gate whose caller did not ask
        :meth:`passes`) the generic path bounces through the queue: a
        same-tick hop entry that immediately resumes the process.  If
        no other entry is pending at this tick that hop is the sole
        entry and pops next with nothing in between, so resuming inline
        is order-identical — the loop below does exactly that, paying
        one queue round-trip less per such wait.
        """
        gen_send = proc.gen.send
        queue = self._queue
        peek_at = queue.peek_at
        on_event_cb = proc._on_event_cb
        now = self._now  # constant for the whole call: no time passes here
        elided = 0
        try:
            while True:
                try:
                    target = gen_send(value)
                except StopIteration as stop:
                    proc.succeed(stop.value)
                    return
                except Interrupt:
                    proc.succeed(None)
                    return
                except BaseException as exc:
                    proc.fail(exc)
                    self._crashed(proc, exc)
                    return
                if not isinstance(target, Event):
                    exc = SimError(
                        f"process {proc.name!r} yielded {target!r}; processes "
                        "must yield Event objects (use engine.sleep for delays)"
                    )
                    proc.fail(exc)
                    self._crashed(proc, exc)
                    return
                proc._waiting_on = target
                if target._state == Event._PENDING:
                    target._callbacks.append(on_event_cb)
                    return
                due = queue._due  # re-read each pass: _advance rebinds it
                if target._exc is not None or (
                    (due[0][0] == now) if due else (peek_at() == now)
                ):
                    # failure delivery or same-tick siblings: generic hop
                    self._schedule(now, on_event_cb, target)
                    return
                if target is not self._done:  # its hop would not count either
                    elided += 1
                proc._waiting_on = None
                value = target._value
        finally:
            if elided:
                # keep the scheduled/fired ledger comparable: each
                # elided hop counts as one scheduled-and-fired dispatch
                self._scheduled += elided
                self._fired += elided
                self._inlined += elided

    @property
    def crashes(self) -> list[tuple[SimProcess, BaseException]]:
        return list(self._crashes)

    @property
    def idle(self) -> bool:
        return len(self._queue) == 0

    # -- introspection ----------------------------------------------------
    def stats(self) -> dict:
        """Scheduling accounting: events scheduled/fired/cancelled (of
        the fired, ``inlined`` never touched the queue; ``requeued``
        same-tick hops did and are not among them), plus
        the queue's own structure-specific counters (tombstones pending
        and popped, wheel occupancy, overflow spills...)."""
        return {
            "substrate": self.substrate,
            "now_ps": self._now,
            "scheduled": self._scheduled,
            "fired": self._fired,
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
        queue_stats = self._queue.stats()
        reg.total("sim.calendar.scheduled", self._scheduled)
        reg.total("sim.calendar.fired", self._fired)
        reg.total("sim.calendar.cancelled", self._cancelled)
        reg.total("sim.calendar.inlined", self._inlined)
        reg.total("sim.calendar.tombstones_popped",
                  queue_stats.get("tombstones_popped", 0))
        reg.gauge("sim.calendar.pending").set(len(self._queue))
        reg.gauge("sim.calendar.tombstones").set(
            queue_stats.get("tombstones", 0))
