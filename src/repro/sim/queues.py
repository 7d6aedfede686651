"""Blocking primitives and event-queue structures for the simulator.

Process-facing primitives:

* :class:`Channel` — an unbounded FIFO of messages (NIC notification
  rings, socket receive queues, inter-process mailboxes),
* :class:`PriorityLock` — a mutual-exclusion lock with priorities (the
  CPU: interrupt-level work preempts user-level work at charge-quantum
  boundaries; the holder's timed *hold* is told when such a waiter
  queues),
* :class:`Gate` — a reusable level-triggered condition (scheduler
  "you are now running" signals; closing it cuts the running hold).

Engine-facing event queues (see :mod:`repro.sim.engine`):

* :class:`HeapEventQueue` — the legacy single binary heap,
* :class:`CalendarQueue` — a bucketed calendar queue with a heap
  fallback for far-future events.

Both pop entries in exactly the same ``(time, seq)`` order, which is
what lets ``REPRO_SIM_SUBSTRATE`` switch between them without changing
any simulated result.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle: engine imports us
    from .engine import Engine, Event

__all__ = [
    "Channel",
    "PriorityLock",
    "Gate",
    "HeapEventQueue",
    "CalendarQueue",
]


# ---------------------------------------------------------------------------
# event queues
# ---------------------------------------------------------------------------
#
# An *entry* is the mutable list ``[at, seq, fn, args, slot]``.  ``at`` is
# the fire time in ticks, ``seq`` the engine's tie-breaking sequence
# number (unique, so heap comparisons never reach ``fn``), ``fn`` the
# callback (``None`` once cancelled — a tombstone), and ``slot`` the
# calendar-wheel bucket currently holding the entry (``None`` while it
# sits in a heap).  Wheel-resident entries cancel by physical removal;
# heap-resident ones become tombstones that the engine's run loop pops
# and skips.


class HeapEventQueue:
    """The legacy substrate: one binary heap of entries."""

    kind = "heap"

    def __init__(self) -> None:
        self._heap: list[list] = []
        self.tombstones = 0          #: pending cancelled entries
        self.tombstones_popped = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, entry: list) -> None:
        heapq.heappush(self._heap, entry)

    def peek_at(self) -> Optional[int]:
        return self._heap[0][0] if self._heap else None

    def pop(self) -> list:
        entry = heapq.heappop(self._heap)
        if entry[2] is None:
            self.tombstones -= 1
            self.tombstones_popped += 1
        return entry

    def pop_due(self, until: Optional[int] = None) -> Optional[list]:
        """Combined peek+pop: the next entry, or ``None`` when the queue
        is empty or the head fires beyond ``until``."""
        heap = self._heap
        if not heap or (until is not None and heap[0][0] > until):
            return None
        entry = heapq.heappop(heap)
        if entry[2] is None:
            self.tombstones -= 1
            self.tombstones_popped += 1
        return entry

    def cancel(self, entry: list) -> None:
        if entry[2] is not None:
            entry[2] = None
            entry[3] = ()
            self.tombstones += 1

    def stats(self) -> dict:
        return {
            "kind": self.kind,
            "pending": len(self._heap),
            "tombstones": self.tombstones,
            "tombstones_popped": self.tombstones_popped,
        }


class CalendarQueue:
    """A calendar queue (Brown 1988) with a far-future heap fallback.

    Three tiers, ordered by fire time:

    * ``_due`` — a small heap holding every entry below ``_dlim``; the
      global minimum always lives here once :meth:`peek_at` has run.
    * the *wheel* — ``nbuckets`` dict buckets of ``width`` ticks each,
      covering ``[_dlim, _wend)``.  Dict buckets give O(1) insert *and*
      O(1) cancel-by-removal, which is what kills timer-tombstone
      buildup.
    * ``_overflow`` — a heap for everything at or beyond ``_wend``
      (e.g. coarse TCP retransmission timers many windows out).  When
      the wheel drains, the window is re-based at the overflow minimum
      and entries spill back in.

    Pops occur in exactly ``(at, seq)`` order: every wheel/overflow
    entry is ``>= _dlim`` while ``_due`` holds everything below it, so
    advancing bucket-by-bucket preserves the total order a single heap
    would produce (``tests/test_sim_calendar_queue.py`` pins this
    against :class:`HeapEventQueue` under randomized schedules).
    """

    kind = "calendar"

    #: default bucket width in ticks (2 µs: around the typical gap
    #: between adjacent CPU/NIC events in the modelled workloads)
    WIDTH = 2_000_000
    NBUCKETS = 1024

    @classmethod
    def for_horizon(cls, horizon_ticks: int,
                    nbuckets: int = NBUCKETS) -> "CalendarQueue":
        """A queue whose wheel spans the observed timer horizon.

        The default 2 µs width was sized for back-to-back CPU/NIC
        events; with 1024 buckets the wheel covers ~2 ms, so every
        coarse protocol timer (TCP retransmit at tens of ms, up to the
        full backed-off RTO) lands in the overflow heap — hundreds of
        ``overflow_spills`` per bench run, each one a heapq round-trip
        plus a tombstone on cancel.  Sizing the width as
        ``horizon / nbuckets`` keeps those timers wheel-resident (O(1)
        insert and cancel) at the cost of coarser buckets, which pop
        order is immune to: ``_due`` always re-sorts a bucket before
        dispatch, so simulated results are bit-identical either way.
        """
        if horizon_ticks <= 0:
            raise ValueError("horizon must be positive")
        width = max(cls.WIDTH, -(-int(horizon_ticks) // nbuckets))
        return cls(nbuckets=nbuckets, width=width)

    def __init__(self, nbuckets: int = NBUCKETS, width: int = WIDTH) -> None:
        if nbuckets <= 0 or width <= 0:
            raise ValueError("nbuckets and width must be positive")
        self._nbuckets = nbuckets
        self._width = width
        self._due: list[list] = []
        self._wheel: list[dict[int, list]] = [dict() for _ in range(nbuckets)]
        self._overflow: list[list] = []
        self._dlim = width        # due covers [0, _dlim)
        self._wend = width * (nbuckets + 1)   # wheel covers [_dlim, _wend)
        self._wheel_count = 0
        # -- statistics --
        self.cancelled_removed = 0   #: cancels satisfied by bucket removal
        self.tombstones = 0          #: pending heap-resident cancels
        self.tombstones_popped = 0
        self.overflow_spills = 0     #: pushes landing beyond the wheel
        self.wheel_refills = 0       #: window re-basings from overflow

    def __len__(self) -> int:
        return len(self._due) + self._wheel_count + len(self._overflow)

    def push(self, entry: list) -> None:
        at = entry[0]
        if at < self._dlim:
            heapq.heappush(self._due, entry)
        elif at < self._wend:
            bucket = self._wheel[(at // self._width) % self._nbuckets]
            bucket[entry[1]] = entry
            entry[4] = bucket
            self._wheel_count += 1
        else:
            heapq.heappush(self._overflow, entry)
            self.overflow_spills += 1

    def _advance(self) -> bool:
        """Refill ``_due`` from the wheel (re-basing from overflow when
        the wheel is empty); False when nothing is pending anywhere."""
        width = self._width
        while True:
            while self._dlim < self._wend and self._wheel_count:
                bucket = self._wheel[(self._dlim // width) % self._nbuckets]
                self._dlim += width
                if bucket:
                    entries = list(bucket.values())
                    bucket.clear()
                    self._wheel_count -= len(entries)
                    for entry in entries:
                        entry[4] = None
                    self._due = entries
                    heapq.heapify(entries)
                    return True
            # wheel exhausted: re-base the window at the overflow minimum
            if not self._overflow:
                self._dlim = max(self._dlim, self._wend)
                self._wend = self._dlim + width * self._nbuckets
                return False
            self.wheel_refills += 1
            base = (self._overflow[0][0] // width) * width
            self._dlim = max(base, self._wend)
            self._wend = self._dlim + width * self._nbuckets
            overflow = self._overflow
            while overflow and overflow[0][0] < self._wend:
                self.push(heapq.heappop(overflow))

    def peek_at(self) -> Optional[int]:
        if not self._due and not self._advance():
            return None
        return self._due[0][0]

    def pop(self) -> list:
        if not self._due:
            self._advance()
        entry = heapq.heappop(self._due)
        if entry[2] is None:
            self.tombstones -= 1
            self.tombstones_popped += 1
        return entry

    def pop_due(self, until: Optional[int] = None) -> Optional[list]:
        """Combined peek+pop: the next entry, or ``None`` when nothing
        is pending or the global minimum fires beyond ``until``.  This
        is the engine fast loop's single per-event queue call."""
        due = self._due
        if not due:
            if not self._advance():
                return None
            due = self._due
        if until is not None and due[0][0] > until:
            return None
        entry = heapq.heappop(due)
        if entry[2] is None:
            self.tombstones -= 1
            self.tombstones_popped += 1
        return entry

    def cancel(self, entry: list) -> None:
        if entry[2] is None:
            return
        entry[2] = None
        entry[3] = ()
        bucket = entry[4]
        if bucket is not None:
            # wheel-resident: remove outright, no tombstone ever pops
            del bucket[entry[1]]
            entry[4] = None
            self._wheel_count -= 1
            self.cancelled_removed += 1
        else:
            self.tombstones += 1

    def stats(self) -> dict:
        return {
            "kind": self.kind,
            "pending": len(self),
            "nbuckets": self._nbuckets,
            "width": self._width,
            "due": len(self._due),
            "wheel": self._wheel_count,
            "overflow": len(self._overflow),
            "cancelled_removed": self.cancelled_removed,
            "tombstones": self.tombstones,
            "tombstones_popped": self.tombstones_popped,
            "overflow_spills": self.overflow_spills,
            "wheel_refills": self.wheel_refills,
        }


class Channel:
    """Unbounded FIFO channel.

    ``put`` never blocks; ``get`` returns an :class:`Event` that triggers
    with the next item (immediately, if one is queued).  Items are
    delivered in insertion order, one per waiter, in waiter-arrival
    order.
    """

    def __init__(self, engine: Engine, name: str = "chan"):
        self.engine = engine
        self.name = name
        self._items: deque[Any] = deque()
        self._waiters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._waiters:
            self._waiters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = self.engine.event(f"{self.name}.get")
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._waiters.append(ev)
        return ev

    def cancel_get(self, ev: Event) -> None:
        """Withdraw a pending ``get`` (e.g. when a timeout won instead)."""
        try:
            self._waiters.remove(ev)
        except ValueError:
            pass

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking poll: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None

    def peek(self) -> Any:
        return self._items[0] if self._items else None


class PriorityLock:
    """A mutex whose wait queue is ordered by (priority, arrival).

    Lower numbers are *more* urgent, matching interrupt-level semantics:
    priority 0 = device interrupt, larger = less urgent.  The lock never
    takes itself away from the holder — priorities only order the
    waiters — but a holder sitting in one long timed hold registers it
    as :attr:`hold`, and :meth:`acquire` cuts that hold back to its next
    charge-quantum boundary the moment it queues a waiter the holder
    yields to.  That models a CPU where interrupt handlers run at
    instruction (here: charge quantum) boundaries without the holder
    waking at every boundary to look.
    """

    def __init__(self, engine: Engine, name: str = "lock"):
        self.engine = engine
        self.name = name
        self._acquire_name = name + ".acquire"
        self._locked = False
        self._seq = 0
        self._waiters: list[tuple[int, int, Event]] = []
        #: the holder's open timed hold, or None: any object with a
        #: ``yield_below`` priority bound and a ``cut()`` method (the
        #: CPU, see :meth:`repro.hw.cpu.Cpu.cut`).  Set and cleared by
        #: the holder.
        self.hold = None

    @property
    def locked(self) -> bool:
        return self._locked

    @property
    def contended(self) -> bool:
        """True when someone is waiting for the lock."""
        return bool(self._waiters)

    def waiting_priority(self) -> Optional[int]:
        """Priority of the most urgent waiter, or None."""
        return self._waiters[0][0] if self._waiters else None

    def acquire(self, priority: int = 10) -> Event:
        if not self._locked:
            self._locked = True
            return self.engine._done
        ev = self.engine.event(self._acquire_name)
        self._seq += 1
        heapq.heappush(self._waiters, (priority, self._seq, ev))
        hold = self.hold
        if hold is not None and priority < hold.yield_below:
            hold.cut()
        return ev

    def release(self) -> None:
        if not self._locked:
            raise RuntimeError(f"{self.name}: release of unheld lock")
        if self._waiters:
            _prio, _seq, ev = heapq.heappop(self._waiters)
            ev.succeed(None)  # lock stays held, ownership transfers
        else:
            self._locked = False


class Gate:
    """A reusable level-triggered condition.

    ``wait()`` returns an event that triggers once the gate is open;
    while the gate is open waits pass through immediately.  Used by the
    scheduler: each process waits on its own gate, which the scheduler
    opens for the duration of the process's time slice.  A process
    computing through the gate registers its timed hold as :attr:`hold`
    (same contract as :attr:`PriorityLock.hold`); :meth:`close` cuts it
    back to the next charge-quantum boundary, where the process finds
    the gate shut.
    """

    def __init__(self, engine: Engine, name: str = "gate"):
        self.engine = engine
        self.name = name
        self._wait_name = name + ".wait"
        self._open = False
        self._waiters: deque[Event] = deque()
        self.hold = None

    @property
    def is_open(self) -> bool:
        return self._open

    def open(self) -> None:
        self._open = True
        while self._waiters:
            self._waiters.popleft().succeed(None)

    def close(self) -> None:
        self._open = False
        hold = self.hold
        if hold is not None:
            hold.cut()

    def wait(self) -> Event:
        if self._open:
            return self.engine._done
        ev = self.engine.event(self._wait_name)
        self._waiters.append(ev)
        return ev
