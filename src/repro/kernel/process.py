"""User processes: schedulable computations above the kernel.

A :class:`Process` wraps a generator (its *body*) that may only burn CPU
while the scheduler has it scheduled.  The body advances time through
the process API:

* ``yield from proc.compute_us(x)`` — user-mode computation,
* ``yield from proc.syscall_enter()/syscall_exit()`` — kernel crossings,
* ``yield from proc.block_on(event)`` — leave the run queue until the
  event fires, then wait to be scheduled again,
* ``yield from proc.poll(channel)`` — spin (scheduled) until an item
  arrives, the way the paper's latency benchmarks poll the notification
  ring.

The split between *runnable* and *scheduled* is what the paper's Fig. 4
and Table V measure: a message for a process that is runnable but not
scheduled waits for the scheduler unless an ASH or upcall handles it.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator, Optional, TYPE_CHECKING

from ..hw.calibration import PRIO_KERNEL, PRIO_USER
from ..hw.cpu import YIELD_TO_ANY
from ..sim.engine import Event
from ..sim.queues import Channel, Gate
from ..sim.units import CYCLE_PS

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel

__all__ = ["Process", "ProcessState"]


class ProcessState(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"
    DONE = "done"


class Process:
    """One user process on a node."""

    _next_pid = 1

    def __init__(self, kernel: "Kernel", name: str,
                 body: Optional[Callable[["Process"], Generator]] = None,
                 core: int = 0):
        self.kernel = kernel
        self.engine = kernel.engine
        self.cal = kernel.cal
        self.name = name
        #: home core: the cpu charged for this process's computation and
        #: the scheduler whose run queue it lives on
        self.core = core
        self.cpu = kernel.node.cpus[core]
        self.scheduler = kernel.schedulers[core]
        self.pid = Process._next_pid
        Process._next_pid += 1
        self.state = ProcessState.READY
        self.gate = Gate(self.engine, f"{name}.gate")
        self.body = body
        self.sim_proc = None
        #: cumulative scheduled CPU time the process consumed (ticks)
        self.user_ticks = 0

    # -- lifecycle --------------------------------------------------------
    def start(self):
        """Register with the scheduler and begin executing the body."""
        if self.body is None:
            raise ValueError(f"{self.name}: no body to run")
        self.scheduler.add(self)
        self.sim_proc = self.engine.spawn(self._wrapper(), name=self.name)
        return self.sim_proc

    def _wrapper(self) -> Generator:
        try:
            result = yield from self.body(self)
            return result
        finally:
            self.state = ProcessState.DONE
            self.scheduler.on_exit(self)

    # -- computation -------------------------------------------------------
    def compute(self, cycles: int) -> Generator[Event, Any, None]:
        """Burn user-mode cycles; only advances while scheduled.

        Each pass is one CPU hold (:meth:`Cpu.begin_hold`) for all that
        is left, open to every waiter on the CPU and to this process's
        gate: it is cut at the next quantum boundary when anyone queues
        for the CPU or the scheduler ends the slice, and the rest waits
        its turn (and the gate) again.
        """
        cpu = self.cpu
        engine = self.engine
        lock = cpu.lock
        gate = self.gate
        passes = engine.passes
        remaining = int(cycles)
        while remaining > 0:
            scheduled = gate.wait()
            if not passes(scheduled):
                yield scheduled
            ustart = engine._now
            granted = lock.acquire(PRIO_USER)
            if not passes(granted):
                yield granted
            start = engine._now
            timer = cpu.begin_hold(remaining, YIELD_TO_ANY, gate)
            try:
                yield timer
            finally:
                charged = cpu.end_hold()
                lock.release()
                if charged:
                    # waiting for the CPU counts once the wait bought
                    # a completed quantum (an interrupted first one
                    # leaves no trace)
                    self.user_ticks += start - ustart + charged * CYCLE_PS
                remaining -= charged

    def compute_us(self, usec: float) -> Generator[Event, Any, None]:
        return self.compute(self.cal.us_to_cycles(usec))

    # -- kernel interaction ---------------------------------------------------
    def syscall_enter(self) -> Generator[Event, Any, None]:
        """Cross into the kernel (charged at kernel priority)."""
        scheduled = self.gate.wait()
        if not self.engine.passes(scheduled):
            yield scheduled
        yield from self.cpu.exec_us(self.cal.syscall_us, PRIO_KERNEL)

    def syscall_exit(self) -> Generator[Event, Any, None]:
        return self.cpu.exec_us(self.cal.syscall_us, PRIO_KERNEL)

    # -- waiting ----------------------------------------------------------
    def block_on(self, event: Event) -> Generator[Event, Any, Any]:
        """Leave the run queue until ``event`` fires."""
        self.state = ProcessState.BLOCKED
        self.scheduler.on_block(self)
        value = yield event
        self.state = ProcessState.READY
        self.scheduler.on_unblock(self)
        scheduled = self.gate.wait()
        if not self.engine.passes(scheduled):
            yield scheduled
        return value

    def poll(self, channel: Channel) -> Generator[Event, Any, Any]:
        """Poll a channel the way a polling receiver spins on the
        notification ring.

        Modelled event-driven for simulation efficiency: the process
        "discovers" the item one poll-check after it arrives (and only
        while scheduled), which is the same observable behaviour as a
        tight try_get loop without generating an event per spin.  While
        waiting, the process releases its run-queue slot (a real poller
        would burn it; arrival-discovery timing is identical either way,
        and an idle simulation can terminate).
        """
        ok, item = channel.try_get()
        if not ok:
            item = yield from self.block_on(channel.get())
        yield from self.compute_us(self.cal.poll_check_us)
        return item

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Process {self.name} pid={self.pid} {self.state.value}>"
