"""User processes: schedulable computations above the kernel.

A :class:`Process` wraps a generator (its *body*) that may only burn CPU
while the scheduler has it scheduled.  The body advances time through
the process API:

* ``yield from proc.compute_us(x)`` — user-mode computation,
* ``yield from proc.spin()`` — user-mode computation that never ends,
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

from ..hw.calibration import PRIO_USER
from ..hw.cpu import ENDLESS
from ..sim.engine import Event
from ..sim.queues import Channel, Gate

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
    def compute(self, cycles: int, *then: int) -> Generator[Event, Any, None]:
        """Burn user-mode cycles; only advances while scheduled.  Several
        counts are a run of back-to-back charges (no code between them).

        A run of charges is one CPU hold (:meth:`Cpu.run`) for all that
        is left, open to every waiter on the CPU and to this process's
        gate: it is cut at the next quantum boundary when anyone queues
        for the CPU or the scheduler ends the slice, and the rest waits
        its turn (and the gate) again.
        """
        return self.cpu.run([(int(n), PRIO_USER, True)
                             for n in (cycles, *then)], self)

    def compute_us(self, usec: float,
                   *then: float) -> Generator[Event, Any, None]:
        return self.compute(*map(self.cal.us_to_cycles, (usec, *then)))

    def spin(self) -> Generator[Event, Any, None]:
        """Compute for ever (a process that never blocks): one user-mode
        charge of :data:`~repro.hw.cpu.ENDLESS` cycles.  Each of its
        holds lasts until someone queues for the CPU or the slice ends
        (:meth:`Cpu.cut <repro.hw.cpu.Cpu.cut>`), as ``compute``'s do;
        none ends of itself, so a spin alone on its CPU fires no event."""
        return self.cpu.run(((ENDLESS, PRIO_USER, True),), self)

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

    def poll(self, channel: Channel,
             *then_us: float) -> Generator[Event, Any, Any]:
        """Poll a channel the way a polling receiver spins on the
        notification ring, then compute ``then_us`` (the receive path
        that follows the poll check, in the same run).

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
        yield from self.compute_us(self.cal.poll_check_us, *then_us)
        return item

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Process {self.name} pid={self.pid} {self.state.value}>"
