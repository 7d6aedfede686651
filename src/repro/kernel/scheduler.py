"""CPU schedulers: oblivious round-robin and interrupt-boost variants.

Fig. 4 of the paper compares three regimes for a message arriving at an
unscheduled process:

* **Aegis' round-robin** scheduler, *oblivious* to message arrival — the
  process sees the message only when its turn comes around, so latency
  grows with the number of competing processes;
* an **interrupt-boost** scheduler (Ultrix-style): "raises the priority
  of a process immediately after a network interrupt" — latency grows
  only mildly (run-queue work), but each wake costs a context switch;
* **ASHs**, which decouple the reply from scheduling entirely.

:class:`RoundRobinScheduler` implements the first; construct it with
``boost_on_packet=True`` for the second.  ``ultrix_costs=True``
additionally charges the heavyweight-kernel interrupt path the paper
attributes to Ultrix.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional, TYPE_CHECKING

from ..hw.calibration import PRIO_KERNEL
from ..sim.engine import Engine, Event
from ..sim.units import us
from .process import ProcessState

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel
    from .process import Process

__all__ = ["RoundRobinScheduler"]


class RoundRobinScheduler:
    """Time-sliced round robin with optional packet-arrival boosting."""

    def __init__(self, kernel: "Kernel", boost_on_packet: bool = False,
                 ultrix_costs: bool = False, core: int = 0):
        self.kernel = kernel
        self.engine: Engine = kernel.engine
        self.cal = kernel.cal
        self.boost_on_packet = boost_on_packet
        self.ultrix_costs = ultrix_costs
        #: which cpu this scheduler owns (one scheduler per core; an SMP
        #: kernel holds one instance per entry in ``node.cpus``)
        self.core = core
        self.cpu = kernel.node.cpus[core]
        self.ready: deque["Process"] = deque()
        self.current: Optional["Process"] = None
        self._slice_over: Optional[Event] = None
        self._wakeup: Optional[Event] = None
        self._last_scheduled: Optional["Process"] = None
        self.context_switches = 0
        self.packet_boosts = 0
        self.engine.spawn(
            self._loop(), name="scheduler" if core == 0 else f"scheduler{core}"
        )

    # -- run-queue operations (called by kernel/processes) -----------------
    def add(self, proc: "Process") -> None:
        self.ready.append(proc)
        self._kick()

    def on_block(self, proc: "Process") -> None:
        if proc is self.current:
            self._end_slice()
        else:
            self._remove(proc)

    def on_unblock(self, proc: "Process") -> None:
        self.ready.append(proc)
        self._kick()

    def on_exit(self, proc: "Process") -> None:
        if proc is self.current:
            self._end_slice()
        else:
            self._remove(proc)

    def on_packet(self, proc: "Process") -> None:
        """Kernel hook: a message arrived for ``proc``.

        Oblivious round robin ignores it.  The boost variant moves the
        process to the head of the queue and preempts the current slice
        (the kernel charges the interrupt-path cost separately).
        """
        if not self.boost_on_packet:
            return
        if proc is self.current or proc.state is not ProcessState.READY:
            return
        self._remove(proc)
        self.ready.appendleft(proc)
        self.packet_boosts += 1
        if self.current is not None:
            self._end_slice()
        self._kick()

    # -- helpers -----------------------------------------------------------
    def _remove(self, proc: "Process") -> None:
        try:
            self.ready.remove(proc)
        except ValueError:
            pass

    def _kick(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed(None)

    def _end_slice(self) -> None:
        if self._slice_over is not None and not self._slice_over.triggered:
            self._slice_over.succeed(None)

    @property
    def nprocs(self) -> int:
        return len(self.ready) + (1 if self.current is not None else 0)

    # -- the dispatch loop ------------------------------------------------
    def _loop(self) -> Generator[Event, None, None]:
        engine = self.engine
        cpu = self.cpu
        quantum_ticks = us(self.cal.quantum_us)
        while True:
            if not self.ready:
                self._wakeup = engine.event("sched.wakeup")
                yield self._wakeup
                self._wakeup = None
                continue
            proc = self.ready.popleft()
            if proc.state is not ProcessState.READY:
                continue
            if proc is not self._last_scheduled and self._last_scheduled is not None:
                # full context switch: address space + register state
                self.context_switches += 1
                yield from cpu.exec_us(self.cal.context_switch_us, PRIO_KERNEL)
            self._last_scheduled = proc
            self.current = proc
            self._slice_over = engine.event(f"slice.{proc.name}")
            quantum = engine.timeout(quantum_ticks)
            proc.gate.open()
            yield engine.any_of([quantum, self._slice_over])
            proc.gate.close()
            quantum.cancel()
            self._slice_over = None
            self.current = None
            if proc.state is ProcessState.READY:
                self.ready.append(proc)
