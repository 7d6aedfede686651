"""Fast asynchronous upcalls: the paper's comparison mechanism.

Section V: "We implemented fast asynchronous upcalls to compare ASHs
with.  Upcalls involve application code (a handler) being run at user
level in response to a message.  Because this code is not being
downloaded into the kernel, it does not need to be made safe.  Although
an upcall requires a switch to user space to run the handler, a full
process switch is unnecessary" — Liedtke-style address-space switch
rather than a context switch.

An upcall handler here is the *same VCODE program* an ASH would be
(unsandboxed, since user-level hardware protection guards it), executed
with user-level costs: dispatch pays the kernel→user switch, and any
reply the handler sends pays the system-call path an application would
pay.  The paper notes its upcall implementation batches messages to
amortize kernel crossings — ``upcall_batch_check_us`` models that
machinery's per-message cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, TYPE_CHECKING

from ..errors import VmFault
from ..hw.calibration import PRIO_INTERRUPT
from ..vcode.isa import Program

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.nic.base import RxDescriptor
    from .kernel import Endpoint, Kernel

__all__ = ["UpcallHandler", "UpcallManager"]


@dataclass
class UpcallHandler:
    """A registered user-level message handler."""

    program: Program
    user_word: int = 0
    name: str = "upcall"
    invocations: int = 0
    faults: int = 0


class UpcallManager:
    """Dispatches upcalls from the receive interrupt path."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.cal = kernel.cal

    def dispatch(
        self, ep: "Endpoint", handler: UpcallHandler, desc: "RxDescriptor"
    ) -> Generator:
        """Run the handler at user level; returns True if it consumed
        the message."""
        kernel = self.kernel
        cpu = kernel.node.cpus[desc.core]
        cal = self.cal
        tel = kernel.node.telemetry
        span = desc.span
        # batching machinery + switch into the application's address space
        yield from cpu.exec_us(
            cal.upcall_batch_check_us + cal.upcall_dispatch_us, PRIO_INTERRUPT
        )
        if kernel.crashed:
            # the kernel died while we were switching address spaces:
            # the handler (and its pipe lists) no longer exist
            return False
        handler.invocations += 1
        if span is not None:
            span.stage("upcall", kernel.engine.now)
        if tel.enabled:
            tel.counter("upcall.invocations", handler=handler.name).inc()

        env = ep.upcall_env
        if env is None:
            from ..ash.interface import build_handler_env  # lazy: no cycle

            env = ep.upcall_env = build_handler_env(kernel, "upcall", ep)
        pending = env.arm(desc, None, None)
        try:
            result = kernel.vm.run(
                handler.program,
                args=(desc.addr, desc.length, handler.user_word),
                env=env,
            )
        except VmFault as exc:
            # At user level a fault would take down the app, not the
            # kernel; for the benchmarks we just account the time burnt.
            handler.faults += 1
            if tel.enabled:
                tel.counter("upcall.faults", handler=handler.name).inc()
            yield from cpu.run((
                (getattr(exc, "cycles", 0), PRIO_INTERRUPT, False),
                (cal.us_to_cycles(cal.upcall_return_us), PRIO_INTERRUPT,
                 False)))
            return False
        yield from kernel.charge_with_sends(
            cpu, result, pending, PRIO_INTERRUPT,
            cal.us_to_cycles(cal.upcall_return_us))
        if tel.enabled:
            tel.counter("upcall.cycles_total",
                        handler=handler.name).inc(result.cycles)
        return result.value == 1
