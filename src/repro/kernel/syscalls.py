"""The system-call interface processes use to reach the network.

Table I's user-level row pays for exactly this: "the time to schedule
the application, cross the kernel-user boundary multiple times, and use
the full system call interface".  Each ``sys_*`` method is a generator
to be driven from a process body with ``yield from``; it charges the
crossings and the kernel path, then performs the operation.

The interface is deliberately small — an exokernel exposes the hardware,
not abstractions: send a frame, poll/await the notification ring,
replenish receive buffers.  Handlers are installed from set-up code
through ``ash_system.download`` / ``bind`` (which validate the id), not
through a system call.
"""

from __future__ import annotations

from typing import Generator, TYPE_CHECKING

from ..hw.link import Frame

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.nic.base import Nic, RxDescriptor
    from .kernel import Endpoint
    from .process import Process

__all__ = ["SyscallInterface"]


class SyscallInterface:
    """Mixin for :class:`~repro.kernel.kernel.Kernel`: the syscall table."""

    # -- raw network --------------------------------------------------------
    def sys_net_send(self, proc: "Process", nic: "Nic", frame: Frame,
                     user_path: bool = True) -> Generator:
        """Full user-level send: buffer allocation, descriptor writes,
        the send system call, and the kernel transmit path."""
        if user_path:
            yield from proc.compute_us(self.cal.user_send_path_us)
        yield from proc.syscall_enter()
        yield from self.kernel_send(nic, frame, cpu=proc.cpu)
        yield from proc.syscall_exit()

    def sys_recv_poll(self, proc: "Process", ep: "Endpoint") -> Generator:
        """Poll the (user-mapped) notification ring until a message is
        available, then pay the user receive path."""
        desc = yield from proc.poll(ep.ring)
        yield from proc.compute_us(self.cal.user_recv_path_us)
        return desc

    def sys_recv_block(self, proc: "Process", ep: "Endpoint") -> Generator:
        """Sleep until a message arrives (the interrupt-driven path)."""
        ok, desc = ep.ring.try_get()
        if not ok:
            desc = yield from proc.block_on(ep.ring.get())
        yield from proc.compute_us(self.cal.user_recv_path_us)
        return desc

    def sys_replenish(self, proc: "Process", ep: "Endpoint",
                      desc: "RxDescriptor") -> Generator:
        """Return a receive buffer to the device (AN2) or ring (Ethernet).

        The paper: the application may use buffers directly "as long as
        it eventually returns or replaces them".  The cost is part of
        the user receive path already charged.
        """
        yield from self._replenish(ep, desc)
