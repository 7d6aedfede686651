"""Trusted kernel entry points callable from handlers.

Section III-B2: "The ASH system therefore uses semantics to obtain
efficiency by providing the capability of accessing message data
through specialized trusted function calls, implemented in the kernel.
These calls allow access checks to be aggregated at initiation time."

The environment built here is shared by ASHs and upcalls; the *costs*
differ by mode:

* ``ash`` mode — the handler is already in the kernel, so ``ash_send``
  pays only the kernel transmit path (this is the latency win the paper
  measures), and ``ash_dilp`` pays one aggregated region check plus the
  integrated loop itself.
* ``upcall`` mode — the handler runs at user level, so a send pays the
  user send path and two kernel crossings on top of the transmit path.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..errors import MemoryFault, VcodeError
from ..hw.link import Frame
from ..pipes.compiler import TransferMode
from ..vcode.vm import TrustedCallContext

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.nic.base import Nic, RxDescriptor
    from ..kernel.kernel import Endpoint, Kernel

__all__ = ["AshNotification", "HandlerEnv", "build_handler_env"]


class AshNotification:
    """A lightweight 'data ready' token a handler posts to the owning
    process's notification ring (the message itself was consumed in the
    kernel; the application only needs a wakeup)."""

    __slots__ = ("source",)

    def __init__(self, source: str = "ash"):
        self.source = source


class HandlerEnv(dict):
    """The trusted-call table of one endpoint's handler, ``name -> call``:
    built once per endpoint and mode, then pointed at each message by
    :meth:`arm` (the calls read the message, its regions and where its
    sends go from here, not from closures made per message)."""

    __slots__ = ("desc", "pending", "allowed", "msg")

    def arm(
        self,
        desc: "RxDescriptor",
        allowed: Optional[list[tuple[int, int]]],
        msg: Optional[tuple[int, int]],
    ) -> list[tuple["Nic", Frame]]:
        """Point the calls at the message ``desc``: ``allowed`` and the
        message window ``msg`` bound their accesses (both None: a
        trusted handler, unchecked).  Returns the fresh list its sends
        collect in; the kernel transmits them at the cycle offsets
        recorded in the handler's call log."""
        self.desc = desc
        self.allowed = allowed
        self.msg = msg
        self.pending = pending = []
        return pending


def _check_regions(env: HandlerEnv, addr: int, size: int, what: str) -> None:
    """The aggregated initiation-time check for a trusted call: the
    message window, then the handler's regions."""
    allowed = env.allowed
    if allowed is None:
        return
    base, rsize = env.msg
    if base <= addr and addr + size <= base + rsize:
        return
    for base, rsize in allowed:
        if base <= addr and addr + size <= base + rsize:
            return
    raise MemoryFault(
        f"trusted call: {what} range {addr:#x}+{size} outside the "
        f"handler's allowed regions"
    )


def build_handler_env(kernel: "Kernel", mode: str,
                      ep: "Endpoint") -> HandlerEnv:
    """Construct the trusted-call table of ``ep``'s handler.

    ``mode`` is ``"ash"`` or ``"upcall"`` (the send costs differ; see
    the module docstring).  :meth:`HandlerEnv.arm` must point it at a
    message before each run.
    """
    cal = kernel.cal
    mem = kernel.node.memory
    ash_system = kernel.ash_system
    env = HandlerEnv()

    if mode == "ash":
        send_cycles = cal.us_to_cycles(cal.an2_kernel_send_us)
    else:  # upcall: user send path + two crossings + kernel path
        send_cycles = cal.us_to_cycles(
            cal.user_send_path_us + 2 * cal.syscall_us + cal.an2_kernel_send_us
        )

    def ash_send(ctx: TrustedCallContext) -> tuple[int, int]:
        buf, length, vci = ctx.args(3)
        _check_regions(env, buf, length, "send source")
        payload = mem.read(buf, length)
        env.pending.append((env.desc.nic, Frame(payload, vci=vci)))
        return 0, send_cycles

    def ash_dilp(ctx: TrustedCallContext) -> tuple[int, int]:
        ilp_id, src, dst, length = ctx.args(4)
        pipeline = ash_system.get_ilp(ilp_id)
        cycles = cal.trusted_call_check_cycles
        _check_regions(env, src, length, "dilp source")
        if pipeline.mode is TransferMode.WRITE:
            _check_regions(env, dst, length, "dilp destination")
        cycles += pipeline.run(mem, src, dst, length, kernel.node.dcache)
        return 0, cycles

    def ash_ilp_get(ctx: TrustedCallContext) -> tuple[int, int]:
        """Read a pipe's first persistent state variable (e.g. the
        checksum accumulator) after a transfer."""
        ilp_id, pipe_id = ctx.args(2)
        pipeline = ash_system.get_ilp(ilp_id)
        pipe = pipeline.pl.pipe(pipe_id)
        if not pipe.state_vars:
            raise VcodeError(f"pipe {pipe.name} has no state to read")
        value = pipeline.pl.import_(pipe_id, pipe.state_vars[0])
        return value, cal.trusted_call_check_cycles

    def ash_ilp_set(ctx: TrustedCallContext) -> tuple[int, int]:
        """Export a value into a pipe's first persistent state variable
        (e.g. zero the checksum accumulator before a transfer)."""
        ilp_id, pipe_id, value = ctx.args(3)
        pipeline = ash_system.get_ilp(ilp_id)
        pipe = pipeline.pl.pipe(pipe_id)
        if not pipe.state_vars:
            raise VcodeError(f"pipe {pipe.name} has no state to set")
        pipeline.pl.export(pipe_id, pipe.state_vars[0], value)
        return 0, cal.trusted_call_check_cycles

    def ash_notify(ctx: TrustedCallContext) -> tuple[int, int]:
        """Wake the owning process: the data is already in place, it
        only needs to know."""
        ep.ring.put(AshNotification(mode))
        if ep.owner is not None:
            kernel.schedulers[ep.owner.core].on_packet(ep.owner)
        return 0, cal.us_to_cycles(cal.ash_notify_us)

    env.update(
        ash_send=ash_send,
        net_send=ash_send,          # alias used by upcall handlers
        ash_dilp=ash_dilp,
        ash_ilp_get=ash_ilp_get,
        ash_ilp_set=ash_ilp_set,
        ash_notify=ash_notify,
    )
    return env
