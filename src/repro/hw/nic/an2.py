"""AN2 ATM network interface.

Models the properties Section IV-A relies on:

* **Demultiplexing by virtual circuit**: "the AN2 device is securely
  exported by using the ATM connection identifier to demultiplex
  packets."
* **Application-provided receive buffers**: "processes bind to a
  virtual circuit identifier, providing a section of their memory for
  messages to be DMA'ed to" — the NIC "can DMA messages into any
  location in physical memory" (Section V-A1), which is what makes true
  zero-copy possible.
* **A notification ring per VC** shared between kernel and user, so a
  polling application can discover arrivals without a system call.

A frame arriving on an unbound VCI, or on a VCI whose buffer ring is
exhausted, is dropped (counted in ``rx_dropped``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from ...errors import DemuxError
from ..link import Frame
from .base import Nic, RxDescriptor

__all__ = ["An2Nic", "VcBinding"]


@dataclass
class VcBinding:
    """State for one bound virtual circuit."""

    vci: int
    buffers: deque          #: free (addr, size) pairs, FIFO
    owner: object = None    #: opaque owner tag (the binding process)
    #: refills refused under injected memory pressure, parked until the
    #: next successful replenish flushes them (no buffer is ever lost)
    deferred: list = None

    def replenish(self, addr: int, size: int) -> None:
        self.buffers.append((addr, size))


class An2Nic(Nic):
    medium = "an2"

    def __init__(self, engine, cal, memory, name: str = "an2"):
        super().__init__(engine, cal, memory, name)
        self.driver_recv_us = cal.an2_kernel_recv_us
        self.kernel_send_us = cal.an2_kernel_send_us
        self._bindings: dict[int, VcBinding] = {}

    # -- virtual circuits ---------------------------------------------------
    def bind_vci(self, vci: int, buffers: list[tuple[int, int]],
                 owner: object = None) -> VcBinding:
        """Bind ``vci`` with an initial set of (addr, size) rx buffers."""
        if vci in self._bindings:
            raise DemuxError(f"VCI {vci} already bound on {self.name}")
        for _addr, size in buffers:
            if size < self.cal.an2_max_packet:
                raise DemuxError(
                    f"VCI {vci}: rx buffer of {size} bytes is smaller than "
                    f"the {self.cal.an2_max_packet}-byte maximum packet"
                )
        binding = VcBinding(vci=vci, buffers=deque(buffers), owner=owner)
        self._bindings[vci] = binding
        return binding

    def unbind_vci(self, vci: int) -> list[tuple[int, int]]:
        """Drop the binding; returns every buffer it still held (free
        ones first, then refills parked under memory pressure)."""
        binding = self._bindings.pop(vci, None)
        if binding is None:
            return []
        return list(binding.buffers) + (binding.deferred or [])

    def binding(self, vci: int) -> Optional[VcBinding]:
        return self._bindings.get(vci)

    def replenish(self, vci: int, addr: int, size: int) -> None:
        """Return (or replace) a receive buffer for ``vci``.

        The paper: "The application is allowed to use those message
        buffers directly, as long as it eventually returns or replaces
        them."
        """
        binding = self._bindings.get(vci)
        if binding is None:
            raise DemuxError(f"VCI {vci} not bound on {self.name}")
        if self.memory.pressure_gate("rx_refill"):
            # degradation, not loss: the refused refill is parked and
            # flushed by the next successful one — meanwhile the ring is
            # one buffer shorter, so sustained pressure shows up as
            # ``no_buffer`` drops, never as a vanished buffer
            if binding.deferred is None:
                binding.deferred = []
            binding.deferred.append((addr, size))
            return
        binding.replenish(addr, size)
        if binding.deferred:
            for pair in binding.deferred:
                binding.replenish(*pair)
            binding.deferred = None

    def recycle(self, desc: RxDescriptor) -> None:
        self.replenish(desc.vci, desc.addr, self.cal.an2_max_packet)

    # -- DMA ----------------------------------------------------------------
    def _dma(self, frame: Frame) -> RxDescriptor | str:
        binding = self._bindings.get(frame.vci)
        if binding is None:
            return "unbound_vci"
        if not binding.buffers:
            # defer before drop: a tenant at its held-buffer quota gets
            # its oldest outstanding buffer revoked back into the ring
            if self.admission is not None:
                self.admission.on_ring_empty(self, frame.vci)
            if not binding.buffers:
                if self.admission is not None:
                    self.admission.note_no_buffer(self, frame.vci)
                return "no_buffer"
        if len(frame.data) > self.cal.an2_max_packet:
            return "oversize"
        addr, _size = binding.buffers.popleft()
        self.memory.write(addr, frame.data)
        return RxDescriptor(
            nic=self,
            frame=frame,
            addr=addr,
            length=len(frame.data),
            vci=frame.vci,
            striped=False,
            dma_span=len(frame.data),
        )
