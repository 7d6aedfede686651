"""Common NIC machinery.

A NIC sits between a :class:`repro.hw.link.Link` and the node's kernel.
Receive DMA places frame bytes into node memory and hands the kernel an
:class:`RxDescriptor`; the kernel (not the NIC) charges CPU time for
interrupt handling, cache flushing and demultiplexing, because those are
software costs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, TYPE_CHECKING

from ...sim.engine import Engine
from ...telemetry.tracecontext import adopt_rx_context, attach_tx_context
from ..calibration import Calibration
from ..link import Frame, Link
from .rss import RssDispatcher

if TYPE_CHECKING:  # pragma: no cover
    from ...telemetry.spans import Span
    from ..memory import PhysicalMemory
    from ..node import Node

__all__ = ["RxDescriptor", "Nic"]


@dataclass
class RxDescriptor:
    """Where a received frame landed, and what the receive path has
    done with it since: the one object that knows a message from DMA to
    replenish."""

    nic: "Nic"
    frame: Frame
    addr: int              #: physical address of the DMA'd payload
    length: int            #: payload length in bytes
    vci: Optional[int]     #: AN2 virtual circuit, None for Ethernet
    striped: bool = False  #: True when the DMA engine striped the data
    dma_span: int = 0      #: bytes of memory the DMA engine occupied
                           #: (striped layouts occupy more than ``length``):
                           #: what the driver's cache flush must cover and
                           #: a handler's message window spans
    core: int = 0          #: cpu the RSS dispatch stage steered this to
    span: Optional["Span"] = None  #: packet-lifecycle span (telemetry on)
    #: ``addr`` is one of the endpoint's kernel copy-out buffers now, not
    #: the device's ring slot
    kbuf: bool = False
    #: the tenant's quota reclaim already returned the buffer: the
    #: application's late replenish must not insert it again
    tenant_revoked: bool = False
    #: the ASH that just passed on this message was aborted involuntarily
    ash_aborted: bool = False


class Nic:
    """Base class: link attachment, tx, rx dispatch and drop counting."""

    #: subclasses set a human-readable medium name
    medium = "nic"
    #: who lends the memory frames are DMA'd into: False = the
    #: application (AN2; the normal path is zero-copy), True = a scarce
    #: device-owned ring the kernel must copy out of (Ethernet)
    owns_rx_buffers = False
    #: the driver's CPU cost per received frame (incl. the post-DMA
    #: cache flush) and per in-kernel transmit, in µs; subclasses set
    #: both from their calibration
    driver_recv_us = 0.0
    kernel_send_us = 0.0

    def __init__(self, engine: Engine, cal: Calibration,
                 memory: "PhysicalMemory", name: str):
        self.engine = engine
        self.cal = cal
        self.memory = memory
        self.name = name
        self.link: Optional[Link] = None
        self.link_end: int = 0
        #: the kernel installs this; called with an RxDescriptor
        self.rx_callback: Optional[Callable[[RxDescriptor], None]] = None
        #: the kernel installs this on SMP nodes; called with
        #: ``(nic, core)`` after a descriptor lands on a per-core ring
        self.rx_kick: Optional[Callable[["Nic", int], None]] = None
        #: the owning node, installed by :meth:`bind` (via ``add_nic``);
        #: a standalone NIC (unit tests) keeps None and runs untelemetered
        self.node: Optional["Node"] = None
        #: the owning node's telemetry hub, installed by :meth:`bind`
        self.telemetry = None
        # -- receive-side scaling (re-homed by bind on SMP nodes) -------
        self.ncores = 1
        #: frames drained per kernel handoff (bind copies the node's)
        self.rx_batch = 1
        #: True once descriptors go through per-core rings + rx_kick
        #: instead of one rx_callback event per frame
        self.batched = False
        self.rx_rings: list[deque] = [deque()]
        self.ring_peaks: list[int] = [0]
        #: drain bursts the kernel ran per core (it counts them here,
        #: beside the rings they drain)
        self.rx_batches: list[int] = [0]
        #: the dispatch stage; created at bind, replaceable via set_rss
        self.rss: Optional[RssDispatcher] = None
        self.rx_frames = 0
        self.tx_frames = 0
        self.rx_bytes = 0
        self.rx_dropped = 0
        #: True while the owning node is crashed: the device neither
        #: receives (frames drop as ``node_down``) nor transmits
        self.down = False
        #: why frames were dropped, by reason (backpressure telemetry)
        self.drop_reasons: dict[str, int] = {}
        #: fault-injection seam: a FaultPlane installs a NicStress here
        #: (see repro.sim.faults); None = the device behaves
        self.stress = None
        #: tenant-admission seam: a TenantManager installs itself here
        #: (see repro.ash.tenancy); None = no per-tenant quotas
        self.admission = None

    def bind(self, node: "Node") -> "Nic":
        """Adopt the owning node's telemetry and topology.

        One atomic step (called by ``Node.add_nic``) instead of the old
        post-hoc attribute pokes, so a NIC can never run half-configured:
        either it is bound — telemetry, rings and RSS all wired — or it
        is a deliberately standalone unit-test device.
        """
        if self.node is node:
            return self
        if self.node is not None:
            raise RuntimeError(
                f"{self.name}: already bound to node {self.node.name}"
            )
        if node.memory is not self.memory:
            raise RuntimeError(
                f"{self.name}: constructed over a different memory than "
                f"node {node.name}'s"
            )
        if self.tx_frames or self.rx_frames:
            # the failure mode bind exists to kill: a NIC that carried
            # traffic before attach silently ran with telemetry=None
            raise RuntimeError(
                f"{self.name}: carried traffic ({self.tx_frames} tx / "
                f"{self.rx_frames} rx frames) before being bound to "
                f"{node.name} — bind the NIC before attaching workloads"
            )
        self.node = node
        self.telemetry = node.telemetry
        node.telemetry.add_collector(self._collect)
        self.ncores = node.ncores
        self.rx_batch = node.rx_batch
        # single-core nodes keep the direct one-event-per-frame handoff
        # (identical event schedule to the pre-SMP kernel) unless the
        # node explicitly asked for batching
        self.batched = node.ncores > 1 or node.rx_batch_opt is not None
        self.rx_rings = [deque() for _ in range(self.ncores)]
        self.ring_peaks = [0] * self.ncores
        self.rx_batches = [0] * self.ncores
        if self.rss is None:
            self.rss = RssDispatcher(self.ncores)
        else:  # installed before bind: re-home it
            self.rss.rebind(self.ncores)
        return self

    def set_rss(self, dispatcher: RssDispatcher) -> RssDispatcher:
        """Install an application-defined dispatch stage (pluggable the
        way a DPF filter is: policy from above, mechanism stays here)."""
        dispatcher.rebind(self.ncores)
        self.rss = dispatcher
        return dispatcher

    def attach(self, link: Link, end: int) -> None:
        self.link = link
        self.link_end = end
        link.attach(end, self._on_wire_frame)

    # -- transmit ----------------------------------------------------------
    def transmit(self, frame: Frame) -> None:
        """Hand a frame to the DMA engine (no CPU charge here)."""
        if self.link is None:
            raise RuntimeError(f"{self.name}: not attached to a link")
        if self.down:
            self.drop_reasons["node_down_tx"] = \
                self.drop_reasons.get("node_down_tx", 0) + 1
            return
        self.tx_frames += 1
        tel = self.telemetry
        if tel is not None and tel.enabled:
            # trace context rides Frame.meta: sidecar only, never part
            # of len(frame) and therefore of any wire or CPU cost
            attach_tx_context(tel, self.engine, frame)
        self.link.send(self.link_end, frame)

    # -- receive ----------------------------------------------------------
    def _count_drop(self, reason: str) -> None:
        """One dropped rx frame, attributed to ``reason``."""
        self.rx_dropped += 1
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1

    def _on_wire_frame(self, frame: Frame) -> None:
        """The first two stages of the receive pipeline: *admit* (node
        up, injected stress, tenant quota, a free buffer to DMA into)
        and *steer* (RSS picks the core, the kernel is handed the
        descriptor)."""
        if self.down:
            self._count_drop("node_down")
            return
        stress = self.stress
        if stress is not None:
            frame = stress.on_rx(frame)
            if frame is None:  # injected ring exhaustion
                self._count_drop("stress_exhaust")
                return
        admission = self.admission
        if admission is not None:
            # per-tenant quota check *before* DMA: a clipped frame
            # consumes no buffer, no interrupt and no CPU, so one
            # tenant's flood cannot perturb another tenant's schedule
            reason = admission.check(self, frame)
            if reason is not None:
                self._count_drop(reason)
                return
        desc = self._dma(frame)
        if isinstance(desc, str):
            self._count_drop(desc)
            return
        self.rx_frames += 1
        self.rx_bytes += desc.length
        tel = self.telemetry
        if tel is not None and tel.enabled:
            # the packet-lifecycle span starts here, riding on the
            # descriptor through the whole delivery hierarchy
            now = self.engine.now
            span = tel.spans.begin(f"{self.name}.rx", now)
            span.stage("nic_rx", now)
            adopt_rx_context(tel, frame, span)
            desc.span = span
        # the RSS dispatch stage runs on every successfully DMA'd frame
        # (dropped frames are never steered, so per-core steered counts
        # always sum to rx_frames), *before* any kernel demultiplexing
        core = self.rss.steer(desc) if self.rss is not None else 0
        if self.batched:
            ring = self.rx_rings[core]
            ring.append(desc)
            depth = len(ring)
            if depth > self.ring_peaks[core]:
                self.ring_peaks[core] = depth
            if self.rx_kick is not None:
                self.rx_kick(self, core)
        elif self.rx_callback is not None:
            self.rx_callback(desc)

    def _collect(self, reg) -> None:
        """The device's ledgers, the per-core rings and the dispatch
        stage in front of them (read off whichever dispatcher is
        installed now) as ``nic.*`` / ``core.*`` / ``rss.*``."""
        nic = self.name
        reg.total("nic.rx_frames", self.rx_frames, nic=nic)
        reg.total("nic.rx_bytes", self.rx_bytes, nic=nic)
        reg.total("nic.tx_frames", self.tx_frames, nic=nic)
        for reason, n in self.drop_reasons.items():
            if reason != "node_down_tx":    # the one transmit-side reason
                reg.total("nic.rx_dropped", n, nic=nic, reason=reason)
        rss = self.rss
        for core, ring in enumerate(self.rx_rings):
            label = str(core)
            reg.total("core.rx_batches", self.rx_batches[core],
                      nic=nic, core=label)
            reg.gauge("core.ring_depth", nic=nic, core=label).set(len(ring))
            reg.gauge("core.ring_peak_depth", nic=nic, core=label) \
                .set(self.ring_peaks[core])
            reg.total("rss.steered", rss.steered[core], nic=nic, core=label)
        reg.total("rss.migrations", rss.migrations, nic=nic)

    def _dma(self, frame: Frame) -> RxDescriptor | str:
        """Place the frame in memory, or name the reason it is dropped."""
        raise NotImplementedError

    def recycle(self, desc: RxDescriptor) -> None:
        """Software is done with ``desc``'s receive buffer: make it
        available to the DMA engine again."""
        raise NotImplementedError
