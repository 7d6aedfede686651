"""Canonical two-node testbeds.

The paper's measurements are all taken "on a pair of 40-MHz DECstation
5000/240s ... connected with an AN2 switch" (and, for the Ethernet
rows, a shared 10 Mb/s Ethernet).  These builders assemble that pair:
two nodes, their kernels, and the wire between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..errors import SimError
from ..hw.calibration import Calibration, DEFAULT
from ..hw.link import Link
from ..hw.nic.an2 import An2Nic
from ..hw.nic.ethernet import EthernetNic
from ..hw.node import Node
from ..kernel.kernel import Kernel
from ..sim.engine import Engine

__all__ = ["Testbed", "make_an2_pair", "make_eth_pair"]

#: conventional VCI assignments used throughout benches and examples
CLIENT_TO_SERVER_VCI = 1
SERVER_TO_CLIENT_VCI = 2


@dataclass
class Testbed:
    """Two nodes and the wire between them."""

    engine: Engine
    cal: Calibration
    client: Node
    server: Node
    link: Link
    client_nic: Any
    server_nic: Any
    #: installed by attach_fault_plane(); None = no injected faults
    fault_plane: Any = None

    @property
    def client_kernel(self) -> Kernel:
        return self.client.kernel

    @property
    def server_kernel(self) -> Kernel:
        return self.server.kernel

    def run(self, until: Optional[int] = None,
            max_virtual_s: float = 120.0) -> None:
        """Run the simulation.

        ``max_virtual_s`` is a safety cap: a workload bug (e.g. a
        retransmission loop with no listener) otherwise generates timer
        events forever and the run never returns.  Pass ``until`` for an
        explicit bound, or raise the cap for legitimately long runs.
        """
        if until is None and max_virtual_s is not None:
            from ..sim.units import seconds

            until = self.engine.now + seconds(max_virtual_s)
        self.engine.run(until=until)

    def attach_fault_plane(self, seed: int = 0):
        """Create (once) and return the testbed's
        :class:`~repro.sim.faults.FaultPlane`, wired to the client
        node's telemetry hub and resolving target names against this
        testbed.  Build injectors with ``install`` / ``apply_scenario``
        on the result.  One testbed has one plane and one seed: asking
        again with another seed is an error, not a silent no-op."""
        if self.fault_plane is None:
            from ..sim.faults import FaultPlane

            self.fault_plane = FaultPlane(
                self.engine, seed=seed, telemetry=self.client.telemetry,
                testbed=self)
        elif self.fault_plane.seed != seed:
            raise SimError(
                f"testbed already has a fault plane seeded "
                f"{self.fault_plane.seed}; asked for seed {seed}")
        return self.fault_plane


def _make_pair(nic_cls, nic_name: str, link_kwargs: dict, cal, client_kernel_opts,
               server_kernel_opts, mem_size, engine, name_prefix, ncores,
               rx_batch) -> Testbed:
    """Both nodes, their NICs, the wire, then the kernels — in that
    order, which fixes every region address the benches observe."""
    if engine is None:
        engine = Engine()
    client = Node(engine, f"{name_prefix}client", cal, mem_size=mem_size,
                  ncores=ncores, rx_batch=rx_batch)
    server = Node(engine, f"{name_prefix}server", cal, mem_size=mem_size,
                  ncores=ncores, rx_batch=rx_batch)
    engine.export_to(client.telemetry)
    client_nic = client.add_nic(nic_cls(engine, cal, client.memory, nic_name))
    server_nic = server.add_nic(nic_cls(engine, cal, server.memory, nic_name))
    link = Link(engine, name=f"{name_prefix}{nic_name}-link", **link_kwargs)
    client_nic.attach(link, 0)
    server_nic.attach(link, 1)
    Kernel(client, **(client_kernel_opts or {}))
    Kernel(server, **(server_kernel_opts or {}))
    return Testbed(engine, cal, client, server, link, client_nic, server_nic)


def make_an2_pair(
    cal: Calibration = DEFAULT,
    client_kernel_opts: Optional[dict] = None,
    server_kernel_opts: Optional[dict] = None,
    mem_size: int = 16 * 1024 * 1024,
    engine: Optional[Engine] = None,
    name_prefix: str = "",
    ncores: int = 1,
    rx_batch: Optional[int] = None,
) -> Testbed:
    """Two DECstations joined by the AN2 switch.

    Pass a shared ``engine`` (and a distinct ``name_prefix`` per pair)
    to place many independent pairs in one simulated world — the scale
    benchmark sweeps node count this way.
    """
    link = dict(rate_bytes_per_s=cal.an2_rate_bytes_per_s,
                latency_us=cal.an2_hw_oneway_us)
    return _make_pair(An2Nic, "an2", link, cal, client_kernel_opts,
                      server_kernel_opts, mem_size, engine, name_prefix,
                      ncores, rx_batch)


def make_eth_pair(
    cal: Calibration = DEFAULT,
    client_kernel_opts: Optional[dict] = None,
    server_kernel_opts: Optional[dict] = None,
    mem_size: int = 16 * 1024 * 1024,
    engine: Optional[Engine] = None,
    name_prefix: str = "",
    ncores: int = 1,
    rx_batch: Optional[int] = None,
) -> Testbed:
    """Two DECstations on the 10 Mb/s Ethernet."""
    link = dict(rate_bytes_per_s=cal.eth_rate_bytes_per_s,
                latency_us=cal.eth_dma_latency_us,
                min_frame=cal.eth_min_frame)
    return _make_pair(EthernetNic, "eth", link, cal, client_kernel_opts,
                      server_kernel_opts, mem_size, engine, name_prefix,
                      ncores, rx_batch)
