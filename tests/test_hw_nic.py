"""Unit tests for the AN2 and Ethernet NIC models."""

import pytest

from repro.errors import DemuxError
from repro.hw.calibration import Calibration
from repro.hw.link import Frame, Link
from repro.hw.memory import PhysicalMemory
from repro.hw.nic import An2Nic, EthernetNic, stripe_offset, striped_size
from repro.sim import Engine


@pytest.fixture
def eng():
    return Engine()


@pytest.fixture
def cal():
    return Calibration()


def make_an2_pair(eng, cal):
    mem_a, mem_b = PhysicalMemory(1 << 20), PhysicalMemory(1 << 20)
    nic_a = An2Nic(eng, cal, mem_a, "an2a")
    nic_b = An2Nic(eng, cal, mem_b, "an2b")
    link = Link(eng, cal.an2_rate_bytes_per_s, cal.an2_hw_oneway_us)
    nic_a.attach(link, 0)
    nic_b.attach(link, 1)
    return nic_a, nic_b, mem_a, mem_b


class TestAn2:
    def test_dma_lands_in_bound_buffer(self, eng, cal):
        nic_a, nic_b, _ma, mem_b = make_an2_pair(eng, cal)
        buf = mem_b.alloc("rx", 4096)
        nic_b.bind_vci(7, [(buf.base, 4096)])
        got = []
        nic_b.rx_callback = got.append
        nic_a.transmit(Frame(b"payload!", vci=7))
        eng.run()
        (desc,) = got
        assert desc.vci == 7
        assert desc.addr == buf.base
        assert desc.length == 8
        assert not desc.striped
        assert mem_b.read(buf.base, 8) == b"payload!"

    def test_unbound_vci_dropped(self, eng, cal):
        nic_a, nic_b, *_ = make_an2_pair(eng, cal)
        nic_b.rx_callback = lambda d: pytest.fail("should have dropped")
        nic_a.transmit(Frame(b"x", vci=99))
        eng.run()
        assert nic_b.rx_dropped == 1

    def test_buffer_exhaustion_drops(self, eng, cal):
        nic_a, nic_b, _ma, mem_b = make_an2_pair(eng, cal)
        buf = mem_b.alloc("rx", 4096)
        nic_b.bind_vci(1, [(buf.base, 4096)])
        got = []
        nic_b.rx_callback = got.append
        nic_a.transmit(Frame(b"one", vci=1))
        nic_a.transmit(Frame(b"two", vci=1))
        eng.run()
        assert len(got) == 1
        assert nic_b.rx_dropped == 1

    def test_replenish_restores_reception(self, eng, cal):
        nic_a, nic_b, _ma, mem_b = make_an2_pair(eng, cal)
        buf = mem_b.alloc("rx", 4096)
        nic_b.bind_vci(1, [(buf.base, 4096)])
        got = []

        def on_rx(desc):
            got.append(desc)
            nic_b.replenish(1, desc.addr, 4096)  # return the buffer

        nic_b.rx_callback = on_rx
        for _ in range(3):
            nic_a.transmit(Frame(b"m", vci=1))
        eng.run()
        assert len(got) == 3
        assert nic_b.rx_dropped == 0

    def test_double_bind_rejected(self, eng, cal):
        _a, nic_b, _ma, mem_b = make_an2_pair(eng, cal)
        buf = mem_b.alloc("rx", 4096)
        nic_b.bind_vci(1, [(buf.base, 4096)])
        with pytest.raises(DemuxError):
            nic_b.bind_vci(1, [(buf.base, 4096)])

    def test_small_buffer_rejected(self, eng, cal):
        _a, nic_b, _ma, mem_b = make_an2_pair(eng, cal)
        buf = mem_b.alloc("rx", 1024)
        with pytest.raises(DemuxError):
            nic_b.bind_vci(1, [(buf.base, 1024)])

    def test_oversize_packet_dropped(self, eng, cal):
        nic_a, nic_b, _ma, mem_b = make_an2_pair(eng, cal)
        buf = mem_b.alloc("rx", 8192)
        nic_b.bind_vci(1, [(buf.base, 8192)])
        nic_b.rx_callback = lambda d: pytest.fail("should drop oversize")
        nic_a.transmit(Frame(bytes(cal.an2_max_packet + 1), vci=1))
        eng.run()
        assert nic_b.rx_dropped == 1


class TestStriping:
    def test_stripe_offset_layout(self):
        assert stripe_offset(0) == 0
        assert stripe_offset(15) == 15
        assert stripe_offset(16) == 32
        assert stripe_offset(31) == 47
        assert stripe_offset(32) == 64

    def test_striped_size(self):
        assert striped_size(0) == 0
        assert striped_size(16) == 16
        assert striped_size(17) == 33
        assert striped_size(1500) == stripe_offset(1499) + 1


class TestEthernet:
    def make_pair(self, eng, cal):
        mem_a, mem_b = PhysicalMemory(1 << 20), PhysicalMemory(1 << 20)
        nic_a = EthernetNic(eng, cal, mem_a, "etha")
        nic_b = EthernetNic(eng, cal, mem_b, "ethb")
        link = Link(eng, cal.eth_rate_bytes_per_s, 5.0, min_frame=cal.eth_min_frame)
        nic_a.attach(link, 0)
        nic_b.attach(link, 1)
        return nic_a, nic_b, mem_a, mem_b

    def test_rx_is_striped(self, eng, cal):
        nic_a, nic_b, _ma, mem_b = self.make_pair(eng, cal)
        got = []
        nic_b.rx_callback = got.append
        payload = bytes(range(40))
        nic_a.transmit(Frame(payload))
        eng.run()
        (desc,) = got
        assert desc.striped
        # First 16 bytes contiguous, next chunk at offset 32.
        assert mem_b.read(desc.addr, 16) == payload[:16]
        assert mem_b.read(desc.addr + 32, 16) == payload[16:32]
        assert mem_b.read(desc.addr + 64, 8) == payload[32:40]

    def test_ring_exhaustion_drops(self, eng, cal):
        nic_a, nic_b, *_ = self.make_pair(eng, cal)
        received = []
        nic_b.rx_callback = received.append  # never returns slots
        for _ in range(nic_b.ring_slots + 3):
            nic_a.transmit(Frame(bytes(64)))
        eng.run()
        assert len(received) == nic_b.ring_slots
        assert nic_b.rx_dropped == 3

    def test_return_slot_reenables(self, eng, cal):
        nic_a, nic_b, *_ = self.make_pair(eng, cal)
        got = []

        def on_rx(desc):
            got.append(desc)
            nic_b.recycle(desc)

        nic_b.rx_callback = on_rx
        for _ in range(nic_b.ring_slots * 2):
            nic_a.transmit(Frame(bytes(64)))
        eng.run()
        assert len(got) == nic_b.ring_slots * 2
        assert nic_b.rx_dropped == 0
