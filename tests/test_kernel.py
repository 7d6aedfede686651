"""Tests for processes, scheduling, DPF and kernel delivery paths."""

import pytest

from repro.bench.testbed import (
    CLIENT_TO_SERVER_VCI,
    SERVER_TO_CLIENT_VCI,
    make_an2_pair,
    make_eth_pair,
)
from repro.hw.calibration import Calibration
from repro.hw.link import Frame
from repro.kernel.dpf import DpfEngine, Predicate
from repro.sim.units import to_us, us


class TestDpf:
    def setup_method(self):
        self.engine = DpfEngine(Calibration())

    def test_compiled_filter_matches(self):
        fid = self.engine.insert([Predicate(offset=0, size=2, value=0x0800)])
        packet = bytes([0x08, 0x00, 1, 2, 3])
        match, cost = self.engine.classify(packet)
        assert match == fid
        assert cost == Calibration().dpf_compiled_demux_us

    def test_no_match_returns_none(self):
        self.engine.insert([Predicate(offset=0, size=2, value=0x0800)])
        match, _ = self.engine.classify(bytes([0x08, 0x06, 0, 0]))
        assert match is None

    def test_most_specific_filter_wins(self):
        broad = self.engine.insert([Predicate(offset=0, size=1, value=0x08)])
        narrow = self.engine.insert([
            Predicate(offset=0, size=1, value=0x08),
            Predicate(offset=2, size=2, value=0xBEEF),
        ])
        match, _ = self.engine.classify(bytes([0x08, 0x00, 0xBE, 0xEF]))
        assert match == narrow
        match, _ = self.engine.classify(bytes([0x08, 0x00, 0x00, 0x00]))
        assert match == broad

    def test_masked_predicate(self):
        fid = self.engine.insert([
            Predicate(offset=0, size=1, value=0x40, mask=0xF0)  # IPv4 version
        ])
        match, _ = self.engine.classify(bytes([0x45, 0, 0, 0]))
        assert match == fid

    def test_short_packet_no_match(self):
        self.engine.insert([Predicate(offset=10, size=4, value=1)])
        match, _ = self.engine.classify(b"tiny")
        assert match is None

    def test_interpreted_mode_costs_an_order_of_magnitude_more(self):
        cal = Calibration()
        fid = self.engine.insert([Predicate(offset=0, size=1, value=7)])
        self.engine.compiled_mode = False
        match, cost = self.engine.classify(bytes([7, 0]))
        assert match == fid
        assert cost >= 10 * cal.dpf_compiled_demux_us

    def test_remove(self):
        fid = self.engine.insert([Predicate(offset=0, size=1, value=7)])
        self.engine.remove(fid)
        match, _ = self.engine.classify(bytes([7]))
        assert match is None

    def test_bad_predicate_rejected(self):
        from repro.errors import DemuxError

        with pytest.raises(DemuxError):
            Predicate(offset=0, size=3, value=0)


class TestProcessScheduling:
    def test_single_process_computes(self):
        tb = make_an2_pair()
        done = []

        def body(proc):
            yield from proc.compute_us(100.0)
            done.append(to_us(proc.engine.now))

        tb.server_kernel.spawn_process("p", body)
        tb.run()
        assert done and done[0] == pytest.approx(100.0, rel=0.01)

    def test_two_processes_share_cpu(self):
        tb = make_an2_pair()
        finish = {}

        def body(tag):
            def run(proc):
                yield from proc.compute_us(2000.0)
                finish[tag] = to_us(proc.engine.now)
            return run

        tb.server_kernel.spawn_process("a", body("a"))
        tb.server_kernel.spawn_process("b", body("b"))
        tb.run()
        # both need 2000us of CPU; with sharing, the last finishes >= 4000us
        assert max(finish.values()) >= 4000.0
        assert set(finish) == {"a", "b"}

    def test_round_robin_quantum_interleaves(self):
        cal = Calibration()
        tb = make_an2_pair(cal)
        order = []

        def body(tag):
            def run(proc):
                for _ in range(2):
                    yield from proc.compute_us(cal.quantum_us * 0.6)
                    order.append(tag)
            return run

        tb.server_kernel.spawn_process("a", body("a"))
        tb.server_kernel.spawn_process("b", body("b"))
        tb.run()
        # with 0.6-quantum chunks, strict a,a,b,b order is impossible
        assert order.count("a") == 2 and order.count("b") == 2
        assert order != ["a", "a", "b", "b"]

    def test_blocked_process_yields_cpu(self):
        tb = make_an2_pair()
        engine = tb.engine
        wake = engine.event("wake")
        log = []

        def sleeper(proc):
            yield from proc.block_on(wake)
            log.append(("woke", to_us(proc.engine.now)))

        def worker(proc):
            yield from proc.compute_us(500.0)
            log.append(("worked", to_us(proc.engine.now)))
            wake.succeed(None)

        tb.server_kernel.spawn_process("sleeper", sleeper)
        tb.server_kernel.spawn_process("worker", worker)
        tb.run()
        # the worker must not have been slowed by the blocked sleeper
        worked = dict(log)["worked"]
        assert worked == pytest.approx(500.0, rel=0.05)

    def test_context_switch_cost_charged(self):
        cal = Calibration()
        tb = make_an2_pair(cal)

        def body(proc):
            yield from proc.compute_us(10.0)

        tb.server_kernel.spawn_process("a", body)
        tb.server_kernel.spawn_process("b", body)
        tb.run()
        assert tb.server_kernel.scheduler.context_switches >= 1


class TestAn2Delivery:
    def test_normal_path_notification(self):
        tb = make_an2_pair()
        ep = tb.server_kernel.create_endpoint_an2(tb.server_nic, 1)
        got = []

        def body(proc):
            desc = yield from tb.server_kernel.sys_recv_poll(proc, ep)
            got.append(tb.server.memory.read(desc.addr, desc.length))
            yield from tb.server_kernel.sys_replenish(proc, ep, desc)

        ep.owner = tb.server_kernel.spawn_process("app", body)
        tb.client_nic.transmit(Frame(b"hello server", vci=1))
        tb.run()
        assert got == [b"hello server"]

    def test_zero_copy_data_left_in_place(self):
        """The AN2 normal path hands the application the DMA buffer
        itself — no kernel copy."""
        tb = make_an2_pair()
        ep = tb.server_kernel.create_endpoint_an2(tb.server_nic, 1)
        seen_addr = []

        def body(proc):
            desc = yield from tb.server_kernel.sys_recv_poll(proc, ep)
            seen_addr.append(desc.addr)

        ep.owner = tb.server_kernel.spawn_process("app", body)
        tb.client_nic.transmit(Frame(b"data", vci=1))
        tb.run()
        bufs_region = tb.server.memory.regions[f"{ep.name}.bufs"]
        assert bufs_region.contains(seen_addr[0], 4)

    def test_demux_miss_counted_and_buffer_recycled(self):
        tb = make_an2_pair()
        tb.server_kernel.create_endpoint_an2(tb.server_nic, 1, nbufs=2)
        tb.client_nic.transmit(Frame(b"x", vci=99))  # unbound VCI: NIC drop
        tb.run()
        assert tb.server_nic.rx_dropped == 1

    def test_in_kernel_handler_echo(self):
        tb = make_an2_pair()
        sk, ck = tb.server_kernel, tb.client_kernel
        ep = sk.create_endpoint_an2(tb.server_nic, CLIENT_TO_SERVER_VCI)

        def echo(kernel, endpoint, desc):
            payload = kernel.node.memory.read(desc.addr, desc.length)
            yield from kernel.kernel_send(
                desc.nic, Frame(payload, vci=SERVER_TO_CLIENT_VCI)
            )
            return True

        ep.kernel_handler = echo
        cli_ep = ck.create_endpoint_an2(tb.client_nic, SERVER_TO_CLIENT_VCI)
        got = []

        def client(proc):
            yield from ck.sys_net_send(
                proc, tb.client_nic, Frame(b"ping", vci=CLIENT_TO_SERVER_VCI)
            )
            desc = yield from ck.sys_recv_poll(proc, cli_ep)
            got.append(tb.client.memory.read(desc.addr, desc.length))

        ck.spawn_process("client", client)
        tb.run()
        assert got == [b"ping"]


class TestEthernetDelivery:
    def test_normal_path_copies_out_and_destripes(self):
        tb = make_eth_pair()
        sk = tb.server_kernel
        # match on first payload byte
        ep = sk.create_endpoint_eth(
            tb.server_nic, [Predicate(offset=0, size=1, value=ord("m"))]
        )
        payload = b"m" + bytes(range(200))
        got = []

        def body(proc):
            desc = yield from sk.sys_recv_poll(proc, ep)
            got.append(tb.server.memory.read(desc.addr, desc.length))
            yield from sk.sys_replenish(proc, ep, desc)

        ep.owner = sk.spawn_process("app", body)
        tb.client_nic.transmit(Frame(payload))
        tb.run()
        assert got == [payload]
        # the device ring slot was returned
        assert tb.server_nic.free_slot_count == tb.server_nic.ring_slots

    def test_unmatched_frame_recycled(self):
        tb = make_eth_pair()
        tb.server_kernel.create_endpoint_eth(
            tb.server_nic, [Predicate(offset=0, size=1, value=0xAA)]
        )
        tb.client_nic.transmit(Frame(b"nope"))
        tb.run()
        assert tb.server_kernel.demux_misses == 1
        assert tb.server_nic.free_slot_count == tb.server_nic.ring_slots


class TestBoostScheduler:
    def test_boost_wakes_unscheduled_receiver_faster(self):
        results = {}
        for mode, opts in (
            ("oblivious", {}),
            ("boost", {"boost_on_packet": True}),
        ):
            tb = make_an2_pair(server_kernel_opts=opts)
            sk = tb.server_kernel
            ep = sk.create_endpoint_an2(tb.server_nic, 1)
            got_at = []

            def app(proc):
                desc = yield from sk.sys_recv_block(proc, ep)
                got_at.append(to_us(proc.engine.now))

            def cruncher(proc):
                yield from proc.compute_us(50_000.0)

            ep.owner = sk.spawn_process("app", app)
            sk.spawn_process("cruncher", cruncher)

            def inject():
                yield tb.engine.sleep(us(100.0))
                tb.client_nic.transmit(Frame(b"wake", vci=1))

            tb.engine.spawn(inject())
            tb.run()
            results[mode] = got_at[0]
        assert results["boost"] < results["oblivious"]


class TestCrashStraddlesInterrupt:
    """A frame whose rx interrupt is in its driver hold when the kernel
    crashes is a *lost message* on either NIC kind — not, as the
    Ethernet path once booked it, a demux miss against the filter table
    the crash had just emptied."""

    @pytest.mark.parametrize("kind", ["an2", "eth"])
    def test_lost_not_unmatched_and_buffer_recovered(self, kind):
        if kind == "an2":
            tb = make_an2_pair()
            sk = tb.server_kernel
            ep = sk.create_endpoint_an2(tb.server_nic, 1, nbufs=4)
            frames = [Frame(b"straddler", vci=1), Frame(b"survivor", vci=1)]
        else:
            tb = make_eth_pair()
            sk = tb.server_kernel
            ep = sk.create_endpoint_eth(
                tb.server_nic, [Predicate(offset=0, size=1, value=ord("s"))])
            frames = [Frame(b"straddler" + bytes(55)),
                      Frame(b"survivor" + bytes(56))]

        def script():
            while sk.rx_interrupts == 0:
                yield tb.engine.sleep(us(1.0))
            sk.crash()               # inside the first driver hold
            yield tb.engine.sleep(us(300.0))
            sk.reboot()
            yield tb.engine.sleep(us(300.0))
            tb.client_nic.transmit(frames[1])

        tb.engine.spawn(script())
        tb.client_nic.transmit(frames[0])
        tb.run()
        assert sk.lost_messages == 1
        assert sk.crash_log[-1]["lost_messages"] == 1
        assert sk.demux_misses == 0
        # the straddler's buffer came back: with the survivor parked on
        # the ring, exactly one receive buffer is out
        assert len(ep.ring) == 1
        if kind == "an2":
            assert len(tb.server_nic.binding(1).buffers) == 3
        else:
            assert tb.server_nic.free_slot_count == tb.server_nic.ring_slots
            assert len(ep.kbufs) == 7
