"""Tests for the user-level TCP: handshake, transfer, loss recovery,
and the ASH/upcall fast path."""

import pytest

from repro.ash.interface import AshNotification
from repro.bench.testbed import make_an2_pair
from repro.errors import SimError
from repro.net.socket_api import make_stacks, tcp_pair
from repro.net.tcp import TcpState
from repro.sim import Channel
from repro.sim.units import to_us, us


def build_pair(**conn_kwargs):
    tb = make_an2_pair()
    cstack, sstack = make_stacks(tb)
    client, server = tcp_pair(cstack, sstack, **conn_kwargs)
    return tb, client, server


def run_session(tb, client, server, client_body, server_body):
    tb.server_kernel.spawn_process("server", server_body)
    tb.client_kernel.spawn_process("client", client_body)
    tb.run()


class TestHandshake:
    def test_three_way_establishes_both_ends(self):
        tb, client, server = build_pair()

        def s(proc):
            yield from server.accept(proc)

        def c(proc):
            yield from client.connect(proc)

        run_session(tb, client, server, c, s)
        assert client.tcb.state is TcpState.ESTABLISHED
        assert server.tcb.state is TcpState.ESTABLISHED
        # sequence numbers synchronized
        assert client.tcb.shared.rcv_nxt == (server.tcb.iss + 1) & 0xFFFFFFFF
        assert server.tcb.shared.rcv_nxt == (client.tcb.iss + 1) & 0xFFFFFFFF

    def test_lost_syn_retransmitted(self):
        tb, client, server = build_pair()
        dropped = []
        original = tb.link.send

        def lossy(end, frame):
            if not dropped:  # drop the very first frame (the SYN)
                dropped.append(frame)
                return 0
            return original(end, frame)

        tb.link.send = lossy

        def s(proc):
            yield from server.accept(proc)

        def c(proc):
            yield from client.connect(proc)

        run_session(tb, client, server, c, s)
        assert client.tcb.state is TcpState.ESTABLISHED
        assert dropped


class TestDataTransfer:
    def test_ping_pong_bytes_intact(self):
        tb, client, server = build_pair()
        got = []

        def s(proc):
            yield from server.accept(proc)
            for _ in range(5):
                data = yield from server.read(proc, 8)
                yield from server.write(proc, data.upper())

        def c(proc):
            yield from client.connect(proc)
            for i in range(5):
                msg = f"msg-{i:04d}".encode()  # exactly 8 bytes
                yield from client.write(proc, msg)
                reply = yield from client.read(proc, 8)
                got.append((msg, reply))

        run_session(tb, client, server, c, s)
        for msg, reply in got:
            assert reply == msg.upper()

    def test_bulk_transfer_integrity(self):
        tb, client, server = build_pair()
        data = bytes((i * 7 + i // 256) % 256 for i in range(50_000))
        got = []

        def s(proc):
            yield from server.accept(proc)
            received = yield from server.read(proc, len(data))
            got.append(received)
            yield from server.write(proc, b"ok")

        def c(proc):
            yield from client.connect(proc)
            for off in range(0, len(data), 8192):
                yield from client.write(proc, data[off:off + 8192])
            assert (yield from client.read(proc, 2)) == b"ok"

        run_session(tb, client, server, c, s)
        assert got and got[0] == data

    def test_write_is_synchronous(self):
        """write() returns only after its data is acknowledged."""
        tb, client, server = build_pair()

        def s(proc):
            yield from server.accept(proc)
            yield from server.read(proc, 4096)

        def c(proc):
            yield from client.connect(proc)
            yield from client.write(proc, bytes(4096))
            # everything must be acked by now
            assert client.tcb.shared.snd_una == client.tcb.snd_nxt

        run_session(tb, client, server, c, s)

    def test_header_prediction_dominates_bulk(self):
        tb, client, server = build_pair()

        def s(proc):
            yield from server.accept(proc)
            yield from server.read(proc, 30_000)

        def c(proc):
            yield from client.connect(proc)
            for off in range(0, 30_000, 8192):
                yield from client.write(proc, bytes(min(8192, 30_000 - off)))

        run_session(tb, client, server, c, s)
        tcb = server.tcb
        assert tcb.hdrpred_hits > 5 * max(1, tcb.slow_segments)

    def test_small_mss_sends_more_segments(self):
        counts = {}
        for mss in (3072, 536):
            tb, client, server = build_pair(mss=mss)

            def s(proc):
                yield from server.accept(proc)
                yield from server.read(proc, 8192)

            def c(proc):
                yield from client.connect(proc)
                yield from client.write(proc, bytes(8192))

            run_session(tb, client, server, c, s)
            counts[mss] = server.tcb.hdrpred_hits + server.tcb.slow_segments
        assert counts[536] > counts[3072]

    def test_no_checksum_mode_faster(self):
        times = {}
        for checksum in (True, False):
            tb, client, server = build_pair(checksum=checksum)
            stamps = []

            def s(proc):
                yield from server.accept(proc)
                yield from server.read(proc, 16384)

            def c(proc):
                yield from client.connect(proc)
                t0 = proc.engine.now
                yield from client.write(proc, bytes(16384))
                stamps.append(to_us(proc.engine.now - t0))

            run_session(tb, client, server, c, s)
            times[checksum] = stamps[0]
        assert times[False] < times[True]

    def test_interrupt_driven_mode_works(self):
        tb, client, server = build_pair(interrupt_driven=True)
        got = []

        def s(proc):
            yield from server.accept(proc)
            data = yield from server.read(proc, 10)
            got.append(data)
            yield from server.write(proc, b"thanks")

        def c(proc):
            yield from client.connect(proc)
            yield from client.write(proc, b"0123456789")
            got.append((yield from client.read(proc, 6)))

        run_session(tb, client, server, c, s)
        assert got == [b"0123456789", b"thanks"]


class TestLossRecovery:
    def make_lossy(self, tb, drop_indices):
        original = tb.link.send
        counter = {"n": 0}

        def lossy(end, frame):
            idx = counter["n"]
            counter["n"] += 1
            if idx in drop_indices:
                return 0
            return original(end, frame)

        tb.link.send = lossy

    def test_dropped_data_segment_retransmitted(self):
        tb, client, server = build_pair()
        self.make_lossy(tb, {3})  # drop the first data segment
        data = bytes(range(256)) * 40  # 10240 bytes
        got = []

        def s(proc):
            yield from server.accept(proc)
            got.append((yield from server.read(proc, len(data))))
            yield from server.write(proc, b"ok")  # acks ride back too

        def c(proc):
            yield from client.connect(proc)
            yield from client.write(proc, data)
            assert (yield from client.read(proc, 2)) == b"ok"

        run_session(tb, client, server, c, s)
        assert got and got[0] == data
        # the hole is repaired — by a dup-ack-triggered fast retransmit
        # (SACK path) or a timer round, whichever the timing produced
        assert client.tcb.retransmits + client.tcb.fast_retransmits >= 1

    def test_dropped_ack_recovered(self):
        tb, client, server = build_pair()
        self.make_lossy(tb, {6, 7})
        data = bytes(range(100)) * 50  # 5000 bytes
        got = []

        def s(proc):
            yield from server.accept(proc)
            got.append((yield from server.read(proc, len(data))))
            yield from server.write(proc, b"ok")

        def c(proc):
            yield from client.connect(proc)
            yield from client.write(proc, data)
            assert (yield from client.read(proc, 2)) == b"ok"

        run_session(tb, client, server, c, s)
        assert got and got[0] == data

    def test_duplicate_segment_discarded(self):
        tb, client, server = build_pair()
        original = tb.link.send
        duped = {"done": False}

        def duplicating(end, frame):
            result = original(end, frame)
            if len(frame.data) > 100 and not duped["done"]:
                duped["done"] = True
                original(end, frame)  # send a copy
            return result

        tb.link.send = duplicating
        data = bytes(range(200)) * 30
        got = []

        def s(proc):
            yield from server.accept(proc)
            got.append((yield from server.read(proc, len(data))))
            yield from server.write(proc, b"ok")

        def c(proc):
            yield from client.connect(proc)
            yield from client.write(proc, data)
            assert (yield from client.read(proc, 2)) == b"ok"

        run_session(tb, client, server, c, s)
        assert got and got[0] == data


class TestSharedTcbSnapshot:
    def test_mid_transfer_roundtrip_into_fresh_memory(self):
        """The shared block is application-durable state: serialized
        mid-transfer and restored into a brand-new memory region, every
        field survives verbatim — the substrate of crash recovery."""
        from repro.net.tcp.tcb import SHARED_TCB_FIELDS, SHARED_TCB_SIZE, SharedTcb

        tb, client, server = build_pair()
        data = bytes(range(256)) * 40
        blobs = []

        def s(proc):
            yield from server.accept(proc)
            # read half, snapshot with the connection hot (unacked
            # bytes in flight, counters mid-stride), then finish
            yield from server.read(proc, len(data) // 2)
            blobs.append(server.tcb.shared.snapshot())
            yield from server.read(proc, len(data) - len(data) // 2)

        def c(proc):
            yield from client.connect(proc)
            yield from client.write(proc, data)

        run_session(tb, client, server, c, s)
        assert len(blobs) == 1 and len(blobs[0]) == SHARED_TCB_SIZE
        original = SharedTcb(tb.server.memory, server.tcb.shared.base)
        fresh_region = tb.server.memory.alloc("tcb-restore", SHARED_TCB_SIZE)
        restored = SharedTcb(tb.server.memory, fresh_region.base)
        restored.restore(blobs[0])
        live = {name: getattr(original, name) for name in SHARED_TCB_FIELDS}
        decoded = restored.fields()
        assert set(decoded) == set(SHARED_TCB_FIELDS)
        # the snapshot was taken mid-transfer: it must differ from the
        # final block (proof it captured a moment, not the end state)
        assert decoded != live
        assert restored.snapshot() == blobs[0]
        # and a second hop through snapshot() is the identity
        again = SharedTcb(tb.server.memory, fresh_region.base)
        assert again.fields() == decoded
        # the layout: field i is the little-endian u32 at base + 4 * i,
        # read and written
        mem, base = tb.server.memory, fresh_region.base
        assert SHARED_TCB_SIZE == 4 * len(SHARED_TCB_FIELDS)
        for i, name in enumerate(SHARED_TCB_FIELDS):
            assert getattr(again, name) == mem.load_u32(base + 4 * i)
            setattr(again, name, 0x1_0000_0000 + 0x01020304 * (i + 1))
            assert mem.load_u32(base + 4 * i) == (0x01020304 * (i + 1)
                                                  & 0xFFFFFFFF)
        assert restored.snapshot() == mem.read(base, SHARED_TCB_SIZE)

    def test_restore_rejects_wrong_length(self):
        """A block that does not fit is refused: a snapshot of the wrong
        length on restore, and a block reaching outside memory as soon
        as its accessor is built (no field access checks bounds)."""
        from repro.errors import MemoryFault
        from repro.net.tcp.tcb import SHARED_TCB_SIZE, SharedTcb

        tb, client, server = build_pair()
        with pytest.raises(ValueError):
            SharedTcb(tb.server.memory, server.tcb.shared.base).restore(b"x")
        mem = tb.server.memory
        for base in (mem.size - SHARED_TCB_SIZE + 4, 0):
            with pytest.raises(MemoryFault):
                SharedTcb(mem, base)
        SharedTcb(mem, mem.size - SHARED_TCB_SIZE)     # the last fit


class TestPeerDeath:
    def test_bounded_rexmit_error_carries_flow_and_tcb(self):
        """After the retransmission bound the writer gives up with a
        ProtocolError that identifies the flow (4-tuple) and carries the
        final shared-TCB snapshot for post-mortem."""
        from repro.errors import ProtocolError
        from repro.net.headers import ip_aton
        from repro.net.tcp.tcb import SHARED_TCB_FIELDS, SHARED_TCB_SIZE

        tb, client, server = build_pair(rto_us=5_000.0, max_rexmit_rounds=3)
        original = tb.link.send
        counter = {"n": 0}

        def dead_after_handshake(end, frame):
            counter["n"] += 1
            if counter["n"] > 3:  # SYN, SYN|ACK, ACK pass; then silence
                return 0
            return original(end, frame)

        tb.link.send = dead_after_handshake
        caught = []

        def s(proc):
            yield from server.accept(proc)

        def c(proc):
            yield from client.connect(proc)
            try:
                yield from client.write(proc, b"into the void" * 100)
            except ProtocolError as exc:
                caught.append(exc)

        run_session(tb, client, server, c, s)
        assert len(caught) == 1
        err = caught[0]
        assert err.flow == (ip_aton("10.0.0.1"), 5000, ip_aton("10.0.0.2"), 80)
        assert set(err.tcb_final) == set(SHARED_TCB_FIELDS)
        assert len(err.tcb_blob) == SHARED_TCB_SIZE
        assert err.tcb_final["snd_una"] == client.tcb.shared.snd_una
        # the message itself names the flow and the give-up site
        assert "write" in str(err) and "10.0.0.2" not in str(err)
        assert f"{ip_aton('10.0.0.2'):#010x}" in str(err)
        assert client.tcb.retransmits >= 3


class TestHandshakeCrash:
    """``Kernel.crash()`` during the three-way handshake must surface a
    bounded, 4-tuple-carrying ProtocolError — never an unbounded hang."""

    def test_connect_gives_up_when_server_crashes_mid_handshake(self):
        from repro.errors import ProtocolError
        from repro.net.headers import ip_aton
        from repro.net.tcp.tcb import SHARED_TCB_FIELDS, SHARED_TCB_SIZE
        from repro.net.tcp.tcp import MAX_SYN_TRIES

        tb, client, server = build_pair(rto_us=5_000.0, max_rexmit_rounds=3)
        caught, server_err = [], []

        def chaos(proc):
            # kill the server with the client's SYN in flight and never
            # reboot: its kernel-volatile listen state is gone for good
            yield from proc.compute_us(5.0)
            tb.server_kernel.crash()

        def s(proc):
            try:
                yield from server.accept(proc)
            except ProtocolError as exc:
                server_err.append(exc)

        def c(proc):
            try:
                yield from client.connect(proc)
            except ProtocolError as exc:
                caught.append(exc)

        tb.server_kernel.spawn_process("server", s)
        tb.client_kernel.spawn_process("client", c)
        tb.client_kernel.spawn_process("chaos", chaos)
        tb.run()
        assert len(caught) == 1
        err = caught[0]
        assert "connect" in str(err)
        assert str(MAX_SYN_TRIES) in str(err)
        assert err.flow == (ip_aton("10.0.0.1"), 5000, ip_aton("10.0.0.2"), 80)
        assert set(err.tcb_final) == set(SHARED_TCB_FIELDS)
        assert len(err.tcb_blob) == SHARED_TCB_SIZE
        assert client.tcb.state is not TcpState.ESTABLISHED

    def test_accept_gives_up_when_client_crashes_before_syn(self):
        from repro.errors import ProtocolError
        from repro.net.headers import ip_aton

        tb, client, server = build_pair(rto_us=5_000.0, max_rexmit_rounds=3)
        tb.client_kernel.crash()  # the client dies before sending SYN
        caught = []

        def s(proc):
            try:
                yield from server.accept(proc)
            except ProtocolError as exc:
                caught.append(exc)

        tb.server_kernel.spawn_process("server", s)
        tb.run()
        assert len(caught) == 1
        err = caught[0]
        assert "accept" in str(err)
        assert err.flow == (ip_aton("10.0.0.2"), 80, ip_aton("10.0.0.1"), 5000)
        assert server.tcb.state is not TcpState.ESTABLISHED

    def test_connect_recovers_when_server_reboots_within_retries(self):
        """A crash + reboot inside the SYN-retry budget re-establishes
        through ordinary retransmission — no error, no special path."""
        tb, client, server = build_pair(rto_us=5_000.0)
        got = []

        def chaos(proc):
            yield from proc.compute_us(5.0)
            tb.server_kernel.crash()
            yield from proc.compute_us(2_000.0)
            tb.server_kernel.reboot()

        def s(proc):
            yield from server.accept(proc)
            data = yield from server.read(proc, 4)
            yield from server.write(proc, data.upper())

        def c(proc):
            yield from client.connect(proc)
            yield from client.write(proc, b"ping")
            got.append((yield from client.read(proc, 4)))

        tb.server_kernel.spawn_process("server", s)
        tb.client_kernel.spawn_process("client", c)
        tb.client_kernel.spawn_process("chaos", chaos)
        tb.run()
        assert client.tcb.state is TcpState.ESTABLISHED
        assert server.tcb.state is TcpState.ESTABLISHED
        assert got == [b"PING"]
        assert tb.server_kernel.recoveries == 1


class TestClose:
    def test_fin_exchange_gives_eof(self):
        tb, client, server = build_pair()
        got = []

        def s(proc):
            yield from server.accept(proc)
            data = yield from server.read(proc, 4)
            got.append(data)
            # read to EOF after the peer closes
            rest = yield from server.read(proc, 100)
            got.append(rest)

        def c(proc):
            yield from client.connect(proc)
            yield from client.write(proc, b"bye!")
            yield from client.close(proc)

        run_session(tb, client, server, c, s)
        assert got[0] == b"bye!"
        assert got[1] == b""
        assert server.peer_fin


class TestPump:
    def test_an_item_put_at_the_timeout_tick_is_taken(self):
        """The pump's timer fires, and an item lands on the ring later in
        the same tick, before the pump resumes: the any_of woke on the
        timer, but the get has the item, which the pump takes
        (the get cannot be withdrawn: the item would be lost)."""
        tb, client, server = build_pair()
        ring = server.endpoint.ring
        got = []

        def s(proc):
            yield from server.accept(proc)
            eng = proc.engine
            at = eng.now + us(50)

            def putter():
                # started after the pump armed its timer: this one fires
                # behind it, at the same tick
                yield eng.timeout(at - eng.now)
                ring.put(AshNotification())

            eng.spawn(putter())
            got.append((yield from server._pump(proc, timeout_us=50)))
            got.append(eng.now >= at)

        def c(proc):
            yield from client.connect(proc)

        run_session(tb, client, server, c, s)
        assert got == [True, True]
        assert len(ring) == 0 and not ring._waiters

    def test_a_satisfied_get_cannot_be_cancelled(self):
        tb = make_an2_pair()
        ring = Channel(tb.engine, "ring")
        ring.put("item")
        ev = ring.get()
        with pytest.raises(SimError, match="'ring.get' triggered>: an "
                                           "item already satisfied it"):
            ring.cancel_get(ev)
        pending = ring.get()
        ring.cancel_get(pending)
        ring.put("next")
        assert not pending.triggered and len(ring) == 1


class TestFastPath:
    @pytest.mark.parametrize("kind,sandbox", [
        ("ash", True), ("ash", False), ("upcall", True),
    ])
    def test_bulk_integrity_through_handler(self, kind, sandbox):
        """The handler places the stream intact, committing into the
        block through the offsets of the layout table: each of its TCB
        accesses is a u32 at a table field's offset."""
        from repro.net.tcp.tcb import SHARED_TCB_OFFSET
        from repro.vcode.isa import REG_A2

        tb, client, server = build_pair()
        data = bytes((i * 13 + 5) % 256 for i in range(40_000))
        got = []

        def s(proc):
            yield from server.accept(proc)
            server.install_fastpath(kind=kind, sandbox=sandbox)
            got.append((yield from server.read(proc, len(data))))
            yield from server.write(proc, b"ok")

        def c(proc):
            yield from client.connect(proc)
            for off in range(0, len(data), 8192):
                yield from client.write(proc, data[off:off + 8192])
            assert (yield from client.read(proc, 2)) == b"ok"

        run_session(tb, client, server, c, s)
        assert got and got[0] == data
        assert server.fastpath_hits > 0
        program = (tb.server_kernel.ash_system.entry(
            server.fastpath_ash_id).program if kind == "ash"
            else server.endpoint.upcall.program)
        # the loads and stores through the TCB pointer (A2, saved in a
        # register at entry)
        ctx = next(i.rd for i in program.insns
                   if i.op == "addu" and i.rs == REG_A2 and not i.rt)
        accesses = {(i.op, i.imm) for i in program.insns
                    if i.rs == ctx and i.op[:2] in ("ld", "st")}
        assert {op for op, _ in accesses} == {"ld32", "st32"}
        used = ("lib_busy", "ports_raw", "ooo_pending", "rcv_nxt",
                "snd_una", "write_count", "read_count", "buf_size",
                "buf_mask", "buf_base", "pseudo_in_const", "fastpath_count",
                "ack_tmpl_addr", "ack_seq", "pseudo_ack_const", "reply_vci")
        assert {off for _, off in accesses} == {
            SHARED_TCB_OFFSET[name] for name in used}

    def test_fastpath_abort_rate_low(self):
        """Section V-B: non-header-prediction aborts < 0.2%."""
        tb, client, server = build_pair()
        data = bytes(60_000)

        def s(proc):
            yield from server.accept(proc)
            server.install_fastpath(kind="ash")
            yield from server.read(proc, len(data))

        def c(proc):
            yield from client.connect(proc)
            for off in range(0, len(data), 8192):
                yield from client.write(proc, data[off:off + 8192])

        run_session(tb, client, server, c, s)
        entry = tb.server_kernel.ash_system.entry(server.fastpath_ash_id)
        assert entry.involuntary_aborts == 0
        assert entry.consumed / entry.invocations > 0.9

    def test_fastpath_acks_come_from_kernel(self):
        """With the ASH consuming data segments, the library sends far
        fewer acks itself."""
        results = {}
        for use_ash in (False, True):
            tb, client, server = build_pair()
            data = bytes(30_000)

            def s(proc):
                yield from server.accept(proc)
                if use_ash:
                    server.install_fastpath(kind="ash")
                yield from server.read(proc, len(data))

            def c(proc):
                yield from client.connect(proc)
                for off in range(0, len(data), 8192):
                    yield from client.write(proc, data[off:off + 8192])

            run_session(tb, client, server, c, s)
            results[use_ash] = server.tcb.acks_sent
        assert results[True] < results[False]

    def test_fastpath_checksum_validates_on_wire(self):
        """The ASH's in-kernel acks must carry correct checksums: the
        peer library verifies every segment."""
        tb, client, server = build_pair(checksum=True)
        data = bytes(range(250)) * 40  # 10000 bytes

        def s(proc):
            yield from server.accept(proc)
            server.install_fastpath(kind="ash")
            yield from server.read(proc, len(data))
            yield from server.write(proc, b"okay")

        def c(proc):
            yield from client.connect(proc)
            for off in range(0, len(data), 8192):
                yield from client.write(proc, data[off:off + 8192])
            reply = yield from client.read(proc, 4)
            assert reply == b"okay"

        run_session(tb, client, server, c, s)
        # client accepted the kernel-generated acks: transfer completed
        assert client.tcb.shared.snd_una == client.tcb.snd_nxt
        assert server.fastpath_hits > 0

    def test_corrupted_segment_rejected_by_fastpath(self):
        tb, client, server = build_pair(checksum=True)
        original = tb.link.send
        state = {"corrupted": 0}

        def corrupting(end, frame):
            # corrupt exactly one large payload frame
            if len(frame.data) > 1000 and state["corrupted"] == 0:
                state["corrupted"] = 1
                data = bytearray(frame.data)
                data[100] ^= 0xFF
                frame.data = bytes(data)
            return original(end, frame)

        tb.link.send = corrupting
        data = bytes(range(256)) * 40
        got = []

        def s(proc):
            yield from server.accept(proc)
            server.install_fastpath(kind="ash")
            got.append((yield from server.read(proc, len(data))))

        def c(proc):
            yield from client.connect(proc)
            yield from client.write(proc, data)

        run_session(tb, client, server, c, s)
        assert got and got[0] == data  # corruption healed by retransmit
        assert state["corrupted"] == 1
