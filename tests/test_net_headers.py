"""Tests for wire-format codecs and checksum helpers."""

import pytest

from repro.errors import ProtocolError
from repro.net.checksum import (
    inet_checksum,
    inet_checksum_final,
    inet_checksum_numpy,
    le_fold_final,
    le_word_sum,
    swab16,
)
from repro.net.headers import (
    ArpPacket,
    EthernetHeader,
    IPPROTO_TCP,
    IPPROTO_UDP,
    Ipv4Header,
    TCP_ACK,
    TCP_SYN,
    TcpHeader,
    UdpHeader,
    ip_aton,
    ip_ntoa,
    pseudo_header,
)


class TestAddresses:
    def test_aton_ntoa_roundtrip(self):
        for addr in ("0.0.0.0", "10.0.0.1", "255.255.255.255", "192.168.1.7"):
            assert ip_ntoa(ip_aton(addr)) == addr

    def test_aton_rejects_garbage(self):
        for bad in ("10.0.0", "1.2.3.4.5", "256.0.0.1", "a.b.c.d"):
            with pytest.raises(ProtocolError):
                ip_aton(bad)


class TestChecksum:
    def test_rfc1071_example(self):
        # RFC 1071's worked example: 0001 f203 f4f5 f6f7 -> sum 0xddf2
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert inet_checksum(data) == 0xDDF2

    def test_odd_length_padded(self):
        assert inet_checksum(b"\xff") == 0xFF00

    def test_numpy_agrees_with_reference(self):
        import random

        rng = random.Random(42)
        for n in (0, 1, 2, 3, 17, 100, 1501):
            data = bytes(rng.randrange(256) for _ in range(n))
            assert inet_checksum_numpy(data) == inet_checksum(data)

    def test_verify_with_embedded_checksum_sums_to_ffff(self):
        data = b"some protocol payload!!"
        cksum = inet_checksum_final(data)
        full = data + b"\x00" + cksum.to_bytes(2, "big")  # pad to even first
        # embed properly: even-length data + checksum appended
        data2 = b"some protocol payload!"  # 22 bytes, even
        cksum2 = inet_checksum_final(data2)
        assert inet_checksum(data2 + cksum2.to_bytes(2, "big")) == 0xFFFF

    def test_le_word_sum_relates_to_be_sum(self):
        data = bytes(range(64))
        assert swab16(le_fold_final(le_word_sum(data)) ^ 0xFFFF) == (
            inet_checksum(data)
        )

    def test_le_fold_final_wire_equivalence(self):
        """Storing le_fold_final little-endian == storing the BE
        complement big-endian (the MIPS trick the handlers rely on)."""
        data = bytes(range(100)) * 3 + b"\x00"  # multiple of 4
        le_bytes = le_fold_final(le_word_sum(data)).to_bytes(2, "little")
        be_bytes = inet_checksum_final(data).to_bytes(2, "big")
        assert le_bytes == be_bytes


class TestEthernet:
    def test_roundtrip(self):
        hdr = EthernetHeader(dst=b"\x01" * 6, src=b"\x02" * 6, ethertype=0x0800)
        assert EthernetHeader.unpack(hdr.pack()) == hdr

    def test_bad_mac_length(self):
        with pytest.raises(ProtocolError):
            EthernetHeader(dst=b"\x01" * 5, src=b"\x02" * 6,
                           ethertype=0x0800).pack()

    def test_truncated(self):
        with pytest.raises(ProtocolError):
            EthernetHeader.unpack(b"short")


class TestArp:
    def test_roundtrip(self):
        pkt = ArpPacket(
            opcode=ArpPacket.REQUEST,
            sender_mac=b"\xaa" * 6, sender_ip=ip_aton("10.0.0.1"),
            target_mac=b"\x00" * 6, target_ip=ip_aton("10.0.0.2"),
        )
        assert ArpPacket.unpack(pkt.pack()) == pkt

    def test_wrong_hardware_type_rejected(self):
        raw = bytearray(ArpPacket(
            opcode=1, sender_mac=b"\x00" * 6, sender_ip=0,
            target_mac=b"\x00" * 6, target_ip=0,
        ).pack())
        raw[0] = 9  # bogus htype
        with pytest.raises(ProtocolError):
            ArpPacket.unpack(bytes(raw))


class TestIpv4:
    def test_roundtrip_and_checksum(self):
        hdr = Ipv4Header(
            src=ip_aton("10.0.0.1"), dst=ip_aton("10.0.0.2"),
            proto=IPPROTO_UDP, total_length=120, ident=77,
        )
        packed = hdr.pack()
        assert inet_checksum(packed) == 0xFFFF
        back = Ipv4Header.unpack(packed)
        assert back.src == hdr.src and back.dst == hdr.dst
        assert back.total_length == 120 and back.ident == 77

    def test_corrupt_header_rejected(self):
        hdr = Ipv4Header(src=1, dst=2, proto=6, total_length=40).pack()
        corrupt = bytes([hdr[0]]) + bytes([hdr[1] ^ 0xFF]) + hdr[2:]
        with pytest.raises(ProtocolError):
            Ipv4Header.unpack(corrupt)

    def test_fragment_flags(self):
        hdr = Ipv4Header(src=1, dst=2, proto=6, total_length=40,
                         flags=Ipv4Header.MF, frag_offset=185)
        back = Ipv4Header.unpack(hdr.pack())
        assert back.more_fragments
        assert back.frag_offset == 185

    def test_non_v4_rejected(self):
        raw = bytearray(Ipv4Header(src=1, dst=2, proto=6, total_length=40).pack())
        raw[0] = (6 << 4) | 5
        with pytest.raises(ProtocolError):
            Ipv4Header.unpack(bytes(raw), verify=False)


class TestUdp:
    def test_build_and_verify(self):
        src, dst = ip_aton("10.0.0.1"), ip_aton("10.0.0.2")
        payload = b"hello, datagram"
        header = UdpHeader.build(src, dst, 1234, 5678, payload)
        assert UdpHeader.verify(src, dst, header + payload)

    def test_corruption_detected(self):
        src, dst = ip_aton("10.0.0.1"), ip_aton("10.0.0.2")
        payload = b"hello, datagram!"
        header = UdpHeader.build(src, dst, 1234, 5678, payload)
        corrupt = header + payload[:-1] + bytes([payload[-1] ^ 1])
        assert not UdpHeader.verify(src, dst, corrupt)

    def test_zero_checksum_means_disabled(self):
        src, dst = 1, 2
        header = UdpHeader.build(src, dst, 1, 2, b"data", with_checksum=False)
        assert UdpHeader.unpack(header).checksum == 0
        assert UdpHeader.verify(src, dst, header + b"data")

    def test_length_field(self):
        header = UdpHeader.build(1, 2, 7, 8, b"12345", with_checksum=False)
        assert UdpHeader.unpack(header).length == 13


class TestTcp:
    def test_roundtrip(self):
        hdr = TcpHeader(src_port=80, dst_port=5000, seq=1000, ack=2000,
                        flags=TCP_SYN | TCP_ACK, window=8192)
        back = TcpHeader.unpack(hdr.pack())
        assert back == hdr

    def test_checksum_verifies(self):
        src, dst = ip_aton("10.0.0.1"), ip_aton("10.0.0.2")
        payload = bytes(range(100))
        hdr = TcpHeader(src_port=80, dst_port=5000, seq=1, ack=2,
                        flags=TCP_ACK, window=8192)
        wire = hdr.with_checksum(src, dst, payload)
        assert TcpHeader.verify(src, dst, wire + payload)

    def test_corruption_detected(self):
        src, dst = 1, 2
        payload = bytes(range(64))
        hdr = TcpHeader(src_port=80, dst_port=5000, seq=1, ack=2,
                        flags=TCP_ACK, window=8192)
        wire = bytearray(hdr.with_checksum(src, dst, payload) + payload)
        wire[30] ^= 0x40
        assert not TcpHeader.verify(src, dst, bytes(wire))

    def test_pseudo_header_layout(self):
        pseudo = pseudo_header(0x0A000001, 0x0A000002, IPPROTO_TCP, 20)
        assert len(pseudo) == 12
        assert pseudo[8] == 0 and pseudo[9] == IPPROTO_TCP
        assert int.from_bytes(pseudo[10:12], "big") == 20
