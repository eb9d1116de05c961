"""Unit tests for IP fragmentation/reassembly, pcap I/O and the host stack."""

from __future__ import annotations

from random import Random

import pytest

from repro.core.distiller import Distiller
from repro.core.engine import ScidiveEngine
from repro.net.addr import Endpoint, IPv4Address, MacAddress
from repro.net.capture import Sniffer
from repro.net.fragmentation import MAX_DATAGRAM_PAYLOAD, Reassembler, fragment
from repro.net.packet import (
    ETHERTYPE_IPV4,
    IPPROTO_UDP,
    EthernetFrame,
    IPv4Packet,
    PacketError,
)
from repro.net.pcap import PcapError, read_pcap, write_pcap
from repro.net.stack import HostStack
from repro.sim.eventloop import EventLoop
from repro.sim.hub import Hub
from repro.sim.trace import Trace
from repro.workload import ATTACK_KINDS, DEFAULT_SCENARIO, AttackMix, generate_workload

SRC = IPv4Address.parse("10.0.0.1")
DST = IPv4Address.parse("10.0.0.2")


def _packet(payload_len: int, ident: int = 7) -> IPv4Packet:
    return IPv4Packet(SRC, DST, IPPROTO_UDP, bytes(range(256)) * (payload_len // 256 + 1))


class TestFragmentation:
    def test_small_packet_unfragmented(self):
        packet = IPv4Packet(SRC, DST, IPPROTO_UDP, b"x" * 100)
        assert fragment(packet, mtu=1500) == [packet]

    def test_fragments_fit_mtu(self):
        packet = IPv4Packet(SRC, DST, IPPROTO_UDP, b"x" * 4000, identification=9)
        frags = fragment(packet, mtu=1500)
        assert len(frags) == 3
        for frag in frags:
            assert 20 + len(frag.payload) <= 1500

    def test_fragment_offsets_are_8_byte_aligned(self):
        packet = IPv4Packet(SRC, DST, IPPROTO_UDP, b"x" * 4000)
        for frag in fragment(packet, mtu=1500)[:-1]:
            assert len(frag.payload) % 8 == 0

    def test_mf_flags(self):
        frags = fragment(IPv4Packet(SRC, DST, IPPROTO_UDP, b"x" * 3000), mtu=1500)
        assert all(f.flags_mf for f in frags[:-1])
        assert not frags[-1].flags_mf

    def test_df_prevents_fragmentation(self):
        packet = IPv4Packet(SRC, DST, IPPROTO_UDP, b"x" * 3000, flags_df=True)
        with pytest.raises(PacketError):
            fragment(packet, mtu=1500)

    def test_tiny_mtu_rejected(self):
        with pytest.raises(ValueError):
            fragment(IPv4Packet(SRC, DST, IPPROTO_UDP, b"x"), mtu=20)

    def test_reassembly_in_order(self):
        payload = bytes(range(256)) * 16
        packet = IPv4Packet(SRC, DST, IPPROTO_UDP, payload, identification=3)
        frags = fragment(packet, mtu=576)
        assert len(frags) > 2
        reasm = Reassembler()
        whole = None
        for frag in frags:
            whole = reasm.push(frag, now=0.0)
        assert whole is not None
        assert whole.payload == payload
        assert reasm.reassembled == 1

    def test_reassembly_out_of_order(self):
        payload = b"ABCDEFGH" * 400
        frags = fragment(IPv4Packet(SRC, DST, IPPROTO_UDP, payload, identification=5), mtu=576)
        reasm = Reassembler()
        results = [reasm.push(f, 0.0) for f in reversed(frags)]
        whole = [r for r in results if r is not None]
        assert len(whole) == 1
        assert whole[0].payload == payload

    def test_interleaved_packets_keyed_separately(self):
        p1 = IPv4Packet(SRC, DST, IPPROTO_UDP, b"1" * 2000, identification=1)
        p2 = IPv4Packet(SRC, DST, IPPROTO_UDP, b"2" * 2000, identification=2)
        f1 = fragment(p1, mtu=576)
        f2 = fragment(p2, mtu=576)
        reasm = Reassembler()
        out = []
        for a, b in zip(f1, f2):
            for frag in (a, b):
                whole = reasm.push(frag, 0.0)
                if whole is not None:
                    out.append(whole.payload)
        assert sorted(out) == [b"1" * 2000, b"2" * 2000]

    def test_timeout_expires_partials(self):
        frags = fragment(IPv4Packet(SRC, DST, IPPROTO_UDP, b"x" * 2000, identification=8), mtu=576)
        reasm = Reassembler(timeout=1.0)
        reasm.push(frags[0], now=0.0)
        assert reasm.pending == 1
        reasm.push(IPv4Packet(SRC, DST, IPPROTO_UDP, b"solo"), now=5.0)
        assert reasm.pending == 0
        assert reasm.expired == 1

    def test_expiry_counts_under_interleaved_stale_and_fresh_partials(self):
        """Each partial expires on the first push more than ``timeout``
        after it was first seen — whichever packet that push carries, and
        however the completed, stale and fresh partials interleave."""

        def first(ident: int) -> IPv4Packet:
            return fragment(
                IPv4Packet(SRC, DST, IPPROTO_UDP, b"x" * 2000, identification=ident), mtu=576
            )[0]

        solo = IPv4Packet(SRC, DST, IPPROTO_UDP, b"solo")
        reasm = Reassembler(timeout=10.0)
        reasm.push(first(1), now=0.0)
        reasm.push(first(2), now=4.0)
        done = fragment(IPv4Packet(SRC, DST, IPPROTO_UDP, b"y" * 2000, identification=3), mtu=576)
        for frag in done:  # the oldest-but-one completes and leaves
            whole = reasm.push(frag, now=5.0)
        assert whole is not None and (reasm.pending, reasm.expired) == (2, 0)
        reasm.push(solo, now=10.0)  # exactly the timeout: not yet stale
        assert (reasm.pending, reasm.expired) == (2, 0)
        reasm.push(first(4), now=10.5)  # 1 goes; 2 and the new 4 stay
        assert (reasm.pending, reasm.expired) == (2, 1)
        reasm.push(solo, now=10.5)  # same instant: nothing more to find
        assert (reasm.pending, reasm.expired) == (2, 1)
        reasm.push(first(5), now=2.0)  # a capture clock may step back
        reasm.push(solo, now=14.5)  # 2 (seen 4.0) and 5 (seen 2.0) go
        assert (reasm.pending, reasm.expired) == (1, 3)
        reasm.push(solo, now=21.0)
        assert (reasm.pending, reasm.expired, reasm.reassembled) == (0, 4, 1)
        reasm.push(first(6), now=21.0)  # and the empty table starts over
        reasm.push(solo, now=40.0)
        assert (reasm.pending, reasm.expired) == (0, 5)

    def test_non_fragment_passthrough(self):
        packet = IPv4Packet(SRC, DST, IPPROTO_UDP, b"whole")
        assert Reassembler().push(packet, 0.0) is packet

    def test_duplicate_fragment_harmless(self):
        payload = b"x" * 2000
        frags = fragment(IPv4Packet(SRC, DST, IPPROTO_UDP, payload, identification=4), mtu=576)
        reasm = Reassembler()
        reasm.push(frags[0], 0.0)
        reasm.push(frags[0], 0.0)  # dup
        whole = None
        for frag in frags[1:]:
            whole = reasm.push(frag, 0.0)
        assert whole is not None and whole.payload == payload


class TestOversizeReassembly:
    """A datagram can carry at most 65,535 - 20 payload bytes; a fragment
    reaching past that can never complete, so it must not hold state."""

    def test_fragment_past_the_ipv4_maximum_drops_its_partial(self):
        head = IPv4Packet(SRC, DST, IPPROTO_UDP, b"h" * 64, identification=11, flags_mf=True)
        # Offset 8189 (65,512 bytes) + 80 bytes claims a 65,592-byte datagram.
        tail = IPv4Packet(SRC, DST, IPPROTO_UDP, b"t" * 80, identification=11, fragment_offset=8189)
        reasm = Reassembler()
        assert reasm.push(head, 0.0) is None and reasm.pending == 1
        assert reasm.push(tail, 0.0) is None
        assert (reasm.pending, reasm.oversize, reasm.expired) == (0, 1, 0)
        # Alone, it opens no partial either.
        assert reasm.push(tail, 1.0) is None
        assert (reasm.pending, reasm.oversize) == (0, 2)

    def test_largest_datagram_still_reassembles(self):
        payload = bytes(range(256)) * (MAX_DATAGRAM_PAYLOAD // 256) + b"z" * (
            MAX_DATAGRAM_PAYLOAD % 256
        )
        assert len(payload) == 65_515
        frags = fragment(IPv4Packet(SRC, DST, IPPROTO_UDP, payload, identification=12), 1500)
        reasm = Reassembler()
        results = [reasm.push(frag, 0.0) for frag in reversed(frags)]
        assert results[-1] is not None and results[-1].payload == payload
        assert (reasm.pending, reasm.oversize, reasm.reassembled) == (0, 0, 1)

    def test_distiller_counts_the_frame_as_held_and_exports_the_drop(self):
        mac_a, mac_b = MacAddress("02:00:00:00:00:01"), MacAddress("02:00:00:00:00:02")
        tail = IPv4Packet(SRC, DST, IPPROTO_UDP, b"t" * 80, identification=13, fragment_offset=8189)
        frame = EthernetFrame(
            dst=mac_b, src=mac_a, ethertype=ETHERTYPE_IPV4, payload=tail.encode()
        ).encode()
        distiller = Distiller()
        assert distiller.distill(frame, 0.0) is None
        assert distiller.stats.fragments_held == 1
        assert distiller.table_stats()["reassembly_oversize"] == 1
        assert distiller._reassembler.pending == 0

    def test_fragmented_trace_alerts_equal_the_unfragmented(self):
        """The frag-mixed transform in small: every frame over a 128-byte
        MTU fragmented, half the fragment runs shuffled."""
        spec = DEFAULT_SCENARIO.with_overrides(
            name="frag-small", subscribers=4, duration=60.0, seed=5,
            attacks=tuple(AttackMix(kind=kind, count=1) for kind in ATTACK_KINDS),
        )
        trace = generate_workload(spec).trace
        rng = Random(5)
        fragmented: list[tuple[float, bytes]] = []
        for record in trace:
            eth = EthernetFrame.decode(record.frame)
            pieces = fragment(IPv4Packet.decode(eth.payload), 128)
            if rng.random() < 0.5:
                rng.shuffle(pieces)
            fragmented += [
                (record.timestamp, EthernetFrame(eth.dst, eth.src, ETHERTYPE_IPV4, piece.encode()).encode())
                for piece in pieces
            ]
        assert len(fragmented) > len(trace)

        def alerts(frames) -> list:
            engine = ScidiveEngine()
            for timestamp, frame in frames:
                engine.process_frame(frame, timestamp)
            return sorted(engine.alerts, key=lambda a: (a.time, a.rule_id))

        whole = alerts((r.timestamp, r.frame) for r in trace)
        assert len({alert.rule_id for alert in whole}) >= 5
        assert alerts(fragmented) == whole


class TestPcap:
    def test_roundtrip(self, tmp_path):
        trace = Trace(name="t")
        trace.append(1.25, b"frame-one")
        trace.append(2.5, b"frame-two-longer")
        path = tmp_path / "capture.pcap"
        write_pcap(path, trace)
        loaded = read_pcap(path)
        assert [r.frame for r in loaded] == [b"frame-one", b"frame-two-longer"]
        assert loaded.records[0].timestamp == pytest.approx(1.25, abs=1e-6)
        assert loaded.records[1].timestamp == pytest.approx(2.5, abs=1e-6)

    def test_snaplen_truncates(self, tmp_path):
        trace = Trace()
        trace.append(0.0, b"x" * 100)
        path = tmp_path / "snap.pcap"
        write_pcap(path, trace, snaplen=10)
        loaded = read_pcap(path)
        assert len(loaded.records[0].frame) == 10

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(PcapError):
            read_pcap(path)

    def test_truncated_record_rejected(self, tmp_path):
        trace = Trace()
        trace.append(0.0, b"abcdef")
        path = tmp_path / "trunc.pcap"
        write_pcap(path, trace)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(PcapError):
            read_pcap(path)

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.pcap"
        write_pcap(path, Trace())
        assert len(read_pcap(path)) == 0


class TestHostStack:
    def _pair(self, mtu_a: int = 1500):
        loop = EventLoop()
        hub = Hub(loop)
        a = HostStack("a", loop, ip="10.0.0.1", mac="02:00:00:00:00:01", mtu=mtu_a)
        b = HostStack("b", loop, ip="10.0.0.2", mac="02:00:00:00:00:02")
        hub.attach(a.iface)
        hub.attach(b.iface)
        a.add_arp_entry("10.0.0.2", "02:00:00:00:00:02")
        b.add_arp_entry("10.0.0.1", "02:00:00:00:00:01")
        return loop, a, b

    def test_datagram_delivery(self):
        loop, a, b = self._pair()
        received: list[tuple[bytes, Endpoint]] = []
        b.bind(9999, lambda payload, src, now: received.append((payload, src)))
        a.send_udp(1234, Endpoint.parse("10.0.0.2:9999"), b"ping")
        loop.run()
        assert received == [(b"ping", Endpoint.parse("10.0.0.1:1234"))]

    def test_large_datagram_fragmented_and_reassembled(self):
        loop, a, b = self._pair(mtu_a=576)
        received: list[bytes] = []
        b.bind(9999, lambda payload, src, now: received.append(payload))
        big = bytes(range(256)) * 10  # 2560 bytes > 576 MTU
        a.send_udp(1, Endpoint.parse("10.0.0.2:9999"), big)
        loop.run()
        assert received == [big]

    def test_unbound_port_dropped(self):
        loop, a, b = self._pair()
        a.send_udp(1, Endpoint.parse("10.0.0.2:7"), b"nobody")
        loop.run()  # no exception, silently dropped

    def test_double_bind_rejected(self):
        loop, a, b = self._pair()
        a.bind(5060, lambda *args: None)
        with pytest.raises(OSError):
            a.bind(5060, lambda *args: None)

    def test_unbind_allows_rebind(self):
        loop, a, b = self._pair()
        sock = a.bind(5060, lambda *args: None)
        sock.close()
        a.bind(5060, lambda *args: None)

    def test_ephemeral_ports_unique(self):
        loop, a, b = self._pair()
        s1 = a.bind_ephemeral(lambda *args: None)
        s2 = a.bind_ephemeral(lambda *args: None)
        assert s1.port != s2.port

    def test_spoofed_source(self):
        loop, a, b = self._pair()
        seen: list[Endpoint] = []
        b.bind(5060, lambda payload, src, now: seen.append(src))
        fake_src = Endpoint.parse("10.0.0.99:5060")
        a.send_raw_udp(fake_src, Endpoint.parse("10.0.0.2:5060"), b"forged")
        loop.run()
        assert seen == [fake_src]

    def test_not_my_ip_ignored(self):
        loop, a, b = self._pair()
        got: list[bytes] = []
        b.bind(5, lambda payload, src, now: got.append(payload))
        # Send to an address nobody owns: b must not process it even
        # though the frame is broadcast on the hub.
        a.send_udp(1, Endpoint.parse("10.0.0.77:5"), b"stray")
        loop.run()
        assert got == []

    def test_socket_counters(self):
        loop, a, b = self._pair()
        sock_b = b.bind(9999, lambda *args: None)
        sock_a = a.bind(1234, lambda *args: None)
        sock_a.send_to(Endpoint.parse("10.0.0.2:9999"), b"x")
        loop.run()
        assert sock_a.datagrams_out == 1
        assert sock_b.datagrams_in == 1


class TestSniffer:
    def test_captures_all_traffic(self):
        loop = EventLoop()
        hub = Hub(loop)
        a = HostStack("a", loop, ip="10.0.0.1", mac="02:00:00:00:00:01")
        b = HostStack("b", loop, ip="10.0.0.2", mac="02:00:00:00:00:02")
        tap = Sniffer("tap", loop)
        for iface in (a.iface, b.iface, tap.iface):
            hub.attach(iface)
        a.add_arp_entry("10.0.0.2", "02:00:00:00:00:02")
        b.bind(9, lambda *args: None)
        a.send_udp(1, Endpoint.parse("10.0.0.2:9"), b"secret")
        loop.run()
        assert tap.frames_captured == 1

    def test_live_subscription(self):
        loop = EventLoop()
        hub = Hub(loop)
        a = HostStack("a", loop, ip="10.0.0.1", mac="02:00:00:00:00:01")
        tap = Sniffer("tap", loop)
        hub.attach(a.iface)
        hub.attach(tap.iface)
        live: list[float] = []
        tap.subscribe(lambda frame, now: live.append(now))
        a.send_udp(1, Endpoint.parse("10.0.0.9:9"), b"x")
        loop.run()
        assert len(live) == 1
