"""Property-based tests for core IDS data structures and invariants."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Event
from repro.core.rules import ConjunctionRule, RuleSet, ThresholdRule
from repro.core.alerts import AlertLog
from repro.core.trail import TrailManager
from repro.rtp.jitter import PlayoutBuffer
from repro.rtp.packet import RtpPacket
from repro.rtp.stats import StreamStats
from repro.sim.eventloop import EventLoop


class TestEventLoopProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1000.0,
                              allow_nan=False, allow_infinity=False), max_size=60))
    def test_events_always_run_in_time_order(self, times):
        loop = EventLoop()
        seen: list[float] = []
        for t in times:
            loop.call_at(t, lambda t=t: seen.append(t))
        loop.run()
        assert seen == sorted(times)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False, allow_infinity=False), max_size=40),
           st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    def test_run_until_partitions_cleanly(self, times, horizon):
        loop = EventLoop()
        seen: list[float] = []
        for t in times:
            loop.call_at(t, lambda t=t: seen.append(t))
        loop.run_until(horizon)
        assert seen == sorted(t for t in times if t <= horizon)


class TestThresholdRuleProperties:
    @given(
        event_times=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=60
        ),
        threshold=st.integers(1, 8),
        window=st.floats(min_value=0.1, max_value=50.0),
    )
    @settings(max_examples=80)
    def test_fires_iff_count_in_window_reached(self, event_times, threshold, window):
        """Independent reference implementation vs the rule."""
        rule = ThresholdRule("T", "t", "E", threshold=threshold, window=window, cooldown=0.0)
        rs = RuleSet([rule])
        log = AlertLog()
        trails = TrailManager()
        times = sorted(event_times)
        fired_at = []
        for t in times:
            if rs.match(Event(name="E", time=t, session="s"), trails, log):
                fired_at.append(t)
        # Reference: at each event, count events within (t-window, t].
        expected = [
            t for i, t in enumerate(times)
            if sum(1 for u in times[: i + 1] if u >= t - window) >= threshold
        ]
        assert fired_at == expected

    @given(st.integers(2, 5), st.lists(st.sampled_from(["X", "Y", "Z", "W"]), max_size=30))
    def test_conjunction_never_fires_without_all_members(self, n, names):
        required = ("X", "Y", "Z", "W")[:n]
        rule = ConjunctionRule("C", "c", required, window=1e9, cooldown=0.0)
        rs = RuleSet([rule])
        log = AlertLog()
        trails = TrailManager()
        seen: set[str] = set()
        for i, name in enumerate(names):
            alerts = rs.match(Event(name=name, time=float(i), session="s"), trails, log)
            if name in required:
                seen.add(name)
            if alerts:
                assert seen >= set(required)
                seen = set()  # rule resets after firing


class TestPlayoutBufferProperties:
    @given(
        seqs=st.lists(st.integers(0, 50), min_size=1, max_size=60),
        capacity=st.integers(2, 20),
    )
    @settings(max_examples=80)
    def test_played_sequence_is_monotone(self, seqs, capacity):
        """Whatever arrives, playout order never goes backwards."""
        from repro.rtp.packet import seq_delta

        buf = PlayoutBuffer(capacity=capacity)
        played: list[int] = []
        for seq in seqs:
            buf.push(RtpPacket(payload_type=0, sequence=seq, timestamp=0, ssrc=1, payload=b""))
            packet = buf.pop_ready()
            if packet is not None:
                played.append(packet.sequence)
        for a, b in zip(played, played[1:]):
            assert seq_delta(b, a) > 0

    @given(seqs=st.lists(st.integers(0, 0xFFFF), max_size=60))
    def test_accounting_identity(self, seqs):
        """played + displaced + late + buffered == pushed (no packet lost track of)."""
        buf = PlayoutBuffer(capacity=8)
        pops = 0
        for seq in seqs:
            buf.push(RtpPacket(payload_type=0, sequence=seq, timestamp=0, ssrc=1, payload=b""))
            if buf.pop_ready() is not None:
                pops += 1
        # Unique pushes: duplicates overwrite in-buffer entries.
        stats = buf.stats
        assert stats.played == pops
        assert stats.played + stats.late_dropped + stats.displaced + buf.depth >= len(set(seqs)) - stats.displaced - len(seqs)
        assert stats.played <= len(seqs)


class TestStreamStatsProperties:
    @given(st.lists(st.integers(0, 200), min_size=1, max_size=100))
    def test_never_crashes_and_counts_consistent(self, seqs):
        stats = StreamStats(ssrc=1)
        for i, seq in enumerate(seqs):
            stats.update(
                RtpPacket(payload_type=0, sequence=seq, timestamp=seq * 160, ssrc=1, payload=b"x"),
                arrival_time=i * 0.02,
            )
        assert stats.packets_received == len(seqs)
        assert 0.0 <= stats.fraction_lost <= 1.0

    @given(start=st.integers(0, 0xFFFF), count=st.integers(1, 300))
    def test_gapless_stream_has_zero_loss_across_wraparound(self, start, count):
        stats = StreamStats(ssrc=1)
        for i in range(count):
            seq = (start + i) & 0xFFFF
            stats.update(
                RtpPacket(payload_type=0, sequence=seq, timestamp=i * 160, ssrc=1, payload=b"x"),
                arrival_time=i * 0.02,
            )
        assert stats.expected == count
        assert stats.lost == 0


class TestTrailManagerProperties:
    @given(st.data())
    @settings(max_examples=40)
    def test_every_footprint_lands_in_exactly_one_trail(self, data):
        from repro.core.footprint import RtpFootprint
        from repro.net.addr import Endpoint, IPv4Address, MacAddress

        manager = TrailManager()
        n = data.draw(st.integers(1, 40))
        total = 0
        for i in range(n):
            src_port = data.draw(st.sampled_from([40000, 40002, 40004]))
            dst_port = data.draw(st.sampled_from([40000, 40002]))
            fp = RtpFootprint(
                timestamp=float(i),
                src=Endpoint(IPv4Address.parse("10.0.0.20"), src_port),
                dst=Endpoint(IPv4Address.parse("10.0.0.10"), dst_port),
                src_mac=MacAddress("02:00:00:00:00:01"),
                dst_mac=MacAddress("02:00:00:00:00:02"),
                wire_bytes=200,
                ssrc=1,
                sequence=i & 0xFFFF,
            )
            manager.push(fp)
            total += 1
        # Held in a trail's bounded tail, or counted by it as evicted.
        assert sum(len(t) + t.evicted for t in manager.trails.values()) == total
