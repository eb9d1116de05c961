"""The media fast path serves the shared workload trace's media.

A change that silently turns the fast path off keeps every alert right
and only costs time, so the served share is pinned here, on the
shared small trace, and the run is held to its oracle (an engine with
a hook attached, which always takes the full pipeline).
"""

from __future__ import annotations

from repro.core.engine import ScidiveEngine
from repro.core.hooks import FootprintHook
from repro.rtp.packet import looks_like_rtp

# Measured share of the trace's RTP frames the fast path served when it
# landed (20,587 of 20,628: 0.998), less ten points.
SERVED_SHARE_FLOOR = 0.89


def _rtp_frames(trace) -> int:
    return sum(
        1 for record in trace
        if len(record.frame) > 42 and looks_like_rtp(record.frame[42:])
        and not 200 <= record.frame[43] <= 204
    )


def test_fast_path_serves_the_media_and_matches_its_oracle(small_workload):
    trace = small_workload.trace
    fast = ScidiveEngine(vantage_ip=None)
    oracle = ScidiveEngine(vantage_ip=None, hook=FootprintHook())
    for engine in (fast, oracle):
        engine.process_trace(trace)
    share = fast.media_fast.served / _rtp_frames(trace)
    assert share >= SERVED_SHARE_FLOOR, share
    assert oracle.media_fast.served == 0
    assert sorted(repr(a.to_dict()) for a in fast.alerts) == sorted(
        repr(a.to_dict()) for a in oracle.alerts
    )
    assert fast.stats.footprints == oracle.stats.footprints
