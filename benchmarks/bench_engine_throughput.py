"""Engine efficiency: Distiller / event / rule pipeline throughput.

The paper motivates the Event Generator on efficiency grounds: "It helps
performance by hiding some computationally expensive matching, e.g., by
triggering the ruleset at the moment of interest instead of triggering
it upon each incoming RTP Footprint."  These benches measure:

* full-engine replay throughput (frames/s) over a realistic workload;
* the Distiller alone (decode cost);
* the DESIGN.md ablation: event-prefiltered rule matching vs a naive
  engine variant that consults the ruleset on *every footprint* via a
  raw-trail-scanning pseudo-event.
"""

from __future__ import annotations

import pytest

from repro.core.distiller import Distiller
from repro.core.engine import ScidiveEngine
from repro.core.events import Event
from repro.experiments.report import format_table
from repro.experiments.workloads import WorkloadSpec, capture_workload
from repro.voip.testbed import CLIENT_A_IP


@pytest.fixture(scope="module")
def workload():
    return capture_workload(WorkloadSpec(calls=4, ims=4, churn_rounds=3, seed=51))


def test_full_engine_throughput(benchmark, workload, emit):
    def replay():
        engine = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        engine.process_trace(workload)
        return engine

    engine = benchmark(replay)
    rate = len(workload) / engine.stats.cpu_seconds
    emit(
        format_table(
            ["metric", "value"],
            [
                ["frames", len(workload)],
                ["footprints", engine.stats.footprints],
                ["events", engine.stats.events],
                ["alerts", engine.stats.alerts],
                ["throughput (frames/s, engine-internal)", f"{rate:,.0f}"],
            ],
            title="Engine throughput — full pipeline over a mixed workload",
        )
    )
    assert engine.stats.alerts == 0  # benign workload
    assert rate > 1000  # comfortably above VoIP line rate (50 pps/call)


def test_distiller_only_throughput(benchmark, workload, emit):
    def distill_all():
        distiller = Distiller()
        for record in workload:
            distiller.distill(record.frame, record.timestamp)
        return distiller

    distiller = benchmark(distill_all)
    emit(
        f"Distiller alone: {len(workload)} frames, "
        f"{distiller.stats.footprints} footprints"
    )
    assert distiller.stats.footprints > 0


def test_event_prefilter_vs_raw_scan(benchmark, workload, emit):
    """Ablation: the cost of skipping the Event Generator abstraction.

    The naive variant emits a pseudo-event for every footprint and makes
    the ruleset scan the footprint's whole trail each time — the 'direct
    access ... is inefficient' path the paper describes.
    """
    import time

    def run_eventful():
        engine = ScidiveEngine(vantage_ip=CLIENT_A_IP)
        engine.process_trace(workload)
        return engine.stats.cpu_seconds

    def run_naive():
        """No event generators: every RTP footprint triggers a raw scan
        of the session's SIP trail for teardown/redirect evidence, and
        every SIP footprint re-scans its own trail — the 'searching for
        specific Footprints, possibly in multiple Trails' cost.  SCIDIVE's
        trails index footprints without keeping them, so the naive engine
        keeps its own per-trail footprint history to scan."""
        from repro.core.footprint import RtpFootprint, SipFootprint

        engine = ScidiveEngine(vantage_ip=CLIENT_A_IP, generators=[])
        started = time.perf_counter()
        distiller = engine.distiller
        history: dict[tuple, list] = {}  # trail key -> its footprints
        raw_hits = 0
        for record in workload:
            fp = distiller.distill(record.frame, record.timestamp)
            if fp is None:
                continue
            trail = engine.trails.push(fp)
            if isinstance(fp, SipFootprint):
                engine.sip_state.observe(fp, trail)
            history.setdefault(trail.key, []).append(fp)
            if isinstance(fp, RtpFootprint) and trail.call_id:
                # A call's record is its SIP trail.
                sip_trail = engine.trails.calls.get(trail.call_id)
                if sip_trail is not None and sip_trail.count:
                    # Re-derive media legitimacy from raw footprints:
                    # scan the SIP trail, re-parse every SDP body, and
                    # compare against this packet's source — the work
                    # SCIDIVE's cached session state avoids per packet.
                    from repro.sip.sdp import SdpError, SessionDescription

                    for sip_fp in history[sip_trail.key]:
                        if not isinstance(sip_fp, SipFootprint):
                            continue
                        message = sip_fp.message
                        ctype = message.headers.get("Content-Type") or ""
                        if "application/sdp" in ctype.lower() and message.body:
                            try:
                                endpoint = SessionDescription.parse(
                                    message.body
                                ).audio_endpoint()
                            except SdpError:
                                continue
                            if endpoint == fp.src:
                                raw_hits += 1
                        if (
                            sip_fp.is_request
                            and sip_fp.method in ("BYE", "INVITE")
                            and sip_fp.timestamp <= fp.timestamp
                        ):
                            raw_hits += 1
            elif isinstance(fp, SipFootprint):
                # Re-derive session state by scanning the trail.
                for older in history[trail.key]:
                    if isinstance(older, SipFootprint) and older.method == fp.method:
                        raw_hits += 1
        elapsed = time.perf_counter() - started
        assert raw_hits > 0
        return elapsed

    eventful = benchmark(run_eventful)
    naive = run_naive()
    emit(
        format_table(
            ["pipeline variant", "cpu seconds"],
            [
                ["event-prefiltered (SCIDIVE)", f"{eventful:.4f}"],
                ["per-footprint raw-trail scan", f"{naive:.4f}"],
            ],
            title="Ablation — event generator prefiltering vs raw trail scans",
        )
    )
    assert naive > eventful, "the paper's efficiency claim should reproduce"
