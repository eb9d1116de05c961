"""Property tests (hypothesis) for the overload plane's penalty box.

The headline invariant, as required by the degraded-mode guarantee: the
router-door drop fires for a flooding source and never for a source far
below the heavy-hitter threshold, and the sketch under it never
under-counts.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience.overload import (
    CountMinSketch,
    OverloadConfig,
    SourceAccountant,
)

class TestSketchProperties:
    @given(st.lists(st.binary(min_size=4, max_size=4), max_size=300))
    @settings(max_examples=50)
    def test_estimate_never_undercounts(self, keys):
        sketch = CountMinSketch(width=64, depth=4)
        truth: dict[bytes, int] = {}
        for key in keys:
            truth[key] = truth.get(key, 0) + 1
            sketch.add(key)
        for key, count in truth.items():
            assert sketch.estimate(key) >= count


class TestPenaltyBoxDoorDrop:
    @given(
        st.integers(min_value=1, max_value=5),     # innocent source count
        st.integers(min_value=1, max_value=8),     # frames per innocent
        st.integers(min_value=200, max_value=800),  # flood frames
    )
    @settings(max_examples=30)
    def test_door_never_drops_a_below_threshold_source(
        self, innocents, per_innocent, flood_count
    ):
        """End-to-end over the accountant: after any mixed arrival
        pattern, the door-drop predicate (is_heavy) fires for the
        flooding source and never for a source far below hot_min."""
        config = OverloadConfig(hot_min=32, sketch_window=4096)
        accountant = SourceAccountant(config)
        flood = b"\x0a\x42\x42\x63"
        innocent_keys = [
            (0x0A640000 + i).to_bytes(4, "big") for i in range(innocents)
        ]
        # Interleave: innocents sprinkled through the flood.
        arrivals = [flood] * flood_count
        for key in innocent_keys:
            arrivals.extend([key] * per_innocent)
        for key in arrivals:
            accountant.record(key)
        assert accountant.is_heavy(flood)
        for key in innocent_keys:
            assert not accountant.is_heavy(key)
