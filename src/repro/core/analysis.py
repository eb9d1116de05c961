"""Analytic performance models from paper §4.3.1.

Notation (times in seconds; the paper uses milliseconds):

* ``T`` = 0.020 — the RTP packet generation period;
* ``N_rtp``, ``N_sip`` — network one-way delays of the next RTP packet
  and of the forged SIP message;
* ``G_sip`` — when, within the 20 ms gap between two RTP packets, the
  attacker generates the forged BYE/REINVITE;
* ``m`` — the IDS's orphan-flow monitoring window.

The paper's formulas (with its two sign typos corrected — both are
verifiable against its own stated conclusion E[D] = 10 ms for uniform
``G_sip`` on (0, 20 ms) and i.i.d. delays):

* detection delay   ``D = T + N_rtp − G_sip − N_sip``
* missed alarm      ``P_m = Pr{N_rtp − G_sip − N_sip > m − T}``
* false alarm       ``P_f = Pr{N_sip < N_rtp} = ∫ F_N(t) f_N(t) dt``

Each quantity is provided both in closed/quadrature form (scipy) and as
a Monte-Carlo estimator over the same :class:`~repro.sim.distributions.
Distribution` objects the simulator uses — the benchmarks cross-check
the two and then compare against full-testbed simulation.
"""

from __future__ import annotations

import math
import random

from repro.sim.distributions import Constant, Distribution

RTP_PERIOD = 0.020


# ---------------------------------------------------------------------------
# Detection delay
# ---------------------------------------------------------------------------


def expected_detection_delay(
    n_rtp: Distribution,
    g_sip: Distribution,
    n_sip: Distribution,
    period: float = RTP_PERIOD,
) -> float:
    """E[D] = T + E[N_rtp] − E[G_sip] − E[N_sip] (linearity of expectation)."""
    return period + n_rtp.mean - g_sip.mean - n_sip.mean


def sample_detection_delay(
    n_rtp: Distribution,
    g_sip: Distribution,
    n_sip: Distribution,
    rng: random.Random,
    period: float = RTP_PERIOD,
) -> float:
    """One Monte-Carlo draw of D (may be negative: the race the paper's
    false-alarm analysis considers — the RTP packet beating the BYE)."""
    return period + n_rtp.sample(rng) - g_sip.sample(rng) - n_sip.sample(rng)


def detection_delay_samples(
    n_rtp: Distribution,
    g_sip: Distribution,
    n_sip: Distribution,
    n: int,
    seed: int = 0,
    period: float = RTP_PERIOD,
) -> list[float]:
    rng = random.Random(seed)
    return [sample_detection_delay(n_rtp, g_sip, n_sip, rng, period) for __ in range(n)]


def detection_delay_quantiles(
    n_rtp: Distribution,
    g_sip: Distribution,
    n_sip: Distribution,
    quantiles: tuple[float, ...] = (0.05, 0.25, 0.5, 0.75, 0.95),
    samples: int = 100_000,
    seed: int = 0,
    period: float = RTP_PERIOD,
) -> dict[float, float]:
    """The detection-delay *distribution* the paper says "it is possible
    to compute" — returned as Monte-Carlo quantiles of D.

    Negative quantile values are meaningful: they are the probability
    mass where the RTP packet beats the forged SIP message (the race
    underlying P_f).
    """
    draws = sorted(detection_delay_samples(n_rtp, g_sip, n_sip, samples, seed, period))
    out: dict[float, float] = {}
    for q in quantiles:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        index = min(len(draws) - 1, max(0, int(round(q * (len(draws) - 1)))))
        out[q] = draws[index]
    return out


# ---------------------------------------------------------------------------
# Missed alarm probability
# ---------------------------------------------------------------------------


def missed_alarm_probability(
    n_rtp: Distribution,
    g_sip: Distribution,
    n_sip: Distribution,
    m: float,
    period: float = RTP_PERIOD,
) -> float:
    """P_m = Pr{N_rtp − G_sip − N_sip > m − T} by nested quadrature.

    This is the paper's single-packet model: the IDS misses iff the next
    RTP packet fails to arrive within the monitoring window.
    """
    from scipy import integrate

    threshold = m - period

    def survivor_rtp(x: float) -> float:
        return 1.0 - n_rtp.cdf(x)

    # Pr = ∫∫ Pr{N_rtp > threshold + g + s} f_G(g) f_S(s) dg ds
    def inner(s: float) -> float:
        g_lo, g_hi = _finite_support(g_sip)
        if isinstance(g_sip, Constant):
            return survivor_rtp(threshold + g_sip.value + s)
        value, __ = integrate.quad(
            lambda g: survivor_rtp(threshold + g + s) * g_sip.pdf(g), g_lo, g_hi, limit=200
        )
        return value

    if isinstance(n_sip, Constant):
        return max(0.0, min(1.0, inner(n_sip.value)))
    s_lo, s_hi = _finite_support(n_sip)
    total, __ = integrate.quad(lambda s: inner(s) * n_sip.pdf(s), s_lo, s_hi, limit=200)
    return max(0.0, min(1.0, total))


def missed_alarm_probability_mc(
    n_rtp: Distribution,
    g_sip: Distribution,
    n_sip: Distribution,
    m: float,
    trials: int = 20_000,
    seed: int = 0,
    period: float = RTP_PERIOD,
    loss_rate: float = 0.0,
    packets_considered: int = 1,
) -> float:
    """Monte-Carlo P_m, optionally with the multi-packet extension.

    With ``packets_considered > 1`` the miss requires *every* one of the
    next k RTP packets (generated at T, 2T, ... after the gap start) to
    either be lost (``loss_rate``) or arrive outside the window — a
    tighter model than the paper's single-packet approximation, shown in
    the ablation bench.
    """
    rng = random.Random(seed)
    misses = 0
    for __ in range(trials):
        g = g_sip.sample(rng)
        s = n_sip.sample(rng)
        missed = True
        for k in range(1, packets_considered + 1):
            if loss_rate > 0.0 and rng.random() < loss_rate:
                continue  # this packet never arrives
            arrival_after_sip = k * period + n_rtp.sample(rng) - g - s
            if arrival_after_sip <= m:
                missed = False
                break
        if missed:
            misses += 1
    return misses / trials


# ---------------------------------------------------------------------------
# False alarm probability
# ---------------------------------------------------------------------------


def false_alarm_probability(
    n_rtp: Distribution,
    n_sip: Distribution,
    m: float | None = None,
) -> float:
    """P_f = Pr{N_sip < N_rtp (< N_sip + m)} = ∫ F_sip(t) f_rtp(t) dt.

    The paper's scenario: a *valid* BYE is sent immediately after the
    last RTP packet; if reordering makes the BYE overtake that packet,
    the packet arrives inside the monitoring window and a false alarm
    fires.  With i.i.d. identical delay distributions the integral is
    exactly 1/2 (by symmetry), matching the paper's expression.
    """
    from scipy import integrate

    lo, hi = _finite_support(n_rtp)
    if isinstance(n_rtp, Constant):
        if isinstance(n_sip, Constant):
            # Strict inequality between two point masses.
            hit = n_sip.value < n_rtp.value and (
                m is None or n_rtp.value - n_sip.value <= m
            )
            return 1.0 if hit else 0.0
        base = n_sip.cdf(n_rtp.value)
        if m is not None:
            base -= n_sip.cdf(n_rtp.value - m)
        return max(0.0, min(1.0, base))

    def integrand(t: float) -> float:
        inside = n_sip.cdf(t)
        if m is not None:
            inside -= n_sip.cdf(t - m)
        return inside * n_rtp.pdf(t)

    value, __ = integrate.quad(integrand, lo, hi, limit=200)
    return max(0.0, min(1.0, value))


def false_alarm_probability_mc(
    n_rtp: Distribution,
    n_sip: Distribution,
    m: float | None = None,
    trials: int = 20_000,
    seed: int = 0,
) -> float:
    rng = random.Random(seed)
    hits = 0
    for __ in range(trials):
        rtp = n_rtp.sample(rng)
        sip = n_sip.sample(rng)
        if sip < rtp and (m is None or rtp - sip <= m):
            hits += 1
    return hits / trials


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _finite_support(dist: Distribution, tail_mass: float = 1e-9) -> tuple[float, float]:
    """Clip an infinite support to where essentially all mass lives."""
    lo, hi = dist.support
    if math.isinf(hi):
        hi = max(lo + 1e-6, dist.mean)
        while 1.0 - dist.cdf(hi) > tail_mass:
            hi *= 2.0
            if hi > 1e6:  # pragma: no cover - pathological distribution
                break
    return lo, hi

