"""Invisibility checks: KS distance on IPDs, multi-flow aggregation
statistics, and a round-trip-time difference overlay."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from flowmark.traffic import PacketFlow

# Flows whose IPD distributions differ by less than this KS distance are
# treated as indistinguishable.
KS_VISIBILITY_THRESHOLD = 0.036


@dataclass(frozen=True)
class KsResult:
    distance: float
    threshold: float
    indistinguishable: bool


@dataclass(frozen=True)
class MfaResult:
    """Blank-interval statistics of an aggregate of flows."""

    blank_count: int
    total_intervals: int
    counts: np.ndarray


@dataclass(frozen=True)
class DrttResult:
    """Consecutive-RTT differences with and without watermark delays."""

    raw_deltas: np.ndarray
    marked_deltas: np.ndarray
    ks: KsResult


def ks_distance(a, b, threshold: float = KS_VISIBILITY_THRESHOLD) -> KsResult:
    """Exact two-sample Kolmogorov-Smirnov distance.

    The supremum of |F_a - F_b| is attained at a sample point, so it is
    evaluated over the pooled sorted samples; no asymptotics involved.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], not {threshold}")
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / a.size
    fb = np.searchsorted(b, pooled, side="right") / b.size
    dist = float(np.max(np.abs(fa - fb)))
    return KsResult(distance=dist, threshold=threshold,
                    indistinguishable=dist < threshold)


def mfa_aggregate(flows, interval: float) -> MfaResult:
    """Aggregate flows (each shifted to start at 0) and count packets per
    fixed interval; blank intervals expose batched watermark schemes."""
    if not 0.0 < interval < math.inf:
        raise ValueError("interval must be positive")
    if not flows:
        raise ValueError("need at least one flow")
    shifted = [f.timestamps - f.timestamps[0] for f in flows]
    merged = np.concatenate(shifted)
    span = float(merged.max())
    nbins = max(1, int(math.ceil(span / interval)))
    edges = np.arange(nbins + 1) * interval
    if edges[-1] < span:
        edges[-1] = span  # guard against float round-down on the last edge
    counts, _ = np.histogram(merged, bins=edges)
    return MfaResult(
        blank_count=int(np.count_nonzero(counts == 0)),
        total_intervals=nbins,
        counts=counts,
    )


def delta_rtt_overlay(ping_rtts, watermark_delays) -> DrttResult:
    """Overlay per-packet watermark delays onto a ping RTT series and
    compare the distributions of consecutive RTT differences.

    Models a relay-observer test: the observer watches RTT jumps between
    consecutive requests, so constant shifts cancel and only delay
    *changes* can show.
    """
    rtts = np.asarray(ping_rtts, dtype=np.float64)
    delays = np.asarray(watermark_delays, dtype=np.float64)
    if rtts.size < 2:
        raise ValueError("need at least two RTT samples")
    if delays.size > rtts.size:
        raise ValueError("more watermark delays than RTT samples")
    marked = rtts.copy()
    marked[: delays.size] += delays
    raw_d = np.diff(rtts)
    marked_d = np.diff(marked)
    return DrttResult(
        raw_deltas=raw_d,
        marked_deltas=marked_d,
        ks=ks_distance(raw_d, marked_d),
    )
