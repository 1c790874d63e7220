"""Quantization index modulation on inter-packet delays.

A bit is embedded in one inter-packet delay (IPD): for a 0 the marked IPD
is the first multiple of delta at or after the gap that remains after
earlier delays, for a 1 it is delta/2 more.  The extractor reads the parity
of the nearest multiple of delta/2, so even multiples carry 0 and odd ones
carry 1.  Packets are only ever delayed, never advanced.
"""

from __future__ import annotations

import numpy as np

from flowmark.idscode import as_bits
from flowmark.traffic import PacketFlow, to_flow, to_ipds

# The embedder's guard, absolute in units of delta: a gap sitting exactly on
# a multiple of delta must not gain a whole step under floating-point
# round-off.
_GUARD = 1e-9


def qim_embed(ipds: np.ndarray, code: np.ndarray, delta: float) -> np.ndarray:
    """Embed code bits into the first len(code) IPDs.

    Each embedded IPD carrying a 0 ends on the first multiple of delta at
    or after the gap that remains in cumulative time; one carrying a 1 ends
    delta/2 past that point, so the added delay stays below 1.5 * delta.
    Trailing IPDs are passed through, shifted only as much as needed so no
    packet is advanced past its original arrival.
    """
    ipds = np.asarray(ipds, dtype=np.float64)
    code = as_bits(code)
    if not 0.0 < delta < np.inf:
        raise ValueError("delta must be positive")
    if np.any(ipds < 0.0):
        raise ValueError("IPDs must be nonnegative")
    if ipds.size < code.size:
        raise ValueError(f"flow too short: {ipds.size} IPDs for {code.size} code bits; "
                         f"embedding needs at least {code.size + 1} packets")

    cum = np.cumsum(ipds)
    bits = code.astype(np.float64)
    ones_before = np.cumsum(bits) - bits
    # Departure i less delta/2 per earlier 1 sits on the delta lattice, at
    # index K_i = max(K_{i-1}, ceil((arrival_i - ones_before_i * delta/2) /
    # delta)).  The IPDs come from the integer steps, not from differences
    # of lattice times, which round differently: marked times sit on the
    # edges of mfa_aggregate's bins, where rounding decides the bin.
    index = np.ceil((cum[:code.size] - ones_before * (0.5 * delta)) / delta - _GUARD)
    index = np.maximum.accumulate(index)
    head = (np.diff(index, prepend=0.0) + 0.5 * bits) * delta
    # past the code a packet leaves at max(arrival, head end); the head end
    # is the sequential sum (not np.sum's pairwise one) that a walk gives
    head_end = np.cumsum(head)[-1] if head.size else 0.0
    tail = np.diff(np.maximum(cum[code.size:], head_end), prepend=head_end)
    return np.concatenate([head, tail])


def qim_extract(ipds: np.ndarray, delta: float) -> np.ndarray:
    """Read one bit per IPD: parity of the nearest multiple of delta/2.

    Ties (fractional part exactly 0.5) round down.  A zero IPD is an even
    point, which is why inserted back-to-back packets decode as 0.
    """
    if not 0.0 < delta < np.inf:
        raise ValueError("delta must be positive")
    quantizer = np.ceil(2.0 * np.asarray(ipds, dtype=np.float64) / delta - 0.5)
    return (quantizer.astype(np.int64) & 1).astype(np.uint8)


def embed_flow(flow: PacketFlow, code: np.ndarray, delta: float) -> tuple[PacketFlow, np.ndarray]:
    """Watermark a flow; returns the marked flow and per-packet added delays.

    The delay vector has one entry per packet (first is always 0); it is
    what a timing-attack overlay needs.
    """
    ipds = to_ipds(flow)
    marked = qim_embed(ipds, code, delta)
    out = to_flow(marked, start=float(flow.timestamps[0]))
    delays = out.timestamps - flow.timestamps
    return out, delays
