"""Quantization index modulation on inter-packet delays.

A bit is embedded by moving an IPD onto the next multiple of delta/2 with
the right parity: even multiples carry 0, odd multiples carry 1.  Packets
are only ever delayed, never advanced, so the embedder works on cumulative
time and quantizes the gap that remains after earlier delays.
"""

from __future__ import annotations

import math

import numpy as np

from flowmark.traffic import PacketFlow, to_flow, to_ipds

# Relative guard so values sitting exactly on a quantizer point do not
# flip under floating-point round-off.
_GUARD = 1e-9


def _ceil_guarded(q: float) -> int:
    nearest = round(q)
    if abs(q - nearest) <= _GUARD * max(1.0, abs(q)):
        return int(nearest)
    return int(math.ceil(q))


def qim_embed(ipds: np.ndarray, code: np.ndarray, delta: float) -> np.ndarray:
    """Embed code bits into the first len(code) IPDs.

    Each embedded IPD becomes the smallest admissible multiple of delta/2
    (even multiple for a 0, odd for a 1) that does not advance the packet
    in cumulative time.  Trailing IPDs are passed through, shifted only as
    much as needed so no packet is advanced past its original arrival.
    """
    ipds = np.asarray(ipds, dtype=np.float64)
    code = np.asarray(code)
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if np.any(ipds < 0.0):
        raise ValueError("IPDs must be nonnegative")
    if ipds.size < code.size:
        raise ValueError(f"flow too short: {ipds.size} IPDs for {code.size} code bits; "
                         f"embedding needs at least {code.size + 1} packets")

    out = np.empty_like(ipds)
    cum_orig = 0.0
    cum_marked = 0.0
    for i in range(ipds.size):
        cum_orig += ipds[i]
        gap = max(cum_orig - cum_marked, 0.0)
        if i < code.size:
            steps = _ceil_guarded(gap / delta)
            marked = (steps + 0.5 * float(code[i] & 1)) * delta
        else:
            marked = gap
        out[i] = marked
        cum_marked += marked
    return out


def qim_extract(ipds: np.ndarray, delta: float) -> np.ndarray:
    """Read one bit per IPD: parity of the nearest multiple of delta/2.

    Ties (fractional part exactly 0.5) round down.  A zero IPD is an even
    point, which is why inserted back-to-back packets decode as 0.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    r = 2.0 * np.asarray(ipds, dtype=np.float64) / delta
    nearest = np.round(r)
    on_point = np.abs(r - nearest) <= _GUARD * np.maximum(1.0, np.abs(r))
    r = np.where(on_point, nearest, r)
    low = np.floor(r)
    frac = r - low
    quantizer = np.where(frac <= 0.5, low, np.ceil(r))
    return (quantizer.astype(np.int64) & 1).astype(np.uint8)


def embed_flow(flow: PacketFlow, code: np.ndarray, delta: float) -> tuple[PacketFlow, np.ndarray]:
    """Watermark a flow; returns the marked flow and per-packet added delays.

    The delay vector has one entry per packet (first is always 0); it is
    what a timing-attack overlay needs.
    """
    ipds = to_ipds(flow)
    marked = qim_embed(ipds, code, delta)
    out = to_flow(marked, start=float(flow.timestamps[0]), label=flow.label)
    delays = out.timestamps - flow.timestamps
    return out, delays
