"""Timestamp-level network channel: jitter, drops, bursty splits.

Effects are applied in order: independent packet deletion, geometric
bursts of inserted packets after each surviving packet, then jitter on
the resulting IPDs (clamped so IPDs stay nonnegative).  The log records
the drops, the insertions and each received packet's sent origin, which
locates the watermarked segment in the received flow; the decoder sees
jitter only as the bit-flip rate substitution_prob().
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from flowmark.traffic import PacketFlow, to_flow


@dataclass(frozen=True)
class ChannelParams:
    """Network channel knobs.

    sigma is the jitter standard deviation in seconds (the Laplace scale is
    sigma/sqrt(2)).  Packet 0 is never dropped; each later packet is
    dropped independently with probability p_delete.  After each surviving
    packet, L extra packets are inserted with P(L=l) = p_insert**l *
    (1-p_insert) below max_insert_run, which takes the tail.  Inserted
    packets arrive together with the survivor they follow: their IPDs are
    0 and read as bit 0 unless jitter flips them.  IdsParams.from_channel
    gives the decoder this same law.

    jitter selects how sigma perturbs the received IPDs:

    * "laplace": literal i.i.d. zero-mean Laplace noise.  Physically
      realistic, but both noise directions can cross the quantizer decision
      boundary, so the realized bit-flip rate is u/(1+u**2) with
      u = exp(-delta/(2*sqrt(2)*sigma)), about twice substitution_prob(),
      and the clamp at IPD 0 lowers it.  The decoder still reads this mode
      as a binary symmetric channel at substitution_prob(delta, sigma).
    * "quantizer": quantization-aware substitution.  Each received IPD is
      shifted by half a quantization step with exactly the probability
      substitution_prob(delta, sigma); requires delta.  An inserted zero
      IPD is pushed up, so it reads 1 with that probability.  This
      realizes the bit-substitution law the decoder is built on, and it is
      what the experiment harness uses to reproduce the reference
      robustness tables.
    """

    sigma: float = 0.0
    p_delete: float = 0.0
    p_insert: float = 0.0
    max_insert_run: int = 8
    seed: int = 0
    jitter: str = "laplace"
    delta: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError("sigma must be nonnegative")
        if not 0.0 <= self.p_delete <= 1.0:
            raise ValueError("p_delete must lie in [0, 1]")
        if not 0.0 <= self.p_insert < 1.0:
            raise ValueError("p_insert must lie in [0, 1)")
        if self.max_insert_run < 1:
            raise ValueError("max_insert_run must be at least 1")
        if self.jitter not in ("laplace", "quantizer"):
            raise ValueError("jitter must be 'laplace' or 'quantizer'")
        if self.jitter == "quantizer" and (self.delta is None or not 0.0 < self.delta < math.inf):
            raise ValueError("quantizer jitter needs a positive delta")


@dataclass(frozen=True)
class ChannelLog:
    """Ground truth for one transmission.

    origins[r] is the index, in the sent flow, of the packet that received
    packet r descends from (inserted packets point at the survivor they
    follow).  inserted_mask marks which received packets are insertions.
    """

    deleted_indices: np.ndarray
    origins: np.ndarray
    inserted_mask: np.ndarray

    @property
    def n_deleted(self) -> int:
        return int(self.deleted_indices.size)

    @property
    def n_inserted(self) -> int:
        return int(np.count_nonzero(self.inserted_mask))

    def segment_bits(self, last_marked: int) -> int:
        """Number of received bits whose IPD ends at a packet descending
        from sent packets 0..last_marked (the watermarked segment)."""
        return int(np.count_nonzero(self.origins[1:] <= last_marked))


def substitution_prob(delta: float, sigma: float) -> float:
    """One-sided tail of zero-mean Laplace jitter (standard deviation sigma)
    past delta/4, exp(-delta / (2*sqrt(2)*sigma)) / 2: the bit-flip rate
    that "quantizer" jitter realizes and the decoder assumes.  Literal
    Laplace jitter crosses a decision boundary on either side and flips
    about twice as often, u/(1+u**2) (see ChannelParams)."""
    if not delta >= 0.0:
        raise ValueError("delta must be nonnegative")
    if not sigma >= 0.0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0.0:
        return 0.0
    return 0.5 * math.exp(-delta / (2.0 * math.sqrt(2.0) * sigma))


def transmit(flow: PacketFlow, params: ChannelParams) -> tuple[PacketFlow, ChannelLog]:
    """Push a flow through the channel.  Deterministic for a fixed seed."""
    rng = np.random.Generator(np.random.PCG64(params.seed))
    ts = flow.timestamps
    m = ts.size

    drop = rng.random(m) < params.p_delete
    drop[0] = False
    deleted = np.nonzero(drop)[0]
    surv_idx = np.nonzero(~drop)[0]
    surv_ts = ts[surv_idx]

    if params.p_insert > 0.0:
        u = np.maximum(rng.random(surv_idx.size), 1e-300)
        runs = np.floor(np.log(u) / math.log(params.p_insert)).astype(np.int64)
        runs = np.minimum(runs, params.max_insert_run)
    else:
        runs = np.zeros(surv_idx.size, dtype=np.int64)

    counts = runs + 1
    origins = np.repeat(surv_idx, counts)
    out_ts = np.repeat(surv_ts, counts)
    ins_mask = np.diff(origins, prepend=-1) == 0

    ipds = np.diff(out_ts)
    if params.sigma > 0.0:
        if params.jitter == "laplace":
            noise = rng.laplace(0.0, params.sigma / math.sqrt(2.0), size=ipds.size)
        else:
            half = 0.5 * params.delta
            p_sub = substitution_prob(params.delta, params.sigma)
            flips = rng.random(ipds.size) < p_sub
            signs = np.where(rng.random(ipds.size) < 0.5, -1.0, 1.0)
            # an IPD too small to move down gets pushed up instead
            signs = np.where(ipds < half, 1.0, signs)
            noise = np.where(flips, signs * half, 0.0)
        ipds = np.maximum(ipds + noise, 0.0)

    log = ChannelLog(deleted_indices=deleted, origins=origins, inserted_mask=ins_mask)
    return to_flow(ipds, start=out_ts[0]), log
