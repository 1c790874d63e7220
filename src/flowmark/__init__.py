"""Invisible flow watermarking over inter-packet delays.

Embeds a watermark into packet timing with quantization index modulation,
simulates a network channel with jitter, drops, and bursty packet splits,
and recovers the watermark with a trellis decoder that tracks packet drift
and merged-bit accumulation.
"""

from flowmark.traffic import PacketFlow, poisson_flow, to_flow, to_ipds, read_trace, write_trace
from flowmark.idscode import WatermarkConfig, encode, keystream, sparsify, watermark_bits
from flowmark.qim import embed_flow, qim_embed, qim_extract
from flowmark.channel import ChannelLog, ChannelParams, substitution_prob, transmit
from flowmark.decoder import (
    DecodeInfeasibleError,
    DetectionReport,
    IdsParams,
    Trellis,
    block_posterior,
    calibrate_threshold,
    decode,
    trellis_tables,
)
from flowmark.analysis import KsResult, MfaResult, delta_rtt_overlay, ks_distance, mfa_aggregate

__version__ = "0.1.0"

__all__ = [
    "PacketFlow",
    "poisson_flow",
    "to_flow",
    "to_ipds",
    "read_trace",
    "write_trace",
    "WatermarkConfig",
    "encode",
    "keystream",
    "sparsify",
    "watermark_bits",
    "embed_flow",
    "qim_embed",
    "qim_extract",
    "ChannelLog",
    "ChannelParams",
    "substitution_prob",
    "transmit",
    "DecodeInfeasibleError",
    "DetectionReport",
    "IdsParams",
    "Trellis",
    "block_posterior",
    "calibrate_threshold",
    "decode",
    "trellis_tables",
    "KsResult",
    "MfaResult",
    "delta_rtt_overlay",
    "ks_distance",
    "mfa_aggregate",
]
