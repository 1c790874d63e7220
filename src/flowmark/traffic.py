"""Packet flows, synthetic traffic, and timestamp trace files.

A flow is an ordered sequence of packet arrival times in seconds.  The
inter-packet delay (IPD) view is the first difference of the timestamps;
both views round-trip exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PacketFlow:
    """Arrival timestamps of one packet flow, seconds, nondecreasing."""

    timestamps: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.float64)
        if ts.ndim != 1:
            raise ValueError("timestamps must be one-dimensional")
        if ts.size == 0:
            raise ValueError("a flow needs at least one packet")
        if not np.all(np.isfinite(ts)):
            raise ValueError("timestamps must be finite")
        if ts[0] < 0.0:
            raise ValueError("timestamps must be nonnegative")
        if np.any(np.diff(ts) < 0.0):
            raise ValueError("timestamps must be nondecreasing")
        ts.flags.writeable = False
        object.__setattr__(self, "timestamps", ts)

    def __len__(self) -> int:
        return int(self.timestamps.size)

    @property
    def duration(self) -> float:
        return float(self.timestamps[-1] - self.timestamps[0])


def poisson_flow(rate: float, count: int, seed: int) -> PacketFlow:
    """Generate a Poisson flow: `count` packets with i.i.d. exponential IPDs.

    The first packet arrives at t=0 and the mean IPD is 1/rate seconds.
    Deterministic for a fixed seed.
    """
    if not 0.0 < rate < math.inf:
        raise ValueError("rate must be positive")
    if count < 2:
        raise ValueError("count must be at least 2")
    rng = np.random.Generator(np.random.PCG64(seed))
    ipds = rng.exponential(1.0 / rate, size=count - 1)
    ts = np.concatenate(([0.0], np.cumsum(ipds)))
    return PacketFlow(ts)


def to_ipds(flow: PacketFlow) -> np.ndarray:
    """Inter-packet delays of a flow, one fewer than its packets (none for one)."""
    return np.diff(flow.timestamps)


def to_flow(ipds: np.ndarray, start: float = 0.0) -> PacketFlow:
    """Rebuild a flow from IPDs and the first arrival time."""
    ipds = np.asarray(ipds, dtype=np.float64)
    if np.any(ipds < 0.0):
        raise ValueError("IPDs must be nonnegative")
    ts = np.empty(ipds.size + 1)
    ts[0] = start
    np.cumsum(ipds, out=ts[1:])
    ts[1:] += start
    return PacketFlow(ts)


# read_values hands float() blocks of about this many characters' lines
# at a time, so a long trace is never held whole
READ_BLOCK_CHARS = 1 << 16


def read_values(path, what: str) -> np.ndarray:
    """Read one finite decimal value per line into a float64 array.  Lines
    are stripped; blank lines and `#` comments are ignored; a bad value's
    error (`nan` and `inf` are bad) names the file, the line and `what` it
    should be (e.g. "a timestamp").

    The file is read in blocks of lines, and each block is converted by
    one pass of float(), which ignores the whitespace strip() removes, so
    every value is exactly float() of its stripped line.  A block that
    float() refuses somewhere, or that holds a non-finite value, takes the
    line rule line by line."""
    blocks = []
    start = 1
    with open(path, "r", encoding="utf-8") as fh:
        while lines := fh.readlines(READ_BLOCK_CHARS):
            try:
                values = np.fromiter(map(float, lines), np.float64, len(lines))
            except ValueError:
                values = None
            if values is None or not np.isfinite(values).all():
                values = np.array(_values_by_line(lines, start, path, what), dtype=np.float64)
            blocks.append(values)
            start += len(lines)
    return np.concatenate(blocks) if blocks else np.empty(0)


def _values_by_line(lines, start: int, path, what: str) -> list[float]:
    """read_values' line rule on lines that begin at line number start."""
    values = []
    for lineno, line in enumerate(lines, start=start):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"{path}: line {lineno}: not {what}: {text!r}")
        values.append(value)
    return values


def read_trace(path, clamp: bool = False) -> PacketFlow:
    """Read a timestamp trace: one decimal seconds value per line, as
    read_values reads it.  Decreasing timestamps are an error unless
    `clamp` is set, which clamps negative gaps to zero (for traces with
    jitter-induced tiny negative gaps).
    """
    ts = read_values(path, "a timestamp")
    if not ts.size:
        raise ValueError(f"{path}: no timestamps found")
    if clamp:
        ts = np.maximum.accumulate(ts)
    else:
        bad = np.nonzero(np.diff(ts) < 0.0)[0]
        if bad.size:
            raise ValueError(
                f"{path}: timestamps decrease at entry {bad[0] + 2} "
                "(pass clamp to clamp negative gaps to zero)"
            )
    return PacketFlow(ts)


def write_trace(flow: PacketFlow, path) -> None:
    """Write a flow in the trace format read_trace accepts (9 decimals)."""
    with open(path, "w", encoding="utf-8") as fh:
        for t in flow.timestamps:
            fh.write(f"{t:.9f}\n")
