"""Batch experiment harness: embed, transmit, decode, tabulate.

A config describes one grid of channel/watermark parameter cells.  Each
cell runs `trials` watermarked and `trials` control flows end to end,
decoding the cell's received streams together in fixed-size chunks,
calibrates the detection threshold on the control scores, and reports the
true-positive rate at that threshold.  Every trial's randomness is derived
from the master seed, the cell index, the trial index, and the stream
role, so reruns are bit-identical regardless of worker count.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from flowmark.channel import ChannelParams, transmit
from flowmark.decoder import IdsParams, calibrate_threshold, decode_batch, present
from flowmark.idscode import WatermarkConfig, encode, watermark_bits
from flowmark.qim import embed_flow, qim_extract
from flowmark.traffic import PacketFlow, poisson_flow, read_trace, to_ipds

# the grid axes: list-valued in a config, scalar in a cell
GRID_FIELDS = ("n", "delta_ms", "sigma_ms", "p_d", "p_i")

# a trial's stream roles; role r seeds its flow with 2r and its channel
# with 2r + 1 in the per-trial seed fan-out
WATERMARKED, CONTROL, HOLDOUT = range(3)

# a cell's flows are decoded together in chunks of this many.  An
# in-process decode_batch costs about 2.4, 1.5, 1.0 and 0.9 ms per flow at
# the operating point in chunks of 4, 8, 16 and 32 flows (6.2 ms alone),
# and 4.5, 4.2, 3.3 and 2.0 ms at p_d = p_i = 0.1 (11.5 ms alone; medians
# of 11 reps over 32 streams, 2-core VM, Python 3.11, numpy 2.4); wider
# chunks gain little per flow and pad more flows to the union of their
# drift bands
DECODE_CHUNK = 32


def derive_seed(master: int, cell: int, trial: int, role: int) -> int:
    """Documented seed-splitting rule (stable across runs and platforms)."""
    ss = np.random.SeedSequence([int(master), int(cell), int(trial), int(role)])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass
class ExperimentConfig:
    """One experiment grid.  List-valued watermark/channel fields form the
    cross product of cells.  A cell is the config with those fields scalar
    (see grid_cells).  Flows are read from the regular files in trace_dir
    when it is set, else drawn as Poisson flows of rate_pps."""

    n: int | list = 50
    spread: int = 10
    delta_ms: float | list = 100.0
    key_seed: int = 1
    sigma_ms: float | list = 10.0
    p_d: float | list = 0.0
    p_i: float | list = 0.0
    max_insert_run: int = 8
    jitter_mode: str = "quantizer"
    rate_pps: float = 3.3
    flow_len: int = 2000
    trace_dir: str | None = None
    trials: int = 500
    alpha: float = 0.01
    seed: int = 0
    jobs: int = 1
    holdout: bool = False
    # optional decoder-side mismatch (defaults mirror the channel)
    dec_sigma_ms: float | None = None
    dec_p_d: float | None = None
    dec_p_i: float | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0.0 < self.alpha < 0.5:
            raise ValueError("alpha must lie in (0, 0.5)")
        if self.trace_dir is not None and not os.path.isdir(self.trace_dir):
            raise ValueError(f"trace_dir does not exist: {self.trace_dir!r}")
        if self.jitter_mode not in ("laplace", "quantizer"):
            raise ValueError("jitter_mode must be 'laplace' or 'quantizer'")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if not 0.0 < self.rate_pps < math.inf:
            raise ValueError(f"rate_pps must be positive and finite, not {self.rate_pps}")
        for name in ("seed", "key_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, not {getattr(self, name)}")
        for name in GRID_FIELDS:
            if isinstance(getattr(self, name), (list, tuple)) and not getattr(self, name):
                raise ValueError(f"{name}: a grid axis needs at least one value")


class Cell(NamedTuple):
    """One grid cell: the config with scalar grid fields, the cell's index
    in the grid (for the seed fan-out), its watermark config and codeword,
    the sorted trace files' flows cut at flow_len (none for Poisson
    traffic), its packet channel at seed 0 and the decoder's bit law, that
    channel's with the dec_* overrides."""

    config: ExperimentConfig
    index: int
    wm: WatermarkConfig
    code: np.ndarray
    traces: tuple
    channel: ChannelParams
    law: IdsParams


def grid_cells(config: ExperimentConfig) -> list[Cell]:
    """The grid's cells, each trace file read once for all of them; each
    cell's values and flow lengths are checked here, before any trial."""
    traces, shortest = (), (config.flow_len, "")
    if config.trace_dir is not None:
        paths = (os.path.join(config.trace_dir, f) for f in os.listdir(config.trace_dir)
                 if not f.startswith("."))
        files = sorted(path for path in paths if os.path.isfile(path))
        if not files:
            raise ValueError(f"no trace files in {config.trace_dir!r}")
        traces = tuple(PacketFlow(read_trace(path, clamp=True).timestamps[: config.flow_len])
                       for path in files)
        shortest = min((len(flow), f"{path}: ") for flow, path in zip(traces, files))
    axes = [getattr(config, name) for name in GRID_FIELDS]
    axes = [v if isinstance(v, (list, tuple)) else [v] for v in axes]
    cells = []
    for index, combo in enumerate(itertools.product(*axes)):
        c = dataclasses.replace(config, **dict(zip(GRID_FIELDS, combo)))
        wm = WatermarkConfig(watermark=watermark_bits(c.seed + c.key_seed, int(c.n)),
                             spread=c.spread, delta=c.delta_ms / 1000.0, key_seed=c.key_seed)
        if shortest[0] < wm.code_len + 1:
            raise ValueError(f"{shortest[1]}flow of {shortest[0]} packets is too short; "
                             f"need at least {wm.code_len + 1}")
        channel = ChannelParams(sigma=c.sigma_ms / 1000.0, p_delete=float(c.p_d),
                                p_insert=float(c.p_i), max_insert_run=c.max_insert_run,
                                jitter=c.jitter_mode, delta=wm.delta)
        # the decoder's own values, where a dec_* field overrides the channel's
        mismatch = {"sigma": None if c.dec_sigma_ms is None else c.dec_sigma_ms / 1000.0,
                    "p_delete": c.dec_p_d, "p_insert": c.dec_p_i}
        law = IdsParams.from_channel(dataclasses.replace(
            channel, **{k: v for k, v in mismatch.items() if v is not None}))
        cells.append(Cell(c, index, wm, encode(wm.watermark, wm), traces, channel, law))
    return cells


@dataclass
class CellReport:
    params: dict
    threshold: float
    tp_rate: float
    fp_rate: float
    fp_holdout: float | None
    scores_watermarked: list
    scores_control: list
    scores_holdout: list | None
    mean_deleted: float
    mean_inserted: float
    mean_segment_bits: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class ExperimentReport:
    config: dict
    cells: list
    wall_clock: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_csv(self) -> str:
        cols = [*GRID_FIELDS, "trials", "threshold", "tp_rate", "fp_rate", "fp_holdout",
                "mean_score_watermarked", "mean_score_control"]
        lines = [",".join(cols)]
        for cell in self.cells:
            row = [
                *(str(cell.params[name]) for name in GRID_FIELDS), str(self.config["trials"]),
                f"{cell.threshold:.6f}", f"{cell.tp_rate:.6f}", f"{cell.fp_rate:.6f}",
                "" if cell.fp_holdout is None else f"{cell.fp_holdout:.6f}",
                f"{float(np.mean(cell.scores_watermarked)):.6f}",
                f"{float(np.mean(cell.scores_control)):.6f}",
            ]
            lines.append(",".join(row))
        return "\n".join(lines)


def simulate_trial(cell: Cell, trial: int, role: int):
    """Embed (for the WATERMARKED role), transmit and extract one trial's
    flow of one role; returns (y, deleted, inserted), y being the received
    bits cut at the segment.  The roles rotate through the trace files
    from offsets 0, n // 2 + 1 and 2."""
    if role not in (WATERMARKED, CONTROL, HOLDOUT):
        raise ValueError(f"unknown stream role {role!r}")
    config, wm = cell.config, cell.wm
    if cell.traces:
        n = len(cell.traces)
        flow = cell.traces[(trial + (0, n // 2 + 1, 2)[role]) % n]
    else:
        flow = poisson_flow(config.rate_pps, config.flow_len,
                            seed=derive_seed(config.seed, cell.index, trial, 2 * role))
    if role == WATERMARKED:
        flow, _ = embed_flow(flow, cell.code, wm.delta)
    recv, log = transmit(flow, dataclasses.replace(
        cell.channel, seed=derive_seed(config.seed, cell.index, trial, 2 * role + 1)))
    y = qim_extract(to_ipds(recv), wm.delta)[:log.segment_bits(wm.code_len)]
    return y, log.n_deleted, log.n_inserted


def _chunk_task(args):
    """Simulate a chunk of one cell's trials, then decode them together in
    lockstep; returns (score, whether some LLR is nonzero, deleted,
    inserted, segment bits) per trial."""
    cell, trials = args
    sims = [simulate_trial(cell, *trial) for trial in trials]
    reports = decode_batch([y for y, _, _ in sims], cell.wm, cell.law, cell.wm.watermark)
    return [(r.score, r.llr.any(), deleted, inserted, y.size)
            for r, (y, deleted, inserted) in zip(reports, sims)]


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    t0 = time.time()
    cells = grid_cells(config)
    # each trial's streams in role order
    roles = [WATERMARKED, CONTROL] + [HOLDOUT] * config.holdout
    trials = [(t, role) for t in range(config.trials) for role in roles]
    chunks = [(cell, trials[i: i + DECODE_CHUNK])
              for cell in cells for i in range(0, len(trials), DECODE_CHUNK)]

    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            parts = list(pool.map(_chunk_task, chunks))
    else:
        parts = [_chunk_task(c) for c in chunks]
    # (cell, trial, role, [score, informative, deleted, inserted, segment bits])
    results = np.array([r for part in parts for r in part], dtype=np.float64)
    results = results.reshape(len(cells), config.trials, len(roles), 5)

    reports = []
    for cell, res in zip(cells, results):
        scores, informative = res[:, :, 0].T, res[:, :, 1].T
        threshold = calibrate_threshold(scores[1], config.alpha)
        rates = [float(np.mean(present(s, e, threshold))) for s, e in zip(scores, informative)]
        reports.append(CellReport(
            params={name: getattr(cell.config, name) for name in GRID_FIELDS},
            threshold=threshold,
            tp_rate=rates[0],
            fp_rate=rates[1],
            fp_holdout=rates[2] if config.holdout else None,
            scores_watermarked=scores[0].tolist(),
            scores_control=scores[1].tolist(),
            scores_holdout=scores[2].tolist() if config.holdout else None,
            mean_deleted=float(np.mean(res[:, :, 2])),
            mean_inserted=float(np.mean(res[:, :, 3])),
            mean_segment_bits=float(np.mean(res[:, :, 4])),
        ))

    return ExperimentReport(
        config=dataclasses.asdict(config),
        cells=reports,
        wall_clock=time.time() - t0,
    )
