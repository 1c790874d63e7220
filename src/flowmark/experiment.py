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
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from flowmark.channel import ChannelParams, transmit
from flowmark.decoder import IdsParams, calibrate_threshold, decode_batch
from flowmark.idscode import WatermarkConfig, encode, watermark_bits
from flowmark.qim import embed_flow, qim_extract
from flowmark.traffic import PacketFlow, poisson_flow, read_trace, to_ipds

# the grid axes: list-valued in a config, scalar in a cell
GRID_FIELDS = ("n", "delta_ms", "sigma_ms", "p_d", "p_i")

# a trial's stream roles; role r seeds its flow with 2r and its channel
# with 2r + 1 in the per-trial seed fan-out
WATERMARKED, CONTROL, HOLDOUT = range(3)

# a cell's flows are decoded together in chunks of this many: enough to
# amortize the per-step interpreter cost; wider chunks gain little per
# flow and pad more flows to the union of their drift bands
DECODE_CHUNK = 32


def derive_seed(master: int, cell: int, trial: int, role: int) -> int:
    """Documented seed-splitting rule (stable across runs and platforms)."""
    ss = np.random.SeedSequence([int(master), int(cell), int(trial), int(role)])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass
class ExperimentConfig:
    """One experiment grid.  List-valued watermark/channel fields form the
    cross product of cells.  A cell is the config with those fields scalar;
    its watermark_config/channel/decoder_params convert ms to s."""

    n: int | list = 50
    spread: int = 10
    delta_ms: float | list = 100.0
    key_seed: int = 1
    density: float | None = None
    sigma_ms: float | list = 10.0
    p_d: float | list = 0.0
    p_i: float | list = 0.0
    insert_spacing_ms: float = 0.0
    max_insert_run: int = 8
    protect_first: bool = True
    jitter_mode: str = "quantizer"
    source: str = "poisson"
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
        if self.source not in ("poisson", "trace-dir"):
            raise ValueError("source must be 'poisson' or 'trace-dir'")
        if self.source == "trace-dir":
            if not self.trace_dir or not os.path.isdir(self.trace_dir):
                raise ValueError(f"trace_dir does not exist: {self.trace_dir!r}")
        if self.jitter_mode not in ("laplace", "quantizer"):
            raise ValueError("jitter_mode must be 'laplace' or 'quantizer'")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        for name in GRID_FIELDS:
            if isinstance(getattr(self, name), (list, tuple)) and not getattr(self, name):
                raise ValueError(f"{name}: a grid axis needs at least one value")

    def cells(self) -> list[dict]:
        axes = [getattr(self, name) for name in GRID_FIELDS]
        axes = [v if isinstance(v, (list, tuple)) else [v] for v in axes]
        return [dict(zip(GRID_FIELDS, combo)) for combo in itertools.product(*axes)]

    def watermark_config(self) -> WatermarkConfig:
        w = watermark_bits(self.seed + self.key_seed, int(self.n))
        return WatermarkConfig(watermark=w, spread=self.spread,
                               delta=self.delta_ms / 1000.0,
                               key_seed=self.key_seed, density=self.density)

    def channel(self, seed: int) -> ChannelParams:
        return ChannelParams(
            sigma=self.sigma_ms / 1000.0, p_delete=float(self.p_d),
            p_insert=float(self.p_i), insert_spacing=self.insert_spacing_ms / 1000.0,
            max_insert_run=self.max_insert_run, protect_first=self.protect_first,
            seed=seed, jitter=self.jitter_mode,
            delta=self.delta_ms / 1000.0 if self.jitter_mode == "quantizer" else None,
        )

    def decoder_params(self) -> IdsParams:
        def dec(name):  # the dec_* override, else the channel's own value
            override = getattr(self, "dec_" + name)
            return getattr(self, name) if override is None else override

        return IdsParams.from_channel(self.delta_ms / 1000.0, dec("sigma_ms") / 1000.0,
                                      dec("p_d"), dec("p_i"), self.max_insert_run)


class Cell(NamedTuple):
    """One grid cell: the config with scalar grid fields, the cell's index
    in the grid (for the seed fan-out) and the sorted trace files."""

    config: ExperimentConfig
    index: int
    trace_files: tuple = ()


def grid_cells(config: ExperimentConfig) -> list[Cell]:
    trace_files = ()
    if config.source == "trace-dir":
        trace_files = tuple(sorted(os.path.join(config.trace_dir, f)
                                   for f in os.listdir(config.trace_dir)
                                   if not f.startswith(".")))
        if not trace_files:
            raise ValueError(f"no trace files in {config.trace_dir!r}")
    return [Cell(dataclasses.replace(config, **point), index, trace_files)
            for index, point in enumerate(config.cells())]


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
    trials: int
    alpha: float
    seed: int
    wall_clock: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        return text

    def to_csv(self, path) -> None:
        cols = ["n", "delta_ms", "sigma_ms", "p_d", "p_i",
                "trials", "threshold", "tp_rate", "fp_rate", "fp_holdout",
                "mean_score_watermarked", "mean_score_control"]
        lines = [",".join(cols)]
        for cell in self.cells:
            p = cell.params
            row = [
                str(p["n"]), str(p["delta_ms"]), str(p["sigma_ms"]),
                str(p["p_d"]), str(p["p_i"]), str(self.trials),
                f"{cell.threshold:.6f}", f"{cell.tp_rate:.6f}", f"{cell.fp_rate:.6f}",
                "" if cell.fp_holdout is None else f"{cell.fp_holdout:.6f}",
                f"{float(np.mean(cell.scores_watermarked)):.6f}",
                f"{float(np.mean(cell.scores_control)):.6f}",
            ]
            lines.append(",".join(row))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def _load_flow(cell: Cell, trial: int, role: int) -> PacketFlow:
    config = cell.config
    if config.source == "poisson":
        return poisson_flow(config.rate_pps, config.flow_len,
                            seed=derive_seed(config.seed, cell.index, trial, 2 * role))
    files = cell.trace_files
    offset = (0, len(files) // 2 + 1, 2)[role]
    path = files[(trial + offset) % len(files)]
    flow = read_trace(path, clamp=True)
    if len(flow) > config.flow_len:
        flow = PacketFlow(flow.timestamps[: config.flow_len])
    return flow


def simulate_trial(cell: Cell, trial: int, role: int):
    """Embed (for the WATERMARKED role), transmit and extract one trial's
    flow of one role; returns (y, deleted, inserted, seg_bits), y being the
    received bits cut at the segment."""
    if role not in (WATERMARKED, CONTROL, HOLDOUT):
        raise ValueError(f"unknown stream role {role!r}")
    cfg = cell.config.watermark_config()
    code = encode(cfg.watermark, cfg)
    n_code = cfg.code_len
    flow = _load_flow(cell, trial, role)
    if len(flow) < n_code + 1:
        raise ValueError(
            f"flow of {len(flow)} packets is too short; need at least {n_code + 1}"
        )
    if role == WATERMARKED:
        flow, _ = embed_flow(flow, code, cfg.delta)
    chan = cell.config.channel(derive_seed(cell.config.seed, cell.index, trial, 2 * role + 1))
    recv, log = transmit(flow, chan)
    n_bits = log.segment_bits(n_code)
    y = qim_extract(to_ipds(recv), cfg.delta)[:n_bits]
    return y, log.n_deleted, log.n_inserted, n_bits


def decode_trials(cell: Cell, ys) -> list[float]:
    """Scores of one cell's received streams, decoded in lockstep."""
    cfg = cell.config.watermark_config()
    reports = decode_batch(ys, cfg, cell.config.decoder_params(), cfg.watermark)
    return [r.score for r in reports]


def _chunk_task(args):
    """Simulate a chunk of one cell's trials, then decode them together;
    returns (score, deleted, inserted, seg_bits) per trial."""
    cell, trials = args
    sims = [simulate_trial(cell, *trial) for trial in trials]
    scores = decode_trials(cell, [sim[0] for sim in sims])
    return [(score, *sim[1:]) for score, sim in zip(scores, sims)]


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
    # (cell, trial, role, [score, deleted, inserted, seg_bits])
    results = np.array([r for part in parts for r in part], dtype=np.float64)
    results = results.reshape(len(cells), config.trials, len(roles), 4)

    reports = []
    for cell, res in zip(cells, results):
        scores = res[:, :, 0].T
        threshold = calibrate_threshold(scores[1], config.alpha)
        rates = [float(np.mean(s >= threshold)) for s in scores]
        reports.append(CellReport(
            params={name: getattr(cell.config, name) for name in GRID_FIELDS},
            threshold=threshold,
            tp_rate=rates[0],
            fp_rate=rates[1],
            fp_holdout=rates[2] if config.holdout else None,
            scores_watermarked=scores[0].tolist(),
            scores_control=scores[1].tolist(),
            scores_holdout=scores[2].tolist() if config.holdout else None,
            mean_deleted=float(np.mean(res[:, :, 1])),
            mean_inserted=float(np.mean(res[:, :, 2])),
            mean_segment_bits=float(np.mean(res[:, :, 3])),
        ))

    return ExperimentReport(
        config=dataclasses.asdict(config),
        cells=reports,
        trials=config.trials,
        alpha=config.alpha,
        seed=config.seed,
        wall_clock=time.time() - t0,
    )
