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

import numpy as np

from flowmark.channel import ChannelParams, substitution_prob, transmit
from flowmark.decoder import IdsParams, calibrate_threshold, decode_batch
from flowmark.idscode import WatermarkConfig, encode, watermark_bits
from flowmark.qim import embed_flow, qim_extract
from flowmark.traffic import PacketFlow, poisson_flow, read_trace, to_ipds

# roles for the per-trial seed fan-out
_FLOW_W, _CHAN_W, _FLOW_C, _CHAN_C, _FLOW_H, _CHAN_H = range(6)

# a cell's flows are decoded together in chunks of this many: enough to
# amortize the per-step interpreter cost; wider chunks gain little per
# flow and pad more flows to the widest drift window
DECODE_CHUNK = 32


def derive_seed(master: int, cell: int, trial: int, role: int) -> int:
    """Documented seed-splitting rule (stable across runs and platforms)."""
    ss = np.random.SeedSequence([int(master), int(cell), int(trial), int(role)])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass
class ExperimentConfig:
    """One experiment grid.  List-valued watermark/channel fields form the
    cross product of cells."""

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

    def cells(self) -> list[dict]:
        axes = {}
        for name in ("n", "delta_ms", "sigma_ms", "p_d", "p_i"):
            v = getattr(self, name)
            axes[name] = list(v) if isinstance(v, (list, tuple)) else [v]
        combos = itertools.product(*axes.values())
        return [dict(zip(axes.keys(), combo)) for combo in combos]


@dataclass
class CellSpec:
    """Fully resolved parameters of one grid cell."""

    index: int
    n: int
    spread: int
    delta: float
    key_seed: int
    density: float | None
    sigma: float
    p_d: float
    p_i: float
    insert_spacing: float
    max_insert_run: int
    protect_first: bool
    jitter_mode: str
    source: str
    rate_pps: float
    flow_len: int
    trace_files: tuple = ()
    dec_sigma: float | None = None
    dec_p_d: float | None = None
    dec_p_i: float | None = None
    master_seed: int = 0

    def watermark_config(self) -> WatermarkConfig:
        w = watermark_bits(self.master_seed + self.key_seed, self.n)
        return WatermarkConfig(watermark=w, spread=self.spread, delta=self.delta,
                               key_seed=self.key_seed, density=self.density)

    def channel(self, seed: int) -> ChannelParams:
        return ChannelParams(
            sigma=self.sigma, p_delete=self.p_d, p_insert=self.p_i,
            insert_spacing=self.insert_spacing, max_insert_run=self.max_insert_run,
            protect_first=self.protect_first, seed=seed,
            jitter=self.jitter_mode,
            delta=self.delta if self.jitter_mode == "quantizer" else None,
        )

    def decoder_params(self) -> IdsParams:
        sigma = self.sigma if self.dec_sigma is None else self.dec_sigma
        return IdsParams(
            p_sub=substitution_prob(self.delta, sigma),
            p_delete=min(self.p_d if self.dec_p_d is None else self.dec_p_d, 1.0 - 1e-12),
            p_insert=self.p_i if self.dec_p_i is None else self.dec_p_i,
            max_insert_run=self.max_insert_run,
        )


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
        return {
            "config": self.config,
            "cells": [c.to_dict() for c in self.cells],
            "trials": self.trials,
            "alpha": self.alpha,
            "seed": self.seed,
            "wall_clock": self.wall_clock,
        }

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


def _load_flow(spec: CellSpec, trial: int, role: int) -> PacketFlow:
    if spec.source == "poisson":
        return poisson_flow(spec.rate_pps, spec.flow_len,
                            seed=derive_seed(spec.master_seed, spec.index, trial, role))
    files = spec.trace_files
    offset = 0 if role == _FLOW_W else (len(files) // 2 + 1 if role == _FLOW_C else 2)
    path = files[(trial + offset) % len(files)]
    flow = read_trace(path, clamp=True)
    if len(flow) > spec.flow_len:
        flow = PacketFlow(flow.timestamps[: spec.flow_len], label=flow.label)
    return flow


def simulate_trial(spec: CellSpec, trial: int, watermarked: bool, holdout: bool = False):
    """Embed, transmit and extract one trial's flow; returns (y, deleted,
    inserted, seg_bits), y being the received bits cut at the segment."""
    cfg = spec.watermark_config()
    code = encode(cfg.watermark, cfg)
    n_code = cfg.code_len
    flow_role = _FLOW_W if watermarked else (_FLOW_H if holdout else _FLOW_C)
    chan_role = _CHAN_W if watermarked else (_CHAN_H if holdout else _CHAN_C)
    flow = _load_flow(spec, trial, flow_role)
    if len(flow) < n_code + 1:
        raise ValueError(
            f"flow of {len(flow)} packets is too short; need at least {n_code + 1}"
        )
    if watermarked:
        flow, _ = embed_flow(flow, code, spec.delta)
    chan = spec.channel(derive_seed(spec.master_seed, spec.index, trial, chan_role))
    recv, log = transmit(flow, chan)
    n_bits = log.segment_bits(n_code)
    y = qim_extract(to_ipds(recv), spec.delta)[:n_bits]
    return y, log.n_deleted, log.n_inserted, n_bits


def decode_trials(spec: CellSpec, ys) -> list[float]:
    """Scores of one cell's received streams, decoded in lockstep."""
    cfg = spec.watermark_config()
    reports = decode_batch(ys, cfg, spec.decoder_params(), cfg.watermark)
    return [r.score for r in reports]


def _chunk_task(args):
    """Simulate a chunk of one cell's trials, then decode them together;
    returns (score, deleted, inserted, seg_bits) per trial."""
    spec, trials = args
    sims = [simulate_trial(spec, *trial) for trial in trials]
    scores = decode_trials(spec, [sim[0] for sim in sims])
    return [(score, *sim[1:]) for score, sim in zip(scores, sims)]


def _make_specs(config: ExperimentConfig) -> list[CellSpec]:
    trace_files = ()
    if config.source == "trace-dir":
        trace_files = tuple(
            sorted(
                os.path.join(config.trace_dir, f)
                for f in os.listdir(config.trace_dir)
                if not f.startswith(".")
            )
        )
        if not trace_files:
            raise ValueError(f"no trace files in {config.trace_dir!r}")
    specs = []
    for idx, cell in enumerate(config.cells()):
        specs.append(CellSpec(
            index=idx,
            n=int(cell["n"]),
            spread=config.spread,
            delta=float(cell["delta_ms"]) / 1000.0,
            key_seed=config.key_seed,
            density=config.density,
            sigma=float(cell["sigma_ms"]) / 1000.0,
            p_d=float(cell["p_d"]),
            p_i=float(cell["p_i"]),
            insert_spacing=config.insert_spacing_ms / 1000.0,
            max_insert_run=config.max_insert_run,
            protect_first=config.protect_first,
            jitter_mode=config.jitter_mode,
            source=config.source,
            rate_pps=config.rate_pps,
            flow_len=config.flow_len,
            trace_files=trace_files,
            dec_sigma=None if config.dec_sigma_ms is None else config.dec_sigma_ms / 1000.0,
            dec_p_d=config.dec_p_d,
            dec_p_i=config.dec_p_i,
            master_seed=config.seed,
        ))
    return specs


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    t0 = time.time()
    specs = _make_specs(config)
    chunks = []
    for spec in specs:
        trials = []
        for trial in range(config.trials):
            trials.append((trial, True, False))
            trials.append((trial, False, False))
            if config.holdout:
                trials.append((trial, False, True))
        chunks += [(spec, trials[i: i + DECODE_CHUNK])
                   for i in range(0, len(trials), DECODE_CHUNK)]

    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            parts = list(pool.map(_chunk_task, chunks))
    else:
        parts = [_chunk_task(c) for c in chunks]
    results = [r for part in parts for r in part]

    cells = []
    cursor = 0
    per_trial = 3 if config.holdout else 2
    grid = config.cells()
    for spec in specs:
        chunk = results[cursor: cursor + config.trials * per_trial]
        cursor += config.trials * per_trial
        scores_w = [chunk[i * per_trial][0] for i in range(config.trials)]
        scores_c = [chunk[i * per_trial + 1][0] for i in range(config.trials)]
        scores_h = (
            [chunk[i * per_trial + 2][0] for i in range(config.trials)]
            if config.holdout else None
        )
        threshold = calibrate_threshold(scores_c, config.alpha)
        tp = float(np.mean(np.asarray(scores_w) >= threshold))
        fp = float(np.mean(np.asarray(scores_c) >= threshold))
        fp_h = float(np.mean(np.asarray(scores_h) >= threshold)) if scores_h else None
        deleted = [r[1] for r in chunk]
        inserted = [r[2] for r in chunk]
        seg = [r[3] for r in chunk]
        cells.append(CellReport(
            params=grid[spec.index],
            threshold=threshold,
            tp_rate=tp,
            fp_rate=fp,
            fp_holdout=fp_h,
            scores_watermarked=scores_w,
            scores_control=scores_c,
            scores_holdout=scores_h,
            mean_deleted=float(np.mean(deleted)),
            mean_inserted=float(np.mean(inserted)),
            mean_segment_bits=float(np.mean(seg)),
        ))

    cfg_echo = dataclasses.asdict(config)
    return ExperimentReport(
        config=cfg_echo,
        cells=cells,
        trials=config.trials,
        alpha=config.alpha,
        seed=config.seed,
        wall_clock=time.time() - t0,
    )
