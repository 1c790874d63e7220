"""The benchmark's three workloads.

Each workload builds its inputs from the run seed in `setup`, then runs
numbered rounds of the same operations.  A round times only the library
calls, on the process CPU clock; its outputs are checked afterwards,
outside the timed region.  The
library is always reached through module attributes (`fm_decoder.decode`,
not a name imported here), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from flowmark import analysis as fm_analysis
from flowmark import channel as fm_channel
from flowmark import decoder as fm_decoder
from flowmark import experiment as fm_experiment
from flowmark import idscode as fm_idscode
from flowmark import qim as fm_qim
from flowmark import traffic as fm_traffic

import checks

# The paper's main operating point.
N_BITS, SPREAD, DELTA, SIGMA = 50, 10, 0.1, 0.01
CODE_LEN = N_BITS * SPREAD
RATE_PPS, FLOW_LEN = 3.3, 2000


def derive(seed: int, *parts: int) -> int:
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1, np.uint32)[0])


class Workload:
    min_flows = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.failures: list[str] = []

    def close(self) -> None:
        pass


@dataclass
class Round:
    flows: int
    cpu_s: float
    flow_s: list = field(default_factory=list)
    failed: int = 0
    interval: int = 0   # machine-speed interval and factor, set by the runner
    scale: float = 1.0


def _failed_op(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class HarnessOppoint(Workload):
    """run_experiment on one cell at the main operating point (deletions
    only).  The harness is a batch, so a round's per-flow time is its time
    over its flows."""

    name = "harness-oppoint"
    trials = 2
    p_d = 0.1
    alpha = 0.01

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.cells: dict[int, dict] = {}

    def config(self, seed: int, trials: int):
        return fm_experiment.ExperimentConfig(
            n=N_BITS, spread=SPREAD, delta_ms=DELTA * 1e3, sigma_ms=SIGMA * 1e3,
            p_d=self.p_d, p_i=0.0, rate_pps=RATE_PPS, flow_len=FLOW_LEN,
            trials=trials, alpha=self.alpha, seed=seed, jobs=1)

    def setup(self) -> None:
        # the harness draws its own flows; set-up is one warm-up trial, on
        # the same inputs in every run
        fm_experiment.run_experiment(self.config(0, 1))

    def round(self, r: int) -> Round:
        cfg = self.config(derive(self.seed, 0, r), self.trials)
        flows = 2 * self.trials
        t0 = time.process_time()
        try:
            report = fm_experiment.run_experiment(cfg)
        except Exception:
            _failed_op(f"run_experiment round {r}")
            return Round(flows, time.process_time() - t0, failed=flows)
        cpu = time.process_time() - t0
        cell = report.cells[0].to_dict()
        if r in self.cells:
            # a traced repeat: the harness promises bit-identical reruns
            if cell != self.cells[r]:
                self.failures.append(f"round {r}: a rerun of the same cell differs")
        else:
            self.cells[r] = cell
            self.failures += checks.check_cell(
                cell, n=N_BITS, alpha=self.alpha, trials=self.trials)
        return Round(flows, cpu, [cpu / flows])

    def finish(self) -> list[str]:
        cells = list(self.cells.values())
        if not cells:
            return self.failures
        return self.failures + checks.check_oppoint_tp(cells) + checks.check_deletions(
            cells, p_d=self.p_d, flow_len=FLOW_LEN)


class DetectBurst(Workload):
    """Single-flow decode on received streams from the hard cell
    p_d = p_i = 0.1, half of them watermarked, each cut at the channel
    log's segment as the harness and `flowmark decode --log` do."""

    name = "detect-burst"
    pool = 160
    per_round = 2
    min_flows = 100

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.detected_w: list[bool] = []

    def setup(self) -> None:
        w = fm_idscode.watermark_bits(derive(self.seed, 1), N_BITS)
        self.cfg = fm_idscode.WatermarkConfig(
            watermark=w, spread=SPREAD, delta=DELTA, key_seed=derive(self.seed, 2))
        code = fm_idscode.encode(w, self.cfg)
        self.ids = fm_decoder.IdsParams(
            p_sub=fm_channel.substitution_prob(DELTA, SIGMA),
            p_delete=0.1, p_insert=0.1, max_insert_run=8)
        self.streams = []
        for i in range(self.pool):
            flow = fm_traffic.poisson_flow(RATE_PPS, FLOW_LEN, seed=derive(self.seed, 3, i))
            marked = i % 2 == 0
            if marked:
                flow, _ = fm_qim.embed_flow(flow, code, DELTA)
            chan = fm_channel.ChannelParams(
                sigma=SIGMA, p_delete=0.1, p_insert=0.1, max_insert_run=8,
                jitter="quantizer", delta=DELTA, seed=derive(self.seed, 4, i))
            recv, log = fm_channel.transmit(flow, chan)
            y = fm_qim.qim_extract(fm_traffic.to_ipds(recv), DELTA)
            self.streams.append((y[: log.segment_bits(CODE_LEN)], marked))
        fm_decoder.decode(self.streams[0][0], self.cfg, self.ids, self.cfg.watermark)

    def round(self, r: int) -> Round:
        out = Round(self.per_round, 0.0)
        reports = []
        for k in range(self.per_round):
            y, marked = self.streams[(r * self.per_round + k) % self.pool]
            t0 = time.process_time()
            try:
                rep = fm_decoder.decode(y, self.cfg, self.ids, self.cfg.watermark)
            except Exception:
                _failed_op(f"decode round {r} flow {k}")
                out.failed += 1
                continue
            finally:
                dt = time.process_time() - t0
                out.cpu_s += dt
            out.flow_s.append(dt)
            reports.append((rep, marked))
        for rep, marked in reports:
            self.failures += checks.check_detection(rep, self.cfg.watermark)
            if marked:
                self.detected_w.append(rep.detected)
        return out

    def finish(self) -> list[str]:
        return self.failures + (checks.check_burst_tp(self.detected_w) if self.detected_w else [])


class Invisibility(Workload):
    """The attacker-side checks: read a trace, embed, KS per flow; blank
    intervals of 10 marked against 10 plain flows per group."""

    name = "invisibility"
    pool = 200
    group = 20
    interval = 0.07
    min_flows = 100

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.dir = os.path.join(workdir, f"traces-{seed}-{os.getpid()}")
        self.ks: list[float] = []
        self.blanks_marked: list[int] = []
        self.blanks_plain: list[int] = []

    def setup(self) -> None:
        os.makedirs(self.dir, exist_ok=True)
        self.paths, self.sent = [], []
        for i in range(self.pool):
            flow = fm_traffic.poisson_flow(RATE_PPS, FLOW_LEN, seed=derive(self.seed, 5, i))
            path = os.path.join(self.dir, f"flow{i:04d}.txt")
            fm_traffic.write_trace(flow, path)
            self.paths.append(path)
            self.sent.append(flow.timestamps)
        fm_traffic.read_trace(self.paths[0])

    def round(self, r: int) -> Round:
        """Every flow of the group is read, embedded and KS-tested; the
        blank-interval test aggregates the marked versions of the first
        half against the unmarked second half, which are other flows."""
        out = Round(self.group, 0.0)
        t_group = time.process_time()
        w = fm_idscode.watermark_bits(derive(self.seed, 6, r), N_BITS)
        cfg = fm_idscode.WatermarkConfig(
            watermark=w, spread=SPREAD, delta=DELTA, key_seed=derive(self.seed, 7, r))
        code = fm_idscode.encode(w, cfg)
        done = []
        for k in range(self.group):
            i = (r * self.group + k) % self.pool
            t0 = time.process_time()
            try:
                flow = fm_traffic.read_trace(self.paths[i])
                marked, _ = fm_qim.embed_flow(flow, code, DELTA)
                ks = fm_analysis.ks_distance(fm_traffic.to_ipds(flow),
                                             fm_traffic.to_ipds(marked)).distance
            except Exception:
                _failed_op(f"invisibility round {r} flow {i}")
                out.failed += 1
                continue
            out.flow_s.append(time.process_time() - t0)
            done.append((k, i, flow, marked, ks))
        half = self.group // 2
        marked_group = [m for k, _, _, m, _ in done if k < half]
        plain_group = [f for k, _, f, _, _ in done if k >= half]
        mfa = []
        if marked_group and plain_group:
            mfa = [fm_analysis.mfa_aggregate(g, self.interval)
                   for g in (marked_group, plain_group)]
        out.cpu_s = time.process_time() - t_group

        for _, i, flow, marked, ks in done:
            self.failures += checks.check_marked_flow(
                self.sent[i], flow.timestamps, marked.timestamps, code, ks, DELTA)
            self.ks.append(ks)
        if mfa:
            for g, res in zip((marked_group, plain_group), mfa):
                self.failures += checks.check_blanks(
                    [f.timestamps for f in g], self.interval, res)
            self.blanks_marked.append(mfa[0].blank_count)
            self.blanks_plain.append(mfa[1].blank_count)
        return out

    def finish(self) -> list[str]:
        if not self.ks or not self.blanks_plain:
            return self.failures
        return self.failures + checks.check_invisibility(
            self.ks, self.blanks_marked, self.blanks_plain)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (HarnessOppoint, DetectBurst, Invisibility)}
