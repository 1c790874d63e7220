"""Self-tests for the benchmark's output checks.

Each check must pass on genuine program output and fail on a deliberately
corrupted copy.  Run with `python -m pytest bench` from the repository
root; the tier-1 collection (testpaths = tests) does not include them.
"""

import dataclasses
import math
import os
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import workloads  # noqa: E402
from flowmark import analysis, decoder, experiment, idscode, qim, traffic  # noqa: E402

N = workloads.N_BITS
DELTA = workloads.DELTA


@pytest.fixture(scope="module")
def cell():
    wl = workloads.HarnessOppoint(seed=3, workdir=BENCH_DIR)
    rep = experiment.run_experiment(wl.config(seed=7, trials=wl.trials))
    return wl, rep.cells[0].to_dict()


def _check_cell(wl, cell):
    return checks.check_cell(cell, n=N, alpha=wl.alpha, trials=wl.trials)


def _check_deletions(wl, cell):
    return checks.check_deletions([cell], p_d=wl.p_d, flow_len=workloads.FLOW_LEN)


def test_cell_passes(cell):
    wl, c = cell
    assert _check_cell(wl, c) == []
    assert _check_deletions(wl, c) == []
    assert checks.check_oppoint_tp([c]) == []


@pytest.mark.parametrize("field, corrupt, expect", [
    ("threshold", lambda v: v + 1 / N, "threshold"),
    ("threshold", lambda v: v - 1 / N, "threshold"),
    ("tp_rate", lambda v: v - 0.1, "tp_rate"),
    ("fp_rate", lambda v: v + 0.1, "fp_rate"),
    ("scores_control", lambda v: v[:-1] + [v[-1] + 0.5 / N], "grid"),
    ("mean_inserted", lambda v: 0.05, "mean_inserted"),
])
def test_cell_rejects(cell, field, corrupt, expect):
    wl, c = cell
    bad = dict(c, **{field: corrupt(c[field])})
    assert any(expect in msg for msg in _check_cell(wl, bad))


@pytest.mark.parametrize("shift", [-80.0, 80.0])
def test_deletions_reject(cell, shift):
    wl, c = cell
    bad = dict(c, mean_deleted=c["mean_deleted"] + shift)
    assert _check_deletions(wl, bad) != []


def test_oppoint_tp_floor_rejects(cell):
    _, c = cell
    bad = dict(c, scores_watermarked=[0.0] + c["scores_watermarked"][1:])
    assert checks.check_oppoint_tp([bad]) != []


def test_binomial_threshold_matches_library():
    # the decoder's own quantile; the check recomputes it with math.comb
    assert float(checks.binomial_threshold(N)) == decoder.binomial_score_threshold(N, 0.01)
    assert checks.binomial_threshold(N) == pytest.approx(0.66)


@pytest.fixture(scope="module")
def detection():
    wl = workloads.DetectBurst(seed=3, workdir=BENCH_DIR)
    wl.pool = 2
    wl.setup()
    y, marked = wl.streams[0]
    assert marked
    return wl.cfg.watermark, decoder.decode(y, wl.cfg, wl.ids, wl.cfg.watermark)


def test_detection_passes(detection):
    w, rep = detection
    assert checks.check_detection(rep, w) == []
    assert checks.check_burst_tp([rep.detected]) == []


def _flip_first(bits):
    out = np.array(bits, copy=True)
    out[0] ^= 1
    return out


@pytest.mark.parametrize("field, corrupt, expect", [
    ("threshold", lambda v: v + 1 / N, "threshold"),
    ("w_hat", _flip_first, "w_hat"),
    ("llr", lambda v: -v, "w_hat"),
    ("score", lambda v: v - 1 / N, "score"),
    ("detected", lambda v: not v, "detected"),
    ("log_evidence", lambda v: -math.inf, "evidence"),
])
def test_detection_rejects(detection, field, corrupt, expect):
    w, rep = detection
    bad = dataclasses.replace(rep, **{field: corrupt(getattr(rep, field))})
    assert any(expect in msg for msg in checks.check_detection(bad, w))


def test_burst_tp_floor_rejects():
    assert checks.check_burst_tp([True] * 6 + [False] * 4) != []


@pytest.fixture(scope="module")
def marked_flow(tmp_path_factory):
    sent = traffic.poisson_flow(3.3, 2000, seed=11)
    path = tmp_path_factory.mktemp("traces") / "flow.txt"
    traffic.write_trace(sent, path)
    flow = traffic.read_trace(path)
    w = idscode.watermark_bits(5, N)
    cfg = idscode.WatermarkConfig(watermark=w, spread=10, delta=DELTA, key_seed=9)
    code = idscode.encode(w, cfg)
    marked, _ = qim.embed_flow(flow, code, DELTA)
    ks = analysis.ks_distance(traffic.to_ipds(flow), traffic.to_ipds(marked)).distance
    return sent.timestamps, flow.timestamps, marked.timestamps, code, ks


def test_marked_flow_passes(marked_flow):
    assert checks.check_marked_flow(*marked_flow, delta=DELTA) == []


def _delay_from(ts, k, by):
    out = np.array(ts, copy=True)
    out[k:] += by
    return out


@pytest.mark.parametrize("index, corrupt, expect", [
    (4, lambda ks: ks + 1 / 1999, "KS"),
    (2, lambda ts: _delay_from(ts, 100, DELTA / 2), "wrong bit"),
    (2, lambda ts: _delay_from(ts, 100, DELTA / 7), "grid"),
    (2, lambda ts: _delay_from(ts, 1500, -10.0), "advanced"),
    (1, lambda ts: ts + 1e-6, "round-trip"),
])
def test_marked_flow_rejects(marked_flow, index, corrupt, expect):
    args = list(marked_flow)
    args[index] = corrupt(args[index])
    assert any(expect in msg for msg in checks.check_marked_flow(*args, delta=DELTA))


@pytest.fixture(scope="module")
def aggregate():
    flows = [traffic.poisson_flow(3.3, 2000, seed=s) for s in range(10)]
    return [f.timestamps for f in flows], analysis.mfa_aggregate(flows, 0.07)


def test_blanks_pass(aggregate):
    ts, res = aggregate
    assert res.blank_count > 0
    assert checks.check_blanks(ts, 0.07, res) == []


@pytest.mark.parametrize("field, delta", [("blank_count", 1), ("blank_count", -1),
                                          ("total_intervals", 1)])
def test_blanks_reject(aggregate, field, delta):
    ts, res = aggregate
    bad = dataclasses.replace(res, **{field: getattr(res, field) + delta})
    assert checks.check_blanks(ts, 0.07, bad) != []


def test_invisibility_run_checks():
    assert checks.check_invisibility([0.03, 0.03], [100, 104], [100, 100]) == []
    assert any("KS" in m for m in checks.check_invisibility([0.03, 0.05], [100], [100]))
    assert any("gap" in m for m in checks.check_invisibility([0.03], [120], [100]))
