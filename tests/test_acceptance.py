"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Every test is seeded and
deterministic.  Criteria 5, 6, and 10 treat the reference robustness tables
as floors: a cell passes when its TP is at least the reference minus the
tolerance.  Cells where the exact maximum-likelihood decoder exceeds the
reference band are reported as ABOVE and do not fail; cells below it are
reported as OUT and fail (see README, "Reproduction notes").
"""

import math
import os
import time

import numpy as np
import pytest

from conftest import sample_ids_channel
from flowmark.analysis import delta_rtt_overlay, ks_distance, mfa_aggregate
from flowmark.channel import ChannelParams, substitution_prob, transmit
from flowmark.decoder import IdsParams, default_drift_window, trellis_tables
from flowmark.experiment import ExperimentConfig, run_experiment
from flowmark.idscode import WatermarkConfig, encode, keystream, watermark_bits
from flowmark.qim import embed_flow, qim_embed, qim_extract
from flowmark.traffic import poisson_flow, to_flow, to_ipds, write_trace
from reference import enumeration_oracle

pytestmark = pytest.mark.acceptance

MASTER_SEED = 20260808
JOBS = min(os.cpu_count() or 1, 4)


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def floor_check(label, cell, ref, tol):
    """Hold the reference detection rate `ref` as a floor: TP >= ref - tol.

    Returns (ok, detail).  The detail line marks a TP below the band OUT and
    one above it ABOVE, and shows the cell's calibrated threshold and its
    in-sample FP: scores fall on a 1/n grid, so where the threshold lands
    on that grid moves TP at high noise.
    """
    tp = cell.tp_rate
    ok = tp >= ref - tol
    mark = " OUT" if not ok else " ABOVE" if tp > ref + tol else ""
    return ok, (f"{label}: TP {tp:.3f} (ref {ref:.3f} +-{tol:.2f}{mark}) "
                f"at threshold {cell.threshold:.2f}, in-sample FP {cell.fp_rate:.3f}")


def logsumexp(a):
    a = np.asarray(a, dtype=float).ravel()
    m = a.max()
    if not math.isfinite(m):
        return m
    return m + math.log(np.exp(a - m).sum())


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(MASTER_SEED)
    grid = [0.0, 0.05, 0.1, 0.3]
    worst = 0.0
    checked = 0
    while checked < 500:
        n = int(rng.integers(1, 7))
        p = IdsParams(
            p_sub=float(rng.choice(grid)),
            p_delete=float(rng.choice(grid)),
            p_insert=float(rng.choice(grid)),
            max_insert_run=2,
        )
        x = rng.integers(0, 2, n, dtype=np.uint8)
        key = rng.integers(0, 2, n, dtype=np.uint8)
        y = sample_ids_channel(x, p, rng)
        want = enumeration_oracle(x, p, y)
        tab = trellis_tables(y, key, p, 0.2, n + 3, wtilde=np.bitwise_xor(x, key))
        got = math.exp(tab.log_evidence) if math.isfinite(tab.log_evidence) else 0.0
        checked += 1
        if want == 0.0 and got == 0.0:
            continue
        rel = abs(want - got) / max(want, got)
        worst = max(worst, rel)
    wall = time.time() - t0
    ok = worst < 1e-10 and wall < 60
    assert report(1, ok, f"{checked} instances, worst rel err {worst:.2e}, {wall:.1f}s")


def test_criterion_2_forward_backward_identity():
    t0 = time.time()
    rng = np.random.default_rng(MASTER_SEED + 1)
    p = IdsParams(p_sub=0.05, p_delete=0.05, p_insert=0.05, max_insert_run=4)
    n_code = 200
    worst = 0.0
    done = 0
    while done < 100:
        key = rng.integers(0, 2, n_code, dtype=np.uint8)
        wt = np.zeros(n_code, dtype=np.uint8)
        wt[::10] = rng.integers(0, 2, 20, dtype=np.uint8)
        y = sample_ids_channel(np.bitwise_xor(wt, key), p, rng)
        d_max = max(default_drift_window(n_code, p), abs(int(y.size) - n_code) + 6)
        tab = trellis_tables(y, key, p, 0.05, d_max)
        if not math.isfinite(tab.log_evidence):
            continue
        done += 1
        for i in range(1, n_code + 1):
            dev = abs(logsumexp(tab.state_log_joint(i)) - tab.log_evidence)
            worst = max(worst, dev / abs(tab.log_evidence))
    wall = time.time() - t0
    ok = worst < 1e-8 and wall < 60
    assert report(2, ok, f"100 instances of N={n_code}, worst rel dev {worst:.2e}, {wall:.1f}s")


def test_criterion_3_substitution_rate_validation():
    t0 = time.time()
    rng = np.random.default_rng(MASTER_SEED + 2)
    results = []
    ok = True
    for delta_ms, sigma_ms in ((100, 10), (60, 10), (100, 20)):
        delta, sigma = delta_ms / 1000, sigma_ms / 1000
        p_model = substitution_prob(delta, sigma)
        flips = total = 0
        for t in range(100):
            flow = poisson_flow(3.3, 1001, seed=int(rng.integers(2**31)))
            code = rng.integers(0, 2, 1000, dtype=np.uint8)
            marked = to_flow(qim_embed(to_ipds(flow), code, delta), start=0.0)
            out, _ = transmit(marked, ChannelParams(
                sigma=sigma, seed=int(rng.integers(2**31)),
                jitter="quantizer", delta=delta))
            bits = qim_extract(to_ipds(out), delta)
            flips += int(np.sum(bits[:1000] != code))
            total += 1000
        sd = math.sqrt(p_model * (1 - p_model) / total)
        dev = abs(flips / total - p_model)
        cell_ok = dev < 3 * sd
        ok = ok and cell_ok
        results.append(
            f"({delta_ms},{sigma_ms})ms: rate {flips/total:.5f} vs model {p_model:.5f} "
            f"({dev/sd:.2f} binomial sd){'' if cell_ok else ' <-OUT'}")
    # informational: the literal Laplace mode flips at about twice the
    # one-sided model rate (see README reproduction notes)
    u = math.exp(-0.1 / (2 * math.sqrt(2) * 0.01))
    results.append(f"[laplace-mode two-sided rate at (100,10): {u/(1+u*u):.5f}]")
    wall = time.time() - t0
    ok = ok and wall < 120
    assert report(3, ok, "; ".join(results) + f", {wall:.1f}s")


def _table_cell_config(trials=500, **kw):
    base = dict(n=50, spread=10, delta_ms=100.0, sigma_ms=10.0, p_d=0.1,
                p_i=0.0, rate_pps=3.3, flow_len=2000, trials=trials,
                alpha=0.01, seed=MASTER_SEED, jobs=JOBS)
    base.update(kw)
    return ExperimentConfig(**base)


def test_criterion_4_detection_operating_point():
    t0 = time.time()
    rep = run_experiment(_table_cell_config())
    cell = rep.cells[0]
    wall = time.time() - t0
    ok = cell.tp_rate >= 0.97 and wall < 600
    assert report(
        4, ok,
        f"TP {cell.tp_rate:.3f} (need >=0.97) at threshold {cell.threshold:.2f} "
        f"calibrated for 1% FP (in-sample FP {cell.fp_rate:.3f}), "
        f"500+500 flows, {wall:.0f}s")


def test_criterion_5_jitter_sweep():
    paper = {10.0: 1.000, 20.0: 0.989, 30.0: 0.770, 40.0: 0.232}
    rep = run_experiment(_table_cell_config(sigma_ms=[10.0, 20.0, 30.0, 40.0]))
    cells = {c.params["sigma_ms"]: c for c in rep.cells}
    order = [cells[s].tp_rate for s in (10.0, 20.0, 30.0, 40.0)]
    monotone = all(a >= b - 1e-9 for a, b in zip(order, order[1:]))
    checks = [floor_check(f"sigma={s:.0f}ms", cells[s], paper[s], 0.10)
              for s in (10.0, 20.0, 30.0, 40.0)]
    ok = monotone and all(c_ok for c_ok, _ in checks)
    assert report(5, ok, f"monotone={monotone}; " + ", ".join(d for _, d in checks))


def test_criterion_6_drop_and_split_spot_checks():
    rep_d = run_experiment(_table_cell_config(p_d=0.1, p_i=0.0))
    rep_i = run_experiment(_table_cell_config(p_d=0.0, p_i=0.2))
    rep_b = run_experiment(_table_cell_config(p_d=0.1, p_i=0.1))
    cell_d = rep_d.cells[0]
    ok_d = cell_d.tp_rate >= 0.95
    ok_i, detail_i = floor_check("p_i=0.2", rep_i.cells[0], 0.500, 0.15)
    ok_b, detail_b = floor_check("both 0.1", rep_b.cells[0], 0.764, 0.10)
    ok = ok_d and ok_i and ok_b
    assert report(
        6, ok,
        f"p_d=0.1: TP {cell_d.tp_rate:.3f} (need >=0.95{'' if ok_d else ' OUT'}) "
        f"at threshold {cell_d.threshold:.2f}, in-sample FP {cell_d.fp_rate:.3f}; "
        f"{detail_i}; {detail_b}")


def test_criterion_7_ks_invisibility_grid():
    rng = np.random.default_rng(MASTER_SEED + 7)
    means = {}
    for n in (30, 40, 50):
        for delta_ms in (60, 80, 100):
            delta = delta_ms / 1000
            dists = []
            for t in range(200):
                w = watermark_bits(int(rng.integers(2**31)), n)
                cfg = WatermarkConfig(watermark=w, spread=10, delta=delta,
                                      key_seed=int(rng.integers(2**31)))
                code = encode(w, cfg)
                flow = poisson_flow(3.3, 2000, seed=int(rng.integers(2**31)))
                marked, _ = embed_flow(flow, code, delta)
                dists.append(ks_distance(to_ipds(flow), to_ipds(marked)).distance)
            means[(n, delta_ms)] = float(np.mean(dists))
    focal = means[(50, 100)]
    ok_focal = abs(focal - 0.0284) <= 0.01 and focal < 0.036
    mono_n = all(means[(30, d)] <= means[(40, d)] <= means[(50, d)]
                 for d in (60, 80, 100))
    mono_d = all(means[(n, 60)] <= means[(n, 80)] <= means[(n, 100)]
                 for n in (30, 40, 50))
    ok = ok_focal and mono_n and mono_d
    grid = "; ".join(f"n={n}" + ",".join(f" d{d}:{means[(n,d)]:.4f}" for d in (60, 80, 100))
                     for n in (30, 40, 50))
    assert report(
        7, ok,
        f"focal (n=50,100ms) mean KS {focal:.4f} (ref 0.0284 +-0.01, <0.036), "
        f"monotone in n: {mono_n}, in delta: {mono_d}; {grid}")


def test_criterion_8_multiflow_blank_intervals():
    rng = np.random.default_rng(MASTER_SEED + 8)
    n, delta = 50, 0.1
    blanks_w, blanks_u = [], []
    for rep in range(200):
        w = watermark_bits(int(rng.integers(2**31)), n)
        cfg = WatermarkConfig(watermark=w, spread=10, delta=delta,
                              key_seed=int(rng.integers(2**31)))
        code = encode(w, cfg)
        marked, plain = [], []
        for k in range(10):
            f1 = poisson_flow(3.3, 2000, seed=int(rng.integers(2**31)))
            m, _ = embed_flow(f1, code, delta)
            marked.append(m)
            plain.append(poisson_flow(3.3, 2000, seed=int(rng.integers(2**31))))
        blanks_w.append(mfa_aggregate(marked, 0.07).blank_count)
        blanks_u.append(mfa_aggregate(plain, 0.07).blank_count)
    mw, mu = float(np.mean(blanks_w)), float(np.mean(blanks_u))
    gap = abs(mw - mu) / mu
    ok = gap <= 0.15
    assert report(
        8, ok,
        f"mean blanks watermarked {mw:.1f} vs unwatermarked {mu:.1f} "
        f"(gap {gap*100:.1f}% of unwatermarked, need <=15%), 200 repetitions")


def test_criterion_9_property_suite():
    rng = np.random.default_rng(MASTER_SEED + 9)
    checks = {}

    # QIM noiseless round trip
    ok = True
    for _ in range(300):
        ipds = rng.exponential(0.3, size=40)
        code = rng.integers(0, 2, 40, dtype=np.uint8)
        ok &= np.array_equal(qim_extract(qim_embed(ipds, code, 0.1), 0.1), code)
    checks["qim_roundtrip"] = ok

    # delay-only embedding
    ok = True
    for _ in range(100):
        ipds = rng.exponential(0.3, size=60)
        code = rng.integers(0, 2, 60, dtype=np.uint8)
        marked = qim_embed(ipds, code, 0.1)
        ok &= bool(np.all(np.cumsum(marked) >= np.cumsum(ipds) - 1e-12))
    checks["delay_only"] = ok

    # key/code xor symmetry of the decoder
    p = IdsParams(p_sub=0.05, p_delete=0.1, p_insert=0.05, max_insert_run=3)
    ok = True
    for _ in range(30):
        key = rng.integers(0, 2, 10, dtype=np.uint8)
        wt = rng.integers(0, 2, 10, dtype=np.uint8)
        y = sample_ids_channel(np.bitwise_xor(wt, key), p, rng)
        i = int(rng.integers(0, 10))
        key2, wt2 = key.copy(), wt.copy()
        key2[i] ^= 1
        wt2[i] ^= 1
        a = trellis_tables(y, key, p, 0.1, 14, wtilde=wt).log_evidence
        b = trellis_tables(y, key2, p, 0.1, 14, wtilde=wt2).log_evidence
        ok &= (a == b) or abs(a - b) < 1e-10 * abs(a)
    checks["key_xor_symmetry"] = ok

    # timestamp/IPD inversion
    ok = True
    for _ in range(100):
        ipds = rng.exponential(0.2, size=30)
        flow = to_flow(ipds, start=float(rng.uniform(0, 5)))
        ok &= bool(np.allclose(to_ipds(flow), ipds))
    checks["ipd_inversion"] = ok

    # deterministic reruns of every seeded stage
    f1 = poisson_flow(3.3, 500, seed=5)
    f2 = poisson_flow(3.3, 500, seed=5)
    k1, k2 = keystream(9, 100), keystream(9, 100)
    c1, _ = transmit(f1, ChannelParams(sigma=0.01, p_delete=0.1, seed=4))
    c2, _ = transmit(f2, ChannelParams(sigma=0.01, p_delete=0.1, seed=4))
    checks["deterministic_reruns"] = (
        np.array_equal(f1.timestamps, f2.timestamps)
        and np.array_equal(k1, k2)
        and np.array_equal(c1.timestamps, c2.timestamps))

    ok = all(checks.values())
    assert report(9, ok, ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))


def test_criterion_10_trace_harness_and_rtt_overlay(tmp_path):
    # stand-in for live captures: the harness must run unchanged on a
    # user-supplied directory of interactive-rate traces
    tdir = tmp_path / "traces"
    tdir.mkdir()
    rng = np.random.default_rng(MASTER_SEED + 10)
    for i in range(24):
        write_trace(poisson_flow(0.865, 2000, seed=int(rng.integers(2**31))),
                    tdir / f"trace{i:02d}.txt")

    paper = {10.0: 1.000, 20.0: 0.989, 30.0: 0.770, 40.0: 0.232}
    rep = run_experiment(_table_cell_config(
        trials=200, sigma_ms=[10.0, 20.0, 30.0, 40.0],
        source="trace-dir", trace_dir=str(tdir)))
    cells = {c.params["sigma_ms"]: c for c in rep.cells}
    checks = [floor_check(f"sigma={s:.0f}ms", cells[s], paper[s], 0.10)
              for s in (10.0, 20.0, 30.0, 40.0)]
    rep_b = run_experiment(_table_cell_config(
        trials=200, p_d=0.1, p_i=0.1, source="trace-dir", trace_dir=str(tdir)))
    ok_b, detail_b = floor_check("both 0.1", rep_b.cells[0], 0.764, 0.10)

    # RTT-difference overlay on synthetic ping noise
    rtts = 0.05 + rng.laplace(0, 0.0016 / math.sqrt(2), size=2000)
    zero = delta_rtt_overlay(rtts, np.zeros(1000)).ks.distance
    flow = poisson_flow(3.3, 1500, seed=int(rng.integers(2**31)))
    w = watermark_bits(11, 50)
    cfg = WatermarkConfig(watermark=w, spread=10, delta=0.010, key_seed=12)
    _, delays = embed_flow(flow, encode(w, cfg), cfg.delta)
    marked_ks = delta_rtt_overlay(rtts, delays[:1000]).ks.distance
    ok_rtt = zero == 0.0 and marked_ks > 0.0

    ok = all(c_ok for c_ok, _ in checks) and ok_b and ok_rtt
    assert report(
        10, ok,
        f"trace-dir harness: {', '.join(d for _, d in checks)}; {detail_b}; "
        f"dRTT zero-delay KS {zero:.4f} (=0), 10ms-step delays KS {marked_ks:.4f} (>0)")
