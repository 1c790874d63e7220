"""Output checks, each recomputed without the program's own code path.

Every check returns a list of failure messages; an empty list is a pass.
No check compares against stored scores: each one recomputes a value
independently or tests a property the method must have.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

TP_FLOOR_OPPOINT = 0.97   # acceptance criterion 4
TP_FLOOR_BURST = 0.664    # acceptance criterion 6, p_d = p_i = 0.1
KS_CEILING = 0.036        # acceptance criterion 7
BLANK_GAP_CEILING = 0.15  # acceptance criterion 8


def calibrated_threshold(control_scores, alpha) -> float:
    """The ceil((1 - alpha) * T)-th smallest of T control scores."""
    k = math.ceil((1 - Fraction(str(alpha))) * len(control_scores))
    return sorted(control_scores)[k - 1]


def binomial_threshold(n: int, level=Fraction(99, 100)) -> Fraction:
    """k/n for the smallest k with P(Binomial(n, 1/2) <= k) >= level."""
    cum = 0
    for k in range(n + 1):
        cum += math.comb(n, k)
        if cum >= level * 2 ** n:
            return Fraction(k, n)
    return Fraction(1)


def _on_grid(score, n) -> bool:
    return 0.0 <= score <= 1.0 and abs(score * n - round(score * n)) <= 1e-9


def check_cell(cell: dict, n: int, alpha: float, trials: int) -> list[str]:
    """One harness cell (CellReport.to_dict()) at the operating point."""
    fails = []
    sw, sc = cell["scores_watermarked"], cell["scores_control"]
    if len(sw) != trials or len(sc) != trials:
        return [f"cell holds {len(sw)}+{len(sc)} scores, expected {trials}+{trials}"]
    thr = calibrated_threshold(sc, alpha)
    if cell["threshold"] != thr:
        fails.append(f"threshold {cell['threshold']} != recomputed {thr}")
    thr = cell["threshold"]
    for key, scores in (("tp_rate", sw), ("fp_rate", sc)):
        rate = sum(1 for s in scores if s >= thr) / trials
        if abs(cell[key] - rate) > 1e-12:
            fails.append(f"{key} {cell[key]} != recomputed {rate}")
    off = [s for s in sw + sc if not _on_grid(s, n)]
    if off:
        fails.append(f"{len(off)} scores off the 1/{n} grid, e.g. {off[0]}")
    if cell["mean_inserted"] != 0:
        fails.append(f"mean_inserted {cell['mean_inserted']} on a deletion-only channel")
    return fails


def check_deletions(cells: list[dict], p_d: float, flow_len: int) -> list[str]:
    """Mean deletions over distinct, equal-sized cells, within 4 binomial
    sd of p_d (flow_len - 1); pooled once per run so that the test's false
    alarm rate does not grow with the number of cells."""
    flows = sum(2 * len(c["scores_watermarked"]) for c in cells)
    mean = sum(c["mean_deleted"] for c in cells) / len(cells)
    # packet 0 is protected, so flow_len - 1 packets face deletion
    expect = p_d * (flow_len - 1)
    sd = math.sqrt((flow_len - 1) * p_d * (1 - p_d) / flows)
    if abs(mean - expect) > 4 * sd:
        return [f"mean_deleted {mean} outside {expect} +- 4*{sd:.3f}"]
    return []


def check_oppoint_tp(cells: list[dict]) -> list[str]:
    """Pooled TP of the run's cells, each at its own threshold."""
    hits = sum(1 for c in cells for s in c["scores_watermarked"] if s >= c["threshold"])
    total = sum(len(c["scores_watermarked"]) for c in cells)
    tp = hits / total
    return [] if tp >= TP_FLOOR_OPPOINT else [
        f"pooled TP {tp:.4f} below the floor {TP_FLOOR_OPPOINT}"]


def check_detection(report, w_true) -> list[str]:
    """One DetectionReport decoded against the true watermark w_true."""
    fails = []
    n = len(w_true)
    w_hat = [int(b) for b in report.w_hat]
    sign = [1 if v > 0 else 0 for v in report.llr]
    if len(w_hat) != n or w_hat != sign:
        fails.append("w_hat differs from the sign of the LLRs")
    agree = Fraction(sum(1 for a, b in zip(w_hat, w_true) if a == int(b)), n)
    if abs(report.score - agree) > 1e-12:
        fails.append(f"score {report.score} != agreement {float(agree)}")
    thr = binomial_threshold(n)
    if abs(report.threshold - thr) > 1e-12:
        fails.append(f"threshold {report.threshold} != binomial quantile {float(thr)}")
    if report.detected != (report.score >= report.threshold):
        fails.append("detected disagrees with score >= threshold")
    if not math.isfinite(report.log_evidence):
        fails.append(f"log evidence {report.log_evidence} is not finite")
    return fails


def check_burst_tp(detected_watermarked: list[bool]) -> list[str]:
    tp = sum(detected_watermarked) / len(detected_watermarked)
    return [] if tp >= TP_FLOOR_BURST else [
        f"watermarked TP {tp:.4f} below the floor {TP_FLOOR_BURST}"]


def check_marked_flow(sent_ts, read_ts, marked_ts, code, ks: float,
                      delta: float) -> list[str]:
    """One invisibility flow: trace round trip, embedding and KS distance."""
    from scipy.stats import ks_2samp

    fails = []
    sent_ts, read_ts, marked_ts = (np.asarray(a, dtype=np.float64)
                                   for a in (sent_ts, read_ts, marked_ts))
    if read_ts.shape != sent_ts.shape or np.max(np.abs(read_ts - sent_ts)) > 1e-9:
        fails.append("read_trace does not round-trip the written flow to 1e-9 s")
    if marked_ts.shape != read_ts.shape:
        return fails + ["embedding changed the packet count"]
    if np.min(marked_ts - read_ts) < -1e-9:
        fails.append("embedding advanced a packet")
    steps = 2.0 * np.diff(marked_ts)[: len(code)] / delta
    points = np.rint(steps)
    if np.max(np.abs(steps - points)) > 1e-6:
        fails.append("a marked IPD is off the delta/2 grid")
    parity = points.astype(np.int64) % 2
    if not np.array_equal(parity, np.asarray(code, dtype=np.int64)):
        fails.append(f"{int(np.sum(parity != code))} marked IPDs carry the wrong bit")
    ref = float(ks_2samp(np.diff(read_ts), np.diff(marked_ts), method="asymp").statistic)
    if abs(ks - ref) > 1e-12:
        fails.append(f"KS distance {ks} != scipy {ref}")
    return fails


def check_blanks(flows_ts, interval: float, result) -> list[str]:
    """MfaResult blank count against a bincount of the shifted packets."""
    merged = np.concatenate([np.asarray(t) - t[0] for t in flows_ts])
    nbins = max(1, math.ceil(float(merged.max()) / interval))
    edges = np.arange(nbins + 1) * interval
    idx = np.minimum(np.searchsorted(edges, merged, side="right") - 1, nbins - 1)
    blanks = int(np.sum(np.bincount(idx, minlength=nbins) == 0))
    fails = []
    if result.total_intervals != nbins:
        fails.append(f"{result.total_intervals} intervals, bincount has {nbins}")
    if result.blank_count != blanks:
        fails.append(f"blank count {result.blank_count} != bincount {blanks}")
    return fails


def check_invisibility(ks_values, blanks_marked, blanks_plain) -> list[str]:
    """Criteria 7 and 8 over a whole run."""
    fails = []
    mean_ks = float(np.mean(ks_values))
    if not mean_ks < KS_CEILING:
        fails.append(f"mean KS {mean_ks:.5f} not below {KS_CEILING}")
    mw, mu = float(np.mean(blanks_marked)), float(np.mean(blanks_plain))
    gap = abs(mw - mu) / mu
    if gap > BLANK_GAP_CEILING:
        fails.append(f"blank gap {gap:.3f} ({mw:.1f} marked vs {mu:.1f} plain) "
                     f"above {BLANK_GAP_CEILING}")
    return fails
