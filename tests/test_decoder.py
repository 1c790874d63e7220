import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import sample_ids_channel
from flowmark.channel import ChannelParams, transmit
from flowmark.decoder import (
    IdsParams,
    Trellis,
    binomial_score_threshold,
    block_posterior,
    calibrate_threshold,
    decode,
    decode_batch,
    default_drift_window,
    trellis_tables,
)
from flowmark.idscode import WatermarkConfig, encode, keystream, sparsify, watermark_bits
from flowmark.qim import embed_flow, qim_extract
from flowmark.traffic import poisson_flow, to_ipds
from reference import (
    DenseSteps,
    TrellisState,
    enumeration_oracle,
    log_sweeps,
    scalar_block_posterior,
    state_log_joint,
    transition_log_prob,
)


def logsumexp(a):
    a = np.asarray(a, dtype=float).ravel()
    m = a.max()
    if not math.isfinite(m):
        return m
    return m + math.log(np.exp(a - m).sum())


# ---------------------------------------------------------------- transitions

def test_transition_deletion_case():
    p = IdsParams(p_sub=0.0, p_delete=0.1, p_insert=0.0)
    lp = transition_log_prob(
        TrellisState(0, 0), TrellisState(1, -1), [], key_bit=1, params=p,
        flip=0.05,
    )
    # drop with nothing inserted, sparse bit 0: (1-f) * p_d * (1-p_i)
    assert math.exp(lp) == pytest.approx(0.95 * 0.1)
    lp2 = transition_log_prob(
        TrellisState(0, 0), TrellisState(0, -1), [], key_bit=1, params=p,
        flip=0.05,
    )
    assert math.exp(lp2) == pytest.approx(0.05 * 0.1)


def test_transition_inconsistent_pairs_are_zero():
    p = IdsParams(p_sub=0.1, p_delete=0.1, p_insert=0.1)
    # emitted fragment length must be drift change + 1
    lp = transition_log_prob(TrellisState(0, 0), TrellisState(1, 2), [1],
                             key_bit=0, params=p, flip=0.05)
    assert lp == -math.inf
    # an inserted bit read as 1 is a substituted zero: impossible without
    # substitutions, p_sub / (1 - p_sub) times as likely as a 0 with them
    lp = transition_log_prob(TrellisState(0, 0), TrellisState(0, 1), [0, 1],
                             key_bit=0, params=IdsParams(p_insert=0.1), flip=0.05)
    assert lp == -math.inf
    one, zero = (transition_log_prob(TrellisState(0, 0), TrellisState(0, 1), [0, b],
                                     key_bit=0, params=p, flip=0.05) for b in (1, 0))
    assert math.exp(one - zero) == pytest.approx(0.1 / 0.9)


def test_transition_normalization():
    # summing over every next state and every emitted fragment gives 1:
    # the run cap takes the insertion law's tail
    for p_i in (0.0, 0.15):
        p = IdsParams(p_sub=0.07, p_delete=0.2, p_insert=p_i, max_insert_run=3)
        for acc in (0, 1):
            prev = TrellisState(acc, 0)
            moves = [(TrellisState(nxt_acc, -1), []) for nxt_acc in (0, 1)]
            moves += [(TrellisState(nxt_acc, l), emitted) for l in range(5)
                      for emitted in itertools.product((0, 1), repeat=l + 1)
                      for nxt_acc in (0, 1)]
            total = 0.0
            for nxt, emitted in moves:
                lp = transition_log_prob(prev, nxt, emitted, 0, p, flip=0.05)
                total += math.exp(lp) if math.isfinite(lp) else 0.0
            assert total == pytest.approx(1.0, abs=1e-12)


def test_transition_noiseless_identity():
    # no drops, no insertions, no substitutions, sparse bit 0: y_i = k_i
    p = IdsParams()
    lp = transition_log_prob(TrellisState(0, 0), TrellisState(1, 0), [0],
                             key_bit=1, params=p, wtilde_bit=0)
    assert math.exp(lp) == pytest.approx(1.0)
    lp_bad = transition_log_prob(TrellisState(0, 0), TrellisState(1, 0), [1],
                                 key_bit=1, params=p, wtilde_bit=0)
    assert lp_bad == -math.inf


# ----------------------------------------------------------------- channel law

def test_step_law_is_a_distribution():
    # a sent packet is dropped, or delivered with some run of inserted
    # zeros; the head's burst is the insertion law alone
    for p_d, p_i, run in ((0.3, 0.3, 2), (0.1, 0.1, 8), (0.0, 0.2, 1), (0.5, 0.05, 4)):
        t = Trellis([[0, 1, 0]], [1, 0, 1], IdsParams(p_sub=0.05, p_delete=p_d,
                                                      p_insert=p_i, max_insert_run=run))
        assert abs(t.del_coef + (1.0 - t.del_coef) * t.init_coef.sum() - 1.0) <= 1e-12
        assert abs(t.init_coef.sum() - 1.0) <= 1e-12


def test_evidence_matches_transmit_chi_square():
    # the decoder's P(y) is the law of transmit's own draws: the 3-bit
    # code embedded in a flow, sent through quantizer jitter, drops and
    # bursts 20,000 times and cut at the segment, gives stream counts
    # that fit exp(log_evidence); streams expected fewer than 5 times
    # share one cell, and no seen stream is impossible
    delta, sigma, p_d, p_i, run, draws = 0.1, 0.03, 0.3, 0.3, 2, 20_000
    code = np.array([1, 0, 1], dtype=np.uint8)
    flow, _ = embed_flow(poisson_flow(3.3, 8, seed=1), code, delta)
    counts = {}
    for seed in range(draws):
        recv, log = transmit(flow, ChannelParams(
            sigma=sigma, p_delete=p_d, p_insert=p_i, max_insert_run=run,
            jitter="quantizer", delta=delta, seed=seed))
        y = qim_extract(to_ipds(recv), delta)[: log.segment_bits(code.size)].tobytes()
        counts[y] = counts.get(y, 0) + 1
    ys = list(counts)
    params = IdsParams.from_channel(ChannelParams(sigma=sigma, p_delete=p_d, p_insert=p_i,
                                                  max_insert_run=run, delta=delta))
    t = trellis_tables([np.frombuffer(y, np.uint8) for y in ys], code, params,
                       wtilde=np.zeros(code.size, np.uint8))
    expected = draws * np.exp(t.log_evidence)
    seen = np.array([counts[y] for y in ys])
    assert np.all(expected > 0.0)
    big = expected >= 5.0
    cells_seen = np.append(seen[big], draws - seen[big].sum())
    cells_expected = np.append(expected[big], draws - expected[big].sum())
    chi2 = float(np.sum((cells_seen - cells_expected) ** 2 / cells_expected))
    # the 0.999 quantile of chi-square(df), Wilson-Hilferty
    df = cells_seen.size - 1
    bound = df * (1.0 - 2.0 / (9 * df) + 3.090 * math.sqrt(2.0 / (9 * df))) ** 3
    assert df >= 50 and chi2 < bound


# ----------------------------------------------------------------- forward

def test_forward_single_bit_hand_sum():
    # one code bit over a substitution-only channel: given the sparse bit
    # the evidence is one match weight, and under the code's law (a
    # uniform watermark bit) it is the two-branch mixture
    ps = 0.07
    p = IdsParams(p_sub=ps)
    key = np.array([1], dtype=np.uint8)
    for y, same, flip in (([1], 1 - ps, ps), ([0], ps, 1 - ps)):
        ev = [math.exp(trellis_tables([y], key, p, 2, **kw).log_evidence[0])
              for kw in ({"wtilde": [0]}, {"wtilde": [1]}, {})]
        assert ev == pytest.approx([same, flip, (same + flip) / 2])


def test_forward_short_y_without_deletions_is_impossible():
    p = IdsParams(p_sub=0.05, p_delete=0.0, p_insert=0.0)
    key = keystream(1, 6)
    tab = trellis_tables([key[:5]], key, p, 4)
    assert tab.log_evidence[0] == -math.inf


def test_forward_infeasible_window():
    # a cap below the length mismatch is floored at the mismatch plus 2
    p = IdsParams(p_delete=0.5)
    key = keystream(1, 30)
    y = np.zeros(5, dtype=np.uint8)
    narrow = trellis_tables([y], key, p, 3)
    assert narrow.flow_d_max.tolist() == [27]
    assert math.isfinite(narrow.log_evidence[0])
    assert narrow.log_evidence[0] == trellis_tables([y], key, p, 27).log_evidence[0]


def test_floored_cap_closes_whenever_a_wider_cap_does(rng):
    # the floor |n_obs - n_code| + 2 leaves no stream that a wider cap
    # closes and the narrowest cap does not
    closed = 0
    for _ in range(300):
        n = int(rng.integers(1, 13))
        p = IdsParams(p_delete=float(rng.choice([0.0, 0.3])),
                      p_insert=float(rng.choice([0.0, 0.3])),
                      max_insert_run=int(rng.integers(1, 4)))
        key = rng.integers(0, 2, n, dtype=np.uint8)
        y = rng.integers(0, 2, int(rng.integers(0, 3 * n + 3)), dtype=np.uint8)
        if rng.random() < 0.5:
            y[:] = 0
        narrow = trellis_tables([y], key, p, 1).log_evidence[0]
        wide = trellis_tables([y], key, p, 4 * n + 10).log_evidence[0]
        assert math.isfinite(narrow) == math.isfinite(wide)
        closed += math.isfinite(wide)
    assert 50 < closed < 250


def test_cap_below_one_is_refused():
    key = keystream(1, 6)
    with pytest.raises(ValueError, match="d_max must be at least 1"):
        trellis_tables([key], key, IdsParams(p_delete=0.1), 0)


def test_forward_matches_oracle_random(rng):
    for _ in range(120):
        n = int(rng.integers(1, 7))
        p = IdsParams(
            p_sub=float(rng.choice([0.0, 0.05, 0.1, 0.3])),
            p_delete=float(rng.choice([0.0, 0.05, 0.1, 0.3])),
            p_insert=float(rng.choice([0.0, 0.05, 0.1, 0.3])),
            max_insert_run=2,
        )
        x = rng.integers(0, 2, n, dtype=np.uint8)
        key = rng.integers(0, 2, n, dtype=np.uint8)
        y = sample_ids_channel(x, p, rng)
        want = enumeration_oracle(x, p, y)
        tab = trellis_tables([y], key, p, n + 3, wtilde=np.bitwise_xor(x, key))
        ev = tab.log_evidence[0]
        got = math.exp(ev) if math.isfinite(ev) else 0.0
        if want == 0.0:
            assert got == 0.0
        else:
            assert abs(want - got) / want < 1e-10


# ----------------------------------------------------------------- backward

def test_forward_backward_identity(rng):
    p = IdsParams(p_sub=0.05, p_delete=0.1, p_insert=0.08, max_insert_run=4)
    for _ in range(10):
        n = 60
        key = rng.integers(0, 2, n, dtype=np.uint8)
        wt = np.zeros(n, dtype=np.uint8)
        wt[::6] = rng.integers(0, 2, n // 6 + (1 if n % 6 else 0), dtype=np.uint8)
        y = sample_ids_channel(np.bitwise_xor(wt, key), p, rng)
        tab = trellis_tables([y], key, p, default_drift_window(n, p), spread=6)
        if not math.isfinite(tab.log_evidence[0]):
            continue
        joint = state_log_joint(tab)
        for i in range(1, n + 1):
            tot = logsumexp(joint[i - 1, 0])
            assert tot == pytest.approx(tab.log_evidence[0], rel=1e-10, abs=1e-9)


# ------------------------------------------------------------ renormalization

def _renorm_every(sigma, p_i):
    chan = ChannelParams(sigma=sigma, p_delete=0.1, p_insert=p_i, max_insert_run=8,
                         delta=0.1)
    key = keystream(1, 20)
    return Trellis([key], key, IdsParams.from_channel(chan)).renorm_every


def test_renorm_every_follows_the_law():
    # the bench laws, sigma 10 ms at p_i 0 and 0.1, leave at least one
    # renormalization-free block of 10 states; a rarer substitution
    # shortens the run, down to a renormalization at every state
    assert _renorm_every(0.01, 0.0) == 132
    assert _renorm_every(0.01, 0.1) == 11
    runs = [_renorm_every(sigma, 0.1) for sigma in (0.02, 0.01, 0.005, 0.002, 0.001)]
    assert all(a > b for a, b in zip(runs, runs[1:]))
    assert runs[-1] == 1 and _renorm_every(0.0005, 0.1) == 1


def test_sweeps_match_per_step_renormalization(rng):
    # the kept vectors and log scales equal those of sweeps renormalized
    # at every state, at each block boundary, for one-bit, ten-bit and
    # one-block spreads, without and with insertion runs; the flows' caps
    # differ, so the band window masks every state
    n_code = 60
    for p_i, n_ins in ((0.0, 1), (0.1, 9)):
        p = IdsParams(p_sub=0.05, p_delete=0.1, p_insert=p_i, max_insert_run=8)
        key = rng.integers(0, 2, n_code, dtype=np.uint8)
        ys = [sample_ids_channel(key, p, rng) for _ in range(3)]
        ys[1] = ys[1][:-6]
        for spread in (1, 10, n_code):
            t = trellis_tables(ys, key, p, d_max=3, spread=spread)
            assert t.window is not None and t.n_ins == n_ins
            assert np.all(np.isfinite(t.log_evidence))
            lf, lb = log_sweeps(t)
            for (vecs, logw), want in ((t.fw, lf[spread - 1 :: spread]), (t.bw, lb[::spread])):
                with np.errstate(divide="ignore"):
                    got = np.log(t.flows(vecs)) + logw[:, :, None, None]
                assert np.array_equal(np.isinf(got), np.isinf(want))
                fin = np.isfinite(want)
                assert np.all(np.abs(got[fin] - want[fin]) <= 1e-10)
    # with insertion runs the one-block sweeps renormalize between kept
    # states as well
    assert t.renorm_every < n_code


def test_underflow_guard_at_the_largest_spread(rng):
    # one watermark bit spread over the whole code keeps no state but the
    # last, so only the renorm_every guard renormalizes.  At sigma 2 ms
    # (p_sub 1e-8) with bursts of up to 8 zeros, a 1000-bit stream with 60
    # flipped bits has evidence below float64's least subnormal, e^-745;
    # it stays finite and equal to that of sweeps renormalized at every
    # state
    chan = ChannelParams(sigma=0.002, p_delete=0.1, p_insert=0.1, max_insert_run=8,
                         delta=0.1)
    p = IdsParams.from_channel(chan)
    w = np.array([1], dtype=np.uint8)
    cfg = WatermarkConfig(watermark=w, spread=1000, delta=0.1, key_seed=5)
    y = sample_ids_channel(encode(w, cfg), p, rng)
    y[rng.choice(y.size, 60, replace=False)] ^= 1
    rep = decode(y, cfg, p, w)
    assert rep.status == "ok" and math.isfinite(rep.log_evidence)
    t = trellis_tables([y], keystream(5, cfg.code_len), p, spread=cfg.spread)
    assert t.renorm_every < cfg.spread
    want = logsumexp(state_log_joint(t)[-1, 0])
    assert want < -745.0
    assert abs(rep.log_evidence - want) <= 1e-10 * abs(want)


def test_zero_mass_between_kept_states_is_zero_evidence(rng):
    # under p_sub = 0 and no insertions, a full-length stream stays at
    # drift 0, so one flipped bit leaves no path from the step that reads
    # it, state 25; the forward sweep first renormalizes the dead flow,
    # as 0/0, at kept state 30 (the backward sweep at kept state 21).  It
    # reports zero evidence and no LLRs, and the live flow beside it
    # decodes as it does alone
    w = watermark_bits(2, 6)
    cfg = WatermarkConfig(watermark=w, spread=10, delta=0.1, key_seed=3)
    p = IdsParams(p_delete=0.1)
    code = encode(w, cfg)
    dead = code.copy()
    dead[23] ^= 1
    live = sample_ids_channel(code, p, rng)
    assert live.size < code.size
    t = trellis_tables([dead, live], keystream(3, cfg.code_len), p, spread=cfg.spread)
    assert t.window is not None and t.renorm_every > cfg.code_len
    lf, lb = log_sweeps(t)
    assert np.isfinite(lf[23, 0]).any() and np.isneginf(lf[24, 0]).all()
    assert np.isfinite(t.fw[1][:2, 0]).all() and np.isneginf(t.fw[1][2:, 0]).all()
    assert not np.any(t.flows(t.fw[0])[2:, 0])
    got = decode_batch([dead, live], cfg, p, w)
    assert got[0].status == "zero-evidence" and got[0].log_evidence == -math.inf
    assert not np.any(got[0].llr)
    _assert_same_decode(got[1], decode(live, cfg, p, w))


def test_backward_terminal_wrong_drift_is_minus_inf():
    key = keystream(3, 10)
    y = key.copy()  # same length: final drift must be 0 or +1 tail
    # without insertions drift never rises, so the band stops at +1
    tab = trellis_tables([y], key, IdsParams(p_sub=0.02, p_delete=0.1), 5)
    assert tab.drifts.max() <= 1
    # with insertions the band is the whole cap; drifts that would need
    # the tail to have negative length are impossible at state N
    p = IdsParams(p_sub=0.02, p_delete=0.1, p_insert=0.05, max_insert_run=3)
    tab = trellis_tables([y], key, p, 5)
    assert np.array_equal(tab.drifts, np.arange(-5, 6))
    lb = log_sweeps(tab)[1][-1, 0]  # state N
    assert np.all(lb[:, tab.drifts > 1] == -math.inf)
    assert np.any(np.isfinite(lb[:, tab.drifts <= 1]))


def test_terminal_vec_is_the_dense_closure(rng):
    # the closing step read from the step tables is the scalar closure on
    # each flow's band, and the sweeps keep every state zero off it:
    # streams sampled, cut, and run long by zeros that an insertion burst
    # can finish, alone and in a batch whose flows mask each other's columns
    run, n_nonzero, n_windowed = 3, 0, 0
    for p_d, p_i in itertools.product((0.0, 0.1), (0.0, 0.1)):
        p = IdsParams(p_sub=0.05, p_delete=p_d, p_insert=p_i, max_insert_run=run)
        for n_code in (1, 2, 30):
            key = rng.integers(0, 2, n_code, dtype=np.uint8)
            ys = []
            for extra in (0, -2, -1, 1, 2, 5):
                y = sample_ids_channel(key, p, rng)
                ys.append(y[: max(y.size + extra, 0)] if extra < 0 else np.concatenate(
                    [y, np.zeros(extra, dtype=np.uint8)]))
            for batch in [[y] for y in ys] + [ys]:
                t = trellis_tables(batch, key, p)
                n_windowed += t.window is not None
                got = t.flows(t.terminal_vec())
                for b, y in enumerate(batch):
                    d_max = int(t.flow_d_max[b])
                    lo, hi = t.band[b]
                    inside = (t.drifts >= lo) & (t.drifts <= hi)
                    dense = DenseSteps(y, key, p, d_max).terminal_vec()
                    want = dense[:, t.drifts[inside] + d_max]
                    for vecs, _ in (t.fw, t.bw):
                        assert not np.any(t.flows(vecs)[:, b][..., ~inside])
                    assert np.array_equal(got[b][:, inside] == 0.0, want == 0.0)
                    nz = want != 0.0
                    assert np.all(np.abs(got[b][:, inside][nz] - want[nz]) <= 1e-15 * want[nz])
                    n_nonzero += int(nz.sum())
    assert n_nonzero >= 400 and n_windowed >= 30


def test_band_top_closes_without_deletions(rng):
    # without deletions the drift never falls, so the band ends where the
    # chain closes with no inserted zeros: its top column holds closing
    # mass, not the dead column a drop slack would add
    p = IdsParams(p_sub=0.05, p_insert=0.2, max_insert_run=3)
    key = rng.integers(0, 2, 40, dtype=np.uint8)
    ys = [sample_ids_channel(key, p, rng) for _ in range(6)]
    ys += [np.concatenate([ys[0], np.zeros(2, dtype=np.uint8)]), ys[1][:-1]]
    for batch in [[y] for y in ys] + [ys]:
        t = Trellis(batch, key, p)
        closing = t.flows(t.terminal_vec())
        for b in range(len(batch)):
            assert closing[b][:, t.drifts == t.band[b, 1]].any()


def test_unclosable_stream_is_zero_evidence_at_any_cap():
    # no cap closes a stream longer than the code without insertions, or
    # a shorter one without deletions: a small cap decodes it with zero
    # evidence, as a wide one does, instead of asking for a wider cap
    w = watermark_bits(5, 10)
    cfg = WatermarkConfig(watermark=w, spread=3, delta=0.1, key_seed=6)
    key = keystream(6, cfg.code_len)
    cases = ((np.concatenate([key, np.zeros(12, dtype=np.uint8)]), IdsParams(p_sub=0.05, p_delete=0.1)),
             (key[:20], IdsParams(p_sub=0.05, p_insert=0.1)))
    for y, p in cases:
        for d_max in (3, None):
            rep = decode(y, cfg, p, w, d_max=d_max)
            assert rep.status == "zero-evidence" and not np.any(rep.llr)
            assert rep.log_evidence == -math.inf


def test_certain_drop_decodes_as_one():
    # at p_delete = 1 every sent packet past the head is dropped: a stream
    # that holds any bit without insertions has probability 0, and the
    # empty stream is the head with no inserted zeros, 1 - p_insert
    w = watermark_bits(5, 10)
    cfg = WatermarkConfig(watermark=w, spread=3, delta=0.1, key_seed=6)
    key = keystream(6, cfg.code_len)
    for y in (key[:5], key):
        rep = decode(y, cfg, IdsParams(p_sub=0.05, p_delete=1.0), w)
        assert rep.status == "zero-evidence" and not np.any(rep.llr)
    for p_insert in (0.0, 0.1):
        rep = decode([], cfg, IdsParams(p_sub=0.05, p_delete=1.0, p_insert=p_insert), w)
        assert rep.status == "ok" and not np.any(rep.llr)
        assert rep.log_evidence == pytest.approx(math.log1p(-p_insert), rel=1e-12, abs=1e-15)


# ------------------------------------------------------------ block posterior

def test_block_posterior_noiseless_recovers_bits(rng):
    n, s = 8, 4
    w = rng.integers(0, 2, n, dtype=np.uint8)
    cfg = WatermarkConfig(watermark=w, spread=s, delta=0.1, key_seed=5)
    code = encode(w, cfg)
    p = IdsParams()
    key = keystream(5, cfg.code_len)
    tab = trellis_tables([code], key, p, 3, spread=s)
    lp = block_posterior(tab)[0]
    for j in range(1, n + 1):
        lp1 = lp[j - 1, 1]
        lp0 = lp[j - 1, 0]
        assert (lp1 > lp0) == bool(w[j - 1])


def test_block_posterior_matches_conditioned_oracle(rng):
    # the enumeration anchor: with uniform watermark bits, P(y | w_j = h)
    # is the mean of P(y | w) over the watermarks with w_j = h, and P(y)
    # the mean over all of them, each P(y | w) a conditioned sweep over
    # the codeword's sparse pattern; the decode's likelihoods, likelihood
    # ratios and evidence match within 1e-10 relative; noiseless channels
    # make the wrong hypothesis impossible
    n_finite = n_inf = 0
    for case in range(30):
        n_bits, spread = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        n_code = n_bits * spread
        p = IdsParams(p_sub=float(rng.choice([0.0, 0.05])),
                      p_delete=float(rng.choice([0.0, 0.1, 0.2])),
                      p_insert=float(rng.choice([0.0, 0.1, 0.2])), max_insert_run=2)
        w = rng.integers(0, 2, n_bits, dtype=np.uint8)
        cfg = WatermarkConfig(watermark=w, spread=spread, delta=0.1, key_seed=case)
        key = keystream(case, n_code)
        y = sample_ids_channel(encode(w, cfg), p, rng)
        d_max = n_code + 3
        ws = np.array(list(itertools.product([0, 1], repeat=n_bits)), dtype=np.uint8)
        like = np.array([math.exp(trellis_tables([y], key, p, d_max, wtilde=sparsify(v, spread))
                                  .log_evidence[0]) for v in ws])
        tab = trellis_tables([y], key, p, d_max, spread=spread)
        lp = block_posterior(tab)[0]
        rep = decode(y, cfg, p, w, d_max=d_max)
        want_ev = like.mean()
        if want_ev == 0.0:
            assert tab.log_evidence[0] == -math.inf and rep.status == "zero-evidence"
            continue
        assert abs(math.exp(tab.log_evidence[0]) - want_ev) <= 1e-10 * want_ev
        for j in range(n_bits):
            want = [like[ws[:, j] == h].mean() for h in (0, 1)]
            for h in (0, 1):
                if want[h] == 0.0:
                    assert lp[j, h] == -math.inf
                    n_inf += 1
                else:
                    assert abs(math.exp(lp[j, h]) - want[h]) <= 1e-10 * want[h]
                    n_finite += 1
            if min(want) > 0.0:
                assert abs(math.expm1(rep.llr[j] - math.log(want[1] / want[0]))) <= 1e-10
            else:
                assert rep.llr[j] == (math.inf if want[1] else -math.inf)
    assert n_finite >= 150 and n_inf >= 10


def test_block_posterior_symmetric_llr_zero():
    # with substitutions at coin-flip level the two hypotheses explain the
    # observation equally well
    p = IdsParams(p_sub=0.5)
    key = np.array([0], dtype=np.uint8)
    tab = trellis_tables([[1]], key, p, 2)
    lp = block_posterior(tab)[0]
    assert lp[0, 0] == pytest.approx(lp[0, 1])


def test_block_posterior_matches_scalar_reference(rng):
    # every (block, hypothesis) against the one-block-at-a-time reference
    # on mid-size channels; the cases cycle through noisy channels with and
    # without insertions, a noiseless channel (the wrong hypothesis is
    # impossible), a deletion-only stream read past its end (no evidence)
    # and an undeletable stream cut short (the forward sweep dies)
    n_inf = n_finite = 0
    for case in range(32):
        spread = int(rng.integers(1, 7))
        n_code = spread * int(rng.integers(-(-40 // spread), 120 // spread + 1))
        kind = case % 5
        if kind == 0:
            p = IdsParams(p_sub=0.05, p_delete=0.1)
        elif kind == 1:
            p = IdsParams(p_sub=0.05, p_delete=0.1, p_insert=0.1,
                          max_insert_run=int(rng.integers(1, 6)))
        elif kind == 2:
            p = IdsParams(p_delete=float(rng.choice([0.0, 0.1])))
        elif kind == 3:
            p = IdsParams(p_sub=0.05, p_delete=0.1)
        else:
            p = IdsParams(p_sub=0.05, p_insert=0.1, max_insert_run=3)
        key = rng.integers(0, 2, n_code, dtype=np.uint8)
        wt = np.zeros(n_code, dtype=np.uint8)
        wt[::spread] = rng.integers(0, 2, n_code // spread, dtype=np.uint8)
        y = sample_ids_channel(np.bitwise_xor(wt, key), p, rng)
        if kind == 3:
            y = np.concatenate([y, rng.integers(0, 2, 30, dtype=np.uint8)])
        elif kind == 4:
            y = y[: n_code // 2]
        tab = trellis_tables([y], key, p, spread=spread)
        got = block_posterior(tab)[0]
        assert got.shape == (n_code // spread, 2)
        for j in range(n_code // spread):
            for h in (0, 1):
                want = scalar_block_posterior(j + 1, tab, h)
                if math.isinf(want):
                    assert got[j, h] == want
                    n_inf += 1
                else:
                    assert abs(got[j, h] - want) <= 1e-9 * abs(want)
                    n_finite += 1
    assert n_inf >= 100 and n_finite >= 400


def _random_states(t, rng, lead):
    """States of leading shape lead with random vectors on every flow's
    columns and zero pads and operand rows."""
    states = t.new_state(lead)
    t.flows(states)[...] = rng.random((*lead, len(t.ys), 2, t.D))
    return states


def test_step_batch_equals_single_rows(rng):
    # a stacked batch with per-row step indices and weight matrices is B
    # single-row steps bit for bit, and the window tables are the dense
    # per-step tables at the band's drifts: the emission table the bit
    # weights times the delivery weight, the run table the insertion law
    # times the zeros' weights; n_code = 1 has no steps and a row shorter
    # than a bare window
    cases = (
        (1, IdsParams(p_sub=0.1, p_delete=0.1, p_insert=0.2, max_insert_run=3)),
        (2, IdsParams(p_sub=0.1, p_delete=0.1)),
        (37, IdsParams(p_sub=0.05, p_delete=0.1, p_insert=0.1, max_insert_run=4)),
        (60, IdsParams(p_sub=0.05, p_delete=0.2)),
    )
    for n_code, p in cases:
        key = rng.integers(0, 2, n_code, dtype=np.uint8)
        y = sample_ids_channel(key, p, rng)
        t = Trellis([y], key, p)
        d_max = int(t.flow_d_max[0])
        dense = DenseSteps(y, key, p, d_max)
        cols = t.drifts + d_max
        for b in (0, 1):
            assert np.array_equal(t.emission[: n_code - 1, b, 0, t.pad :],
                                  (1.0 - p.p_delete) * dense.e_match[b][:, cols])
        for l in range(p.max_insert_run + 1):
            if l < t.n_ins:
                assert np.array_equal(t.ins_weight[: n_code - 1, l, 0],
                                      dense.init_coef[l] * dense.zero_w[l][:, cols])
            else:
                assert dense.coef[l] == 0.0
        if n_code < 2:
            continue
        B = 7
        prev = _random_states(t, rng, (B,))
        i = rng.integers(2, n_code + 1, B)
        q = t.code_weights(i, rng.random((B, 2)))
        assert q.shape == (B, 2, 4)
        for advance in (t.step, t.step_back):
            batch = advance(prev, i, q)
            for b in range(B):
                assert np.array_equal(batch[b], advance(prev[b], int(i[b]), q[b]))
        # block layout: one step index per block, one weight matrix per
        # hypothesis
        q2 = t.code_weights(i[:, None], rng.random((B, 2, 2)))
        assert q2.shape == (B, 2, 2, 4)
        batch = t.step(prev[:, None], i[:, None], q2)
        for b in range(B):
            for h in (0, 1):
                assert np.array_equal(batch[b, h], t.step(prev[b], int(i[b]), q2[b, h]))


def test_step_back_is_the_adjoint_of_step(rng):
    # the backward kernel is the transpose of the forward one: for any u
    # and v, sum(step(u) * v) == sum(u * step_back(v)) over the flows'
    # columns, for single flows, B flows and the block layout's leading
    # (block, hypothesis) axes
    n_code, B = 24, 3
    for p_d, p_i in itertools.product((0.0, 0.2), (0.0, 0.2)):
        p = IdsParams(p_sub=0.1, p_delete=p_d, p_insert=p_i, max_insert_run=2)
        key = rng.integers(0, 2, n_code, dtype=np.uint8)
        ys = [sample_ids_channel(key, p, rng) for _ in range(B)]
        t = Trellis(ys, key, p, d_max=6)
        assert t.n_ins == (3 if p_i else 1)
        i = rng.integers(2, n_code + 1, 5)
        for lead, i_lead, same_flip in (
            ((), int(i[0]), rng.random(2)),
            ((5,), i, rng.random((5, 2))),
            ((5, 2), i[:, None], rng.random((5, 2, 2))),
        ):
            q = t.code_weights(i_lead, same_flip)
            u = _random_states(t, rng, lead)
            v = _random_states(t, rng, lead)
            lhs = float(np.sum(t.flows(t.step(u, i_lead, q)) * t.flows(v)))
            rhs = float(np.sum(t.flows(u) * t.flows(t.step_back(v, i_lead, q))))
            assert lhs > 0.0
            assert abs(lhs - rhs) <= 1e-12 * lhs


def test_step_into_out_is_the_allocating_step(rng):
    # a step written into out= equals the allocating call bit for bit,
    # for one flow, B flows and the block layout's leading (block,
    # hypothesis) axes, with and without insertion runs; out starts as
    # NaN between its outer pads, so the step writes every entry there,
    # and states already stepped from stay reusable
    n_code, B = 30, 3
    for p_i in (0.0, 0.2):
        p = IdsParams(p_sub=0.1, p_delete=0.1, p_insert=p_i, max_insert_run=3)
        key = rng.integers(0, 2, n_code, dtype=np.uint8)
        ys = [sample_ids_channel(key, p, rng) for _ in range(B)]
        for flows in (ys[:1], ys):
            t = Trellis(flows, key, p, d_max=5)
            assert t.n_ins == (4 if p_i else 1)
            i = rng.integers(2, n_code + 1, 5)
            for _ in range(2):
                for lead, i_lead, same_flip in (
                    ((), int(i[0]), rng.random(2)),
                    ((5,), i, rng.random((5, 2))),
                    ((5, 2), i[:, None], rng.random((5, 2, 2))),
                ):
                    q = t.code_weights(i_lead, same_flip)
                    u = _random_states(t, rng, lead)
                    # the block layout steps one state forward under both
                    # hypotheses
                    prev = u[:, :1] if len(lead) == 2 else u
                    for advance, x in ((t.step, prev), (t.step_back, u)):
                        want = advance(x, i_lead, q)
                        out = np.zeros_like(want)
                        out[..., :2, t.pad : t.width - t.pad] = np.nan
                        assert advance(x, i_lead, q, out=out) is out
                        assert np.array_equal(out, want)
                        assert np.array_equal(advance(x, i_lead, q), want)


def test_tables_back_to_back_keep_no_state(rng):
    # trellis_tables of different (B, D, n_ins), each followed by its
    # block posteriors' batched step, run back to back and then again:
    # every run reproduces its first one bit for bit.  The kept states'
    # pads stay 0, and
    # the shifted views that read the run rows are read-only
    n_code = 40
    cases = []
    for B, p_i, d_max in ((1, 0.0, 4), (4, 0.2, 6), (2, 0.0, 9)):
        p = IdsParams(p_sub=0.05, p_delete=0.1, p_insert=p_i, max_insert_run=3)
        key = rng.integers(0, 2, n_code, dtype=np.uint8)
        cases.append(([sample_ids_channel(key, p, rng) for _ in range(B)], key, p, d_max))
    runs = []
    for ys, key, p, d_max in cases + cases:
        t = trellis_tables(ys, key, p, d_max, spread=5)
        lp = block_posterior(t)
        assert np.all(np.isfinite(t.log_evidence))
        pads = np.ones((2, t.width), dtype=bool)
        t.flows(pads)[...] = False
        for vecs, backward in ((t.fw[0], False), (t.bw[0], True)):
            assert vecs.shape[1:] == (2, t.width) and not np.any(vecs[:, pads])
            if t.n_ins > 1:
                views = t._views(t.new_state(), backward)
                shifted = views[-1] if backward else views[-1][1]
                with pytest.raises(ValueError):
                    shifted[..., 0, 0, 0] = 1.0
        runs.append((t, lp))
    assert len({(t.D, t.n_ins, len(t.ys)) for t, _ in runs}) == len(cases)
    for (a, lp_a), (b, lp_b) in zip(runs, runs[len(cases):]):
        for x, y in ((a.fw, b.fw), (a.bw, b.bw)):
            assert np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1])
        assert np.array_equal(a.log_evidence, b.log_evidence)
        assert np.array_equal(lp_a, lp_b)


def test_sweep_states_are_zero_off_the_bands(rng):
    # every state the sweeps keep holds exact zeros in its pads and in
    # each flow's columns outside its band, and mass inside: three flows
    # with different bands (cut short by 5 and by 2, and as sampled),
    # with and without insertion runs, keeping every state and every
    # tenth
    n_code = 60
    for p_i, n_ins in ((0.0, 1), (0.1, 9)):
        p = IdsParams(p_sub=0.05, p_delete=0.1, p_insert=p_i, max_insert_run=8)
        key = rng.integers(0, 2, n_code, dtype=np.uint8)
        ys = [sample_ids_channel(key, p, rng) for _ in range(3)]
        ys[0] = ys[0][:-5]
        ys[1] = ys[1][:-2]
        for spread in (1, 10):
            t = trellis_tables(ys, key, p, d_max=3, spread=spread)
            assert t.n_ins == n_ins and len({tuple(b) for b in t.band}) == 3
            # a state's columns: pads, then each flow's drifts lo .. hi
            band = np.zeros((2, t.width), dtype=bool)
            t.flows(band)[...] = ((t.drifts >= t.band[:, :1])
                                  & (t.drifts <= t.band[:, 1:]))[:, None, :]
            assert band.sum() < 2 * len(ys) * t.D
            for vecs, _ in (t.fw, t.bw):
                assert vecs.shape == (n_code // spread, 2, t.width)
                assert not np.any(vecs[:, ~band])
                assert np.all(t.flows(vecs).sum(axis=(-2, -1)) > 0.0)


def test_block_posteriors_are_the_first_steps_closed(rng):
    # the forward sweep closes each block's first step as it passes: bit
    # for bit, the block's first step under each hypothesis taken by
    # t.step from the kept forward state before it (by init_vec for block
    # 0) and closed with t.joint against the kept backward state, for one
    # to four flows, with and without insertion runs, one block per bit
    # and blocks of five
    n_code = 60
    for p_i, spread, B in itertools.product((0.0, 0.2), (1, 5), (1, 2, 3, 4)):
        p = IdsParams(p_sub=0.05, p_delete=0.1, p_insert=p_i, max_insert_run=3)
        key = rng.integers(0, 2, n_code, dtype=np.uint8)
        ys = [sample_ids_channel(key, p, rng) for _ in range(B)]
        ys[0] = ys[0][:-3]
        t = trellis_tables(ys, key, p, spread=spread)
        (fvecs, flogw), (bvecs, blogw) = t.fw, t.bw
        n_blocks = n_code // spread
        q = t.code_weights(np.arange(n_blocks)[:, None] * spread + 1, np.eye(2))
        want = np.empty((n_blocks, 2, B))
        want[0] = t.joint(t.init_vec(q[0]), bvecs[0])
        for j in range(1, n_blocks):
            prev = t.new_state()
            prev[:2] = fvecs[j - 1]
            want[j] = t.joint(t.step(prev, j * spread + 1, q[j]), bvecs[j])
        assert t.block_joint.tobytes() == want.tobytes()
        flog = np.concatenate([np.zeros((1, B)), flogw[:-1]])
        with np.errstate(divide="ignore"):
            lp = flog[:, None] + np.log(want) + blogw[:, None]
        assert block_posterior(t).tobytes() == lp.transpose(2, 0, 1).tobytes()
        assert np.isfinite(lp).sum() >= lp.size // 2


def test_block_posterior_transient_is_bounded(rng):
    # 32 streams under insertion runs (p_delete 0.1, p_insert 0.2, nine
    # run lengths, 50 blocks): the blocks' run buffers held at once would
    # take well over 16 MiB, but the sweeps and the block posteriors
    # together peak at most 16 MiB above what the returned trellis holds
    p = IdsParams(p_sub=0.05, p_delete=0.1, p_insert=0.2)
    key = keystream(3, 500)
    ys = [sample_ids_channel(key, p, rng) for _ in range(32)]
    tracemalloc.start()
    try:
        t = trellis_tables(ys, key, p, spread=10)
        block_posterior(t)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.n_ins == 9
    n_blocks = len(t.bw[0])
    assert (n_blocks - 1) * t.bw[0][0].nbytes * t.n_ins > 2 * 16 * 2 ** 20
    assert held >= t.fw[0].nbytes + t.bw[0].nbytes
    transient = peak - held
    assert transient <= 16 * 2 ** 20, f"the decode peaked {transient / 2 ** 20:.1f} MiB above its tables"


def test_mask_without_insertions_keeps_the_flows_apart():
    # without insertion runs the sweeps mask the bands only at the states
    # they renormalize, so mass that falls below a flow's band (forward)
    # or rises above it (backward) runs on until then; the pads, spread
    # columns wide, keep it off the next flow's columns.  The code cut
    # short by 2, 15 and 30 bits gives bands whose lower edges lie more
    # than spread apart; in every order the flows decode together as each
    # does alone, and the kept states hold zeros off the bands
    w = watermark_bits(8, 20)
    cfg = WatermarkConfig(watermark=w, spread=10, delta=0.1, key_seed=21)
    key = keystream(cfg.key_seed, cfg.code_len)
    code = encode(w, cfg)
    p = IdsParams(p_sub=0.05, p_delete=0.1)
    ys = [code[:-cut] for cut in (2, 15, 30)]
    alone = [decode(y, cfg, p, w) for y in ys]
    for order in itertools.permutations(range(len(ys))):
        flows = [ys[b] for b in order]
        t = trellis_tables(flows, key, p, spread=cfg.spread)
        assert t.n_ins == 1 and t.renorm_every >= cfg.spread
        assert np.all(np.diff(np.sort(t.band[:, 0])) > cfg.spread)
        band = np.zeros((2, t.width), dtype=bool)
        t.flows(band)[...] = ((t.drifts >= t.band[:, :1])
                              & (t.drifts <= t.band[:, 1:]))[:, None, :]
        for vecs, _ in (t.fw, t.bw):
            assert not np.any(vecs[:, ~band])
        for b, rep in zip(order, decode_batch(flows, cfg, p, w)):
            assert rep.status == "ok"
            _assert_same_decode(rep, alone[b])


def test_step_tables_are_the_window_tables(rng):
    # every step reads one emission table, the bit weights times the
    # delivery weight, at every n_ins, over the flows' columns and the
    # pad of w columns before them; with insertion runs the forward step
    # then reads the run weights by landing column, ins_weight's row l
    # shifted l columns: exactly, at every position, with the band window
    # in use and without
    n_code = 50
    for p_i in (0.0, 0.1):
        p = IdsParams(p_sub=0.05, p_delete=0.1, p_insert=p_i, max_insert_run=4)
        key = rng.integers(0, 2, n_code, dtype=np.uint8)
        ys = [sample_ids_channel(key, p, rng) for _ in range(3)]
        ys[1] = ys[1][:-6]
        for flows, windowed in ((ys[:1], False), (ys, True)):
            t = Trellis(flows, key, p, d_max=3)
            assert (t.window is not None) == windowed
            assert t.pad == max(t.n_ins - 1, 1)
            assert t.emission.shape == (n_code, 2, len(flows), t.pad + t.D)
            assert t.ins_weight.shape == (n_code, t.n_ins, len(flows), t.D)
            # window k reads the bit at position k + drift, from drift
            # lo - w on
            pos = np.arange(n_code)[:, None] + np.arange(t.lo - t.pad, t.hi + 1)
            for b, y in enumerate(flows):
                inside = (pos >= 0) & (pos < y.size)
                obs = y[np.clip(pos, 0, y.size - 1)]
                for a in (0, 1):
                    bit = np.where(inside, np.where(obs == a, 1.0 - p.p_sub, p.p_sub), 0.0)
                    assert np.array_equal(t.emission[:, a, b], bit * (1.0 - p.p_delete))
            if t.n_ins == 1:
                assert t.ins_landing is None
                assert np.all(t.ins_weight == 1.0)
                continue
            for j in range(n_code):
                for l in range(t.n_ins):
                    assert np.array_equal(t.ins_landing[j][l, :, l:],
                                          t.ins_weight[j][l, :, : t.D - l])


# ----------------------------------------------------------------- band

def test_band_is_exact(rng):
    # full-window sweeps over the whole cap hold forward mass only where
    # the chain can reach, backward mass only where it can still close,
    # and their product only inside the band; the banded trellis gives
    # the same evidence and state and block posteriors.  Streams are
    # sampled, cut short and run long; short codes put the band's edges
    # at the first and last states.
    run = 3
    n_empty = 0
    for p_d in (0.0, 0.1):
        for p_i in (0.0, 0.1):
            p = IdsParams(p_sub=0.05, p_delete=p_d, p_insert=p_i, max_insert_run=run)
            up, down = (run if p_i else 0), (1 if p_d else 0)
            cases = itertools.product(((40, 4), (3, 1)), (0, -6, 6, 0, -3, 3))
            for (n_code, spread), extra in cases:
                key = rng.integers(0, 2, n_code, dtype=np.uint8)
                y = sample_ids_channel(key, p, rng)
                y = y[: max(y.size + extra, 0)] if extra < 0 else np.concatenate(
                    [y, np.zeros(extra, dtype=np.uint8)])
                shift = y.size - n_code
                t = trellis_tables([y], key, p, spread=spread)
                d_max = int(t.flow_d_max[0])
                dense = DenseSteps(y, key, p, d_max, spread)
                fw, bw, evidence = dense.sweeps()
                d, i = dense.drifts, np.arange(1, n_code + 1)[:, None, None]
                reach = (d >= -(i - 1) * down) & (d <= up * i)
                close = ((d >= shift - up * (n_code - i + 1))
                         & (d <= shift + down * (n_code - i + 1)))
                lo, hi = t.band[0]
                outside = (d < lo) | (d > hi)
                assert not np.any(fw[~np.broadcast_to(reach, fw.shape)])
                assert not np.any(bw[~np.broadcast_to(close, bw.shape)])
                assert not np.any((fw * bw)[:, :, outside])
                if not math.isfinite(evidence):
                    assert t.log_evidence[0] == -math.inf
                    n_empty += lo > hi
                    continue
                assert abs(t.log_evidence[0] - evidence) <= 1e-10 * abs(evidence)
                # state posteriors: the band's columns carry all the mass
                lf, lb = log_sweeps(t)
                with np.errstate(divide="ignore"):
                    want = np.log(fw * bw) - np.log((fw * bw).sum(axis=(1, 2)))[:, None, None]
                got = lf[:, 0] + lb[:, 0] - t.log_evidence[0]
                cols = t.drifts + d_max
                assert np.array_equal(np.isinf(got), np.isinf(want[:, :, cols]))
                fin = np.isfinite(got)
                assert np.all(np.abs(np.exp(got[fin]) - np.exp(want[:, :, cols][fin])) <= 1e-9)
                got_lp = block_posterior(t)[0]
                for j in range(n_code // spread):
                    for h in (0, 1):
                        want_lp = scalar_block_posterior(j + 1, t, h)
                        if math.isinf(want_lp):
                            assert got_lp[j, h] == want_lp
                        else:
                            assert abs(got_lp[j, h] - want_lp) <= 1e-9 * abs(want_lp)
    assert n_empty >= 4


# ----------------------------------------------------------------- decode

def _clean_roundtrip_cfg(rng, n=12, s=5):
    w = rng.integers(0, 2, n, dtype=np.uint8)
    cfg = WatermarkConfig(watermark=w, spread=s, delta=0.1,
                          key_seed=int(rng.integers(0, 10_000)))
    return w, cfg


def test_decode_zero_noise_exact(rng):
    for _ in range(10):
        w, cfg = _clean_roundtrip_cfg(rng)
        code = encode(w, cfg)
        rep = decode(code, cfg, IdsParams(), w)
        assert np.array_equal(rep.w_hat, w)
        assert rep.score == 1.0
        assert rep.detected


def test_decode_from_channel_params(rng):
    w, cfg = _clean_roundtrip_cfg(rng)
    code = encode(w, cfg)
    params = IdsParams.from_channel(ChannelParams(sigma=0.005, p_delete=0.05, delta=cfg.delta))
    rep = decode(code, cfg, params, w)
    assert rep.score == 1.0


def test_decode_key_xor_invariance(rng):
    # exchanging a key-bit flip for a code-bit flip leaves evidence intact
    n_code = 12
    p = IdsParams(p_sub=0.08, p_delete=0.1, p_insert=0.05, max_insert_run=3)
    for _ in range(20):
        key = rng.integers(0, 2, n_code, dtype=np.uint8)
        wt = rng.integers(0, 2, n_code, dtype=np.uint8)
        y = sample_ids_channel(np.bitwise_xor(wt, key), p, rng)
        i = int(rng.integers(0, n_code))
        key2, wt2 = key.copy(), wt.copy()
        key2[i] ^= 1
        wt2[i] ^= 1
        a = trellis_tables([y], key, p, n_code + 3, wtilde=wt)
        b = trellis_tables([y], key2, p, n_code + 3, wtilde=wt2)
        assert a.log_evidence[0] == pytest.approx(b.log_evidence[0], rel=1e-12, abs=1e-12)


def test_decode_status_flags_zero_evidence():
    # a deletion-only stream read past its watermarked segment cannot close
    # the chain (no insertions explain the extra bits): P(y) = 0
    w = watermark_bits(3, 50)
    cfg = WatermarkConfig(watermark=w, spread=10, delta=0.1, key_seed=4)
    flow, _ = embed_flow(poisson_flow(3.3, 2000, seed=5), encode(w, cfg), 0.1)
    chan = ChannelParams(sigma=0.01, p_delete=0.1, jitter="quantizer", delta=0.1, seed=6)
    params = IdsParams.from_channel(chan)
    recv, log = transmit(flow, chan)
    y = qim_extract(to_ipds(recv), 0.1)
    seg = decode(y[: log.segment_bits(cfg.code_len)], cfg, params, w)
    assert seg.status == "ok" and seg.to_dict()["status"] == "ok"
    assert math.isfinite(seg.log_evidence) and seg.detected
    pre = decode(y[:600], cfg, params, w)
    assert pre.status == "zero-evidence" and pre.to_dict()["status"] == "zero-evidence"
    assert pre.log_evidence == -math.inf and not np.any(pre.llr)
    # no insertions: drift never rises, so no state can close 100 bits
    # past the code and the band is empty; the trellis keeps one column,
    # not the 2 * 102 + 1 of the cap
    t = Trellis([y[:600]], keystream(4, cfg.code_len), params, 102)
    assert t.band[0, 0] > t.band[0, 1] and t.D == 1


def test_band_with_insertions_is_the_cap():
    # with insertions every drift of the cap is reachable and closable on
    # harness-length streams: the columns are the whole cap, unmasked
    w = watermark_bits(8, 50)
    cfg = WatermarkConfig(watermark=w, spread=10, delta=0.1, key_seed=9)
    ys, p = _received(cfg, 4, 0.1, seed=80)
    key = keystream(9, cfg.code_len)
    for y in ys:
        t = Trellis([y], key, p)
        d_max = int(t.flow_d_max[0])
        assert np.array_equal(t.drifts, np.arange(-d_max, d_max + 1)) and t.window is None


def _received(cfg, n_flows, p_i, seed):
    # segment-cut streams from the harness pipeline, half of them marked,
    # and the channel's bit law
    ys = []
    for s in range(n_flows):
        flow = poisson_flow(3.3, cfg.code_len * 4, seed=seed + s)
        if s % 2 == 0:
            flow, _ = embed_flow(flow, encode(cfg.watermark, cfg), 0.1)
        chan = ChannelParams(sigma=0.01, p_delete=0.1, p_insert=p_i, jitter="quantizer",
                             delta=0.1, seed=seed + 100 + s)
        recv, log = transmit(flow, chan)
        ys.append(qim_extract(to_ipds(recv), 0.1)[: log.segment_bits(cfg.code_len)])
    return ys, IdsParams.from_channel(chan)


def _assert_same_decode(got, want):
    assert np.array_equal(got.w_hat, want.w_hat)
    assert (got.score, got.detected, got.status) == (want.score, want.detected, want.status)
    assert np.array_equal(np.isinf(got.llr), np.isinf(want.llr))
    fin = np.isfinite(want.llr)
    assert np.all(np.abs(got.llr[fin] - want.llr[fin]) <= 1e-9 * np.abs(want.llr[fin]))
    if math.isfinite(want.log_evidence):
        assert abs(got.log_evidence - want.log_evidence) <= 1e-12 * abs(want.log_evidence)
    else:
        assert got.log_evidence == want.log_evidence


def test_decode_batch_matches_per_flow():
    # one lockstep sweep over caps of very different widths: under one
    # narrow cap each flow's cap is its own floor, and each flow decodes
    # as it does alone
    w = watermark_bits(11, 20)
    cfg = WatermarkConfig(watermark=w, spread=5, delta=0.1, key_seed=12)
    for p_i in (0.0, 0.1):
        ys, p = _received(cfg, 6, p_i, seed=40)
        ys.append(np.concatenate([ys[1], np.zeros(60, dtype=np.uint8)]))
        # leading zeros: head insertion bursts reach past a narrow window
        ys[0] = np.concatenate([np.zeros(3, dtype=np.uint8), ys[0]])
        key = keystream(cfg.key_seed, cfg.code_len)
        caps = Trellis(ys, key, p, d_max=1).flow_d_max
        assert caps.tolist() == [abs(y.size - cfg.code_len) + 2 for y in ys]
        assert caps.max() >= 4 * caps.min()
        got = decode_batch(ys, cfg, p, w, d_max=1)
        assert len(got) == len(ys)
        for y, rep in zip(ys, got):
            _assert_same_decode(rep, decode(y, cfg, p, w, d_max=1))
        scores = [rep.score for rep in got]
        assert min(scores[2:6:2]) > max(scores[1:6:2])


def test_decode_batch_zero_evidence_row():
    # a stream that no deletion-only path explains flags only its own row
    w = watermark_bits(3, 50)
    cfg = WatermarkConfig(watermark=w, spread=10, delta=0.1, key_seed=4)
    ys, p = _received(cfg, 3, 0.0, seed=70)
    flow, _ = embed_flow(poisson_flow(3.3, 2000, seed=5), encode(w, cfg), 0.1)
    recv, _ = transmit(flow, ChannelParams(sigma=0.01, p_delete=0.1, jitter="quantizer",
                                           delta=0.1, seed=6))
    prefix = qim_extract(to_ipds(recv), 0.1)[:600]
    got = decode_batch(ys[:2] + [prefix] + ys[2:], cfg, p, w)
    assert [rep.status for rep in got] == ["ok", "ok", "zero-evidence", "ok"]
    assert got[2].log_evidence == -math.inf and not np.any(got[2].llr)
    for y, rep in zip(ys, got[:2] + got[3:]):
        _assert_same_decode(rep, decode(y, cfg, p, w))


def test_decode_batch_infeasible_window():
    # a cap too narrow for one flow's length mismatch floors that flow's
    # cap alone; the batch still decodes every flow
    w = watermark_bits(5, 10)
    cfg = WatermarkConfig(watermark=w, spread=3, delta=0.1, key_seed=6)
    key = keystream(6, cfg.code_len)
    p = IdsParams(p_delete=0.5)
    got = decode_batch([key, key[:10]], cfg, p, w, d_max=3)
    assert len(got) == 2 and got[1].status == "ok"
    for y, rep in zip([key, key[:10]], got):
        _assert_same_decode(rep, decode(y, cfg, p, w, d_max=3))


def test_decode_control_scores_near_half(rng):
    # unwatermarked bits decoded against fresh random watermarks score 1/2
    p = IdsParams(p_sub=0.0146, p_delete=0.1, p_insert=0.0)
    n, s = 20, 5
    scores = []
    for t in range(60):
        w = rng.integers(0, 2, n, dtype=np.uint8)
        cfg = WatermarkConfig(watermark=w, spread=s, delta=0.1, key_seed=int(t))
        y = rng.integers(0, 2, int(rng.integers(90, 105)), dtype=np.uint8)
        rep = decode(y, cfg, p, w)
        scores.append(rep.score)
    mean = float(np.mean(scores))
    sd = float(np.std(scores) / math.sqrt(len(scores)))
    assert abs(mean - 0.5) < 3 * max(sd, 0.01)


def test_drift_window_sufficiency(rng):
    # the default window barely changes the evidence versus doubling it
    p = IdsParams(p_sub=0.05, p_delete=0.05, p_insert=0.05, max_insert_run=4)
    n_code = 80
    d0 = default_drift_window(n_code, p)
    checked = 0
    for _ in range(100):
        key = rng.integers(0, 2, n_code, dtype=np.uint8)
        wt = np.zeros(n_code, dtype=np.uint8)
        wt[::8] = rng.integers(0, 2, 10, dtype=np.uint8)
        y = sample_ids_channel(np.bitwise_xor(wt, key), p, rng)
        if abs(int(y.size) - n_code) + 2 > d0:
            continue
        a = trellis_tables([y], key, p, d0, spread=8).log_evidence[0]
        b = trellis_tables([y], key, p, 2 * d0, spread=8).log_evidence[0]
        if math.isfinite(a):
            checked += 1
            assert abs(a - b) < 1e-6 * abs(b)
    assert checked >= 80


def test_monotone_degradation(rng):
    # mean detection score falls (weakly) as each channel knob grows
    n, s = 16, 5
    w = watermark_bits(9, n)
    cfg = WatermarkConfig(watermark=w, spread=s, delta=0.1, key_seed=77)
    code = encode(w, cfg)

    def mean_score(p, trials=200):
        vals = []
        for t in range(trials):
            y = sample_ids_channel(code, p, rng)
            vals.append(decode(y, cfg, p, w).score)
        return float(np.mean(vals))

    by_sub = [mean_score(IdsParams(p_sub=v, p_delete=0.05)) for v in (0.01, 0.1, 0.25)]
    assert by_sub[0] >= by_sub[1] - 0.02 and by_sub[1] >= by_sub[2] - 0.02
    by_del = [mean_score(IdsParams(p_sub=0.05, p_delete=v)) for v in (0.0, 0.1, 0.3)]
    assert by_del[0] >= by_del[1] - 0.02 and by_del[1] >= by_del[2] - 0.02
    by_ins = [mean_score(IdsParams(p_sub=0.05, p_insert=v, max_insert_run=4))
              for v in (0.0, 0.1, 0.3)]
    assert by_ins[0] >= by_ins[1] - 0.02 and by_ins[1] >= by_ins[2] - 0.02


# ----------------------------------------------------------------- thresholds

def test_calibrate_quantile_definition(rng):
    scores = rng.random(1000)
    thr = calibrate_threshold(scores, 0.01)
    assert thr == float(np.sort(scores)[989])
    # the rank is exact: ceil(0.55 * 100) = 55, where the float product
    # 0.55 * 100 reads 55.000000000000007
    assert calibrate_threshold(np.arange(100) / 100, 0.45) == 0.54


def test_calibrate_all_equal():
    assert calibrate_threshold([0.4] * 10, 0.05) == 0.4


def test_calibrate_binomial_null(rng):
    scores = rng.binomial(50, 0.5, size=1000) / 50.0
    thr = calibrate_threshold(scores, 0.01)
    assert 0.66 <= thr <= 0.70


def test_calibrate_errors():
    with pytest.raises(ValueError):
        calibrate_threshold([], 0.01)


def test_calibrate_refuses_non_finite_scores():
    # the message names the first bad index
    for scores, message in (([0.5, math.nan], "control score 1 is not finite: nan"),
                            ([0.5, 0.6, math.inf], "control score 2 is not finite: inf"),
                            ([-math.inf, math.nan], "control score 0 is not finite: -inf")):
        with pytest.raises(ValueError, match=re.escape(message)):
            calibrate_threshold(scores, 0.01)


def test_binomial_score_threshold():
    assert binomial_score_threshold(50, 0.01) == pytest.approx(33 / 50)


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda: IdsParams(p_sub=1.0), "p_sub must lie in [0, 1)", id="p_sub"),
    pytest.param(lambda: IdsParams(p_delete=-0.1), "p_delete must lie in [0, 1]", id="p_delete"),
    pytest.param(lambda: IdsParams(p_delete=math.nan), "p_delete must lie in [0, 1]",
                 id="p_delete-nan"),
    pytest.param(lambda: IdsParams(max_insert_run=0), "max_insert_run must be at least 1",
                 id="run-cap"),
    pytest.param(lambda: IdsParams.from_channel(ChannelParams(sigma=0.01)),
                 "the bit law needs the channel's delta", id="channel-without-delta"),
    pytest.param(lambda: Trellis([], [1, 0], IdsParams()), "need at least one received sequence",
                 id="no-streams"),
    pytest.param(lambda: Trellis([[0]], [], IdsParams()), "key must contain at least one bit",
                 id="empty-key"),
    pytest.param(lambda: Trellis([[0]], [1, 0, 1], IdsParams(), spread=2),
                 "spread 2 does not divide the code length 3", id="spread"),
    pytest.param(lambda: Trellis([[0]], [1, 0], IdsParams(), wtilde=[1]),
                 "conditioning pattern must match the code length", id="wtilde"),
    pytest.param(lambda: binomial_score_threshold(0), "n must be positive", id="binomial-n"),
    pytest.param(lambda: binomial_score_threshold(5, alpha=1.0), "alpha must lie in (0, 1)",
                 id="binomial-alpha"),
    pytest.param(lambda: calibrate_threshold([0.5], 0.0), "alpha must lie in (0, 1)",
                 id="calibrate-alpha"),
    pytest.param(lambda: decode_batch([[0, 1]], WatermarkConfig([1, 0], 1, 0.1, 1), IdsParams(),
                                      [1]),
                 "reference watermark length does not match config", id="reference"),
    *(pytest.param(lambda d=d: decode_batch([[0, 1]], WatermarkConfig([1], 2, 0.1, 1),
                                            IdsParams(), [1], d_max=d),
                   f"d_max must be a whole number, not {d!r}", id=f"d_max-{d!r}")
      for d in (2.9, 3.0, math.nan, math.inf, True, "3")),
    pytest.param(lambda: Trellis([[0]], [1, 0], IdsParams(), d_max=np.float64(2.0)),
                 "d_max must be a whole number, not", id="d_max-float64"),
    *(pytest.param(lambda t=t: decode_batch([[0, 1]], WatermarkConfig([1], 2, 0.1, 1),
                                            IdsParams(), [1], threshold=t),
                   f"threshold must lie in [0, 1], not {t}", id=f"threshold-{t}")
      for t in (math.nan, 2.0, -0.1)),
])
def test_input_checks(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call()


# ----------------------------------------------------------------- oracle

def test_oracle_identity_channel(rng):
    p = IdsParams()
    for _ in range(10):
        x = rng.integers(0, 2, 5, dtype=np.uint8)
        assert enumeration_oracle(x, p, x) == pytest.approx(1.0)
        y = x.copy()
        y[2] ^= 1
        assert enumeration_oracle(x, p, y) == 0.0


def test_oracle_two_bit_deletion_hand_sum():
    # x=[1,0] -> y=[1]: drop either packet; both leave the bit 1
    p = IdsParams(p_delete=0.1)
    got = enumeration_oracle([1, 0], p, [1])
    assert got == pytest.approx(0.1 * 0.9 + 0.9 * 0.1)
    # y=[0] needs a substitution, impossible here
    assert enumeration_oracle([1, 0], p, [0]) == 0.0


def test_oracle_size_bounds():
    p = IdsParams(max_insert_run=2)
    with pytest.raises(ValueError):
        enumeration_oracle([0] * 7, p, [0] * 7)
    with pytest.raises(ValueError):
        enumeration_oracle([0], IdsParams(p_insert=0.1, max_insert_run=3), [0])
