import math

import numpy as np
import pytest

from conftest import sample_ids_channel
from flowmark.channel import ChannelParams
from flowmark.decoder import (
    DecodeInfeasibleError,
    IdsParams,
    binomial_score_threshold,
    block_posterior,
    calibrate_threshold,
    decode,
    default_drift_window,
    trellis_tables,
)
from flowmark.idscode import WatermarkConfig, encode, keystream, sparsify, watermark_bits
from reference import TrellisState, enumeration_oracle, transition_log_prob


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
        density=0.05,
    )
    # drop with nothing inserted, sparse bit 0: (1-f) * p_d * (1-p_i)
    assert math.exp(lp) == pytest.approx(0.95 * 0.1)
    lp2 = transition_log_prob(
        TrellisState(0, 0), TrellisState(0, -1), [], key_bit=1, params=p,
        density=0.05,
    )
    assert math.exp(lp2) == pytest.approx(0.05 * 0.1)


def test_transition_inconsistent_pairs_are_zero():
    p = IdsParams(p_sub=0.1, p_delete=0.1, p_insert=0.1)
    # emitted fragment length must be drift change + 1
    lp = transition_log_prob(TrellisState(0, 0), TrellisState(1, 2), [1],
                             key_bit=0, params=p, density=0.05)
    assert lp == -math.inf
    # inserted bits must be zeros
    lp = transition_log_prob(TrellisState(0, 0), TrellisState(0, 1), [0, 1],
                             key_bit=0, params=p, density=0.05)
    assert lp == -math.inf


def test_transition_normalization():
    # summing over every next state and consistent emission gives 1 when
    # insertion runs cannot be truncated
    for p_i in (0.0, 0.15):
        p = IdsParams(p_sub=0.07, p_delete=0.2, p_insert=p_i, max_insert_run=64)
        total = 0.0
        for key_bit in (0,):
            for acc in (0, 1):
                prev = TrellisState(acc, 0)
                # deletion branch
                for nxt_acc in (0, 1):
                    lp = transition_log_prob(prev, TrellisState(nxt_acc, -1), [],
                                             key_bit, p, density=0.05)
                    total += math.exp(lp) if math.isfinite(lp) else 0.0
                # emission branches
                for l in range(0, 40):
                    for first in (0, 1):
                        emitted = [first] + [0] * l
                        for nxt_acc in (0, 1):
                            lp = transition_log_prob(
                                prev, TrellisState(nxt_acc, l), emitted,
                                key_bit, p, density=0.05)
                            total += math.exp(lp) if math.isfinite(lp) else 0.0
        assert total / 2 == pytest.approx(1.0, abs=1e-9)


def test_transition_noiseless_identity():
    # no drops, no insertions, no substitutions, zero density: y_i = k_i
    p = IdsParams()
    lp = transition_log_prob(TrellisState(0, 0), TrellisState(1, 0), [0],
                             key_bit=1, params=p, wtilde_bit=0)
    assert math.exp(lp) == pytest.approx(1.0)
    lp_bad = transition_log_prob(TrellisState(0, 0), TrellisState(1, 0), [1],
                                 key_bit=1, params=p, wtilde_bit=0)
    assert lp_bad == -math.inf


# ----------------------------------------------------------------- forward

def test_forward_single_bit_hand_sum():
    # one code bit over a substitution-only channel: the evidence is the
    # two-branch mixture over the sparse-bit prior
    f, ps = 0.2, 0.07
    p = IdsParams(p_sub=ps)
    key = np.array([1], dtype=np.uint8)
    tab = trellis_tables([1], key, p, f, 2)
    assert math.exp(tab.log_evidence) == pytest.approx((1 - f) * (1 - ps) + f * ps)
    tab = trellis_tables([0], key, p, f, 2)
    assert math.exp(tab.log_evidence) == pytest.approx((1 - f) * ps + f * (1 - ps))


def test_forward_short_y_without_deletions_is_impossible():
    p = IdsParams(p_sub=0.05, p_delete=0.0, p_insert=0.0)
    key = keystream(1, 6)
    tab = trellis_tables(key[:5], key, p, 0.05, 4)
    assert tab.log_evidence == -math.inf


def test_forward_infeasible_window():
    p = IdsParams(p_delete=0.5)
    key = keystream(1, 30)
    with pytest.raises(DecodeInfeasibleError) as exc:
        trellis_tables(np.zeros(5, dtype=np.uint8), key, p, 0.05, 3)
    assert exc.value.required_d_max >= 24


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
        tab = trellis_tables(y, key, p, 0.2, n + 3,
                             wtilde=np.bitwise_xor(x, key))
        got = math.exp(tab.log_evidence) if math.isfinite(tab.log_evidence) else 0.0
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
        tab = trellis_tables(y, key, p, 1 / 12, default_drift_window(n, p))
        if not math.isfinite(tab.log_evidence):
            continue
        for i in range(1, n + 1):
            tot = logsumexp(tab.state_log_joint(i))
            assert tot == pytest.approx(tab.log_evidence, rel=1e-10, abs=1e-9)


def test_backward_terminal_wrong_drift_is_minus_inf():
    p = IdsParams(p_sub=0.02, p_delete=0.1, p_insert=0.0)
    key = keystream(3, 10)
    y = key.copy()  # same length: final drift must be 0 or +1 tail
    tab = trellis_tables(y, key, p, 0.05, 5)
    bvecs, blogw = tab.bw
    with np.errstate(divide="ignore"):
        lb = np.log(bvecs[-1]) + blogw[-1]  # state N
    drifts = np.arange(-5, 6)
    # drifts that would need the tail to have negative length are impossible
    for di, d in enumerate(drifts):
        if d > 1:
            assert lb[0, di] == -math.inf and lb[1, di] == -math.inf


# ------------------------------------------------------------ block posterior

def test_block_posterior_noiseless_recovers_bits(rng):
    n, s = 8, 4
    w = rng.integers(0, 2, n, dtype=np.uint8)
    cfg = WatermarkConfig(watermark=w, spread=s, delta=0.1, key_seed=5)
    code = encode(w, cfg)
    p = IdsParams()
    key = keystream(5, cfg.code_len)
    tab = trellis_tables(code, key, p, cfg.density, 3)
    for j in range(1, n + 1):
        lp1 = block_posterior(j, tab, 1, s)
        lp0 = block_posterior(j, tab, 0, s)
        assert (lp1 > lp0) == bool(w[j - 1])


def test_block_posterior_matches_conditioned_oracle(rng):
    # P(y | block hypothesis) equals the oracle averaged over the other
    # blocks' sparse-bit priors
    import itertools

    for _ in range(25):
        blocks, s = 2, 2
        n_code = blocks * s
        f = 0.3
        p = IdsParams(p_sub=0.06, p_delete=0.12, p_insert=0.1, max_insert_run=2)
        key = rng.integers(0, 2, n_code, dtype=np.uint8)
        y = sample_ids_channel(key, p, rng)
        tab = trellis_tables(y, key, p, f, n_code + 3)
        for j, hyp in ((1, 0), (1, 1), (2, 0), (2, 1)):
            got_lp = block_posterior(j, tab, hyp, s)
            total = 0.0
            for wt_bits in itertools.product([0, 1], repeat=n_code):
                wt = np.array(wt_bits, dtype=np.uint8)
                blk = wt[(j - 1) * s: j * s]
                if blk[0] != hyp or np.any(blk[1:] != 0):
                    continue
                pw = 1.0
                for i in range(n_code):
                    if (j - 1) * s <= i < j * s:
                        continue
                    pw *= f if wt[i] else 1 - f
                total += pw * enumeration_oracle(np.bitwise_xor(wt, key), p, y)
            got = math.exp(got_lp) if math.isfinite(got_lp) else 0.0
            if total == 0.0:
                assert got == 0.0
            else:
                assert abs(total - got) / total < 1e-9


def test_block_posterior_symmetric_llr_zero():
    # with substitutions at coin-flip level the two hypotheses explain the
    # observation equally well
    p = IdsParams(p_sub=0.5)
    key = np.array([0], dtype=np.uint8)
    tab = trellis_tables([1], key, p, 0.3, 2)
    assert block_posterior(1, tab, 0, 1) == pytest.approx(block_posterior(1, tab, 1, 1))


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


def test_decode_channel_params_accepted(rng):
    w, cfg = _clean_roundtrip_cfg(rng)
    code = encode(w, cfg)
    chan = ChannelParams(sigma=0.005, p_delete=0.05)
    rep = decode(code, cfg, chan, w)
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
        a = trellis_tables(y, key, p, 0.1, n_code + 3, wtilde=wt)
        b = trellis_tables(y, key2, p, 0.1, n_code + 3, wtilde=wt2)
        assert a.log_evidence == pytest.approx(b.log_evidence, rel=1e-12, abs=1e-12)


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
        a = trellis_tables(y, key, p, 1 / 16, d0)
        b = trellis_tables(y, key, p, 1 / 16, 2 * d0)
        if math.isfinite(a.log_evidence):
            checked += 1
            assert abs(a.log_evidence - b.log_evidence) < 1e-6 * abs(b.log_evidence)
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


def test_calibrate_all_equal():
    assert calibrate_threshold([0.4] * 10, 0.05) == 0.4


def test_calibrate_binomial_null(rng):
    scores = rng.binomial(50, 0.5, size=1000) / 50.0
    thr = calibrate_threshold(scores, 0.01)
    assert 0.66 <= thr <= 0.70


def test_calibrate_errors():
    with pytest.raises(ValueError):
        calibrate_threshold([], 0.01)


def test_binomial_score_threshold():
    assert binomial_score_threshold(50, 0.01) == pytest.approx(33 / 50)


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
