"""Watermark recovery over the insertion/deletion/substitution bit channel.

The received bit sequence is modeled by a hidden Markov chain whose state
after each sent position is (accumulated bit, drift): the accumulated bit
is the xor of all code bits whose IPDs have merged into one received IPD
through packet drops, and the drift is the offset of the sent position
inside the received sequence caused by net insertions minus deletions.

One trellis step resolves the fate of the previous sent packet: dropped
with nothing inserted (no bit observed, the accumulated bit carries),
or delivered/replaced-by-insertions (the accumulated bit is observed,
possibly substituted, followed by a burst of inserted zeros).  Forward and
backward sweeps over this chain give the evidence and, re-run over one
watermark block with the sparse bit fixed to a hypothesis, the per-bit
posterior likelihoods for maximum-likelihood decoding.

Everything is kept in log domain via per-step renormalization; code
lengths in the hundreds underflow otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from flowmark.channel import ChannelParams, substitution_prob
from flowmark.idscode import WatermarkConfig, as_bits, keystream


class DecodeInfeasibleError(RuntimeError):
    """The observed length cannot be reached inside the drift window."""

    def __init__(self, message: str, required_d_max: int):
        super().__init__(message)
        self.required_d_max = required_d_max


@dataclass(frozen=True)
class IdsParams:
    """Bit-channel law the decoder assumes.

    These may deliberately differ from the simulated channel to probe
    robustness under parameter mismatch.
    """

    p_sub: float = 0.0
    p_delete: float = 0.0
    p_insert: float = 0.0
    max_insert_run: int = 8

    def __post_init__(self):
        for name in ("p_sub", "p_delete", "p_insert"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.max_insert_run < 1:
            raise ValueError("max_insert_run must be at least 1")

    @classmethod
    def from_channel(cls, chan: ChannelParams, delta: float) -> "IdsParams":
        return cls(
            p_sub=substitution_prob(delta, chan.sigma),
            p_delete=min(chan.p_delete, 1.0 - 1e-12),
            p_insert=chan.p_insert,
            max_insert_run=chan.max_insert_run,
        )


@dataclass
class DetectionReport:
    """Decoder output for one flow."""

    w_hat: np.ndarray
    llr: np.ndarray
    score: float
    threshold: float
    detected: bool
    log_evidence: float

    def to_dict(self) -> dict:
        # clamp infinite ratios (zero-noise decodes) to keep strict JSON
        big = 1e308
        return {
            "w_hat": [int(b) for b in self.w_hat],
            "llr": [float(np.clip(v, -big, big)) for v in self.llr],
            "score": self.score,
            "threshold": self.threshold,
            "detected": self.detected,
            "log_evidence": float(max(self.log_evidence, -big)),
        }


def default_drift_window(n_code: int, params: IdsParams) -> int:
    """Default half-width of the drift window: three standard deviations of
    the net drift plus one full insertion burst."""
    spread = 3.0 * math.sqrt(n_code * max(params.p_delete, params.p_insert))
    return max(1, int(math.ceil(spread + params.max_insert_run)))


class Trellis:
    """Vectorized trellis sweeps for one received sequence.

    State arrays have shape (2, D): rows are the accumulated bit, columns
    the drift in [-d_max, d_max].  Linear-domain vectors are renormalized
    each step and the log scale is carried separately.  trellis_tables()
    fills fw and bw, the (vectors, log scales) of states 1..N from each
    sweep, and log_evidence, log P(y).
    """

    def __init__(self, y, key, params: IdsParams, density: float, d_max: int,
                 wtilde=None):
        self.y = as_bits(y)
        self.key = as_bits(key)
        self.n_code = int(self.key.size)
        if self.n_code < 1:
            raise ValueError("key must contain at least one bit")
        if wtilde is not None:
            wtilde = as_bits(wtilde)
            if wtilde.size != self.n_code:
                raise ValueError("conditioning pattern must match the code length")
        self.wtilde = wtilde
        if not 0.0 < density < 1.0:
            raise ValueError("density must lie in (0, 1)")
        self.params = params
        self.density = density
        self.d_max = int(d_max)
        if self.d_max < 1:
            raise ValueError("d_max must be at least 1")
        self.n_obs = int(self.y.size)
        self._check_feasible()

        p = params
        self.del_coef = p.p_delete * (1.0 - p.p_insert)
        run = p.max_insert_run
        # coef[l]: probability weight of a +l drift step, split over the
        # two ways it can happen (drop with l+1 insertions, delivery with
        # l insertions), each gated by the insertion-run cap.
        ls = np.arange(0, run + 1)
        drop_part = p.p_delete * p.p_insert ** (ls + 1) * (ls + 1 <= run)
        keep_part = (1.0 - p.p_delete) * p.p_insert ** ls
        self.coef = (1.0 - p.p_insert) * (drop_part + keep_part)
        self.active_l = [int(l) for l in ls if self.coef[l] > 0.0]
        # head insertions before the first marked IPD completes
        self.init_coef = p.p_insert ** ls * (1.0 - p.p_insert)

        self.D = 2 * self.d_max + 1
        self.drifts = np.arange(-self.d_max, self.d_max + 1)

        # zrun[j]: observed zeros starting at position j
        zrun = np.zeros(self.n_obs + 1, dtype=np.int64)
        for j in range(self.n_obs - 1, -1, -1):
            zrun[j] = 0 if self.y[j] else zrun[j + 1] + 1
        self.zrun = zrun

        # Per-step emission context: step i (into state i) reads its first
        # observed bit at index i - 2 + drift of the source state.
        ps = p.p_sub
        steps = np.arange(2, self.n_code + 1)
        pos = steps[:, None] - 2 + self.drifts[None, :]
        valid = (pos >= 0) & (pos < self.n_obs)
        obs = self.y[np.clip(pos, 0, max(self.n_obs - 1, 0))] if self.n_obs else np.zeros_like(pos)
        self.e_match = [
            np.where(valid, np.where(obs == b, 1.0 - ps, ps), 0.0) for b in (0, 1)
        ]
        self.avail = zrun[np.clip(pos + 1, 0, self.n_obs)]

    def _check_feasible(self):
        # the last state's drift must fall in [shift - run, shift + 1] for
        # the observed tail to close; the window has to reach that band
        shift = self.n_obs - self.n_code
        run = self.params.max_insert_run
        lo, hi = shift - run, shift + 1
        if hi < -self.d_max or lo > self.d_max:
            need = lo if lo > self.d_max else -hi
            raise DecodeInfeasibleError(
                f"observed length {self.n_obs} vs code length {self.n_code} "
                f"needs a drift window of at least {need} (d_max={self.d_max})",
                required_d_max=need,
            )

    def _w_weights(self, i: int, override=None):
        """Prior weights of the sparse bit at position i (1-based)."""
        if override is not None:
            return ((int(override), 1.0),)
        if self.wtilde is not None:
            return ((int(self.wtilde[i - 1]), 1.0),)
        return ((0, 1.0 - self.density), (1, self.density))

    def init_vec(self, wbit=None) -> np.ndarray:
        """Distribution over state 1: head survives, a burst of inserted
        zeros may precede the first marked IPD."""
        vec = np.zeros((2, self.D))
        key = int(self.key[0])
        for wv, pw in self._w_weights(1, wbit):
            row = key ^ wv
            for l in range(min(self.params.max_insert_run, self.d_max) + 1):
                c = self.init_coef[l]
                if c <= 0.0:
                    continue
                if self.zrun[0] >= l:
                    vec[row, self.d_max + l] += pw * c
        return vec

    def step(self, prev: np.ndarray, i: int, wbit=None) -> np.ndarray:
        """Advance state i-1 to state i (resolve sent packet i-1)."""
        nxt = np.zeros_like(prev)
        key = int(self.key[i - 1])
        e0, e1 = self.e_match[0][i - 2], self.e_match[1][i - 2]
        avail = self.avail[i - 2]
        merged = prev[0] * e0 + prev[1] * e1
        for wv, pw in self._w_weights(i, wbit):
            if key ^ wv:
                del_src = prev[::-1]
            else:
                del_src = prev
            if self.del_coef > 0.0:
                nxt[:, :-1] += (pw * self.del_coef) * del_src[:, 1:]
            row = key ^ wv
            for l in self.active_l:
                contrib = merged * (avail >= l)
                if l:
                    nxt[row, l:] += (pw * self.coef[l]) * contrib[:-l]
                else:
                    nxt[row] += (pw * self.coef[l]) * contrib
        return nxt

    def step_back(self, nxt: np.ndarray, i: int) -> np.ndarray:
        """Pull the backward vector across the transition into state i."""
        prev = np.zeros_like(nxt)
        key = int(self.key[i - 1])
        e0, e1 = self.e_match[0][i - 2], self.e_match[1][i - 2]
        avail = self.avail[i - 2]
        for wv, pw in self._w_weights(i):
            row = key ^ wv
            if self.del_coef > 0.0:
                src = nxt if (key ^ wv) == 0 else nxt[::-1]
                prev[:, 1:] += (pw * self.del_coef) * src[:, :-1]
            acc = np.zeros(self.D)
            for l in self.active_l:
                if l:
                    acc[:-l] += (self.coef[l] * (avail[:-l] >= l)) * nxt[row, l:]
                else:
                    acc += (self.coef[l] * (avail >= 0)) * nxt[row]
            prev[0] += pw * e0 * acc
            prev[1] += pw * e1 * acc
        return prev

    def terminal_vec(self) -> np.ndarray:
        """Closure of the chain against the observed tail.

        The last sent packet either vanishes (its merged bit is never
        observed), or its accumulated bit arrives followed by inserted
        zeros that must finish the observed sequence exactly.
        """
        p = self.params
        run = p.max_insert_run
        vec = np.zeros((2, self.D))
        for di, d in enumerate(self.drifts):
            tail = self.n_obs - self.n_code + 1 - d
            if tail < 0:
                continue
            if tail == 0:
                vec[:, di] = p.p_delete * (1.0 - p.p_insert)
                continue
            first = self.n_code - 1 + d
            if first < 0 or first >= self.n_obs:
                continue
            if self.zrun[first + 1] < tail - 1:
                continue
            weight = (1.0 - p.p_insert) * (
                (1.0 - p.p_delete) * (p.p_insert ** (tail - 1) if tail - 1 <= run else 0.0)
                + p.p_delete * (p.p_insert ** tail if tail <= run else 0.0)
            )
            if weight <= 0.0:
                continue
            obs = int(self.y[first])
            vec[obs, di] += weight * (1.0 - p.p_sub)
            vec[obs ^ 1, di] += weight * p.p_sub
        return vec

    def _sweep(self, vec, advance, states):
        """Renormalize-and-accumulate over states in sweep order: vec is
        the unnormalized vector of states[0], advance(vec, s) carries it
        to state s.  Returns the normalized vectors of states 1..N and
        their log scales; states past a zero-mass step keep zeros/-inf."""
        vecs = np.zeros((self.n_code, 2, self.D))
        logw = np.full(self.n_code, -math.inf)
        w = 0.0
        for k, s in enumerate(states):
            if k:
                vec = advance(vec, s)
            scale = float(vec.sum())
            if scale <= 0.0:
                break
            vec /= scale
            w += math.log(scale)
            vecs[s - 1] = vec
            logw[s - 1] = w
        return vecs, logw

    def state_log_joint(self, i: int) -> np.ndarray:
        """log F_i + log B_i over states; its logsumexp is log P(y) for
        every i (the forward/backward consistency identity)."""
        (fvecs, flogw), (bvecs, blogw) = self.fw, self.bw
        with np.errstate(divide="ignore"):
            return (np.log(fvecs[i - 1]) + flogw[i - 1]) + (np.log(bvecs[i - 1]) + blogw[i - 1])


def trellis_tables(y, key, params: IdsParams, density: float, d_max: int,
                   wtilde=None) -> Trellis:
    """Forward and backward sweeps over one engine, ready for per-bit
    posteriors; log_evidence is exact via the carried normalizers."""
    t = Trellis(y, key, params, density, d_max, wtilde=wtilde)
    n = t.n_code
    terminal = t.terminal_vec()
    t.fw = t._sweep(t.init_vec(), t.step, range(1, n + 1))
    t.bw = t._sweep(terminal.copy(), lambda vec, s: t.step_back(vec, s + 1),
                    range(n, 0, -1))
    fvecs, flogw = t.fw
    closing = float(np.sum(fvecs[-1] * terminal)) if math.isfinite(flogw[-1]) else 0.0
    t.log_evidence = flogw[-1] + math.log(closing) if closing > 0.0 else -math.inf
    return t


def block_posterior(j: int, trellis: Trellis, w_hypothesis: int, spread: int) -> float:
    """log P(y | watermark bit j = w_hypothesis).

    Chains the forward table at the block start through the block with the
    sparse pattern fixed by the hypothesis, then closes with the backward
    table at the block end.
    """
    n_blocks = trellis.n_code // spread
    if not 1 <= j <= n_blocks:
        raise ValueError(f"block index {j} outside 1..{n_blocks}")

    fvecs, flogw = trellis.fw
    bvecs, blogw = trellis.bw
    start = (j - 1) * spread
    end = j * spread

    if start == 0:
        vec = trellis.init_vec(wbit=int(w_hypothesis))
        lo = 2
        logw = 0.0
    else:
        if not math.isfinite(flogw[start - 1]):
            return -math.inf
        vec = fvecs[start - 1].copy()
        logw = float(flogw[start - 1])
        lo = start + 1
    first_pos = start + 1
    for i in range(lo, end + 1):
        wbit = int(w_hypothesis) if i == first_pos else 0
        vec = trellis.step(vec, i, wbit=wbit)
        scale = float(vec.sum())
        if scale <= 0.0:
            return -math.inf
        vec /= scale
        logw += math.log(scale)
    if not math.isfinite(blogw[end - 1]):
        return -math.inf
    closing = float(np.sum(vec * bvecs[end - 1]))
    if closing <= 0.0:
        return -math.inf
    return logw + math.log(closing) + float(blogw[end - 1])


def binomial_score_threshold(n: int, alpha: float = 0.01) -> float:
    """Exact (1-alpha) quantile of Binomial(n, 1/2)/n.

    Nominal detection threshold when no empirical calibration is at hand:
    an unwatermarked flow agrees with a random reference on about half the
    bits, so the null score is Binomial(n, 1/2)/n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    from fractions import Fraction

    target = (1 - Fraction(alpha)) * 2 ** n
    cum = 0
    for k in range(n + 1):
        cum += math.comb(n, k)
        if cum >= target:
            return k / n
    return 1.0


def calibrate_threshold(control_scores, alpha: float) -> float:
    """Empirical (1-alpha) quantile of control scores.

    Control scores come from unwatermarked flows decoded against the
    reference watermark; at least 1/alpha of them are recommended.
    """
    scores = np.asarray(control_scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("need at least one control score")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    k = math.ceil((1.0 - alpha) * scores.size)
    return float(np.sort(scores)[k - 1])


def decode(y, cfg: WatermarkConfig, params, w_reference,
           threshold: float | None = None, d_max: int | None = None,
           density: float | None = None) -> DetectionReport:
    """Maximum-likelihood per-bit decode plus presence decision.

    params may be ChannelParams (the substitution rate is derived from the
    quantization step and jitter level) or IdsParams directly.  The score
    is the fraction of decoded bits agreeing with the reference watermark;
    without an explicit threshold the exact binomial null quantile at 1%
    is used.
    """
    if isinstance(params, ChannelParams):
        params = IdsParams.from_channel(params, cfg.delta)
    elif not isinstance(params, IdsParams):
        raise TypeError(f"unsupported channel parameter object: {type(params)!r}")
    w_ref = as_bits(w_reference)
    if w_ref.size != cfg.n_bits:
        raise ValueError("reference watermark length does not match config")
    y = as_bits(y)
    n_code = cfg.code_len
    if density is None:
        density = cfg.density
    if d_max is None:
        d_max = max(default_drift_window(n_code, params), abs(y.size - n_code) + 2)
    key = keystream(cfg.key_seed, n_code)

    trellis = trellis_tables(y, key, params, density, d_max)
    n = cfg.n_bits
    llr = np.zeros(n)
    w_hat = np.zeros(n, dtype=np.uint8)
    for j in range(1, n + 1):
        lp1 = block_posterior(j, trellis, 1, cfg.spread)
        lp0 = block_posterior(j, trellis, 0, cfg.spread)
        if math.isfinite(lp1) or math.isfinite(lp0):
            llr[j - 1] = lp1 - lp0 if math.isfinite(lp1) and math.isfinite(lp0) else (
                math.inf if math.isfinite(lp1) else -math.inf
            )
        else:
            llr[j - 1] = 0.0
        w_hat[j - 1] = 1 if llr[j - 1] > 0.0 else 0

    score = float(np.mean(w_hat == w_ref))
    if threshold is None:
        threshold = binomial_score_threshold(n, alpha=0.01)
    return DetectionReport(
        w_hat=w_hat,
        llr=llr,
        score=score,
        threshold=float(threshold),
        detected=bool(score >= threshold),
        log_evidence=trellis.log_evidence,
    )
