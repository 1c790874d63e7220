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
posterior likelihoods for maximum-likelihood decoding.  Received
sequences decoded under one key and one channel law sweep together, on a
leading flow axis of every state array.

Everything is kept in log domain via per-step renormalization; code
lengths in the hundreds underflow otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from flowmark.channel import substitution_prob
from flowmark.idscode import WatermarkConfig, as_bits, keystream


class DecodeInfeasibleError(RuntimeError):
    """The observed length cannot be reached inside the drift cap."""

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
    def from_channel(cls, delta: float, sigma: float, p_delete: float,
                     p_insert: float, max_insert_run: int = 8) -> "IdsParams":
        """The bit law of a packet channel, times in seconds; a certain
        drop is clamped below 1, where the law is defined."""
        return cls(
            p_sub=substitution_prob(delta, sigma),
            p_delete=min(float(p_delete), 1.0 - 1e-12),
            p_insert=float(p_insert),
            max_insert_run=max_insert_run,
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
    # "zero-evidence": y is impossible under the assumed channel and the
    # decode carries no information (all LLRs 0)
    status: str

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
            "status": self.status,
        }


def default_drift_window(n_code: int, params: IdsParams) -> int:
    """Default cap on the drift's magnitude: three standard deviations of
    the net drift plus one full insertion burst."""
    spread = 3.0 * math.sqrt(n_code * max(params.p_delete, params.p_insert))
    return max(1, int(math.ceil(spread + params.max_insert_run)))


class Trellis:
    """Vectorized trellis sweeps for B received sequences that share one
    key and one channel law, swept in lockstep.

    State arrays have shape (..., B, 2, D): the flow axis, rows for the
    accumulated bit, and columns for the drifts lo .. hi, the union of the
    flows' bands; further leading axes are a batch of independent chains.
    A flow's band is the part of its cap [-d_max, d_max] that its chain
    can both reach and close from.  A flow keeps zeros outside its band,
    since every step zeroes those columns, so each flow's evidence and
    posteriors are those of a trellis over its own cap, up to rounding.
    Linear-domain vectors are renormalized each step and the log scale is
    carried separately.  trellis_tables() fills fw and bw, the (vectors,
    log scales) of the block-boundary states spread, 2·spread, ... from
    each sweep, and log_evidence, log P(y) per flow.

    The sparse bit enters a step only through one pair of weights per
    chain, the weights of code bit 0 and 1 (see code_weights), so both of
    its values share one pass over the insertion lengths.
    """

    def __init__(self, ys, key, params: IdsParams, density: float, d_max,
                 wtilde=None):
        self.ys = [as_bits(y) for y in ys]
        n_flows = len(self.ys)
        if n_flows < 1:
            raise ValueError("need at least one received sequence")
        self.key = as_bits(key)
        self.n_code = int(self.key.size)
        if self.n_code < 1:
            raise ValueError("key must contain at least one bit")
        if wtilde is not None:
            wtilde = as_bits(wtilde)
            if wtilde.size != self.n_code:
                raise ValueError("conditioning pattern must match the code length")
        if not 0.0 < density < 1.0:
            raise ValueError("density must lie in (0, 1)")
        if wtilde is None:
            same_flip = np.array([1.0 - density, density])
        else:
            same_flip = np.stack([1 - wtilde, wtilde], axis=1).astype(np.float64)
        self.params = params
        self.density = density
        # flow_d_max: each flow's cap on the drift's magnitude
        self.flow_d_max = np.broadcast_to(np.asarray(d_max, dtype=np.int64), (n_flows,))
        if self.flow_d_max.min() < 1:
            raise ValueError("d_max must be at least 1")
        self.n_obs = np.array([y.size for y in self.ys])
        self._check_feasible()
        # prior[i-1]: code-bit weights at position i under the sparse-bit prior
        self.prior = self.code_weights(np.arange(1, self.n_code + 1), same_flip)

        p = params
        self.del_coef = p.p_delete * (1.0 - p.p_insert)
        run = p.max_insert_run
        # coef[l]: probability weight of a +l drift step, split over the
        # two ways it can happen (drop with l+1 insertions, delivery with
        # l insertions), each gated by the insertion-run cap.  It is
        # positive for l = 0 and, when p_insert > 0, for every l <= run.
        ls = np.arange(0, run + 1)
        drop_part = p.p_delete * p.p_insert ** (ls + 1) * (ls + 1 <= run)
        keep_part = (1.0 - p.p_delete) * p.p_insert ** ls
        self.coef = (1.0 - p.p_insert) * (drop_part + keep_part)
        self.n_ins = run + 1 if p.p_insert > 0.0 else 1
        # head insertions before the first marked IPD completes
        self.init_coef = p.p_insert ** ls * (1.0 - p.p_insert)

        # band[b] = (lo, hi): the drifts in flow b's cap that some state i
        # can both reach from state 1, a step moving the drift by -down ..
        # +up, and still close from, at a final drift in [shift - up,
        # shift + 1]; lo > hi when no state can.  Every other column holds
        # zero forward or zero backward mass, so dropping it is exact.
        # The columns span the bands' union and drift 0.
        up, down, n = self.n_ins - 1, int(self.del_coef > 0.0), self.n_code
        i, shift = np.arange(1, n + 1), (self.n_obs - n)[:, None]
        cap = self.flow_d_max[:, None]
        lo = np.maximum(np.maximum(-(i - 1) * down, shift - up * (n - i + 1)), -cap)
        hi = np.minimum(np.minimum(up * i, shift + 1 + (n - i) * down), cap)
        beyond = int(cap.max()) + 1
        self.band = np.stack([lo.min(axis=1, where=lo <= hi, initial=beyond),
                              hi.max(axis=1, where=lo <= hi, initial=-beyond)], axis=1)
        self.lo = min(int(self.band[:, 0].min()), 0)
        self.hi = max(int(self.band[:, 1].max()), 0)
        self.D = self.hi - self.lo + 1
        self.drifts = np.arange(self.lo, self.hi + 1)
        # window: 1 on each flow's own band, None when all flows span the
        # whole width
        inside = (self.drifts >= self.band[:, :1]) & (self.drifts <= self.band[:, 1:])
        self.window = None if inside.all() else inside[:, None, :].astype(np.float64)

        # bits: the received sequences padded with ones, so that zrun
        # reads 0 from each flow's end on; zrun[b, j]: observed zeros
        # starting at position j of flow b
        width = int(self.n_obs.max()) + 1
        self.bits = np.ones((n_flows, width), dtype=np.uint8)
        for b, y in enumerate(self.ys):
            self.bits[b, : y.size] = y
        at = np.arange(width)
        next_one = np.minimum.accumulate(
            np.where(self.bits == 1, at, width)[:, ::-1], axis=1)[:, ::-1]
        self.zrun = next_one - at

        # Per-step emission context: step i (into state i) reads its first
        # observed bit at position i - 2 + drift of the source state, so the
        # tables of step i are the length-D windows at i - 2 of rows over
        # positions lo .. n_code - 1 + hi.  The rows hold n_code
        # windows, one more than there are steps, so that they are never
        # shorter than a window (n_code = 1 has no steps).
        ps = p.p_sub
        pos = np.arange(self.lo, self.n_code + self.hi)
        valid = (pos >= 0) & (pos < self.n_obs[:, None])
        obs = self.bits[:, np.clip(pos, 0, width - 1)]
        # e_match[i-2, b, a]: weight of the first observed bit of flow b
        # given accumulated bit a
        match = np.stack([np.where(valid, np.where(obs == a, 1.0 - ps, ps), 0.0)
                          for a in (0, 1)], axis=1)
        self.e_match = sliding_window_view(match, self.D, axis=2).transpose(2, 0, 1, 3)
        # ins_weight[i-2, b, l]: coef[l], zero where fewer than l observed
        # zeros follow the first observed bit
        avail = self.zrun[:, np.clip(pos + 1, 0, width - 1)]
        lens = np.arange(self.n_ins)[:, None]
        ins = self.coef[lens] * (avail[:, None, :] >= lens)
        self.ins_weight = sliding_window_view(ins, self.D, axis=2).transpose(2, 0, 1, 3)
        self._run_rows = {}

    def _check_feasible(self):
        # the last state's drift must fall in [shift - run, shift + 1] for
        # the observed tail to close; each flow's cap has to reach that range
        shift = self.n_obs - self.n_code
        run = self.params.max_insert_run
        lo, hi, d = shift - run, shift + 1, self.flow_d_max
        bad = (hi < -d) | (lo > d)
        if bad.any():
            b = int(np.argmax(bad))
            need = int(lo[b] if lo[b] > d[b] else -hi[b])
            raise DecodeInfeasibleError(
                f"observed length {self.n_obs[b]} vs code length {self.n_code} "
                f"needs a drift window of at least {need} (d_max={d[b]})",
                required_d_max=need,
            )

    def code_weights(self, i, same_flip) -> np.ndarray:
        """Weights of code bit 0 and 1 at position i, shape (..., 2), from
        the sparse bit's prior weights (same, flip): the weight of a code
        bit equal to the key bit (sparse bit 0) and differing from it."""
        same_flip = np.asarray(same_flip, dtype=np.float64)
        key = self.key[np.asarray(i) - 1]
        return np.where(key[..., None] == 1, same_flip[..., ::-1], same_flip)

    def init_vec(self, wx) -> np.ndarray:
        """Distribution over state 1 given code-bit weights wx (..., 2):
        head survives, a burst of inserted zeros may precede the first
        marked IPD.  Shape (..., B, 2, D)."""
        ls = np.arange(min(self.params.max_insert_run, self.hi) + 1)
        head = np.zeros((len(self.ys), 1, self.D))
        head[:, 0, ls - self.lo] = np.where(self.zrun[:, :1] >= ls, self.init_coef[ls], 0.0)
        if self.window is not None:
            head *= self.window
        return np.asarray(wx)[..., None, :, None] * head

    def step(self, prev: np.ndarray, i, wx) -> np.ndarray:
        """Advance state i-1 to state i (resolve sent packet i-1).

        prev is (..., B, 2, D); the step index i, of shape (...), and the
        code-bit weights wx, of shape (..., 2), broadcast over the leading
        axes and are shared by the flows.
        """
        k = np.asarray(i) - 2
        wx = np.asarray(wx)[..., None, :, None]
        merged = (prev * self.e_match[k]).sum(axis=-2)
        if self.n_ins == 1:
            ins = merged * self.ins_weight[k][..., 0, :]
        else:
            # a run of l inserted zeros moves the drift up by l: row l of
            # the shifted view is row l of contrib, l columns to the right
            contrib, shifted = self._runs(merged.shape[:-1], backward=False)
            np.multiply(merged[..., None, :], self.ins_weight[k], out=contrib)
            ins = shifted.sum(axis=-2)
        nxt = wx * ins[..., None, :]
        if self.del_coef > 0.0:
            nxt[..., :-1] += self.del_coef * (
                wx[..., :1, :] * prev[..., 1:] + wx[..., 1:, :] * prev[..., ::-1, 1:])
        if self.window is not None:
            nxt *= self.window
        return nxt

    def step_back(self, nxt: np.ndarray, i, wx) -> np.ndarray:
        """Pull the backward vector across the transition into state i;
        shapes as in step()."""
        k = np.asarray(i) - 2
        wx = np.asarray(wx)[..., None, :, None]
        landed = (wx * nxt).sum(axis=-2)
        if self.n_ins == 1:
            acc = self.ins_weight[k][..., 0, :] * landed
        else:
            # row l of the shifted view is landed, l columns to the left
            buf, shifted = self._runs(landed.shape[:-1], backward=True)
            buf[...] = landed
            acc = (self.ins_weight[k] * shifted).sum(axis=-2)
        prev = self.e_match[k] * acc[..., None, :]
        if self.del_coef > 0.0:
            prev[..., 1:] += self.del_coef * (
                wx[..., :1, :] * nxt[..., :-1] + wx[..., 1:, :] * nxt[..., ::-1, :-1])
        if self.window is not None:
            prev *= self.window
        return prev

    def _runs(self, lead: tuple, backward: bool):
        """Reusable rows for the insertion-run sums of states with leading
        shape lead, and a view of them with one row per run length l
        shifted by l columns.  The rows carry n_ins - 1 zero columns past
        the window, which the shifted view reads beyond its edge.
        Forward: (n_ins, D) rows to fill and the view shifted right;
        backward: one (D,) row to fill and the view shifted left."""
        if (lead, backward) not in self._run_rows:
            n, D = self.n_ins, self.D
            if backward:
                buf = np.zeros((*lead, D + n - 1))
                strides = (*buf.strides[:-1], buf.itemsize, buf.itemsize)
            else:
                buf = np.zeros((*lead, n, D + n - 1))
                strides = (*buf.strides[:-2], buf.strides[-2] - buf.itemsize, buf.itemsize)
            shifted = as_strided(buf, (*lead, n, D), strides, writeable=False)
            self._run_rows[lead, backward] = (buf[..., :D], shifted)
        return self._run_rows[lead, backward]

    def terminal_vec(self) -> np.ndarray:
        """Closure of the chain against the observed tail, shape (B, 2, D).

        The last sent packet either vanishes (its merged bit is never
        observed), or its accumulated bit arrives followed by inserted
        zeros that must finish the observed sequence exactly.
        """
        p = self.params
        run = p.max_insert_run
        width = self.bits.shape[1]
        # tail: observed bits left for the last packet at each drift
        tail = (self.n_obs[:, None] - self.n_code + 1) - self.drifts
        first = self.n_code - 1 + self.drifts
        closes = ((tail > 0) & (first >= 0) & (first < self.n_obs[:, None])
                  & (self.zrun[:, np.clip(first + 1, 0, width - 1)] >= tail - 1))
        # p_insert ** m for m <= run, and 0 for longer runs
        powers = np.array([p.p_insert ** m for m in range(run + 1)] + [0.0])
        keep = powers[np.clip(tail - 1, 0, run + 1)]
        drop = powers[np.clip(tail, 0, run + 1)]
        weight = np.where(closes, (1.0 - p.p_insert) * (
            (1.0 - p.p_delete) * keep + p.p_delete * drop), 0.0)
        obs = self.bits[:, np.clip(first, 0, width - 1)]
        vec = np.stack([np.where(obs == a, weight * (1.0 - p.p_sub), weight * p.p_sub)
                        for a in (0, 1)], axis=1)
        vec = np.where((tail == 0)[:, None, :], p.p_delete * (1.0 - p.p_insert), vec)
        if self.window is not None:
            vec *= self.window
        return vec

    def _sweep(self, vec, advance, states, spread):
        """Renormalize-and-accumulate over states in sweep order: vec is
        the unnormalized vector of states[0], advance(vec, s) carries it
        to state s.  Returns the normalized vectors and log scales of the
        states that are multiples of spread, in state order, and those of
        the last state swept.  Flows past a zero-mass step keep zeros and
        -inf."""
        states = np.asarray(states)
        kept = np.zeros((self.n_code // spread, *vec.shape))
        scales = []
        # a flow whose mass hits zero divides 0 by 0 from there on; its
        # NaNs stay in its own row and are cleared after the loop
        with np.errstate(divide="ignore", invalid="ignore"):
            for k, s in enumerate(states.tolist()):
                if k:
                    vec = advance(vec, s)
                scale = np.add.reduce(vec, axis=(1, 2), keepdims=True)
                scales.append(scale)
                vec /= scale
                if s % spread == 0:
                    kept[s // spread - 1] = vec
            logw = np.cumsum(np.log(np.stack(scales)[:, :, 0, 0]), axis=0)
        logw[np.isnan(logw)] = -math.inf
        kept[np.isnan(kept)] = 0.0
        vec[np.isnan(vec)] = 0.0
        at = np.flatnonzero(states % spread == 0)
        kept_logw = np.empty((kept.shape[0], vec.shape[0]))
        kept_logw[states[at] // spread - 1] = logw[at]
        return (kept, kept_logw), (vec, logw[-1])


# state entries per block-chain array in block_posterior (128 KiB): larger
# arrays spill out of the core's cache and step several times slower, and
# their temporaries raise peak memory
_GROUP_STATES = 1 << 14


def trellis_tables(ys, key, params: IdsParams, density: float, d_max, spread: int = 1,
                   wtilde=None) -> Trellis:
    """Forward and backward sweeps over one engine for the received
    sequences ys, ready for per-block posteriors: the sweeps keep the
    vectors at every spread-th state, the block boundaries
    block_posterior reads.  d_max is the drift cap, one for all flows or
    one per flow.  log_evidence is exact via the carried normalizers."""
    t = Trellis(ys, key, params, density, d_max, wtilde=wtilde)
    n = t.n_code
    if not 1 <= spread <= n:
        raise ValueError(f"spread {spread} outside 1..{n}")
    t.spread = spread
    terminal = t.terminal_vec()
    t.fw, (last, last_logw) = t._sweep(
        t.init_vec(t.prior[0]), lambda vec, s: t.step(vec, s, t.prior[s - 1]),
        range(1, n + 1), spread)
    t.bw, _ = t._sweep(terminal.copy(), lambda vec, s: t.step_back(vec, s + 1, t.prior[s]),
                       range(n, 0, -1), spread)
    closing = (last * terminal).sum(axis=(-2, -1))
    with np.errstate(divide="ignore"):
        t.log_evidence = np.where(closing > 0.0, last_logw + np.log(closing), -math.inf)
    return t


def block_posterior(trellis: Trellis) -> np.ndarray:
    """log P(y | watermark bit j = h) for every flow, block j and
    hypothesis h, as a (B, n_blocks, 2) array, n_blocks = n_code // spread.

    The hypothesis fixes the block's sparse bits: the leading one to h,
    the others to 0.  Only the block's first step depends on h, so one
    backward chain per block, from the backward vector at the block end
    through the block's other steps, closes against the first step of
    each hypothesis from the forward vector before the block.  The
    chains of a group of blocks advance in lockstep over all flows,
    spread - 1 vectorized steps per group; groups are sized to keep the
    chain arrays cache-resident.
    """
    t = trellis
    spread = t.spread
    n_blocks = t.n_code // spread
    n_flows = len(t.ys)
    (fvecs, flogw), (bvecs, blogw) = t.fw, t.bw
    # hyp[h] = (same, flip) of the block-leading sparse bit under h
    hyp = np.eye(2)
    group = max(1, _GROUP_STATES // (n_flows * 2 * t.D))
    out = np.empty((n_blocks, 2, n_flows))
    for lo in range(0, n_blocks, group):
        j = np.arange(lo, min(lo + group, n_blocks))
        starts = j * spread
        vec = bvecs[j]
        logw = blogw[j]
        for k in range(spread - 1, 0, -1):
            i = starts + 1 + k
            vec = t.step_back(vec, i, t.code_weights(i, hyp[0]))
            scale = vec.sum(axis=(-2, -1))
            with np.errstate(divide="ignore"):
                logw += np.log(scale)
            vec /= np.where(scale > 0.0, scale, 1.0)[..., None, None]
        # the first step under each hypothesis: block 0 starts from the
        # head, the others from the forward vector at the previous
        # block's end; axes (block, hypothesis, flow, ...)
        head = 1 if lo == 0 else 0
        first = np.empty((j.size, 2, n_flows, 2, t.D))
        if head:
            first[0] = t.init_vec(t.code_weights(1, hyp))
        i = starts[head:, None] + 1
        first[head:] = t.step(fvecs[j[head:] - 1, None], i, t.code_weights(i, hyp))
        flog = np.zeros((j.size, 1, n_flows))
        flog[head:] = flogw[j[head:] - 1, None]
        closing = (first * vec[:, None]).sum(axis=(-2, -1))
        with np.errstate(divide="ignore"):
            out[j] = flog + np.log(closing) + logw[:, None]
    return out.transpose(2, 0, 1)


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


def decode_batch(ys, cfg: WatermarkConfig, params: IdsParams, w_reference,
                 threshold: float | None = None, d_max=None) -> list[DetectionReport]:
    """decode() for several received sequences of one watermark config,
    swept together in one trellis; one report per sequence, each equal to
    its own decode() up to rounding.  d_max is the drift cap, one for all
    sequences or one per sequence."""
    w_ref = as_bits(w_reference)
    if w_ref.size != cfg.n_bits:
        raise ValueError("reference watermark length does not match config")
    ys = [as_bits(y) for y in ys]
    n_code = cfg.code_len
    if d_max is None:
        d_max = [max(default_drift_window(n_code, params), abs(y.size - n_code) + 2)
                 for y in ys]
    key = keystream(cfg.key_seed, n_code)

    trellis = trellis_tables(ys, key, params, cfg.density, d_max, spread=cfg.spread)
    lp = block_posterior(trellis)
    # a block that neither hypothesis can explain carries no evidence
    with np.errstate(invalid="ignore"):
        llr = np.where(np.isfinite(lp).any(axis=-1), lp[..., 1] - lp[..., 0], 0.0)
    w_hat = (llr > 0.0).astype(np.uint8)
    scores = (w_hat == w_ref).mean(axis=-1)
    if threshold is None:
        threshold = binomial_score_threshold(cfg.n_bits, alpha=0.01)
    return [
        DetectionReport(
            w_hat=w_hat[b],
            llr=llr[b],
            score=float(scores[b]),
            threshold=float(threshold),
            detected=bool(scores[b] >= threshold),
            log_evidence=float(evidence),
            status="ok" if math.isfinite(evidence) else "zero-evidence",
        )
        for b, evidence in enumerate(trellis.log_evidence)
    ]


def decode(y, cfg: WatermarkConfig, params: IdsParams, w_reference,
           threshold: float | None = None, d_max: int | None = None) -> DetectionReport:
    """Maximum-likelihood per-bit decode plus presence decision.

    params is the assumed bit law, from IdsParams.from_channel for a
    packet channel.  The score is the fraction of decoded bits agreeing
    with the reference watermark; without an explicit threshold the exact
    binomial null quantile at 1% is used.  This is decode_batch() on a
    batch of one.
    """
    return decode_batch([y], cfg, params, w_reference, threshold=threshold,
                        d_max=d_max)[0]
