"""Watermark recovery over the insertion/deletion/substitution bit channel.

The received bit sequence is modeled by a hidden Markov chain whose state
after each sent position is (accumulated bit, drift): the accumulated bit
is the xor of all code bits whose IPDs have merged into one received IPD
through packet drops, and the drift is the offset of the sent position
inside the received sequence caused by net insertions minus deletions.

One trellis step resolves the fate of the previous sent packet under the
law channel.transmit samples, the insertion/deletion channel of Davey &
MacKay's watermark codes (IEEE Trans. IT 47(2), 2001): dropped (the
accumulated bit carries), or delivered (the accumulated bit is observed,
then a burst of inserted zeros; every observed bit may be substituted).
Forward and backward sweeps over this chain, under the code's own law for
the sparse bits, give the evidence and, joined across one watermark
block's first step with its bit fixed to a hypothesis, the exact per-bit
likelihoods for maximum-likelihood decoding.  Received sequences decoded
under one key and one channel law sweep together, on a leading flow axis
of every state array.

The forward and backward vectors hold linear probabilities with their log
scales carried separately; code lengths in the hundreds underflow
otherwise.  A sweep renormalizes only the states it keeps, every spread-th,
and at least every R states, where R is the most steps that even the
rarest path can take from one renormalization before its mass could fall
below 1e-290 of what it held there (Trellis.renorm_every).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from flowmark.channel import ChannelParams, substitution_prob
from flowmark.idscode import WatermarkConfig, as_bits, keystream


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
        for name in ("p_sub", "p_insert"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if not 0.0 <= self.p_delete <= 1.0:
            raise ValueError("p_delete must lie in [0, 1]")
        if self.max_insert_run < 1:
            raise ValueError("max_insert_run must be at least 1")

    @classmethod
    def from_channel(cls, chan: ChannelParams) -> "IdsParams":
        """The bit law of a packet channel: its drops and insertion bursts,
        and its jitter read as substitutions at its quantization step."""
        if chan.delta is None:
            raise ValueError("the bit law needs the channel's delta")
        return cls(
            p_sub=substitution_prob(chan.delta, chan.sigma),
            p_delete=float(chan.p_delete),
            p_insert=float(chan.p_insert),
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
    can both reach and close from.  The sweeps zero each flow's columns
    outside its band at every state, so each flow's evidence and
    posteriors are those of a trellis over its own cap, up to rounding.
    Linear-domain vectors are renormalized at the states the sweeps keep
    and at least every renorm_every states, and the log scale is carried
    separately.  trellis_tables() fills fw and bw, the (vectors, log
    scales) of the states that end and start a block of spread code bits,
    and log_evidence, log P(y) per flow.

    The law enters through three factors, each stated once.  p_delete
    sits in the two drop columns of a step's (2, 3) weight matrix q (see
    code_weights), beside the delivery column's weights of code bit 0
    and 1, so both values of the sparse bit share one pass over the
    insertion lengths and one matmul.  The delivery weight 1 - p_delete
    sits in emission, with the weight of the first observed bit.  The
    insertion law init_coef sits in the run table, with the weights of
    the inserted zeros; the head, the step kernels and terminal_vec read
    it, the forward step by the column a run lands on (ins_landing), the
    backward step by the column it leaves (ins_weight).  Every step
    reads emission, then, with insertion runs (n_ins > 1), the run
    table.  A sweep's step kernels write through operand buffers made on
    its first step (see _operands) and it alternates two state arrays,
    so it makes no new array per state; numpy's ufunc loops still take
    transient buffers, 5-12 KiB per step for four flows at the main
    operating point and 0.1-0.2 MiB for 32 flows at p_insert 0.2
    (tracemalloc, numpy 2.4).
    """

    def __init__(self, ys, key, params: IdsParams, d_max: int | None = None,
                 spread: int = 1, wtilde=None):
        self.ys = [as_bits(y) for y in ys]
        n_flows = len(self.ys)
        if n_flows < 1:
            raise ValueError("need at least one received sequence")
        self.key = as_bits(key)
        self.n_code = int(self.key.size)
        if self.n_code < 1:
            raise ValueError("key must contain at least one bit")
        if spread < 1 or self.n_code % spread:
            raise ValueError(f"spread {spread} does not divide the code length {self.n_code}")
        self.spread = spread
        # flip[i-1]: the probability that sparse bit i is 1; under the
        # code's own law a block's first bit is its watermark bit, uniform,
        # and the others are 0
        if wtilde is None:
            flip = np.where(np.arange(self.n_code) % spread == 0, 0.5, 0.0)
        else:
            flip = as_bits(wtilde).astype(np.float64)
            if flip.size != self.n_code:
                raise ValueError("conditioning pattern must match the code length")
        self.params = params
        self.n_obs = np.array([y.size for y in self.ys])
        # flow_d_max: each flow's cap on the drift's magnitude, never below
        # its length mismatch plus 2, so any stream that some cap can
        # close, its own cap closes too
        if d_max is None:
            d_max = default_drift_window(self.n_code, params)
        if d_max < 1:
            raise ValueError("d_max must be at least 1")
        self.flow_d_max = np.maximum(int(d_max), np.abs(self.n_obs - self.n_code) + 2)

        # transmit's law: a sent packet is dropped with p_delete; a delivered
        # one, and the head, is followed by l inserted zeros, P(l) =
        # p_insert**l * (1 - p_insert) below the run cap, which takes the tail
        p, run = params, params.max_insert_run
        ls = np.arange(0, run + 1)
        self.init_coef = np.where(ls < run, p.p_insert ** ls * (1.0 - p.p_insert),
                                  p.p_insert ** run)
        self.del_coef = p.p_delete
        self.n_ins = run + 1 if p.p_insert > 0.0 else 1
        # renorm_every, R: one step scales a path's mass by at least w_min,
        # half (a block's first sparse bit weighs 1/2) the least nonzero of
        # p_delete and a delivery with l inserted zeros, (1 - p_delete) *
        # init_coef[l], times l + 1 observed bits read at the rarer of p_sub
        # and 1 - p_sub; the head and the closing step are one such factor
        # too.  So R states after a renormalization every live path keeps
        # at least 1e-290 of its mass there, far above float64's 2.2e-308.
        rare = min(p.p_sub, 1.0 - p.p_sub) or 1.0
        deliver = (1.0 - p.p_delete) * self.init_coef
        live = np.flatnonzero(deliver)
        log_w = np.log(deliver[live]) + (live + 1) * math.log(rare)
        if p.p_delete > 0.0:
            log_w = np.append(log_w, math.log(p.p_delete))
        log_w_min = math.log(0.5) + float(log_w.min())
        self.renorm_every = max(1, math.floor(math.log(1e-290) / log_w_min))
        # prior[i-1]: the step weight matrix at position i, which reads
        # del_coef
        self.prior = self.code_weights(np.arange(1, self.n_code + 1),
                                       np.stack([1.0 - flip, flip], axis=1))

        # band[b] = (lo, hi): the drifts in flow b's cap that some state i
        # can both reach from state 1, a step moving the drift by -down ..
        # +up, and still close from, at a final drift in [shift - up,
        # shift + down]; lo > hi when no state can.  Every other column holds
        # zero forward or zero backward mass, so dropping it is exact.
        # The columns span the bands' union and drift 0.
        up, down, n = self.n_ins - 1, int(self.del_coef > 0.0), self.n_code
        i, shift = np.arange(1, n + 1), (self.n_obs - n)[:, None]
        lo = np.maximum(-(i - 1) * down, shift - up * (n - i + 1))
        hi = np.minimum(up * i, shift + down * (n - i + 1))
        # a flow that no cap can close keeps an empty band and zero evidence
        cap = self.flow_d_max[:, None]
        lo, hi = np.maximum(lo, -cap), np.minimum(hi, cap)
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

        # Per-step emission context: step i (into state i) reads its first
        # observed bit at position i - 2 + drift of the source state and its
        # l inserted zeros at the positions after it, so the tables of step i
        # are the length-D windows at i - 2 of rows over positions lo ..
        # n_code - 1 + hi; the last window, k = n_code - 1, is the closing
        # step of terminal_vec.  match[b, a, j]: weight of flow b's bit at
        # position lo - 1 + j given sent bit a, 0 off the stream; the rows
        # reach n_ins - 1 positions past the last window, for its zeros.
        ps, n_pos = p.p_sub, self.n_code + self.D - 1
        pos = np.arange(self.lo - 1, self.n_code + self.hi + self.n_ins - 1)
        valid = (pos >= 0) & (pos < self.n_obs[:, None])
        obs = np.zeros(valid.shape, dtype=np.uint8)
        for b, y in enumerate(self.ys):
            obs[b, valid[b]] = y[pos[valid[b]]]
        match = np.stack([np.where(valid, np.where(obs == a, 1.0 - ps, ps), 0.0)
                          for a in (0, 1)], axis=1)
        # runs[b, l, j]: init_coef[l] times the weight of l inserted zeros
        # after position lo - 1 + j; the head, both step kernels and
        # terminal_vec read the insertion law only here
        runs = np.ones((n_flows, self.n_ins, n_pos + 1))
        for l in range(1, self.n_ins):
            runs[:, l] = runs[:, l - 1] * match[:, 0, l : l + n_pos + 1]
        runs *= self.init_coef[: self.n_ins, None]

        def windows(rows):
            return sliding_window_view(rows, self.D, axis=2).transpose(2, 0, 1, 3)

        # emission[i-2, b, a]: the weight of a delivery, 1 - p_delete, times
        # that of flow b's first observed bit given accumulated bit a;
        # ins_weight[i-2, b, l]: the runs after that bit
        self.emission = windows(match[:, :, 1 : n_pos + 1] * (1.0 - p.p_delete))
        self.ins_weight = windows(runs[:, :, 1:])
        # ins_landing[i-2, b, l, d] = ins_weight[i-2, b, l, d - l] for
        # d >= l: the weight of a run of l inserted zeros that lands the
        # drift at column d (n_ins > 1 only); row l of the runs, shifted l
        # positions on
        self.ins_landing = None
        if self.n_ins > 1:
            landing = np.zeros((n_flows, self.n_ins, n_pos + self.n_ins - 1))
            for l in range(self.n_ins):
                landing[:, l, l : l + n_pos] = runs[:, l, 1:]
            self.ins_landing = windows(landing)
        # head: the head packet, then l inserted zeros at positions 0 .. l - 1
        ls = np.arange(min(self.n_ins - 1, self.hi) + 1)
        self.head = np.zeros((n_flows, 1, self.D))
        self.head[:, 0, ls - self.lo] = runs[:, ls, -self.lo]
        self._buffers = {}

    def code_weights(self, i, same_flip) -> np.ndarray:
        """The step weight matrix q at position i, shape (..., 2, 3), from
        the sparse bit's prior weights (same, flip): the weight of a code
        bit equal to the key bit (sparse bit 0) and differing from it,
        which give wx[c], the weight of code bit c.  Row a' is the new
        accumulated bit.  Column 0 delivers the previous packet: code bit
        a' starts the new accumulated bit, q[..., a', 0] = wx[a'].
        Columns 1 + a drop it: accumulated bit a takes in the code bit and
        becomes a', q[..., a', 1 + a] = p_delete * wx[a xor a']."""
        same_flip = np.asarray(same_flip, dtype=np.float64)
        key = self.key[np.asarray(i) - 1]
        wx = np.where(key[..., None] == 1, same_flip[..., ::-1], same_flip)
        drop = self.del_coef * np.stack([wx, wx[..., ::-1]], axis=-2)
        return np.concatenate([wx[..., None], drop], axis=-1)

    def init_vec(self, q) -> np.ndarray:
        """Distribution over state 1 given the weight matrix q (..., 2, 3):
        head survives, a burst of inserted zeros may precede the first
        marked IPD.  Shape (..., B, 2, D)."""
        return q[..., None, :, :1] * self.head

    def step(self, prev: np.ndarray, i, q, out=None) -> np.ndarray:
        """Advance state i-1 to state i (resolve sent packet i-1).

        prev is (..., B, 2, D); the step index i, of shape (...), and the
        weight matrix q, of shape (..., 2, 3), broadcast over the leading
        axes of prev and are shared by the flows.  The delivered mass,
        summed over insertion runs, and the previous state one drift up,
        for a drop, stack into z (..., B, 3, D), and the step is q @ z,
        written to out when given (not prev itself), else to a new array.
        """
        k = i - 2
        prod, rows, z, delivered, dropped, shifted, runs = self._operands(
            prev.shape[:-2], backward=False)
        np.multiply(prev, self.emission[k], out=prod)
        np.add(*rows, out=delivered)
        if self.n_ins > 1:
            # a run of l inserted zeros moves the drift up by l: row l of
            # the shifted view is delivered, l columns to the right; once
            # read into runs, delivered takes their weighted sum
            np.multiply(shifted, self.ins_landing[k], out=runs)
            np.add.reduce(runs, axis=-2, keepdims=True, out=delivered)
        np.copyto(dropped, prev[..., 1:])
        return np.matmul(q[..., None, :, :], z, out=out)

    def step_back(self, nxt: np.ndarray, i, q, out=None) -> np.ndarray:
        """Pull the backward vector across the transition into state i;
        shapes and out as in step().  The transpose of step: r = q^T @
        nxt, whose row 0 is the delivered mass and rows 1 + a the
        dropped."""
        k = i - 2
        r, landed, dropped, shifted, runs = self._operands(nxt.shape[:-2], backward=True)
        np.matmul(q[..., None, :, :].swapaxes(-1, -2), nxt, out=r)
        if self.n_ins > 1:
            # row l of the shifted view is landed, l columns to the left;
            # once read into runs, landed's row takes their weighted sum
            np.multiply(self.ins_weight[k], shifted, out=runs)
            np.add.reduce(runs, axis=-2, keepdims=True, out=landed)
        prev = np.multiply(self.emission[k], landed, out=out)
        tail = prev[..., 1:]
        np.add(tail, dropped, out=tail)
        return prev

    def _operands(self, lead: tuple, backward: bool) -> tuple:
        """The step kernels' operands for states of leading shape lead.
        Those of the sweeps' shape, (B,), are made on a sweep's first step
        and reused by every later one, so a sweep step allocates no
        operand; any other shape's, such as a block_posterior slice's step,
        serve that step alone.  Every buffer is overwritten before it is
        read, except its zero columns.

        Both directions share (mix, row, dropped, shifted, runs): mix
        (*lead, 3, D) is the matmul's operand z (forward) or its result r
        = q^T @ nxt (backward), row its row 0, the delivered or landed
        mass, and dropped its rows 1-2 left of the last column, which in
        z stays 0, since no state lies above drift hi.  mix is a view of a
        zero buffer that runs n_ins - 1 columns further, before it
        (forward) or after it (backward), and shifted is that buffer's
        read-only sliding window over row, with row l shifted l columns to
        the right (forward) or left (backward), reading those zeros past
        its edge; runs (*lead, n_ins, D; None at n_ins == 1) holds shifted
        times the run table, the insertion law, which the runs' pass sums
        over l into row.  Forward operands lead with prod (*lead, 2, D),
        prev times the emission table, the delivery weight, and its two
        accumulated-bit rows, as (*lead, 1, D) views; p_delete enters
        through q alone."""
        if (lead, backward) in self._buffers:
            return self._buffers[lead, backward]
        n, D = self.n_ins, self.D
        padded = np.zeros((*lead, 3, D + n - 1))
        mix = padded[..., :D] if backward else padded[..., n - 1 :]
        shifted = sliding_window_view(padded[..., 0, :], D, axis=-1)
        runs = np.empty((*lead, n, D)) if n > 1 else None
        ops = (mix, mix[..., :1, :], mix[..., 1:, :-1],
               shifted if backward else shifted[..., ::-1, :], runs)
        if not backward:
            prod = np.empty((*lead, 2, D))
            ops = (prod, (prod[..., :1, :], prod[..., 1:, :]), *ops)
        if lead == self.n_obs.shape:
            self._buffers[lead, backward] = ops
        return ops

    def terminal_vec(self) -> np.ndarray:
        """Closure of the chain against the observed tail, shape (B, 2, D).

        The closing step resolves the last sent packet like any other
        step, read from the step tables' last window: from drift d it
        must finish the observed sequence exactly, so it delivers its
        accumulated bit followed by l = n_obs - n_code - d inserted
        zeros, or, at l = -1, is dropped with nothing inserted.
        """
        k = self.n_code - 1
        ls = (self.n_obs - self.n_code)[:, None] - self.drifts
        fits = (ls >= 0) & (ls < self.n_ins)
        ins = np.take_along_axis(self.ins_weight[k], np.where(fits, ls, 0)[:, None], axis=1)
        vec = self.emission[k] * np.where(fits[:, None], ins, 0.0)
        return np.where((ls == -1)[:, None], self.del_coef, vec)

    def _sweep(self, vec, advance):
        """Advance-and-renormalize over the n_code states in sweep order:
        vec is the unnormalized vector of sweep state 0, and advance(vec, k,
        out) writes that of sweep state k into out from that of state
        k - 1; two state buffers, vec and one more, take turns.  Each
        state is masked to the flows' bands.  A state is renormalized when
        it is kept, every spread-th, or when renorm_every states have
        passed since the last renormalization; the log scales sum the
        renormalizations made.  Returns the normalized vectors and log
        scales of the kept states, the spread-th first, in sweep order.
        Flows past a zero-mass step keep zeros and -inf."""
        spread, every = self.spread, self.renorm_every
        kept = np.zeros((self.n_code // spread, *vec.shape))
        scales = np.empty((self.n_code, vec.shape[0], 1, 1))
        states = (vec, np.empty_like(vec))
        at_kept = []
        made, last = 0, -1
        # a flow whose mass hits zero divides 0 by 0 at its next
        # renormalization and on; its NaNs stay in its own row and are
        # cleared after the loop
        with np.errstate(divide="ignore", invalid="ignore"):
            for k in range(self.n_code):
                if k:
                    vec = advance(vec, k, states[k & 1])
                if self.window is not None:
                    vec *= self.window
                keep = (k + 1) % spread == 0
                if keep or k - last == every:
                    vec /= np.add.reduce(vec, axis=(1, 2), keepdims=True, out=scales[made])
                    made, last = made + 1, k
                    if keep:
                        kept[k // spread] = vec
                        at_kept.append(made - 1)
            logw = np.cumsum(np.log(scales[:made, :, 0, 0]), axis=0)[at_kept]
        logw[np.isnan(logw)] = -math.inf
        kept[np.isnan(kept)] = 0.0
        return kept, logw


def trellis_tables(ys, key, params: IdsParams, d_max: int | None = None,
                   spread: int = 1, wtilde=None) -> Trellis:
    """Forward and backward sweeps over one engine for the received
    sequences ys, under the code's own law for watermark blocks of
    `spread` bits, or under the sparse pattern wtilde when given.  The
    forward sweep keeps the vectors of the states that end a block,
    spread, 2·spread, ..., N; the backward sweep, from the closing step
    terminal_vec, those of the states that start one, 1, spread + 1, ...;
    block_posterior reads both.  Each flow's drift cap is
    max(d_max, |n_obs - n_code| + 2), d_max by default
    default_drift_window.  log_evidence, log P(y) per flow with uniform
    watermark bits, is exact via the carried normalizers."""
    t = Trellis(ys, key, params, d_max, spread, wtilde)
    n = t.n_code
    terminal = t.terminal_vec()
    t.fw = t._sweep(t.init_vec(t.prior[0]),
                    lambda vec, k, out: t.step(vec, k + 1, t.prior[k], out))
    # the backward sweep keeps states n - spread + 1, ..., 1; reversed
    # into state order
    bvecs, blogw = t._sweep(terminal.copy(),
                            lambda vec, k, out: t.step_back(vec, n - k + 1, t.prior[n - k], out))
    t.bw = bvecs[::-1], blogw[::-1]
    closing = (t.fw[0][-1] * terminal).sum(axis=(-2, -1))
    with np.errstate(divide="ignore"):
        t.log_evidence = t.fw[1][-1] + np.log(closing)
    return t


# block_posterior's first steps take their blocks in slices whose run
# buffer, two hypotheses by B flows by n_ins rows by D columns per block,
# holds at most this many bytes; the step's other operands and the
# gathered step tables scale with it
POSTERIOR_SLICE_BYTES = 4 << 20


def block_posterior(trellis: Trellis) -> np.ndarray:
    """log P(y | watermark bit j = h) for every flow, block j and
    hypothesis h, as a (B, n_blocks, 2) array, n_blocks = n_code // spread;
    the other watermark bits are uniform, as in log_evidence.

    The hypothesis enters only the block's first step, so each block is
    that one step under each hypothesis, from the forward vector at the
    previous block's end (from the head for block 0), closed against the
    backward vector at the block's first state.  The blocks after the
    first take batched steps over both hypotheses, as many blocks at a
    time as POSTERIOR_SLICE_BYTES allows; the blocks are independent, so
    the slicing changes no value.  That step is not masked to the bands:
    its columns outside a flow's band meet the zeros of the swept
    backward vectors.
    """
    t = trellis
    (fvecs, flogw), (bvecs, blogw) = t.fw, t.bw
    n_blocks = len(bvecs)
    # hyp[h] = (same, flip) of the block's watermark bit under h; a first
    # step's axes are (block, hypothesis, flow, ...)
    hyp = np.eye(2)
    closing = np.empty((n_blocks, 2, len(t.ys)))
    closing[0] = (t.init_vec(t.code_weights(1, hyp)) * bvecs[0]).sum(axis=(-2, -1))
    size = max(1, POSTERIOR_SLICE_BYTES // (bvecs[0].nbytes * t.n_ins))
    for lo in range(1, n_blocks, size):
        hi = min(lo + size, n_blocks)
        i = np.arange(lo, hi)[:, None] * t.spread + 1
        first = t.step(fvecs[lo - 1 : hi - 1, None], i, t.code_weights(i, hyp))
        closing[lo:hi] = (first * bvecs[lo:hi, None]).sum(axis=(-2, -1))
    flog = np.zeros((n_blocks, 1, len(t.ys)))
    flog[1:] = flogw[:-1, None]
    with np.errstate(divide="ignore"):
        out = flog + np.log(closing) + blogw[:, None]
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
    target = (1 - Fraction(alpha)) * 2 ** n
    cum = 0
    for k in range(n + 1):
        cum += math.comb(n, k)
        if cum >= target:
            return k / n


def calibrate_threshold(control_scores, alpha: float) -> float:
    """Empirical (1-alpha) quantile of control scores.

    Control scores come from unwatermarked flows decoded against the
    reference watermark; at least 1/alpha of them are recommended.  A NaN
    or infinite score is an error naming its index.
    """
    scores = np.asarray(control_scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("need at least one control score")
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise ValueError(f"control score {bad[0]} is not finite: {scores.flat[bad[0]]}")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    k = math.ceil((1 - Fraction(str(alpha))) * scores.size)
    return float(np.sort(scores)[k - 1])


def present(scores, informative, threshold):
    """The presence rule: a flow is detected when its decode says something
    about some watermark bit (a nonzero LLR) and its score reaches the
    threshold.  A decode whose LLRs are all 0, such as a zero-evidence one,
    decides every bit as 0, so its score is the reference's share of zeros
    and says nothing."""
    return np.logical_and(informative, np.greater_equal(scores, threshold))


def decode_batch(ys, cfg: WatermarkConfig, params: IdsParams, w_reference,
                 threshold: float | None = None,
                 d_max: int | None = None) -> list[DetectionReport]:
    """decode() for several received sequences of one watermark config,
    swept together in one trellis; one report per sequence, each equal to
    its own decode() up to rounding.  d_max is the drift cap, floored
    per sequence as in trellis_tables."""
    w_ref = as_bits(w_reference)
    if w_ref.size != cfg.n_bits:
        raise ValueError("reference watermark length does not match config")
    if threshold is None:
        threshold = binomial_score_threshold(cfg.n_bits, alpha=0.01)
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], not {threshold}")
    key = keystream(cfg.key_seed, cfg.code_len)

    trellis = trellis_tables(ys, key, params, d_max, spread=cfg.spread)
    lp = block_posterior(trellis)
    # a block that neither hypothesis can explain carries no evidence
    with np.errstate(invalid="ignore"):
        llr = np.where(np.isfinite(lp).any(axis=-1), lp[..., 1] - lp[..., 0], 0.0)
    w_hat = (llr > 0.0).astype(np.uint8)
    scores = (w_hat == w_ref).mean(axis=-1)
    detected = present(scores, llr.any(axis=-1), threshold)
    return [
        DetectionReport(
            w_hat=w_hat[b],
            llr=llr[b],
            score=float(scores[b]),
            threshold=float(threshold),
            detected=bool(detected[b]),
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
    with the reference watermark, and `present` decides detection;
    without an explicit threshold the exact binomial null quantile at 1%
    is used.  This is decode_batch() on a batch of one.
    """
    return decode_batch([y], cfg, params, w_reference, threshold=threshold,
                        d_max=d_max)[0]
