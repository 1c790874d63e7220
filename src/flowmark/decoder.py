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
likelihoods for maximum-likelihood decoding; the backward sweep runs
first, and the forward sweep closes each block's first step against it
as it passes.  Received sequences decoded
under one key and one channel law sweep together, flow-major along the
columns of every state array: each flow's drift columns follow a pad of
zero columns, so one step reaches every flow through one 2-D matmul
(see Trellis).

The forward and backward vectors hold linear probabilities with their log
scales carried separately; code lengths in the hundreds underflow
otherwise.  A sweep renormalizes only the states it keeps, every spread-th,
and at least every R states, where R is the most steps that even the
rarest path can take from one renormalization before its mass could fall
below 1e-290 of what it held there (Trellis.renorm_every).  The sweeps
zero each flow's columns outside its band at every state with insertion
runs, and without them only at the states they renormalize.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from flowmark.channel import ChannelParams, substitution_prob
from flowmark.idscode import WatermarkConfig, as_bits, keystream, whole_number


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
        whole_number("max_insert_run", self.max_insert_run)
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


def _close(a, b, out=None) -> np.ndarray:
    """The sum over each flow's drift columns and accumulated bits of the
    product of two flows views (..., B, 2, D): (..., B)."""
    return np.einsum("...bad,...bad->...b", a, b, out=out)


class Trellis:
    """Vectorized trellis sweeps for B received sequences that share one
    key and one channel law, swept in lockstep.

    A state is an array of shape (6, W), flow-major: rows 0-1 hold the
    vector over the accumulated bit, and along them a front pad of w
    zero columns, then each flow's D columns, for the drifts lo .. hi,
    the union of the flows' bands, each followed by w zero columns, so W
    = w + B·(D + w); flows(state) views flow b's rows over its D columns.
    Rows 2-5 are the step kernels' operand rows and hold no part of the
    vector.  A flow's band is the part of its cap [-d_max, d_max] that
    its chain can both reach and close from.  The sweeps zero each
    flow's columns outside its band and every pad, so each flow's
    evidence and posteriors are those of a trellis over its own cap, up
    to rounding.
    With insertion runs w = n_ins - 1 and they do so at every state.
    Without them (n_ins == 1) the drift only falls forward and only rises
    backward, so mass that leaves a flow's band, which lies within
    [n_obs - n_code, 0], never returns to it; then w = spread and the sweeps
    mask only the states they renormalize, at least every spread-th, so
    such mass moves at most w columns, within the flow's own columns and
    its pad, before it is zeroed.  Linear-domain vectors are
    renormalized at the states the sweeps keep and at least every
    renorm_every states, and the log scale is carried separately.
    trellis_tables() fills fw and bw, the (vector rows, log scales) of
    the states that end and start a block of spread code bits,
    block_joint, the closed first steps block_posterior reads, and
    log_evidence, log P(y) per flow.

    The law enters through three factors, each stated once.  p_delete
    sits in the two drop columns of a step's (2, 4) weight matrix q (see
    code_weights), beside two copies of the delivery column, the weights
    of code bit 0 and 1, so both values of the sparse bit share one pass
    over the insertion lengths and one matmul.  The delivery weight 1 -
    p_delete sits in emission, with the weight of the first observed bit.
    The insertion law init_coef sits in the run table, with the weights
    of the inserted zeros; the head, the step kernels and terminal_vec
    read it, the forward step by the column a run lands on (ins_landing),
    the backward step by the column it leaves (ins_weight).  The tables
    are sliding windows over (rows, B, positions) arrays, so step k reads
    (rows, B, columns) views of them with contiguous columns.

    Since the pads are zero, a shift of the drift by one is a shift of a
    whole row by one column, a view, and a step is one 2-D matmul over
    all flows (see _forward and _backward), beside one multiply by the
    emission table, which writes no operand it reads.  A sweep makes its
    two state buffers and binds one step kernel from each into the other
    once and alternates them, each step passing the kernel only its
    tables, so it makes no new array per state beyond numpy's
    transients and, with insertion runs, the run pass's product.
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
        whole_number("spread", spread)
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
        whole_number("d_max", d_max)
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
        # the state layout: w pad columns before each flow and after the
        # last, wide enough for a run of n_ins - 1 inserted zeros and for
        # a drop; without insertion runs spread columns, for the mass
        # that leaves a band between two masked states (see the class
        # docstring)
        self.pad = self.n_ins - 1 if self.n_ins > 1 else spread
        self.width = self.pad + n_flows * (self.D + self.pad)
        # window: 1 on each flow's own band, 0 on the other columns and the
        # pads; None for a single flow whose band spans every column, whose
        # steps leave the pads at zero
        inside = (self.drifts >= self.band[:, :1]) & (self.drifts <= self.band[:, 1:])
        self.window = None
        if n_flows > 1 or not inside.all():
            blocks = np.concatenate([np.zeros((n_flows, self.pad)), inside], axis=1)
            self.window = np.append(blocks, np.zeros(self.pad))

        # Per-step emission context: step i (into state i) reads its first
        # observed bit at position i - 2 + drift of the source state and its
        # l inserted zeros at the positions after it, so the tables of step i
        # are the windows at i - 2 of rows over positions from lo on; the
        # last window, k = n_code - 1, is the closing step of terminal_vec.
        # match[a, b, j]: weight of flow b's bit at position lo - 1 - w + j
        # given sent bit a, 0 off the stream; the rows start w positions
        # early, for the emission windows' pads, and reach n_ins - 1
        # positions past the last window, for its zeros.
        ps, n_pos, w = p.p_sub, self.n_code + self.D - 1, self.pad
        pos = np.arange(self.lo - 1 - w, self.n_code + self.hi + self.n_ins - 1)
        valid = (pos >= 0) & (pos < self.n_obs[:, None])
        obs = np.zeros(valid.shape, dtype=np.uint8)
        for b, y in enumerate(self.ys):
            obs[b, valid[b]] = y[pos[valid[b]]]
        match = np.stack([np.where(valid, np.where(obs == a, 1.0 - ps, ps), 0.0)
                          for a in (0, 1)])
        # runs[l, b, j]: init_coef[l] times the weight of l inserted zeros
        # after position lo - 1 + j; the head, both step kernels and
        # terminal_vec read the insertion law only here
        runs = np.ones((self.n_ins, n_flows, n_pos + 1))
        for l in range(1, self.n_ins):
            runs[l] = runs[l - 1] * match[0, :, w + l : w + l + n_pos + 1]
        runs *= self.init_coef[: self.n_ins, None, None]

        def windows(rows, width=self.D):
            return sliding_window_view(rows, width, axis=2).transpose(2, 0, 1, 3)

        # emission[i-2, a, b, j]: the weight of a delivery, 1 - p_delete,
        # times that of flow b's first observed bit given accumulated bit
        # a, at drift lo - w + j: the w columns before the flow's, as in a
        # state, then its own; ins_weight[i-2, l, b, d]: the runs after
        # that bit, at drift column d
        self.emission = windows(match[:, :, 1 : w + n_pos + 1] * (1.0 - p.p_delete), w + self.D)
        self.ins_weight = windows(runs[:, :, 1:])
        # ins_landing[i-2, l, b, d] = ins_weight[i-2, l, b, d - l] for
        # d >= l: the weight of a run of l inserted zeros that lands the
        # drift at column d (n_ins > 1 only); row l of the runs, shifted l
        # positions on
        self.ins_landing = None
        if self.n_ins > 1:
            landing = np.zeros((self.n_ins, n_flows, n_pos + self.n_ins - 1))
            for l in range(self.n_ins):
                landing[l, :, l : l + n_pos] = runs[l, :, 1:]
            self.ins_landing = windows(landing)
        # head: the head packet, then l inserted zeros at positions 0 .. l - 1
        ls = np.arange(min(self.n_ins - 1, self.hi) + 1)
        self.head = np.zeros((n_flows, 1, self.D))
        self.head[:, 0, ls - self.lo] = runs[ls, :, -self.lo].T

    def _blocks(self, rows, start: int = 0) -> np.ndarray:
        """rows (..., W) from column start on as (..., B, D + w) blocks,
        each flow's D columns after the w pad columns before them, which
        the emission table's windows match."""
        flat = rows[..., start : start + self.width - self.pad]
        return flat.reshape(*flat.shape[:-1], len(self.ys), self.D + self.pad)

    def flows(self, state) -> np.ndarray:
        """The vector of a state (6, W), of a stack of them, or of their
        vector rows (..., 2, W), as a (..., B, 2, D) view: flow b's
        accumulated-bit rows over its drift columns."""
        return self._blocks(state[..., :2, :])[..., self.pad :].swapaxes(-3, -2)

    def joint(self, a, b) -> np.ndarray:
        """The sum over each flow's columns of the product of the vectors
        of a and b, states or vector rows: (..., B)."""
        return _close(self.flows(a), self.flows(b))

    def code_weights(self, i, same_flip) -> np.ndarray:
        """The step weight matrix q at position i, shape (..., 2, 4), from
        the sparse bit's prior weights (same, flip): the weight of a code
        bit equal to the key bit (sparse bit 0) and differing from it,
        which give wx[c], the weight of code bit c.  Row a' is the new
        accumulated bit.  Columns a drop the previous packet: accumulated
        bit a takes in the code bit and becomes a', q[..., a', a] =
        p_delete * wx[a xor a'].  Columns 2 and 3 deliver it: code bit a'
        starts the new accumulated bit, q[..., a', 2] = q[..., a', 3] =
        wx[a'] (a step without insertion runs reads the delivered mass of
        each accumulated bit in its own operand row)."""
        same_flip = np.asarray(same_flip, dtype=np.float64)
        key = self.key[np.asarray(i) - 1]
        wx = np.where(key[..., None] == 1, same_flip[..., ::-1], same_flip)
        drop = self.del_coef * np.stack([wx, wx[..., ::-1]], axis=-2)
        return np.concatenate([drop, wx[..., None], wx[..., None]], axis=-1)

    def new_state(self) -> np.ndarray:
        """A zero state, (6, W)."""
        return np.zeros((6, self.width))

    def init_vec(self, q) -> np.ndarray:
        """State 1 given the weight matrix q (..., 2, 4): head survives, a
        burst of inserted zeros may precede the first marked IPD.  Shape
        (..., 6, W), one state per weight matrix."""
        state = np.zeros((*q.shape[:-2], 6, self.width))
        self.flows(state)[...] = q[..., None, :, 2:3] * self.head
        return state

    def _step_tables(self, k, q, backward: bool) -> tuple:
        """The tables of step index k (an index or a slice) in the form the
        kernel in one direction takes: the emission window, the run window
        (None without insertion runs) and the weight matrix q (..., 2, 4).
        Forward, the runs by the column they land on and q, less its
        second delivery column with insertion runs, (..., 2, 3), whose run
        pass sums both accumulated bits' delivered mass into one operand
        row; backward, the runs by the column they leave and the transpose
        of q with the delivery columns first, (..., 4, 2)."""
        if backward:
            runs, q = self.ins_weight, np.swapaxes(q[..., [2, 3, 0, 1]], -1, -2)
        else:
            runs, q = self.ins_landing, q[..., :3] if self.n_ins > 1 else q
        return self.emission[k], None if self.n_ins == 1 else runs[k], q

    def _forward(self, src, dst):
        """The forward step kernel from state src into state dst, both (6,
        W): a function of one step's _step_tables that writes src's
        operand rows and dst's vector rows from the first flow's first
        column to the last flow's last, the sweeps binding it once per
        pair of state buffers.  It multiplies src's vector, as _blocks, by
        the emission window into rows 2-3 one column to the right, so
        that rows 0-3 from column w + 1 on hold the vector one drift up,
        for a drop, beside the delivered mass of each accumulated bit.
        With insertion runs it sums rows 2 and 3 into row 3 and passes the
        runs over that row's read-only sliding window, row l shifted l
        columns to the right, which reads the pad before each flow, into
        the flows' columns of row 2; the operand rows are then rows 0-2.
        The new vector is q @ the operand rows, the kernel's operands
        attribute, which the forward sweep's block closing reads too."""
        w, n, end = self.pad, self.n_ins, self.width - self.pad
        vec, prod = self._blocks(src[:2]), self._blocks(src[2:4], 1)
        operands, span = src[: 4 if n == 1 else 3, w + 1 : end + 1], dst[:2, w:end]
        if n > 1:
            total, other = src[3], src[2]
            shifted = np.moveaxis(sliding_window_view(prod[1], n, axis=-1)[..., ::-1], -1, 0)
            landed = prod[0, :, w:]

        def kernel(emission, landing, q):
            np.multiply(vec, emission, out=prod)
            if n > 1:
                # a run of l inserted zeros moves the drift up by l: row l
                # of the shifted view is delivered, l columns to the right
                np.add(total, other, out=total)
                np.add.reduce(shifted * landing, axis=0, out=landed)
            np.matmul(q, operands, out=span)
        kernel.operands = operands
        return kernel

    def _backward(self, src, dst):
        """The backward step kernel from state src into state dst, both (6,
        W), the transpose of _forward's.  The transposed q @ src's vector
        rows, from the front pad's last column on, fills dst's operand
        rows over the same columns: the landed mass in rows 2 and 3 and
        the dropped mass in rows 4-5.  With insertion runs the run pass
        sums the read-only sliding window over row 2, row l shifted l
        columns to the left, which reads the pad after each flow, into the
        flows' columns of row 3.  dst's vector is then the landed mass,
        rows 2-3 or with insertion runs row 3, times the emission window
        plus the dropped mass one drift down."""
        w, n, end = self.pad, self.n_ins, self.width - self.pad
        rows, mix = src[:2, w - 1 : end], dst[2:, w - 1 : end]
        vec, landed = self._blocks(dst[:2]), self._blocks(dst[2:4] if n == 1 else dst[3:4])
        span, drops = dst[:2, w:end], dst[4:, w - 1 : end - 1]
        if n > 1:
            shifted = np.moveaxis(sliding_window_view(self._blocks(dst[2], w), n, axis=-1), -1, 0)
            runs = landed[0, :, w:]

        def kernel(emission, weight, qt):
            np.matmul(qt, rows, out=mix)
            if n > 1:
                # row l of the shifted view is landed, l columns to the left
                np.add.reduce(weight * shifted, axis=0, out=runs)
            np.multiply(landed, emission, out=vec)
            np.add(span, drops, out=span)
        return kernel

    def step(self, state, i, q, backward: bool = False) -> np.ndarray:
        """Step i of the chain as a new state: forward, state i - 1
        advanced to state i (sent packet i - 1 resolved); backward, its
        transpose, the backward vector of state i pulled into state i - 1.
        state is (6, W) with zero pads and q the weight matrix (2, 4) at
        position i.  The step writes state's operand rows and leaves the
        pads between flows to the band mask."""
        out = self.new_state()
        kernel = (self._backward if backward else self._forward)(state, out)
        kernel(*self._step_tables(i - 2, q, backward))
        return out

    def terminal_vec(self) -> np.ndarray:
        """Closure of the chain against the observed tail, a state (6, W).

        The closing step resolves the last sent packet like any other
        step, read from the step tables' last window: from drift d it
        must finish the observed sequence exactly, so it delivers its
        accumulated bit followed by l = n_obs - n_code - d inserted
        zeros, or, at l = -1, is dropped with nothing inserted.
        """
        k = self.n_code - 1
        ls = (self.n_obs - self.n_code)[:, None] - self.drifts
        fits = (ls >= 0) & (ls < self.n_ins)
        ins = np.take_along_axis(self.ins_weight[k], np.where(fits, ls, 0)[None], axis=0)
        vec = self.emission[k][..., self.pad :] * np.where(fits, ins, 0.0)
        state = self.new_state()
        self.flows(state)[...] = np.where(ls == -1, self.del_coef, vec).swapaxes(0, 1)
        return state

    def _sweep(self, vec, backward: bool, closing=None):
        """Advance-and-renormalize over the n_code states in sweep order,
        forward from state 1 or backward from state N: vec is the
        unnormalized state of sweep state 0, and each later one is stepped
        from the one before.  Two state buffers, vec and one more, take
        turns, each the target of one kernel (_forward or _backward) bound
        to both once.  A state is renormalized when it is kept, every
        spread-th, or when renorm_every states have passed since the last
        renormalization; the log scales sum the renormalizations made.
        The band mask zeroes each flow's columns outside its band and the
        pads at every state with insertion runs, and at the renormalized
        states without (see Trellis).  Returns the normalized vector rows
        (n_code // spread, 2, W) and log scales of the kept states, the
        spread-th first, in sweep order, and the blocks' joint, below.
        Flows past a zero-mass step keep zeros and -inf.

        Given closing, the backward vector rows of the states that start
        a block, (n_blocks, 2, W) in state order, a forward sweep closes
        each block's first step under both hypotheses of its watermark
        bit against them as it passes: the hypotheses' weight matrices
        meet the operand rows that the sweep's own step has just built
        from the kept state before the block, its kernel's operands.
        Block 0's first step is the head's.  The joint, (n_blocks, 2, B),
        is else None."""
        n, spread, every, window = self.n_code, self.spread, self.renorm_every, self.window
        mask_all = self.n_ins > 1
        kept = np.zeros((n // spread, 2, self.width))
        scales = np.empty((n, len(self.ys)))
        states = (vec, np.zeros_like(vec))
        build = self._backward if backward else self._forward
        # kernels[now] steps the other buffer into states[now]
        kernels = [build(states[1 - now], states[now]) for now in (0, 1)]
        emission, runs, weights = self._step_tables(slice(0, n - 1), self.prior[1:], backward)
        steps = list(zip(emission, itertools.repeat(None) if runs is None else runs, weights))
        if backward:
            steps.reverse()
        rows = [s[:2] for s in states]
        flows = [self.flows(s) for s in states]
        joint = None
        if closing is not None:
            # hyp[j, h] = (same, flip) weights of block j's first step with
            # its watermark bit fixed to h
            *_, hyp = self._step_tables(0, self.code_weights(
                np.arange(len(closing))[:, None] * spread + 1, np.eye(2)), False)
            joint = np.empty((len(closing), 2, len(self.ys)))
            joint[0] = self.joint(self.init_vec(hyp[0]), closing[0])
            first = np.zeros((2, 2, self.width))
            first_span, pair = first[..., self.pad : self.width - self.pad], self.flows(first)
            back = self.flows(closing)
        at_kept = []
        made, last = 0, -1
        with np.errstate(divide="ignore"):
            for k in range(n):
                now = k & 1
                if k:
                    kernels[now](*steps[k - 1])
                    if joint is not None and k % spread == 0:
                        np.matmul(hyp[k // spread], kernels[now].operands, out=first_span)
                        _close(pair, back[k // spread], out=joint[k // spread])
                keep = (k + 1) % spread == 0
                renorm = keep or k - last == every
                if window is not None and (renorm or mask_all):
                    np.multiply(rows[now], window, out=rows[now])
                if renorm:
                    scale = np.add.reduce(flows[now], axis=(-2, -1), out=scales[made])[:, None, None]
                    # a flow without mass keeps its zeros
                    np.divide(flows[now], scale, out=flows[now], where=scale > 0.0)
                    made, last = made + 1, k
                    if keep:
                        kept[k // spread] = rows[now]
                        at_kept.append(made - 1)
            logw = np.cumsum(np.log(scales[:made]), axis=0)[at_kept]
        return kept, logw, joint


def trellis_tables(ys, key, params: IdsParams, d_max: int | None = None,
                   spread: int = 1, wtilde=None) -> Trellis:
    """Forward and backward sweeps over one engine for the received
    sequences ys, under the code's own law for watermark blocks of
    `spread` bits, or under the sparse pattern wtilde when given.  The
    backward sweep, from the closing step terminal_vec, keeps the states
    that start a block, 1, spread + 1, ...; the forward sweep, run after
    it, those that end one, spread, 2·spread, ..., N, and closes each
    block's first step under both hypotheses of its watermark bit
    against the backward state there, for block_posterior.  Each flow's
    drift cap is max(d_max, |n_obs - n_code| + 2), d_max by default
    default_drift_window.  log_evidence, log P(y) per flow with uniform
    watermark bits, is exact via the carried normalizers."""
    t = Trellis(ys, key, params, d_max, spread, wtilde)
    terminal = t.terminal_vec()
    # the backward sweep keeps states n - spread + 1, ..., 1; reversed
    # into state order
    bvecs, blogw, _ = t._sweep(terminal.copy(), backward=True)
    t.bw = bvecs[::-1], blogw[::-1]
    fvecs, flogw, t.block_joint = t._sweep(t.init_vec(t.prior[0]), False, t.bw[0])
    t.fw = fvecs, flogw
    closing = t.joint(fvecs[-1], terminal)
    with np.errstate(divide="ignore"):
        t.log_evidence = flogw[-1] + np.log(closing)
    return t


def block_posterior(trellis: Trellis) -> np.ndarray:
    """log P(y | watermark bit j = h) for every flow, block j and
    hypothesis h, as a (B, n_blocks, 2) array, n_blocks = n_code // spread;
    the other watermark bits are uniform, as in log_evidence.

    The hypothesis enters only the block's first step, so each block is
    that one step under each hypothesis, from the forward state at the
    previous block's end (from the head for block 0), closed against the
    backward state at the block's first state: trellis.block_joint,
    which the forward sweep of trellis_tables closes as it passes each
    block.  That step is not masked to the bands: its columns outside a
    flow's band meet the zeros of the kept backward states, and the
    closing reads no pad.  This adds the two states' log scales.
    """
    t = trellis
    flog = np.zeros((len(t.block_joint), 1, len(t.ys)))
    flog[1:] = t.fw[1][:-1, None]
    with np.errstate(divide="ignore"):
        out = flog + np.log(t.block_joint) + t.bw[1][:, None]
    return out.transpose(2, 0, 1)


def binomial_score_threshold(n: int, alpha: float = 0.01) -> float:
    """Exact (1-alpha) quantile of Binomial(n, 1/2)/n.

    Nominal detection threshold when no empirical calibration is at hand:
    an unwatermarked flow agrees with a random reference on about half the
    bits, so the null score is Binomial(n, 1/2)/n.  `present` detects at
    score >= threshold, so the null's false-positive rate at the returned
    quantile exceeds alpha: at n = 50, alpha = 0.01 it returns 0.66, which
    the null reaches with exact probability P(X >= 33) = 0.0164 (1.6
    alpha); the next grid point, 0.68, gives 0.0077.
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
