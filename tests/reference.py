"""Scalar references that verify the vectorized code in src/.

Each is written independently of the code it checks: a per-transition
law, an exhaustive channel-path enumeration, a scalar per-block
posterior over dense per-step tables, full per-state sweeps for the
forward/backward identity, dense sweeps over the whole drift cap for the
band's exactness, the inverse of sparsify, a per-packet QIM embedding
loop, and the trace reader's per-line loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from flowmark.decoder import IdsParams
from flowmark.idscode import as_bits


@dataclass(frozen=True)
class TrellisState:
    acc_bit: int
    drift: int


def insertion_law(params: IdsParams) -> np.ndarray:
    """P(l inserted zeros after a delivered packet), l = 0 .. run: the
    geometric law below the run cap, the cap taking the tail."""
    p_i, run = params.p_insert, params.max_insert_run
    return np.append(p_i ** np.arange(run) * (1.0 - p_i), p_i ** run)


def read_weight(bits, sent: int, p_sub: float) -> float:
    """Substitution weight of reading the received bits when each was
    sent as `sent`."""
    flips = int(np.count_nonzero(np.asarray(bits) != sent))
    return p_sub ** flips * (1.0 - p_sub) ** (len(bits) - flips)


def transition_log_prob(prev: TrellisState, nxt: TrellisState, emitted,
                        key_bit: int, params: IdsParams,
                        flip: float | None = None,
                        wtilde_bit: int | None = None) -> float:
    """Log probability of one trellis transition with its emitted fragment.

    Either flip (the probability that the sparse bit is 1) or wtilde_bit
    (known sparse bit) must be given.  Inconsistent (drift change,
    fragment) pairs have probability zero, which is returned as -inf
    rather than raised.
    """
    if (flip is None) == (wtilde_bit is None):
        raise ValueError("give exactly one of flip or wtilde_bit")
    emitted = as_bits(emitted)
    p = params
    dd = nxt.drift - prev.drift
    if wtilde_bit is not None:
        weights = ((int(wtilde_bit), 1.0),)
    else:
        weights = ((0, 1.0 - flip), (1, flip))

    total = 0.0
    for wv, pw in weights:
        if dd == -1 and emitted.size == 0:
            # dropped: the accumulated bit carries
            if nxt.acc_bit == prev.acc_bit ^ key_bit ^ wv:
                total += pw * p.p_delete
        elif 0 <= dd <= p.max_insert_run and emitted.size == dd + 1:
            # delivered, then dd inserted zeros, each read through p_sub
            if nxt.acc_bit == key_bit ^ wv:
                total += (pw * (1.0 - p.p_delete) * insertion_law(p)[dd]
                          * read_weight(emitted[:1], prev.acc_bit, p.p_sub)
                          * read_weight(emitted[1:], 0, p.p_sub))
    return math.log(total) if total > 0.0 else -math.inf


def enumeration_oracle(x, params: IdsParams, y) -> float:
    """Exact P(y | sent code x) by enumerating every channel event path.

    Walks every combination of per-packet drops and insertion bursts that
    could map x to y, multiplying in substitution weights for each merged
    bit and each inserted zero.  Independent of the trellis; used to
    verify it.  Sizes are capped to keep the enumeration honest and fast.
    """
    x = as_bits(x)
    y = as_bits(y)
    if x.size > 6:
        raise ValueError("oracle accepts code lengths up to 6")
    p = params
    run = p.max_insert_run if p.p_insert > 0.0 else 0
    if run > 2:
        raise ValueError("oracle accepts insertion runs up to 2")
    n, n_obs = int(x.size), int(y.size)
    if n < 1:
        raise ValueError("code must be nonempty")
    ins_w = insertion_law(p)

    total = 0.0

    def burst(pos: int, m: int) -> float:
        # m inserted zeros read at pos ..; impossible past y's end
        return ins_w[m] * read_weight(y[pos:pos + m], 0, p.p_sub) if pos + m <= n_obs else 0.0

    def resolve(i: int, pos: int, prob: float, pending: int):
        nonlocal total
        if prob == 0.0:
            return
        if i > n:
            if pos == n_obs:
                total += prob
            return
        pending ^= int(x[i - 1])
        # dropped: the merged bit keeps accumulating
        resolve(i + 1, pos, prob * p.p_delete, pending)
        # delivered as y[pos], then m inserted zeros
        if pos < n_obs:
            for m in range(run + 1):
                resolve(i + 1, pos + 1 + m, prob * (1.0 - p.p_delete)
                        * read_weight(y[pos:pos + 1], pending, p.p_sub) * burst(pos + 1, m), 0)

    # head packet always arrives; a burst may precede the first marked IPD
    for m0 in range(run + 1):
        resolve(1, m0, burst(0, m0), 0)
    return total


class DenseSteps:
    """The scalar trellis step, one pass per sparse-bit value, over dense
    (N-1, D) per-step tables built from y, key and params alone.  The
    sparse bits follow the code's law for blocks of spread bits: a
    uniform watermark bit at each block's first position, 0 elsewhere."""

    def __init__(self, y, key, params: IdsParams, d_max: int, spread: int = 1):
        self.y = as_bits(y)
        self.key = as_bits(key)
        self.n_code = int(self.key.size)
        self.params = params
        self.spread = spread
        self.d_max = int(d_max)
        self.n_obs = int(self.y.size)

        p = params
        self.del_coef = p.p_delete
        self.init_coef = insertion_law(p)
        self.coef = (1.0 - p.p_delete) * self.init_coef
        self.active_l = [l for l in range(p.max_insert_run + 1) if self.coef[l] > 0.0]

        self.D = 2 * self.d_max + 1
        self.drifts = np.arange(-self.d_max, self.d_max + 1)

        # step i (into state i) reads its first observed bit at index
        # i - 2 + drift of the source state, and its inserted zeros at the
        # indices after it
        steps = np.arange(2, self.n_code + 1)
        pos = steps[:, None] - 2 + self.drifts[None, :]

        def read(at, bit):
            # weight of reading y[at] when `bit` was sent; 0 off y
            inside = (at >= 0) & (at < self.n_obs)
            obs = (self.y[np.clip(at, 0, max(self.n_obs - 1, 0))] if self.n_obs
                   else np.zeros_like(at))
            return np.where(inside, np.where(obs == bit, 1.0 - p.p_sub, p.p_sub), 0.0)

        self.e_match = [read(pos, b) for b in (0, 1)]
        # zero_w[l]: weight of l inserted zeros read after the first bit
        self.zero_w = [np.prod([read(pos + t, 0) for t in range(1, l + 1)], axis=0)
                       if l else np.ones(pos.shape) for l in range(p.max_insert_run + 1)]

    def _w_weights(self, i: int, override=None):
        """(value, weight) pairs of the sparse bit at position i (1-based)."""
        if override is not None:
            return ((int(override), 1.0),)
        if (i - 1) % self.spread == 0:
            return ((0, 0.5), (1, 0.5))
        return ((0, 1.0),)

    def init_vec(self, wbit=None) -> np.ndarray:
        """Distribution over state 1: head survives, a burst of inserted
        zeros may precede the first marked IPD."""
        vec = np.zeros((2, self.D))
        key = int(self.key[0])
        for wv, pw in self._w_weights(1, wbit):
            for l in range(min(self.params.max_insert_run, self.d_max, self.n_obs) + 1):
                vec[key ^ wv, self.d_max + l] += (
                    pw * self.init_coef[l] * read_weight(self.y[:l], 0, self.params.p_sub))
        return vec

    def step(self, prev: np.ndarray, i: int, wbit=None) -> np.ndarray:
        """Advance state i-1 to state i (resolve sent packet i-1)."""
        nxt = np.zeros_like(prev)
        key = int(self.key[i - 1])
        e0, e1 = self.e_match[0][i - 2], self.e_match[1][i - 2]
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
                contrib = merged * self.zero_w[l][i - 2]
                if l:
                    nxt[row, l:] += (pw * self.coef[l]) * contrib[:-l]
                else:
                    nxt[row] += (pw * self.coef[l]) * contrib
        return nxt

    def terminal_vec(self) -> np.ndarray:
        """Closure against the observed tail: the last packet is dropped,
        or its accumulated bit arrives as bit `first` of y and inserted
        zeros finish y."""
        p = self.params
        vec = np.zeros((2, self.D))
        for col, d in enumerate(self.drifts):
            first = self.n_code - 1 + int(d)
            m = self.n_obs - first - 1
            if m == -1:
                vec[:, col] = p.p_delete
            elif first >= 0 and m in self.active_l:
                tail = read_weight(self.y[first + 1:], 0, p.p_sub)
                for a in (0, 1):
                    vec[a, col] = self.coef[m] * read_weight(self.y[first:first + 1], a,
                                                             p.p_sub) * tail
        return vec

    def sweeps(self):
        """Forward and backward vectors of every state 1..N over the whole
        window, each (N, 2, D) and scaled to sum 1 where nonzero, and log
        P(y).  The backward step is the transpose of step(), built column
        by column from unit vectors."""
        n, size = self.n_code, 2 * self.D
        fw = np.zeros((n, 2, self.D))
        bw = np.zeros_like(fw)
        log_scale = 0.0
        for i in range(1, n + 1):
            vec = self.init_vec() if i == 1 else self.step(fw[i - 2], i)
            total = float(vec.sum())
            if total <= 0.0:
                log_scale = -math.inf
                break
            log_scale += math.log(total)
            fw[i - 1] = vec / total
        bw[n - 1] = self.terminal_vec()
        closing = float(np.sum(fw[n - 1] * bw[n - 1]))
        evidence = log_scale + math.log(closing) if closing > 0.0 else -math.inf
        for i in range(n, 1, -1):
            m = np.stack([self.step(e.reshape(2, self.D), i).ravel()
                          for e in np.eye(size)], axis=1)
            bw[i - 2] = (m.T @ bw[i - 1].ravel()).reshape(2, self.D)
        total = bw.sum(axis=(1, 2), keepdims=True)
        bw /= np.where(total > 0.0, total, 1.0)
        return fw, bw, evidence


def scalar_block_posterior(j: int, trellis, w_hypothesis: int, flow: int = 0) -> float:
    """log P(y | watermark bit j = w_hypothesis) for one flow of a
    trellis, one block at a time.

    Chains the forward vector at the block start through the whole block,
    its first bit fixed by the hypothesis and the others 0, then one
    step further under the code's law, and closes with the backward
    vector at the next block's first state (the closing step after the
    last block).  Only the stored sweeps (trellis.fw at states spread,
    2*spread, ..., and trellis.bw at states 1, spread + 1, ...) come from
    the trellis, read through its flows view and laid out on the flow's
    whole cap -d_max .. d_max; the steps and the closing step are
    DenseSteps'.
    """
    spread = trellis.spread
    d_max = int(trellis.flow_d_max[flow])
    steps = DenseSteps(trellis.ys[flow], trellis.key, trellis.params, d_max, spread)
    keep = np.abs(trellis.drifts) <= d_max

    def on_cap(vec):
        out = np.zeros((2, steps.D))
        out[:, trellis.drifts[keep] + d_max] = vec[:, keep]
        return out

    n_blocks = trellis.n_code // spread
    if not 1 <= j <= n_blocks:
        raise ValueError(f"block index {j} outside 1..{n_blocks}")

    fvecs, flogw = trellis.fw
    bvecs, blogw = trellis.bw
    fvecs, bvecs = trellis.flows(fvecs), trellis.flows(bvecs)
    start = (j - 1) * spread
    end = j * spread

    if start == 0:
        vec = steps.init_vec(wbit=int(w_hypothesis))
        lo = 2
        logw = 0.0
    else:
        if not math.isfinite(flogw[j - 2, flow]):
            return -math.inf
        vec = on_cap(fvecs[j - 2, flow])
        logw = float(flogw[j - 2, flow])
        lo = start + 1
    for i in range(lo, min(end + 1, trellis.n_code) + 1):
        wbit = int(w_hypothesis) if i == start + 1 else 0 if i <= end else None
        vec = steps.step(vec, i, wbit=wbit)
        scale = float(vec.sum())
        if scale <= 0.0:
            return -math.inf
        vec /= scale
        logw += math.log(scale)
    if j == n_blocks:
        back, back_logw = steps.terminal_vec(), 0.0
    else:
        back, back_logw = on_cap(bvecs[j, flow]), float(blogw[j, flow])
    if not math.isfinite(back_logw):
        return -math.inf
    closing = float(np.sum(vec * back))
    if closing <= 0.0:
        return -math.inf
    return logw + math.log(closing) + back_logw


def log_sweeps(trellis):
    """Log forward and log backward vectors of every state 1..N, each of
    shape (N, B, 2, D) (the trellis' flows view of its states), swept
    afresh through the trellis' own init_vec, step (both directions) and
    terminal_vec under its sparse-bit law, masked to the flows' bands and
    renormalized at every state.  The production sweeps keep only
    block-boundary states and renormalize only there and every
    renorm_every states."""
    t = trellis
    fw = np.empty((t.n_code, len(t.ys), 2, t.D))
    bw = np.empty_like(fw)
    for out, vec, advance, states in (
        (fw, t.init_vec(t.prior[0]), lambda v, s: t.step(v, s, t.prior[s - 1]),
         range(1, t.n_code + 1)),
        (bw, t.terminal_vec(), lambda v, s: t.step(v, s + 1, t.prior[s], backward=True),
         range(t.n_code, 0, -1)),
    ):
        logw = np.zeros(len(t.ys))
        for k, s in enumerate(states):
            if k:
                vec = advance(vec, s)
            if t.window is not None:
                vec[:2] *= t.window
            flows = t.flows(vec)
            scale = flows.sum(axis=(-2, -1))
            with np.errstate(divide="ignore"):
                logw = logw + np.log(scale)
                flows /= np.where(scale > 0.0, scale, 1.0)[:, None, None]
                out[s - 1] = np.log(flows) + logw[:, None, None]
    return fw, bw


def state_log_joint(trellis) -> np.ndarray:
    """log F_i + log B_i for every state i = 1..N, shape (N, B, 2, D); its
    logsumexp over one state's entries is log P(y) for every i (the
    forward/backward consistency identity)."""
    fw, bw = log_sweeps(trellis)
    return fw + bw


def unsparsify(wt, spread: int) -> np.ndarray:
    """Left inverse of sparsify: read the block-leading bits."""
    wt = as_bits(wt)
    if wt.size % spread != 0:
        raise ValueError("length must be a multiple of the spread factor")
    return wt[::spread].copy()


def _ceil_guarded(q: float) -> int:
    """ceil(q), but q within a relative 1e-9 of an integer is that integer."""
    nearest = round(q)
    if abs(q - nearest) <= 1e-9 * max(1.0, abs(q)):
        return int(nearest)
    return int(math.ceil(q))


def loop_qim_embed(ipds, code, delta: float) -> np.ndarray:
    """QIM embedding one packet at a time in cumulative time: each code
    IPD becomes the guarded ceiling of the remaining gap in units of delta,
    plus delta/2 for a 1; later IPDs take whatever gap remains."""
    ipds = np.asarray(ipds, dtype=np.float64)
    code = np.asarray(code)
    out = np.empty_like(ipds)
    cum_orig = 0.0
    cum_marked = 0.0
    for i in range(ipds.size):
        cum_orig += ipds[i]
        gap = max(cum_orig - cum_marked, 0.0)
        if i < code.size:
            steps = _ceil_guarded(gap / delta)
            marked = (steps + 0.5 * float(code[i] & 1)) * delta
        else:
            marked = gap
        out[i] = marked
        cum_marked += marked
    return out


def read_values_per_line(path, what: str) -> list[float]:
    """The trace reader's line rule, one line at a time over the file's
    bytes: lines are stripped; blank lines and `#` comments are ignored; a
    bad value's error (`nan` and `inf` are bad) names the file, the line
    and `what` it should be; a line that does not decode as UTF-8 is bad
    too, comment or not, and is reported by its bytes."""
    values = []
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, raw in enumerate(lines, start=1):
        try:
            text = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise ValueError(f"{path}: line {lineno}: not {what}: {raw!r}") from None
        if not text or text.startswith("#"):
            continue
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"{path}: line {lineno}: not {what}: {text!r}")
        values.append(value)
    return values
