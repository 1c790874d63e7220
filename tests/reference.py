"""Scalar references that verify the vectorized code in src/.

Each is written independently of the code it checks: a per-transition
law, an exhaustive channel-path enumeration, and the inverse of sparsify.
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


def transition_log_prob(prev: TrellisState, nxt: TrellisState, emitted,
                        key_bit: int, params: IdsParams,
                        density: float | None = None,
                        wtilde_bit: int | None = None) -> float:
    """Log probability of one trellis transition with its emitted fragment.

    Either density (sparse-bit prior) or wtilde_bit (known sparse bit) must
    be given.  Inconsistent (drift change, fragment) pairs have probability
    zero, which is returned as -inf rather than raised.
    """
    if (density is None) == (wtilde_bit is None):
        raise ValueError("give exactly one of density or wtilde_bit")
    emitted = as_bits(emitted)
    p = params
    dd = nxt.drift - prev.drift
    if wtilde_bit is not None:
        weights = ((int(wtilde_bit), 1.0),)
    else:
        weights = ((0, 1.0 - density), (1, density))

    total = 0.0
    for wv, pw in weights:
        if dd == -1 and emitted.size == 0:
            if nxt.acc_bit == prev.acc_bit ^ key_bit ^ wv:
                total += pw * p.p_delete * (1.0 - p.p_insert)
        elif dd >= 0 and emitted.size == dd + 1:
            if nxt.acc_bit != key_bit ^ wv:
                continue
            if np.any(emitted[1:] != 0):
                continue
            run = p.max_insert_run
            drop_part = p.p_delete * p.p_insert ** (dd + 1) if dd + 1 <= run else 0.0
            keep_part = (1.0 - p.p_delete) * p.p_insert ** dd if dd <= run else 0.0
            coef = (1.0 - p.p_insert) * (drop_part + keep_part)
            match = 1.0 - p.p_sub if int(emitted[0]) == prev.acc_bit else p.p_sub
            total += pw * coef * match
    return math.log(total) if total > 0.0 else -math.inf


def enumeration_oracle(x, params: IdsParams, y) -> float:
    """Exact P(y | sent code x) by enumerating every channel event path.

    Walks every combination of per-packet drops and insertion bursts that
    could map x to y, multiplying in substitution weights for each merged
    bit.  Independent of the trellis; used to verify it.  Sizes are capped
    to keep the enumeration honest and fast.
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
    ins_w = [p.p_insert ** m * (1.0 - p.p_insert) for m in range(run + 1)]
    keep = 1.0 - p.p_delete

    total = 0.0

    def emit_match(bit: int, pos: int) -> float:
        return 1.0 - p.p_sub if int(y[pos]) == bit else p.p_sub

    def zeros_ok(pos: int, count: int) -> bool:
        return not np.any(y[pos:pos + count])

    def resolve(i: int, pos: int, prob: float, pending: int):
        nonlocal total
        if i > n:
            if pos == n_obs:
                total += prob
            return
        pending ^= int(x[i - 1])
        # dropped, nothing inserted: the merged bit keeps accumulating
        if p.p_delete > 0.0:
            resolve(i + 1, pos, prob * p.p_delete * (1.0 - p.p_insert), pending)
            # dropped but m bursts inserted: the merged bit is observed on
            # the first inserted packet, the rest are zeros
            for m in range(1, run + 1):
                if ins_w[m] <= 0.0 or pos + m > n_obs:
                    break
                if not zeros_ok(pos + 1, m - 1):
                    continue
                resolve(i + 1, pos + m,
                        prob * p.p_delete * ins_w[m] * emit_match(pending, pos), 0)
        # delivered with m insertions after it
        for m in range(0, run + 1):
            if ins_w[m] <= 0.0 or pos + 1 + m > n_obs:
                break
            if not zeros_ok(pos + 1, m):
                continue
            resolve(i + 1, pos + 1 + m,
                    prob * keep * ins_w[m] * emit_match(pending, pos), 0)

    # head packet always arrives; a burst may precede the first marked IPD
    for m0 in range(0, run + 1):
        if ins_w[m0] <= 0.0 or m0 > n_obs:
            break
        if not zeros_ok(0, m0):
            continue
        resolve(1, m0, ins_w[m0], 0)
    return total


def unsparsify(wt, spread: int) -> np.ndarray:
    """Left inverse of sparsify: read the block-leading bits."""
    wt = as_bits(wt)
    if wt.size % spread != 0:
        raise ValueError("length must be a multiple of the spread factor")
    return wt[::spread].copy()
