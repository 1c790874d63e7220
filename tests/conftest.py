import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def sample_ids_channel(code, params, rng):
    """Bit-level sampler of transmit's law, for building test instances
    without the timestamp machinery: the head packet arrives, every later
    sent packet is dropped with p_delete (its bit merging into the next
    IPD), each delivered packet is followed by a burst of inserted zeros
    whose cap takes the tail, and every received bit flips with p_sub."""

    def burst():
        m = 0
        while m < params.max_insert_run and rng.random() < params.p_insert:
            m += 1
        return [0] * m

    out = burst()
    pending = 0
    for bit in code:
        pending ^= int(bit)
        if rng.random() >= params.p_delete:
            out += [pending] + burst()
            pending = 0
    flips = rng.random(len(out)) < params.p_sub
    return np.array(out, dtype=np.uint8) ^ flips.astype(np.uint8)
