import math
import re

import numpy as np
import pytest

from flowmark.channel import ChannelParams, substitution_prob, transmit
from flowmark.qim import qim_embed, qim_extract
from flowmark.traffic import poisson_flow, to_flow, to_ipds


def test_identity_channel():
    flow = poisson_flow(3.3, 500, seed=1)
    out, log = transmit(flow, ChannelParams(seed=0))
    assert np.allclose(out.timestamps, flow.timestamps)
    assert log.n_deleted == 0
    assert log.n_inserted == 0


def test_delete_everything_but_head():
    flow = poisson_flow(3.3, 50, seed=1)
    out, log = transmit(flow, ChannelParams(p_delete=1.0, seed=0))
    assert len(out) == 1
    assert out.timestamps[0] == flow.timestamps[0]
    assert log.n_deleted == 49


def test_log_consistency_across_seeds():
    flow = poisson_flow(3.3, 400, seed=5)
    for seed in range(10):
        params = ChannelParams(sigma=0.01, p_delete=0.1, p_insert=0.1, seed=seed)
        out, log = transmit(flow, params)
        assert len(out) == len(flow) - log.n_deleted + log.n_inserted
        assert log.origins.size == len(out)
        assert np.all(np.diff(log.origins) >= 0)
        # deterministic rerun
        out2, log2 = transmit(flow, params)
        assert np.array_equal(out.timestamps, out2.timestamps)
        assert np.array_equal(log.deleted_indices, log2.deleted_indices)


def test_substitution_prob_values():
    assert substitution_prob(0.1, 0.01) == pytest.approx(0.0145716, rel=1e-4)
    assert substitution_prob(0.1, 0.0) == 0.0
    assert substitution_prob(0.0, 0.05) == 0.5
    # decreasing in delta, increasing in sigma
    assert substitution_prob(0.06, 0.01) > substitution_prob(0.1, 0.01)
    assert substitution_prob(0.1, 0.02) > substitution_prob(0.1, 0.01)


def test_zero_spacing_insertions_extract_as_zero():
    flow = poisson_flow(3.3, 300, seed=2)
    ipds = to_ipds(flow)
    code = np.ones(ipds.size, dtype=np.uint8)  # all-one bits embedded
    marked = to_flow(qim_embed(ipds, code, 0.1), start=0.0)
    out, log = transmit(marked, ChannelParams(p_insert=0.3, seed=3))
    bits = qim_extract(to_ipds(out), 0.1)
    inserted_at = np.nonzero(log.inserted_mask)[0]
    assert inserted_at.size > 0 and inserted_at[0] > 0
    # an inserted packet arrives with the packet before it, its survivor's
    # copy, and descends from the same sent packet
    assert np.array_equal(out.timestamps[inserted_at], out.timestamps[inserted_at - 1])
    assert np.array_equal(log.origins[inserted_at], log.origins[inserted_at - 1])
    # the bit ending at an inserted packet is its zero-length IPD
    assert np.all(bits[inserted_at - 1] == 0)


def test_deletion_merges_ipds_xor():
    flow = poisson_flow(3.3, 400, seed=7)
    ipds = to_ipds(flow)
    rng = np.random.default_rng(0)
    code = rng.integers(0, 2, ipds.size, dtype=np.uint8)
    marked = to_flow(qim_embed(ipds, code, 0.1), start=0.0)
    out, log = transmit(marked, ChannelParams(p_delete=0.2, seed=11))
    bits = qim_extract(to_ipds(out), 0.1)
    # each received IPD merges the embedded bits between consecutive origins
    origins = log.origins
    for r in range(1, len(origins)):
        lo, hi = origins[r - 1], origins[r]
        expect = np.bitwise_xor.reduce(code[lo:hi])
        assert bits[r - 1] == expect


def test_insertion_run_capped():
    flow = poisson_flow(3.3, 2000, seed=9)
    out, log = transmit(flow, ChannelParams(p_insert=0.6, max_insert_run=3, seed=1))
    runs = np.diff(np.nonzero(np.concatenate([[True], ~log.inserted_mask]))[0]) - 1
    assert runs.max(initial=0) <= 3


def test_quantizer_jitter_flip_rate():
    # substitution mode flips each IPD's parity with the modeled probability
    delta, sigma = 0.1, 0.02
    p_expect = substitution_prob(delta, sigma)
    rng = np.random.default_rng(4)
    flips = total = 0
    for t in range(40):
        flow = poisson_flow(3.3, 1001, seed=100 + t)
        code = rng.integers(0, 2, 1000, dtype=np.uint8)
        marked = to_flow(qim_embed(to_ipds(flow), code, delta), start=0.0)
        out, _ = transmit(marked, ChannelParams(
            sigma=sigma, seed=200 + t, jitter="quantizer", delta=delta))
        bits = qim_extract(to_ipds(out), delta)
        flips += int(np.sum(bits[:1000] != code))
        total += 1000
    sd = math.sqrt(p_expect * (1 - p_expect) / total)
    assert abs(flips / total - p_expect) < 4 * sd


def test_laplace_jitter_flip_rate_two_sided():
    # literal zero-mean Laplace jitter crosses the decision boundary from
    # both sides: the realized flip rate is u/(1+u^2), u = exp(-d/(2*sqrt2*s)),
    # about twice substitution_prob().  Large IPDs keep the zero-clamp out
    # of the picture.
    delta, sigma = 0.1, 0.02
    u = math.exp(-delta / (2 * math.sqrt(2) * sigma))
    p_expect = u / (1 + u * u)
    rng = np.random.default_rng(8)
    flips = total = 0
    for t in range(40):
        ipds = rng.uniform(0.5, 1.5, size=1000)
        code = rng.integers(0, 2, 1000, dtype=np.uint8)
        marked = to_flow(qim_embed(ipds, code, delta), start=0.0)
        out, _ = transmit(marked, ChannelParams(sigma=sigma, seed=400 + t))
        bits = qim_extract(to_ipds(out), delta)
        flips += int(np.sum(bits[:1000] != code))
        total += 1000
    sd = math.sqrt(p_expect * (1 - p_expect) / total)
    assert abs(flips / total - p_expect) < 4 * sd
    assert flips / total > 1.8 * substitution_prob(delta, sigma)


def test_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(sigma=-0.1)
    with pytest.raises(ValueError):
        ChannelParams(p_insert=1.0)
    with pytest.raises(ValueError):
        ChannelParams(max_insert_run=0)
    with pytest.raises(ValueError):
        ChannelParams(jitter="quantizer")  # needs delta
    with pytest.raises(ValueError):
        ChannelParams(jitter="bogus")


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda: ChannelParams(p_delete=1.5), "p_delete must lie in [0, 1]",
                 id="p_delete"),
    pytest.param(lambda: substitution_prob(-0.1, 0.01), "delta must be nonnegative", id="delta"),
    pytest.param(lambda: substitution_prob(0.1, -0.01), "sigma must be nonnegative", id="sigma"),
    pytest.param(lambda: substitution_prob(math.nan, 0.01), "delta must be nonnegative",
                 id="delta-nan"),
    pytest.param(lambda: substitution_prob(0.1, math.nan), "sigma must be nonnegative",
                 id="sigma-nan"),
    pytest.param(lambda: ChannelParams(sigma=math.nan), "sigma must be nonnegative",
                 id="params-sigma-nan"),
    pytest.param(lambda: ChannelParams(jitter="quantizer", delta=math.nan),
                 "quantizer jitter needs a positive delta", id="params-delta-nan"),
    pytest.param(lambda: ChannelParams(sigma=math.inf), "sigma must be nonnegative",
                 id="params-sigma-inf"),
    pytest.param(lambda: ChannelParams(jitter="quantizer", delta=math.inf),
                 "quantizer jitter needs a positive delta", id="params-delta-inf"),
])
def test_input_checks(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call()
