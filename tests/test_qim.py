import numpy as np
import pytest
from reference import loop_qim_embed

from flowmark.idscode import WatermarkConfig, encode, watermark_bits
from flowmark.qim import embed_flow, qim_embed, qim_extract
from flowmark.traffic import poisson_flow, to_flow, to_ipds


def _ulps(value):
    """value and its two floating-point neighbours, below first."""
    return np.array([np.nextafter(value, -np.inf), value, np.nextafter(value, np.inf)])


def test_embed_known_values():
    assert np.allclose(qim_embed(np.array([0.25]), np.array([0]), 0.1), [0.3])
    assert np.allclose(qim_embed(np.array([0.25]), np.array([1]), 0.1), [0.35])


def test_embed_exact_multiple_adds_nothing():
    # already on an even quantizer: a zero bit costs no delay
    assert np.allclose(qim_embed(np.array([0.2]), np.array([0]), 0.1), [0.2])
    assert np.allclose(qim_embed(np.array([0.2]), np.array([1]), 0.1), [0.25])
    # no code bits: every IPD passes through
    assert np.allclose(qim_embed(np.array([0.25, 0.1]), [], 0.1), [0.25, 0.1])


def test_extract_known_values():
    assert qim_extract(np.array([0.35]), 0.1)[0] == 1
    assert qim_extract(np.array([0.0]), 0.1)[0] == 0
    assert qim_extract(np.array([0.074]), 0.1)[0] == 1
    assert qim_extract(np.array([0.30]), 0.1)[0] == 0
    # a lattice point's floating-point neighbours read the same bit
    assert np.array_equal(qim_extract(_ulps(0.30), 0.1), [0, 0, 0])
    assert np.array_equal(qim_extract(_ulps(0.35), 0.1), [1, 1, 1])


def test_extract_tie_rounds_down():
    # fractional part exactly 0.5 keeps the floor quantizer
    assert qim_extract(np.array([0.025]), 0.1)[0] == 0
    assert qim_extract(np.array([0.075]), 0.1)[0] == 1
    # one ulp past a tie reads the upper point, one ulp short the lower
    assert np.array_equal(qim_extract(_ulps(0.025), 0.1), [0, 0, 1])
    assert np.array_equal(qim_extract(_ulps(0.075), 0.1), [1, 1, 0])


def test_embed_matches_reference_loop(rng):
    # operating-point flows: byte-identical to the per-packet loop
    delta = 0.1
    for seed in range(300):
        w = watermark_bits(seed, 50)
        code = encode(w, WatermarkConfig(watermark=w, spread=10, delta=delta,
                                         key_seed=seed + 1))
        ipds = to_ipds(poisson_flow(3.3, 2000, seed=1000 + seed))
        assert qim_embed(ipds, code, delta).tobytes() == \
            loop_qim_embed(ipds, code, delta).tobytes(), seed
    # small cases: gaps on the lattice, zero IPDs, long gaps, empty codes;
    # past the code the loop's running sum may round differently
    for case in range(4000):
        delta = float(rng.choice([0.1, 0.08, 0.05, 0.03]))
        n = int(rng.integers(0, 12))
        size = n + int(rng.integers(0, 10))
        kind = case % 4
        if kind == 0:
            ipds = rng.integers(0, 8, size) * (delta / 2)
        elif kind == 1:
            ipds = rng.exponential(0.3, size) * (rng.random(size) < 0.6)
        elif kind == 2:
            ipds = rng.exponential(0.3, size)
            ipds[rng.random(size) < 0.2] *= 50.0
        else:
            ipds = rng.integers(0, 5, size) * delta
        code = rng.integers(0, 2, n, dtype=np.uint8)
        got = qim_embed(ipds, code, delta)
        want = loop_qim_embed(ipds, code, delta)
        assert got[:n].tobytes() == want[:n].tobytes(), case
        assert np.allclose(got[n:], want[n:], rtol=0.0, atol=1e-12), case


def test_noiseless_roundtrip(rng):
    delta = 0.1
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        ipds = rng.exponential(0.3, size=n)
        code = rng.integers(0, 2, n, dtype=np.uint8)
        marked = qim_embed(ipds, code, delta)
        assert np.array_equal(qim_extract(marked, delta), code)


def test_embedded_ipds_on_half_step_lattice(rng):
    delta = 0.08
    ipds = rng.exponential(0.25, size=200)
    code = rng.integers(0, 2, 200, dtype=np.uint8)
    marked = qim_embed(ipds, code, delta)
    steps = marked / (delta / 2)
    assert np.allclose(steps, np.round(steps), atol=1e-9)
    assert np.array_equal(np.round(steps).astype(int) % 2, code)


def test_delay_only_and_step_bound(rng):
    # packets are never advanced; each step's quantization delay is
    # below 1.5 * delta relative to the earliest admissible send time
    delta = 0.1
    for trial in range(30):
        ipds = rng.exponential(0.3, size=120)
        code = rng.integers(0, 2, 120, dtype=np.uint8)
        marked = qim_embed(ipds, code, delta)
        cum_orig = np.cumsum(ipds)
        cum_marked = np.cumsum(marked)
        assert np.all(cum_marked >= cum_orig - 1e-12)
        gap = np.maximum(cum_orig - np.concatenate([[0.0], cum_marked[:-1]]), 0.0)
        assert np.all(marked - gap <= 1.5 * delta + 1e-12)


def test_trailing_ipds_not_advanced(rng):
    delta = 0.1
    ipds = rng.exponential(0.3, size=50)
    code = rng.integers(0, 2, 20, dtype=np.uint8)
    marked = qim_embed(ipds, code, delta)
    cum_orig = np.cumsum(ipds)
    cum_marked = np.cumsum(marked)
    assert np.all(cum_marked >= cum_orig - 1e-12)
    # once the embedding delay is absorbed, trailing packets keep their times
    tail_delay = cum_marked[-1] - cum_orig[-1]
    assert tail_delay < 1.5 * delta + 1e-12


def test_flip_radius():
    # a bit flips exactly when the perturbation passes delta/4
    delta = 0.1
    eps = 1e-6
    marked = qim_embed(np.array([0.3]), np.array([0]), delta)
    for offset, expected in [
        (delta / 4 - eps, 0),
        (delta / 4 + eps, 1),
        (-delta / 4 + eps, 0),
        (-(delta / 4) - eps, 1),
    ]:
        got = qim_extract(marked + offset, delta)[0]
        assert got == expected, offset


def test_embed_flow_returns_delays():
    flow = poisson_flow(3.3, 300, seed=2)
    code = np.array([1, 0, 1, 1] * 25, dtype=np.uint8)
    marked, delays = embed_flow(flow, code, 0.1)
    assert len(marked) == len(flow)
    assert delays[0] == 0.0
    assert np.all(delays >= -1e-12)
    assert np.array_equal(qim_extract(to_ipds(marked), 0.1)[:100], code)


def test_embed_validation():
    with pytest.raises(ValueError):
        qim_embed(np.array([0.1, 0.2]), np.array([1, 0, 1]), 0.1)
    with pytest.raises(ValueError):
        qim_embed(np.array([0.1]), np.array([1]), -0.5)
    with pytest.raises(ValueError):
        qim_embed(np.array([-0.1]), np.array([1]), 0.1)
    with pytest.raises(ValueError, match="must be 0 or 1"):
        qim_embed(np.array([0.1]), np.array([2]), 0.1)
    with pytest.raises(ValueError, match="delta must be positive"):
        qim_extract(np.array([0.1]), 0.0)
    for delta in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="delta must be positive"):
            qim_embed(np.array([0.1]), np.array([1]), delta)
        with pytest.raises(ValueError, match="delta must be positive"):
            qim_extract(np.array([0.1]), delta)
