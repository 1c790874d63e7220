import re

import numpy as np
import pytest

from flowmark.idscode import (
    WatermarkConfig,
    as_bits,
    encode,
    keystream,
    sparsify,
    watermark_bits,
)
from reference import unsparsify


def test_sparsify_single_bit():
    assert np.array_equal(sparsify([1], 8), [1, 0, 0, 0, 0, 0, 0, 0])


def test_sparsify_all_zero():
    assert np.array_equal(sparsify([0, 0], 3), [0] * 6)


def test_sparsify_block_rule():
    assert np.array_equal(sparsify([1, 1], 2), [1, 0, 1, 0])


def test_sparsify_preserves_ones(rng):
    for _ in range(20):
        w = rng.integers(0, 2, size=rng.integers(1, 30), dtype=np.uint8)
        s = int(rng.integers(1, 12))
        out = sparsify(w, s)
        assert out.size == w.size * s
        assert out.sum() == w.sum()
        assert np.array_equal(unsparsify(out, s), w)


def test_keystream_deterministic():
    assert np.array_equal(keystream(42, 16), keystream(42, 16))
    assert keystream(7, 0).size == 0


def test_keystream_seed_separation():
    n = 10_000
    a, b = keystream(42, n), keystream(43, n)
    ham = int(np.sum(a != b))
    # different seeds disagree on about half the bits
    assert abs(ham - n / 2) < 4 * np.sqrt(n * 0.25)


def test_keystream_roughly_balanced():
    bits = keystream(5, 20_000)
    assert abs(bits.mean() - 0.5) < 0.02


def test_encode_known_vector():
    # one bit spread over 8 positions, then xor with the key
    cfg = WatermarkConfig(watermark=[1], spread=8, delta=0.1, key_seed=0)
    key = np.array([1, 1, 1, 1, 1, 0, 1, 1], dtype=np.uint8)
    manual = np.bitwise_xor(sparsify([1], 8), key)
    assert np.array_equal(manual, [0, 1, 1, 1, 1, 0, 1, 1])
    assert np.array_equal(np.bitwise_xor(encode([1], cfg), keystream(0, 8)),
                          sparsify([1], 8))


def test_encode_zero_watermark_is_key():
    cfg = WatermarkConfig(watermark=[0, 0, 0], spread=4, delta=0.1, key_seed=11)
    assert np.array_equal(encode([0, 0, 0], cfg), keystream(11, 12))


def test_encode_xor_involution(rng):
    for _ in range(20):
        n, s = int(rng.integers(1, 12)), int(rng.integers(1, 8))
        w = rng.integers(0, 2, n, dtype=np.uint8)
        cfg = WatermarkConfig(watermark=w, spread=s, delta=0.05,
                              key_seed=int(rng.integers(0, 1000)))
        x = encode(w, cfg)
        key = keystream(cfg.key_seed, cfg.code_len)
        assert np.array_equal(np.bitwise_xor(x, key), sparsify(w, s))
        # codeword stays within popcount(w) of the key
        assert int(np.sum(x != key)) == int(w.sum())


def test_encode_length_mismatch():
    cfg = WatermarkConfig(watermark=[1, 0], spread=3, delta=0.1, key_seed=1)
    with pytest.raises(ValueError):
        encode([1, 0, 1], cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        WatermarkConfig(watermark=[1], spread=0, delta=0.1, key_seed=1)
    with pytest.raises(ValueError):
        WatermarkConfig(watermark=[1], spread=2, delta=0.0, key_seed=1)
    with pytest.raises(ValueError):
        WatermarkConfig(watermark=[2], spread=2, delta=0.1, key_seed=1)


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda: as_bits([[0, 1]]), "bit sequence must be one-dimensional", id="2-d"),
    pytest.param(lambda: sparsify([1], 0), "spread factor must be a positive integer",
                 id="spread"),
    pytest.param(lambda: keystream(1, -1), "length must be nonnegative", id="key-length"),
    pytest.param(lambda: watermark_bits(1, 0), "watermark length must be positive", id="n"),
    pytest.param(lambda: WatermarkConfig([1], 2, float("nan"), 1), "delta must be positive",
                 id="delta-nan"),
    pytest.param(lambda: WatermarkConfig([1], 2, float("inf"), 1), "delta must be positive",
                 id="delta-inf"),
])
def test_input_checks(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call()


def test_watermark_bits_deterministic():
    assert np.array_equal(watermark_bits(3, 50), watermark_bits(3, 50))
    assert watermark_bits(3, 50).size == 50
