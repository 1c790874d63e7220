import numpy as np
import pytest

from flowmark.analysis import delta_rtt_overlay, ks_distance, mfa_aggregate
from flowmark.traffic import PacketFlow, poisson_flow


def test_ks_identical_samples():
    a = np.array([0.1, 0.2, 0.3])
    res = ks_distance(a, a.copy())
    assert res.distance == 0.0
    assert res.indistinguishable


def test_ks_disjoint_supports():
    res = ks_distance([1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
    assert res.distance == 1.0
    assert not res.indistinguishable


def test_ks_symmetric_and_bounded(rng):
    for _ in range(20):
        a = rng.exponential(1.0, size=rng.integers(5, 200))
        b = rng.exponential(1.3, size=rng.integers(5, 200))
        d1 = ks_distance(a, b).distance
        d2 = ks_distance(b, a).distance
        assert d1 == d2
        assert 0.0 <= d1 <= 1.0


def test_ks_monotone_rescale_invariant(rng):
    a = rng.exponential(1.0, size=100)
    b = rng.exponential(1.5, size=80)
    base = ks_distance(a, b).distance
    assert ks_distance(np.sqrt(a), np.sqrt(b)).distance == pytest.approx(base)
    assert ks_distance(3 * a + 1, 3 * b + 1).distance == pytest.approx(base)


def test_ks_zero_iff_same_multiset(rng):
    a = rng.exponential(1.0, size=64)
    b = rng.permutation(a)
    assert ks_distance(a, b).distance == 0.0
    b2 = b.copy()
    b2[0] += 0.5
    assert ks_distance(a, b2).distance > 0.0


def test_ks_empty_rejected():
    with pytest.raises(ValueError):
        ks_distance([], [1.0])


def test_mfa_binning_example():
    flow = PacketFlow(np.array([0.0, 0.05, 0.21]))
    res = mfa_aggregate([flow], 0.07)
    assert res.total_intervals == 3
    assert list(res.counts) == [2, 0, 1]
    assert res.blank_count == 1


def test_mfa_single_packet():
    res = mfa_aggregate([PacketFlow(np.array([4.0]))], 0.5)
    assert res.total_intervals == 1
    assert res.blank_count == 0
    assert res.counts.sum() == 1


def test_mfa_count_conservation(rng):
    flows = [poisson_flow(2.0, int(rng.integers(10, 200)), seed=i) for i in range(5)]
    res = mfa_aggregate(flows, 0.1)
    assert int(res.counts.sum()) == sum(len(f) for f in flows)
    assert res.blank_count == int(np.count_nonzero(res.counts == 0))
    assert res.blank_count <= res.total_intervals


def test_mfa_adding_packets_never_raises_blanks(rng):
    flows = [poisson_flow(1.0, 50, seed=i) for i in range(3)]
    base = mfa_aggregate(flows, 0.25)
    more = flows + [poisson_flow(1.0, 50, seed=99)]
    denser = mfa_aggregate(more, 0.25)
    # compare over the shared fully-aligned bins (last bin edge may differ)
    k = min(base.total_intervals, denser.total_intervals) - 1
    assert np.all(denser.counts[:k] >= base.counts[:k])
    assert int(np.count_nonzero(denser.counts[:k] == 0)) <= int(
        np.count_nonzero(base.counts[:k] == 0))


def test_mfa_last_edge_covers_the_span():
    # ceil(span / interval) * interval rounds to 0.77, below the span
    # 0.7700000000000001: the last edge is raised to the span, so the last
    # packet is counted in the 11th bin, not dropped past the edges
    res = mfa_aggregate([PacketFlow(np.array([0.0, 0.3, 0.7700000000000001]))], 0.07)
    assert res.total_intervals == 11
    assert list(res.counts) == [1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1]


def test_mfa_validation():
    with pytest.raises(ValueError):
        mfa_aggregate([], 0.1)
    with pytest.raises(ValueError):
        mfa_aggregate([PacketFlow(np.array([0.0]))], 0.0)
    for interval in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="interval must be positive"):
            mfa_aggregate([PacketFlow(np.array([0.0]))], interval)


def test_ks_threshold_range():
    for threshold in (float("nan"), -0.1, 1.5):
        with pytest.raises(ValueError, match=r"threshold must lie in \[0, 1\]"):
            ks_distance([1.0], [2.0], threshold=threshold)


def test_drtt_zero_delays():
    rtts = np.linspace(0.05, 0.051, 100)
    res = delta_rtt_overlay(rtts, np.zeros(50))
    assert res.ks.distance == 0.0


def test_drtt_constant_delay_cancels(rng):
    # differencing kills constant shifts up to float round-off
    rtts = 0.05 + rng.laplace(0, 0.001, size=500)
    res = delta_rtt_overlay(rtts, np.full(500, 0.02))
    assert res.ks.distance <= 0.01
    assert np.allclose(res.marked_deltas, res.raw_deltas, atol=1e-12)


def test_drtt_varying_delays_show(rng):
    rtts = 0.05 + rng.laplace(0, 0.0016 / np.sqrt(2), size=2000)
    delays = rng.uniform(0, 0.01, size=1000)
    res = delta_rtt_overlay(rtts, delays)
    assert res.ks.distance > 0.0
    assert res.raw_deltas.size == 1999


def test_drtt_validation():
    with pytest.raises(ValueError):
        delta_rtt_overlay([0.05], [])
    with pytest.raises(ValueError):
        delta_rtt_overlay([0.05, 0.06], [0.0, 0.0, 0.0])
