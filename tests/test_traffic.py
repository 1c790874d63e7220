import re

import numpy as np
import pytest

from flowmark.traffic import PacketFlow, poisson_flow, read_trace, to_flow, to_ipds, write_trace


def test_poisson_flow_basic():
    flow = poisson_flow(3.3, 2000, seed=1)
    assert len(flow) == 2000
    ipds = to_ipds(flow)
    assert ipds.size == 1999
    assert np.all(ipds >= 0)


def test_poisson_flow_reproducible():
    a = poisson_flow(3.3, 500, seed=42)
    b = poisson_flow(3.3, 500, seed=42)
    assert np.array_equal(a.timestamps, b.timestamps)
    c = poisson_flow(3.3, 500, seed=43)
    assert not np.array_equal(a.timestamps, c.timestamps)


def test_poisson_flow_minimal():
    flow = poisson_flow(1.0, 2, seed=0)
    assert len(flow) == 2
    assert flow.timestamps[1] > flow.timestamps[0]


def test_poisson_flow_mean_within_three_stderr():
    rate = 3.3
    flow = poisson_flow(rate, 2000, seed=7)
    ipds = to_ipds(flow)
    stderr = (1 / rate) / np.sqrt(ipds.size)
    assert abs(ipds.mean() - 1 / rate) < 3 * stderr


def test_poisson_flow_exponential_moments():
    # law of large numbers check on a long run
    rate = 2.0
    flow = poisson_flow(rate, 100_001, seed=3)
    ipds = to_ipds(flow)
    assert ipds.size == 100_000
    assert abs(ipds.mean() - 0.5) / 0.5 < 0.01
    assert abs(ipds.var() - 0.25) / 0.25 < 0.015


def test_poisson_flow_rejects_bad_args():
    with pytest.raises(ValueError):
        poisson_flow(0.0, 100, seed=0)
    with pytest.raises(ValueError):
        poisson_flow(-1.0, 100, seed=0)
    with pytest.raises(ValueError):
        poisson_flow(1.0, 1, seed=0)


def test_to_ipds_examples():
    flow = PacketFlow(np.array([0.0, 0.3, 0.5]))
    assert np.allclose(to_ipds(flow), [0.3, 0.2])
    flow = PacketFlow(np.array([0.0, 0.0, 1.0]))
    assert np.allclose(to_ipds(flow), [0.0, 1.0])


def test_to_flow_examples():
    flow = to_flow(np.array([0.3, 0.2]), start=0.0)
    assert np.allclose(flow.timestamps, [0.0, 0.3, 0.5])
    single = to_flow(np.array([]), start=5.0)
    assert np.allclose(single.timestamps, [5.0])


def test_roundtrip_both_ways(rng):
    for _ in range(50):
        ipds = rng.exponential(0.3, size=rng.integers(1, 40))
        start = float(rng.uniform(0, 10))
        flow = to_flow(ipds, start)
        assert np.allclose(to_ipds(flow), ipds)
        back = to_flow(to_ipds(flow), start=float(flow.timestamps[0]))
        assert np.allclose(back.timestamps, flow.timestamps)


def test_to_flow_rejects_negative():
    with pytest.raises(ValueError):
        to_flow(np.array([0.1, -0.2]))


def test_one_packet_flow_has_no_ipds():
    ipds = to_ipds(PacketFlow(np.array([1.0])))
    assert ipds.size == 0 and ipds.dtype == np.float64


def test_flow_invariants():
    with pytest.raises(ValueError):
        PacketFlow(np.array([0.5, 0.3]))
    with pytest.raises(ValueError):
        PacketFlow(np.array([-1.0, 0.0]))
    with pytest.raises(ValueError):
        PacketFlow(np.array([0.0, np.inf]))


def test_trace_roundtrip(tmp_path):
    flow = poisson_flow(5.0, 300, seed=9)
    path = tmp_path / "flow.txt"
    write_trace(flow, path)
    again = read_trace(path)
    assert np.allclose(again.timestamps, flow.timestamps, atol=1e-9)


def test_trace_parse(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# comment\n0.0\n0.3\n\n0.5\n")
    flow = read_trace(path)
    assert np.allclose(flow.timestamps, [0.0, 0.3, 0.5])


def test_trace_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    for text in ("not-a-number", "nan", "inf", "-inf"):
        bad.write_text(f"0.0\n{text}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: line 2: not a timestamp"):
            read_trace(bad)
    dec = tmp_path / "dec.txt"
    dec.write_text("0.5\n0.3\n")
    with pytest.raises(ValueError, match="decrease"):
        read_trace(dec)


def _written(path, text):
    path.write_text(text)
    return path


@pytest.mark.parametrize("make, fragment", [
    pytest.param(lambda tmp: PacketFlow(np.zeros((2, 2))), "timestamps must be one-dimensional",
                 id="2-d"),
    pytest.param(lambda tmp: PacketFlow(np.zeros(0)), "a flow needs at least one packet",
                 id="empty"),
    pytest.param(lambda tmp: read_trace(_written(tmp / "c.txt", "# only a comment\n\n")),
                 "c.txt: no timestamps found", id="comment-only"),
    pytest.param(lambda tmp: poisson_flow(float("nan"), 100, seed=0), "rate must be positive",
                 id="rate-nan"),
    pytest.param(lambda tmp: poisson_flow(float("inf"), 100, seed=0), "rate must be positive",
                 id="rate-inf"),
])
def test_input_checks(tmp_path, make, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        make(tmp_path)


def test_trace_clamp(tmp_path):
    dec = tmp_path / "dec.txt"
    dec.write_text("0.0\n0.5\n0.4999\n0.8\n")
    flow = read_trace(dec, clamp=True)
    assert np.all(np.diff(flow.timestamps) >= 0)
    assert flow.timestamps[2] == 0.5
