import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowmark import traffic
from flowmark.traffic import (PacketFlow, poisson_flow, read_trace, read_values, to_flow, to_ipds,
                              write_trace)
from reference import read_values_per_line


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
    # what write_trace promises: each timestamp is its 9-decimal text's value
    written = np.array([float(f"{t:.9f}") for t in flow.timestamps])
    assert again.timestamps.tobytes() == written.tobytes()


def test_rtt_file_roundtrip(tmp_path, rng):
    # an RTT file, as `flowmark drtt` reads it: not monotonic, values exact
    rtts = rng.uniform(0.02, 0.3, 500)
    path = tmp_path / "rtt.txt"
    path.write_text("# rtt, seconds\n" + "".join(f"{v:.9f}\n" for v in rtts))
    got = read_values(path, "an RTT")
    assert got.dtype == np.float64
    assert got.tobytes() == np.array([float(f"{v:.9f}") for v in rtts]).tobytes()
    path.write_text("0.1\n0.2\noops\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: not an RTT: 'oops'$"):
        read_values(path, "an RTT")


def test_read_values_names_a_line_that_is_not_utf8(tmp_path, monkeypatch):
    # a byte that does not decode is a bad value of its own line, after
    # any bad line before it, and before any after it, blocks apart, and
    # is found in the one pass that reads the values
    opens = []

    def counting_open(*args, **kwargs):
        opens.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(traffic, "open", counting_open, raising=False)
    path = tmp_path / "rtt.txt"
    path.write_bytes(b"0.050\n# note\n0.\xe9\n0.060\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: not an RTT: "
                                         + re.escape(repr(b"0.\xe9")) + "$"):
        read_values(path, "an RTT")
    lines = [b"0.1"] * 20_000
    lines[5], lines[19_000] = b"oops", b"\xff"
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(ValueError, match=r": line 6: not an RTT: 'oops'$"):
        read_values(path, "an RTT")
    lines[5] = b"0.2"
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(ValueError, match=r": line 19001: not an RTT: b'\\xff'$"):
        read_values(path, "an RTT")
    assert opens == [path] * 3


def _read_outcome(reader, path):
    """The values a reader returns, as float64 bytes, or its error message."""
    try:
        return np.asarray(reader(path, "a value"), dtype=np.float64).tobytes(), None
    except ValueError as err:
        return None, str(err)


# line kinds: values as write_trace and repr write them, padded values,
# blank and whitespace-only lines, comments (indented or not), and tokens
# that float() treats oddly: accepted (1_0), refused, or non-finite
_value_lines = st.one_of(
    st.floats(0.0, 1e7).map(lambda t: f"{t:.9f}"),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map(lambda t: f" \t{t!r}  "),
)
_skipped_lines = st.sampled_from(["", "   ", "\t", "# comment", "   # indented", "\t#"])
# odd lines also hold bytes that are not UTF-8, bare or in a value or comment
_odd_lines = st.one_of(
    st.sampled_from(["1_0", "0x1p3", "1 2", ".", "nan", "-inf", "1e400", " inf "])
    .map(str.encode),
    st.sampled_from([b"\xe9", b"0.\xff", b"# caf\xe9", b" 1.5\xed\xa0\x80 ", b"\xe2\x82"]),
)


@st.composite
def _trace_bytes(draw):
    lines = [x.encode() for x in draw(st.lists(st.one_of(_value_lines, _skipped_lines),
                                                 max_size=40))]
    for odd in draw(st.lists(_odd_lines, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), odd)
    end = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    last = end if lines and draw(st.booleans()) else b""
    return end.join(lines) + last


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_trace_bytes(), block_chars=st.sampled_from([1, 16, 100, traffic.READ_BLOCK_CHARS]))
def test_read_values_matches_per_line_reader(tmp_path, data, block_chars):
    # the block reader against a line loop over the file's bytes:
    # bitwise-equal values or the same error, with blocks as short as one
    # line, so that refused, undecodable and skipped lines fall on every
    # side of a block's edge
    path = tmp_path / "t.txt"
    path.write_bytes(data)
    with mock.patch.object(traffic, "READ_BLOCK_CHARS", block_chars):
        assert _read_outcome(read_values, path) == _read_outcome(read_values_per_line, path)


@pytest.mark.parametrize("line", ["bad", "nan", "", "  # note", "1_0"])
def test_read_values_past_the_first_block(tmp_path, line):
    # line 20,000 lies several blocks into the file: a refused line there
    # names its own line number, and a skipped or odd one shifts nothing
    lines = [f"{t:.9f}" for t in poisson_flow(3.3, 30_000, seed=4).timestamps]
    assert sum(len(x) + 1 for x in lines[:19_999]) > 2 * traffic.READ_BLOCK_CHARS
    lines[19_999] = line
    path = tmp_path / "long.txt"
    path.write_text("\n".join(lines) + "\n")
    got = _read_outcome(read_values, path)
    assert got == _read_outcome(read_values_per_line, path)
    if line in ("bad", "nan"):
        assert got[1] == f"{path}: line 20000: not a value: {line!r}"


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
    pytest.param(lambda tmp: read_trace(_written(tmp / "e.txt", "")),
                 "e.txt: no timestamps found", id="empty-file"),
    *(pytest.param(lambda tmp, clamp=clamp: read_trace(_written(tmp / "neg.txt", "-1.0\n0.5\n"),
                                                       clamp=clamp),
                   "neg.txt: negative timestamp at entry 1", id=f"negative-first-clamp-{clamp}")
      for clamp in (False, True)),
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
