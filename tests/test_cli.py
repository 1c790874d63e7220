import dataclasses
import json
import math
import re

import numpy as np
import pytest

from flowmark.cli import build_parser, load_config, main
from flowmark.experiment import ExperimentConfig, grid_cells


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_and_pipeline(tmp_path, capsys):
    flow = tmp_path / "flow.txt"
    marked = tmp_path / "marked.txt"
    side = tmp_path / "side.json"
    recv = tmp_path / "recv.txt"
    log = tmp_path / "log.json"

    code, out, _ = run_cli(capsys, "gen", "--rate", "3.3", "--count", "400",
                           "--seed", "3", "--out", str(flow))
    assert code == 0 and json.loads(out)["packets"] == 400

    code, out, _ = run_cli(capsys, "embed", str(flow), "--out", str(marked),
                           "--sidecar", str(side), "--n", "10", "--spread", "5",
                           "--delta-ms", "100", "--key-seed", "5", "--wm-seed", "2")
    assert code == 0
    sidecar = json.loads(side.read_text())
    assert sidecar["code_len"] == 50
    assert len(sidecar["delays"]) == 400

    code, out, _ = run_cli(capsys, "transmit", str(marked), "--out", str(recv),
                           "--log", str(log), "--sigma-ms", "10", "--p-d", "0.1",
                           "--seed", "9", "--jitter", "quantizer",
                           "--delta-ms", "100")
    assert code == 0

    code, out, err = run_cli(capsys, "decode", str(recv), "--sidecar", str(side),
                             "--log", str(log), "--sigma-ms", "10", "--p-d", "0.1")
    assert code == 0
    report = json.loads(out)
    assert report["score"] >= 0.8
    assert report["detected"] is True
    assert report["status"] == "ok" and err == ""

    # the whole received stream runs past the watermarked segment; without
    # insertions the extra bits are impossible, which is reported, not hidden
    code, out, err = run_cli(capsys, "decode", str(recv), "--sidecar", str(side),
                             "--sigma-ms", "10", "--p-d", "0.1")
    assert code == 0
    assert json.loads(out)["status"] == "zero-evidence"
    assert len(err.splitlines()) == 1
    assert json.loads(err)["warning"] == "zero-evidence"


def _marked_and_received(tmp_path, capsys, seeds):
    # the README pipeline on a short flow, one reception per channel seed;
    # returns the sidecar and one (trace, log) pair per seed
    flow, marked, side = tmp_path / "flow.txt", tmp_path / "marked.txt", tmp_path / "side.json"
    run_cli(capsys, "gen", "--rate", "3.3", "--count", "400", "--seed", "3", "--out", str(flow))
    run_cli(capsys, "embed", str(flow), "--out", str(marked), "--sidecar", str(side),
            "--n", "10", "--spread", "5", "--delta-ms", "100", "--key-seed", "5",
            "--wm-seed", "2")
    received = []
    for seed in seeds:
        recv, log = tmp_path / f"recv{seed}.txt", tmp_path / f"log{seed}.json"
        code, _, _ = run_cli(capsys, "transmit", str(marked), "--out", str(recv),
                             "--log", str(log), "--sigma-ms", "10", "--p-d", "0.1",
                             "--seed", str(seed), "--jitter", "quantizer",
                             "--delta-ms", "100")
        assert code == 0
        received.append((recv, log))
    return side, received


def _library_decode(side, recv, log, **law):
    # what `flowmark decode --log` should report: the segment-cut bits
    # decoded under the harness's law for the same numbers
    from flowmark.cli import _sidecar_config
    from flowmark.decoder import decode
    from flowmark.qim import qim_extract
    from flowmark.traffic import read_trace, to_ipds

    cfg = _sidecar_config(json.loads(side.read_text()))
    origins = np.asarray(json.loads(log.read_text())["origins"])
    y = qim_extract(to_ipds(read_trace(recv)), cfg.delta)
    y = y[: int(np.count_nonzero(origins[1:] <= cfg.code_len))]
    params = grid_cells(ExperimentConfig(delta_ms=cfg.delta * 1000.0, **law))[0].law
    return decode(y, cfg, params, cfg.watermark).to_dict()


def test_decode_law_matches_harness(tmp_path, capsys):
    side, [(recv, log)] = _marked_and_received(tmp_path, capsys, [9])
    decode = ["decode", str(recv), "--sidecar", str(side), "--log", str(log)]
    code, out, _ = run_cli(capsys, *decode, "--sigma-ms", "20", "--p-d", "0.05",
                           "--p-i", "0.02")
    assert code == 0
    assert json.loads(out) == _library_decode(side, recv, log, sigma_ms=20.0,
                                              p_d=0.05, p_i=0.02)
    # a certain drop decodes as one, as the harness does: the segment's
    # bits are impossible under it, which is reported, not hidden
    code, out, err = run_cli(capsys, *decode, "--sigma-ms", "10", "--p-d", "1")
    assert code == 0
    assert json.loads(out) == _library_decode(side, recv, log, sigma_ms=10.0, p_d=1.0)
    assert json.loads(out)["status"] == "zero-evidence"
    assert json.loads(err)["warning"] == "zero-evidence"


def test_old_sidecar_density_key_is_ignored(tmp_path, capsys):
    # sidecars written before the decoder took the code's own law carry a
    # density key; it no longer means anything, and such a sidecar
    # decodes to the same report as one without it
    side, [(recv, log)] = _marked_and_received(tmp_path, capsys, [9])
    sidecar = json.loads(side.read_text())
    assert "density" not in sidecar
    old = tmp_path / "old_side.json"
    old.write_text(json.dumps({**sidecar, "density": 0.05}))
    reports = []
    for path in (side, old):
        code, out, _ = run_cli(capsys, "decode", str(recv), "--sidecar", str(path),
                               "--log", str(log), "--sigma-ms", "10", "--p-d", "0.1")
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0] == reports[1]


def test_density_knob_is_gone(tmp_path, capsys):
    flow = tmp_path / "flow.txt"
    run_cli(capsys, "gen", "--rate", "3.3", "--count", "100", "--out", str(flow))
    with pytest.raises(SystemExit) as exc:
        main(["embed", str(flow), "--out", str(tmp_path / "m.txt"), "--sidecar",
              str(tmp_path / "s.json"), "--density", "0.05"])
    assert exc.value.code == 2
    assert "--density" in capsys.readouterr().err
    # so are three more deleted settings: the head always
    # survives, inserted packets arrive with their survivor, and trace_dir
    # alone selects trace traffic
    for key in ("density=0.05", "protect_first=off", "insert_spacing_ms=2",
                "source=poisson"):
        code, out, err = run_cli(capsys, "experiment", "--set", key)
        assert code == 1 and out == ""
        assert f"unknown key {key.split('=')[0]!r}" in json.loads(err)["message"]
    for flag in (["--no-protect-first"], ["--insert-spacing-ms", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(["transmit", str(flow), "--out", str(tmp_path / "r.txt"), *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err


def test_decode_rejects_other_transmissions_log(tmp_path, capsys):
    # a log describes one reception; applied to another it would cut the
    # bits at the wrong place
    side, [(recv_a, _), (recv_b, log_b)] = _marked_and_received(tmp_path, capsys, [9, 10])
    n_a, n_b = (len(p.read_text().splitlines()) for p in (recv_a, recv_b))
    assert n_a != n_b
    code, out, err = run_cli(capsys, "decode", str(recv_a), "--sidecar", str(side),
                             "--log", str(log_b), "--sigma-ms", "10", "--p-d", "0.1")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert str(n_a) in payload["message"] and str(n_b) in payload["message"]


def test_decode_rejects_log_with_nbits(tmp_path, capsys):
    # both set the segment length; one of them would be silently dropped
    side, [(recv, log)] = _marked_and_received(tmp_path, capsys, [9])
    code, out, err = run_cli(capsys, "decode", str(recv), "--sidecar", str(side),
                             "--log", str(log), "--nbits", "10", "--p-d", "0.1")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert "--log" in payload["message"] and "--nbits" in payload["message"]


def test_decode_unclosable_stream_at_small_cap(tmp_path, capsys):
    # without insertions no cap closes the whole received stream, which
    # runs past the code: a small --d-max reads zero evidence, as the
    # default cap does, instead of demanding a wider cap
    side, [(recv, _)] = _marked_and_received(tmp_path, capsys, [9])
    code, out, err = run_cli(capsys, "decode", str(recv), "--sidecar", str(side),
                             "--sigma-ms", "10", "--p-d", "0.1", "--d-max", "5")
    assert code == 0
    assert json.loads(out)["status"] == "zero-evidence"
    assert json.loads(err)["warning"] == "zero-evidence"


def test_decode_narrow_cap_decodes_at_the_floor(tmp_path, capsys):
    # the README pipeline: its segment is 40-odd bits short of the code, so
    # --d-max 3 is floored at the length mismatch plus 2 and decodes as the
    # default cap does
    flow, marked, side = tmp_path / "flow.txt", tmp_path / "marked.txt", tmp_path / "side.json"
    recv, log = tmp_path / "recv.txt", tmp_path / "chan.json"
    run_cli(capsys, "gen", "--rate", "3.3", "--count", "2000", "--seed", "1", "--out", str(flow))
    run_cli(capsys, "embed", str(flow), "--out", str(marked), "--sidecar", str(side),
            "--n", "50", "--spread", "10", "--delta-ms", "100", "--key-seed", "7",
            "--wm-seed", "3")
    run_cli(capsys, "transmit", str(marked), "--out", str(recv), "--log", str(log),
            "--sigma-ms", "10", "--p-d", "0.1", "--seed", "9", "--jitter", "quantizer",
            "--delta-ms", "100")
    decode = ["decode", str(recv), "--sidecar", str(side), "--log", str(log),
              "--sigma-ms", "10", "--p-d", "0.1"]
    code, default, _ = run_cli(capsys, *decode)
    assert code == 0
    code, narrow, err = run_cli(capsys, *decode, "--d-max", "3")
    assert code == 0 and err == ""
    assert narrow == default
    assert json.loads(narrow)["status"] == "ok" and json.loads(narrow)["detected"] is True


def test_embed_wm_bits_excludes_derived_watermark(tmp_path, capsys):
    # --wm-bits gives the watermark; --n and --wm-seed would derive another
    flow = tmp_path / "flow.txt"
    run_cli(capsys, "gen", "--rate", "2.0", "--count", "200", "--seed", "1",
            "--out", str(flow))
    embed = ["embed", str(flow), "--out", str(tmp_path / "m.txt"), "--spread", "2"]
    for extra in (["--n", "10"], ["--wm-seed", "3"]):
        side = tmp_path / "s.json"
        code, out, err = run_cli(capsys, *embed, "--sidecar", str(side),
                                 "--wm-bits", "0101", *extra)
        assert code == 1 and out == "" and not side.exists()
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "--wm-bits" in payload["message"] and extra[0] in payload["message"]
    code, _, _ = run_cli(capsys, *embed, "--sidecar", str(tmp_path / "bits.json"),
                         "--wm-bits", "0101")
    assert code == 0
    assert json.loads((tmp_path / "bits.json").read_text())["watermark"] == [0, 1, 0, 1]
    # without either, the watermark is the one of --n 50 --wm-seed 0
    sides = [tmp_path / "default.json", tmp_path / "explicit.json"]
    for side, extra in zip(sides, ([], ["--n", "50", "--wm-seed", "0"])):
        code, _, _ = run_cli(capsys, *embed, "--sidecar", str(side), *extra)
        assert code == 0
    assert sides[0].read_bytes() == sides[1].read_bytes()


def test_embed_then_decode_clean_roundtrip(tmp_path, capsys):
    flow = tmp_path / "flow.txt"
    marked = tmp_path / "marked.txt"
    side = tmp_path / "side.json"
    run_cli(capsys, "gen", "--rate", "2.0", "--count", "200", "--seed", "1",
            "--out", str(flow))
    run_cli(capsys, "embed", str(flow), "--out", str(marked), "--sidecar",
            str(side), "--n", "12", "--spread", "6", "--delta-ms", "80")
    code, out, _ = run_cli(capsys, "decode", str(marked), "--sidecar", str(side),
                           "--nbits", "72", "--sigma-ms", "0.0")
    assert code == 0
    assert json.loads(out)["score"] == 1.0


def test_decode_nbits_range(tmp_path, capsys):
    # --nbits takes 0 up to the received bit count; a value past either
    # end is an error, not a slice that cuts the stream somewhere else
    flow = tmp_path / "flow.txt"
    marked = tmp_path / "marked.txt"
    side = tmp_path / "side.json"
    run_cli(capsys, "gen", "--rate", "2.0", "--count", "200", "--seed", "1",
            "--out", str(flow))
    run_cli(capsys, "embed", str(flow), "--out", str(marked), "--sidecar",
            str(side), "--n", "12", "--spread", "6", "--delta-ms", "80")
    decode = ["decode", str(marked), "--sidecar", str(side), "--sigma-ms", "0.0"]
    for nbits in ("-1300", "100000"):
        code, out, err = run_cli(capsys, *decode, "--nbits", nbits)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert f"--nbits {nbits}" in payload["message"] and "199" in payload["message"]
    for nbits in ("0", "199"):
        code, out, _ = run_cli(capsys, *decode, "--nbits", nbits)
        assert code == 0 and "score" in json.loads(out)


def test_embed_too_short_names_requirement(tmp_path, capsys):
    flow = tmp_path / "flow.txt"
    run_cli(capsys, "gen", "--rate", "2.0", "--count", "50", "--seed", "1",
            "--out", str(flow))
    code, out, err = run_cli(capsys, "embed", str(flow), "--out",
                             str(tmp_path / "m.txt"), "--sidecar",
                             str(tmp_path / "s.json"), "--n", "10",
                             "--spread", "5")
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert "51" in payload["message"]


def test_extract_command(tmp_path, capsys):
    flow = tmp_path / "flow.txt"
    flow.write_text("0.0\n0.30\n0.65\n")
    code, out, _ = run_cli(capsys, "extract", str(flow), "--delta-ms", "100")
    assert code == 0
    assert out.strip() == "01"


def test_nan_and_out_of_range_values_are_errors(tmp_path, capsys):
    # NaN and infinity fail every range check, and a threshold lies in
    # [0, 1]: each of these exits 1 with the error JSON, naming the value
    side, [(recv, log)] = _marked_and_received(tmp_path, capsys, [9])
    decode = ["decode", str(recv), "--sidecar", str(side), "--log", str(log)]
    transmit = ["transmit", str(recv), "--out", str(tmp_path / "r.txt")]
    cases = [
        (["extract", str(recv), "--delta-ms", "nan"], "delta must be positive"),
        ([*transmit, "--sigma-ms", "nan", "--jitter", "quantizer", "--delta-ms", "100"],
         "sigma must be nonnegative"),
        (["extract", str(recv), "--delta-ms", "inf"], "delta must be positive"),
        (["mfa", str(recv), "--interval-ms", "inf"], "interval must be positive"),
        ([*transmit, "--jitter", "quantizer", "--delta-ms", "inf"],
         "quantizer jitter needs a positive delta"),
        (["gen", "--rate", "inf", "--count", "10", "--out", str(tmp_path / "g.txt")],
         "rate must be positive"),
        ([*transmit, "--sigma-ms", "inf"], "sigma must be nonnegative"),
        ([*decode, "--sigma-ms", "inf"], "sigma must be nonnegative"),
        ([*decode, "--threshold", "nan"], "threshold must lie in [0, 1], not nan"),
        ([*decode, "--threshold", "2"], "threshold must lie in [0, 1], not 2.0"),
        (["ks", str(recv), str(recv), "--threshold", "nan"],
         "threshold must lie in [0, 1], not nan"),
        (["experiment", "--set", "p_d=0.1,1.5", "--set", "n=8", "--set", "spread=4",
          "--set", "flow_len=100", "--set", "trials=4"], "p_delete must lie in [0, 1]"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "ValueError", "message": message}


def test_zero_evidence_decode_is_not_detected(tmp_path, capsys):
    # an unmarked stream is impossible under a noiseless law, so every LLR
    # is 0 and every bit decodes as 0: against a watermark with 40 zeros in
    # 50 bits that scores 0.80, above the binomial threshold, yet a decode
    # that says nothing about any bit detects nothing
    flow, side = tmp_path / "flow.txt", tmp_path / "side.json"
    run_cli(capsys, "gen", "--rate", "2.0", "--count", "200", "--seed", "1", "--out", str(flow))
    code, _, _ = run_cli(capsys, "embed", str(flow), "--out", str(tmp_path / "marked.txt"),
                         "--sidecar", str(side), "--spread", "2", "--wm-bits", "0000100001" * 5)
    assert code == 0
    code, out, err = run_cli(capsys, "decode", str(flow), "--sidecar", str(side),
                             "--nbits", "100", "--sigma-ms", "0")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "zero-evidence" and json.loads(err)["warning"] == "zero-evidence"
    assert report["score"] == 0.8 and report["score"] >= report["threshold"]
    assert report["detected"] is False


def test_one_packet_trace_extracts_and_decodes_empty(tmp_path, capsys):
    # a one-packet trace has no IPDs: it extracts to an empty line and
    # decodes as the empty stream, which every dropped packet explains
    flow, side = tmp_path / "flow.txt", tmp_path / "side.json"
    run_cli(capsys, "gen", "--rate", "2.0", "--count", "40", "--seed", "1", "--out", str(flow))
    run_cli(capsys, "embed", str(flow), "--out", str(tmp_path / "marked.txt"), "--sidecar",
            str(side), "--n", "6", "--spread", "5")
    head = tmp_path / "head.txt"
    head.write_text("0.0\n")
    code, out, _ = run_cli(capsys, "extract", str(head), "--delta-ms", "100")
    assert code == 0 and out == "\n"
    code, out, err = run_cli(capsys, "decode", str(head), "--sidecar", str(side),
                             "--p-d", "0.3")
    assert code == 0 and err == ""
    assert json.loads(out)["log_evidence"] == pytest.approx(30 * math.log(0.3), rel=1e-12)


def test_ks_command_identical(tmp_path, capsys):
    flow = tmp_path / "flow.txt"
    flow.write_text("0.0\n0.3\n0.5\n0.9\n")
    code, out, _ = run_cli(capsys, "ks", str(flow), str(flow))
    assert code == 0
    assert json.loads(out)["distance"] == 0.0


def test_ks_names_a_one_packet_trace(tmp_path, capsys):
    flow, head = tmp_path / "flow.txt", tmp_path / "head.txt"
    flow.write_text("0.0\n0.3\n0.5\n0.9\n")
    head.write_text("0.0\n")
    for traces in ((head, flow), (flow, head)):
        code, out, err = run_cli(capsys, "ks", *map(str, traces))
        assert code == 1 and out == ""
        assert json.loads(err)["message"].startswith(f"{head}: ")


def test_mfa_command(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text("0.0\n0.05\n0.21\n")
    code, out, _ = run_cli(capsys, "mfa", str(a), "--interval-ms", "70")
    assert code == 0
    payload = json.loads(out)
    assert payload["blank_count"] == 1
    assert payload["total_intervals"] == 3


def test_drtt_command(tmp_path, capsys):
    rtt = tmp_path / "rtt.txt"
    rng = np.random.default_rng(0)
    rtt.write_text("\n".join(f"{v:.9f}" for v in 0.05 + rng.normal(0, 0.001, 300)))
    side = tmp_path / "side.json"
    side.write_text(json.dumps({"delays": [0.0] * 100}))
    code, out, _ = run_cli(capsys, "drtt", "--rtt-file", str(rtt),
                           "--sidecar", str(side))
    assert code == 0
    assert json.loads(out)["ks_distance"] == 0.0


def test_drtt_skips_comment_lines(tmp_path, capsys):
    # RTT files follow the trace reader's line rule: lines are stripped,
    # blank and `#` lines skipped
    plain = tmp_path / "plain.txt"
    plain.write_text("0.050\n0.052\n0.049\n")
    noted = tmp_path / "noted.txt"
    noted.write_text("# pings\n0.050\n0.052\n  # indented note\n\n0.049\n")
    side = tmp_path / "side.json"
    side.write_text(json.dumps({"delays": [0.0, 0.003]}))
    outs = []
    for rtt in (plain, noted):
        code, out, err = run_cli(capsys, "drtt", "--rtt-file", str(rtt), "--sidecar", str(side))
        assert code == 0 and err == ""
        outs.append(json.loads(out))
    assert outs[0] == outs[1] and outs[0]["samples"] == 2


def test_drtt_bad_line_names_file_and_line(tmp_path, capsys):
    # float() reads inf and nan, but neither is an RTT
    bad = tmp_path / "bad.txt"
    for text in ("abc", "inf", "nan"):
        bad.write_text(f"0.050\n# note\n{text}\n")
        code, out, err = run_cli(capsys, "drtt", "--rtt-file", str(bad))
        assert code == 1 and out == ""
        assert json.loads(err)["message"] == f"{bad}: line 3: not an RTT: {text!r}"


def test_drtt_csv(tmp_path, capsys):
    rtt = tmp_path / "rtt.txt"
    rng = np.random.default_rng(1)
    rtt.write_text("\n".join(f"{v:.9f}" for v in 0.05 + rng.normal(0, 0.001, 40)))
    side = tmp_path / "side.json"
    side.write_text(json.dumps({"delays": list(rng.uniform(0, 0.01, 20))}))
    csv = tmp_path / "drtt.csv"
    code, out, _ = run_cli(capsys, "drtt", "--rtt-file", str(rtt), "--sidecar", str(side),
                           "--csv", str(csv))
    assert code == 0
    samples = json.loads(out)["samples"]
    assert samples == 39
    text = csv.read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")
    header, *rows = text.splitlines()
    assert header == "which,delta_rtt,cdf"
    assert len(rows) == 2 * samples
    for name, part in (("raw", rows[:samples]), ("marked", rows[samples:])):
        cols = [row.split(",") for row in part]
        assert {c[0] for c in cols} == {name}
        values = [float(c[1]) for c in cols]
        assert values == sorted(values)
        assert [c[2] for c in cols] == [f"{(i + 1) / samples:.6f}" for i in range(samples)]
        assert cols[-1][2] == "1.000000"


def test_calibrate_command(tmp_path, capsys):
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps([i / 100 for i in range(100)]))
    code, out, _ = run_cli(capsys, "calibrate", "--scores", str(scores),
                           "--alpha", "0.05")
    assert code == 0
    assert json.loads(out)["threshold"] == 0.94
    # the same scores whitespace-separated give the same threshold
    spaced = tmp_path / "scores.txt"
    spaced.write_text("\n".join(" ".join(f"{i / 100}" for i in range(row, row + 10))
                                for row in range(0, 100, 10)) + "\n")
    code, out, _ = run_cli(capsys, "calibrate", "--scores", str(spaced),
                           "--alpha", "0.05")
    assert code == 0
    assert json.loads(out) == {"threshold": 0.94, "alpha": 0.05, "count": 100}


def test_calibrate_command_rejects_non_finite_scores(tmp_path, capsys):
    # json reads Infinity and NaN; a threshold of inf would print as
    # Infinity, which is not strict JSON
    for text, index in (("[0.5, 0.6, Infinity]", 2), ("0.5 NaN 0.6", 1)):
        scores = tmp_path / "scores.txt"
        scores.write_text(text)
        code, out, err = run_cli(capsys, "calibrate", "--scores", str(scores),
                                 "--alpha", "0.05")
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert f"control score {index} is not finite" in payload["message"]


def test_experiment_command(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "n = 10\nspread = 5\ndelta_ms = 100\nsigma_ms = 10\np_d = 0.05\n"
        "flow_len = 120\ntrials = 5\nseed = 3\n"
    )
    out_json = tmp_path / "rep.json"
    out_csv = tmp_path / "rep.csv"
    code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg),
                           "--set", "trials=4", "--json", str(out_json),
                           "--csv", str(out_csv))
    assert code == 0
    rep = json.loads(out_json.read_text())
    assert rep["config"]["trials"] == 4
    assert len(rep["cells"]) == 1
    assert out_csv.read_text().startswith("n,")


def test_experiment_rerun_byte_identical(tmp_path, capsys):
    args = ["experiment", "--set", "n=8", "--set", "spread=4", "--set",
            "flow_len=100", "--set", "trials=4", "--set", "sigma_ms=10",
            "--set", "p_d=0.05", "--set", "seed=11"]
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run_cli(capsys, *args, "--json", str(p))
        assert code == 0
    a = json.loads(paths[0].read_text())
    b = json.loads(paths[1].read_text())
    a.pop("wall_clock"), b.pop("wall_clock")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_experiment_stdout_is_one_document(tmp_path, capsys):
    # stdout is the report, or its summary when the report goes to --json
    args = ["experiment", "--set", "n=8", "--set", "spread=4", "--set",
            "flow_len=100", "--set", "trials=4"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    report = json.loads(out)
    path = tmp_path / "rep.json"
    code, out, _ = run_cli(capsys, *args, "--json", str(path))
    assert code == 0
    summary = json.loads(out)
    assert summary["json"] == str(path) and len(summary["cells"]) == 1
    written = json.loads(path.read_text())
    report.pop("wall_clock"), written.pop("wall_clock")
    assert written == report


def test_experiment_empty_grid_axis(capsys):
    code, out, err = run_cli(capsys, "experiment", "--set", "p_d=")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError" and "p_d" in payload["message"]


# (raw text, parsed value) forms per ExperimentConfig field: comma lists,
# empty/none for optional fields, and the boolean spellings; a trace_dir
# must exist, and the test runs where traces/a does
CONFIG_FORMS = {
    "n": [("40, 60", [40, 60]), ("40", 40)],
    "spread": [("5", 5)],
    "delta_ms": [("80,100", [80.0, 100.0]), ("80", 80.0)],
    "key_seed": [("7", 7)],
    "sigma_ms": [("10, 20, 30", [10.0, 20.0, 30.0])],
    "p_d": [("0.1", 0.1)],
    "p_i": [("0.1,0.2", [0.1, 0.2])],
    "max_insert_run": [("4", 4)],
    "jitter_mode": [("laplace", "laplace")],
    "rate_pps": [("2", 2.0)],
    "flow_len": [("1500", 1500)],
    "trace_dir": [("traces/a", "traces/a"), ("", None), ("None", None)],
    "trials": [("20", 20)],
    "alpha": [("0.05", 0.05)],
    "seed": [("11", 11)],
    "jobs": [("2", 2)],
    "holdout": [("yes", True), ("0", False)],
    "dec_sigma_ms": [("20", 20.0), ("none", None)],
    "dec_p_d": [("0.2", 0.2)],
    "dec_p_i": [("0.05", 0.05), ("", None)],
}


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(ExperimentConfig)])
def test_config_value_forms(tmp_path, monkeypatch, key):
    (tmp_path / "traces" / "a").mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "exp.cfg"
    for raw, want in CONFIG_FORMS[key]:
        cfg.write_text(f"{key} = {raw}\n")
        for got in (getattr(load_config(str(cfg), []), key),
                    getattr(load_config(None, [f"{key}={raw}"]), key)):
            assert got == want and type(got) is type(want)
            if isinstance(want, list):
                assert [type(v) for v in got] == [type(v) for v in want]


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 4\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_config(str(cfg), [])
    # a value that does not parse names its key, and its line or override
    cfg.write_text("seed = 3\ntrials = ten\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(cfg))}: line 2: key 'trials': "):
        load_config(str(cfg), [])
    for item in ("trials=x", "holdout=maybe"):
        with pytest.raises(ValueError,
                           match=rf"^override '{item}': key '{item.split('=')[0]}': "):
            load_config(None, [item])
    # a line without '=' names its line, or its override
    cfg.write_text("seed = 3\ntrials 20\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(cfg))}: line 2: expected key = value"):
        load_config(str(cfg), [])
    with pytest.raises(ValueError, match=r"^override 'trials 20': expected key = value"):
        load_config(None, ["trials 20"])


def test_error_json_on_stderr(tmp_path, capsys):
    code, out, err = run_cli(capsys, "ks", "/missing/a.txt", "/missing/b.txt")
    assert code == 1
    payload = json.loads(err)
    assert "error" in payload and "message" in payload


# each subcommand's parsed arguments with only its required ones given:
# subcommands share option declarations, and a default set for one of
# them must not leak into another (transmit's sigma_ms is 0, decode's 10)
PARSED_DEFAULTS = {
    ("gen", "--rate", "1", "--count", "2", "--out", "o"):
        dict(rate=1.0, count=2, seed=0, out="o"),
    ("embed", "t", "--out", "o", "--sidecar", "s"):
        dict(trace="t", out="o", sidecar="s", n=None, spread=10, delta_ms=100.0,
             key_seed=1, wm_seed=None, wm_bits=None, clamp=False),
    ("transmit", "t", "--out", "o"):
        dict(trace="t", out="o", log=None, clamp=False, sigma_ms=0.0, p_d=0.0, p_i=0.0,
             max_insert_run=8, seed=0, jitter="laplace", delta_ms=None),
    ("extract", "t", "--delta-ms", "100"):
        dict(trace="t", delta_ms=100.0, out=None, clamp=False),
    ("decode", "t", "--sidecar", "s"):
        dict(trace="t", sidecar="s", log=None, nbits=None, sigma_ms=10.0, p_d=0.0, p_i=0.0,
             max_insert_run=8, threshold=None, d_max=None, out=None, clamp=False),
    ("experiment",):
        dict(config=None, set=[], json=None, csv=None),
    ("ks", "a", "b"):
        dict(trace_a="a", trace_b="b", threshold=0.036, out=None, clamp=False),
    ("mfa", "a"):
        dict(traces=["a"], interval_ms=70.0, out=None, clamp=False),
    ("drtt", "--rtt-file", "r"):
        dict(rtt_file="r", sidecar=None, csv=None, out=None),
    ("calibrate", "--scores", "s"):
        dict(scores="s", alpha=0.01, out=None),
}


def test_every_subcommand_help_renders(capsys):
    # argparse formats help strings with %, so a stray % breaks --help only
    parser = build_parser()
    for command in parser._subparsers._group_actions[0].choices:
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: flowmark {command} ")


def test_parsed_defaults():
    parser = build_parser()
    for argv, want in PARSED_DEFAULTS.items():
        got = vars(parser.parse_args(list(argv)))
        got.pop("func")
        assert got == {"command": argv[0], **want}, argv[0]
    assert {argv[0] for argv in PARSED_DEFAULTS} == set(
        parser._subparsers._group_actions[0].choices)
