import dataclasses
import json

import numpy as np
import pytest

from flowmark.cli import load_config, main
from flowmark.experiment import ExperimentConfig


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
    params = ExperimentConfig(delta_ms=cfg.delta * 1000.0, **law).decoder_params()
    return decode(y, cfg, params, cfg.watermark).to_dict()


def test_decode_law_matches_harness(tmp_path, capsys):
    side, [(recv, log)] = _marked_and_received(tmp_path, capsys, [9])
    decode = ["decode", str(recv), "--sidecar", str(side), "--log", str(log)]
    code, out, _ = run_cli(capsys, *decode, "--sigma-ms", "20", "--p-d", "0.05",
                           "--p-i", "0.02")
    assert code == 0
    assert json.loads(out) == _library_decode(side, recv, log, sigma_ms=20.0,
                                              p_d=0.05, p_i=0.02)
    # a certain drop decodes at the clamp below 1, as the harness does
    code, out, _ = run_cli(capsys, *decode, "--sigma-ms", "10", "--p-d", "1")
    assert code == 0
    assert json.loads(out) == _library_decode(side, recv, log, sigma_ms=10.0, p_d=1.0)


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


def test_ks_command_identical(tmp_path, capsys):
    flow = tmp_path / "flow.txt"
    flow.write_text("0.0\n0.3\n0.5\n0.9\n")
    code, out, _ = run_cli(capsys, "ks", str(flow), str(flow))
    assert code == 0
    assert json.loads(out)["distance"] == 0.0


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


def test_calibrate_command(tmp_path, capsys):
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps([i / 100 for i in range(100)]))
    code, out, _ = run_cli(capsys, "calibrate", "--scores", str(scores),
                           "--alpha", "0.05")
    assert code == 0
    assert json.loads(out)["threshold"] == 0.94


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
    assert rep["trials"] == 4
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


def test_experiment_empty_grid_axis(capsys):
    code, out, err = run_cli(capsys, "experiment", "--set", "p_d=")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError" and "p_d" in payload["message"]


# (raw text, parsed value) forms per ExperimentConfig field: comma lists,
# empty/none for optional fields, and the boolean spellings
CONFIG_FORMS = {
    "n": [("40, 60", [40, 60]), ("40", 40)],
    "spread": [("5", 5)],
    "delta_ms": [("80,100", [80.0, 100.0]), ("80", 80.0)],
    "key_seed": [("7", 7)],
    "density": [("0.05", 0.05), ("none", None), ("", None)],
    "sigma_ms": [("10, 20, 30", [10.0, 20.0, 30.0])],
    "p_d": [("0.1", 0.1)],
    "p_i": [("0.1,0.2", [0.1, 0.2])],
    "insert_spacing_ms": [("2.5", 2.5)],
    "max_insert_run": [("4", 4)],
    "protect_first": [("off", False), ("True", True)],
    "jitter_mode": [("laplace", "laplace")],
    "source": [("poisson", "poisson")],
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
def test_config_value_forms(tmp_path, key):
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


def test_error_json_on_stderr(tmp_path, capsys):
    code, out, err = run_cli(capsys, "ks", "/missing/a.txt", "/missing/b.txt")
    assert code == 1
    payload = json.loads(err)
    assert "error" in payload and "message" in payload
