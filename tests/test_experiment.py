import dataclasses
import json
import re

import numpy as np
import pytest

from flowmark.channel import ChannelParams, substitution_prob, transmit
from flowmark.decoder import IdsParams, decode
from flowmark.experiment import (
    CONTROL,
    HOLDOUT,
    WATERMARKED,
    ExperimentConfig,
    _chunk_task,
    derive_seed,
    grid_cells,
    run_experiment,
    simulate_trial,
)
from flowmark.idscode import encode, watermark_bits
from flowmark.qim import qim_extract
from flowmark.traffic import poisson_flow, read_trace, to_ipds, write_trace


# a small_config cell's scalar grid point, at the given axis values
def grid_point(**kw):
    return dict(dict(n=10, delta_ms=100.0, sigma_ms=10.0, p_d=0.05, p_i=0.0), **kw)


def small_config(**kw):
    base = dict(n=10, spread=5, delta_ms=100.0, sigma_ms=10.0, p_d=0.05,
                p_i=0.0, flow_len=120, trials=8, seed=7, jobs=1)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(trials=0)
    with pytest.raises(ValueError):
        small_config(alpha=0.7)
    with pytest.raises(ValueError):
        small_config(trace_dir="/definitely/missing")
    with pytest.raises(ValueError):
        small_config(jitter_mode="nope")
    with pytest.raises(ValueError, match="p_d"):
        small_config(p_d=[])
    with pytest.raises(ValueError, match="sigma_ms"):
        small_config(sigma_ms=())


def test_grid_cells():
    cfg = small_config(sigma_ms=[10.0, 20.0], p_d=[0.0, 0.1])
    # the cross product of the axes, the last axis varying fastest
    points = [grid_point(sigma_ms=sigma_ms, p_d=p_d)
              for sigma_ms in (10.0, 20.0) for p_d in (0.0, 0.1)]
    cells = grid_cells(cfg)
    assert len(cells) == 4
    # a cell is the config with one grid point's scalars, plus its index,
    # its watermark config and codeword, no traces for Poisson traffic, and
    # its packet channel in seconds at seed 0
    w = watermark_bits(cfg.seed + cfg.key_seed, 10)
    for index, (cell, point) in enumerate(zip(cells, points)):
        assert cell.config == dataclasses.replace(cfg, **point)
        assert cell.index == index and cell.traces == ()
        np.testing.assert_array_equal(cell.wm.watermark, w)
        assert (cell.wm.spread, cell.wm.delta, cell.wm.key_seed) == (5, 0.1, cfg.key_seed)
        np.testing.assert_array_equal(cell.code, encode(w, cell.wm))
        assert cell.channel == ChannelParams(sigma=point["sigma_ms"] / 1000.0,
                                             p_delete=point["p_d"], jitter="quantizer",
                                             delta=0.1)


def test_decoder_params_law():
    # the decoder's bit law: dec_* overrides replace the channel's own
    # values, a certain drop stays certain and plain ints come out as floats
    cases = [
        ({}, IdsParams(substitution_prob(0.1, 0.01), 0.0, 0.0, 8)),
        (dict(dec_sigma_ms=15, dec_p_d=0.08, dec_p_i=0.02),
         IdsParams(substitution_prob(0.1, 0.015), 0.08, 0.02, 8)),
        (dict(p_d=0.1, dec_p_d=0), IdsParams(substitution_prob(0.1, 0.01), 0.0, 0.0, 8)),
        (dict(p_d=1), IdsParams(substitution_prob(0.1, 0.01), 1.0, 0.0, 8)),
    ]
    for kw, want in cases:
        got = grid_cells(ExperimentConfig(**kw))[0].law
        assert got == want
        assert type(got.p_delete) is float and type(got.p_insert) is float


def test_derive_seed_stable():
    assert derive_seed(7, 0, 3, 1) == derive_seed(7, 0, 3, 1)
    assert derive_seed(7, 0, 3, 1) != derive_seed(7, 0, 3, 2)
    assert derive_seed(7, 0, 4, 1) != derive_seed(7, 0, 3, 1)


def test_run_trial_shapes():
    cfg = small_config()
    cell = grid_cells(cfg)[0]
    y, deleted, inserted = simulate_trial(cell, 0, WATERMARKED)
    assert y.size > 0
    # a control trial's stream is its channel run's received bits cut at
    # the watermarked segment, short of the whole received stream
    y_ctrl, *_ = simulate_trial(cell, 0, CONTROL)
    flow = poisson_flow(cfg.rate_pps, cfg.flow_len, seed=derive_seed(cfg.seed, 0, 0, 2))
    recv, log = transmit(flow, ChannelParams(
        sigma=cfg.sigma_ms / 1000.0, p_delete=cfg.p_d, p_insert=cfg.p_i,
        max_insert_run=cfg.max_insert_run, seed=derive_seed(cfg.seed, 0, 0, 3),
        jitter=cfg.jitter_mode, delta=cfg.delta_ms / 1000.0))
    wcfg = cell.wm
    seg = log.segment_bits(wcfg.code_len)
    assert y_ctrl.size == seg < cfg.flow_len - 1
    np.testing.assert_array_equal(y_ctrl, qim_extract(to_ipds(recv), wcfg.delta)[:seg])
    # the chunk decodes the trial's stream, says whether some LLR is
    # nonzero and counts its segment bits
    (score, informative, *counts), = _chunk_task((cell, [(0, WATERMARKED)]))
    assert counts == [deleted, inserted, y.size]
    assert 0.0 <= score <= 1.0 and informative
    with pytest.raises(ValueError, match="role"):
        simulate_trial(cell, 0, HOLDOUT + 1)


def test_experiment_report_roundtrip():
    cfg = small_config()
    report = run_experiment(cfg)
    assert len(report.cells) == 1
    cell = report.cells[0]
    assert len(cell.scores_watermarked) == cfg.trials
    assert len(cell.scores_control) == cfg.trials
    assert 0.0 <= cell.tp_rate <= 1.0
    loaded = json.loads(json.dumps(report.to_dict()))
    # each setting once: trials, alpha and seed live in the config only
    assert sorted(loaded) == ["cells", "config", "wall_clock"]
    assert loaded["config"]["trials"] == cfg.trials
    lines = report.to_csv().splitlines()
    assert len(lines) == 2 and lines[0].startswith("n,")
    assert lines[1].split(",")[5] == str(cfg.trials)


def test_experiment_deterministic_rerun():
    a = run_experiment(small_config())
    b = run_experiment(small_config())
    da, db = a.to_dict(), b.to_dict()
    da.pop("wall_clock")
    db.pop("wall_clock")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_experiment_jobs_equivalent():
    a = run_experiment(small_config())
    b = run_experiment(small_config(jobs=2))
    assert a.cells[0].scores_watermarked == b.cells[0].scores_watermarked
    assert a.cells[0].scores_control == b.cells[0].scores_control


def _report_text(report):
    # the report apart from its timing and the echoed worker count
    d = report.to_dict()
    d.pop("wall_clock")
    d["config"].pop("jobs")
    return json.dumps(d, sort_keys=True)


def test_experiment_decode_chunks_equivalent(monkeypatch):
    # chunks of 3 split each 16-flow cell with a ragged tail; the report
    # matches one chunk per cell, in one process and across two
    from flowmark import experiment

    cfg = small_config(p_d=[0.05, 0.1])
    whole = _report_text(run_experiment(cfg))
    monkeypatch.setattr(experiment, "DECODE_CHUNK", 3)
    assert (2 * cfg.trials) % experiment.DECODE_CHUNK
    assert _report_text(run_experiment(cfg)) == whole
    assert _report_text(run_experiment(small_config(p_d=[0.05, 0.1], jobs=2))) == whole


def test_experiment_regrouping_matches_per_flow_stages(monkeypatch):
    # every report entry is its own flow run through the two stages alone:
    # cells in grid order, each trial's streams in role order, whatever
    # the chunking (3 aligns chunks with trials, 4 does not)
    from flowmark import experiment
    from flowmark.decoder import calibrate_threshold, present

    cfg = small_config(p_d=[0.05, 0.1], trials=5, holdout=True)
    roles = {"watermarked": WATERMARKED, "control": CONTROL, "holdout": HOLDOUT}
    expected = []
    for cell in grid_cells(cfg):
        wm, law = cell.wm, cell.law
        scores, informative, sims = {}, {}, []
        for role, index in roles.items():
            scores[role], informative[role] = [], []
            for t in range(cfg.trials):
                sim = simulate_trial(cell, t, index)
                report = decode(sim[0], wm, law, wm.watermark)
                scores[role].append(report.score)
                informative[role].append(report.llr.any())
                sims.append(sim)
        threshold = calibrate_threshold(scores["control"], cfg.alpha)
        rate = {role: float(np.mean(present(s, informative[role], threshold)))
                for role, s in scores.items()}
        expected.append(dict(
            params=grid_point(p_d=(0.05, 0.1)[cell.index]), threshold=threshold,
            tp_rate=rate["watermarked"], fp_rate=rate["control"],
            fp_holdout=rate["holdout"],
            scores_watermarked=scores["watermarked"],
            scores_control=scores["control"], scores_holdout=scores["holdout"],
            mean_deleted=float(np.mean([s[1] for s in sims])),
            mean_inserted=float(np.mean([s[2] for s in sims])),
            mean_segment_bits=float(np.mean([s[0].size for s in sims])),
        ))
    for chunk in (3, 4):
        monkeypatch.setattr(experiment, "DECODE_CHUNK", chunk)
        report = run_experiment(cfg)
        assert [c.to_dict() for c in report.cells] == expected


def test_experiment_clean_channel_perfect():
    # a control stream is impossible under the noiseless law, so its LLRs
    # are all 0 and it scores the watermark's share of zeros, as every
    # control does; such a decode detects nothing, whatever the threshold
    cfg = small_config(sigma_ms=0.0, p_d=0.0, trials=4)
    report = run_experiment(cfg)
    assert report.cells[0].tp_rate == 1.0 and report.cells[0].fp_rate == 0.0
    assert np.allclose(report.cells[0].scores_watermarked, 1.0)


def test_experiment_holdout_fp():
    # held-out false positives stay under alpha + 3*sqrt(alpha/trials);
    # needs the finer n=50 score grid, coarse grids tie at the threshold
    import math

    cfg = ExperimentConfig(n=50, spread=10, delta_ms=100.0, sigma_ms=10.0,
                           p_d=0.05, flow_len=600, trials=60, seed=31,
                           holdout=True)
    report = run_experiment(cfg)
    cell = report.cells[0]
    assert len(cell.scores_holdout) == cfg.trials
    bound = cfg.alpha + 3 * math.sqrt(cfg.alpha / cfg.trials)
    assert cell.fp_holdout <= bound


def test_experiment_trace_dir(tmp_path):
    from flowmark.traffic import poisson_flow, write_trace

    tdir = tmp_path / "traces"
    tdir.mkdir()
    for i in range(6):
        write_trace(poisson_flow(2.0, 150, seed=50 + i), tdir / f"t{i}.txt")
    cfg = small_config(trace_dir=str(tdir), trials=5, flow_len=150)
    report = run_experiment(cfg)
    assert len(report.cells[0].scores_watermarked) == 5
    assert len(grid_cells(cfg)[0].traces) == 6
    # a subdirectory is not a trace: the report stays the same
    (tdir / "sub").mkdir()
    assert run_experiment(cfg).cells == report.cells
    # a regular file that is not a trace still fails, naming its line
    (tdir / "notes.txt").write_text("hello\n")
    with pytest.raises(ValueError, match=r"notes\.txt: line 1: not a timestamp"):
        run_experiment(cfg)


def test_each_trace_file_is_read_once(tmp_path, monkeypatch):
    # a run reads each trace file once, before the first trial, however
    # many trials and cells rotate through it
    import flowmark.experiment as experiment
    from flowmark.traffic import write_trace

    tdir = tmp_path / "traces"
    tdir.mkdir()
    for i in range(3):
        write_trace(poisson_flow(2.0, 150, seed=60 + i), tdir / f"t{i}.txt")
    calls = []

    def counting_read_trace(path, clamp=False):
        calls.append(path)
        return read_trace(path, clamp=clamp)

    monkeypatch.setattr(experiment, "read_trace", counting_read_trace)
    cfg = small_config(trace_dir=str(tdir), trials=7, flow_len=150, sigma_ms=[10.0, 20.0],
                       holdout=True)
    run_experiment(cfg)
    assert sorted(calls) == sorted(str(tdir / f"t{i}.txt") for i in range(3))


def test_bad_trace_fails_in_grid_cells(tmp_path):
    # a trace file that does not parse fails when the grid is built, before
    # any trial runs, with read_trace's file-and-line message
    from flowmark.traffic import write_trace

    write_trace(poisson_flow(2.0, 150, seed=80), tmp_path / "flow.txt")
    (tmp_path / "notes.txt").write_text("0.0\nhello\n")
    with pytest.raises(ValueError, match=r"notes\.txt: line 2: not a timestamp"):
        grid_cells(small_config(trace_dir=str(tmp_path), flow_len=150))


def test_experiment_trace_cut_to_flow_len(tmp_path):
    # traces longer than flow_len are cut to their first flow_len packets:
    # 300-packet traces give the report of the same traces pre-cut to 150
    from flowmark.traffic import PacketFlow, poisson_flow, write_trace

    cells = []
    for length in (300, 150):
        tdir = tmp_path / f"traces{length}"
        tdir.mkdir()
        for i in range(4):
            flow = poisson_flow(2.0, 300, seed=90 + i)
            write_trace(PacketFlow(flow.timestamps[:length]), tdir / f"t{i}.txt")
        cells.append(run_experiment(small_config(trace_dir=str(tdir), trials=4,
                                                 flow_len=150)).cells)
    assert cells[0] == cells[1]


def test_trace_dir_selects_trace_traffic(tmp_path):
    # setting trace_dir alone runs on its traces: the Poisson rate then
    # plays no part, so two rates give one report
    from flowmark.traffic import poisson_flow, write_trace

    tdir = tmp_path / "traces"
    tdir.mkdir()
    for i in range(4):
        write_trace(poisson_flow(2.0, 150, seed=70 + i), tdir / f"t{i}.txt")
    reports = [run_experiment(small_config(trace_dir=str(tdir), trials=4, flow_len=150,
                                           rate_pps=rate)).to_dict()
               for rate in (2.0, 5.0)]
    for report in reports:
        report.pop("wall_clock"), report["config"].pop("rate_pps")
    assert reports[0] == reports[1]
    # without trace_dir the rate shapes the Poisson flows and the scores
    poisson = [run_experiment(small_config(trials=4, flow_len=150, rate_pps=rate)).cells
               for rate in (2.0, 5.0)]
    assert poisson[0] != poisson[1]


def test_head_only_trials_decode_as_the_empty_stream():
    # a channel that keeps only the head packet leaves no IPD to read: the
    # trial decodes the empty stream, which carries no evidence, so both
    # roles score alike and neither is detected
    cell, = run_experiment(small_config(p_d=1.0, trials=4)).cells
    assert cell.mean_segment_bits == 0.0 and cell.mean_deleted == 119.0
    assert cell.scores_watermarked == cell.scores_control
    assert cell.tp_rate == cell.fp_rate == 0.0
    # one marked packet behind the head: some trials keep it, some do not
    cell, = run_experiment(ExperimentConfig(n=1, spread=1, flow_len=2, p_d=0.5,
                                            trials=20, seed=3)).cells
    assert 0.0 < cell.mean_segment_bits < 1.0


@pytest.mark.parametrize("make, fragment", [
    pytest.param(lambda tmp: small_config(jobs=0), "jobs must be at least 1", id="jobs"),
    pytest.param(lambda tmp: small_config(rate_pps=0), "rate_pps must be positive and finite",
                 id="rate-zero"),
    pytest.param(lambda tmp: small_config(rate_pps=float("inf")),
                 "rate_pps must be positive and finite", id="rate-inf"),
    pytest.param(lambda tmp: small_config(seed=-1, key_seed=1), "seed must be nonnegative",
                 id="seed"),
    pytest.param(lambda tmp: small_config(key_seed=-1), "key_seed must be nonnegative",
                 id="key-seed"),
    pytest.param(lambda tmp: grid_cells(small_config(trace_dir=str(tmp))), "no trace files in",
                 id="trace-dir-without-files"),
    *(pytest.param(lambda tmp, name=name, value=value: small_config(**{name: value}),
                   f"{name} must be a whole number, not {bad!r}", id=f"{name}-{value!r}")
      for name, value, bad in (("n", 4.5, 4.5), ("n", [10, 4.5], 4.5), ("spread", 5.0, 5.0),
                               ("key_seed", 1.0, 1.0), ("max_insert_run", 2.5, 2.5),
                               ("flow_len", 120.0, 120.0), ("trials", 2.0, 2.0),
                               ("seed", 7.0, 7.0), ("jobs", 1.5, 1.5), ("jobs", True, True))),
])
def test_input_checks(tmp_path, make, fragment):
    (tmp_path / "sub").mkdir()
    with pytest.raises(ValueError, match=re.escape(fragment)):
        make(tmp_path)


def test_experiment_flow_too_short():
    cfg = small_config(flow_len=30)  # needs 51 packets
    with pytest.raises(ValueError, match="too short"):
        run_experiment(cfg)


def _trace_dir_config(tmp, packets):
    write_trace(poisson_flow(2.0, packets, seed=1), tmp / "short.txt")
    return small_config(trace_dir=str(tmp))


@pytest.mark.parametrize("make, fragment", [
    pytest.param(lambda tmp: small_config(p_d=[0.1, 1.5]), "p_delete must lie in [0, 1]",
                 id="p_d"),
    pytest.param(lambda tmp: small_config(dec_p_d=1.5), "p_delete must lie in [0, 1]",
                 id="dec_p_d"),
    pytest.param(lambda tmp: _trace_dir_config(tmp, 30),
                 "short.txt: flow of 30 packets is too short; need at least 51",
                 id="short-trace"),
])
def test_bad_grid_fails_before_first_trial(tmp_path, monkeypatch, make, fragment):
    # a bad law value in any cell, or a trace any trial might read that is
    # shorter than the code, fails while the grid is built: no trial runs
    from flowmark import experiment

    calls = []

    def counting_transmit(flow, params):
        calls.append(params)
        return transmit(flow, params)

    monkeypatch.setattr(experiment, "transmit", counting_transmit)
    with pytest.raises(ValueError, match=re.escape(fragment)):
        run_experiment(make(tmp_path))
    assert calls == []
