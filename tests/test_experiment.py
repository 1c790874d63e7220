import json

import numpy as np
import pytest

from flowmark.experiment import (
    ExperimentConfig,
    decode_trials,
    derive_seed,
    run_experiment,
    simulate_trial,
)


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
        small_config(source="trace-dir", trace_dir="/definitely/missing")
    with pytest.raises(ValueError):
        small_config(jitter_mode="nope")


def test_grid_cells():
    cfg = small_config(sigma_ms=[10.0, 20.0], p_d=[0.0, 0.1])
    cells = cfg.cells()
    assert len(cells) == 4
    assert {(c["sigma_ms"], c["p_d"]) for c in cells} == {
        (10.0, 0.0), (10.0, 0.1), (20.0, 0.0), (20.0, 0.1)}


def test_derive_seed_stable():
    assert derive_seed(7, 0, 3, 1) == derive_seed(7, 0, 3, 1)
    assert derive_seed(7, 0, 3, 1) != derive_seed(7, 0, 3, 2)
    assert derive_seed(7, 0, 4, 1) != derive_seed(7, 0, 3, 1)


def cfg_to_spec(cfg):
    from flowmark.experiment import _make_specs

    return _make_specs(cfg)[0]


def test_run_trial_shapes():
    cfg = small_config()
    spec = cfg_to_spec(cfg)
    y, deleted, inserted, seg = simulate_trial(spec, 0, watermarked=True)
    assert y.size == seg
    score, = decode_trials(spec, [y])
    assert 0.0 <= score <= 1.0
    assert seg > 0


def test_experiment_report_roundtrip(tmp_path):
    cfg = small_config()
    report = run_experiment(cfg)
    assert len(report.cells) == 1
    cell = report.cells[0]
    assert len(cell.scores_watermarked) == cfg.trials
    assert len(cell.scores_control) == cfg.trials
    assert 0.0 <= cell.tp_rate <= 1.0
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    report.to_json(json_path)
    report.to_csv(csv_path)
    loaded = json.loads(json_path.read_text())
    assert loaded["trials"] == cfg.trials
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 2 and lines[0].startswith("n,")


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


def test_experiment_clean_channel_perfect():
    cfg = small_config(sigma_ms=0.0, p_d=0.0, trials=4)
    report = run_experiment(cfg)
    assert report.cells[0].tp_rate == 1.0
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
    cfg = small_config(source="trace-dir", trace_dir=str(tdir), trials=5,
                       flow_len=150)
    report = run_experiment(cfg)
    assert len(report.cells[0].scores_watermarked) == 5


def test_experiment_flow_too_short():
    cfg = small_config(flow_len=30)  # needs 51 packets
    with pytest.raises(ValueError, match="too short"):
        run_experiment(cfg)
