import json

import pytest

from mixcara.errors import ConfigError
from mixcara.harness import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentReport,
    run_experiment,
)


def small_config(experiment, trials=4, seed=11, **kw):
    return ExperimentConfig(experiment=experiment, trials=trials, seed=seed, **kw)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="nonexistent")
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="na-table", trials=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="na-table", success_threshold=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({})


def test_config_json_roundtrip():
    cfg = ExperimentConfig.from_json(
        {
            "experiment": "univariate-gaussian-bound",
            "trials": 7,
            "seed": 3,
            "ranges": {"sigma": [0.1, 0.2]},
            "tolerances": {"residual_rel": 1e-9},
        }
    )
    assert cfg.trials == 7
    assert cfg.range_pair("sigma", (0, 1)) == (0.1, 0.2)
    assert cfg.tolerance("residual_rel", 1e-8) == 1e-9
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again.to_json() == cfg.to_json()


def test_default_thresholds():
    assert small_config("univariate-gaussian-bound").threshold == 0.95
    assert small_config("na-table").threshold == 1.0
    assert small_config("gap-homotopy").threshold == 0.9
    assert small_config("na-table", success_threshold=0.5).threshold == 0.5


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_each_experiment_runs_and_holds(experiment):
    trials = 2 if experiment == "gap-homotopy" else 4
    report = run_experiment(small_config(experiment, trials=trials))
    assert report.bound_held
    assert report.exit_status == 0
    assert report.aggregate["trials"] == len(report.rows)


def test_reports_are_deterministic():
    for experiment in ("univariate-gaussian-bound", "reduction-stress", "na-table"):
        a = run_experiment(small_config(experiment, trials=3, seed=5))
        b = run_experiment(small_config(experiment, trials=3, seed=5))
        assert a.to_csv_text() == b.to_csv_text()
        assert a.to_json_text() == b.to_json_text()


def test_different_seeds_differ():
    a = run_experiment(small_config("univariate-gaussian-bound", trials=3, seed=1))
    b = run_experiment(small_config("univariate-gaussian-bound", trials=3, seed=2))
    assert a.to_csv_text() != b.to_csv_text()


def test_csv_schema_row_first():
    report = run_experiment(small_config("na-table", trials=3))
    lines = report.to_csv_text().splitlines()
    assert lines[0] == "schema_version,1"
    assert lines[1].startswith("trial,sub_seed,engine,k_used,residual,success")
    assert len(lines) == 2 + len(report.rows)


def test_json_mirrors_rows_plus_models():
    report = run_experiment(small_config("univariate-gaussian-bound", trials=2))
    data = json.loads(report.to_json_text())
    assert data["schema_version"] == 1
    assert len(data["rows"]) == 2
    assert "models" in data["rows"][0]
    assert data["rows"][0]["models"]["truth"]["kind"] == "gaussian"
    assert data["bound"]
    assert data["exit_status"] in (0, 2)


def test_aggregate_recomputable_from_rows():
    report = run_experiment(small_config("reduction-stress", trials=6))
    agg = report.aggregate
    successes = sum(1 for r in report.rows if r.success)
    assert agg["successes"] == successes
    assert agg["success_rate"] == successes / len(report.rows)
    assert agg["trials"] == len(report.rows)


def test_exit_status_two_when_bound_violated():
    # an unreachable threshold flips the verdict without touching the rows
    report = run_experiment(
        small_config("univariate-gaussian-bound", trials=2, success_threshold=1.0)
    )
    impossible = ExperimentReport(
        experiment=report.experiment,
        bound=report.bound,
        config=report.config,
        rows=[r.__class__(**{**r.__dict__, "success": False}) for r in report.rows],
        threshold=1.0,
    )
    assert impossible.exit_status == 2
    assert not impossible.bound_held


def test_write_reports(tmp_path):
    cfg = small_config("na-table", trials=3)
    cfg.out_dir = str(tmp_path / "out")
    report = run_experiment(cfg)
    csv_path = tmp_path / "out" / "na-table.csv"
    json_path = tmp_path / "out" / "na-table.json"
    assert csv_path.exists() and json_path.exists()
    assert csv_path.read_text() == report.to_csv_text()
    assert json_path.read_text() == report.to_json_text()


def test_written_files_byte_identical_across_runs(tmp_path):
    texts = []
    for sub in ("a", "b"):
        cfg = small_config("univariate-gaussian-bound", trials=3, seed=9)
        cfg.out_dir = str(tmp_path / sub)
        run_experiment(cfg)
        texts.append(
            (
                (tmp_path / sub / "univariate-gaussian-bound.csv").read_bytes(),
                (tmp_path / sub / "univariate-gaussian-bound.json").read_bytes(),
            )
        )
    assert texts[0] == texts[1]
