import dataclasses
import json
import math
import re

import pytest

from mixcara import harness
from mixcara.basis import MonomialBasis
from mixcara.errors import ConfigError
from mixcara.harness import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentReport,
    run_experiment,
)
from mixcara.recover import RecoveryReport


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
    assert cfg._value("ranges", "sigma") == (0.1, 0.2)
    assert cfg._value("tolerances", "residual_rel") == 1e-9
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again.to_json() == cfg.to_json()


def test_unset_settings_take_the_experiment_defaults():
    cfg = ExperimentConfig.from_json({"experiment": "gap-homotopy"})
    assert cfg.trials == 50
    assert cfg._value("ranges", "shared_sigma") == 0.05
    assert cfg._value("ranges", "mean") == (-2.0, 2.0)
    assert cfg._value("tolerances", "residual_rel") == 1e-8
    assert cfg.to_json()["ranges"] == {} and cfg.to_json()["tolerances"] == {}
    full = {"univariate-gaussian-bound": 100, "lognormal-bound": 100, "gap-homotopy": 50,
            "na-table": 30, "reduction-stress": 500, "prescribe-check": 20}
    assert {e: ExperimentConfig(experiment=e).trials for e in EXPERIMENTS} == full


# each names a field, key or shape the experiment does not read
BAD_CONFIGS = [
    {"experiment": "na-table", "trails": 3},
    {"experiment": "lognormal-bound", "kind": "lognormal"},
    {"experiment": "univariate-gaussian-bound", "mean": "abc"},
    {"experiment": "gap-homotopy", "ranges": {"sigma": [0.05, 0.1]}},
    {"experiment": "univariate-gaussian-bound", "ranges": {"shared_sigma": 0.05}},
    {"experiment": "na-table", "tolerances": {"residual_rel": 1e-9}},
    {"experiment": "univariate-gaussian-bound", "ranges": {"mean": "abc"}},
    {"experiment": "univariate-gaussian-bound", "ranges": {"mean": [1, 2, 3]}},
    {"experiment": "univariate-gaussian-bound", "ranges": {"separation": [0.1, 0.2]}},
    {"experiment": "prescribe-check", "ranges": {"x0": [True, 1]}},
    {"experiment": "reduction-stress", "tolerances": {"preservation_abs": None}},
    {"experiment": "reduction-stress", "ranges": [["mean", [0, 1]]]},
    {"experiment": "na-table", "success_threshold": "high"},
    {"experiment": "reduction-stress", "basis": {"n": 1, "exponents": [[0], [1]]}},
    {"experiment": "gap-homotopy", "basis": {"n": 1}},
    {"experiment": "na-table", "seed": None},
    [{"experiment": "na-table"}],
    {"experiment": "na-table", "out_dir": 5},
    {"experiment": "gap-homotopy", "basis": {"n": 1.7, "exponents": [[0], [2], [3]]}},
    {"experiment": "gap-homotopy", "basis": {"n": True, "exponents": [[0], [2], [3]]}},
    {"experiment": "gap-homotopy", "basis": {"n": 1, "exponents": [[0], [2.5], [3]]}},
    {"experiment": "gap-homotopy", "basis": {"n": 1, "exponents": [[0], [True], [3]]}},
    {"experiment": "gap-homotopy", "tolerances": {"residual_rel": -1}},
    {"experiment": "gap-homotopy", "tolerances": {"residual_rel": 0}},
    {"experiment": "gap-homotopy", "tolerances": {"residual_rel": 1e999}},
    {"experiment": "reduction-stress", "tolerances": {"preservation_abs": -1}},
    {"experiment": "reduction-stress", "tolerances": {"preservation_abs": 0}},
    {"experiment": "reduction-stress", "tolerances": {"preservation_abs": 1e999}},
]


@pytest.mark.parametrize("data", BAD_CONFIGS)
def test_config_rejects_unread_fields_keys_and_shapes(data):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(data)


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


def test_gap_homotopy_models_share_one_scale():
    # the gap route fits one scale for every component of a model
    report = run_experiment(ExperimentConfig(experiment="gap-homotopy", seed=7))
    scales = [
        {c["sigma"] for c in row.models["recovered"]["components"]}
        for row in report.rows if row.success
    ]
    assert len(scales) == 50
    assert all(len(sigma) == 1 for sigma in scales)


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


def test_engine_errors_become_failed_rows():
    # the shared-scale Gaussian engine refuses a basis with exponent gaps
    gap = MonomialBasis.univariate([0, 2, 3, 5, 6])
    report = run_experiment(small_config("univariate-gaussian-bound", trials=3, basis=gap))
    assert len(report.rows) == 3
    assert all(r.detail.startswith("engine error:") and not r.success for r in report.rows)
    assert report.exit_status == 2


def test_engine_error_rows_write_strict_json():
    # the rows keep residual inf; the JSON text writes it as null, not Infinity
    gap = MonomialBasis.univariate([0, 2, 3, 5, 6])
    report = run_experiment(small_config("univariate-gaussian-bound", trials=2, basis=gap))
    assert all(r.residual == math.inf for r in report.rows)
    assert report.to_json_dict()["rows"][0]["residual"] == math.inf

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    data = json.loads(report.to_json_text(), parse_constant=refuse)
    assert [row["residual"] for row in data["rows"]] == [None, None]
    assert data["aggregate"] == report.aggregate


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


@pytest.mark.parametrize(
    "experiment", ["univariate-gaussian-bound", "lognormal-bound", "gap-homotopy"]
)
def test_bound_truth_strings_are_plain_floats(experiment):
    report = run_experiment(small_config(experiment, trials=2))
    for row in report.rows:
        assert re.fullmatch(r"k=3;sigma=[0-9.e+-]+", row.truth), row.truth


def stub_engine(monkeypatch, experiment, report):
    """Make every trial of ``experiment`` get ``report`` from its engine."""
    row = harness._EXPERIMENTS[experiment]
    stub = dataclasses.replace(row, engine=lambda basis, s, seed, tol: report)
    monkeypatch.setitem(harness._EXPERIMENTS, experiment, stub)


def test_bound_trial_flags_a_success_above_the_count_limit(monkeypatch):
    stub_engine(monkeypatch, "univariate-gaussian-bound", RecoveryReport(
        success=True, model=None, residual=0.0, engine="stub", k_used=4))
    report = run_experiment(small_config("univariate-gaussian-bound", trials=2))
    for row in report.rows:
        assert not row.success and row.k_used == 4 and row.engine == "stub"
        assert row.detail == "count-violation: k=4 above 3"
    assert report.aggregate["count_violations"] == 2 and report.exit_status == 2


def test_bound_trial_detail_is_the_failure_reason(monkeypatch):
    stub_engine(monkeypatch, "lognormal-bound", RecoveryReport(
        success=False, model=None, residual=1.0, engine="stub", failure_reason="stub failure"))
    report = run_experiment(small_config("lognormal-bound", trials=2))
    assert [r.detail for r in report.rows] == ["stub failure", "stub failure"]
    assert not any(r.success for r in report.rows)
    assert report.aggregate["count_violations"] == 0 and report.exit_status == 2
