import json
import math

import numpy as np
import pytest

from mixcara.basis import MonomialBasis
from mixcara.cli import main
from mixcara.measures import MixtureMeasure, sample_random_mixture
from mixcara.moments import MomentVector, mixture_moments
from mixcara.recover import recover_shared_sigma_gaussian


@pytest.fixture
def workspace(tmp_path):
    basis = MonomialBasis.full_degree(5)
    mixture = MixtureMeasure(
        kind="gaussian", weights=[0.5, 0.5], means=[[-1.0], [1.0]], sigmas=[0.3, 0.3]
    )
    s = mixture_moments(basis, mixture)
    paths = {
        "basis": tmp_path / "basis.json",
        "model": tmp_path / "model.json",
        "moments": tmp_path / "moments.json",
        "dir": tmp_path,
    }
    paths["basis"].write_text(json.dumps(basis.to_json()))
    paths["model"].write_text(json.dumps(mixture.to_json()))
    paths["moments"].write_text(json.dumps(s.to_json()))
    return paths


def read_json(path):
    return json.loads(path.read_text())


def test_moments_command(workspace, capsys):
    rc = main(["moments", "--model", str(workspace["model"]), "--basis", str(workspace["basis"])])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["values"][0] == pytest.approx(1.0)
    assert data["values"][2] == pytest.approx(1.09)  # 2 * 0.5 * (1 + 0.09)


def test_moments_command_dirac_model(workspace, capsys):
    model = workspace["dir"] / "atoms.json"
    model.write_text(json.dumps({"kind": "dirac", "components": [{"c": 1.0, "x": [2.0]}]}))
    rc = main(["moments", "--model", str(model), "--basis", str(workspace["basis"])])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["values"] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]


def test_classify_command(workspace, capsys):
    rc = main(["classify", "--moments", str(workspace["moments"])])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["status"] == "interior"


def test_recover_command(workspace, capsys, tmp_path):
    lognormal = sample_random_mixture("lognormal", 2, rng=3, mean_range=(0.7, 2.0),
                                      sigma_range=(0.1, 0.3), shared_sigma=True)
    lognormal_path = tmp_path / "lognormal_moments.json"
    lognormal_path.write_text(
        json.dumps(mixture_moments(MonomialBasis.full_degree(5), lognormal).to_json())
    )
    for path, extra, kind in (
        (workspace["moments"], ["--engine", "shared-sigma"], "gaussian"),
        (lognormal_path, ["--engine", "shared-sigma", "--kind", "lognormal"], "lognormal"),
        (workspace["moments"], ["--engine", "lm", "--k", "2"], "gaussian"),
        (workspace["moments"], ["--engine", "lm", "--k", "2", "--shared-sigma"], "gaussian"),
    ):
        rc = main(["recover", "--moments", str(path), *extra])
        assert rc == 0, extra
        data = json.loads(capsys.readouterr().out)
        assert data["success"] is True
        assert data["model"]["kind"] == kind
        assert len(data["model"]["components"]) <= 3
    # the lm engine fits a fixed count and has no default for it
    rc = main(["recover", "--moments", str(workspace["moments"]), "--engine", "lm"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert "needs --k" in captured.err


def test_recover_homotopy_command(workspace, capsys, tmp_path):
    gap = MonomialBasis.univariate([0, 2, 3, 5, 6])
    mix = MixtureMeasure(
        kind="gaussian", weights=[1.0, 1.0, 1.0], means=[[-1.2], [0.1], [1.3]],
        sigmas=[0.05, 0.05, 0.05],
    )
    s = mixture_moments(gap, mix)
    path = tmp_path / "gap_moments.json"
    path.write_text(json.dumps(s.to_json()))
    rc = main(["recover", "--moments", str(path), "--engine", "homotopy", "--k", "3"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["success"] is True
    # the engine fits Gaussians only; a log-normal request must not come back
    # as a Gaussian model
    rc = main([
        "recover", "--moments", str(path), "--engine", "homotopy", "--kind", "lognormal",
        "--k", "3",
    ])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert "Gaussian mixtures only" in captured.err


def test_recover_homotopy_command_fits_a_bivariate_basis(capsys, tmp_path):
    basis = MonomialBasis.full_degree(3, n=2)
    mix = sample_random_mixture("gaussian", 4, n=2, rng=0, sigma_range=(0.2, 0.5),
                                shared_sigma=True)
    path = tmp_path / "plane_moments.json"
    path.write_text(json.dumps(mixture_moments(basis, mix).to_json()))
    rc = main(["recover", "--moments", str(path), "--engine", "homotopy", "--k", "4"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0 and report["success"] is True and report["k_used"] == 4
    assert report["engine"] == "homotopy-gap" and report["residual"] <= 1e-8


@pytest.mark.parametrize("k", ["0", "-1"])
@pytest.mark.parametrize("engine", [[], ["--engine", "lm"], ["--kind", "lognormal"]],
                         ids=["shared-sigma", "lm", "shared-sigma-lognormal"])
def test_recover_nonpositive_k_exits_one(workspace, capsys, tmp_path, engine, k):
    lognormal = MixtureMeasure(kind="lognormal", weights=[1.0], means=[[1.2]], sigmas=[0.3])
    path = tmp_path / "lognormal_moments.json"
    path.write_text(json.dumps(mixture_moments(MonomialBasis.full_degree(5), lognormal).to_json()))
    moments = path if "lognormal" in engine else workspace["moments"]
    rc = main(["recover", "--moments", str(moments), *engine, "--k", k])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert "at least one component" in captured.err


def test_recover_failure_exits_two(workspace, capsys, tmp_path):
    basis = MonomialBasis.full_degree(5)
    bad = MomentVector(values=np.array([1.0, 0, -1.0, 0, 1.0, 0]), basis=basis)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json()))
    rc = main(["recover", "--moments", str(path), "--engine", "shared-sigma"])
    assert rc == 2


def test_failed_recover_writes_strict_json(capsys, tmp_path):
    # the report's residual is inf; strict parsers refuse Infinity, so it is written as null
    basis = MonomialBasis.full_degree(5)
    bad = MomentVector(values=np.array([1.0, 0, -1.0, 0, 1.0, 0]), basis=basis)
    assert recover_shared_sigma_gaussian(bad).to_json()["residual"] == math.inf
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json()))

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    for engine in ("shared-sigma", "lm"):
        assert main(["recover", "--moments", str(path), "--engine", engine, "--k", "3"]) == 2
        data = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert data["residual"] is None and not data["success"]
        assert data["failure_reason"].startswith("exterior:")


def test_recover_below_the_cap_takes_the_largest_scale_step(capsys, tmp_path):
    basis = MonomialBasis.full_degree(6)
    mixture = MixtureMeasure(
        kind="gaussian", weights=[0.5, 0.5], means=[[-1.0], [0.8]], sigmas=[0.3, 0.3]
    )
    path = tmp_path / "moments.json"
    path.write_text(json.dumps(mixture_moments(basis, mixture).to_json()))
    rc = main(["recover", "--moments", str(path), "--engine", "shared-sigma", "--k", "2"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["success"] and data["sigma_steps"] == 0
    assert len(data["model"]["components"]) == 2
    rc = main(["recover", "--moments", str(path), "--engine", "lm", "--k", "2", "--shared-sigma"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["success"] and data["iterations"] == 0
    assert len(data["model"]["components"]) == 2


def test_reduce_command(workspace, capsys, tmp_path):
    basis = MonomialBasis.full_degree(2)
    basis_path = tmp_path / "b2.json"
    basis_path.write_text(json.dumps(basis.to_json()))
    model = {"kind": "dirac", "components": [{"c": 0.25, "x": [float(x)]} for x in (-1, 0, 1, 2)]}
    model_path = tmp_path / "atoms4.json"
    model_path.write_text(json.dumps(model))
    rc = main(["reduce", "--basis", str(basis_path), "--model", str(model_path)])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["preservation"]["components_after"] <= 3
    assert data["preservation"]["max_abs_moment_drift"] <= 1e-10
    mixture = sample_random_mixture("gaussian", 8, rng=5, sigma_range=(0.1, 0.5))
    model_path.write_text(json.dumps(mixture.to_json()))
    rc = main(["reduce", "--basis", str(basis_path), "--model", str(model_path)])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["model"]["kind"] == "gaussian"
    assert data["preservation"]["components_before"] == 8
    assert data["preservation"]["components_after"] <= 3
    assert data["preservation"]["max_abs_moment_drift"] <= 1e-10


def test_rank_command(workspace, capsys):
    rc = main([
        "rank", "--basis", str(workspace["basis"]), "--kind", "gaussian",
        "--max-k", "4", "--trials", "10", "--seed", "7",
    ])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == 2
    assert "frequencies" in data
    # atoms carry no scale: ceil((d+1)/2) = 3 over {1, ..., x^5}
    rc = main([
        "rank", "--basis", str(workspace["basis"]), "--kind", "dirac",
        "--max-k", "4", "--trials", "10", "--seed", "7",
    ])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["value"] == 3


def test_prescribe_command(workspace, capsys):
    rc = main([
        "prescribe", "--moments", str(workspace["moments"]), "--x0", "5", "--sigma0", "0.3",
    ])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert any(
        c["xi"][0] == pytest.approx(5.0) and c["sigma"] == pytest.approx(0.3)
        for c in data["components"]
    )


def test_prescribe_lognormal_command(tmp_path, capsys):
    basis = MonomialBasis.full_degree(5)
    mixture = sample_random_mixture("lognormal", 2, rng=3, mean_range=(0.7, 2.0),
                                    sigma_range=(0.1, 0.3), shared_sigma=True)
    path = tmp_path / "moments.json"
    path.write_text(json.dumps(mixture_moments(basis, mixture).to_json()))
    rc = main([
        "prescribe", "--moments", str(path), "--x0", "1.0", "--sigma0", "0.2",
        "--kind", "lognormal",
    ])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "lognormal"
    assert any(c["xi"] == [1.0] and c["sigma"] == 0.2 for c in data["components"])


def test_verify_bounds_command(tmp_path, capsys):
    config = {"experiment": "na-table", "trials": 5, "seed": 1}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "reports"
    rc = main(["verify-bounds", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["aggregate"]["bound_held"] is True
    assert (out_dir / "na-table.csv").exists()
    assert (out_dir / "na-table.json").exists()


def test_verify_bounds_flag_overrides(tmp_path, capsys):
    config = {"experiment": "reduction-stress", "trials": 99, "seed": 0}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    rc = main(["verify-bounds", "--config", str(cfg_path), "--trials", "3", "--seed", "4"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["aggregate"]["trials"] == 3


def test_bad_config_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    for config in (
        {"experiment": "unknown"},
        {"experiment": "na-table", "trails": 3},
        {"experiment": "na-table", "kind": "gaussian"},
        {"experiment": "gap-homotopy", "ranges": {"sigma": [0.05, 0.1]}},
        {"experiment": "na-table", "tolerances": {"residual_rel": 1e-9}},
        {"experiment": "prescribe-check", "ranges": {"mean": "abc"}},
        {"experiment": "gap-homotopy", "basis": {"n": 1}},
        {"experiment": "na-table", "seed": None},
        [{"experiment": "na-table"}],
        {"experiment": "gap-homotopy", "basis": {"n": 1.7, "exponents": [[0], [2], [3]]}},
        {"experiment": "gap-homotopy", "basis": {"n": True, "exponents": [[0], [2], [3]]}},
        {"experiment": "gap-homotopy", "tolerances": {"residual_rel": -1}},
        {"experiment": "gap-homotopy", "tolerances": {"residual_rel": 0}},
        {"experiment": "gap-homotopy", "tolerances": {"residual_rel": 1e999}},
        {"experiment": "reduction-stress", "tolerances": {"preservation_abs": -1}},
        {"experiment": "reduction-stress", "tolerances": {"preservation_abs": 0}},
        {"experiment": "reduction-stress", "tolerances": {"preservation_abs": 1e999}},
    ):
        cfg_path.write_text(json.dumps(config))
        assert main(["verify-bounds", "--config", str(cfg_path)]) == 1, config
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), config


BASIS_2 = {"n": 1, "exponents": [[0], [1], [2]]}
BASIS_3 = {"n": 1, "exponents": [[0], [1], [2], [3]]}


@pytest.mark.parametrize(
    "command, data",
    [
        (["classify", "--moments"], {"basis": BASIS_3}),
        (["classify", "--moments"], {"basis": BASIS_3, "values": {"s0": 1.0}}),
        (["recover", "--moments"], [1.0, 0.0, 1.0, 0.0]),
        (["prescribe", "--kind", "gaussian", "--x0", "0", "--sigma0", "0.1", "--moments"], []),
        (["moments", "--basis", "{basis}", "--model"],
         {"kind": "gaussian", "components": [{"c": 1.0, "xi": [0.0]}]}),
        (["moments", "--basis", "{basis}", "--model"], {"kind": "dirac", "components": [{"c": 1.0}]}),
        (["moments", "--basis", "{basis}", "--model"], {"kind": "lognormal", "components": 3}),
        (["moments", "--basis", "{basis}", "--model"], [{"kind": "gaussian"}]),
        (["reduce", "--basis", "{basis}", "--model"], {"components": []}),
        # json writes these as NaN and Infinity, which Python's json reads back
        (["classify", "--moments"], {"basis": BASIS_3, "values": [1.0, 0.0, math.nan, 0.0]}),
        (["classify", "--moments"], {"basis": BASIS_3, "values": [1.0, 0.0, math.inf, 0.0]}),
        (["recover", "--moments"], {"basis": BASIS_2, "values": [1.0, math.nan, 1.0]}),
        (["recover", "--moments"], {"basis": BASIS_3, "values": [1.0, -math.inf, 1.0, 0.0]}),
    ],
    ids=["no-values", "dict-values", "moments-list", "moments-empty-list", "no-sigma", "no-x",
         "components-not-a-list", "model-list", "model-without-kind", "classify-nan",
         "classify-infinity", "recover-nan", "recover-infinity"],
)
def test_malformed_input_file_exits_one_without_traceback(workspace, capsys, command, data):
    path = workspace["dir"] / "input.json"
    path.write_text(json.dumps(data))
    argv = [arg.format(basis=workspace["basis"]) for arg in command] + [str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_missing_file_exits_one(tmp_path):
    assert main(["classify", "--moments", str(tmp_path / "nope.json")]) == 1


def test_out_flag_writes_file(workspace, tmp_path):
    out = tmp_path / "result.json"
    rc = main([
        "moments", "--model", str(workspace["model"]), "--basis", str(workspace["basis"]),
        "--out", str(out),
    ])
    assert rc == 0
    assert "values" in read_json(out)
