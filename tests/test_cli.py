import json

import numpy as np
import pytest

from brachkit.cli import dumps_canonical, load_config, main, run_scenario
from brachkit.errors import ConfigError

BASE = {
    "model": {"name": "minkowski3"},
    "k": float(np.sqrt(2.0)),
    "p": [0.0, 0.0, 0.0],
    "gamma_anchor": [1.0, 0.0, 0.0],
}


def write_config(tmp_path, extra, name="scen.json"):
    cfg = dict(BASE)
    cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_canonical_floats_roundtrip():
    vals = [1.0 / 3.0, np.pi, 1e-17, 123456.789]
    text = dumps_canonical({"vals": vals})
    parsed = json.loads(text)
    assert parsed["vals"] == vals


def test_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, {"typo_block": 1})
    with pytest.raises(Exception):
        load_config(path)
    assert main(["solve", "--config", str(path), "--out-dir", str(tmp_path)]) == 2


def test_config_rejects_unknown_model(tmp_path):
    path = write_config(tmp_path, {"model": {"name": "kerr"}})
    assert main(["solve", "--config", str(path), "--out-dir", str(tmp_path)]) == 2


def test_unparseable_tolerance_is_config_error(tmp_path):
    extra = {"solve": {"u": [1.0, 0.0, 0.0], "T": 1.0}, "tolerances": {"rtol": "tight"}}
    path = write_config(tmp_path, extra)
    with pytest.raises(ConfigError, match="tolerances.rtol"):
        run_scenario(load_config(path), "solve", tmp_path / "direct")
    assert main(["solve", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "error.json").exists()


def test_solve_and_verify(tmp_path, capsys):
    path = write_config(tmp_path, {
        "solve": {"u": [1.0, 0.0, 0.0], "T": 1.0},
        "verify": {"solution": "solution.json"},
    })
    assert main(["solve", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "solution.json").read_text())
    assert doc["T"] == 1.0
    assert main(["verify", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "verify.json").read_text())
    assert rep["passed"] is True


def test_shoot_flat_value(tmp_path):
    path = write_config(tmp_path, {
        "shoot": {"guess_u": [1.0, 0.3, 0.0], "guess_T": 0.7},
    })
    assert main(["shoot", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "solution.json").read_text())
    assert abs(doc["T"] - 1.0) < 1e-8


def test_verify_detects_tampering(tmp_path):
    path = write_config(tmp_path, {
        "solve": {"u": [1.0, 0.0, 0.0], "T": 1.0},
        "verify": {"solution": "solution.json"},
    })
    assert main(["solve", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "solution.json").read_text())
    vel = np.asarray(doc["curve"]["velocities"])
    vel[:, 0] += 1e-3 * np.sin(np.linspace(0, 6, vel.shape[0]))
    doc["curve"]["velocities"] = vel.tolist()
    (tmp_path / "solution.json").write_text(json.dumps(doc))
    assert main(["verify", "--config", str(path), "--out-dir", str(tmp_path)]) == 3
    rep = json.loads((tmp_path / "verify.json").read_text())
    assert rep["passed"] is False
    assert "conservation_Y" in rep["failures"] or "conservation_speed" in rep["failures"]


def test_survey_deterministic(tmp_path):
    path = write_config(tmp_path, {
        "survey": {"n_starts": 8, "T_bracket": [0.3, 2.0], "seed": 7,
                   "n_basis": 40},
    })
    for d in ("a", "b"):
        assert main(["survey", "--config", str(path), "--out-dir",
                     str(tmp_path / d), "--seed", "7"]) == 0
    assert (tmp_path / "a" / "survey.json").read_bytes() == \
        (tmp_path / "b" / "survey.json").read_bytes()
    assert (tmp_path / "a" / "survey_sol_000.csv").read_bytes() == \
        (tmp_path / "b" / "survey_sol_000.csv").read_bytes()


def test_missing_command_block(tmp_path):
    path = write_config(tmp_path, {})
    assert main(["shoot", "--config", str(path), "--out-dir", str(tmp_path)]) == 2


def test_numerical_failure_exit_code(tmp_path):
    # k = 1.05 launch in the well escapes the admissible region: exit 3
    cfg = {
        "model": {"name": "static_well", "params": {"a": 1.0}},
        "k": 1.05,
        "p": [0.0, 0.0, 0.0],
        "gamma_anchor": [2.5, 0.0, 0.0],
        "solve": {"u": [1.0, 0.0, 0.0], "T": 3.0},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(path), "--out-dir", str(tmp_path)]) == 3
    err = json.loads((tmp_path / "error.json").read_text())
    assert err["error"] == "OutsideUk"


def _shoot_config(tmp_path, **overrides):
    cfg = dict(BASE, shoot={"guess_u": [1.0, 0.3, 0.0], "guess_T": 0.7})
    cfg.update(overrides)
    for key in [key for key, value in cfg.items() if value is None]:
        del cfg[key]
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(cfg))
    return path


def _assert_config_error(tmp_path, path, caplog):
    with caplog.at_level("ERROR", logger="brachkit.cli"):
        code = main(["shoot", "--config", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert any("configuration error" in rec.getMessage() for rec in caplog.records)


def test_missing_k_is_config_error(tmp_path, caplog):
    _assert_config_error(tmp_path, _shoot_config(tmp_path, k=None), caplog)


def test_unparseable_k_is_config_error(tmp_path, caplog):
    _assert_config_error(tmp_path, _shoot_config(tmp_path, k="abc"), caplog)


def test_short_point_is_config_error(tmp_path, caplog):
    _assert_config_error(tmp_path, _shoot_config(tmp_path, p=[0.0, 0.0]), caplog)


_SURVEY = {"n_starts": 2, "T_bracket": [0.3, 2.0], "seed": 7}


@pytest.mark.parametrize("command, override, key", [
    ("solve", {"k": -2.0, "solve": {"u": [1.0, 0.0, 0.0], "T": 1.0}}, "k"),
    ("solve", {"solve": {"u": [1.0, 0.0, 0.0], "T": 0}}, "solve.T"),
    ("shoot", {"shoot": {"guess_u": [1.0, 0.3, 0.0], "guess_T": -0.7}}, "shoot.guess_T"),
    ("survey", {"survey": {"n_starts": 8, "T_bracket": [2.0, 0.3], "seed": 7}},
     "survey.T_bracket"),
    ("survey", {"survey": {"n_starts": 0, "T_bracket": [0.3, 2.0], "seed": 7}},
     "survey.n_starts"),
    ("index", {"index": {"solution": "solution.json", "n_basis": 0}}, "index.n_basis"),
    ("survey", {"survey": dict(_SURVEY, n_starts=2.7)}, "survey.n_starts"),
    ("survey", {"survey": dict(_SURVEY, seed=1.5)}, "survey.seed"),
    ("survey", {"survey": dict(_SURVEY, n_starts=True)}, "survey.n_starts"),
    ("survey", {"survey": dict(_SURVEY, attach_indices="no")}, "survey.attach_indices"),
    ("index", {"index": {"solution": "solution.json", "n_basis": 40.0}}, "index.n_basis"),
    ("oracle", {"oracle": {"n_segments": 20.5}}, "oracle.n_segments"),
    ("oracle", {"oracle": {"max_iters": "100"}}, "oracle.max_iters"),
    ("oracle", {"oracle": {"shoot_check": 0}}, "oracle.shoot_check"),
], ids=["k_positive", "T_positive", "guess_T_positive", "T_bracket_increasing",
        "n_starts_at_least_1", "n_basis_at_least_2", "n_starts_integral", "seed_integral",
        "n_starts_not_boolean", "attach_indices_boolean", "index_n_basis_integral",
        "n_segments_integral", "max_iters_integral", "shoot_check_boolean"])
def test_out_of_range_number_is_config_error(tmp_path, caplog, command, override, key):
    path = write_config(tmp_path, override)
    with caplog.at_level("ERROR", logger="brachkit.cli"):
        code = main([command, "--config", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert any("configuration error" in rec.getMessage() and f"'{key}'" in rec.getMessage()
               for rec in caplog.records)
    assert not (tmp_path / "solution.json").exists()


@pytest.mark.parametrize("content", [
    None,
    "t,q_1,q_2,q_3,v_1,v_2,v_3\n0.0,a,b,c,d,e,f\n",
    "t,q_1,q_2,v_1,v_2\n0.0,0.0,0.0,1.0,0.0\n1.0,1.0,0.0,1.0,0.0\n",
], ids=["missing_file", "not_numeric", "wrong_dimension"])
def test_unreadable_oracle_init_is_config_error(tmp_path, caplog, content):
    if content is not None:
        (tmp_path / "init.csv").write_text(content)
    path = write_config(tmp_path, {"oracle": {"init": "init.csv", "n_segments": 20}})
    with caplog.at_level("ERROR", logger="brachkit.cli"):
        code = main(["oracle", "--config", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert any("configuration error" in rec.getMessage() and "init.csv" in rec.getMessage()
               for rec in caplog.records)
    assert not (tmp_path / "error.json").exists()
    assert not (tmp_path / "oracle.json").exists()


@pytest.mark.parametrize("command, content", [
    ("index", None),
    ("verify", None),
    ("jacobi", {"model": 3}),
    ("verify", "{not json"),
], ids=["index_missing_file", "verify_missing_file", "jacobi_model_not_a_block",
        "verify_not_json"])
def test_unreadable_solution_is_config_error(tmp_path, caplog, command, content):
    if content is not None:
        text = content if isinstance(content, str) else json.dumps(content)
        (tmp_path / "nope.json").write_text(text)
    path = write_config(tmp_path, {command: {"solution": "nope.json"}})
    with caplog.at_level("ERROR", logger="brachkit.cli"):
        code = main([command, "--config", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert any("configuration error" in rec.getMessage() for rec in caplog.records)


@pytest.mark.parametrize("command, override", [
    ("solve", {"p": [5.0, 0.0, 0.0], "solve": {"u": [1.0, 0.0, 0.0], "T": 0.6}}),
    ("shoot", {"gamma_anchor": [5.0, 0.0, 0.0],
               "shoot": {"guess_u": [1.0, 0.0, 0.0], "guess_T": 1.0}}),
], ids=["p", "gamma_anchor"])
def test_point_outside_chart_is_config_error(tmp_path, caplog, command, override):
    # rotating_frame's chart is the disc x^2 + y^2 < r_max^2 = 4
    path = write_config(tmp_path, {"model": {"name": "rotating_frame"}, "k": 1.5,
                                   "p": [0.3, 0.2, 0.0], "gamma_anchor": [0.8, 0.5, 0.0],
                                   **override})
    with caplog.at_level("ERROR", logger="brachkit.cli"):
        code = main([command, "--config", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert any("outside the chart" in rec.getMessage() for rec in caplog.records)
    assert not (tmp_path / "solution.json").exists()


def test_invalid_model_params_is_config_error(tmp_path, caplog):
    path = write_config(tmp_path, {"model": {"name": "rotating_frame", "params": {"omega": -1.0}},
                                   "solve": {"u": [1.0, 0.0, 0.0], "T": 0.6}})
    with caplog.at_level("ERROR", logger="brachkit.cli"):
        code = main(["solve", "--config", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert any("configuration error" in rec.getMessage() for rec in caplog.records)
