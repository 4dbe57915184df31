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


def test_canonical_float_arrays_read_as_their_lists():
    # the row-by-row "%.17g" of a 1-D or 2-D float array is the text of the
    # recursive path through its lists of floats
    from brachkit.cli import _canon

    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0 / 3.0, 5e-324, -1e308])
    arrays = [special, special.reshape(2, 4), np.zeros(0), np.zeros((0, 3)), np.zeros((2, 0)),
              np.random.default_rng(5).standard_normal((401, 3))]
    for arr in arrays:
        assert _canon(arr) == _canon(arr.tolist()), arr.shape
    assert _canon(special[None]) == ("[[nan,inf,-inf,-0,0,0.33333333333333331,"
                                     "4.9406564584124654e-324,-1e+308]]")


def test_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, {"typo_block": 1})
    with pytest.raises(Exception):
        load_config(path)
    assert main(["solve", "--config", str(path), "--out-dir", str(tmp_path)]) == 2


def test_config_rejects_unknown_model(tmp_path):
    path = write_config(tmp_path, {"model": {"name": "kerr"}})
    assert main(["solve", "--config", str(path), "--out-dir", str(tmp_path)]) == 2


def test_unparseable_tolerance_is_config_error(tmp_path, caplog):
    # each tolerance must be a positive finite JSON number, grid_n an integer,
    # and each 'out' entry a .json file name
    cases = [({"tolerances": {"rtol": "tight"}}, "tolerances.rtol"),
             ({"tolerances": {"rtol": "1e-8"}}, "tolerances.rtol"),
             ({"tolerances": {"grid_n": 2.5}}, "tolerances.grid_n"),
             ({"tolerances": {"grid_n": True}}, "tolerances.grid_n"),
             ({"tolerances": {"grid_n": -3}}, "tolerances.grid_n"),
             ({"tolerances": {"rtol": -1}}, "tolerances.rtol"),
             ({"tolerances": {"tol_cons": -1}}, "tolerances.tol_cons"),
             ({"tolerances": {"atol": float("nan")}}, "tolerances.atol"),
             ({"tolerances": {"tol_bvp": float("inf")}}, "tolerances.tol_bvp"),
             ({"tolerances": 1e-8}, "'tolerances'"),
             ({"out": "zzz"}, "'out'"),
             ({"out": {"solution": 3}}, "out.solution"),
             ({"out": {"solution": "solution.txt"}}, "out.solution"),
             ({"out": {"solutions": "a.json"}}, "'out'")]
    for i, (extra, key) in enumerate(cases):
        case_dir = tmp_path / str(i)
        case_dir.mkdir()
        path = write_config(case_dir, {"solve": {"u": [1.0, 0.0, 0.0], "T": 1.0}, **extra})
        with pytest.raises(ConfigError, match=key):
            run_scenario(load_config(path), "solve", case_dir / "direct")
        caplog.clear()
        with caplog.at_level("ERROR", logger="brachkit.cli"):
            assert main(["solve", "--config", str(path), "--out-dir", str(case_dir)]) == 2, extra
        assert any(key in rec.getMessage() for rec in caplog.records), extra
        assert not (case_dir / "error.json").exists()
        assert not (case_dir / "solution.json").exists()


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


@pytest.mark.parametrize("override, key", [
    ({"k": "1.4142135623730951"}, "k"),
    ({"solve": {"u": [1.0, 0.0, 0.0], "T": "1.0"}}, "solve.T"),
    ({"solve": {"u": [1.0, "0.0", 0.0], "T": 1.0}}, "solve.u"),
    ({"p": [0.0, False, 0.0]}, "p"),
    ({"solve": {"u": [1.0, 0.0, 0.0], "T": True}}, "solve.T"),
    ({"k": float("inf")}, "k"),
    ({"p": [0.0, 10 ** 400, 0.0]}, "p"),
], ids=["string_scalar", "string_in_block", "string_in_list", "boolean_in_list",
        "boolean_scalar", "infinite_scalar", "integer_beyond_float_range"])
def test_numbers_must_be_json_numbers(tmp_path, caplog, override, key):
    cfg = dict(BASE, solve={"u": [1.0, 0.0, 0.0], "T": 1.0})
    cfg.update(override)
    with pytest.raises(ConfigError, match=f"'{key}' must be"):
        run_scenario(cfg, "solve", tmp_path / "direct")
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(cfg))
    with caplog.at_level("ERROR", logger="brachkit.cli"):
        code = main(["solve", "--config", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert any("configuration error" in rec.getMessage() and f"'{key}'" in rec.getMessage()
               for rec in caplog.records)
    assert not (tmp_path / "solution.json").exists()


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
    "t,q_1,q_2,q_3,v_1,v_2,v_3\n0.0,0,0,0,1,0,0\n0.6,0,0,0,1,0,0\n0.4,0,0,0,1,0,0\n"
    "1.0,0,0,0,1,0,0\n",
], ids=["missing_file", "not_numeric", "wrong_dimension", "t_decreasing"])
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


def _solution_doc(grid, m):
    """A minkowski3 solution file over ``grid`` whose points have m columns."""
    zeros = np.zeros((len(grid), m))
    return {"model": {"name": "minkowski3"}, "k": BASE["k"], "T": 1.0,
            "residuals": {"conservation_Y": 0.0, "conservation_speed": 0.0, "equation": 0.0},
            "curve": {"grid": grid, "points": zeros.tolist(),
                      "velocities": (zeros + 1.0).tolist()}}


@pytest.mark.parametrize("command, content", [
    ("index", None),
    ("verify", None),
    ("jacobi", {"model": 3}),
    ("verify", "{not json"),
    ("verify", _solution_doc([0.0, 0.5, 0.25, 0.75, 1.0], 3)),
    ("verify", _solution_doc([0.0, 0.5, 1.0], 2)),
], ids=["index_missing_file", "verify_missing_file", "jacobi_model_not_a_block",
        "verify_not_json", "verify_grid_not_increasing", "verify_wrong_dimension"])
def test_unreadable_solution_is_config_error(tmp_path, caplog, command, content):
    if content is not None:
        text = content if isinstance(content, str) else json.dumps(content)
        (tmp_path / "nope.json").write_text(text)
    path = write_config(tmp_path, {command: {"solution": "nope.json"}})
    with caplog.at_level("ERROR", logger="brachkit.cli"):
        code = main([command, "--config", str(path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert any("configuration error" in rec.getMessage() and "nope.json" in rec.getMessage()
               for rec in caplog.records)
    assert not (tmp_path / "error.json").exists()


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
    # model parameters must be an object of finite real numbers (not booleans)
    cases = [("rotating_frame", {"omega": -1.0}),
             ("static_well", {"a": [1, 2]}),
             ("static_well", [1]),
             ("static_well", {"a": "abc"}),
             ("static_well", {"a": float("nan")}),
             ("static_well", {"a": True})]
    for name, params in cases:
        path = write_config(tmp_path, {"model": {"name": name, "params": params},
                                       "solve": {"u": [1.0, 0.0, 0.0], "T": 0.6}})
        caplog.clear()
        with caplog.at_level("ERROR", logger="brachkit.cli"):
            code = main(["solve", "--config", str(path), "--out-dir", str(tmp_path)])
        assert code == 2, params
        assert any("configuration error" in rec.getMessage() for rec in caplog.records), params
        assert not (tmp_path / "error.json").exists()


def test_commands_load_no_scipy(tmp_path, models, solutions):
    # a fresh interpreter imports the front end and runs all seven commands without
    # loading any scipy module: solve, shoot, verify, oracle and a survey of three
    # starts on static_well, then jacobi (whose one focal point is confirmed) and
    # index on the cylinder's 4.5 arc.  The child runs with -B and writes no bytecode
    # into the source tree
    import subprocess
    import sys
    from pathlib import Path

    import brachkit
    from brachkit.transform import deform_D

    anchor = deform_D(models["static_well"], solutions["static_well"]).points[-1]
    well = {"model": {"name": "static_well", "params": {"a": 1.0}}, "k": 2.0,
            "p": [0.2, 0.0, 0.0], "gamma_anchor": anchor.tolist(),
            "solve": {"u": [1.0, 0.2, 0.0], "T": 0.5},
            "shoot": {"guess_u": [1.0, 0.2, 0.0], "guess_T": 0.5},
            "verify": {"solution": "solution.json"},
            "oracle": {"n_segments": 40},
            "survey": {"n_starts": 3, "T_bracket": [0.3, 2.0], "seed": 7, "n_basis": 20}}
    arc = {"model": {"name": "einstein_cylinder"}, "k": float(np.sqrt(2.0)),
           "p": [np.pi / 2, 0.0, 0.0], "solve": {"u": [0.0, 1.0, 0.0], "T": 4.5},
           "jacobi": {"solution": "solution.json"},
           "index": {"solution": "solution.json", "n_basis": 20}}
    runs = [(well, ("solve", "shoot", "verify", "oracle", "survey"), tmp_path / "well"),
            (arc, ("solve", "jacobi", "index"), tmp_path / "arc")]
    script = ("import json, sys\n"
              "assert sys.flags.dont_write_bytecode\n"
              "from brachkit.cli import run_scenario\n"
              f"runs = json.loads({json.dumps(json.dumps([(c, k, str(d)) for c, k, d in runs]))})\n"
              "for cfg, commands, out_dir in runs:\n"
              "    for command in commands:\n"
              "        run_scenario(cfg, command, out_dir)\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
    src = str(Path(brachkit.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-B", "-c", script], capture_output=True, text=True,
                         env={"PYTHONPATH": src, "PATH": ""}, timeout=300)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == []
    for name in ("solution.json", "verify.json", "oracle.json", "survey.json"):
        assert (tmp_path / "well" / name).is_file(), name
    survey = json.loads((tmp_path / "well" / "survey.json").read_text())
    assert survey["count"] >= 1 and "index_morse" in survey["solutions"][0]
    focal = json.loads((tmp_path / "arc" / "focal.json").read_text())
    assert focal["geometric_index"] == 1
    assert json.loads((tmp_path / "arc" / "index.json").read_text())["indices"]["full"] == 1
