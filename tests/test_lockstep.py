"""Lockstep shooting: the per-lane RK45, the lockstep Newton loop and the dense observer orbit."""

import json
import logging
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from brachkit.bvp import (ObserverWorldline, ShootingProblem, _solve_starts, _survey_starts,
                          multistart_survey, shoot)
from brachkit.cli import run_scenario
from brachkit.dynamics import (IntegratorConfig, _rhs_factory, brachistochrone_acceleration,
                               initial_velocity, rk45_lanes, shot_endpoints)
from brachkit.errors import ConfigError, NoConvergence, OutOfChart
from brachkit.transform import flow_points

from conftest import STANDARD_LAUNCH, unit_horizontal


def _launches(model, info, n, seed):
    """n launch states around the model's standard launch, with their travel times."""
    rng = np.random.default_rng(seed)
    p = np.asarray(info["p"], dtype=float)
    states, Ts = [], []
    for _ in range(n):
        seed_dir = np.asarray(info["useed"]) + 0.3 * rng.standard_normal(model.m)
        u = unit_horizontal(model, p, seed_dir)
        T = info["T"] * (0.7 + 0.6 * rng.random())
        states.append(np.concatenate([p, initial_velocity(model, info["k"], p, u, T)]))
        Ts.append(T)
    return np.array(states), np.array(Ts)


def _lane_fun(model, k, Ts):
    m = model.m

    def fun(Y, lanes):
        acc = brachistochrone_acceleration(model, k, Ts[lanes], Y[:, :m], Y[:, m:])
        return np.concatenate([Y[:, m:], acc], axis=1)
    return fun


def test_rk45_lanes_match_scipy_rk45(models):
    for name, info in STANDARD_LAUNCH.items():
        model, k = models[name], info["k"]
        states, Ts = _launches(model, info, 5, seed=1)
        ends, steps, failures = rk45_lanes(_lane_fun(model, k, Ts), states, 1e-10, 1e-10)
        assert failures == {}
        for j in range(len(Ts)):
            ref = solve_ivp(_rhs_factory(model, k, Ts[j]), (0.0, 1.0), states[j], method="RK45",
                            rtol=1e-10, atol=1e-10)
            assert steps[j] == ref.t.size - 1, name
            end = ref.y[:, -1]
            assert np.max(np.abs(ends[j] - end) / np.maximum(np.abs(end), 1.0)) < 1e-12, name


def test_rk45_lanes_match_scipy_rk45_with_rejected_steps():
    # van der Pol at mu = 8 makes RK45 reject steps, so the rules after a
    # rejection (shrink factor, no growth on the next acceptance) take part
    def vdp(y):
        return np.stack([y[..., 1], 8.0 * (1.0 - y[..., 0] ** 2) * y[..., 1] - y[..., 0]], axis=-1)

    y0 = np.array([[2.0, 0.0], [1.0, 1.0]])
    ends, steps, failures = rk45_lanes(lambda Y, lanes: vdp(Y), y0, 1e-6, 1e-6)
    assert failures == {}
    for j in range(2):
        ref = solve_ivp(lambda t, y: vdp(y), (0.0, 1.0), y0[j], method="RK45", rtol=1e-6, atol=1e-6)
        assert ref.nfev > 6 * (ref.t.size - 1) + 2  # at least one rejected step
        assert steps[j] == ref.t.size - 1
        assert np.max(np.abs(ends[j] - ref.y[:, -1])) < 1e-12


def test_lane_leaving_chart_fails_alone(models):
    model = models["einstein_cylinder"]
    info = STANDARD_LAUNCH["einstein_cylinder"]
    k = info["k"]
    states, Ts = _launches(model, info, 3, seed=2)
    # a meridian launch of length 3 runs into the theta >= 0.1 edge of the chart
    p = np.asarray(info["p"], dtype=float)
    meridian = unit_horizontal(model, p, [1.0, 0.0, 0.0])
    pole = np.concatenate([p, initial_velocity(model, k, p, meridian, 3.0)])
    states = np.insert(states, 1, pole, axis=0)
    Ts = np.insert(Ts, 1, 3.0)
    ends, _, failures = rk45_lanes(_lane_fun(model, k, Ts), states, 1e-10, 1e-10)
    assert set(failures) == {1} and isinstance(failures[1], OutOfChart)
    assert np.isnan(ends[1]).all()
    for j in (0, 2, 3):
        alone, _, none = rk45_lanes(_lane_fun(model, k, Ts[j:j + 1]), states[j:j + 1], 1e-10, 1e-10)
        assert none == {}
        assert np.array_equal(alone[0], ends[j])
    # the same through the shooting entry point
    out = shot_endpoints(model, k, states, Ts, IntegratorConfig())
    assert isinstance(out[1], OutOfChart)
    assert all(np.array_equal(out[j], ends[j, :3]) for j in (0, 2, 3))


def test_lane_step_size_failure_is_no_convergence():
    # y' = y^2 from y(0) = 2 blows up at t = 1/2; the linear lane is unaffected
    def fun(Y, lanes):
        return np.where((lanes == 0)[:, None], Y * Y, -Y)

    ends, steps, failures = rk45_lanes(fun, np.array([[2.0], [1.0]]), 1e-10, 1e-10)
    assert set(failures) == {0}
    assert isinstance(failures[0], NoConvergence)
    assert str(failures[0]).startswith("shot integration failed")
    assert ends[1, 0] == pytest.approx(np.exp(-1.0), rel=1e-9)
    ref = solve_ivp(lambda t, y: -y, (0.0, 1.0), [1.0], method="RK45", rtol=1e-10, atol=1e-10)
    assert steps[1] == ref.t.size - 1


def test_dense_orbit_matches_flow_points(models):
    s_values = np.linspace(-20.0, 20.0, 41)
    for name, info in STANDARD_LAUNCH.items():
        model = models[name]
        anchor = np.asarray(info["p"], dtype=float) + 0.1
        orbit = ObserverWorldline(anchor, model)
        dense = np.array([orbit.point(s) for s in s_values])
        ref = flow_points(model, np.tile(anchor, (s_values.size, 1)), s_values)
        assert np.max(np.abs(dense - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-12, name
        # the value at s does not depend on which s were asked for before
        shuffled = ObserverWorldline(anchor, model)
        order = np.random.default_rng(3).permutation(s_values.size)
        again = np.empty_like(dense)
        for i in order:
            again[i] = shuffled.point(s_values[i])
        assert np.array_equal(again, dense), name


def test_shoot_equals_its_lane_in_a_survey(models):
    model = models["static_well"]
    gamma = ObserverWorldline(np.array([0.4, 0.3, 0.0]), model)
    prob = ShootingProblem(model, np.array([0.1, 0.0, 0.0]), gamma, 2.0)
    starts = _survey_starts(model.m, 6, (0.05, 0.8), seed=5)
    together, rounds, lane_shots = _solve_starts(prob, starts)
    assert rounds >= 1 and lane_shots >= len(starts)
    for start, sol in zip(starts, together):
        alone = shoot(ShootingProblem(model, prob.p, ObserverWorldline(gamma.anchor, model), 2.0),
                      start)
        assert alone.T == sol.T
        assert np.array_equal(alone.sigma.points, sol.sigma.points)
        assert np.array_equal(alone.sigma.velocities, sol.sigma.velocities)
    res = multistart_survey(prob, 6, (0.05, 0.8), seed=5, attach_indices=False)
    first = min(together, key=lambda s: s.T)
    assert np.array_equal(res.solutions[0]["solution"].sigma.points, first.sigma.points)


SURVEY = {
    "model": {"name": "minkowski3"},
    "k": float(np.sqrt(2.0)),
    "p": [0.0, 0.0, 0.0],
    "gamma_anchor": [1.0, 0.0, 0.0],
    "survey": {"n_starts": 10, "T_bracket": [0.3, 2.0], "seed": 4, "attach_indices": False},
}


@pytest.mark.parametrize("bracket", [[0.3, 2.0], [0.3, 0.9]])  # T = 1 inside, outside
def test_survey_summary_line_counts_every_start(tmp_path, caplog, bracket):
    cfg = dict(SURVEY, survey=dict(SURVEY["survey"], T_bracket=bracket))
    with caplog.at_level(logging.INFO, logger="brachkit.bvp"):
        run_scenario(cfg, "survey", tmp_path / "on")
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("survey:")]
    assert len(lines) == 1
    counts = {key: int(val) for key, val in re.findall(r"(\w+)=(\d+)", lines[0])}
    assert (counts["distinct"] + counts["duplicate"] + counts["outside_bracket"]
            + counts["failed"] == counts["starts"] == 10)
    by_class = {key: val for key, val in counts.items() if key[0].isupper()}
    assert sum(by_class.values()) == counts["failed"]
    assert counts["rounds"] >= 1 and counts["lane_shots"] >= 10
    assert (counts["outside_bracket"] > 0) == (bracket[1] < 1.0)
    logging.disable(logging.CRITICAL)
    try:
        run_scenario(cfg, "survey", tmp_path / "off")
    finally:
        logging.disable(logging.NOTSET)
    on = (tmp_path / "on" / "survey.json").read_bytes()
    assert on == (tmp_path / "off" / "survey.json").read_bytes()
    assert json.loads(on)["count"] == counts["distinct"]


def test_threads_other_than_one_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        run_scenario(SURVEY, "survey", tmp_path, threads=2)
