"""Lockstep shooting: the per-lane DOP853, the lockstep Newton loop and the observer orbit."""

import dataclasses
import json
import logging
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import brachkit.bvp as bvp
import brachkit.dynamics as dynamics
from brachkit.bvp import (ObserverWorldline, ShootingProblem, _integrate, _newton,
                          _residual_vector, _solve_starts, _sphere_chart, _sphere_direction,
                          _survey_starts, multistart_survey, shoot)
from brachkit.cli import run_scenario
from brachkit.dynamics import (IntegratorConfig, _launch_velocity, _max_step,
                               brachistochrone_acceleration, initial_velocity,
                               integrate_brachistochrone, ode_lanes, shot_endpoints)
from brachkit.errors import (BrachkitError, ConfigError, NoConvergence, NotGeodesic, NotHorizontal,
                             OutOfChart, StepFailure)
from brachkit.geometry import horizontal_unit
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


def _scipy_rhs(model, k, T):
    """The travel-time equation as a single-state right-hand side for solve_ivp."""
    m = model.m

    def rhs(t, state):
        acc = brachistochrone_acceleration(model, k, T, state[None, :m], state[None, m:])[0]
        return np.concatenate([state[m:], acc])
    return rhs


# the arrival alone (the shots' grid), and a dense grid with nodes inside steps
GRIDS = ((1.0,), np.linspace(0.0, 1.0, 41))


def _lanes_at(fun, y0, tol, grid, **kwargs):
    """``(samples, steps, failures)`` of ode_lanes at rtol = atol = tol, the samples of
    each lane at ``grid``, shape (lanes, nodes, d): the arrivals of a run without dense
    output for the shots' grid (1.0,), else each lane's extension; NaN for a failed lane."""
    if len(grid) == 1:
        ends, steps, failures = ode_lanes(fun, y0, tol, tol, **kwargs)
        return ends[:, None], steps, failures
    lanes, steps, failures = ode_lanes(fun, y0, tol, tol, dense=True, **kwargs)
    nan = np.full((len(grid), np.shape(y0)[1]), np.nan)
    return np.array([nan if lane is None else lane(grid) for lane in lanes]), steps, failures


def _assert_matches_scipy(samples, ref, grid, rel):
    """samples of one lane against scipy's solution: its arrival and its dense output."""
    end = ref.y[:, -1]
    assert np.max(np.abs(samples[-1] - end) / np.maximum(np.abs(end), 1.0)) < rel
    dense = ref.sol(np.asarray(grid)).T
    assert np.max(np.abs(samples - dense) / np.maximum(np.abs(dense), 1.0)) < rel


def _counting(fun, n):
    """``fun`` that adds the evaluations of each of the n lanes to its ``nfev``."""
    def counted(Y, lanes):
        counted.nfev += np.bincount(lanes, minlength=n)
        return fun(Y, lanes)
    counted.nfev = np.zeros(n, dtype=int)
    return counted


def _assert_scipy_nfev(nfev, refs, grid):
    """Per-lane evaluations against scipy's dense solves, which pay the dense output's 3
    extra stages on every step: the shots' grid pays them on none, a denser grid on the
    steps with a node inside."""
    for j, ref in enumerate(refs):
        shot = ref.nfev - 3 * (ref.t.size - 1)
        assert nfev[j] == shot if len(grid) == 1 else shot < nfev[j] <= ref.nfev


def _dop853(fun, y0, rtol, max_step=np.inf):
    return solve_ivp(fun, (0.0, 1.0), y0, method="DOP853", rtol=rtol, atol=rtol,
                     dense_output=True, max_step=max_step)


def test_ode_lanes_match_scipy_dop853(models):
    # free steps, and the step bound of the brachistochrone lanes
    for name, info in STANDARD_LAUNCH.items():
        model, k = models[name], info["k"]
        states, Ts = _launches(model, info, 5, seed=1)
        for max_step in (np.inf, _max_step(1e-10)):
            refs = [_dop853(_scipy_rhs(model, k, Ts[j]), states[j], 1e-10, max_step)
                    for j in range(len(Ts))]
            for grid in GRIDS:
                fun = _counting(_lane_fun(model, k, Ts), len(Ts))
                samples, steps, failures = _lanes_at(fun, states, 1e-10, grid,
                                                     max_step=max_step)
                assert failures == {}
                for j, ref in enumerate(refs):
                    assert steps[j] == ref.t.size - 1, name
                    _assert_matches_scipy(samples[j], ref, grid, 1e-12)
                _assert_scipy_nfev(fun.nfev, refs, grid)


def test_ode_lanes_match_scipy_dop853_with_rejected_steps():
    # van der Pol at mu = 8 makes DOP853 reject steps, so the rules after a
    # rejection (shrink factor, no growth on the next acceptance) take part
    def vdp(y):
        return np.stack([y[..., 1], 8.0 * (1.0 - y[..., 0] ** 2) * y[..., 1] - y[..., 0]], axis=-1)

    y0 = np.array([[2.0, 0.0], [1.0, 1.0]])
    refs = [_dop853(lambda t, y: vdp(y), y0[j], 1e-6) for j in range(2)]
    for grid in GRIDS:
        fun = _counting(lambda Y, lanes: vdp(Y), 2)
        samples, steps, failures = _lanes_at(fun, y0, 1e-6, grid)
        assert failures == {}
        for j, ref in enumerate(refs):
            assert ref.nfev > 15 * (ref.t.size - 1) + 2  # at least one rejected step
            assert steps[j] == ref.t.size - 1
            _assert_matches_scipy(samples[j], ref, grid, 1e-12)
        _assert_scipy_nfev(fun.nfev, refs, grid)


def test_ode_lanes_dense_output_matches_scipy_at_interior_nodes(models):
    # 401 nodes, scipy's step ends and random t: a step end is the lane's state there,
    # bit for bit, and t = 1 its arrival; a t inside a step is read off the 7th-order
    # dense output; both agree with scipy's sol(t) to roundoff, which the dense
    # output's coefficients (up to 528 in size) amplify by their cancellation
    rng = np.random.default_rng(4)

    def rel(got, want):
        return np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0))

    for name, info in STANDARD_LAUNCH.items():
        model, k = models[name], info["k"]
        states, Ts = _launches(model, info, 3, seed=4)
        for j in range(len(Ts)):
            ref = _dop853(_scipy_rhs(model, k, Ts[j]), states[j], 1e-10)
            fun = _lane_fun(model, k, Ts[j:j + 1])
            (lane,), _, failures = ode_lanes(fun, states[j:j + 1], 1e-10, 1e-10, dense=True)
            assert failures == {}
            grid = np.union1d(ref.t, np.linspace(0.0, 1.0, 401))
            inside = ~np.isin(grid, ref.t)
            assert inside.sum() > 350 and rel(lane(grid[~inside]), ref.y.T) < 1e-14, name
            assert rel(lane(grid[inside]), ref.sol(grid[inside]).T) < 1e-12, name
            off = rng.uniform(0.0, 1.0, 100)
            assert rel(lane(off), ref.sol(off).T) < 1e-12, name
            assert np.array_equal(lane(lane.t), lane.y), name
            ends, _, _ = ode_lanes(fun, states[j:j + 1], 1e-10, 1e-10)
            assert np.array_equal(lane(1.0), ends[0]), name

    # a lane whose last column is a clock running down from 1, as the Jacobi lanes'
    # adjoint does: x'' = -(1 + t^2) x read backward in t = 1 - s, against scipy's
    # solve of the same system
    def clocked(Y):
        x, v, t = Y[..., 0], Y[..., 1], Y[..., 2]
        return -np.stack([v, -(1.0 + t * t) * x, np.ones_like(t)], axis=-1)

    y0 = np.array([[1.0, 0.5, 1.0]])
    (lane,), _, _ = ode_lanes(lambda Y, lanes: clocked(Y), y0, 1e-10, 1e-10, dense=True)
    ref = _dop853(lambda s, y: clocked(y), y0[0], 1e-10)
    off = rng.uniform(0.0, 1.0, 100)
    assert rel(lane(off), ref.sol(off).T) < 1e-12
    assert rel(lane(ref.t), ref.y.T) < 1e-14
    assert lane(1.0)[-1] == pytest.approx(0.0, abs=1e-14)


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
    cap = _max_step(1e-10)  # the step bound of the shooting entry point below
    for grid in GRIDS:
        samples, _, failures = _lanes_at(_lane_fun(model, k, Ts), states, 1e-10, grid,
                                         max_step=cap)
        assert set(failures) == {1} and isinstance(failures[1], OutOfChart)
        assert np.isnan(samples[1, -1]).all()
        for j in (0, 2, 3):
            alone, _, none = _lanes_at(_lane_fun(model, k, Ts[j:j + 1]), states[j:j + 1],
                                       1e-10, grid, max_step=cap)
            assert none == {}
            assert np.array_equal(alone[0], samples[j])
    # the same through the shooting entry point
    out = shot_endpoints(model, k, states, Ts, IntegratorConfig())
    assert isinstance(out[1], OutOfChart)
    assert all(np.array_equal(out[j], samples[j, -1, :3]) for j in (0, 2, 3))


def test_lane_step_size_failure_is_step_failure():
    # y' = y^2 from y(0) = 2 blows up at t = 1/2, and a NaN start makes a NaN initial
    # step, which must fail rather than step for ever; the linear lane is unaffected
    def fun(Y, lanes):
        return np.where((lanes == 0)[:, None], Y * Y, -Y)

    ends, steps, failures = ode_lanes(fun, np.array([[2.0], [1.0], [np.nan]]), 1e-10, 1e-10)
    assert set(failures) == {0, 2}
    for lane in (0, 2):
        assert type(failures[lane]) is StepFailure
        assert str(failures[lane]) == ("integrator failed: Required step size is less than "
                                       "spacing between numbers.")
    assert ends[1, 0] == pytest.approx(np.exp(-1.0), rel=1e-9)
    ref = solve_ivp(lambda t, y: -y, (0.0, 1.0), [1.0], method="DOP853", rtol=1e-10, atol=1e-10)
    assert steps[1] == ref.t.size - 1


def test_lane_raising_in_a_dense_output_stage_leaves_alone():
    # lane 0 raises from its first evaluation after the 2 of its initial step and the
    # 12 of each of its steps: in the first of the dense output's 3 extra stages,
    # which run once every lane has arrived
    _, (n_steps,), _ = ode_lanes(lambda Y, lanes: -Y, np.array([[1.0]]), 1e-10, 1e-10)
    seen = np.zeros(3, dtype=int)

    def fun(Y, lanes):
        np.add.at(seen, lanes, 1)
        if 0 in lanes and seen[0] > 2 + 12 * n_steps:
            raise ValueError("off the chart")
        return -Y

    grid = np.linspace(0.0, 1.0, 41)
    y0 = np.array([[1.0], [2.0], [3.0]])
    lanes, steps, failures = ode_lanes(fun, y0, 1e-10, 1e-10, dense=True)
    assert set(failures) == {0} and str(failures[0]) == "off the chart"
    assert steps[0] == n_steps and lanes[0] is None
    for j in (1, 2):
        (alone,), alone_steps, none = ode_lanes(lambda Y, lanes: -Y, y0[j:j + 1], 1e-10,
                                                1e-10, dense=True)
        assert none == {} and alone_steps[0] == steps[j]
        assert np.array_equal(alone(grid), lanes[j](grid)), j


def test_lanes_are_bit_identical_alone_and_in_batches_that_lose_lanes():
    # lanes of 1 to 8 components, some of which leave mid-step; every lane's samples
    # (or its failure) are the same alone and in the batch, whatever the layout the
    # stages take after lanes leave
    rng = np.random.default_rng(5)

    def fun(Y, lanes):
        if (Y[:, 0] > 1.9).any():
            raise ValueError("left")
        return np.roll(Y, 1, axis=1) * 1.3 - 0.4 * Y ** 2 + 0.2

    left = 0
    for _ in range(16):
        d, n = int(rng.integers(1, 9)), int(rng.integers(2, 7))
        y0 = rng.uniform(0.0, 1.5, (n, d))
        grid = np.union1d(rng.uniform(0.0, 1.0, 20), [1.0])
        for g in ((1.0,), grid):
            samples, _, failures = _lanes_at(fun, y0, 1e-9, g)
            left += len(failures)
            for j in range(n):
                alone, _, failed = _lanes_at(fun, y0[j:j + 1], 1e-9, g)
                assert (j in failures) == (0 in failed), (d, n, j)
                assert np.array_equal(alone[0], samples[j], equal_nan=True), (d, n, j)
    assert left > 20


@pytest.mark.parametrize("n, bad", [(2, {1}), (7, {0, 6}), (16, {5}), (33, {3, 4, 20}),
                                    (64, {0, 31, 32, 63})])
def test_a_batch_that_raises_is_halved_down_to_its_failing_lanes(n, bad):
    # the lanes in ``bad`` raise at their first evaluation: the batch that holds them
    # is halved until each is alone, so it costs at most 2 f ceil(log2 n) calls more
    # than the other lanes in a batch of their own (each lane alone: n more)
    calls, raising = [0], set(bad)

    def fun(Y, lanes):
        calls[0] += 1
        hit = [lane for lane in lanes.tolist() if lane in raising]
        if hit:
            raise ValueError(f"lane {hit[0]}")
        return 0.3 * Y * Y - Y

    y0 = np.linspace(0.2, 1.4, n)[:, None]
    ends, _, failures = ode_lanes(fun, y0, 1e-10, 1e-10)
    batch_calls, calls[0] = calls[0], 0
    raising.clear()
    good = [j for j in range(n) if j not in bad]
    good_ends, _, none = ode_lanes(fun, y0[good], 1e-10, 1e-10)
    assert none == {}
    assert batch_calls - calls[0] <= 2 * len(bad) * int(np.ceil(np.log2(n)))
    assert list(failures) == sorted(bad)
    assert all(str(exc) == f"lane {lane}" for lane, exc in failures.items())
    assert np.array_equal(ends[good], good_ends)
    for i, j in enumerate(good):
        (alone,), _, _ = ode_lanes(fun, y0[j:j + 1], 1e-10, 1e-10)
        assert np.array_equal(alone, good_ends[i]), j


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
    together, counts = _solve_starts(prob, starts)
    assert counts["rounds"] >= 1 and counts["lane_shots"] >= len(starts)
    for start, (u, T) in zip(starts, together):
        alone = ShootingProblem(model, prob.p, ObserverWorldline(gamma.anchor, model), 2.0)
        (lone,), _ = _solve_starts(alone, [start])
        assert lone[1] == T and np.array_equal(lone[0], u)
        sol = shoot(alone, start)
        assert sol.T == T
        assert np.array_equal(sol.sigma.velocities[0], initial_velocity(model, 2.0, prob.p, u, T))
    res = multistart_survey(prob, 6, (0.05, 0.8), seed=5, attach_indices=False)
    first = min(together, key=lambda launch: launch[1])
    assert res.solutions[0]["T"] == first[1]
    assert np.array_equal(res.solutions[0]["solution"].sigma.points,
                          _integrate(prob, first).sigma.points)


def _standard_shoot(models, solutions, name):
    """The shooting problem to the end of the model's standard solution, and a guess off it."""
    model, info = models[name], STANDARD_LAUNCH[name]
    p = np.asarray(info["p"], dtype=float)
    prob = ShootingProblem(model, p, ObserverWorldline(solutions[name].sigma.points[-1], model),
                           info["k"])
    return prob, (np.asarray(info["useed"]) + [0.05, -0.05, 0.0], 1.05 * info["T"])


@pytest.mark.parametrize("name", ["static_well", "rotating_frame"])
def test_shoot_curve_ends_at_its_converged_arrival(models, solutions, monkeypatch, name):
    # the stored curve is the converged shot's lane sampled on the dense grid, not a
    # second integration: it ends where Newton converged and is the curve that
    # integrating the converged launch gives, bit for bit
    prob, guess = _standard_shoot(models, solutions, name)
    arrivals, integrated = [], []

    def recording(problem, q_end):
        arrivals.append(q_end)
        return _residual_vector(problem, q_end)

    def counting(*args):
        integrated.append(args)
        return integrate_brachistochrone(*args)

    monkeypatch.setattr(bvp, "_residual_vector", recording)
    monkeypatch.setattr(bvp, "integrate_brachistochrone", counting)
    sol = shoot(prob, guess)
    assert integrated == []
    # the last residual Newton reads is the one it converges on
    assert np.array_equal(sol.sigma.points[-1], arrivals[-1])
    assert np.linalg.norm(_residual_vector(prob, sol.sigma.points[-1])) < prob.config.tol_bvp
    (launch,), _ = _solve_starts(prob, [guess])
    ref = _integrate(prob, launch)
    assert sol.T == ref.T == launch[1]
    for key in ("grid", "points", "velocities"):
        assert np.array_equal(getattr(sol.sigma, key), getattr(ref.sigma, key)), key
    assert (sol.residual_conservation_Y, sol.residual_conservation_speed, sol.residual_ode) == (
        ref.residual_conservation_Y, ref.residual_conservation_speed, ref.residual_ode)


def test_shoot_pays_for_one_dense_output(models, solutions, monkeypatch):
    # the standard static_well shoot costs its Newton run and the 3 stages of one dense
    # output: 395 calls, where a second, dense run of the converged launch made it 493
    prob, guess = _standard_shoot(models, solutions, "static_well")
    solve, counts = bvp._solve_starts, []

    def counting(*args, **kwargs):
        results, tally = solve(*args, **kwargs)
        counts.append(tally["batched_calls"])
        return results, tally

    monkeypatch.setattr(bvp, "_solve_starts", counting)
    shoot(prob, guess)
    _, plain = solve(prob, [guess])
    assert counts == [plain["batched_calls"] + 3] == [395]


def test_shoot_keeps_stages_only_for_trial_shots(cylinder_survey):
    # a damped start: two Jacobian launches ride with each of its trial shots.  Kept
    # for every lane, the stages would take about as much memory as a dense run of all
    # its launches does; kept for the trials' shots only, they take about a third
    import tracemalloc

    prob, starts = cylinder_survey
    guess = starts[11]
    launches, trials, ends = [], [], None
    newton = _newton(prob, guess)
    try:
        while True:
            shots, nominal = newton.send(ends)
            trials += [len(launches) + j for j in nominal]
            launches += shots
            ends = shot_endpoints(prob.model, prob.k, np.array([st for st, _ in shots]),
                                  [T for _, T in shots], prob.config.integrator)
    except StopIteration:
        pass
    assert 0 < len(trials) < len(launches) / 2

    def peak(f, *args, **kwargs):
        tracemalloc.start()
        try:
            f(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    states, Ts = np.array([st for st, _ in launches]), [T for _, T in launches]
    cfg = prob.config.integrator
    every_lane = (peak(dynamics._shot_lanes, prob.model, prob.k, states, Ts, cfg, dense=True)
                  - peak(dynamics._shot_lanes, prob.model, prob.k, states, Ts, cfg))
    trial_lanes = peak(_solve_starts, prob, [guess], dense=True) - peak(_solve_starts, prob, [guess])
    assert 0 < trial_lanes < 0.5 * every_lane


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
    assert counts["batched_calls"] >= counts["rounds"]
    # one flat solution: its duplicates are found by their launches, not by dense curves
    assert counts["integrated"] == counts["distinct"]
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


# ---------------------------------------------------------------------------
# Continuous admission and the speculative line search


def _admission_run(model, k, states, Ts, n_first, plan, grid=(1.0,)):
    """ode_lanes over ``states``: the first n_first lanes at the start, then
    ``plan[c]`` more (in order) at the c-th call of admit; returns the result and the calls."""
    calls, queue = [], list(plan)

    def admit(left):
        calls.append(dict(left))
        n = queue.pop(0) if queue else 0
        first = n_first + sum(plan[:len(calls) - 1])
        return states[first:first + n]

    out = _lanes_at(_lane_fun(model, k, Ts), states[:n_first], 1e-10, grid, admit=admit)
    return out, calls


def test_lane_admitted_mid_run_matches_its_run_alone(models):
    model = models["einstein_cylinder"]
    info = STANDARD_LAUNCH["einstein_cylinder"]
    k = info["k"]
    states, Ts = _launches(model, info, 6, seed=7)
    # lane 0 is a short shot, so it arrives while the others are still running
    p = np.asarray(info["p"], dtype=float)
    Ts[0] = 0.05
    states[0, 3:] = initial_velocity(model, k, p, unit_horizontal(model, p, info["useed"]), 0.05)
    for grid in GRIDS:
        (samples, steps, failures), calls = _admission_run(model, k, states, Ts, 3, [2, 1], grid)
        assert failures == {}
        assert list(calls[0]) == [0] and steps[1] > steps[0] and steps[2] > steps[0]
        assert 1 not in calls[0] and 2 not in calls[0]  # still running when lanes 3, 4 joined
        assert sorted(lane for c in calls for lane in c) == list(range(6))
        assert all(np.array_equal(end, samples[lane, -1]) for c in calls for lane, end in c.items())
        for j in range(6):
            alone, alone_steps, none = _lanes_at(_lane_fun(model, k, Ts[j:j + 1]),
                                                 states[j:j + 1], 1e-10, grid)
            assert none == {}
            assert alone_steps[0] == steps[j]
            assert np.array_equal(alone[0], samples[j]), j


def test_lane_raising_on_admission_leaves_alone(models):
    model = models["einstein_cylinder"]
    info = STANDARD_LAUNCH["einstein_cylinder"]
    k = info["k"]
    states, Ts = _launches(model, info, 5, seed=8)
    p = np.asarray(info["p"], dtype=float)
    Ts[0] = 0.05
    states[0, 3:] = initial_velocity(model, k, p, unit_horizontal(model, p, info["useed"]), 0.05)
    # lanes 3 and 4 start off the chart (theta < 0.1 and theta > pi - 0.1): their
    # first evaluation, the one of the initial-step selection, raises
    states[3, 0], states[4, 0] = 0.05, 3.1
    (samples, steps, failures), calls = _admission_run(model, k, states, Ts, 3, [2])
    assert set(failures) == {3, 4}
    assert all(isinstance(failures[j], OutOfChart) for j in (3, 4))
    assert "0.05" in str(failures[3]) and "3.1" in str(failures[4])
    assert calls[1] == {3: failures[3], 4: failures[4]}  # reported before the next step
    assert np.isnan(samples[3]).all() and steps[3] == steps[4] == 0
    for j in range(3):
        alone, _, none = _lanes_at(_lane_fun(model, k, Ts[j:j + 1]), states[j:j + 1],
                                   1e-10, GRIDS[0])
        assert none == {}
        assert np.array_equal(alone[0], samples[j]), j


def _sequential_newton(problem, guess, events, velocity=initial_velocity):
    """The damped Newton iteration with one shot per yield, as it was before the
    line-search trials were speculated; ``events`` collects what the line search met."""
    model, cfg = problem.model, problem.config
    chart = _sphere_chart(problem, horizontal_unit(model, problem.p, guess[0]))
    ndim = model.m - 1

    def launch(x, ctr):
        T = max(x[-1], 1e-8)
        u = _sphere_direction(problem, ctr, x[:-1])
        return np.concatenate([problem.p, velocity(model, problem.k, problem.p, u, T)]), T

    def residual(end):
        if isinstance(end, Exception):
            raise end
        return _residual_vector(problem, end)

    x = np.zeros(ndim)
    x[-1] = float(guess[1])
    r = residual((yield [launch(x, chart)], [0])[0])
    u = _sphere_direction(problem, chart, x[:-1])
    for _ in range(cfg.max_newton):
        rn = float(np.linalg.norm(r))
        if rn < cfg.tol_bvp:
            break
        # a fresh Jacobian at every iterate
        dxs = cfg.fd_step * (1.0 + np.abs(x))
        ends = yield [launch(x + dx * e, chart) for dx, e in zip(dxs, np.eye(ndim))], []
        jac = np.column_stack([(residual(end) - r) / dx for end, dx in zip(ends, dxs)])
        step = np.linalg.solve(jac, -r)
        turn = float(np.linalg.norm(step[:-1]))
        if turn > 1.0:  # at most a 45 degree turn of the launch direction
            step *= 1.0 / turn
        lam = 1.0
        for _ in range(8):
            x_new = x + lam * step
            if x_new[-1] <= 0.0:
                events.add("T <= 0")
                lam *= 0.5
                continue
            try:
                r_new = residual((yield [launch(x_new, chart)], [0])[0])
            except (BrachkitError, ValueError):
                events.add("failed shot")
                lam *= 0.5
                continue
            if np.linalg.norm(r_new) < rn or lam < 0.26:
                break
            lam *= 0.5
        else:
            raise NoConvergence(f"line search stalled at residual {rn:.3e}")
        events.add("damped" if lam < 1.0 else "full")
        chart = _sphere_chart(problem, _sphere_direction(problem, chart, x_new[:-1]))
        u = chart[0]
        x = x_new.copy()
        x[:-1] = 0.0
        r = r_new
    else:
        raise NoConvergence(f"no convergence after {cfg.max_newton} iterations")
    return (u, float(x[-1])), 0


def _drive(newton, problem):
    """Run a Newton generator, each yield one batch; (the converged launch or the exception,
    shots per yield)."""
    ends, sizes = None, []
    try:
        while True:
            shots, _ = newton.send(ends)
            sizes.append(len(shots))
            ends = shot_endpoints(problem.model, problem.k, np.array([st for st, _ in shots]),
                                  [T for _, T in shots], problem.config.integrator)
    except StopIteration as stop:
        return stop.value[0], sizes
    except (BrachkitError, ValueError) as exc:
        return exc, sizes


CYLINDER_BRACKET = (0.3, 2 * np.pi + np.pi / 2 + 0.5)  # acceptance 11 at k = sqrt(2)


@pytest.fixture(scope="module")
def cylinder_survey(models):
    """The cylinder problem of acceptance 11 and its 48 survey starts."""
    model = models["einstein_cylinder"]
    gamma = ObserverWorldline(np.array([np.pi / 2, np.pi / 2, 0.0]), model)
    prob = ShootingProblem(model, np.array([np.pi / 2, 0.0, 0.0]), gamma, np.sqrt(2.0))
    return prob, _survey_starts(3, 48, CYLINDER_BRACKET, seed=11)


def test_speculative_newton_matches_sequential_reference(cylinder_survey):
    prob, starts = cylinder_survey
    met = set()
    for i in (11, 10):  # damped steps; a T <= 0 trial (11); a trial shot that fails (10)
        events = set()
        (ref_center, ref_T), ref_sizes = _drive(_sequential_newton(prob, starts[i], events), prob)
        (center, T), sizes = _drive(_newton(prob, starts[i]), prob)
        assert T == ref_T and np.array_equal(center, ref_center), i
        assert len(sizes) < len(ref_sizes)
        met |= events
    assert {"damped", "T <= 0", "failed shot"} <= met


def test_stalled_line_search_matches_sequential_reference(models):
    # flat space, charted on the half-plane y > -1e-3 and on x < -1, where the
    # observer is: the first shot runs along the x axis to (1, 0), behind the
    # observer at (-1.5, -0.5), so the Newton step turns the launch towards
    # y < 0 and asks for T < 0.  The trials at lambda = 1 and 1/2 have T <= 0,
    # and every shorter one leaves the chart near the origin.
    flat = models["minkowski3"]
    model = dataclasses.replace(
        flat, chart_domain=lambda q: (q[..., 1] > -1e-3) | (q[..., 0] < -1.0))
    prob = ShootingProblem(model, np.zeros(3),
                           ObserverWorldline(np.array([-1.5, -0.5, 0.0]), model), np.sqrt(2.0))
    guess = (np.array([1.0, 0.0, 0.0]), 1.0)
    events = set()
    ref, _ = _drive(_sequential_newton(prob, guess, events), prob)
    out, _ = _drive(_newton(prob, guess), prob)
    assert isinstance(ref, NoConvergence) and str(ref).startswith("line search stalled")
    assert type(out) is NoConvergence and str(out) == str(ref)
    assert "T <= 0" in events and "failed shot" in events


def test_failures_of_work_ahead_are_raised_only_where_the_reference_meets_them(
        cylinder_survey, monkeypatch):
    # a launch velocity that fails for a third of the travel times hits trial
    # launches and Jacobian launches, taken ahead of need or not
    prob, starts = cylinder_survey
    met = []

    def inject(T):
        if int(T * 1e6) % 3 == 0:
            met.append(T)
            raise NotHorizontal(f"injected at T = {T!r}")

    def faulty(model, k, p, u, T):
        inject(T)
        return initial_velocity(model, k, p, u, T)

    def faulty_launch(g, gr, k, u, T):  # what _newton calls with the geometry cached at p
        inject(T)
        return _launch_velocity(g, gr, k, u, T)

    monkeypatch.setattr(bvp, "_launch_velocity", faulty_launch)
    outcomes = {}
    for i in (11, 19):
        met.clear()
        ref, ref_sizes = _drive(_sequential_newton(prob, starts[i], set(), faulty), prob)
        n_ref = len(met)
        met.clear()
        out, _ = _drive(_newton(prob, starts[i]), prob)
        if isinstance(ref, Exception):
            assert type(out) is type(ref) and str(out) == str(ref), i
        else:
            assert out[1] == ref[1] and np.array_equal(out[0], ref[0]), i
        outcomes[i] = ref, len(ref_sizes), n_ref, len(met)
    # start 11 ends when building a refreshed Jacobian fails, after several iterations
    ref, ref_yields, _, _ = outcomes[11]
    assert isinstance(ref, NotHorizontal) and ref_yields > 3
    # start 19 converges although work taken ahead met failures the reference never met
    ref, _, n_ref, n_met = outcomes[19]
    assert not isinstance(ref, Exception) and n_met > n_ref


def test_full_steps_yield_no_extra_shots(models):
    # a start that takes only full steps asks for one shot per iteration, each
    # with the Jacobian launches around it
    model = models["static_well"]
    prob = ShootingProblem(model, np.array([0.1, 0.0, 0.0]),
                           ObserverWorldline(np.array([0.4, 0.3, 0.0]), model), 2.0)
    guess = (np.array([1.0, 0.3, 0.0]), 0.3)
    events = set()
    ref, _ = _drive(_sequential_newton(prob, guess, events), prob)
    (center, T), lanes = _drive(_newton(prob, guess), prob)
    assert events == {"full"}
    assert T == ref[1] and np.array_equal(center, ref[0])
    assert len(lanes) > 5
    assert lanes == [3] * len(lanes)


def test_newton_trials_turn_the_launch_at_most_45_degrees(cylinder_survey, monkeypatch):
    # every launch direction is normalize(centre + sum c_i E_i) with |c| <= 1, the
    # tangent of a 45 degree turn, up to the finite-difference step of a Jacobian
    # launch; without the bound starts 11 and 17 try |c| of 147 and 116
    prob, starts = cylinder_survey
    turns = []

    def recording(problem, chart, coeffs):
        turns.append(float(np.linalg.norm(coeffs)))
        return _sphere_direction(problem, chart, coeffs)

    monkeypatch.setattr(bvp, "_sphere_direction", recording)
    results, _ = _solve_starts(prob, [starts[11], starts[17]])
    assert all(not isinstance(res, Exception) for res in results)
    assert max(turns) <= 1.0 + prob.config.fd_step
    assert max(turns) > 0.5


def test_shoot_converges_where_the_unbounded_line_search_stalled(cylinder_survey):
    # acceptance-11 start 21: with unbounded steps its line search stalled at
    # residual 1.6 (NoConvergence); bounded, it reaches the first solution, T = pi/2
    prob, starts = cylinder_survey
    sol = shoot(prob, starts[21])
    assert abs(sol.T - np.pi / 2) < 1e-10


def _survey_counts(caplog):
    line = next(r.getMessage() for r in caplog.records if r.getMessage().startswith("survey:"))
    return {key: int(val) for key, val in re.findall(r"(\w+)=(\d+)", line)}


def test_survey_shooting_cost(cylinder_survey, monkeypatch, caplog):
    # dense curves are integrated only for the starts the survey keeps, not for all
    # 43 converged ones; a fresh Jacobian at every iteration and Newton steps bounded
    # to a 45 degree turn keep the longest Newton chain cheap (unbounded steps took
    # 14 rounds, 1194 lane shots and 16032 batched calls, and failed 2 starts with
    # NoConvergence; the bound adds yields to the chain, but each is a short shot).
    # DOP853 lanes take 16 rounds, 1014 lane shots and 4970 batched calls, where
    # RK45 lanes took 17, 1059 and 10044
    prob, _ = cylinder_survey
    dense = []

    def counting(*args):
        dense.append(args[-2])
        return integrate_brachistochrone(*args)

    monkeypatch.setattr(bvp, "integrate_brachistochrone", counting)
    with caplog.at_level(logging.INFO, logger="brachkit.bvp"):
        res = multistart_survey(prob, 48, CYLINDER_BRACKET, seed=11, attach_indices=False)
    assert len(res.solutions) == len(dense) == 3
    assert [rec["T"] for rec in res.solutions] == dense
    counts = _survey_counts(caplog)
    assert counts["integrated"] == 3
    assert counts["rounds"] <= 17
    assert counts["lane_shots"] <= 1100
    assert counts["batched_calls"] <= 5500
    # the failures left are launches into the chart's polar caps
    assert {key for key in counts if key[0].isupper()} == {"OutOfChart"}
    assert counts["OutOfChart"] == counts["failed"] == res.n_failures


def test_survey_start_seed_13_converges_without_stalls(cylinder_survey, caplog):
    # with unbounded Newton steps the start seed 13 survey took 32 rounds and 45693
    # batched calls, and one of its starts stalled in the line search; with bounded
    # steps RK45 lanes took 11038 calls, DOP853 lanes take 5426
    prob, _ = cylinder_survey
    with caplog.at_level(logging.INFO, logger="brachkit.bvp"):
        res = multistart_survey(prob, 48, CYLINDER_BRACKET, seed=13, attach_indices=False)
    Ts = [rec["T"] for rec in res.solutions]
    assert len(Ts) == 3
    assert np.max(np.abs(np.array(Ts) - np.pi * np.array([0.5, 1.5, 2.5]))) < 1e-10
    counts = _survey_counts(caplog)
    assert "NoConvergence" not in counts
    assert counts["batched_calls"] <= 6000


@pytest.mark.parametrize("p, anchor, n_starts", [((0.6, 0.0, 0.0), (2.4, 2.0, 0.0), 7),
                                                 ((1.0, 0.0, 0.0), (2.0, 1.5, 0.0), 4)],
                         ids=["theta0.6", "theta1.0"])
def test_off_equator_survey_meets_the_closed_forms(models, p, anchor, n_starts):
    # at k = sqrt 2 the solutions are the great circles through p and the anchor's
    # point of the sphere: T = d, 2 pi - d and 2 pi + d for their distance d.  Off the
    # equator the shots are no longer exact; RK45 lanes at the same tolerances missed
    # by up to 2.7e-10 and 4.2e-10 with these starts (the fewest that find all three)
    model = models["einstein_cylinder"]
    p, anchor = np.array(p), np.array(anchor)
    d = np.arccos(np.cos(p[0]) * np.cos(anchor[0])
                  + np.sin(p[0]) * np.sin(anchor[0]) * np.cos(anchor[1] - p[1]))
    prob = ShootingProblem(model, p, ObserverWorldline(anchor, model), np.sqrt(2.0))
    res = multistart_survey(prob, n_starts, (0.3, 2 * np.pi + d + 0.5), seed=11,
                            attach_indices=False)
    Ts = sorted(rec["T"] for rec in res.solutions)
    assert len(Ts) == 3
    assert np.max(np.abs(np.array(Ts) - [d, 2 * np.pi - d, 2 * np.pi + d])) < 1e-10


def _index_pairs(doc):
    return [(sol["index_morse"], sol["index_geometric"]) for sol in doc["solutions"]]


def test_survey_keeps_the_solutions_whose_indices_fail(tmp_path, caplog, monkeypatch):
    # one solution's index attachment raises: the survey still writes every
    # solution, the others with their indices and that one with null indices and
    # its error named; a failed attachment is not a failed start
    attach = bvp._attach_indices

    def failing_above_2pi(model, sol, n_basis):
        if sol.T > 2 * np.pi:
            raise NotGeodesic("forced")
        return attach(model, sol, n_basis)

    monkeypatch.setattr(bvp, "_attach_indices", failing_above_2pi)
    cfg = {"model": {"name": "einstein_cylinder"}, "k": float(np.sqrt(2.0)),
           "p": [np.pi / 2, 0.0, 0.0], "gamma_anchor": [np.pi / 2, np.pi / 2, 0.0],
           "survey": {"n_starts": 48, "T_bracket": list(CYLINDER_BRACKET), "seed": 11,
                      "n_basis": 40}}
    with caplog.at_level(logging.INFO, logger="brachkit.bvp"):
        run_scenario(cfg, "survey", tmp_path)
    doc = json.loads((tmp_path / "survey.json").read_text())
    assert doc["count"] == 3
    assert _index_pairs(doc) == [(0, 0), (1, 1), (None, None)]
    assert [sol.get("index_error") for sol in doc["solutions"]] == [None, None, "NotGeodesic"]
    assert doc["solutions"][2]["n_zero"] is None
    line = next(r.getMessage() for r in caplog.records if r.getMessage().startswith("survey:"))
    starts, attachments = line.split(" index_failed=")
    counts = {key: int(val) for key, val in re.findall(r"(\w+)=(\d+)", starts)}
    assert (counts["distinct"] + counts["duplicate"] + counts["outside_bracket"]
            + counts["failed"] == counts["starts"] == 48)
    assert counts["failed"] == doc["n_failures"]
    assert attachments == "1 (NotGeodesic=1)"
    assert any("no indices: NotGeodesic" in r.getMessage() for r in caplog.records)


def test_off_equator_cli_survey_exits_0_with_every_solution(tmp_path):
    # the spline derivative of the T = 2 pi + d solution's deformation reads a geodesic
    # residual above the gate of its index attachment: the survey keeps that solution
    from brachkit.cli import main
    path = tmp_path / "scen.json"
    path.write_text(json.dumps({
        "model": {"name": "einstein_cylinder"}, "k": float(np.sqrt(2.0)),
        "p": [0.6, 0.0, 0.0], "gamma_anchor": [2.4, 2.0, 0.0],
        "survey": {"n_starts": 7, "T_bracket": [0.3, 9.0], "seed": 11, "n_basis": 40}}))
    assert main(["survey", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "survey.json").read_text())
    assert doc["count"] == 3
    assert _index_pairs(doc)[:2] == [(0, 0), (1, 1)]
    last = doc["solutions"][2]
    assert last.get("index_error") == "NotGeodesic" or _index_pairs(doc)[2] == (2, 2)


@pytest.mark.parametrize("dT, kept", [(1e-6, 1), (1e-2, 2)])
def test_survey_tells_duplicates_by_their_curves(cylinder_survey, caplog, monkeypatch, dT, kept):
    # two converged launches of one solution, further apart than _SAME_LAUNCH: both are
    # integrated, and their curves decide whether the second one is a duplicate
    prob, starts = cylinder_survey
    (launch,), tally = _solve_starts(prob, [starts[21]])
    u, T = launch
    assert dT > bvp._SAME_LAUNCH
    monkeypatch.setattr(bvp, "_solve_starts", lambda *args: ([(u, T), (u, T + dT)], tally))
    with caplog.at_level(logging.INFO, logger="brachkit.bvp"):
        res = multistart_survey(prob, 2, CYLINDER_BRACKET, seed=11, attach_indices=False)
    assert len(res.solutions) == kept
    counts = _survey_counts(caplog)
    assert counts["integrated"] == 2
    assert counts["duplicate"] == 2 - kept


def test_worldlines_compare_and_hash_by_identity(models):
    model = models["minkowski3"]
    a, b = ObserverWorldline(np.zeros(3), model), ObserverWorldline(np.zeros(3), model)
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert {a, b, a} == {a, b}


def test_survey_leaves_no_brachkit_object_in_cyclic_garbage(models):
    # one of these three starts fails and line-search trials raise
    # stored arrival exceptions: neither may tie frames, generators or
    # solutions into reference cycles, and the survey leaves no cyclic
    # garbage of any other kind either
    import gc
    import os
    import types

    from brachkit.curves import Curve
    from brachkit.dynamics import BrachistochroneSolution

    model = models["einstein_cylinder"]
    p = np.array([np.pi / 2, 0.0, 0.0])
    prob = ShootingProblem(model, p, ObserverWorldline(np.array([np.pi / 2, np.pi / 2, 0.0]),
                                                       model), np.sqrt(2.0))
    package = os.path.dirname(bvp.__file__)

    def ours(obj):
        if isinstance(obj, (BrachkitError, BrachistochroneSolution, Curve)):
            return True
        code = (obj.f_code if isinstance(obj, types.FrameType) else
                obj.gi_code if isinstance(obj, types.GeneratorType) else None)
        return code is not None and os.path.dirname(code.co_filename) == package

    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        res = multistart_survey(prob, 3, (0.3, 8.35), seed=4, n_basis=10)
        assert res.n_failures == 1
        del res
        gc.collect()
        left = [obj for obj in gc.garbage if ours(obj)]
        others = len(gc.garbage) - len(left)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []
    assert others == 0


@pytest.mark.parametrize("solve", ["brachistochrone", "conformal_geodesic", "shoot",
                                   "jacobi_basis", "bjacobi", "endpoint_rows"])
def test_dense_solves_leave_no_cyclic_garbage(models, solutions, solve):
    # the Jacobi solves run on the same lanes; the caches they read are built first
    import gc

    from brachkit.dynamics import integrate_conformal_geodesic
    from brachkit.jacobi import (_admissible_launches, _endpoint_rows, gamma_jacobi_basis,
                                 integrate_bjacobi)
    from brachkit.variation import SolutionGeometry, index_data

    model = models["einstein_cylinder"]
    p = np.array([np.pi / 2, 0.0, 0.0])
    k = np.sqrt(2.0)
    sol = solutions["einstein_cylinder"]
    data, geom = index_data(model, sol), SolutionGeometry(model, sol)
    dv = _admissible_launches(geom, 0.0)[0][0]
    run = {
        "brachistochrone": lambda: integrate_brachistochrone(model, k, p, [0.0, 1.0, 0.0], 1.2),
        "conformal_geodesic": lambda: integrate_conformal_geodesic(model, k, p, [0.0, 1.5, 0.0]),
        "shoot": lambda: shoot(ShootingProblem(
            model, p, ObserverWorldline(np.array([np.pi / 2, np.pi / 2, 0.0]), model), k),
            ([0.0, 1.0, 0.0], 1.5)),
        "jacobi_basis": lambda: gamma_jacobi_basis(data),
        "bjacobi": lambda: integrate_bjacobi(geom, np.zeros(3), dv),
        "endpoint_rows": lambda: _endpoint_rows(geom),
    }[solve]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        left = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == 0
