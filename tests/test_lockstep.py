"""Lockstep shooting: the per-lane RK45, the lockstep Newton loop and the observer orbit."""

import json
import logging
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import brachkit.bvp as bvp
from brachkit.bvp import (ObserverWorldline, ShootingProblem, _newton, _residual_vector,
                          _solve_starts, _sphere_direction, _survey_starts, multistart_survey,
                          shoot)
from brachkit.cli import run_scenario
from brachkit.dynamics import (IntegratorConfig, _launch_velocity, _rhs_factory,
                               brachistochrone_acceleration, initial_velocity, rk45_lanes,
                               shot_endpoints)
from brachkit.errors import BrachkitError, ConfigError, NoConvergence, NotHorizontal, OutOfChart
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
    together, counts = _solve_starts(prob, starts)
    assert counts["rounds"] >= 1 and counts["lane_shots"] >= len(starts)
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
    assert counts["batched_calls"] >= counts["rounds"]
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


def _admission_run(model, k, states, Ts, n_first, plan):
    """rk45_lanes over ``states``: the first n_first lanes at the start, then
    ``plan[c]`` more (in order) at the c-th call of admit; returns the result and the calls."""
    calls, queue = [], list(plan)

    def admit(left):
        calls.append(dict(left))
        n = queue.pop(0) if queue else 0
        first = n_first + sum(plan[:len(calls) - 1])
        return states[first:first + n]

    out = rk45_lanes(_lane_fun(model, k, Ts), states[:n_first], 1e-10, 1e-10, admit=admit)
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
    (ends, steps, failures), calls = _admission_run(model, k, states, Ts, 3, [2, 1])
    assert failures == {}
    assert list(calls[0]) == [0] and steps[1] > steps[0] and steps[2] > steps[0]
    assert 1 not in calls[0] and 2 not in calls[0]  # still running when lanes 3, 4 joined
    assert sorted(lane for c in calls for lane in c) == list(range(6))
    assert all(np.array_equal(end, ends[lane]) for c in calls for lane, end in c.items())
    for j in range(6):
        alone, alone_steps, none = rk45_lanes(_lane_fun(model, k, Ts[j:j + 1]), states[j:j + 1],
                                              1e-10, 1e-10)
        assert none == {}
        assert alone_steps[0] == steps[j]
        assert np.array_equal(alone[0], ends[j]), j


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
    (ends, steps, failures), calls = _admission_run(model, k, states, Ts, 3, [2])
    assert set(failures) == {3, 4}
    assert all(isinstance(failures[j], OutOfChart) for j in (3, 4))
    assert "0.05" in str(failures[3]) and "3.1" in str(failures[4])
    assert calls[1] == {3: failures[3], 4: failures[4]}  # reported before the next step
    assert np.isnan(ends[3]).all() and steps[3] == steps[4] == 0
    for j in range(3):
        alone, _, none = rk45_lanes(_lane_fun(model, k, Ts[j:j + 1]), states[j:j + 1],
                                    1e-10, 1e-10)
        assert none == {}
        assert np.array_equal(alone[0], ends[j]), j


def _sequential_newton(problem, guess, events, velocity=initial_velocity):
    """The damped Newton iteration with one shot per yield, as it was before the
    line-search trials were speculated; ``events`` collects what the line search met."""
    model, cfg = problem.model, problem.config
    center = horizontal_unit(model, problem.p, guess[0])
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
    r = residual((yield [launch(x, center)])[0])
    jac = None
    for it in range(cfg.max_newton):
        rn = float(np.linalg.norm(r))
        if rn < cfg.tol_bvp:
            break
        if jac is None:
            dxs = cfg.fd_step * (1.0 + np.abs(x))
            ends = yield [launch(x + dx * e, center) for dx, e in zip(dxs, np.eye(ndim))]
            jac = np.column_stack([(residual(end) - r) / dx for end, dx in zip(ends, dxs)])
        step = np.linalg.solve(jac, -r)
        lam = 1.0
        for _ in range(8):
            x_new = x + lam * step
            if x_new[-1] <= 0.0:
                events.add("T <= 0")
                lam *= 0.5
                continue
            try:
                r_new = residual((yield [launch(x_new, center)])[0])
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
        center = _sphere_direction(problem, center, x_new[:-1])
        x = x_new.copy()
        x[:-1] = 0.0
        r = r_new
        if lam < 1.0 or it % 4 == 3:
            jac = None
    else:
        raise NoConvergence(f"no convergence after {cfg.max_newton} iterations")
    return center, float(x[-1])


def _drive(newton, problem):
    """Run a Newton generator, each yield one batch; (return value or exception, shots per yield)."""
    ends, sizes = None, []
    try:
        while True:
            shots = newton.send(ends)
            sizes.append(len(shots))
            ends = shot_endpoints(problem.model, problem.k, np.array([st for st, _ in shots]),
                                  [T for _, T in shots], problem.config.integrator)
    except StopIteration as stop:
        return stop.value, sizes
    except (BrachkitError, ValueError) as exc:
        return exc, sizes


@pytest.fixture(scope="module")
def cylinder_survey(models):
    """The cylinder problem of acceptance 11 and its 48 survey starts."""
    model = models["einstein_cylinder"]
    k = np.sqrt(2.0)
    gamma = ObserverWorldline(np.array([np.pi / 2, np.pi / 2, 0.0]), model)
    prob = ShootingProblem(model, np.array([np.pi / 2, 0.0, 0.0]), gamma, k)
    t_max = (2 * np.pi + np.pi / 2 + 0.5) / np.sqrt(k * k - 1.0)
    return prob, _survey_starts(3, 48, (0.3, t_max), seed=11)


def test_speculative_newton_matches_sequential_reference(cylinder_survey):
    prob, starts = cylinder_survey
    met = set()
    for i in (11, 20):  # damped steps; a T <= 0 trial (11); a trial shot that fails (20)
        events = set()
        (ref_center, ref_T), ref_sizes = _drive(_sequential_newton(prob, starts[i], events), prob)
        (center, T), sizes = _drive(_newton(prob, starts[i]), prob)
        assert T == ref_T and np.array_equal(center, ref_center), i
        assert len(sizes) < len(ref_sizes)
        met |= events
    assert {"damped", "T <= 0", "failed shot"} <= met


def test_stalled_line_search_matches_sequential_reference(cylinder_survey):
    prob, starts = cylinder_survey
    events = set()
    ref, _ = _drive(_sequential_newton(prob, starts[21], events), prob)
    out, _ = _drive(_newton(prob, starts[21]), prob)
    assert isinstance(ref, NoConvergence) and str(ref).startswith("line search stalled")
    assert type(out) is NoConvergence and str(out) == str(ref)
    assert "T <= 0" in events


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
    for i in (11, 17):
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
    # start 17 converges although work taken ahead met failures the reference never met
    ref, _, n_ref, n_met = outcomes[17]
    assert not isinstance(ref, Exception) and n_met > n_ref


def test_full_steps_yield_no_extra_shots(models):
    # a start that takes only full steps asks for one shot per iteration, plus the
    # Jacobian launches with the first launch and at every fourth iteration
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
    assert lanes == [3] + [1 if it % 4 != 3 else 3 for it in range(len(lanes) - 1)]


def test_worldlines_compare_and_hash_by_identity(models):
    model = models["minkowski3"]
    a, b = ObserverWorldline(np.zeros(3), model), ObserverWorldline(np.zeros(3), model)
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert {a, b, a} == {a, b}


def test_survey_leaves_no_brachkit_object_in_cyclic_garbage(models):
    # one of these three starts fails and line-search trials raise
    # stored arrival exceptions: neither may tie frames, generators or
    # solutions into reference cycles (scipy's RK45 makes its own, ignored here)
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
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []
