import numpy as np
import pytest

from scipy.optimize import minimize_scalar

from brachkit.bvp import (ObserverWorldline, ShootConfig, ShootingProblem, _residual_vector,
                          multistart_survey, sample_initial_velocity, shoot)
from brachkit.errors import NoConvergence, ZeroSeed
from brachkit.geometry import horizontal_frame, riemannian_metric_matrix
from brachkit.transform import flow_points

from conftest import STANDARD_LAUNCH


def test_sample_initial_velocity_flat_example(models):
    model = models["minkowski3"]
    v0 = sample_initial_velocity(model, np.zeros(3), np.sqrt(2.0), 1.0, [1.0, 0, 0])
    assert np.allclose(v0, [1.0, 0.0, np.sqrt(2.0)], atol=1e-14)
    g = model.g(np.zeros(3))
    y = model.y(np.zeros(3))
    val = float(v0 @ g @ y) ** 2 + 2.0 * float(v0 @ g @ v0)
    assert abs(val) < 1e-14


def test_sample_initial_velocity_constraint_random(models):
    rng = np.random.default_rng(50)
    for name, model in models.items():
        info = STANDARD_LAUNCH[name]
        p = np.asarray(info["p"], dtype=float)
        k, T = info["k"], info["T"]
        g = model.g(p)
        y = model.y(p)
        for _ in range(100):
            v0 = sample_initial_velocity(model, p, k, T, rng.standard_normal(model.m))
            res = float(v0 @ g @ y) ** 2 + k * k * float(v0 @ g @ v0)
            assert abs(res) < 1e-12 * (1 + T * T * k * k)
            assert float(v0 @ g @ v0) < 0.0
            assert float(v0 @ g @ y) < 0.0


def test_sample_initial_velocity_rejects_parallel_seed(models):
    model = models["minkowski3"]
    with pytest.raises(ZeroSeed):
        sample_initial_velocity(model, np.zeros(3), np.sqrt(2.0), 1.0, [0.0, 0, 1.0])


def test_shoot_flat_closed_form(models):
    model = models["minkowski3"]
    gamma = ObserverWorldline(np.array([1.0, 0.0, 0.0]), model)
    for k in (np.sqrt(2.0), 2.0):
        prob = ShootingProblem(model, np.zeros(3), gamma, k)
        sol = shoot(prob, (np.array([1.0, 0.3, 0.0]), 0.8))
        assert sol.T == pytest.approx(1.0 / np.sqrt(k * k - 1.0), abs=1e-8)


def test_shoot_endpoint_on_orbit(models):
    model = models["static_well"]
    gamma = ObserverWorldline(np.array([0.5, 0.3, 0.0]), model)
    prob = ShootingProblem(model, np.array([0.1, 0.0, 0.0]), gamma, 2.2)
    sol = shoot(prob, (np.array([1.0, 0.5, 0.0]), 0.3))
    # flowing the anchor to the matched parameter reproduces the endpoint
    end = sol.sigma.points[-1]
    gr = riemannian_metric_matrix(model, end)

    def dist2(s):
        pt = flow_points(model, gamma.anchor[None, :], np.array([s]))[0]
        return float((end - pt) @ gr @ (end - pt))

    res = minimize_scalar(dist2, bounds=(0.0, 2.0 * sol.k * sol.T), method="bounded",
                          options={"xatol": 1e-12})
    assert np.sqrt(max(res.fun, 0.0)) < 1e-9


def _orbit_matched_residual(problem, q_end):
    """Residual read at the orbit point nearest q_end: the anchor-g_R distance
    minimised over the flow parameter, then frame and g_R at the matched point."""
    model, anchor = problem.model, problem.gamma.anchor
    gr0 = riemannian_metric_matrix(model, anchor)

    def orbit(s):
        return flow_points(model, anchor[None, :], np.array([s]))[0]

    def dist2(s):
        d = model.wrap_difference(q_end - orbit(s))
        return float(d @ gr0 @ d)

    s_star = minimize_scalar(dist2, bounds=(-10.0, 10.0), method="bounded",
                             options={"xatol": 1e-13}).x
    pt = orbit(s_star)
    d = model.wrap_difference(q_end - pt)
    gr = riemannian_metric_matrix(model, pt)
    return np.array([float(d @ gr @ e) for e in horizontal_frame(model, pt)])


def test_anchor_frame_residual_equals_orbit_matched_residual(models):
    rng = np.random.default_rng(11)
    for name, info in STANDARD_LAUNCH.items():
        model = models[name]
        p = np.asarray(info["p"], dtype=float)
        anchor = p + 0.2 * np.eye(model.m)[0]
        gamma = ObserverWorldline(anchor, model)
        problem = ShootingProblem(model, p, gamma, info["k"])
        for offset in (-6.0, -2.5, -0.3, 0.0, 0.7, 3.1, 6.0):
            q_end = anchor + 0.3 * rng.standard_normal(model.m)
            q_end[-1] = anchor[-1] + offset
            if model.periods:
                # the cylinder's azimuth phi, one and two turns away
                q_end[1] += 2.0 * np.pi * rng.choice([-2, -1, 1, 2])
            ref = _orbit_matched_residual(problem, q_end)
            got = _residual_vector(problem, q_end)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref), (name, offset)


def test_shoot_cylinder_two_arcs(models):
    model = models["einstein_cylinder"]
    k = np.sqrt(2.0)
    alpha = np.pi / 2
    gamma = ObserverWorldline(np.array([np.pi / 2, alpha, 0.0]), model)
    prob = ShootingProblem(model, np.array([np.pi / 2, 0.0, 0.0]), gamma, k)
    short = shoot(prob, (np.array([0.0, 1.0, 0.0]), 1.3))
    assert short.T == pytest.approx(alpha, abs=1e-9)
    long = shoot(prob, (np.array([0.0, -1.0, 0.0]), 4.5))
    assert long.T == pytest.approx(2 * np.pi - alpha, abs=1e-9)


def test_shoot_no_convergence(models):
    model = models["minkowski3"]
    gamma = ObserverWorldline(np.array([1.0, 0.0, 0.0]), model)
    prob = ShootingProblem(model, np.zeros(3), gamma, np.sqrt(2.0),
                           ShootConfig(max_newton=1))
    with pytest.raises(NoConvergence):
        shoot(prob, (np.array([0.0, 1.0, 0.0]), 3.0))


def test_survey_minkowski_unique(models):
    model = models["minkowski3"]
    gamma = ObserverWorldline(np.array([1.0, 0.0, 0.0]), model)
    prob = ShootingProblem(model, np.zeros(3), gamma, np.sqrt(2.0))
    res = multistart_survey(prob, 16, (0.2, 2.5), seed=3, attach_indices=True,
                            n_basis=40)
    assert len(res.solutions) == 1
    assert res.parity == 1
    rec = res.solutions[0]
    assert rec["T"] == pytest.approx(1.0, abs=1e-8)
    assert rec["index_morse"] == 0
    assert rec["index_geometric"] == 0


def test_survey_static_well_small_separation(models):
    model = models["static_well"]
    gamma = ObserverWorldline(np.array([0.4, 0.3, 0.0]), model)
    prob = ShootingProblem(model, np.array([0.1, 0.0, 0.0]), gamma, 2.0)
    res = multistart_survey(prob, 12, (0.05, 0.8), seed=5, attach_indices=True,
                            n_basis=40)
    assert len(res.solutions) == 1
    assert res.solutions[0]["index_morse"] == 0
    assert res.solutions[0]["index_geometric"] == 0


def test_survey_index_consistency(models):
    # whenever the Hessian is nondegenerate the two indices agree
    model = models["einstein_cylinder"]
    k = np.sqrt(2.0)
    alpha = np.pi / 2
    gamma = ObserverWorldline(np.array([np.pi / 2, alpha, 0.0]), model)
    prob = ShootingProblem(model, np.array([np.pi / 2, 0.0, 0.0]), gamma, k)
    res = multistart_survey(prob, 20, (0.5, 5.5), seed=9, n_basis=40)
    assert len(res.solutions) == 2
    for rec in res.solutions:
        if rec["n_zero"] == 0:
            assert rec["index_morse"] == rec["index_geometric"]
