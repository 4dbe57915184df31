import numpy as np
import pytest
from scipy.integrate import solve_ivp

from brachkit.curves import Curve
from brachkit.dynamics import (IntegratorConfig, brachistochrone_rhs, conservation_report,
                               geodesic_residual, integrate_brachistochrone,
                               integrate_conformal_geodesic, initial_velocity)
from brachkit.errors import NotHorizontal, OutsideUk
from brachkit.geometry import connection_coeffs, riemannian_metric_matrix
from brachkit.transform import flow_points
from brachkit.variation import lagrange_multiplier_field

from conftest import STANDARD_LAUNCH, unit_horizontal


def test_rhs_flat_straight(models):
    model = models["minkowski3"]
    k = np.sqrt(2.0)
    v0 = initial_velocity(model, k, np.zeros(3), [1, 0, 0], 1.0)
    vel, acc = brachistochrone_rhs(model, k, 1.0, (np.zeros(3), v0))
    assert np.allclose(vel, v0)
    assert np.max(np.abs(acc)) < 1e-14


def test_rhs_cylinder_reduces_to_geodesic(models):
    # constant <Y,Y> and nabla Y = 0 kill every velocity-coupling term
    model = models["einstein_cylinder"]
    k, T = np.sqrt(2.0), 1.0
    q = np.array([1.2, 0.5, 0.0])
    u = unit_horizontal(model, q, [0.4, 1.0, 0.0])
    v0 = initial_velocity(model, k, q, u, T)
    _, acc = brachistochrone_rhs(model, k, T, (q, v0))
    G = connection_coeffs(model, q)
    assert np.max(np.abs(acc + np.einsum("abc,b,c->a", G, v0, v0))) < 1e-12


def test_rhs_matches_multiplier_form(models, solutions):
    # (2 mu k^2 - 1) nabla_s's' - 4 mu k T nabla_s'Y - 2 mu' k T Y + 2 mu' k^2 s' = 0
    from scipy.interpolate import CubicSpline
    from brachkit.geometry import nabla_y_matrix
    model = models["static_well"]
    sol = solutions["static_well"]
    k, T = sol.k, sol.T
    mults = lagrange_multiplier_field(model, sol)
    assert mults.lam == 0.0
    assert np.all(mults.mu > 0)
    grid = sol.sigma.grid
    mu_prime = CubicSpline(grid, mults.mu)(grid, 1)
    worst = 0.0
    for i in range(0, grid.size, 40):
        q, v = sol.sigma.points[i], sol.sigma.velocities[i]
        _, acc = brachistochrone_rhs(model, k, T, (q, v))
        G = connection_coeffs(model, q)
        nabla_ss = acc + np.einsum("abc,b,c->a", G, v, v)
        Kv = nabla_y_matrix(model, q) @ v
        y = model.y(q)
        res = ((2 * mults.mu[i] * k * k - 1.0) * nabla_ss - 4 * mults.mu[i] * k * T * Kv
               - 2 * mu_prime[i] * k * T * y + 2 * mu_prime[i] * k * k * v)
        worst = max(worst, np.max(np.abs(res)))
    assert worst < 1e-8


def test_integrate_flat_straight_line(models):
    model = models["minkowski3"]
    k = np.sqrt(2.0)
    sol = integrate_brachistochrone(model, k, np.zeros(3), [1.0, 0, 0], 1.0)
    t = sol.sigma.grid
    expected = np.stack([t, 0 * t, np.sqrt(2.0) * t], axis=1)
    assert np.max(np.abs(sol.sigma.points - expected)) < 1e-10
    assert sol.residual_conservation_Y < 1e-10
    assert sol.residual_conservation_speed < 1e-10


def test_integrate_cylinder_great_circle(models):
    model = models["einstein_cylinder"]
    k, T = np.sqrt(2.0), 1.2
    q = np.array([np.pi / 2, 0.0, 0.0])
    sol = integrate_brachistochrone(model, k, q, [0.0, 1.0, 0.0], T)
    # stays on the equator, g_R speed of the spatial part = T sqrt(k^2-1)
    assert np.max(np.abs(sol.sigma.points[:, 0] - np.pi / 2)) < 1e-9
    speed = np.abs(sol.sigma.velocities[:, 1])
    assert np.max(np.abs(speed - T * np.sqrt(k * k - 1))) < 1e-9
    assert sol.residual_conservation_Y < 1e-9
    assert sol.residual_conservation_speed < 1e-9


def test_integrate_static_well_residuals(models, solutions):
    sol = solutions["static_well"]
    assert sol.residual_conservation_Y < 1e-8
    assert sol.residual_conservation_speed < 1e-8


def test_residual_shrinks_with_tolerance(models):
    model = models["rotating_frame"]
    info = STANDARD_LAUNCH["rotating_frame"]
    u = unit_horizontal(model, info["p"], info["useed"])
    loose = integrate_brachistochrone(model, info["k"], np.asarray(info["p"]), u,
                                      info["T"], IntegratorConfig(rtol=1e-8, atol=1e-8))
    tight = integrate_brachistochrone(model, info["k"], np.asarray(info["p"]), u,
                                      info["T"], IntegratorConfig(rtol=1e-9, atol=1e-9))
    worst_loose = max(loose.residual_conservation_Y, loose.residual_conservation_speed)
    worst_tight = max(tight.residual_conservation_Y, tight.residual_conservation_speed)
    assert worst_loose / max(worst_tight, 1e-16) >= 5.0


def test_uk_exit_is_hard_error(models):
    model = models["static_well"]
    # k barely admissible at the start; the curve climbs the well and exits
    k = 1.05
    q = np.zeros(3)
    u = unit_horizontal(model, q, [1.0, 0.0, 0.0])
    with pytest.raises(OutsideUk):
        integrate_brachistochrone(model, k, q, u, 3.0)


def test_time_translation_equivariance(models, solutions):
    model = models["rotating_frame"]
    sol = solutions["rotating_frame"]
    info = STANDARD_LAUNCH["rotating_frame"]
    delta = 0.3
    p2 = flow_points(model, np.asarray(info["p"], float)[None, :], np.array([delta]))[0]
    u = unit_horizontal(model, p2, info["useed"])
    sol2 = integrate_brachistochrone(model, info["k"], p2, u, info["T"])
    flowed = flow_points(model, sol.sigma.points, np.full(sol.sigma.grid.size, delta))
    assert np.max(np.abs(sol2.sigma.points - flowed)) < 1e-8


def test_brachistochrone_is_lorentzian_geodesic_when_flat_observer(models):
    # constant <Y,Y> and nabla Y = 0: the equation is the geodesic equation
    model = models["einstein_cylinder"]
    info = STANDARD_LAUNCH["einstein_cylinder"]
    u = unit_horizontal(model, info["p"], info["useed"])
    sol = integrate_brachistochrone(model, info["k"], np.asarray(info["p"]), u, info["T"])
    v0 = initial_velocity(model, info["k"], np.asarray(info["p"]), u, info["T"])

    def rhs(t, state):
        q, v = state[:3], state[3:]
        G = connection_coeffs(model, q)
        return np.concatenate([v, -np.einsum("abc,b,c->a", G, v, v)])

    out = solve_ivp(rhs, (0, 1), np.concatenate([info["p"], v0]), rtol=1e-12,
                    atol=1e-12, dense_output=True)
    geo_pts = out.sol(sol.sigma.grid)[:3].T
    assert np.max(np.abs(sol.sigma.points - geo_pts)) < 1e-8


def test_conservation_report_exact_and_perturbed(models):
    model = models["minkowski3"]
    k = np.sqrt(2.0)
    sol = integrate_brachistochrone(model, k, np.zeros(3), [1.0, 0, 0], 1.0)
    rep = conservation_report(model, sol)
    assert rep["residual_Y_max"] < 1e-12
    assert rep["residual_speed_max"] < 1e-12
    # inject a fault
    import copy
    bad = copy.deepcopy(sol)
    bad.sigma.velocities += 1e-3 * np.sin(3 * bad.sigma.grid)[:, None]
    rep_bad = conservation_report(model, bad)
    assert max(rep_bad["residual_Y_max"], rep_bad["residual_speed_max"]) >= 1e-4


def test_conservation_report_refinement(models, solutions):
    model = models["static_well"]
    sol = solutions["static_well"]
    coarse = conservation_report(model, sol, refine=1)
    fine = conservation_report(model, sol, refine=2)
    assert fine["residual_Y_max"] <= coarse["residual_Y_max"] * 1.5 + 1e-15
    assert fine["residual_speed_max"] <= coarse["residual_speed_max"] * 1.5 + 1e-15


def test_conformal_geodesic_flat_line(models):
    model = models["minkowski3"]
    w = integrate_conformal_geodesic(model, np.sqrt(2.0), np.zeros(3), [0.7, 0.2, 0.0])
    expected = np.outer(w.grid, [0.7, 0.2, 0.0])
    assert np.max(np.abs(w.points - expected)) < 1e-10


def test_conformal_geodesic_great_circle_and_energy(models):
    model = models["einstein_cylinder"]
    k = np.sqrt(2.0)
    w = integrate_conformal_geodesic(model, k, [np.pi / 2, 0.2, 0.0], [0.0, 1.7, 0.0])
    assert np.max(np.abs(w.points[:, 0] - np.pi / 2)) < 1e-9
    # conformal energy density is conserved along the output
    vals = []
    for q, v in zip(w.points, w.velocities):
        y = model.y(q)
        yy = float(y @ model.g(q) @ y)
        phi = -yy / (k * k + yy)
        vals.append(phi * float(v @ riemannian_metric_matrix(model, q) @ v))
    vals = np.array(vals)
    assert np.max(np.abs(vals - vals[0])) < 1e-8


def test_conformal_geodesic_requires_horizontal_start(models):
    with pytest.raises(NotHorizontal):
        integrate_conformal_geodesic(models["minkowski3"], np.sqrt(2.0),
                                     np.zeros(3), [0.3, 0.0, 1.0])


def test_geodesic_residual_detects_non_geodesic(models):
    model = models["einstein_cylinder"]
    k = np.sqrt(2.0)
    w = integrate_conformal_geodesic(model, k, [np.pi / 2, 0.0, 0.0], [0.0, 1.5, 0.0])
    assert geodesic_residual(model, k, w) < 1e-6
    # a non-great circle of constant latitude
    grid = np.linspace(0.0, 1.0, 401)
    th = 1.0
    pts = np.stack([np.full(401, th), 1.5 * grid, np.zeros(401)], axis=1)
    vels = np.stack([np.zeros(401), np.full(401, 1.5), np.zeros(401)], axis=1)
    bad = Curve(grid=grid, points=pts, velocities=vels)
    assert geodesic_residual(model, k, bad) >= 1e-2


def test_geodesic_residual_flat_line(models):
    model = models["minkowski3"]
    grid = np.linspace(0.0, 1.0, 401)
    pts = np.outer(grid, [1.0, 0.5, 0.0])
    vels = np.tile([1.0, 0.5, 0.0], (401, 1))
    line = Curve(grid=grid, points=pts, velocities=vels)
    assert geodesic_residual(model, np.sqrt(2.0), line) < 1e-12


def _jac_y(model, q):
    """dY by central differences of Y: exactly zero in the adapted chart."""
    from brachkit.geometry import _jacobian_fd
    return _jacobian_fd(model.y, q, model.fd_step)


def _general_y_acceleration(model, k, T, q, v):
    """The acceleration for any Killing field Y, from model.y and its dY (test oracle)."""
    from brachkit.geometry import _inner
    G = connection_coeffs(model, q)
    g, y = model.g(q), model.y(q)
    N = _inner(g, y, y)
    P = k * k + N
    two_kT = 2.0 * k * np.asarray(T, dtype=float)
    nabla_y = _jac_y(model, q) + np.einsum("...abc,...c->...ab", G, y)
    dvy = np.einsum("...ab,...b->...a", nabla_y, v)
    W = _inner(g, dvy, y)
    return (-np.einsum("...abc,...b,...c->...a", G, v, v)
            - (2.0 * k * k * W / (N * P))[..., None] * v
            - (two_kT / N)[..., None] * dvy
            + (two_kT * W / (N * P))[..., None] * y)


def _general_y_geometry(model, k, T, q, v):
    """g_R, the horizontal part of v, phi_k, the conservation residuals and nabla Y for any Y."""
    from brachkit.geometry import _inner
    g, y = model.g(q), model.y(q)
    gy = np.einsum("...ab,...b->...a", g, y)
    yy = np.einsum("...a,...a->...", y, gy)[..., None, None]
    N = _inner(g, y, y)
    return {
        "riemannian_metric_matrix": g - 2.0 * gy[..., :, None] * gy[..., None, :] / yy,
        "horizontal_part": v - (_inner(g, v, y) / N)[..., None] * y,
        "conformal_factor": -N / (k * k + N),
        "conservation_residuals": (_inner(g, v, y) + k * T, _inner(g, v, v) + T * T),
        "nabla_y_matrix": _jac_y(model, q) + np.einsum("...abc,...c->...ab",
                                                    connection_coeffs(model, q), y),
    }


def _adapted_geometry(model, k, T, q, v):
    from brachkit import geometry as geo
    return {
        "riemannian_metric_matrix": geo.riemannian_metric_matrix(model, q),
        "horizontal_part": geo.horizontal_part(model, q, v),
        "conformal_factor": geo.conformal_factor(model, q, k),
        "conservation_residuals": geo.conservation_residuals(model, q, v, k, T),
        "nabla_y_matrix": geo.nabla_y_matrix(model, q),
    }


def _assert_same_bits(a, b, label):
    a, b = np.asarray(a), np.asarray(b)
    assert np.array_equal(a, b), label
    assert np.array_equal(np.signbit(a), np.signbit(b)), label  # signed zeros too


@pytest.mark.parametrize("n", [1, 8, 48, 384])
def test_acceleration_equals_general_y_formula_bit_for_bit(models, n):
    from brachkit.dynamics import brachistochrone_acceleration
    for name, info in STANDARD_LAUNCH.items():
        model, k = models[name], info["k"]
        rng = np.random.default_rng(n)
        q = np.asarray(info["p"]) + 0.1 * rng.standard_normal((n, model.m))
        v = rng.standard_normal((n, model.m))
        v[::3, 0] = -0.0  # signed zeros must come out with the same sign
        T = info["T"] * (0.5 + rng.random(n))
        acc = brachistochrone_acceleration(model, k, T, q, v)
        _assert_same_bits(acc, _general_y_acceleration(model, k, T, q, v), name)
        for j in range(0, n, max(1, n // 8)):  # a lane alone is its row of the batch
            alone = brachistochrone_acceleration(model, k, T[j:j + 1], q[j:j + 1], v[j:j + 1])
            assert np.array_equal(alone[0], acc[j]), name
        # the geometry that reads Y off g and Gamma, against the general-Y formulas
        ref = _general_y_geometry(model, k, T, q, v)
        for label, got in _adapted_geometry(model, k, T, q, v).items():
            _assert_same_bits(got, ref[label], f"{name}: {label}")


def test_dynamics_solves_no_ode_with_solve_ivp(models, tmp_path, monkeypatch):
    # the dense curves run on the shots' integrator; dynamics keeps the solve_ivp
    # name only for the benchmark's instrumentation
    import brachkit.dynamics as dynamics
    from brachkit.cli import run_scenario

    def refuse(*args, **kwargs):
        raise AssertionError("dynamics called solve_ivp")

    monkeypatch.setattr(dynamics, "solve_ivp", refuse)
    cfg = {"model": {"name": "minkowski3"}, "k": float(np.sqrt(2.0)), "p": [0.0, 0.0, 0.0],
           "gamma_anchor": [1.0, 0.0, 0.0],
           "solve": {"u": [1.0, 0.0, 0.0], "T": 1.0},
           "shoot": {"guess_u": [1.0, 0.3, 0.0], "guess_T": 0.7},
           "survey": {"n_starts": 4, "T_bracket": [0.3, 2.0], "seed": 4, "attach_indices": False}}
    for command in ("solve", "shoot", "survey"):
        run_scenario(cfg, command, tmp_path / command)
        assert (tmp_path / command).is_dir()
    w = integrate_conformal_geodesic(models["minkowski3"], np.sqrt(2.0), np.zeros(3), [1.0, 0, 0])
    assert np.allclose(w.points[-1], [1.0, 0.0, 0.0])


def test_dop853_tableau_is_scipys_bit_for_bit():
    # the literal tableau equals every coefficient of scipy's DOP853, bit for bit
    from scipy.integrate import DOP853

    import brachkit.dynamics as dynamics

    S = DOP853.n_stages
    assert dynamics._S == S and len(dynamics._A) == S
    for s in range(S):
        assert dynamics._A[s].tobytes() == DOP853.A[s, :s].tobytes(), s
    assert len(dynamics._A_EXTRA) == len(DOP853.A_EXTRA)
    for s, row in enumerate(dynamics._A_EXTRA, start=S + 1):
        assert row.tobytes() == DOP853.A_EXTRA[s - S - 1, :s].tobytes(), s
    for mine, theirs in ((dynamics._B, DOP853.B), (dynamics._E5, DOP853.E5),
                         (dynamics._E3, DOP853.E3), (dynamics._D, DOP853.D),
                         (dynamics._E, np.stack([DOP853.E5, DOP853.E3]))):
        assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()
