import numpy as np
import pytest

from brachkit.curves import Curve, FieldAlongCurve
from brachkit.dynamics import integrate_brachistochrone
from brachkit.errors import ConstraintViolated, NotHorizontal
from brachkit.geometry import conformal_factor, horizontal_part, riemannian_metric_matrix
from brachkit.oracle import constrained_curve_family
from brachkit.transform import (conformal_energy, correspondence_report, dD_differential,
                                deform_D, lift_G, map_L)
from brachkit.variation import SolutionGeometry, make_admissible_variation

from conftest import STANDARD_LAUNCH, unit_horizontal


def test_deform_flat_spatial_projection(models):
    model = models["minkowski3"]
    k = np.sqrt(2.0)
    sol = integrate_brachistochrone(model, k, np.zeros(3), [1.0, 0, 0], 1.0)
    w = deform_D(model, sol)
    # spatial part unchanged, time component flattened to zero
    assert np.max(np.abs(w.points[:, 2])) < 1e-10
    assert np.max(np.abs(w.points[:, 0] - w.grid)) < 1e-10


def test_deform_conformal_speed_identity(models, solutions):
    for name in ("einstein_cylinder", "static_well", "rotating_frame"):
        model = models[name]
        sol = solutions[name]
        w = deform_D(model, sol)
        for q, v in zip(w.points[::100], w.velocities[::100]):
            val = conformal_factor(model, q, sol.k) * float(
                v @ riemannian_metric_matrix(model, q) @ v)
            assert val == pytest.approx(sol.T ** 2, abs=1e-8 * (1 + sol.T ** 2))


def test_deform_rejects_constraint_violations(models, solutions):
    model = models["static_well"]
    sol = solutions["static_well"]
    wobble = 1.0 + 0.01 * np.sin(2 * np.pi * sol.sigma.grid)
    bad = Curve(grid=sol.sigma.grid, points=sol.sigma.points,
                velocities=sol.sigma.velocities * wobble[:, None])
    with pytest.raises(ConstraintViolated):
        deform_D(model, bad, k=sol.k)


def test_degenerate_travel_time_rejected(models):
    with pytest.raises(ValueError):
        integrate_brachistochrone(models["minkowski3"], np.sqrt(2.0), np.zeros(3),
                                  [1.0, 0, 0], 0.0)


def test_roundtrip_all_models(models, solutions):
    for name, sol in solutions.items():
        rep = correspondence_report(models[name], sol)
        assert rep.roundtrip_error < 1e-7, name


def test_roundtrip_random_launches(models):
    rng = np.random.default_rng(20)
    model = models["rotating_frame"]
    info = STANDARD_LAUNCH["rotating_frame"]
    for _ in range(5):
        p = np.asarray(info["p"]) + 0.1 * rng.standard_normal(3)
        u = unit_horizontal(model, p, rng.standard_normal(3))
        sol = integrate_brachistochrone(model, info["k"], p, u, rng.uniform(0.3, 0.6))
        rep = correspondence_report(model, sol)
        assert rep.roundtrip_error < 1e-7


def test_lift_flat_segment(models):
    # horizontal segment of length 1 at k = sqrt(2) lifts to the straight
    # solution with T = 1
    model = models["minkowski3"]
    grid = np.linspace(0.0, 1.0, 201)
    pts = np.outer(grid, [1.0, 0.0, 0.0])
    vels = np.tile([1.0, 0.0, 0.0], (201, 1))
    w = Curve(grid=grid, points=pts, velocities=vels)
    cand = lift_G(model, np.sqrt(2.0), w)
    assert cand.T == pytest.approx(1.0, abs=1e-12)
    assert cand.residual_conservation_Y < 1e-10
    assert np.max(np.abs(cand.sigma.points[:, 2] - np.sqrt(2.0) * grid)) < 1e-8
    assert cand.residual_ode < 1e-6


def test_lift_non_geodesic_detected(models):
    # a horizontal non-geodesic with constant speed: lift violates the equation
    model = models["minkowski3"]
    grid = np.linspace(0.0, 1.0, 401)
    radius = 0.5
    ang = grid * 1.0
    pts = np.stack([radius * np.cos(ang), radius * np.sin(ang), np.zeros(401)], axis=1)
    vels = np.stack([-radius * np.sin(ang), radius * np.cos(ang), np.zeros(401)], axis=1)
    w = Curve(grid=grid, points=pts, velocities=vels)
    cand = lift_G(model, np.sqrt(2.0), w)
    assert cand.residual_ode >= 1e-2


def test_lift_requires_horizontal(models):
    grid = np.linspace(0.0, 1.0, 101)
    pts = np.outer(grid, [1.0, 0.0, 0.5])
    vels = np.tile([1.0, 0.0, 0.5], (101, 1))
    with pytest.raises(NotHorizontal):
        lift_G(models["minkowski3"], np.sqrt(2.0), Curve(grid=grid, points=pts,
                                                         velocities=vels))


def test_dD_flat_spatial_identity(models):
    model = models["minkowski3"]
    k = np.sqrt(2.0)
    sol = integrate_brachistochrone(model, k, np.zeros(3), [1.0, 0, 0], 1.0)
    geom = SolutionGeometry(model, sol)
    zeta = make_admissible_variation(geom, rng=np.random.default_rng(1))
    X = dD_differential(model, sol, zeta)
    # with nabla Y = 0 the correction vanishes and the push is a translation:
    # spatial components are carried over unchanged
    assert np.max(np.abs(X.values[:, :2] - zeta.values[:, :2])) < 1e-9


def test_dD_matches_finite_difference_of_D(models, solutions):
    model = models["static_well"]
    sol = solutions["static_well"]
    coeffs = np.array([[0.03, -0.02, 0.01], [0.01, 0.02, -0.005]])
    s = 1e-5
    fam = {sg: constrained_curve_family(model, sol, coeffs, sg * s) for sg in (1, -1)}
    grid = sol.sigma.grid
    zeta_vals = (fam[1].sigma.point_spline()(grid)
                 - fam[-1].sigma.point_spline()(grid)) / (2 * s)
    zeta_dots = (fam[1].sigma.velocity_spline()(grid)
                 - fam[-1].sigma.velocity_spline()(grid)) / (2 * s)
    from brachkit.geometry import connection_coeffs
    derivs = np.empty_like(zeta_dots)
    for i, (q, v) in enumerate(zip(sol.sigma.points, sol.sigma.velocities)):
        G = connection_coeffs(model, q)
        derivs[i] = zeta_dots[i] + np.einsum("abc,b,c->a", G, v, zeta_vals[i])
    zeta = FieldAlongCurve(host=sol.sigma, values=zeta_vals, derivatives=derivs)
    X = dD_differential(model, sol, zeta, constraint_tol=1e-3)
    wp = deform_D(model, fam[1], check=False)
    wm = deform_D(model, fam[-1], check=False)
    fd = (wp.points - wm.points) / (2 * s)
    rel = np.max(np.abs(X.values - fd)) / max(1.0, np.max(np.abs(fd)))
    assert rel < 1e-4


def test_dD_image_perpendicularity(models, solutions):
    # eq. defect: <grad phi, X> <w',w'> + 2 phi <nabla_w' X, w'> = 0 along w
    from brachkit.geometry import conformal_factor_gradient, connection_coeffs
    from scipy.interpolate import CubicSpline
    model = models["rotating_frame"]
    sol = solutions["rotating_frame"]
    geom = SolutionGeometry(model, sol)
    zeta = make_admissible_variation(geom, rng=np.random.default_rng(2))
    w = deform_D(model, sol, check=False)
    X = dD_differential(model, sol, zeta)
    k = sol.k

    def phi_of(qq):
        y = model.y(qq)
        yy = float(y @ model.g(qq) @ y)
        return -yy / (k * k + yy)

    dX = CubicSpline(w.grid, X.values, axis=0)(w.grid, 1)
    worst = 0.0
    scale = 0.0
    for i in range(0, w.grid.size, 50):
        q, v = w.points[i], w.velocities[i]
        G = connection_coeffs(model, q)
        nX = dX[i] + np.einsum("abc,b,c->a", G, v, X.values[i])
        g = model.g(q)
        grad_phi = conformal_factor_gradient(model, q, k)
        vv = float(v @ g @ v)
        val = float(grad_phi @ g @ X.values[i]) * vv + 2 * phi_of(q) * float(nX @ g @ v)
        worst = max(worst, abs(val))
        scale = max(scale, abs(2 * phi_of(q) * float(nX @ g @ v)))
    assert worst < 1e-6 * max(scale, 1.0)


def test_map_L_host_passes_through_anchor(models, solutions):
    # re-anchored at a grid node t0, the host slides that node by zero, so it
    # keeps sigma(t0) exactly and its velocity there is the horizontal part of sigma'(t0)
    model = models["rotating_frame"]
    sol = solutions["rotating_frame"]
    zeta = make_admissible_variation(SolutionGeometry(model, sol), rng=np.random.default_rng(3))
    i0 = 80
    q0, v0 = sol.sigma.points[i0], sol.sigma.velocities[i0]
    host = map_L(model, sol, float(sol.sigma.grid[i0]), zeta).host
    assert np.array_equal(host.points[i0], q0)
    assert not np.array_equal(host.points[i0 + 1], sol.sigma.points[i0 + 1])
    assert np.max(np.abs(host.velocities[i0] - horizontal_part(model, q0, v0))) < 1e-10


def test_energy_identity_and_action_relation(models, solutions):
    for name, sol in solutions.items():
        model = models[name]
        w = deform_D(model, sol)
        E = conformal_energy(model, sol.k, w)
        assert abs(E - 0.5 * sol.T ** 2) < 1e-8 * (1 + sol.T ** 2)
        # F = -(1/2) T^2 = -E after deformation
        F = -0.5 * sol.T ** 2
        assert abs(F + E) < 1e-8 * (1 + sol.T ** 2)


def test_deform_horizontality(models, solutions):
    for name, sol in solutions.items():
        model = models[name]
        w = deform_D(model, sol)
        speed = np.sqrt(max(float(w.velocities[0] @ riemannian_metric_matrix(
            model, w.points[0]) @ w.velocities[0]), 1e-300))
        horiz = max(abs(float(v @ model.g(q) @ model.y(q)))
                    for q, v in zip(w.points, w.velocities))
        assert horiz < 1e-8 * speed


def test_deformation_is_horizontal_to_rounding(models, solutions):
    # the slid velocity is the closed form sigma' + rate Y, so <w', Y> vanishes
    # up to the rounding of one inner product
    for name, sol in solutions.items():
        assert correspondence_report(models[name], sol).horizontality < 1e-14, name


def test_constrained_family_recovers_base(models, solutions):
    model = models["rotating_frame"]
    sol = solutions["rotating_frame"]
    coeffs = np.array([[0.02, 0.01, -0.03]])
    back = constrained_curve_family(model, sol, coeffs, 0.0)
    diff = np.max(np.abs(back.sigma.point_spline()(sol.sigma.grid) - sol.sigma.points))
    assert diff < 1e-8
    assert abs(back.T - sol.T) < 1e-9


def test_index_attachment_builds_three_splines(models, cylinder_long_arc, monkeypatch):
    # deform_D integrates its rate once on the solution's own nodes; the
    # geodesic check and the curve cache build one each
    from brachkit.bvp import _attach_indices
    from brachkit.curves import _CubicSpline

    init = _CubicSpline.__init__
    built = []

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_CubicSpline, "__init__", counting)
    assert _attach_indices(models["einstein_cylinder"], cylinder_long_arc) == (1, 0, 1)
    assert len(built) == 3


def test_deformation_lives_on_the_solution_grid(models, solutions):
    # D slides each node along its own Killing orbit: no node is added, and the
    # index cache runs on that same deformation, reversed
    from brachkit.variation import index_data
    model, sol = models["rotating_frame"], solutions["rotating_frame"]
    w = deform_D(model, sol)
    assert np.array_equal(w.grid, sol.sigma.grid)
    rev = w.reversed()
    data = index_data(model, sol)
    for name in ("grid", "points", "velocities"):
        assert np.array_equal(getattr(data.w, name), getattr(rev, name)), name


def test_tangent_constraint_scan_evaluates_the_connection_once(solutions):
    # nabla-zeta and nabla Y both come from one Gamma at the solution's nodes
    from brachkit.models import ModelSpec, make_model
    from brachkit.transform import tangent_constraint_scan

    model = make_model(ModelSpec("rotating_frame"))
    sol = solutions["rotating_frame"]
    zeta = make_admissible_variation(SolutionGeometry(model, sol))
    bare = FieldAlongCurve(host=sol.sigma, values=zeta.values)  # nabla-zeta from Gamma
    pts = sol.sigma.points
    calls = []
    callback = model.analytic_christoffels

    def counting(q):
        calls.append(q.shape == pts.shape and np.array_equal(q, pts))
        return callback(q)

    model.analytic_christoffels = counting
    C, r_y, r_s, nz = tangent_constraint_scan(model, sol, bare)
    assert calls == [True]
    assert max(np.max(np.abs(r_y)), np.max(np.abs(r_s))) < 1e-5 * (1.0 + np.max(np.abs(nz)))


def test_dD_differential_evaluates_g_and_the_connection_once(solutions):
    # the constraint gate and the pushed field share one g and one Gamma at the
    # solution's nodes
    from brachkit.models import ModelSpec, make_model

    model = make_model(ModelSpec("rotating_frame"))
    sol = solutions["rotating_frame"]
    zeta = make_admissible_variation(SolutionGeometry(model, sol))
    pts = sol.sigma.points
    calls = {"metric_components": [], "analytic_christoffels": []}
    callbacks = {name: getattr(model, name) for name in calls}

    def counting(name):
        def counted(q):
            calls[name].append(q.shape == pts.shape and np.array_equal(q, pts))
            return callbacks[name](q)
        return counted

    for name in calls:
        setattr(model, name, counting(name))
    dD = dD_differential(model, sol, zeta)
    assert sum(calls["metric_components"]) == 1
    assert sum(calls["analytic_christoffels"]) == 1
    # the same field as the public map_L, which evaluates its own g and Gamma
    ref = map_L(model, sol, 0.0, zeta)
    assert np.array_equal(dD.values, ref.values)
    assert np.array_equal(dD.host.points, ref.host.points)
