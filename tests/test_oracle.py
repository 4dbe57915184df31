import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from brachkit.curves import Curve
from brachkit.errors import Stalled
from brachkit.oracle import (PenaltyConfig, constrained_curve_family, discrete_minimize,
                             fd_variation_family, penalized_energy)
from brachkit.transform import conformal_energy

from conftest import unit_horizontal


def spatial_segment(model, a, b, n=120):
    grid = np.linspace(0.0, 1.0, n + 1)
    pts = np.outer(1 - grid, a) + np.outer(grid, b)
    vels = np.tile(np.asarray(b, float) - np.asarray(a, float), (n + 1, 1))
    return Curve(grid=grid, points=pts, velocities=vels)


def test_penalty_inert_deep_inside(models):
    model = models["minkowski3"]
    k = np.sqrt(2.0)
    w = spatial_segment(model, [0, 0, 0], [1, 0, 0])
    pc = PenaltyConfig(epsilon=0.5)
    assert penalized_energy(model, k, w, pc) == conformal_energy(model, k, w)
    # cutoff independence on interior curves
    for eps in (0.5, 0.1, 0.01):
        assert (penalized_energy(model, k, w, PenaltyConfig(epsilon=eps))
                == conformal_energy(model, k, w))


def test_penalty_grows_toward_boundary(models):
    model = models["static_well"]
    k = 2.0  # admissible region: 1 + x^2 < 4
    pc = PenaltyConfig(epsilon=0.5)
    vals = []
    for x0 in (1.55, 1.62, 1.69):
        w = spatial_segment(model, [x0, 0, 0], [x0, 0.3, 0])
        vals.append(penalized_energy(model, k, w, pc) - conformal_energy(model, k, w))
    assert vals[0] > 0.0
    assert vals[0] < vals[1] < vals[2]


def test_chi_smoothness_at_cutoff():
    pc = PenaltyConfig(epsilon=0.5)
    s0 = 1.0 / pc.epsilon
    assert pc.chi(s0) == 0.0
    assert pc.chi_prime(s0) == 0.0
    h = 1e-6
    assert pc.chi(s0 + h) < 1e-15  # cubic-order takeoff: C^2 at the cutoff


def test_barrier_gradient_matches_energy_differences(models):
    # interior nodes at x in [1.55, 1.68] of the well with k = 2 (admissible
    # region 1 + x^2 < 4), where 1/Psi_k^2 exceeds the cutoff and chi' > 0
    from brachkit.oracle import _PolylineObjective, psi_k
    model = models["static_well"]
    k = 2.0
    pc = PenaltyConfig(epsilon=0.5)
    n = 20
    x0, x1 = np.array([1.55, 0.0, 0.0]), np.array([1.6, 0.3, 0.0])
    grid = np.linspace(0.0, 1.0, n + 1)
    nodes = np.outer(1 - grid, x0) + np.outer(grid, x1)
    nodes[:, 0] += 0.08 * np.sin(np.pi * grid)
    nodes[:, 2] += 0.05 * np.sin(2 * np.pi * grid)
    obj = _PolylineObjective(model, k, x0, x1, n, pc)
    interior = nodes[1:-1].ravel()
    assert np.any(pc.chi_prime(1.0 / psi_k(model, k, nodes[1:-1]) ** 2) != 0.0)
    g = obj.gradient(interior)
    h = 1e-6
    fd = np.array([(obj.energy(interior + e) - obj.energy(interior - e)) / (2 * h)
                   for e in h * np.eye(interior.size)])
    assert np.max(np.abs(fd - g)) <= 1e-6 * (1.0 + np.max(np.abs(g)))


def test_discrete_minimize_flat(models):
    model = models["minkowski3"]
    cand = discrete_minimize(model, [0, 0, 0], [1, 0, 0], np.sqrt(2.0), 200)
    assert abs(cand.T_estimate - 1.0) < 1e-4
    assert cand.constraint_penalty == 0.0


def test_discrete_minimize_cylinder_from_bent_start(models):
    model = models["einstein_cylinder"]
    k = np.sqrt(2.0)
    alpha = np.pi / 2
    grid = np.linspace(0, 1, 201)
    pts = np.stack([np.pi / 2 + 0.25 * np.sin(np.pi * grid),
                    alpha * grid + 0.1 * np.sin(2 * np.pi * grid),
                    np.zeros(201)], axis=1)
    init = Curve(grid=grid, points=pts, velocities=CubicSpline(grid, pts, axis=0)(grid, 1))
    cand = discrete_minimize(model, [np.pi / 2, 0, 0], [np.pi / 2, alpha, 0], k, 200,
                             init=init)
    assert abs(cand.T_estimate - alpha) < 1e-3
    assert np.max(np.abs(cand.polyline.points[:, 0] - np.pi / 2)) < 1e-5


def test_discrete_minimize_descends(models):
    model = models["einstein_cylinder"]
    k = np.sqrt(2.0)
    alpha = np.pi / 2
    grid = np.linspace(0, 1, 201)
    pts = np.stack([np.pi / 2 + 0.25 * np.sin(np.pi * grid), alpha * grid,
                    np.zeros(201)], axis=1)
    init = Curve(grid=grid, points=pts, velocities=CubicSpline(grid, pts, axis=0)(grid, 1))
    pc = PenaltyConfig()
    e_init = penalized_energy(model, k, init, pc)
    cand = discrete_minimize(model, [np.pi / 2, 0, 0], [np.pi / 2, alpha, 0], k, 200,
                             init=init, pc=pc)
    e_final = penalized_energy(model, k, cand.polyline, pc)
    assert e_final < e_init


def test_discrete_minimize_stalls_on_tiny_budget(models):
    model = models["einstein_cylinder"]
    k = np.sqrt(2.0)
    grid = np.linspace(0, 1, 101)
    pts = np.stack([np.pi / 2 + 0.3 * np.sin(np.pi * grid), np.pi / 2 * grid,
                    np.zeros(101)], axis=1)
    init = Curve(grid=grid, points=pts, velocities=CubicSpline(grid, pts, axis=0)(grid, 1))
    with pytest.raises(Stalled):
        discrete_minimize(model, [np.pi / 2, 0, 0], [np.pi / 2, np.pi / 2, 0], k, 100,
                          init=init, max_iters=1)


def test_fd_variation_family_returns_base(models, solutions):
    model = models["static_well"]
    sol = solutions["static_well"]
    du = unit_horizontal(model, sol.sigma.points[0], [0.0, 1.0, 0.0])
    fams = fd_variation_family(model, sol, (du, 0.01), [0.0])
    assert fams[0] is sol


def test_constrained_family_travel_time_curvature(models, solutions):
    # d^2 T / ds^2 matches the Hessian-derived quadratic form at 1e-2
    from brachkit.curves import FieldAlongCurve
    from brachkit.geometry import connection_coeffs
    from brachkit.variation import SolutionGeometry, hessian_F_eval
    model = models["static_well"]
    sol = solutions["static_well"]
    coeffs = np.array([[0.05, -0.03, 0.02], [0.0, 0.02, 0.01]])
    s = 3e-3
    plus = constrained_curve_family(model, sol, coeffs, s)
    minus = constrained_curve_family(model, sol, coeffs, -s)
    base = constrained_curve_family(model, sol, coeffs, 0.0)
    grid = sol.sigma.grid
    vals = (plus.sigma.point_spline()(grid) - minus.sigma.point_spline()(grid)) / (2 * s)
    dots = (plus.sigma.velocity_spline()(grid)
            - minus.sigma.velocity_spline()(grid)) / (2 * s)
    ders = np.empty_like(dots)
    for i, (q, v) in enumerate(zip(sol.sigma.points, sol.sigma.velocities)):
        G = connection_coeffs(model, q)
        ders[i] = dots[i] + np.einsum("abc,b,c->a", G, v, vals[i])
    zeta = FieldAlongCurve(host=sol.sigma, values=vals, derivatives=ders)
    H_F = hessian_F_eval(SolutionGeometry(model, sol), zeta, zeta, constraint_tol=1e-3)
    d2T = (plus.T - 2 * base.T + minus.T) / (s * s)
    H_T = -H_F / sol.T
    assert d2T == pytest.approx(H_T, rel=1e-2)


def test_conformal_speeds_evaluate_g_once(solutions):
    # phi_k and g_R (or the horizontal projection) of a conformal speed share one
    # metric evaluation at their nodes
    from brachkit.curves import sine_bumps
    from brachkit.models import ModelSpec, make_model
    from brachkit.oracle import _PolylineObjective
    from brachkit.transform import deform_D

    model = make_model(ModelSpec("rotating_frame"))
    sol = solutions["rotating_frame"]
    metric, seen = model.metric_components, []

    def counted(q):
        seen.append(np.array(q))
        return metric(q)

    def calls_at(q):
        return sum(x.shape == q.shape and np.array_equal(x, q) for x in seen)

    model.metric_components = counted
    w = deform_D(model, sol)
    seen.clear()
    conformal_energy(model, sol.k, w)
    assert calls_at(w.points) == len(seen) == 1

    obj = _PolylineObjective(model, sol.k, w.points[0], w.points[-1], 40, PenaltyConfig())
    interior = w.point_spline()(np.linspace(0.0, 1.0, 41)[1:-1]).ravel()
    _, mid, v = obj._segments(interior)
    seen.clear()
    obj._density(mid, v)
    assert calls_at(mid) == len(seen) == 1
    seen.clear()
    obj.gradient(interior)
    assert calls_at(mid) == 1   # the others are the finite-difference stencil's

    coeffs, s = np.array([[0.05, -0.03, 0.02]]), 1e-3
    eta, deta = sine_bumps(w.grid, coeffs)
    bent = Curve(grid=w.grid, points=w.points + s * eta, velocities=w.velocities + s * deta)
    flat = deform_D(model, bent, k=sol.k, check=False)
    seen.clear()
    constrained_curve_family(model, sol, coeffs, s)
    assert calls_at(flat.points) == 2   # deform_D's horizontality check, the speeds
