import numpy as np
import pytest

from brachkit.curves import FieldAlongCurve
from brachkit.dynamics import integrate_brachistochrone, integrate_conformal_geodesic
from brachkit.errors import ConstraintViolated, NotNormal, NotTangentToGamma
from brachkit.geometry import (_jacobian_fd, conformal_geometry, connection_coeffs,
                               curvature_tensor, horizontal_frame, riemannian_metric_matrix)
from brachkit.jacobi import integrate_rjacobi
from brachkit.oracle import constrained_curve_family
from brachkit.transform import dD_differential, deform_D
from brachkit.variation import (ConformalCurveData, SolutionGeometry, _frame_perp,
                                assemble_hessian, constraint_residual, hessian_E_eval,
                                hessian_E_lorentzian, hessian_F_eval, index_form,
                                lagrange_multiplier_field, make_admissible_variation,
                                restricted_index_report,
                                second_fundamental_form_gamma, travel_time_differential)

from conftest import STANDARD_LAUNCH


def fd_field_from_family(model, sol, fam_plus, fam_minus, s):
    grid = sol.sigma.grid
    vals = (fam_plus.sigma.point_spline()(grid)
            - fam_minus.sigma.point_spline()(grid)) / (2 * s)
    dots = (fam_plus.sigma.velocity_spline()(grid)
            - fam_minus.sigma.velocity_spline()(grid)) / (2 * s)
    derivs = np.empty_like(dots)
    for i, (q, v) in enumerate(zip(sol.sigma.points, sol.sigma.velocities)):
        G = connection_coeffs(model, q)
        derivs[i] = dots[i] + np.einsum("abc,b,c->a", G, v, vals[i])
    return FieldAlongCurve(host=sol.sigma, values=vals, derivatives=derivs)


def test_constraint_residual_zero_field(models, solutions):
    model = models["static_well"]
    sol = solutions["static_well"]
    zeta = FieldAlongCurve(host=sol.sigma, values=np.zeros_like(sol.sigma.points))
    rep = constraint_residual(model, sol, zeta)
    assert rep.C_zeta == 0.0
    assert rep.residual_Y == 0.0
    assert rep.residual_speed == 0.0
    assert rep.boundary_ok


def test_constraint_residual_detects_fault(models, solutions):
    model = models["static_well"]
    sol = solutions["static_well"]
    grid = sol.sigma.grid
    vals = np.stack([np.sin(np.pi * grid), np.zeros(grid.size), np.zeros(grid.size)],
                    axis=1)
    rep = constraint_residual(model, sol, FieldAlongCurve(host=sol.sigma, values=vals))
    assert rep.residual_speed >= 1e-3 or rep.residual_Y >= 1e-3


def test_constraint_gates_reject_inadmissible_field(models, solutions):
    # a field vanishing at both ends that breaks the tangent constraints
    model = models["static_well"]
    sol = solutions["static_well"]
    grid = sol.sigma.grid
    vals = np.stack([np.sin(np.pi * grid), np.zeros(grid.size), np.zeros(grid.size)],
                    axis=1)
    bad = FieldAlongCurve(host=sol.sigma, values=vals)
    assert constraint_residual(model, sol, bad).boundary_ok
    with pytest.raises(ConstraintViolated):
        dD_differential(model, sol, bad)
    with pytest.raises(ConstraintViolated):
        travel_time_differential(model, sol, bad)
    geom = SolutionGeometry(model, sol)
    good = make_admissible_variation(geom, rng=np.random.default_rng(36))
    for z1, z2 in ((bad, bad), (good, bad), (bad, good)):
        with pytest.raises(ConstraintViolated):
            hessian_F_eval(geom, z1, z2)


def test_admissible_fields_pass(models, solutions):
    rng = np.random.default_rng(30)
    for name, sol in solutions.items():
        model = models[name]
        geom = SolutionGeometry(model, sol)
        zeta = make_admissible_variation(geom, rng=rng)
        rep = constraint_residual(model, sol, zeta)
        scale = 1 + np.max(np.abs(zeta.values))
        assert rep.residual_Y < 1e-7 * scale, name
        assert rep.residual_speed < 1e-7 * scale, name
        assert rep.boundary_ok


def test_dT_vanishes_at_critical_points(models, solutions):
    rng = np.random.default_rng(31)
    for name, sol in solutions.items():
        model = models[name]
        geom = SolutionGeometry(model, sol)
        for _ in range(2):
            zeta = make_admissible_variation(geom, rng=rng)
            assert abs(travel_time_differential(model, sol, zeta)) < 1e-7


def test_dT_matches_fd_at_noncritical_curve(models, solutions):
    model = models["static_well"]
    sol = solutions["static_well"]
    base_coeffs = np.array([[0.05, -0.02, 0.01]])
    # a non-critical constrained curve to differentiate around
    s0 = 0.08
    base = constrained_curve_family(model, sol, base_coeffs, s0)
    assert base.residual_ode > 1e-3  # genuinely non-critical
    s = 1e-4
    plus = constrained_curve_family(model, sol, base_coeffs, s0 + s)
    minus = constrained_curve_family(model, sol, base_coeffs, s0 - s)
    zeta = fd_field_from_family(model, base, plus, minus, s)
    rep = constraint_residual(model, base, zeta)
    dT_formula = -rep.C_zeta / base.k
    dT_fd = (plus.T - minus.T) / (2 * s)
    assert dT_formula == pytest.approx(dT_fd, rel=1e-4)


def test_zero_field_gives_zero_hessian(models, solutions):
    model = models["minkowski3"]
    sol = solutions["minkowski3"]
    zero = FieldAlongCurve(host=sol.sigma, values=np.zeros_like(sol.sigma.points),
                           derivatives=np.zeros_like(sol.sigma.points))
    assert hessian_F_eval(SolutionGeometry(model, sol), zero, zero) == 0.0


def test_hessian_F_flat_closed_form(models):
    # spatial field orthogonal to the motion: H^F = -1/(k^2-1) int |zeta'|^2
    model = models["minkowski3"]
    k = np.sqrt(2.0)
    sol = integrate_brachistochrone(model, k, np.zeros(3), [1.0, 0.0, 0.0], 1.0)
    grid = sol.sigma.grid
    vals = np.stack([np.zeros(grid.size), np.sin(np.pi * grid), np.zeros(grid.size)],
                    axis=1)
    ders = np.stack([np.zeros(grid.size), np.pi * np.cos(np.pi * grid),
                     np.zeros(grid.size)], axis=1)
    zeta = FieldAlongCurve(host=sol.sigma, values=vals, derivatives=ders)
    H = hessian_F_eval(SolutionGeometry(model, sol), zeta, zeta)
    expected = -np.pi ** 2 / 2 / (k * k - 1.0)
    assert H == pytest.approx(expected, rel=1e-10)
    assert H < 0.0  # so H^T = -H^F/T > 0: local minimum of the travel time


def test_hessian_F_not_critical_guard(models, solutions):
    model = models["static_well"]
    sol = solutions["static_well"]
    bent = constrained_curve_family(model, sol, np.array([[0.05, 0.0, 0.0]]), 0.1)
    zeta = FieldAlongCurve(host=bent.sigma, values=np.zeros_like(bent.sigma.points),
                           derivatives=np.zeros_like(bent.sigma.points))
    from brachkit.errors import NotCritical
    with pytest.raises(NotCritical):
        hessian_F_eval(SolutionGeometry(model, bent), zeta, zeta)


def test_hessian_F_fd_oracle(models, solutions):
    rng = np.random.default_rng(32)
    for name in ("minkowski3", "static_well", "rotating_frame"):
        model = models[name]
        sol = solutions[name]
        coeffs = 0.05 * rng.standard_normal((2, model.m))
        s = 3e-3
        plus = constrained_curve_family(model, sol, coeffs, s)
        minus = constrained_curve_family(model, sol, coeffs, -s)
        base = constrained_curve_family(model, sol, coeffs, 0.0)
        zeta = fd_field_from_family(model, sol, plus, minus, s)
        H = hessian_F_eval(SolutionGeometry(model, sol), zeta, zeta, constraint_tol=1e-3)
        F = lambda T: -0.5 * T * T
        d2F = (F(plus.T) - 2 * F(base.T) + F(minus.T)) / (s * s)
        assert H == pytest.approx(d2F, rel=1e-3), name


def test_hessian_scaling_relation(models, solutions):
    # H^F = -T H^T with H^T from second differences of the travel time
    model = models["rotating_frame"]
    sol = solutions["rotating_frame"]
    coeffs = np.array([[0.04, -0.01, 0.02]])
    s = 3e-3
    plus = constrained_curve_family(model, sol, coeffs, s)
    minus = constrained_curve_family(model, sol, coeffs, -s)
    base = constrained_curve_family(model, sol, coeffs, 0.0)
    zeta = fd_field_from_family(model, sol, plus, minus, s)
    H_F = hessian_F_eval(SolutionGeometry(model, sol), zeta, zeta, constraint_tol=1e-3)
    d2T = (plus.T - 2 * base.T + minus.T) / (s * s)
    scale = max(abs(H_F), 1.0)
    assert abs(H_F + sol.T * d2T) < 1e-4 * scale


def test_index_form_flat_reduction(models):
    model = models["minkowski3"]
    k = np.sqrt(2.0)
    cg = conformal_geometry(model, k)
    w = integrate_conformal_geodesic(model, k, np.zeros(3), [1.0, 0.0, 0.0])
    grid = w.grid
    vals = np.stack([np.zeros(grid.size), np.sin(np.pi * grid), np.zeros(grid.size)],
                    axis=1)
    ders = np.stack([np.zeros(grid.size), np.pi * np.cos(np.pi * grid),
                     np.zeros(grid.size)], axis=1)
    V = FieldAlongCurve(host=w, values=vals, derivatives=ders)
    # flat conformal factor is 1 at k = sqrt(2): I = int |V'|^2
    assert index_form(ConformalCurveData(cg, w), V, V) == pytest.approx(np.pi ** 2 / 2, rel=1e-9)


def test_index_form_jacobi_orthogonality(models):
    model = models["einstein_cylinder"]
    k = np.sqrt(2.0)
    cg = conformal_geometry(model, k)
    L = 2.0
    w = integrate_conformal_geodesic(model, k, [np.pi / 2, 0.0, 0.0], [0.0, L, 0.0])
    data = ConformalCurveData(cg, w)
    # normal Jacobi field vanishing at both ends needs L = pi; rescale instead:
    # use J(t) = sin(pi t) normal only when L = pi. For L = 2 take the Jacobi
    # field with J(0) = 0 and pick the comparison field vanishing at the ends.
    jd = integrate_rjacobi(data, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    grid = w.grid
    # V vanishing at both endpoints
    vals = np.stack([np.sin(np.pi * grid) * 0.7, np.sin(2 * np.pi * grid) * 0.2,
                     np.zeros(grid.size)], axis=1)
    V = FieldAlongCurve(host=w, values=vals)
    # I(J, V) equals boundary contribution only: here J(0)=0, V(0)=V(1)=0 but
    # J(1) != 0 -> I(J,V) = g~(nabla J, V)| boundary = 0 since V vanishes there
    val = index_form(data, jd.field, V)
    scale = abs(index_form(data, V, V)) + 1.0
    assert abs(val) < 1e-5 * scale


def test_index_form_symmetry(models):
    model = models["einstein_cylinder"]
    k = np.sqrt(2.0)
    cg = conformal_geometry(model, k)
    w = integrate_conformal_geodesic(model, k, [np.pi / 2, 0.0, 0.0], [0.0, 1.5, 0.0])
    data = ConformalCurveData(cg, w)
    rng = np.random.default_rng(33)
    grid = w.grid
    mk = lambda: FieldAlongCurve(host=w, values=np.stack(
        [np.sin(np.pi * grid) * rng.standard_normal(),
         np.sin(2 * np.pi * grid) * rng.standard_normal(),
         np.sin(np.pi * grid) * rng.standard_normal()], axis=1))
    v1, v2 = mk(), mk()
    a = index_form(data, v1, v2)
    b = index_form(data, v2, v1)
    assert abs(a - b) < 1e-10 * (1 + abs(a))


def test_hessian_E_sphere_signs(models):
    # arc shorter than pi: positive for the sine field; past the conjugate
    # point the same field turns the Hessian negative
    model = models["einstein_cylinder"]
    k = np.sqrt(2.0)
    cg = conformal_geometry(model, k)
    for L, positive in ((np.pi / 2, True), (3 * np.pi / 2, False)):
        w = integrate_conformal_geodesic(model, k, [np.pi / 2, 0.0, 0.0], [0.0, L, 0.0])
        grid = w.grid
        vals = np.stack([np.sin(np.pi * grid), np.zeros(grid.size),
                         np.zeros(grid.size)], axis=1)
        V = FieldAlongCurve(host=w, values=vals)
        val = hessian_E_eval(ConformalCurveData(cg, w), V, V)
        assert (val > 0) == positive


def test_hessian_E_two_expressions_agree(models, solutions):
    # conformal-data form on the reversed curve vs Lorentzian-data form
    for name in ("static_well", "rotating_frame", "einstein_cylinder"):
        model = models[name]
        sol = solutions[name]
        geom = SolutionGeometry(model, sol)
        cg = conformal_geometry(model, sol.k)
        zeta = make_admissible_variation(geom, rng=np.random.default_rng(34))
        w = deform_D(model, sol, check=False)
        X = dD_differential(model, sol, zeta)
        lorentz = hessian_E_lorentzian(model, sol.k, w, X)
        wrev = w.reversed()
        Xr = FieldAlongCurve(host=wrev, values=X.reversed().values)
        riem = hessian_E_eval(ConformalCurveData(cg, wrev), Xr, Xr)
        scale = max(abs(lorentz), abs(riem), 1.0)
        assert abs(lorentz - riem) < 1e-6 * scale, name


def test_second_variational_principle(models, solutions):
    rng = np.random.default_rng(35)
    for name, sol in solutions.items():
        model = models[name]
        geom = SolutionGeometry(model, sol)
        cg = conformal_geometry(model, sol.k)
        w = deform_D(model, sol, check=False)
        wrev = w.reversed()
        data = ConformalCurveData(cg, wrev)
        for _ in range(2):
            zeta = make_admissible_variation(geom, rng=rng)
            HF = hessian_F_eval(geom, zeta, zeta)
            X = dD_differential(model, sol, zeta)
            Xr = FieldAlongCurve(host=wrev, values=X.reversed().values)
            HE = hessian_E_eval(data, Xr, Xr)
            scale = max(abs(HF), abs(HE), 1.0)
            assert abs(HF + HE) < 1e-5 * scale, name


def test_second_fundamental_form(models):
    # geodesic observers: zero shape
    model = models["minkowski3"]
    q = np.zeros(3)
    y = model.y(q)
    assert second_fundamental_form_gamma(model, q, [1.0, 0, 0], y, y) == 0.0
    # static well: cross-check against -1/2 d<Y,Y> in the normal direction
    model = models["static_well"]
    q = np.array([1.0, 0.0, 0.0])
    y = model.y(q)
    n = np.array([1.0, 0.0, 0.0])
    val = second_fundamental_form_gamma(model, q, n, 2.0 * y, y)
    h = 1e-6
    dN = (float(model.y(q + h * n) @ model.g(q + h * n) @ model.y(q + h * n))
          - float(model.y(q - h * n) @ model.g(q - h * n) @ model.y(q - h * n))) / (2 * h)
    assert val == pytest.approx(2.0 * (-0.5 * dN), abs=1e-6)
    # bilinearity in the tangent slots
    val2 = second_fundamental_form_gamma(model, q, n, 4.0 * y, y)
    assert val2 == pytest.approx(2.0 * val, rel=1e-12)


def test_second_fundamental_form_guards(models):
    model = models["static_well"]
    q = np.array([1.0, 0.0, 0.0])
    y = model.y(q)
    with pytest.raises(NotTangentToGamma):
        second_fundamental_form_gamma(model, q, [1.0, 0, 0], [1.0, 0, 0], y)
    with pytest.raises(NotNormal):
        second_fundamental_form_gamma(model, q, y, y, y)
    # the guards do not depend on scale: on the cylinder a tiny Y is no normal, and a
    # tiny e_theta no tangent, however small; a zero normal fails too
    model = models["einstein_cylinder"]
    q = np.array([1.0, 0.3, 0.0])
    y, e_theta = model.y(q), np.array([1.0, 0.0, 0.0])
    for n in (1e-9 * y, np.zeros(3)):
        with pytest.raises(NotNormal):
            second_fundamental_form_gamma(model, q, n, y, y)
    with pytest.raises(NotTangentToGamma):
        second_fundamental_form_gamma(model, q, e_theta, 1e-9 * e_theta, y)
    # while a tiny normal is still a normal
    model = models["static_well"]
    q = np.array([1.0, 0.0, 0.0])
    y, n = model.y(q), np.array([1.0, 0.0, 0.0])
    assert second_fundamental_form_gamma(model, q, 1e-9 * n, y, y) == pytest.approx(
        1e-9 * second_fundamental_form_gamma(model, q, n, y, y), rel=1e-12)


@pytest.mark.parametrize("name", ["einstein_cylinder", "rotating_frame"])
def test_frames_of_the_restricted_modes_through_a_skipped_axis(models, name):
    # the horizontal velocity turns through E_1 at the middle node, where Gram-Schmidt
    # skips E_1; the frames stay orthonormal, orthogonal to Y (and w'), and continuous.
    # (For m = 4 the skip also reorders the perpendicular rows there.)
    model = models[name]
    m = model.m
    pts = (np.asarray(STANDARD_LAUNCH[name]["p"], dtype=float)
           + np.outer(np.linspace(0.0, 0.1, 41), np.eye(m)[0]))
    g, gr, E = model.g(pts), riemannian_metric_matrix(model, pts), horizontal_frame(model, pts)
    a = np.linspace(-0.5, 0.5, 41)[:, None]
    vels = np.cos(a) * E[:, 0] + np.sin(a) * E[:, -1] + 0.3 * model.y(pts)
    for drop in (False, True):
        F = _frame_perp(g, vels, drop)
        assert F.shape == (41, m - 1 - drop, m)
        assert np.max(np.abs(F @ gr @ F.mT - np.eye(m - 1 - drop))) <= 1e-13
        assert np.max(np.abs(F @ g[..., -1:])) <= 1e-13
        if drop:
            assert np.max(np.abs(F @ gr @ vels[..., None])) <= 1e-13
        assert (np.einsum("nia,nab,nib->ni", F[1:], gr[1:], F[:-1]) > 0.0).all()
    # the skip: the frame at the middle node is the rest of E, up to signs
    assert np.max(np.abs(np.abs(F[20]) - np.abs(E[20, 1:]))) <= 1e-14


def test_assemble_hessian_flat_positive(models):
    model = models["minkowski3"]
    k = np.sqrt(2.0)
    sol = integrate_brachistochrone(model, k, np.zeros(3), [1.0, 0, 0], 1.0)
    cg = conformal_geometry(model, k)
    wrev = deform_D(model, sol).reversed()
    data = ConformalCurveData(cg, wrev)
    for mode in ("full", "horizontal", "perpendicular"):
        hm = assemble_hessian(data, mode, 40)
        assert hm.n_negative == 0
        assert hm.n_zero == 0


def test_assemble_hessian_cylinder_counts(models, cylinder_long_arc, cylinder_very_long_arc):
    model = models["einstein_cylinder"]
    cg = conformal_geometry(model, np.sqrt(2.0))
    for sol, expected in ((cylinder_long_arc, 1), (cylinder_very_long_arc, 2)):
        wrev = deform_D(model, sol).reversed()
        data = ConformalCurveData(cg, wrev)
        hm50 = assemble_hessian(data, "full", 50)
        hm100 = assemble_hessian(data, "full", 100)
        assert hm50.n_negative == expected
        assert hm100.n_negative == expected
        assert hm50.n_zero == 0 and hm100.n_zero == 0
        # threshold robustness: counts stable when eps_eig grows tenfold
        evals = hm50.eigenvalues()
        assert int(np.sum(evals < -10 * hm50.eps_eig)) == expected


def test_restricted_index_report(models, cylinder_long_arc, cylinder_very_long_arc):
    model = models["einstein_cylinder"]
    cg = conformal_geometry(model, np.sqrt(2.0))
    for sol, expected in ((cylinder_long_arc, 1), (cylinder_very_long_arc, 2)):
        wrev = deform_D(model, sol).reversed()
        data = ConformalCurveData(cg, wrev)
        triple = restricted_index_report(data, 60)
        assert triple == (expected, expected, expected)


def test_multiplier_field_values(models, solutions):
    model = models["static_well"]
    sol = solutions["static_well"]
    mults = lagrange_multiplier_field(model, sol)
    assert mults.lam == 0.0
    for i in (0, 100, 400):
        q = sol.sigma.points[i]
        y = model.y(q)
        P = sol.k ** 2 + float(y @ model.g(q) @ y)
        assert mults.mu[i] == pytest.approx(1.0 / (2.0 * P), rel=1e-14)


def _reference_hessian(cg, w, data, mode, n_basis):
    """The Galerkin matrix of ``mode``, one basis field and one Gauss point at a time, and
    the Y-components of the restricted fields at the observer end."""
    from scipy.interpolate import CubicSpline
    model, m = cg.model, cg.m
    h = 1.0 / n_basis
    nodes = np.linspace(0.0, 1.0, n_basis + 1)
    tq = np.array([(e + 0.5) * h + s * h / (2.0 * np.sqrt(3.0))
                   for e in range(n_basis) for s in (-1.0, 1.0)])
    wq = h / 2.0

    def spline(nodal):
        return CubicSpline(w.grid, nodal, axis=0)

    gt, gam, B = (spline(nodal)(tq) for nodal in (data.gt, data.gamma, data.B))
    pts, vel_spl = w.point_spline()(tq), w.velocity_spline()
    vels = vel_spl(tq)
    y = np.eye(m)[-1]

    def hat(j, t):
        return max(0.0, 1.0 - abs(t - j * h) / h)

    def hat_slope(j, t):
        return (1.0 / h if t < j * h else -1.0 / h) if abs(t - j * h) < h else 0.0

    # (value, t-derivative) of each basis field at a Gauss point, and its value at t = 0
    if mode == "full":
        basis = [(lambda i, t, j=j, a=a: (hat(j, t) * np.eye(m)[a],
                                           hat_slope(j, t) * np.eye(m)[a]), np.zeros(m))
                 for j in range(1, n_basis) for a in range(m)]

        def jac_y(q):  # dY by central differences of Y: exactly zero in the adapted chart
            return _jacobian_fd(model.y, q, model.fd_step)

        basis.append((lambda i, t: (hat(0, t) * model.y(pts[i]), hat_slope(0, t) * model.y(pts[i])
                                    + hat(0, t) * jac_y(pts[i]) @ vels[i]),
                      model.y(w.points[0])))
    else:
        # the frames of the mode at the element nodes, splined; the Lorentzian g and
        # nabla Y off splines of their node values, as the Jacobi lanes read them
        g_spl = spline(model.g(w.points))
        K_spl = spline(connection_coeffs(model, w.points)[..., -1])
        E = CubicSpline(nodes, _frame_perp(g_spl(nodes), vel_spl(nodes), mode == "perpendicular"),
                        axis=0)

        def rate(t):  # lambda' = hat(t) rate[a](t) keeps hat E_a + lambda Y horizontal
            g, Kv = g_spl(t), K_spl(t) @ vel_spl(t)
            return 2.0 * E(t) @ g @ Kv / g[-1, -1]

        fine = np.linspace(0.0, 1.0, 4 * n_basis + 1)
        basis = []
        for j in range(1, n_basis):
            for a in range(E(0.0).shape[0]):
                lam = CubicSpline(fine, [hat(j, t) * rate(t)[a] for t in fine]).antiderivative()

                def field(i, t, j=j, a=a, lam=lam):
                    value = hat(j, t) * E(t)[a] + (lam(t) - lam(1.0)) * y
                    return value, (hat_slope(j, t) * E(t)[a] + hat(j, t) * E(t, 1)[a]
                                   + hat(j, t) * rate(t)[a] * y)
                basis.append((field, (lam(0.0) - lam(1.0)) * y))
    V, nV = np.zeros((len(basis), tq.size, m)), np.zeros((len(basis), tq.size, m))
    for d, (field, _) in enumerate(basis):
        for i, t in enumerate(tq):
            V[d, i], dV = field(i, t)
            nV[d, i] = dV + np.einsum("abc,b,c->a", gam[i], vels[i], V[d, i])
    H = wq * (np.einsum("dqa,qab,eqb->de", nV, gt, nV) + np.einsum("dqa,qab,eqb->de", V, B, V))
    gt0 = data.gt[0]
    ydot0 = y @ gt0 @ (data.Kt[0] @ w.velocities[0])
    proj = np.array([V0 @ gt0 @ y for _, V0 in basis])
    H += np.outer(proj, proj) * ydot0 / (y @ gt0 @ y) ** 2
    return 0.5 * (H + H.T), np.array([V0[-1] for _, V0 in basis])


def _index_curves(models, cylinder_long_arc, solutions):
    """(name, ConformalCurveData, conformal geometry) of the cylinder's 4.5 arc and of
    the rotating_frame and static_well solutions, run from the observer line."""
    for name, sol in (("einstein_cylinder", cylinder_long_arc),
                      ("rotating_frame", solutions["rotating_frame"]),
                      ("static_well", solutions["static_well"])):
        model = models[name]
        cg = conformal_geometry(model, sol.k)
        yield name, ConformalCurveData(cg, deform_D(model, sol).reversed()), cg


def test_assemble_hessian_full_matches_reference(models, cylinder_long_arc, solutions):
    for name, data, cg in _index_curves(models, cylinder_long_arc, solutions):
        hm = assemble_hessian(data, "full", 6)
        ref, _ = _reference_hessian(cg, data.w, data, "full", 6)
        assert hm.entries.shape == ref.shape == (16, 16)
        assert np.max(np.abs(hm.entries - ref)) <= 1e-12 * np.max(np.abs(ref)), name


@pytest.mark.parametrize("mode", ["horizontal", "perpendicular"])
def test_assemble_hessian_restricted_matches_reference(models, cylinder_long_arc, solutions,
                                                       mode):
    # the restricted Y-components vanish where <D_a, nabla_w' Y> does: on the cylinder,
    # where nabla Y = 0, and on static_well, where nabla_w' Y lies along Y for a w'
    # orthogonal to Y (rates of 1e-16); on rotating_frame they enter every entry
    for name, data, cg in _index_curves(models, cylinder_long_arc, solutions):
        hm = assemble_hessian(data, mode, 6)
        ref, lam_0 = _reference_hessian(cg, data.w, data, mode, 6)
        dofs = 5 * {"horizontal": 2, "perpendicular": 1}[mode]   # m = 3: 5 interior nodes
        assert hm.entries.shape == ref.shape == (dofs, dofs)
        assert np.max(np.abs(hm.entries - ref)) <= 1e-12 * np.max(np.abs(ref)), name
        assert (np.max(np.abs(lam_0)) > 1e-3) == (name == "rotating_frame"), name


def test_assemble_hessian_restricted_cylinder_counts(models, cylinder_long_arc,
                                                     cylinder_very_long_arc):
    model = models["einstein_cylinder"]
    cg = conformal_geometry(model, np.sqrt(2.0))
    for sol, expected in ((cylinder_long_arc, 1), (cylinder_very_long_arc, 2)):
        wrev = deform_D(model, sol).reversed()
        data = ConformalCurveData(cg, wrev)
        for mode in ("horizontal", "perpendicular"):
            for n_basis in (50, 100):
                hm = assemble_hessian(data, mode, n_basis)
                assert (hm.n_negative, hm.n_zero) == (expected, 0), (mode, n_basis)


def test_assemble_hessian_full_keeps_no_field_arrays(models, cylinder_long_arc):
    # element blocks and the nodal matrix: at n_basis 80 the full mode peaks at about
    # 1.3 MB, where basis fields over all Gauss points, (dofs, points, m), took 4.2 MB
    import tracemalloc
    model = models["einstein_cylinder"]
    data = ConformalCurveData(conformal_geometry(model, np.sqrt(2.0)),
                              deform_D(model, cylinder_long_arc).reversed())
    assemble_hessian(data, "full", 80)  # numpy's first uses of its routines, done once
    tracemalloc.start()
    try:
        assemble_hessian(data, "full", 80)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6


def test_conformal_curve_data_counts_its_connection_evaluations(solutions):
    # one evaluation of g and Gamma at the nodes feeds g~, the g and the nabla Y
    # columns; the centre of the curvature stencil, which gives Gamma~, and the
    # geodesic check make the only others; the stencil skips the Killing axis
    from brachkit.models import ModelSpec, make_model

    model = make_model(ModelSpec("rotating_frame"))
    analytic = model.analytic_christoffels
    at_nodes = []

    def counting(q):
        at_nodes.append(q.shape == w.points.shape and np.array_equal(q, w.points))
        return analytic(q)

    w = deform_D(model, solutions["rotating_frame"]).reversed()
    model.analytic_christoffels = counting
    cg = conformal_geometry(model, solutions["rotating_frame"].k)
    for check, expected in ((False, 2), (True, 3)):
        at_nodes.clear()
        data = ConformalCurveData(cg, w, check=check)
        assert sum(at_nodes) == expected, check
        assert len(at_nodes) == expected + 4 * (model.m - 1)    # and the curvature stencil
    np.testing.assert_array_equal(data.spline.sample(w.grid)["K"],
                                  connection_coeffs(model, w.points)[..., -1])


def test_conformal_curve_data_takes_its_curvature_from_the_conformal_geometry(
        solutions, monkeypatch):
    # Gamma~ and R~ come from one call of ConformalGeometry.curvature, the
    # method a profiler wraps to time the conformal stencil
    from brachkit.geometry import ConformalGeometry
    from brachkit.models import ModelSpec, make_model

    model = make_model(ModelSpec("rotating_frame"))
    w = deform_D(model, solutions["rotating_frame"]).reversed()
    cg = conformal_geometry(model, solutions["rotating_frame"].k)
    calls = []
    curvature = ConformalGeometry.curvature
    monkeypatch.setattr(ConformalGeometry, "curvature",
                        lambda self, q: calls.append(q) or curvature(self, q))
    data = ConformalCurveData(cg, w, check=False)
    assert len(calls) == 1 and np.array_equal(calls[0], w.points)
    np.testing.assert_array_equal(data.gamma, cg.christoffels(w.points))


def test_solution_geometry_evaluates_the_connection_once_at_its_nodes(solutions):
    # Gamma at the nodes is both the cached connection and the centre of the
    # curvature stencil: one evaluation there, and the 4(m - 1) offsets of the
    # stencil, which skips the Killing axis
    from brachkit.models import ModelSpec, make_model

    model = make_model(ModelSpec("rotating_frame"))
    analytic = model.analytic_christoffels
    sol = solutions["rotating_frame"]
    pts = sol.sigma.points
    at_nodes = []

    def counting(q):
        at_nodes.append(q.shape == pts.shape and np.array_equal(q, pts))
        return analytic(q)

    model.analytic_christoffels = counting
    geom = SolutionGeometry(model, sol)
    assert sum(at_nodes) == 1
    assert len(at_nodes) == 1 + 4 * (model.m - 1)
    np.testing.assert_array_equal(geom.gamma, analytic(pts))


def test_tidal_forms_are_the_four_index_contraction(models, solutions, r_s3_arcs):
    # M_ss = sym(g RM1) and M_sy = sym(g RM2) by the symmetries of R; the reference
    # contracts R with s' and with g s' or g Y, <R(z, s') z, x> = z^T M z.  On the flat
    # models R is the stencil's rounding, which has no symmetries, hence the 1 + |M|
    s3, arcs = r_s3_arcs
    cases = [(models[name], sol) for name, sol in solutions.items()] + [(s3, arcs[4.5])]
    for model, sol in cases:
        geom = SolutionGeometry(model, sol)
        v = sol.sigma.velocities
        Rv = np.einsum("nabcd,nd->nabc", curvature_tensor(model, sol.sigma.points), v)
        gv = np.einsum("nab,nb->na", geom.g, v)
        for M, x in ((geom.M_ss, gv), (geom.M_sy, geom.g[..., -1])):
            ref = np.einsum("na,nabc->nbc", x, Rv)
            ref = 0.5 * (ref + ref.swapaxes(-1, -2))
            assert np.max(np.abs(M - ref)) <= 1e-10 * (1.0 + np.max(np.abs(ref))), model.name


def test_quadratic_hessian_F_eval_checks_its_field_once(solutions):
    # hessian_F_eval's constraint gate reads g, nabla Y and Gamma off the
    # SolutionGeometry: no g or Gamma evaluation at the solution's nodes, whether
    # the field carries its covariant derivative or not, and for both forms
    from brachkit.models import ModelSpec, make_model

    model = make_model(ModelSpec("rotating_frame"))
    sol = solutions["rotating_frame"]
    geom = SolutionGeometry(model, sol)
    rng = np.random.default_rng(37)
    zeta, other = (make_admissible_variation(geom, rng=rng) for _ in range(2))
    bare = FieldAlongCurve(host=sol.sigma, values=zeta.values)  # nabla-zeta from Gamma
    pts = sol.sigma.points
    at_nodes = {"metric_components": 0, "analytic_christoffels": 0}
    for name in at_nodes:
        def counting(q, name=name, callback=getattr(model, name)):
            at_nodes[name] += q.shape == pts.shape and np.array_equal(q, pts)
            return callback(q)
        setattr(model, name, counting)
    hessian_F_eval(geom, zeta, zeta)
    hessian_F_eval(geom, bare, bare)
    hessian_F_eval(geom, zeta, other)
    assert at_nodes == {"metric_components": 0, "analytic_christoffels": 0}
