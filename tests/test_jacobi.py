import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from brachkit.curves import _CubicSpline
from brachkit.dynamics import integrate_brachistochrone, integrate_conformal_geodesic
from brachkit.errors import ConstraintViolated, InitialConditionViolated, NotOrthogonalStart
from brachkit.geometry import conformal_geometry, horizontal_frame, riemannian_metric_matrix
from brachkit.jacobi import (_admissible_launches, _bfocal_singular_value, _bjacobi_rhs,
                             _coeffs_at, _endpoint_rows, bfocal_points, focal_points,
                             gamma_jacobi_basis, integrate_bjacobi, integrate_rjacobi)
from brachkit.oracle import fd_variation_family
from brachkit.transform import dD_differential, deform_D, map_L
from brachkit.variation import (ConformalCurveData, SolutionGeometry, assemble_hessian,
                                index_data, make_admissible_variation, restricted_index_report)

from conftest import gram_schmidt, unit_horizontal

# the scipy references: DOP853 at the tolerances of the Jacobi lanes
_IVP_OPTS = dict(method="DOP853", rtol=1e-11, atol=1e-13)


def test_bjacobi_zero_data(models, solutions):
    model = models["static_well"]
    sol = solutions["static_well"]
    out = integrate_bjacobi(SolutionGeometry(model, sol), np.zeros(3), np.zeros(3))
    assert np.max(np.abs(out.field.values)) == 0.0
    assert out.C_V == 0.0


def test_bjacobi_flat_linear(models):
    model = models["minkowski3"]
    k = np.sqrt(2.0)
    sol = integrate_brachistochrone(model, k, np.zeros(3), [1.0, 0, 0], 1.0)
    # spatial derivative orthogonal to the motion satisfies the launch
    # condition with C_V = 0
    dV0 = np.array([0.0, 0.4, 0.0])
    out = integrate_bjacobi(SolutionGeometry(model, sol), np.zeros(3), dV0)
    expected = np.outer(sol.sigma.grid, dV0)
    assert np.max(np.abs(out.field.values - expected)) < 1e-9


def test_bjacobi_ic_guard(models, solutions):
    model = models["static_well"]
    sol = solutions["static_well"]
    # dV0 = Y gives -T C_V + k <dV0, s'> = -T (N + k^2) != 0
    y0 = model.y(sol.sigma.points[0])
    with pytest.raises(InitialConditionViolated):
        integrate_bjacobi(SolutionGeometry(model, sol), np.zeros(3), y0)


def test_bjacobi_matches_fd_family(models, solutions):
    for name in ("static_well", "rotating_frame"):
        model = models[name]
        sol = solutions[name]
        s = 1e-5
        du = unit_horizontal(model, sol.sigma.points[0], [0.1, 1.0, 0.3])
        fams = fd_variation_family(model, sol, (du, 0.04), [s, -s])
        grid = sol.sigma.grid
        V = (fams[0].sigma.point_spline()(grid)
             - fams[1].sigma.point_spline()(grid)) / (2 * s)
        dVel = (fams[0].sigma.velocity_spline()(grid)
                - fams[1].sigma.velocity_spline()(grid)) / (2 * s)
        out = integrate_bjacobi(SolutionGeometry(model, sol), V[0], dVel[0])
        scale = max(1.0, np.max(np.abs(V)))
        assert np.max(np.abs(out.field.values - V)) / scale < 1e-3, name
        assert out.C_V == pytest.approx(-sol.k * 0.04, rel=1e-6)
        assert out.drift < 1e-6


def test_bjacobi_linearity(models, solutions):
    model = models["rotating_frame"]
    sol = solutions["rotating_frame"]
    rng = np.random.default_rng(40)
    geom = SolutionGeometry(model, sol)
    d1, d2 = _admissible_launches(geom, 0.0)[0]
    o1 = integrate_bjacobi(geom, np.zeros(3), d1)
    o2 = integrate_bjacobi(geom, np.zeros(3), d2)
    o12 = integrate_bjacobi(geom, np.zeros(3), d1 + 2.0 * d2)
    sup = np.max(np.abs(o12.field.values - o1.field.values - 2.0 * o2.field.values))
    assert sup < 1e-9 * max(1.0, np.max(np.abs(o12.field.values)))


def test_rjacobi_flat_linear(models):
    model = models["minkowski3"]
    k = np.sqrt(2.0)
    cg = conformal_geometry(model, k)
    w = integrate_conformal_geodesic(model, k, np.zeros(3), [1.0, 0, 0])
    out = integrate_rjacobi(ConformalCurveData(cg, w), [0, 0, 0], [0.0, 1.0, 0.5])
    expected = np.outer(w.grid, [0.0, 1.0, 0.5])
    assert np.max(np.abs(out.field.values - expected)) < 1e-9


def test_rjacobi_sphere_closed_form(models):
    model = models["einstein_cylinder"]
    k = np.sqrt(2.0)
    cg = conformal_geometry(model, k)
    L = 2.5
    w = integrate_conformal_geodesic(model, k, [np.pi / 2, 0.0, 0.0], [0.0, L, 0.0])
    out = integrate_rjacobi(ConformalCurveData(cg, w), [0, 0, 0], [1.0, 0.0, 0.0])
    expected = np.sin(L * w.grid) / L
    assert np.max(np.abs(out.field.values[:, 0] - expected)) < 1e-9


def test_rjacobi_killing_field_is_jacobi(models, solutions):
    for name in ("static_well", "rotating_frame"):
        model = models[name]
        sol = solutions[name]
        cg = conformal_geometry(model, sol.k)
        w = deform_D(model, sol)
        data = ConformalCurveData(cg, w)
        y0 = model.y(w.points[0])
        dy0 = data.Kt[0] @ w.velocities[0]
        out = integrate_rjacobi(data, y0, dy0)
        ys = np.array([model.y(q) for q in w.points])
        assert np.max(np.abs(out.field.values - ys)) < 1e-6, name


def test_gamma_jacobi_basis_count_and_conservation(models, solutions):
    for name in ("minkowski3", "einstein_cylinder", "static_well", "rotating_frame"):
        model = models[name]
        sol = solutions[name]
        cg = conformal_geometry(model, sol.k)
        wrev = deform_D(model, sol).reversed()
        data = ConformalCurveData(cg, wrev)
        basis = gamma_jacobi_basis(data)
        assert len(basis) == model.m
        # the tangency pairing stays zero along the curve
        for jd in basis:
            worst = 0.0
            for i in range(0, wrev.grid.size, 100):
                gt = data.gt[i]
                y = np.eye(model.m)[-1]
                val = (float(jd.derivative.values[i] @ gt @ y)
                       - float(jd.field.values[i] @ gt @ (data.Kt[i] @ wrev.velocities[i])))
                worst = max(worst, abs(val))
            scale = 1 + np.max(np.abs(jd.derivative.values))
            assert worst < 1e-6 * scale, name


def test_gamma_jacobi_basis_flat_structure(models):
    model = models["minkowski3"]
    k = np.sqrt(2.0)
    sol = integrate_brachistochrone(model, k, np.zeros(3), [1.0, 0, 0], 1.0)
    cg = conformal_geometry(model, k)
    wrev = deform_D(model, sol).reversed()
    basis = gamma_jacobi_basis(ConformalCurveData(cg, wrev))
    # first field: constant multiple of Y; remaining fields vanish at 0 and
    # grow linearly
    ys = np.array([model.y(q) for q in wrev.points])
    assert np.max(np.abs(basis[0].field.values - ys)) < 1e-9
    for jd in basis[1:]:
        assert np.max(np.abs(jd.field.values[0])) < 1e-12
        ratio = jd.field.values[200] / 0.5
        assert np.max(np.abs(jd.field.values - np.outer(wrev.grid, ratio))) < 1e-8


def test_gamma_jacobi_requires_orthogonal_start(models, solutions):
    model = models["static_well"]
    sol = solutions["static_well"]
    cg = conformal_geometry(model, sol.k)
    # the solution curve is not horizontal: its cache skips the geodesic check,
    # which would raise NotHorizontal first
    data = ConformalCurveData(cg, sol.sigma, check=False)
    with pytest.raises(NotOrthogonalStart):
        gamma_jacobi_basis(data)


def test_focal_points_flat_empty(models):
    model = models["minkowski3"]
    k = np.sqrt(2.0)
    sol = integrate_brachistochrone(model, k, np.zeros(3), [1.0, 0, 0], 1.0)
    cg = conformal_geometry(model, k)
    wrev = deform_D(model, sol).reversed()
    rep = focal_points(ConformalCurveData(cg, wrev))
    assert rep.focal_list == []
    assert rep.geometric_index == 0


def test_focal_points_cylinder(models, cylinder_long_arc, cylinder_very_long_arc):
    model = models["einstein_cylinder"]
    cg = conformal_geometry(model, np.sqrt(2.0))
    wrev = deform_D(model, cylinder_long_arc).reversed()
    rep = focal_points(ConformalCurveData(cg, wrev))
    assert rep.geometric_index == 1
    assert len(rep.focal_list) == 1
    t0, mult = rep.focal_list[0]
    assert mult == 1
    assert t0 == pytest.approx(np.pi / 4.5, abs=1e-6)

    wrev2 = deform_D(model, cylinder_very_long_arc).reversed()
    rep2 = focal_points(ConformalCurveData(cg, wrev2))
    assert rep2.geometric_index == 2
    assert [m for _, m in rep2.focal_list] == [1, 1]
    assert rep2.focal_list[0][0] == pytest.approx(np.pi / 7.0, abs=1e-6)
    assert rep2.focal_list[1][0] == pytest.approx(2 * np.pi / 7.0, abs=1e-6)


def test_focal_points_of_multiplicity_two_on_r_s3(r_s3_arcs):
    # on R x S^3 two eigenvalues of W pass -1 together and det(J L) changes no sign: both
    # sides count each focal point twice, and the geometric index is the Morse index
    model, arcs = r_s3_arcs
    for L, n_focal in ((4.5, 1), (7.0, 2)):
        sol = arcs[L]
        data = index_data(model, sol)
        closed = np.pi / L * np.arange(1, n_focal + 1)
        rep = focal_points(data)
        assert [mu for _, mu in rep.focal_list] == [2] * n_focal, L
        assert np.max(np.abs([t for t, _ in rep.focal_list] - closed)) < 1e-8, L
        brep = bfocal_points(model, sol)
        assert [mu for _, mu in brep.focal_list] == [2] * n_focal, L
        assert np.max(np.abs(sorted(1.0 - t for t, _ in brep.focal_list) - closed)) < 1e-9, L
        assert rep.geometric_index == brep.geometric_index == 2 * n_focal
        assert restricted_index_report(data, 80) == (2 * n_focal,) * 3


def test_focal_scan_refuses_a_counterclockwise_passage(models, cylinder_long_arc, monkeypatch):
    # handed (X, -P), the scan sees every eigenvalue of W turn the other way round -1
    import brachkit.jacobi as jacobi
    basis = jacobi._jacobi_basis

    def reflected(data):
        m = data.confgeom.m
        sign = np.append(np.tile(np.repeat([1.0, -1.0], m), m), 1.0)   # DJ of each row, not t
        lane = basis(data)
        return lambda t: lane(t) * sign

    monkeypatch.setattr(jacobi, "_jacobi_basis", reflected)
    with pytest.raises(ConstraintViolated, match="counterclockwise at t = 0.698"):
        focal_points(index_data(models["einstein_cylinder"], cylinder_long_arc))


def test_focal_scan_density_stability(models, cylinder_long_arc, r_s3_arcs):
    s3, arcs = r_s3_arcs
    for data, mults in ((index_data(models["einstein_cylinder"], cylinder_long_arc), [1]),
                        (index_data(s3, arcs[7.0]), [2, 2])):
        a = focal_points(data, n_scan=500)
        b = focal_points(data, n_scan=2000)
        assert [mu for _, mu in a.focal_list] == [mu for _, mu in b.focal_list] == mults
        assert np.max(np.abs(np.subtract(a.focal_list, b.focal_list))) < 1e-8


def test_map_L_at_zero_matches_dD(models, solutions):
    model = models["static_well"]
    sol = solutions["static_well"]
    geom = SolutionGeometry(model, sol)
    zeta = make_admissible_variation(geom, rng=np.random.default_rng(41))
    X = dD_differential(model, sol, zeta)
    Y = map_L(model, sol, 0.0, zeta)
    assert np.max(np.abs(X.values - Y.values)) < 1e-10 * (1 + np.max(np.abs(X.values)))


def test_map_L_vanishing_start(models, solutions):
    model = models["rotating_frame"]
    sol = solutions["rotating_frame"]
    grid = sol.sigma.grid
    t0 = float(grid[80])
    geom = SolutionGeometry(model, sol)
    jb = integrate_bjacobi(geom, np.zeros(3), _admissible_launches(geom, t0)[0][0], t0=t0)
    out = map_L(model, sol, t0, jb.field, C_zeta=jb.C_V)
    assert np.max(np.abs(out.values[80])) < 1e-8 * (1 + np.max(np.abs(out.values)))


def test_map_L_sends_bjacobi_to_jacobi(models):
    # the pushed field of a variation-through-solutions satisfies the
    # Riemannian Jacobi equation along the deformed geodesic; the second
    # derivative reconstruction needs the denser sampling
    from brachkit.dynamics import IntegratorConfig
    model = models["einstein_cylinder"]
    k = np.sqrt(2.0)
    L = 4.5
    u = unit_horizontal(model, [np.pi / 2, 0.0, 0.0], [0.0, 1.0, 0.0])
    cfg = IntegratorConfig(grid_n=800)
    sol = integrate_brachistochrone(model, k, np.array([np.pi / 2, 0.0, 0.0]), u,
                                    L / np.sqrt(k * k - 1.0), cfg)
    s = 1e-5
    du = unit_horizontal(model, sol.sigma.points[0], [1.0, 0.0, 0.0])
    fams = fd_variation_family(model, sol, (du, 0.0), [s, -s], config=cfg)
    grid = sol.sigma.grid
    V = (fams[0].sigma.point_spline()(grid) - fams[1].sigma.point_spline()(grid)) / (2 * s)
    dV = (fams[0].sigma.velocity_spline()(grid)
          - fams[1].sigma.velocity_spline()(grid)) / (2 * s)
    # the finite-difference field, smoothed through its own defining equation
    jb = integrate_bjacobi(SolutionGeometry(model, sol), V[0], dV[0])
    assert np.max(np.abs(jb.field.values - V)) < 1e-3 * max(1.0, np.max(np.abs(V)))
    out = map_L(model, sol, 0.0, jb.field, C_zeta=jb.C_V)

    cg = conformal_geometry(model, sol.k)
    host = out.host
    data = ConformalCurveData(cg, host)
    nJ = data.covariant_nodes(out)
    from scipy.interpolate import CubicSpline
    d_nJ = CubicSpline(host.grid, nJ, axis=0)(host.grid, 1)
    worst = 0.0
    scale = np.max(np.abs(nJ)) + 1.0
    for i in range(5, host.grid.size - 5, 20):
        gamma = data.gamma[i]
        v = host.velocities[i]
        nnJ = d_nJ[i] + np.einsum("abc,b,c->a", gamma, v, nJ[i])
        res = nnJ - data.Braw[i] @ out.values[i]
        worst = max(worst, np.max(np.abs(res)))
    assert worst < 1e-3 * scale


def test_bfocal_flat_empty(models):
    model = models["minkowski3"]
    k = np.sqrt(2.0)
    sol = integrate_brachistochrone(model, k, np.zeros(3), [1.0, 0, 0], 1.0)
    rep = bfocal_points(model, sol)
    assert rep.focal_list == []
    assert rep.geometric_index == 0


def test_bfocal_cylinder_correspondence(models, cylinder_long_arc, cylinder_very_long_arc):
    # each confirmed parameter is the closed form 1 - j pi / L on both arcs
    model = models["einstein_cylinder"]
    for L, sol in ((4.5, cylinder_long_arc), (7.0, cylinder_very_long_arc)):
        rep = bfocal_points(model, sol)
        n_focal = int(L // np.pi)
        assert rep.geometric_index == n_focal, L
        assert [mu for _, mu in rep.focal_list] == [1] * n_focal, L
        closed = 1.0 - np.pi / L * np.arange(n_focal, 0, -1)
        assert np.max(np.abs([t for t, _ in rep.focal_list] - closed)) < 1e-9, L


def test_bjacobi_cache_matches_per_quantity_splines(models, solutions, cylinder_long_arc):
    # the coefficients of the linearized equation, read off SolutionGeometry's
    # one spline, reproduce bit for bit a separate cubic spline of each
    # quantity: nabla Y as Gamma[..., -1] and its t-derivative, Y as the
    # constant e_last and <Y,Y> as g[..., -1, -1], the last knot included
    for name, sol in (("rotating_frame", solutions["rotating_frame"]),
                      ("minkowski4", solutions["minkowski4"]),
                      ("einstein_cylinder", cylinder_long_arc)):
        model = models[name]
        geom = SolutionGeometry(model, sol)
        grid = sol.sigma.grid
        arrays = dict(gamma=geom.gamma, K=geom.K, g=geom.g,
                      v=sol.sigma.velocities, N=geom.N, RM1=geom.RM1, RM2=geom.RM2)
        separate = {key: _CubicSpline(grid, arr) for key, arr in arrays.items()}
        ts = np.concatenate([grid, 0.5 * (grid[1:] + grid[:-1]), [0.123456789, 0.987654321]])
        for t in ts:
            d = _coeffs_at(geom.spline, t)
            for key in arrays:
                assert np.array_equal(d[key], separate[key](t)), (name, key, t)
            assert np.array_equal(d["dK"], separate["K"](t, 1)), (name, t)
        assert isinstance(d["N"], float)
        batch = geom.spline.sample(ts)
        for key in ("gamma", "g", "v", "RM1", "RM2"):
            assert np.array_equal(batch[key], separate[key](ts)), (name, key)
        assert np.array_equal(batch["gamma"][..., -1], separate["K"](ts)), name
        assert np.array_equal(geom.spline.sample(ts, 1)["gamma"][..., -1],
                              separate["K"](ts, 1)), name
        assert np.array_equal(batch["g"][..., -1, -1], separate["N"](ts)), name
        assert np.array_equal(np.broadcast_to(np.eye(model.m)[-1], (ts.size, model.m)),
                              _CubicSpline(grid, geom.y)(ts)), name


def test_bfocal_unconfirmed_focal_parameter(models, cylinder_long_arc):
    # no endpoint singular value reaches 1e-20: the Riemannian candidate is
    # refused rather than reported
    with pytest.raises(ConstraintViolated, match="no vanishing linearized solution"):
        bfocal_points(models["einstein_cylinder"], cylinder_long_arc, confirm_tol=1e-20)


def test_bfocal_refuses_a_misplaced_candidate(models, cylinder_long_arc, monkeypatch):
    # a scan parameter moved by 1e-3 is no focal point of the solution: the endpoint
    # map keeps its rank there, and the candidate is refused rather than moved back
    import brachkit.jacobi as jacobi

    scan = jacobi.focal_points

    def shifted(data):
        rep = scan(data)
        rep.focal_list = [(t + 1e-3, mu) for t, mu in rep.focal_list]
        return rep

    monkeypatch.setattr(jacobi, "focal_points", shifted)
    with pytest.raises(ConstraintViolated, match="no vanishing linearized solution confirms"):
        bfocal_points(models["einstein_cylinder"], cylinder_long_arc)


def test_endpoint_rows_match_direct_integration(models, solutions):
    # R(t0) x(t0) = F x(1): the propagator gives the frame components of V(1)
    # for each admissible launch (0, dv) at t0
    for name in ("einstein_cylinder", "static_well", "rotating_frame"):
        model, sol = models[name], solutions[name]
        m = model.m
        geom = SolutionGeometry(model, sol)
        rows = _endpoint_rows(geom)
        q1 = sol.sigma.points[-1]
        F = horizontal_frame(model, q1) @ riemannian_metric_matrix(model, q1)
        for t0 in (0.0, 0.3, 0.55, 0.8):
            for dv in _admissible_launches(geom, t0)[0]:
                jb = integrate_bjacobi(geom, np.zeros(m), dv, t0=t0)
                direct = F @ jb.field.values[-1]
                via_rows = rows(t0) @ np.concatenate([np.zeros(m), dv, [jb.C_V]])
                err = np.max(np.abs(via_rows - direct)) / np.max(np.abs(direct))
                assert err < 1e-9, (name, t0, err)


def test_endpoint_rows_hold_on_arcs_whose_coefficients_vary(models, r_s3_arcs):
    # the propagator reads A(t) off a spline of its values at the nodes, while
    # integrate_bjacobi builds A at each stage: R(t0) x(t0) = F x(1) judges the
    # interpolant where the coefficients vary along the arc, off the equators of
    # the cylinder and of R x S^3 (along the fixture's arcs they are constant)
    cyl, s3, k = models["einstein_cylinder"], r_s3_arcs[0], np.sqrt(2.0)
    arcs = []
    for model, p, u, T in ((cyl, [1.0, 0.0, 0.0], [0.3, 1.0, 0.0], 3.0),
                           (s3, [1.2, 1.0, 0.0, 0.0], [0.3, 0.2, 1.0, 0.0], 3.0)):
        p = np.array(p)
        arcs.append((model, integrate_brachistochrone(model, k, p, unit_horizontal(model, p, u), T)))
    for model, sol in arcs:
        m = model.m
        geom = SolutionGeometry(model, sol)
        assert np.ptp(geom.g, axis=0).max() > 0.1, model.name   # the coefficients vary
        rows = _endpoint_rows(geom)
        q1 = sol.sigma.points[-1]
        F = horizontal_frame(model, q1) @ riemannian_metric_matrix(model, q1)
        for t0 in (0.0, 0.35, 0.7):
            for dv in _admissible_launches(geom, t0)[0]:
                jb = integrate_bjacobi(geom, np.zeros(m), dv, t0=t0)
                direct = F @ jb.field.values[-1]
                via_rows = rows(t0) @ np.concatenate([np.zeros(m), dv, [jb.C_V]])
                err = np.max(np.abs(via_rows - direct)) / np.max(np.abs(direct))
                assert err < 1e-8, (model.name, t0, err)


def test_admissible_launches_span_the_launch_law(models, solutions):
    # at a node, the m - 1 launches (0, dv) are orthonormal, meet the linearized laws with
    # <dv, s'> = T C / k to roundoff, and carry C = <dv, Y>, all read at the node itself
    from brachkit.geometry import _linearized_conservation

    for name in ("static_well", "rotating_frame", "minkowski4", "einstein_cylinder"):
        model, sol = models[name], solutions[name]
        m, geom = model.m, SolutionGeometry(model, sol)
        for i in (0, 137, sol.sigma.grid.size - 1):
            dirs, C_V = _admissible_launches(geom, sol.sigma.grid[i])
            assert dirs.shape == (m - 1, m), name
            np.testing.assert_allclose(dirs @ dirs.T, np.eye(m - 1), rtol=0, atol=1e-14)
            g, v = geom.g[i], sol.sigma.velocities[i]
            c, s = _linearized_conservation(g, geom.K[i], v, np.zeros(m), dirs)
            scale = np.max(np.abs(g)) * (1.0 + np.max(np.abs(v)))
            assert np.max(np.abs(sol.T * c - sol.k * s)) <= 1e-14 * scale * (sol.T + sol.k), name
            np.testing.assert_allclose(C_V, c, rtol=0, atol=1e-14 * scale)


def test_bfocal_probe_matches_direct_endpoint_map(models, solutions):
    # the probe's singular value equals the one of the endpoint map built from
    # one direct solve per admissible launch direction
    for name in ("static_well", "rotating_frame"):
        model, sol = models[name], solutions[name]
        m = model.m
        geom = SolutionGeometry(model, sol)
        rows = _endpoint_rows(geom)
        q1 = sol.sigma.points[-1]
        F = horizontal_frame(model, q1) @ riemannian_metric_matrix(model, q1)
        for t0 in (0.1, 0.5, 0.9):
            M = np.array([F @ integrate_bjacobi(geom, np.zeros(m), dv, t0=t0).field.values[-1]
                          for dv in _admissible_launches(geom, t0)[0]]).T
            svals = np.linalg.svd(M, compute_uv=False)
            direct = svals[-1] / svals[0]
            probe = _bfocal_singular_value(geom, t0, rows)
            assert probe == pytest.approx(direct, rel=1e-8), (name, t0)


def test_bjacobi_rhs_broadcasts_over_rows(models, solutions):
    rng = np.random.default_rng(7)
    for name in ("static_well", "rotating_frame", "minkowski4"):
        model, sol = models[name], solutions[name]
        n = 2 * model.m + 1
        rhs = _bjacobi_rhs(SolutionGeometry(model, sol))
        X = rng.standard_normal((6, n))
        for t in (0.0, 0.37, 1.0):
            stacked = rhs(t, X)
            assert stacked.shape == X.shape
            assert np.all(stacked[:, -1] == 0.0)
            for x, out in zip(X, stacked):
                alone = rhs(t, x[None])[0]
                assert np.max(np.abs(out - alone)) <= 1e-14 * np.max(np.abs(alone)), (name, t)
            # on the identity rows it returns A^T, and A x = rhs(x)
            A = rhs(t, np.eye(n)).T
            ref = np.max(np.abs(stacked))
            assert np.max(np.abs(X @ A.T - stacked)) <= 1e-14 * ref, (name, t)


def _deformed_curves(models, solutions, cylinder_long_arc, cylinder_very_long_arc):
    """The reversed deformation of the five standard solutions and the two cylinder arcs."""
    cases = list(solutions.items()) + [("einstein_cylinder", cylinder_long_arc),
                                       ("einstein_cylinder", cylinder_very_long_arc)]
    for name, sol in cases:
        model = models[name]
        cg = conformal_geometry(model, sol.k)
        wrev = deform_D(model, sol).reversed()
        yield name, cg, wrev, ConformalCurveData(cg, wrev)


def _per_field_basis_reference(cg, wrev, data):
    """Dense outputs of the m basis fields: one single-field solve each, per-quantity splines."""
    m = cg.m
    grid = wrev.grid
    gamma = CubicSpline(grid, data.gamma.reshape(grid.size, -1), axis=0)
    A = CubicSpline(grid, data.Braw.reshape(grid.size, -1), axis=0)
    vel = wrev.velocity_spline()

    def rhs(t, state):
        J, DJ = state[:m], state[m:]
        G = gamma(t).reshape(m, m, m)
        v = vel(t)
        return np.concatenate([DJ - np.einsum("abc,b,c->a", G, v, J),
                               A(t).reshape(m, m) @ J - np.einsum("abc,b,c->a", G, v, DJ)])

    y0, gt0 = np.eye(m)[-1], data.gt[0]
    yy = float(y0 @ gt0 @ y0)
    c = -float(wrev.velocities[0] @ gt0 @ (data.Kt[0] @ y0)) / yy
    inits = [np.concatenate([y0, c * y0])]
    inits += [np.concatenate([np.zeros(m), b])
              for b in gram_schmidt(gt0, [y0 / np.sqrt(yy), *np.eye(m)], m)[1:]]
    return [solve_ivp(rhs, (0.0, 1.0), x0, dense_output=True, **_IVP_OPTS).sol for x0 in inits]


def _parallel_frame_reference(wrev, data):
    """A g~-orthonormal frame (rows) parallel along wrev from Gram-Schmidt of the chart axes."""
    grid = wrev.grid
    m = wrev.points.shape[1]
    gamma = CubicSpline(grid, data.gamma.reshape(grid.size, -1), axis=0)
    vel = wrev.velocity_spline()

    def rhs(t, flat):
        G = gamma(t).reshape(m, m, m)
        return -np.einsum("abc,b,jc->ja", G, vel(t), flat.reshape(m, m)).ravel()

    E0 = gram_schmidt(data.gt[0], np.eye(m), m)
    return solve_ivp(rhs, (0.0, 1.0), E0.ravel(), dense_output=True, **_IVP_OPTS).sol


def test_focal_determinant_matches_parallel_frame_reference(
        models, solutions, cylinder_long_arc, cylinder_very_long_arc):
    # det(J L), g~ = L L^T, has the determinant, the sign and the rank of the
    # frame-based matrix g~(J_i, E_j) with E transported in parallel
    for name, cg, wrev, data in _deformed_curves(models, solutions, cylinder_long_arc,
                                                 cylinder_very_long_arc):
        m = cg.m
        rep = focal_points(data)
        fields = _per_field_basis_reference(cg, wrev, data)
        frame = _parallel_frame_reference(wrev, data)
        gt = CubicSpline(wrev.grid, data.gt.reshape(wrev.grid.size, -1), axis=0)

        def reference(t):
            t = np.atleast_1d(t)
            J = np.stack([f(t)[:m].T for f in fields], axis=1)
            E = frame(t).T.reshape(t.size, m, m)
            return J @ gt(t).reshape(t.size, m, m) @ np.swapaxes(E, -1, -2)

        ts, dets = rep.determinant_trace
        ref = np.linalg.det(reference(ts))
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(dets - ref)) <= 1e-9 * scale, name
        assert np.array_equal(np.sign(dets), np.sign(ref)), name
        for t0, mult in rep.focal_list:
            svals = np.linalg.svd(reference(t0)[0], compute_uv=False)
            assert int(np.sum(svals < 1e-5 * svals[0])) == mult, (name, t0)
    # the last curve, the 7.0 arc, has two zeros to check
    assert [mu for _, mu in rep.focal_list] == [1, 1]


def test_gamma_jacobi_basis_matches_per_field_reference(
        models, solutions, cylinder_long_arc, cylinder_very_long_arc):
    # the stacked solve of all m fields equals m single-field solves
    for name, cg, wrev, data in _deformed_curves(models, solutions, cylinder_long_arc,
                                                 cylinder_very_long_arc):
        m = cg.m
        basis = gamma_jacobi_basis(data)
        for jd, ref_sol in zip(basis, _per_field_basis_reference(cg, wrev, data)):
            ref = ref_sol(wrev.grid)
            for got, want in ((jd.field.values, ref[:m].T), (jd.derivative.values, ref[m:].T)):
                assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), name


def test_focal_points_makes_one_solve(models, solutions, cylinder_very_long_arc, monkeypatch):
    import brachkit.jacobi as jacobi
    solve = jacobi.ode_lanes
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(jacobi, "ode_lanes", counting)
    for name, sol in (("rotating_frame", solutions["rotating_frame"]),
                      ("minkowski4", solutions["minkowski4"]),
                      ("einstein_cylinder", cylinder_very_long_arc)):
        model = models[name]
        cg = conformal_geometry(model, sol.k)
        wrev = deform_D(model, sol).reversed()
        calls.clear()
        focal_points(ConformalCurveData(cg, wrev))
        assert len(calls) == 1, name


def test_index_and_focal_scan_build_no_spline_of_node_data(models, solutions, monkeypatch):
    # given the curve data, the full Hessian and the focal scan only sample
    # its spline; a restricted mode builds its frame spline and the spline
    # whose antiderivative is lambda, nothing else
    init = _CubicSpline.__init__
    built = []

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    for name in ("rotating_frame", "minkowski4"):
        model, sol = models[name], solutions[name]
        cg = conformal_geometry(model, sol.k)
        wrev = deform_D(model, sol).reversed()
        data = ConformalCurveData(cg, wrev)
        monkeypatch.setattr(_CubicSpline, "__init__", counting)
        for mode, expected in (("full", 0), ("horizontal", 2), ("perpendicular", 2)):
            built.clear()
            assemble_hessian(data, mode, 20)
            assert len(built) == expected, (name, mode, len(built))
        built.clear()
        focal_points(data)
        assert built == [], name
        built.clear()
        SolutionGeometry(model, sol)   # its spline is built on first use
        assert built == [], name
        monkeypatch.undo()


def test_focal_scan_leaves_the_spline_to_its_cache(models, cylinder_long_arc):
    # the focal scan leaves no reference cycle: the spline goes with its cache,
    # not at a full collection
    import gc
    import weakref

    model = models["einstein_cylinder"]
    cg = conformal_geometry(model, cylinder_long_arc.k)
    wrev = deform_D(model, cylinder_long_arc).reversed()
    gc.collect()
    gc.disable()
    try:
        data = ConformalCurveData(cg, wrev)
        spline = weakref.ref(data.spline)
        assert focal_points(data).geometric_index >= 1
        del data
        assert spline() is None
    finally:
        gc.enable()
