"""Error classes raised on purpose by the geometry and index machinery."""

import json

import numpy as np
import pytest

from brachkit import geometry as geo
from brachkit import variation
from brachkit.cli import main
from brachkit.curves import Curve
from brachkit.dynamics import (IntegratorConfig, brachistochrone_rhs, initial_velocity,
                               integrate_brachistochrone, integrate_conformal_geodesic,
                               shot_endpoints)
from brachkit.bvp import ObserverWorldline
from brachkit.errors import (FlowEscape, FocalEndpoint, FrameDegenerate, InvalidParams,
                             NonFiniteHessian, NotGeodesic, StencilOutOfChart, StepFailure)
from brachkit.models import ModelSpec, make_model
from brachkit.transform import flow_points
from brachkit.variation import (ConformalCurveData, HessianMatrix, assemble_hessian,
                                restricted_index_report)


def test_fd_connection_stencil_leaves_chart():
    model = make_model(ModelSpec("einstein_cylinder"))
    model.analytic_christoffels = None
    edge = np.array([0.1 + 1e-6, 0.3, 0.0])
    with pytest.raises(StencilOutOfChart):
        geo.connection_coeffs(model, edge)
    batch = np.array([[np.pi / 2, 0.0, 0.0], edge, [1.0, 2.0, 1.0]])
    with pytest.raises(StencilOutOfChart):
        geo.connection_coeffs(model, batch)
    # the same batch without the edge node is fine
    assert geo.connection_coeffs(model, batch[[0, 2]]).shape == (2, 3, 3, 3)


def test_perpendicular_frame_degenerate_when_velocity_along_y(models):
    model = models["minkowski3"]
    cg = geo.conformal_geometry(model, np.sqrt(2.0))
    grid = np.linspace(0.0, 1.0, 41)
    y = model.y(np.zeros(3))
    w = Curve(grid=grid, points=np.outer(grid, y), velocities=np.tile(y, (grid.size, 1)))
    data = ConformalCurveData(cg, w, check=False)
    with pytest.raises(FrameDegenerate):
        assemble_hessian(data, "perpendicular", 8)


def test_conformal_curve_data_rejects_non_geodesic(models):
    # a parabola in flat space: constant conformal factor, nonzero acceleration
    model = models["minkowski3"]
    cg = geo.conformal_geometry(model, np.sqrt(2.0))
    grid = np.linspace(0.0, 1.0, 101)
    pts = np.stack([grid, 0.3 * grid ** 2, np.zeros(grid.size)], axis=1)
    vels = np.stack([np.ones(grid.size), 0.6 * grid, np.zeros(grid.size)], axis=1)
    w = Curve(grid=grid, points=pts, velocities=vels)
    with pytest.raises(NotGeodesic):
        ConformalCurveData(cg, w, check=True)
    ConformalCurveData(cg, w, check=False)


def test_restricted_index_report_focal_endpoint(models):
    # equatorial geodesic of the cylinder's conformal metric: its end becomes
    # focal to the observer line near arc length pi; bisect the length until
    # the smallest full-mode eigenvalue lies within eps_eig
    model = models["einstein_cylinder"]
    k = np.sqrt(2.0)
    cg = geo.conformal_geometry(model, k)

    def arc(length):
        w = integrate_conformal_geodesic(model, k, [np.pi / 2, 0.0, 0.0], [0.0, length, 0.0])
        data = ConformalCurveData(cg, w)
        return data, assemble_hessian(data, "full", 20)

    lo, hi = np.pi - 0.5, np.pi + 0.5
    assert arc(lo)[1].n_negative == 0 and arc(hi)[1].n_negative == 1
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        data, hm = arc(mid)
        if hm.n_zero > 0:
            break
        lo, hi = (mid, hi) if hm.n_negative == 0 else (lo, mid)
    assert hm.n_zero > 0
    assert abs(mid - np.pi) < 0.05
    with pytest.raises(FocalEndpoint, match="mode 'full'"):
        restricted_index_report(data, 20)


def test_non_finite_hessian_has_no_index(tmp_path, monkeypatch):
    # LAPACK returns eigenvalues for a matrix with a NaN entry; the eigensolve
    # refuses it, and the index command exits 3 with error.json and no index.json
    H = np.array([[np.nan, 1.0], [1.0, 1.0]])
    with pytest.raises(NonFiniteHessian):
        HessianMatrix("P1", H, 0, 0, 0.0).eigenvalues()
    cfg = {"model": {"name": "einstein_cylinder"}, "k": float(np.sqrt(2.0)),
           "p": [np.pi / 2, 0.0, 0.0], "solve": {"u": [0.0, 1.0, 0.0], "T": 4.5},
           "index": {"solution": "solution.json", "n_basis": 20}}
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(cfg))
    argv = ["--config", str(path), "--out-dir", str(tmp_path)]
    assert main(["solve"] + argv) == 0
    boundary = variation._boundary_2ff

    def poisoned(*args):
        out = boundary(*args)
        out[0, 0] = np.nan
        return out

    monkeypatch.setattr(variation, "_boundary_2ff", poisoned)
    assert main(["index"] + argv) == 3
    assert json.loads((tmp_path / "error.json").read_text())["error"] == "NonFiniteHessian"
    assert not (tmp_path / "index.json").exists()


def _flat3(g_tt=lambda t: np.full(np.shape(t), -1.0), chart=None):
    """The 2+1 metric dx^2 + dy^2 + g_tt(t) dt^2 (Minkowski by default) on a custom chart."""
    def metric(q):
        g = np.zeros(q.shape[:-1] + (3, 3))
        g[..., 0, 0] = g[..., 1, 1] = 1.0
        g[..., 2, 2] = g_tt(q[..., 2])
        return g

    return geo.SpacetimeModel("flat3", 3, metric, chart_domain=chart)


def test_killing_flow_escapes_bounded_chart():
    # the chart bounds the Killing coordinate: |t| < 1
    model = _flat3(chart=lambda q: np.abs(q[..., 2]) < 1.0)
    with pytest.raises(FlowEscape):
        flow_points(model, np.zeros((1, 3)), np.array([2.0]))
    orbit = ObserverWorldline(np.zeros(3), model)
    assert np.array_equal(orbit.point(0.5), [0.0, 0.0, 0.5])
    with pytest.raises(FlowEscape):
        orbit.point(2.0)
    with pytest.raises(FlowEscape):
        orbit.point(-1.5)


def test_non_adapted_killing_field_is_invalid_params():
    # g_tt = -(1 + t^2): e_last is a Killing field only to first order on the slice t = 0
    model = _flat3(lambda t: -(1.0 + t ** 2))
    anchor = np.array([0.0, 0.0, 0.5])
    with pytest.raises(InvalidParams, match="not adapted"):
        flow_points(model, anchor[None, :], np.array([1.0]))
    with pytest.raises(InvalidParams, match="not adapted"):
        ObserverWorldline(anchor, model)
    # the acceleration reads Y = e_last, so no integration may start where it is not Killing
    k, T, u = 2.0, 1.0, np.array([1.0, 0.0, 0.0])
    with pytest.raises(InvalidParams, match="not adapted"):
        integrate_brachistochrone(model, k, anchor, u, T)
    v = initial_velocity(model, k, anchor, u, T)
    with pytest.raises(InvalidParams, match="not adapted"):
        brachistochrone_rhs(model, k, T, (anchor, v))
    state = np.concatenate([anchor, v])[None, :]
    with pytest.raises(InvalidParams, match="not adapted"):
        shot_endpoints(model, k, state, [T], IntegratorConfig())
    # nor may a shot join a running batch there (on the slice t = 0, d_t g = 0)
    start = np.concatenate([np.zeros(3), initial_velocity(model, k, np.zeros(3), u, T)])
    with pytest.raises(InvalidParams, match="not adapted"):
        shot_endpoints(model, k, start[None, :], [T], IntegratorConfig(),
                       admit=lambda arrived: (state, [T]))
    # a periodic Killing coordinate is not a translation chart either
    periodic = _flat3()
    periodic.periods = {2: 2.0 * np.pi}
    with pytest.raises(InvalidParams, match="periodic"):
        flow_points(periodic, np.zeros((1, 3)), np.array([1.0]))
    with pytest.raises(InvalidParams, match="periodic"):
        ObserverWorldline(np.zeros(3), periodic)


def test_blowing_up_extremal_equation_is_step_failure():
    # Gamma^x_xx = -5 turns the x-component of the equation into x'' = 5 x'^2,
    # whose speed becomes infinite at t = 1 / (5 x'(0)) < 1
    def christoffels(q):
        G = np.zeros(q.shape[:-1] + (3, 3, 3))
        G[..., 0, 0, 0] = -5.0
        return G

    model = _flat3()
    model.analytic_christoffels = christoffels
    with pytest.raises(StepFailure, match="integrator failed"):
        integrate_brachistochrone(model, np.sqrt(2.0), np.zeros(3), [1.0, 0.0, 0.0], 1.0)


def _poison(spline):
    """Turn a cache's coefficients non-finite part-way: NaN cubics on the middle third of
    its spline's grid, which the lanes run into from either end."""
    n = spline._spl.c.shape[1]
    spline._spl.c[:, n // 3:2 * n // 3] = np.nan
    return spline


def test_jacobi_solves_on_non_finite_coefficients_fail_naming_the_solve(
        models, solutions, tmp_path, monkeypatch):
    # NaN stages are rejected until the step size falls below scipy's minimum
    import json

    from brachkit import jacobi
    from brachkit.cli import main
    from brachkit.variation import SolutionGeometry, index_data

    model, sol = models["einstein_cylinder"], solutions["einstein_cylinder"]
    data = index_data(model, sol)
    _poison(data.spline)
    with pytest.raises(StepFailure, match="^Jacobi integration failed: integrator failed"):
        jacobi.gamma_jacobi_basis(data)
    geom = SolutionGeometry(model, sol)
    _poison(geom.spline)
    dv = jacobi._admissible_launches(geom, 0.0)[0][0]
    with pytest.raises(StepFailure, match="^linearized integration failed: integrator failed"):
        jacobi.integrate_bjacobi(geom, np.zeros(3), dv)
    with pytest.raises(StepFailure, match="^endpoint propagator integration failed: "
                                          "integrator failed"):
        jacobi._endpoint_rows(geom)

    # the jacobi command: exit 3 and error.json
    cfg = {"model": {"name": "einstein_cylinder"}, "k": float(np.sqrt(2.0)),
           "p": [np.pi / 2, 0.0, 0.0], "solve": {"u": [0.0, 1.0, 0.0], "T": 4.5},
           "jacobi": {"solution": "solution.json"}}
    path = tmp_path / "focal.json"
    path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    monkeypatch.setattr(jacobi, "index_data", lambda model, sol: _poison_data(model, sol))
    assert main(["jacobi", "--config", str(path), "--out-dir", str(tmp_path)]) == 3
    err = json.loads((tmp_path / "error.json").read_text())
    assert err["error"] == "StepFailure"
    assert err["message"].startswith("Jacobi integration failed")


def _poison_data(model, sol):
    from brachkit.variation import index_data

    data = index_data(model, sol)
    _poison(data.spline)
    return data
