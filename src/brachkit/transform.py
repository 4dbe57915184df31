"""Deformation of trial curves into horizontal curves along the Killing flow,
the left inverse of that deformation, and their differentials.

The flow of Y is always integrated numerically (one batched ODE over all
curve nodes); closed forms, where they exist, are reserved for test oracles.
Differentials of the flow map are taken by fourth-order directional finite
differences, and the isometry property of the flow is available as a post
hoc check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .curves import (Curve, FieldAlongCurve, covariant_derivative_along, cumulative_integral,
                     grid_integral)
from .dynamics import BrachistochroneSolution, _ode_residual
from .errors import ConstraintViolated, FlowEscape, NotHorizontal, StepFailure
from .geometry import (SpacetimeModel, conformal_factor, conservation_residuals, curve_distance,
                       metric_eval, nabla_y_matrix, riemannian_metric_matrix, _coords, _inner)

__all__ = [
    "CorrespondenceReport",
    "flow_points",
    "flow_differential",
    "deform_D",
    "lift_G",
    "dD_differential",
    "correspondence_report",
    "tangent_constraint_scan",
]

_FLOW_RTOL = 1e-12
_FLOW_ATOL = 1e-14
_DIFF_STEP = 1e-3


def flow_points(model: SpacetimeModel, starts: np.ndarray, times: np.ndarray) -> np.ndarray:
    """psi(q_i, s_i) for a batch of start points; one rescaled ODE solve."""
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    times = np.asarray(times, dtype=float)
    n, m = starts.shape
    if np.max(np.abs(times)) == 0.0:
        return starts.copy()

    def rhs(u, flat):
        return (times[:, None] * model.y(flat.reshape(n, m))).ravel()

    sol = solve_ivp(rhs, (0.0, 1.0), starts.ravel(), method="DOP853",
                    rtol=_FLOW_RTOL, atol=_FLOW_ATOL)
    if not sol.success:
        raise StepFailure(f"Killing flow integration failed: {sol.message}")
    ends = sol.y[:, -1].reshape(n, m)
    if not model.in_chart(ends):
        raise FlowEscape(f"Killing flow left the chart of '{model.name}'")
    return ends


def flow_differential(model: SpacetimeModel, starts: np.ndarray, times: np.ndarray,
                      vectors: np.ndarray, step: float = _DIFF_STEP) -> np.ndarray:
    """d_x psi(q_i, s_i)[v_i] for a batch, by fourth-order directional differences."""
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    norms = np.linalg.norm(vectors, axis=1)
    units = np.where(norms[:, None] > 0.0, vectors / np.where(norms == 0.0, 1.0, norms)[:, None], 0.0)
    offsets = (1.0, -1.0, 2.0, -2.0)
    batch = np.concatenate([starts + c * step * units for c in offsets], axis=0)
    tiled = np.tile(np.asarray(times, dtype=float), len(offsets))
    ends = flow_points(model, batch, tiled)
    n = starts.shape[0]
    fp1, fm1, fp2, fm2 = (ends[i * n:(i + 1) * n] for i in range(4))
    deriv = (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * step)
    return deriv * norms[:, None]


def isometry_defect(model: SpacetimeModel, q, s: float, rng=None) -> float:
    """How far d_x psi(q, s) is from a metric isometry (post hoc check)."""
    q = _coords(q)
    rng = np.random.default_rng(0) if rng is None else rng
    v = rng.standard_normal(model.m)
    w = rng.standard_normal(model.m)
    end = flow_points(model, q[None, :], np.array([s]))[0]
    dv = flow_differential(model, q[None, :], np.array([s]), v[None, :])[0]
    dw = flow_differential(model, q[None, :], np.array([s]), w[None, :])[0]
    before = float(v @ model.g(q) @ w)
    after = float(dv @ model.g(end) @ dw)
    return abs(after - before)


@dataclass
class CorrespondenceReport:
    geodesic_residual: float
    energy_value: float
    energy_vs_halfT2: float
    roundtrip_error: float
    horizontality: float

    def as_dict(self) -> dict:
        return {
            "geodesic_residual": self.geodesic_residual,
            "energy_value": self.energy_value,
            "energy_vs_halfT2": self.energy_vs_halfT2,
            "roundtrip_error": self.roundtrip_error,
            "horizontality": self.horizontality,
        }


def deform_D(model: SpacetimeModel, sol, k: float | None = None,
             n_out: int | None = None, check: bool = True) -> Curve:
    """Slide a trial curve along the Y-flow into a horizontal curve.

    Accepts a BrachistochroneSolution or a bare constraint-satisfying Curve
    (then ``k`` must be given).  The output grid is upsampled so downstream
    derivative reconstructions stay well below the residual tolerances.
    """
    if isinstance(sol, BrachistochroneSolution):
        curve, kk, T = sol.sigma, sol.k, sol.T
    else:
        curve = sol
        if k is None:
            raise ValueError("k is required when deforming a bare curve")
        kk = k
        T = None
    if check:
        if T is None:
            yy0 = float(curve.velocities[0] @ model.g(curve.points[0])
                        @ model.y(curve.points[0]))
            T = -yy0 / kk
            if T <= 0.0:
                raise ConstraintViolated("curve has nonpositive inferred travel time")
        r_y, r_v = conservation_residuals(model, curve.points, curve.velocities, kk, T)
        if max(np.max(np.abs(r_y)) / (1.0 + kk * T), np.max(np.abs(r_v)) / (1.0 + T * T)) > 1e-6:
            raise ConstraintViolated("input curve violates the conservation constraints")

    if n_out is None:
        n_out = max(curve.n_segments, min(2 * curve.n_segments, 800))
    grid = np.linspace(0.0, 1.0, n_out + 1)
    ps, vs = curve.point_spline(), curve.velocity_spline()
    pts, vels = ps(grid), vs(grid)

    g, y = model.g(pts), model.y(pts)
    tau_rate = -_inner(g, vels, y) / _inner(g, y, y)
    tau = cumulative_integral(grid, tau_rate)

    w_pts = flow_points(model, pts, tau)
    dpsi_v = flow_differential(model, pts, tau, vels)
    w_vels = dpsi_v + tau_rate[:, None] * model.y(w_pts)
    w = Curve(grid=grid, points=w_pts, velocities=w_vels)

    speed = np.sqrt(max(np.max(_inner(riemannian_metric_matrix(model, w_pts), w_vels, w_vels)),
                        1e-300))
    horiz = np.max(np.abs(metric_eval(model, w_pts, w_vels, model.y(w_pts))))
    if horiz > 1e-8 * speed:
        raise NotHorizontal(f"deformed curve has |<w',Y>| = {horiz} > 1e-8 * speed")
    return w


def lift_G(model: SpacetimeModel, k: float, w: Curve) -> BrachistochroneSolution:
    """Lift a horizontal curve back to a trial-curve candidate.

    The candidate's travel time comes from the conformal speed at the start
    node; the conservation constraints are reported, not enforced, so a
    non-geodesic input shows up as a large equation residual downstream.
    """
    grid, pts, vels = w.grid, w.points, w.velocities
    g, y = model.g(pts), model.y(pts)
    yy = _inner(g, y, y)
    phi = conformal_factor(model, pts, k)
    speed0 = float(vels[0] @ riemannian_metric_matrix(model, pts[0]) @ vels[0])
    horiz = np.max(np.abs(_inner(g, vels, y)))
    if horiz > 1e-6 * np.sqrt(max(speed0, 1e-300)):
        raise NotHorizontal(f"lift input is not horizontal: {horiz}")
    T = float(np.sqrt(phi[0] * speed0))
    h_rate = -k * T / yy
    h = cumulative_integral(grid, h_rate)

    s_pts = flow_points(model, pts, h)
    dpsi_v = flow_differential(model, pts, h, vels)
    s_vels = dpsi_v + h_rate[:, None] * model.y(s_pts)
    sigma = Curve(grid=grid, points=s_pts, velocities=s_vels)
    r_y, r_v = conservation_residuals(model, s_pts, s_vels, k, T)
    return BrachistochroneSolution(
        sigma=sigma, T=T, k=k,
        residual_conservation_Y=float(np.max(np.abs(r_y))),
        residual_conservation_speed=float(np.max(np.abs(r_v))),
        residual_ode=_ode_residual(model, k, T, sigma),
    )


def tangent_constraint_scan(model: SpacetimeModel, sol: BrachistochroneSolution,
                            zeta: FieldAlongCurve):
    """(C, residual_Y(t), residual_speed(t), nabla-zeta nodes) for a variation field."""
    curve = sol.sigma
    pts, vels = curve.points, curve.velocities
    nz = covariant_derivative_along(model, curve, zeta).values
    g, y = model.g(pts), model.y(pts)
    Kv = np.einsum("nab,nb->na", nabla_y_matrix(model, pts), vels)
    vals_y = _inner(g, nz, y) - _inner(g, zeta.values, Kv)
    vals_s = _inner(g, nz, vels)
    C = grid_integral(curve.grid, vals_y)
    return C, vals_y, vals_s, nz


def dD_differential(model: SpacetimeModel, sol: BrachistochroneSolution,
                    zeta: FieldAlongCurve, deformed: Curve | None = None,
                    constraint_tol: float = 1e-5) -> FieldAlongCurve:
    """Gateaux derivative of the deformation along an admissible variation field.

    Returns the pushed field on the grid of ``zeta``'s host; the host curve of
    the result is the deformation computed on that same grid.
    """
    curve = sol.sigma
    C, vals_y, vals_s, nz = tangent_constraint_scan(model, sol, zeta)
    scale = 1.0 + float(np.max(np.abs(nz)))
    if (np.max(np.abs(vals_y - C)) > constraint_tol * scale
            or np.max(np.abs(vals_s - sol.T * C / sol.k)) > constraint_tol * scale):
        raise ConstraintViolated("field violates the tangent-space constraints")

    grid, pts = curve.grid, curve.points
    g, y = model.g(pts), model.y(pts)
    yy = _inner(g, y, y)
    tau = cumulative_integral(grid, sol.k * sol.T / yy)

    dzy = _inner(g, np.einsum("nab,nb->na", nabla_y_matrix(model, pts), zeta.values), y)
    tau_zeta = cumulative_integral(grid, -(C * yy + 2.0 * sol.k * sol.T * dzy) / yy ** 2)

    args = zeta.values + tau_zeta[:, None] * y
    pushed = flow_differential(model, pts, tau, args)
    if deformed is None:
        deformed = deform_D(model, sol, n_out=curve.n_segments, check=False)
        if deformed.grid.size != grid.size:
            deformed = Curve(grid=grid, points=deformed.point_spline()(grid),
                             velocities=deformed.velocity_spline()(grid))
    return FieldAlongCurve(host=deformed, values=pushed)


def conformal_energy(model: SpacetimeModel, k: float, w: Curve) -> float:
    """E = 1/2 int phi_k g_R(w', w') dt by spline quadrature."""
    vals = conformal_factor(model, w.points, k) * _inner(
        riemannian_metric_matrix(model, w.points), w.velocities, w.velocities)
    return 0.5 * grid_integral(w.grid, vals)


def correspondence_report(model: SpacetimeModel, sol: BrachistochroneSolution) -> CorrespondenceReport:
    """Numerical content of the first variational principle at one solution."""
    from .dynamics import geodesic_residual

    w = deform_D(model, sol)
    energy = conformal_energy(model, sol.k, w)
    back = lift_G(model, sol.k, w)
    grid = sol.sigma.grid
    horiz = np.max(np.abs(metric_eval(model, w.points, w.velocities, model.y(w.points))))
    return CorrespondenceReport(
        geodesic_residual=geodesic_residual(model, sol.k, w),
        energy_value=energy,
        energy_vs_halfT2=abs(energy - 0.5 * sol.T ** 2),
        roundtrip_error=curve_distance(model, sol.sigma.points,
                                       back.sigma.point_spline()(grid)),
        horizontality=float(horiz),
    )
