"""Deformation of trial curves into horizontal curves along the Killing flow,
the left inverse of that deformation, and their differentials.

The chart is adapted to the Killing field: Y is the last coordinate vector
field, that coordinate is not periodic and the metric does not depend on it
(``require_adapted_chart`` checks both at the points it is given, the latter
through ``isometry_defect``).  The flow of Y is then the translation
psi(q, s) = q + s e_last, its differential d_x psi is the identity, and the
flow is an isometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp  # unused here; bench/spans.py wraps this binding
from scipy.interpolate import CubicSpline

from .curves import (Curve, FieldAlongCurve, covariant_derivative_along, cumulative_integral,
                     grid_integral)
from .dynamics import BrachistochroneSolution, _ode_residual
from .errors import ConstraintViolated, FlowEscape, NotHorizontal
from .geometry import (SpacetimeModel, conformal_factor, conservation_residuals, curve_distance,
                       isometry_defect, nabla_y_matrix, require_adapted_chart,
                       riemannian_metric_matrix, _coords, _inner, _inner_y)

__all__ = [
    "CorrespondenceReport",
    "require_adapted_chart",
    "isometry_defect",
    "flow_points",
    "deform_D",
    "lift_G",
    "dD_differential",
    "map_L",
    "correspondence_report",
    "tangent_constraint_scan",
]


def flow_points(model: SpacetimeModel, starts: np.ndarray, times: np.ndarray) -> np.ndarray:
    """psi(q_i, s_i) = q_i + s_i e_last for a batch of start points."""
    starts = np.atleast_2d(_coords(starts))
    require_adapted_chart(model, starts)
    ends = starts.copy()
    ends[:, -1] += np.asarray(times, dtype=float)
    if not model.in_chart(ends):
        raise FlowEscape(f"Killing flow left the chart of '{model.name}'")
    return ends


def _integral_from(grid: np.ndarray, rate: np.ndarray, t0: float) -> np.ndarray:
    """int_{t0}^{t_i} rate at the nodes: the antiderivative samples, less their spline at t0."""
    full = cumulative_integral(grid, rate)
    return full - float(CubicSpline(grid, full)(t0))


def _slide(model: SpacetimeModel, grid: np.ndarray, pts: np.ndarray, vels: np.ndarray,
           rate: np.ndarray, t0: float = 0.0) -> Curve:
    """The curve whose nodes slide along the Y-flow by tau = int_{t0}^t rate.

    The slid velocity is q' + rate * Y (d_x psi is the identity).
    """
    tau = _integral_from(grid, rate, t0)
    slid = flow_points(model, pts, tau)
    return Curve(grid=grid, points=slid, velocities=vels + rate[:, None] * model.y(slid))


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
            T = -float(_inner_y(model.g(curve.points[0]), curve.velocities[0])) / kk
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

    g = model.g(pts)
    w = _slide(model, grid, pts, vels, -_inner_y(g, vels) / g[:, -1, -1])

    speed = np.sqrt(max(np.max(_inner(riemannian_metric_matrix(model, w.points), w.velocities,
                                      w.velocities)), 1e-300))
    horiz = np.max(np.abs(_inner_y(model.g(w.points), w.velocities)))
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
    g = model.g(pts)
    phi = conformal_factor(model, pts, k)
    speed0 = float(vels[0] @ riemannian_metric_matrix(model, pts[0]) @ vels[0])
    horiz = np.max(np.abs(_inner_y(g, vels)))
    if horiz > 1e-6 * np.sqrt(max(speed0, 1e-300)):
        raise NotHorizontal(f"lift input is not horizontal: {horiz}")
    T = float(np.sqrt(phi[0] * speed0))
    sigma = _slide(model, grid, pts, vels, -k * T / g[:, -1, -1])
    r_y, r_v = conservation_residuals(model, sigma.points, sigma.velocities, k, T)
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
    g = model.g(pts)
    Kv = np.einsum("nab,nb->na", nabla_y_matrix(model, pts), vels)
    vals_y = _inner_y(g, nz) - _inner(g, zeta.values, Kv)
    vals_s = _inner(g, nz, vels)
    C = grid_integral(curve.grid, vals_y)
    return C, vals_y, vals_s, nz


def dD_differential(model: SpacetimeModel, sol: BrachistochroneSolution,
                    zeta: FieldAlongCurve, constraint_tol: float = 1e-5) -> FieldAlongCurve:
    """Gateaux derivative of the deformation along an admissible variation field.

    ``map_L`` at t0 = 0 behind the tangent-constraint gate: the values live on
    the grid of ``zeta``'s host, and so does the host of the result (the
    deformation of the solution on that grid).
    """
    C, vals_y, vals_s, nz = tangent_constraint_scan(model, sol, zeta)
    scale = 1.0 + float(np.max(np.abs(nz)))
    if (np.max(np.abs(vals_y - C)) > constraint_tol * scale
            or np.max(np.abs(vals_s - sol.T * C / sol.k)) > constraint_tol * scale):
        raise ConstraintViolated("field violates the tangent-space constraints")
    return map_L(model, sol, 0.0, zeta, C_zeta=C)


def map_L(model: SpacetimeModel, sol: BrachistochroneSolution, t0: float,
          zeta: FieldAlongCurve, C_zeta: float | None = None) -> FieldAlongCurve:
    """Push a variation field on [t0, 1] to the deformed side: zeta + tau_zeta Y.

    The host of the result is the deformation of the solution re-anchored at
    parameter t0 (a constant Killing-flow shift of the full deformation);
    values at parameters below t0 are zero-filled.
    """
    curve = sol.sigma
    grid, pts = curve.grid, curve.points
    g = model.g(pts)
    yy = g[:, -1, -1]
    host = _slide(model, grid, pts, curve.velocities, -_inner_y(g, curve.velocities) / yy, t0)

    if C_zeta is None:
        C_zeta, _, _, _ = tangent_constraint_scan(model, sol, zeta)
    dzy = _inner_y(g, np.einsum("nab,nb->na", nabla_y_matrix(model, pts), zeta.values))
    tau_zeta = _integral_from(grid, -(C_zeta * yy + 2.0 * sol.k * sol.T * dzy) / yy ** 2, t0)

    pushed = np.where((grid >= t0 - 1e-12)[:, None],
                      zeta.values + tau_zeta[:, None] * model.y(pts), 0.0)
    return FieldAlongCurve(host=host, values=pushed)


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
    horiz = np.max(np.abs(_inner_y(model.g(w.points), w.velocities)))
    return CorrespondenceReport(
        geodesic_residual=geodesic_residual(model, sol.k, w),
        energy_value=energy,
        energy_vs_halfT2=abs(energy - 0.5 * sol.T ** 2),
        roundtrip_error=curve_distance(model, sol.sigma.points,
                                       back.sigma.point_spline()(grid)),
        horizontality=float(horiz),
    )
