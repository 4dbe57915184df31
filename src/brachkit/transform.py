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

from .curves import (Curve, FieldAlongCurve, _require_hosted, covariant_nodes,
                     cumulative_integral, grid_integral)
from .dynamics import BrachistochroneSolution, _sampled_solution, conservation_failures
from .dynamics import solve_ivp  # unused here; bench/spans.py wraps this binding
from .errors import ConstraintViolated, FlowEscape
from .geometry import (SpacetimeModel, connection_coeffs, isometry_defect,
                       require_adapted_chart, _conservation, _coords, _curve_distance, _inner,
                       _inner_y, _linearized_conservation, _phi_k, _riemannian,
                       _require_horizontal)

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


def _slide(model: SpacetimeModel, grid: np.ndarray, pts: np.ndarray, vels: np.ndarray,
           rate: np.ndarray, t0: float = 0.0) -> Curve:
    """The curve whose nodes slide along the Y-flow by tau = int_{t0}^t rate.

    The slid velocity is q' + rate * Y (d_x psi is the identity).
    """
    tau = cumulative_integral(grid, rate, t0)
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
             check: bool = True) -> Curve:
    """Slide a trial curve along the Y-flow into a horizontal curve.

    Accepts a BrachistochroneSolution or a bare constraint-satisfying Curve
    (then ``k`` must be given), whose conservation ``check`` holds to tol 1e-6
    (``dynamics.conservation_failures``).  Each node slides along its own Killing
    orbit, so the result lives on the input curve's grid; NotHorizontal unless
    |<w',Y>| <= 1e-8 |w'|_R |Y|_R at every node.
    """
    if isinstance(sol, BrachistochroneSolution):
        curve, k, T = sol.sigma, sol.k, sol.T
    elif k is None:
        raise ValueError("k is required when deforming a bare curve")
    else:
        curve, T = sol, None
    return _deform(model, curve, model.g(curve.points), k, T, check)


def _deform(model: SpacetimeModel, curve: Curve, g, k: float, T, check: bool) -> Curve:
    """``deform_D`` of ``curve`` from the metric g at its nodes, for the check, the rate and
    the horizontality of the result: each node of the result is a Killing translate of
    the curve's node, where the adapted chart's metric is the same."""
    pts, vels = curve.points, curve.velocities
    if check:
        if T is None:
            T = -float(_inner_y(g[0], vels[0])) / k
            if T <= 0.0:
                raise ConstraintViolated("curve has nonpositive inferred travel time")
        r_y, r_v = _conservation(g, vels, k, T)
        failed = conservation_failures(np.max(np.abs(r_y)), np.max(np.abs(r_v)), k, T, 1e-6)
        if failed:
            raise ConstraintViolated(f"input curve violates {' and '.join(failed)}")
    w = _slide(model, curve.grid, pts, vels, -_inner_y(g, vels) / g[:, -1, -1])
    _require_horizontal(g, w.velocities, 1e-8, "deformed curve")
    return w


def lift_G(model: SpacetimeModel, k: float, w: Curve) -> BrachistochroneSolution:
    """Lift a horizontal curve back to a trial-curve candidate.

    NotHorizontal unless |<w',Y>| <= 1e-6 |w'|_R |Y|_R at every node.  The candidate's
    travel time comes from the conformal speed at the start node; the conservation
    constraints are reported, not enforced, so a non-geodesic input shows up as a
    large equation residual downstream.
    """
    return _lift(model, k, w, model.g(w.points))


def _lift(model: SpacetimeModel, k: float, w: Curve, g) -> BrachistochroneSolution:
    """``lift_G`` of w from the metric g at its nodes, which the lift, node by node a
    Killing translate of w, shares."""
    grid, pts, vels = w.grid, w.points, w.velocities
    _require_horizontal(g, vels, 1e-6, "lift input")
    speed0 = float(vels[0] @ _riemannian(g[0]) @ vels[0])
    T = float(np.sqrt(_phi_k(g, k, pts)[0] * speed0))
    return _sampled_solution(model, k, T, _slide(model, grid, pts, vels, -k * T / g[:, -1, -1]),
                             g)


def tangent_constraint_scan(model: SpacetimeModel, sol: BrachistochroneSolution,
                            zeta: FieldAlongCurve):
    """(C, residual_Y(t), residual_speed(t), nabla-zeta nodes) for a variation field: the node
    defects of <nabla zeta, Y> - <zeta, nabla_sigma' Y> = C and <nabla zeta, sigma'> = T C / k."""
    pts = sol.sigma.points
    return _constraint_scan(sol, model.g(pts), connection_coeffs(model, pts), zeta)


def _constraint_scan(sol: BrachistochroneSolution, g, G, zeta: FieldAlongCurve) -> tuple:
    """``tangent_constraint_scan`` from the metric g and the Christoffels G at the nodes of
    ``sol.sigma``; nabla Y is G[..., -1], so the model is not called."""
    curve = sol.sigma
    _require_hosted(curve, zeta)
    nz = covariant_nodes(curve, G, zeta)
    vals_y, vals_s = _linearized_conservation(g, G[..., -1], curve.velocities, zeta.values, nz)
    C = grid_integral(curve.grid, vals_y)
    return C, vals_y - C, vals_s - sol.T * C / sol.k, nz


def _require_admissible(scan: tuple, tol: float, scale: float) -> None:
    """ConstraintViolated unless both residuals of a constraint scan are within tol * scale."""
    _, r_y, r_s, _ = scan
    worst = max(float(np.max(np.abs(r_y))), float(np.max(np.abs(r_s))))
    if worst > tol * scale:
        raise ConstraintViolated(f"field violates the tangent-space constraints: {worst:.3e}")


def dD_differential(model: SpacetimeModel, sol: BrachistochroneSolution,
                    zeta: FieldAlongCurve, constraint_tol: float = 1e-5) -> FieldAlongCurve:
    """Gateaux derivative of the deformation along an admissible variation field.

    ``map_L`` at t0 = 0 behind the tangent-constraint gate: the values live on
    the grid of ``zeta``'s host, and so does the host of the result (the
    deformation of the solution on that grid).  g and Gamma are evaluated once
    at the solution's nodes, for both.
    """
    pts = sol.sigma.points
    g, G = model.g(pts), connection_coeffs(model, pts)
    scan = _constraint_scan(sol, g, G, zeta)
    _require_admissible(scan, constraint_tol, 1.0 + float(np.max(np.abs(scan[3]))))
    return _map_L(model, sol, 0.0, zeta, scan[0], g, G)


def map_L(model: SpacetimeModel, sol: BrachistochroneSolution, t0: float,
          zeta: FieldAlongCurve, C_zeta: float | None = None) -> FieldAlongCurve:
    """Push a variation field on [t0, 1] to the deformed side: zeta + tau_zeta Y.

    The host of the result is the deformation of the solution re-anchored at
    parameter t0 (a constant Killing-flow shift of the full deformation);
    values at parameters below t0 are zero-filled.  ValueError unless 0 <= t0 <= 1.
    """
    if not 0.0 <= t0 <= 1.0:
        raise ValueError(f"t0 must lie in [0, 1], got {t0}")
    pts = sol.sigma.points
    g, G = model.g(pts), connection_coeffs(model, pts)
    if C_zeta is None:
        C_zeta = _constraint_scan(sol, g, G, zeta)[0]
    return _map_L(model, sol, t0, zeta, C_zeta, g, G)


def _map_L(model: SpacetimeModel, sol: BrachistochroneSolution, t0: float,
           zeta: FieldAlongCurve, C_zeta: float, g, G) -> FieldAlongCurve:
    """``map_L`` from the metric g and the Christoffels G at the nodes of ``sol.sigma``;
    nabla Y is G[..., -1]."""
    curve = sol.sigma
    grid, pts = curve.grid, curve.points
    yy = g[:, -1, -1]
    host = _slide(model, grid, pts, curve.velocities, -_inner_y(g, curve.velocities) / yy, t0)
    dzy = _inner_y(g, np.einsum("nab,nb->na", G[..., -1], zeta.values))
    tau_zeta = cumulative_integral(grid, -(C_zeta * yy + 2.0 * sol.k * sol.T * dzy) / yy ** 2, t0)

    pushed = np.where((grid >= t0 - 1e-12)[:, None],
                      zeta.values + tau_zeta[:, None] * model.y(pts), 0.0)
    return FieldAlongCurve(host=host, values=pushed)


def conformal_energy(model: SpacetimeModel, k: float, w: Curve) -> float:
    """E = 1/2 int phi_k g_R(w', w') dt by spline quadrature."""
    return _conformal_energy(model.g(w.points), k, w)


def _conformal_energy(g, k: float, w: Curve) -> float:
    """``conformal_energy`` from the metric g at the nodes of w."""
    vals = _phi_k(g, k, w.points) * _inner(_riemannian(g), w.velocities, w.velocities)
    return 0.5 * grid_integral(w.grid, vals)


def correspondence_report(model: SpacetimeModel, sol: BrachistochroneSolution) -> CorrespondenceReport:
    """Numerical content of the first variational principle at one solution.

    The deformed curve and its lift are Killing translates of sigma, node by node, so
    in the adapted chart the three share the metric at sigma's nodes, evaluated once."""
    from .dynamics import geodesic_residual

    g = model.g(sol.sigma.points)
    w = _deform(model, sol.sigma, g, sol.k, sol.T, True)
    energy = _conformal_energy(g, sol.k, w)
    back = _lift(model, sol.k, w, g)
    horiz = np.max(np.abs(_inner_y(g, w.velocities)))
    return CorrespondenceReport(
        geodesic_residual=geodesic_residual(model, sol.k, w, g),
        energy_value=energy,
        energy_vs_halfT2=abs(energy - 0.5 * sol.T ** 2),
        roundtrip_error=_curve_distance(model, g, sol.sigma.points, back.sigma.points),
        horizontality=float(horiz),
    )
