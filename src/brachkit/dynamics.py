"""Brachistochrone and conformal-geodesic integration.

The second-order brachistochrone equation is integrated as a first-order
system in (position, velocity).  Conservation of <sigma', Y> = -k T and
<sigma', sigma'> = -T^2 is implied by the equation together with the launch
conditions, so both quantities are monitored as independent correctness
checks rather than enforced by projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from .curves import Curve, grid_integral
from .errors import NotHorizontal, OutsideUk, StepFailure
from .geometry import (ConformalGeometry, SpacetimeModel, conformal_factor, conformal_geometry,
                       connection_coeffs, conservation_residuals,
                       riemannian_metric_matrix, scalar_gradient, _coords, _comps, _inner)

__all__ = [
    "IntegratorConfig",
    "BrachistochroneSolution",
    "initial_velocity",
    "brachistochrone_rhs",
    "integrate_brachistochrone",
    "integrate_conformal_geodesic",
    "conservation_report",
    "geodesic_residual",
]


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-10
    atol: float = 1e-10
    grid_n: int = 400
    tol_cons: float = 1e-7
    method: str = "RK45"  # embedded 5(4) pair with dense output


@dataclass
class BrachistochroneSolution:
    """An integrated trial curve with its conserved quantities' residuals."""

    sigma: Curve
    T: float
    k: float
    residual_conservation_Y: float
    residual_conservation_speed: float
    residual_ode: float

    def check_conservation(self, tol_cons: float):
        from .errors import ConstraintViolated
        if self.residual_conservation_Y > tol_cons * (1.0 + self.k * self.T):
            raise ConstraintViolated(
                f"<sigma',Y> + kT residual {self.residual_conservation_Y:.3e} over tolerance")
        if self.residual_conservation_speed > tol_cons * (1.0 + self.T ** 2):
            raise ConstraintViolated(
                f"<sigma',sigma'> + T^2 residual {self.residual_conservation_speed:.3e} over tolerance")


def initial_velocity(model: SpacetimeModel, k: float, p, u, T: float) -> np.ndarray:
    """Launch velocity (T / sqrt(-<Y,Y>)) (k Yhat + sqrt(k^2 + <Y,Y>) u).

    ``u`` must be a g_R-unit direction orthogonal to Y; the result satisfies
    <v,v> = -T^2 and <v,Y> = -kT exactly.
    """
    q = model.require_in_chart(p)
    g = model.g(q)
    y = model.y(q)
    u = _comps(u)
    yy = float(y @ g @ y)
    P = k * k + yy
    if P <= 0.0:
        raise OutsideUk(f"launch point violates k^2 + <Y,Y> > 0 (got {P})")
    uy = float(u @ g @ y)
    if abs(uy) > 1e-8 * np.sqrt(abs(yy)):
        raise NotHorizontal(f"launch direction has <u,Y> = {uy}, expected 0")
    gr = riemannian_metric_matrix(model, q)
    nrm = float(u @ gr @ u)
    if abs(nrm - 1.0) > 1e-8:
        raise NotHorizontal(f"launch direction has g_R norm {np.sqrt(nrm)}, expected 1")
    return (T / np.sqrt(-yy)) * (k * y / np.sqrt(-yy) + np.sqrt(P) * u)


def _rhs_factory(model: SpacetimeModel, k: float, T: float):
    gfun, yfun, dyfun = model.g, model.y, model.dy
    kk = k * k
    two_kT = 2.0 * k * T

    def rhs(t, state):
        m = state.size // 2
        q, v = state[:m], state[m:]
        G = connection_coeffs(model, q)  # raises OutOfChart once the trajectory leaves the chart
        g = gfun(q)
        y = yfun(q)
        N = float(y @ g @ y)
        P = kk + N
        if P <= 0.0:
            raise OutsideUk(f"trajectory left the admissible region at t={t}")
        K = dyfun(q) + np.einsum("abc,c->ab", G, y)
        dvy = K @ v                       # nabla_v Y
        W = float(dvy @ g @ y)            # <nabla_v Y, Y>
        acc = (-np.einsum("abc,b,c->a", G, v, v)
               - (2.0 * kk * W / (N * P)) * v
               - (two_kT / N) * dvy
               + (two_kT * W / (N * P)) * y)
        return np.concatenate([v, acc])

    return rhs


def brachistochrone_rhs(model: SpacetimeModel, k: float, T: float, state):
    """(velocity, acceleration) of the travel-time equation at one state."""
    q, v = state
    y0 = np.concatenate([_coords(q), _comps(v)])
    out = _rhs_factory(model, k, T)(0.0, y0)
    m = model.m
    return out[:m], out[m:]


def _sample(sol_ivp, m, grid):
    y = sol_ivp.sol(grid)
    return y[:m].T.copy(), y[m:].T.copy()


def _ode_residual(model, k, T, curve: Curve) -> float:
    idx = np.arange(0, curve.grid.size, max(1, curve.grid.size // 64))
    rhs = _rhs_factory(model, k, T)  # one state at a time
    states = np.concatenate([curve.points[idx], curve.velocities[idx]], axis=1)
    target = np.array([rhs(t, state)[model.m:] for t, state in zip(curve.grid[idx], states)])
    d = curve.velocity_spline()(curve.grid[idx], 1) - target
    return float(np.sqrt(np.max(_inner(riemannian_metric_matrix(model, curve.points[idx]), d, d))))


def integrate_brachistochrone(model: SpacetimeModel, k: float, p, u, T: float,
                              config: IntegratorConfig = IntegratorConfig()
                              ) -> BrachistochroneSolution:
    """Integrate the travel-time equation on [0, 1] from the launch data (p, u, T)."""
    if T <= 0.0:
        raise ValueError("travel time T must be positive")
    v0 = initial_velocity(model, k, p, u, T)
    return integrate_brachistochrone_from_velocity(model, k, p, v0, T, config)


def integrate_brachistochrone_from_velocity(model: SpacetimeModel, k: float, p, v0,
                                            T: float,
                                            config: IntegratorConfig = IntegratorConfig()
                                            ) -> BrachistochroneSolution:
    """Same as integrate_brachistochrone but from an explicit launch velocity."""
    q0 = model.require_in_chart(p)
    state0 = np.concatenate([q0, _comps(v0)])
    rhs = _rhs_factory(model, k, T)
    out = solve_ivp(rhs, (0.0, 1.0), state0, method=config.method,
                    rtol=config.rtol, atol=config.atol, dense_output=True)
    if not out.success:
        raise StepFailure(f"integrator failed: {out.message}")
    grid = np.linspace(0.0, 1.0, config.grid_n + 1)
    pts, vels = _sample(out, model.m, grid)
    curve = Curve(grid=grid, points=pts, velocities=vels)
    r_y, r_v = conservation_residuals(model, pts, vels, k, T)
    return BrachistochroneSolution(
        sigma=curve, T=T, k=k,
        residual_conservation_Y=float(np.max(np.abs(r_y))),
        residual_conservation_speed=float(np.max(np.abs(r_v))),
        residual_ode=_ode_residual(model, k, T, curve),
    )


def integrate_conformal_geodesic(model: SpacetimeModel, k: float, q, v,
                                 config: IntegratorConfig = IntegratorConfig(),
                                 confgeom: ConformalGeometry | None = None) -> Curve:
    """Geodesic of the conformal Riemannian metric from horizontal data (q, v)."""
    cg = conformal_geometry(model, k) if confgeom is None else confgeom
    q0 = model.require_in_chart(q)
    v0 = _comps(v)
    vy = float(v0 @ model.g(q0) @ model.y(q0))
    speed = np.sqrt(float(v0 @ riemannian_metric_matrix(model, q0) @ v0))
    if speed == 0.0 or abs(vy) > 1e-8 * speed:
        raise NotHorizontal(f"geodesic launch has <v,Y> = {vy}")

    m = model.m

    def rhs(t, state):
        pos, vel = state[:m], state[m:]
        G = cg.christoffels(pos)
        return np.concatenate([vel, -np.einsum("abc,b,c->a", G, vel, vel)])

    out = solve_ivp(rhs, (0.0, 1.0), np.concatenate([q0, v0]), method=config.method,
                    rtol=config.rtol, atol=config.atol, dense_output=True)
    if not out.success:
        raise StepFailure(f"integrator failed: {out.message}")
    grid = np.linspace(0.0, 1.0, config.grid_n + 1)
    pts, vels = _sample(out, m, grid)
    return Curve(grid=grid, points=pts, velocities=vels)


def conservation_report(model: SpacetimeModel, sol: BrachistochroneSolution,
                        refine: int = 2) -> dict:
    """Recompute the two conservation residuals on a refined grid."""
    n = sol.sigma.n_segments * refine
    grid = np.linspace(0.0, 1.0, n + 1)
    ps = sol.sigma.point_spline()
    vs = sol.sigma.velocity_spline()
    errs_y, errs_v = conservation_residuals(model, ps(grid), vs(grid), sol.k, sol.T)
    return {
        "residual_Y_max": float(np.max(np.abs(errs_y))),
        "residual_Y_l2": float(np.sqrt(grid_integral(grid, errs_y ** 2))),
        "residual_speed_max": float(np.max(np.abs(errs_v))),
        "residual_speed_l2": float(np.sqrt(grid_integral(grid, errs_v ** 2))),
    }


def geodesic_residual(model: SpacetimeModel, k: float, w: Curve) -> float:
    """Max-norm defect of nabla_w'(phi_k w') - 1/2 grad(phi_k) <w',w'> at the nodes."""
    grid, pts, vels = w.grid, w.points, w.velocities
    g, y, gr = model.g(pts), model.y(pts), riemannian_metric_matrix(model, pts)
    speeds = np.sqrt(np.maximum(_inner(gr, vels, vels), 0.0))
    horiz = np.max(np.abs(_inner(g, vels, y)))
    if horiz > 1e-6 * max(np.max(speeds), 1e-30):
        raise NotHorizontal(f"curve is not horizontal: max |<w',Y>| = {horiz}")

    u = conformal_factor(model, pts, k)[:, None] * vels
    dudt = CubicSpline(grid, u, axis=0)(grid, 1)
    nabla_u = dudt + np.einsum("nabc,nb,nc->na", connection_coeffs(model, pts), vels, u)
    grad_phi = scalar_gradient(model, pts, lambda qq: conformal_factor(model, qq, k))
    d = nabla_u - 0.5 * grad_phi * _inner(g, vels, vels)[:, None]
    return float(np.sqrt(np.max(_inner(gr, d, d))))
