"""Independent brute-force verification tools.

Two kinds of ground truth live here: a direct minimizer of the conformal
energy over discretized horizontal polylines (with a boundary barrier keeping
iterates inside the admissible region), and finite-difference families of
exact solutions used as oracles for the linearized machinery.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .curves import Curve, _CubicSpline, _Reduction, cumulative_integral, sine_bumps
from .dynamics import (BrachistochroneSolution, IntegratorConfig,
                       integrate_brachistochrone)
from .errors import OutsideUk, Stalled
from .geometry import (SpacetimeModel, horizontal_part, horizontal_unit, _coords, _horizontal,
                       _inner, _jacobian_fd, _phi_k, _riemannian)
from .transform import conformal_energy, deform_D, lift_G

__all__ = [
    "PenaltyConfig",
    "DiscreteCandidate",
    "penalized_energy",
    "discrete_minimize",
    "fd_variation_family",
    "constrained_curve_family",
]

log = logging.getLogger("brachkit.oracle")


@dataclass(frozen=True)
class PenaltyConfig:
    """Barrier parameters: the chi term switches on once 1/Psi_k^2 >= 1/epsilon."""

    epsilon: float = 0.5

    def chi(self, s):
        r = np.maximum(np.asarray(s, dtype=float) - 1.0 / self.epsilon, 0.0)
        return np.exp(r) - (1.0 + r + 0.5 * r * r)

    def chi_prime(self, s):
        r = np.maximum(np.asarray(s, dtype=float) - 1.0 / self.epsilon, 0.0)
        return np.exp(r) - (1.0 + r)


@dataclass
class DiscreteCandidate:
    polyline: Curve
    T_estimate: float
    constraint_penalty: float


def psi_k(model: SpacetimeModel, k: float, q):
    """Psi_k = <Y,Y> + k^2 at every node of q."""
    return model.g(q)[..., -1, -1] + k * k


def penalized_energy(model: SpacetimeModel, k: float, w: Curve,
                     pc: PenaltyConfig) -> float:
    """Conformal energy plus the boundary barrier, by nodal quadrature."""
    energy = conformal_energy(model, k, w)
    psis = psi_k(model, k, w.points)
    if np.any(psis == 0.0):
        raise OutsideUk("curve touches the admissible-region boundary")
    barrier = pc.chi(1.0 / psis ** 2)
    if np.all(barrier == 0.0):
        return energy
    return energy + float(np.trapezoid(barrier, w.grid))


class _PolylineObjective:
    """Energy of the horizontal projection of a polyline, with its gradient.

    On a segment with midpoint q and velocity v the energy density is
    v^T M v with M = phi_k P^T g_R P, P the projection along Y.  Since the
    horizontal part h = P v is g-orthogonal to Y, this is phi_k <h, h> and
    M v = phi_k g h.
    """

    def __init__(self, model, k, x0, x1, n_seg, pc: PenaltyConfig):
        self.model = model
        self.k = k
        self.x0 = x0
        self.x1 = x1
        self.n = n_seg
        self.pc = pc
        self.dt = 1.0 / n_seg
        self.fd = 1e-6

    def nodes(self, interior):
        return np.vstack([self.x0, interior.reshape(self.n - 1, self.model.m), self.x1])

    def _segments(self, interior):
        nodes = self.nodes(interior)
        return nodes, 0.5 * (nodes[:-1] + nodes[1:]), np.diff(nodes, axis=0) / self.dt

    def _density(self, q, v):
        """phi_k <h, h> with h the horizontal part of v at q, over all leading axes."""
        g = self.model.g(q)
        h = _horizontal(g, v)
        return _phi_k(g, self.k, q) * _inner(g, h, h)

    def energy(self, interior) -> float:
        nodes, mid, v = self._segments(interior)
        psi = psi_k(self.model, self.k, nodes)
        if np.any(psi <= 0.0):
            raise OutsideUk("polyline node outside the admissible region")
        # node-based barrier, trapezoid rule
        return float(0.5 * self.dt * np.sum(self._density(mid, v))
                     + np.trapezoid(self.pc.chi(1.0 / psi ** 2), dx=self.dt))

    def gradient(self, interior) -> np.ndarray:
        nodes, mid, v = self._segments(interior)
        model, k, fd = self.model, self.k, self.fd
        grad = np.zeros((self.n + 1, model.m))
        g = model.g(mid)
        Mv = _phi_k(g, k, mid)[:, None] * np.einsum("nab,nb->na", g, _horizontal(g, v))
        # metric variation through the midpoint
        dM = 0.25 * self.dt * _jacobian_fd(lambda q: self._density(q, v), mid, fd)
        grad[:-1] += dM - Mv
        grad[1:] += dM + Mv
        # barrier, on the interior nodes where it is switched on
        inner = nodes[1:-1]
        psi = psi_k(model, k, inner)
        cp = self.pc.chi_prime(1.0 / psi ** 2)
        on = cp != 0.0
        dpsi = _jacobian_fd(lambda q: psi_k(model, k, q), inner[on], fd)
        grad[1:-1][on] += (self.dt * cp[on] * (-2.0 / psi[on] ** 3))[:, None] * dpsi
        return grad[1:-1].ravel()

    def validate_gradient(self, interior, n_checks: int = 6, tol: float = 1e-6):
        g = self.gradient(interior)
        rng = np.random.default_rng(0)
        idx = rng.choice(g.size, size=min(n_checks, g.size), replace=False)
        scale = 1.0 + float(np.max(np.abs(g)))
        for j in idx:
            e = np.zeros_like(interior)
            h = 1e-6
            e[j] = h
            fd = (self.energy(interior + e) - self.energy(interior - e)) / (2.0 * h)
            if abs(fd - g[j]) > tol * scale:
                raise AssertionError(
                    f"gradient check failed at dof {j}: analytic {g[j]:.3e} vs fd {fd:.3e}")


def _h1_preconditioner(n_seg) -> _Reduction:
    """The discrete H1 form (-1, 2, -1) / dt on interior nodes, reduced for its solves."""
    off = np.full(n_seg - 1, -1.0 * n_seg)
    return _Reduction(off, np.full(n_seg - 1, 2.0 * n_seg), off)


def discrete_minimize(model: SpacetimeModel, p, gamma_anchor, k: float, n_seg: int,
                      init: Curve | None = None, pc: PenaltyConfig = PenaltyConfig(),
                      gtol: float = 1e-7, max_iters: int = 20000) -> DiscreteCandidate:
    """Minimize the (penalized) horizontal energy over polylines from p to the
    observer orbit.

    The Y-component of every segment velocity is projected out, which makes
    the objective a function on the quotient by the flow; the arrival node can
    therefore be pinned at the anchor.  Descent directions are gradients in
    the curve-space H1 inner product (a tridiagonal solve), with Armijo
    backtracking; the stopping test is on the plain gradient norm.
    """
    p = _coords(p)
    x1 = _coords(gamma_anchor)
    m = model.m
    if init is None:
        grid = np.linspace(0.0, 1.0, n_seg + 1)
        pts = np.outer(1.0 - grid, p) + np.outer(grid, x1)
        init_nodes = pts
    else:
        from .curves import resample_curve
        init_nodes = resample_curve(init, n_seg).points
    obj = _PolylineObjective(model, k, p, x1, n_seg, pc)
    x = init_nodes[1:-1].ravel().copy()
    obj.validate_gradient(x)

    h1 = _h1_preconditioner(n_seg)
    energy = obj.energy(x)
    for it in range(max_iters):
        g = obj.gradient(x)
        gn = float(np.linalg.norm(g))
        if gn < gtol:
            break
        d = -h1.solve(g.reshape(n_seg - 1, m)).ravel()
        slope = float(g @ d)
        if slope >= 0.0:
            d = -g
            slope = -gn * gn
        lam = 1.0
        for _ in range(40):
            try:
                e_new = obj.energy(x + lam * d)
            except OutsideUk:
                lam *= 0.5
                continue
            if e_new <= energy + 1e-4 * lam * slope:
                break
            lam *= 0.5
        else:
            raise Stalled(f"no descent step found at iteration {it} (|g| = {gn:.3e})")
        x = x + lam * d
        energy = e_new
    else:
        raise Stalled(f"gradient norm {gn:.3e} after {max_iters} iterations")

    nodes = obj.nodes(x)
    # horizontal lift of the quotient polyline: reconstruct nodal velocities
    grid = np.linspace(0.0, 1.0, n_seg + 1)
    vels = horizontal_part(model, nodes, _CubicSpline(grid, nodes).at_knots(1))
    poly = Curve(grid=grid, points=nodes, velocities=vels)
    raw = conformal_energy(model, k, poly)
    return DiscreteCandidate(polyline=poly, T_estimate=float(np.sqrt(2.0 * raw)),
                             constraint_penalty=float(penalized_energy(model, k, poly, pc) - raw))


def fd_variation_family(model: SpacetimeModel, sol: BrachistochroneSolution,
                        direction_perturbation, s_values,
                        config: IntegratorConfig = IntegratorConfig()) -> list:
    """Re-integrate from perturbed launch data on the constraint manifold.

    ``direction_perturbation`` is a pair (du, dT): a chart vector tilting the
    launch direction and a travel-time rate.  Yields one solution per entry of
    ``s_values`` (s = 0 returns the base solution itself).
    """
    du, dT = direction_perturbation
    du = np.asarray(du, dtype=float)
    q = sol.sigma.points[0]
    u0 = horizontal_unit(model, q, sol.sigma.velocities[0])
    out = []
    for s in np.atleast_1d(s_values):
        if s == 0.0:
            out.append(sol)
            continue
        u = horizontal_unit(model, q, u0 + s * du)
        out.append(integrate_brachistochrone(model, sol.k, q, u, sol.T + s * dT, config))
    return out


def constrained_curve_family(model: SpacetimeModel, sol: BrachistochroneSolution,
                             coeffs, s: float,
                             n_out: int | None = None) -> BrachistochroneSolution:
    """A constraint-exact curve through the solution, bent by a smooth bump.

    The deformed horizontal curve is perturbed in the chart, re-horizontalized,
    reparametrized to constant conformal speed, and lifted back.  Every member
    satisfies the conservation constraints and shares both endpoint orbits, so
    finite differences of the travel time along the family probe the
    variational formulas directly.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    w = deform_D(model, sol, n_out=n_out)
    grid = w.grid
    eta, deta = sine_bumps(grid, coeffs)
    bent = Curve(grid=grid, points=w.points + s * eta, velocities=w.velocities + s * deta)
    flat = deform_D(model, bent, k=sol.k, check=False)

    # reparametrize to constant conformal speed
    g = model.g(flat.points)
    speeds = np.sqrt(np.maximum(_phi_k(g, sol.k, flat.points) * _inner(
        _riemannian(g), flat.velocities, flat.velocities), 0.0))
    ell = cumulative_integral(flat.grid, speeds)
    total = ell[-1]
    t_of_ell = _CubicSpline(ell, flat.grid)
    new_grid = flat.grid
    t_src = t_of_ell(total * new_grid)
    t_src[0], t_src[-1] = 0.0, 1.0
    pspl = flat.point_spline()
    pts = pspl(t_src)
    rate = total / _CubicSpline(flat.grid, speeds)(t_src)
    vels = pspl(t_src, 1) * rate[:, None]
    const_speed = Curve(grid=new_grid, points=pts, velocities=vels)
    return lift_G(model, sol.k, const_speed)
