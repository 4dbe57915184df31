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

from .curves import Curve, _CubicSpline, cumulative_integral, sine_bumps
from .dynamics import (BrachistochroneSolution, IntegratorConfig,
                       integrate_brachistochrone)
from .errors import GradientMismatch, OutsideUk, Stalled
from .geometry import (SpacetimeModel, connection_coeffs, horizontal_part, horizontal_unit,
                       _coords, _dyy, _horizontal, _inner, _phi_k, _phi_k_derivative,
                       _riemannian)
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
    """Conformal energy plus the boundary barrier, by nodal quadrature.  Psi_k > 0 at every
    node by then: ``conformal_energy`` raises OutsideUk wherever it is not."""
    energy = conformal_energy(model, k, w)
    barrier = pc.chi(1.0 / psi_k(model, k, w.points) ** 2)
    if np.all(barrier == 0.0):
        return energy
    return energy + float(np.trapezoid(barrier, w.grid))


class _PolylineObjective:
    """Energy of the horizontal projection of a polyline, with its gradient.

    On a segment with midpoint q and velocity v the energy density is
    v^T M v with M = phi_k P^T g_R P, P the projection along Y.  Since the
    horizontal part h = P v is g-orthogonal to Y, this is phi_k <h, h> and
    M v = phi_k g h.  The gradient is read off g and Gamma: at fixed v,
    d_c <h, h> = (d_c g)(h, h), as h is g-orthogonal to Y, and
    d_c g_ab = Gamma_{a,cb} + Gamma_{b,ca}, so d_c <h, h> = 2 <h, Gamma(e_c, h)>;
    d<Y,Y> = 2 Gamma_{m,m.} gives d phi_k and the barrier's d Psi_k.
    """

    def __init__(self, model, k, x0, x1, n_seg, pc: PenaltyConfig):
        self.model = model
        self.k = k
        self.x0 = x0
        self.x1 = x1
        self.n = n_seg
        self.pc = pc
        self.dt = 1.0 / n_seg

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

    def _density_slopes(self, q, v):
        """(d_q, d_v / 2) of ``_density`` at q and v: the q-gradient of phi_k <h, h> at
        fixed v, and M v = phi_k g h."""
        g, G = self.model.g(q), connection_coeffs(self.model, q)
        h = _horizontal(g, v)
        gh = np.einsum("nab,nb->na", g, h)
        phi, dphi = _phi_k_derivative(g, G, self.k, q)
        dhh = 2.0 * np.einsum("nd,ndcb,nb->nc", gh, G, h)   # d <h, h>
        return dphi * _inner(g, h, h)[:, None] + phi[:, None] * dhh, phi[:, None] * gh

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
        model, k = self.model, self.k
        grad = np.zeros((self.n + 1, model.m))
        dq, Mv = self._density_slopes(mid, v)
        dM = 0.25 * self.dt * dq   # the metric's variation through the midpoint
        grad[:-1] += dM - Mv
        grad[1:] += dM + Mv
        # barrier, on the interior nodes where it is switched on
        inner = nodes[1:-1]
        psi = psi_k(model, k, inner)
        cp = self.pc.chi_prime(1.0 / psi ** 2)
        on = cp != 0.0
        if on.any():
            q = inner[on]
            dpsi = _dyy(model.g(q), connection_coeffs(model, q))
            grad[1:-1][on] += (self.dt * cp[on] * (-2.0 / psi[on] ** 3))[:, None] * dpsi
        return grad[1:-1].ravel()

    def validate_gradient(self, interior, n_checks: int = 6, tol: float = 1e-6):
        """GradientMismatch unless the gradient's slope along ``n_checks`` random unit
        directions matches central differences of the energy: a check of the model's
        Christoffels, which the gradient reads, against its metric, which the energy
        reads.  Each direction moves every node along every axis, so an axis whose
        Christoffels are wrong cannot go unchecked."""
        g = self.gradient(interior)
        rng = np.random.default_rng(0)
        scale = 1.0 + float(np.max(np.abs(g)))
        h = 1e-6
        for _ in range(n_checks):
            e = rng.standard_normal(g.size)
            e /= np.linalg.norm(e)
            fd = (self.energy(interior + h * e) - self.energy(interior - h * e)) / (2.0 * h)
            if abs(fd - g @ e) > tol * scale:
                raise GradientMismatch(
                    f"gradient check failed: slope {g @ e:.3e} vs difference {fd:.3e}; "
                    f"do the Christoffels of '{self.model.name}' belong to its metric?")


def _h1_solve(r: np.ndarray) -> np.ndarray:
    """The solution x of the discrete H1 form n tridiag(-1, 2, -1) x = r on the n - 1
    interior nodes of n segments, for right-hand sides r of shape (n - 1, columns).

    With x_0 = x_n = 0 the differences d_i = x_i - x_{i-1} satisfy
    d_{i+1} = d_i - r_i / n, so x_i = (i C - sum_{k<i} S_k) / n for the cumulative sums
    S_i = r_1 + ... + r_i and C = (S_1 + ... + S_{n-1}) / n, which x_n = 0 fixes."""
    n = r.shape[0] + 1
    S = np.cumsum(r, axis=0)
    C = S.sum(axis=0) / n
    return (np.arange(1, n)[:, None] * C - (np.cumsum(S, axis=0) - S)) / n


def discrete_minimize(model: SpacetimeModel, p, gamma_anchor, k: float, n_seg: int,
                      init: Curve | None = None, pc: PenaltyConfig = PenaltyConfig(),
                      gtol: float = 1e-7, max_iters: int = 20000) -> DiscreteCandidate:
    """Minimize the (penalized) horizontal energy over polylines from p to the
    observer orbit.

    The Y-component of every segment velocity is projected out, which makes
    the objective a function on the quotient by the flow; the arrival node can
    therefore be pinned at the anchor.  Descent directions are gradients in
    the curve-space H1 inner product (two cumulative sums), with Armijo
    backtracking; the stopping test is on the plain gradient norm.
    """
    if n_seg < 2 or max_iters < 1:
        raise ValueError(f"need n_seg >= 2 and max_iters >= 1, got {n_seg} and {max_iters}")
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

    energy = obj.energy(x)
    for it in range(max_iters):
        g = obj.gradient(x)
        gn = float(np.linalg.norm(g))
        if gn < gtol:
            break
        d = -_h1_solve(g.reshape(n_seg - 1, m)).ravel()
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
                             coeffs, s: float) -> BrachistochroneSolution:
    """A constraint-exact curve through the solution, bent by a smooth bump.

    The deformed horizontal curve is perturbed in the chart, re-horizontalized,
    reparametrized to constant conformal speed, and lifted back.  Every member
    satisfies the conservation constraints and shares both endpoint orbits, so
    finite differences of the travel time along the family probe the
    variational formulas directly.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    w = deform_D(model, sol)
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
