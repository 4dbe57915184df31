"""First and second variation machinery for the travel time.

Covers the tangent-space constraints of the trial-curve manifold, the travel
time differential, the explicit Hessian of the action functional, the
Riemannian index form and energy Hessian of the conformal metric, and P1
Galerkin discretizations of the latter for Morse index counts.

A function of one curve takes the curve's cache as its only description of it:
``SolutionGeometry`` for a solution, ``ConformalCurveData`` for a conformal geodesic.

Orientation convention: index computations run on curves from the observer
line to the event (the direction-reversed deformation of a solution, which
``index_data`` builds); public solution data stays in the event-to-observer
orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curves import (Curve, FieldAlongCurve, _CubicSpline, _NodeSpline, covariant_nodes,
                     cumulative_integral, grid_integral, sine_bumps)
from .dynamics import BrachistochroneSolution, brachistochrone_rhs, geodesic_residual
from .errors import (ConstraintViolated, FocalEndpoint, FrameDegenerate, NonFiniteHessian,
                     NotCritical, NotGeodesic, NotNormal, NotTangentToGamma)
from .geometry import (ConformalGeometry, SpacetimeModel, conformal_factor,
                       conformal_factor_gradient, conformal_geometry, connection_coeffs,
                       horizontal_part, riemannian_metric_matrix, _conformal_metric,
                       _connection_and_curvature, _coords, _frame_through,
                       _grad_phi_k, _gr_length, _horizontal, _horizontal_frame, _inner, _inner_y,
                       _jacobian_fd, _require_horizontal, _riemannian)
from .transform import _constraint_scan, _require_admissible, deform_D, tangent_constraint_scan

__all__ = [
    "VariationConstraintReport",
    "HessianMatrix",
    "LagrangeMultiplierField",
    "constraint_residual",
    "travel_time_differential",
    "hessian_F_eval",
    "index_form",
    "hessian_E_eval",
    "hessian_E_lorentzian",
    "second_fundamental_form_gamma",
    "assemble_hessian",
    "restricted_index_report",
    "make_admissible_variation",
    "SolutionGeometry",
    "ConformalCurveData",
    "index_data",
]


_CRITICALITY_TOL = 1e-5    # equation residual of a critical curve, relative to 1 + T^2
_GEODESIC_TOL = 1e-4       # geodesic residual of a conformal geodesic, relative to 1 + |w'|^2


# ---------------------------------------------------------------------------
# Cached geometry along curves

def _sym(M):
    return 0.5 * (M + np.swapaxes(M, -1, -2))


class SolutionGeometry:
    """Per-node Lorentzian data along a solution curve, computed once.

    ``spline`` holds Gamma, g, sigma', RM1 and RM2, the coefficients of the linearized
    equation (Y = e_last, <Y,Y> = g[..., -1, -1]), and nabla Y = Gamma[..., -1] (``K``)
    on its own, whose derivative is read alone."""

    def __init__(self, model: SpacetimeModel, sol: BrachistochroneSolution):
        self.model = model
        self.sol = sol
        pts, v = sol.sigma.points, sol.sigma.velocities
        self.g = model.g(pts)
        self.y = y = model.y(pts)
        self.gamma, R = _connection_and_curvature(model, pts)
        self.K = self.gamma[..., -1]                          # (nabla_v Y)^a = K[a,b] v^b
        self.N = self.g[..., -1, -1]                          # <Y,Y>
        # <R(z, v) z, x> with (R(z,v)u)^a = R^a_{bcd} u^b z^c v^d:
        # term = g_{ea} R^a_{bcd} z^b z^c v^d x^e -> quadratic form in z.
        Rv = np.einsum("nabcd,nd->nabc", R, v)                # R^a_{bc.} v
        gv, gy = np.einsum("nab,nb->na", self.g, v), self.g[..., :, -1]
        self.M_ss = _sym(np.einsum("na,nabc->nbc", gv, Rv))   # <R(z, s') z, s'> = z^T M_ss z
        self.M_sy = _sym(np.einsum("na,nabc->nbc", gy, Rv))   # <R(z, s') z, Y>  = z^T M_sy z
        self.RM1 = np.einsum("nabcd,nb,nc->nad", R, v, v)     # (R(s', V) s')^a = RM1[a, d] V^d
        self.RM2 = np.einsum("nabcd,nb,nc->nad", R, y, v)     # (R(s', V) Y)^a  = RM2[a, d] V^d
        self.P = self.sol.k ** 2 + self.N

    @cached_property
    def spline(self) -> _NodeSpline:
        return _NodeSpline(self.sol.sigma.grid, dict(gamma=self.gamma, g=self.g,
                                                     v=self.sol.sigma.velocities,
                                                     RM1=self.RM1, RM2=self.RM2, K=self.K))


@dataclass
class VariationConstraintReport:
    C_zeta: float
    residual_Y: float
    residual_speed: float
    boundary_ok: bool


@dataclass
class LagrangeMultiplierField:
    lam: float
    mu: np.ndarray


def lagrange_multiplier_field(model: SpacetimeModel, sol: BrachistochroneSolution
                              ) -> LagrangeMultiplierField:
    """The multiplier pair of a critical curve: lambda = 0, mu = 1/(2(k^2+<Y,Y>))."""
    mu = 1.0 / (2.0 * (sol.k ** 2 + model.g(sol.sigma.points)[:, -1, -1]))
    return LagrangeMultiplierField(lam=0.0, mu=mu)


def constraint_residual(model: SpacetimeModel, sol: BrachistochroneSolution,
                        zeta: FieldAlongCurve) -> VariationConstraintReport:
    """Check a field against the tangent-space constraints of the trial manifold."""
    C, r_y, r_s, nz = tangent_constraint_scan(model, sol, zeta)
    scale = 1.0 + float(np.max(np.abs(zeta.values))) + float(np.max(np.abs(nz)))
    q1 = sol.sigma.points[-1]
    perp = horizontal_part(model, q1, zeta.values[-1])
    boundary_ok = (float(np.linalg.norm(zeta.values[0])) <= 1e-7 * scale
                   and float(_gr_length(model.g(q1), perp)) <= 1e-7 * scale)
    return VariationConstraintReport(
        C_zeta=C,
        residual_Y=float(np.max(np.abs(r_y))),
        residual_speed=float(np.max(np.abs(r_s))),
        boundary_ok=bool(boundary_ok),
    )


def travel_time_differential(model: SpacetimeModel, sol: BrachistochroneSolution,
                             zeta: FieldAlongCurve, tol: float = 1e-4) -> float:
    """dT[zeta] = -C_zeta / k for an admissible variation field."""
    rep = constraint_residual(model, sol, zeta)
    scale = 1.0 + float(np.max(np.abs(zeta.values)))
    if rep.residual_Y > tol * scale or rep.residual_speed > tol * scale or not rep.boundary_ok:
        raise ConstraintViolated(
            f"variation field fails tangent constraints: "
            f"rY={rep.residual_Y:.2e} rS={rep.residual_speed:.2e} bnd={rep.boundary_ok}")
    return -rep.C_zeta / sol.k


# ---------------------------------------------------------------------------
# Hessian of the action functional (explicit second variation)

def _hessian_F_quadratic(geom: SolutionGeometry, zeta: FieldAlongCurve) -> float:
    model, sol = geom.model, geom.sol
    curve = sol.sigma
    grid = curve.grid
    nz = covariant_nodes(curve, geom.gamma, zeta)
    z = zeta.values
    ratio = geom.N / geom.P
    term1 = (np.einsum("na,nab,nb->n", nz, geom.g, nz)
             + np.einsum("na,nab,nb->n", z, geom.M_ss, z))
    dzy = np.einsum("nab,nb->na", geom.K, z)            # nabla_zeta Y
    term2 = (np.einsum("na,nab,nb->n", nz, geom.g, dzy)
             + np.einsum("na,nab,nb->n", z, geom.M_sy, z))
    integrand = ratio * term1 + (2.0 * sol.k * sol.T / geom.P) * term2
    total = grid_integral(grid, integrand)
    a_z = float(z[-1] @ geom.g[-1] @ geom.y[-1]) / geom.N[-1]
    boundary = (ratio[-1] * a_z ** 2                      # (nabla_Y Y)^a = K[a, -1]
                * float(geom.K[-1, :, -1] @ geom.g[-1] @ curve.velocities[-1]))
    return float(total + boundary)


def hessian_F_eval(geom: SolutionGeometry, z1: FieldAlongCurve, z2: FieldAlongCurve,
                   constraint_tol: float = 1e-4) -> float:
    """Second variation of the action functional at the critical curve ``geom.sol``.

    Bilinear values come from the quadratic form by polarization, so symmetry
    is structural.
    """
    sol = geom.sol
    if sol.residual_ode > _CRITICALITY_TOL * (1.0 + sol.T ** 2):
        raise NotCritical(f"curve is not critical: equation residual {sol.residual_ode:.2e}")
    for z in (z1,) if z1 is z2 else (z1, z2):
        _require_admissible(_constraint_scan(sol, geom.g, geom.gamma, z), constraint_tol,
                            1.0 + float(np.max(np.abs(z.values))))
    if z1 is z2:
        return _hessian_F_quadratic(geom, z1)
    plus = FieldAlongCurve(host=sol.sigma, values=z1.values + z2.values,
                           derivatives=None if (z1.derivatives is None or z2.derivatives is None)
                           else z1.derivatives + z2.derivatives)
    minus = FieldAlongCurve(host=sol.sigma, values=z1.values - z2.values,
                            derivatives=None if (z1.derivatives is None or z2.derivatives is None)
                            else z1.derivatives - z2.derivatives)
    return 0.25 * (_hessian_F_quadratic(geom, plus) - _hessian_F_quadratic(geom, minus))


# ---------------------------------------------------------------------------
# Conformal-side index form and energy Hessian

class ConformalCurveData:
    """Per-node conformal data along a curve (metric, Christoffels, tidal matrix).

    ``spline`` holds q, g~ and B, then Gamma~, ``Braw`` and w', the three that the Jacobi
    equation reads, then next to w' the Lorentzian g and nabla Y (``K``), the three that
    the restricted Hessian modes read on their own; the Hessian assembly and the Jacobi
    solves sample it."""

    def __init__(self, confgeom: ConformalGeometry, w: Curve, check: bool = True):
        self.confgeom = confgeom
        self.w = w
        model, k = confgeom.model, confgeom.k
        if check:
            res = geodesic_residual(model, k, w)
            speed2 = max(float(w.velocities[0] @ riemannian_metric_matrix(model, w.points[0])
                               @ w.velocities[0]), 1e-300)
            if res > _GEODESIC_TOL * (1.0 + speed2):
                raise NotGeodesic(f"curve is not a conformal geodesic: residual {res:.2e}")
        pts, v = w.points, w.velocities
        g, G = model.g(pts), connection_coeffs(model, pts)   # gives g~, g and K
        self.gt = _conformal_metric(g, k, pts)
        self.gamma, R = confgeom.curvature(pts)          # Gamma~, the stencil's centre
        self.Kt = self.gamma[..., -1]                      # conformal nabla Y
        # (R(v,w)u)^a = R^a_{bcd} u^b v^c w^d; R~(w',J)w' -> R^a_{bcd} v^b v^c J^d
        self.Braw = np.einsum("nabcd,nb,nc->nad", R, v, v)
        del R                                              # freed before the spline is built
        self.B = _sym(self.gt @ self.Braw)                 # g~(R~(w',z)w', x) = z^T B x
        self.spline = _NodeSpline(w.grid, dict(
            q=pts, gt=self.gt, B=self.B, gamma=self.gamma, Braw=self.Braw,
            v=v, g=g, K=G[..., -1]))

    def covariant_nodes(self, field: FieldAlongCurve) -> np.ndarray:
        return covariant_nodes(self.w, self.gamma, field)


def index_form(data: ConformalCurveData, v1: FieldAlongCurve, v2: FieldAlongCurve) -> float:
    """Symmetric index form of the conformal energy along the geodesic ``data.w``."""
    n1 = data.covariant_nodes(v1)
    n2 = data.covariant_nodes(v2)
    integrand = (np.einsum("na,nab,nb->n", n1, data.gt, n2)
                 + np.einsum("na,nab,nb->n", v1.values, data.B, v2.values))
    return float(grid_integral(data.w.grid, integrand))


def _boundary_2ff(data: ConformalCurveData, a1: np.ndarray, a2: np.ndarray):
    """Shape term at the observer end for fields with V(0) parallel to Y.

    Equals -g~(w'(0), nabla~_{V1(0)} V2): tensorial because V(0) is tangent to
    the observer line and w'(0) normal to it.  ``a1`` and ``a2`` are V(0)
    vectors, or stacks of them as rows; the result is their outer table.
    """
    gt0 = data.gt[0]
    y0 = np.eye(gt0.shape[-1])[-1]
    yy = float(y0 @ gt0 @ y0)
    y_dot = float(y0 @ gt0 @ (data.Kt[0] @ data.w.velocities[0]))   # g~(Y, nabla~_{w'} Y)
    return np.multiply.outer(a1 @ gt0 @ y0, a2 @ gt0 @ y0) * (y_dot / yy ** 2)


def hessian_E_eval(data: ConformalCurveData, v1: FieldAlongCurve, v2: FieldAlongCurve) -> float:
    """Energy Hessian at a geodesic from the observer line to the event.

    ``data.w`` runs from the observer line to the event (orthogonal start); fields
    must be tangent to that boundary setup for the shape term to apply.
    """
    return index_form(data, v1, v2) + float(_boundary_2ff(data, v1.values[0], v2.values[0]))


def hessian_E_lorentzian(model: SpacetimeModel, k: float, w: Curve,
                         v: FieldAlongCurve) -> float:
    """Energy Hessian evaluated through Lorentzian data (cross-check form).

    Here ``w`` runs from the event to the observer line; the shape term sits
    at t = 1.  Quadratic form only.
    """
    grid, pts, vel = w.grid, w.points, w.velocities
    vals = v.values
    G, R = _connection_and_curvature(model, pts)
    nv = covariant_nodes(w, G, v)

    g, phi = model.g(pts), conformal_factor(model, pts, k)
    # <R(V, w') V, w'>
    curv = np.einsum("na,nab,nbcde,nc,nd,ne->n", vel, g, R, vals, vals, vel)
    grad_phi = _grad_phi_k(g, G, k, pts)
    # <nabla_V grad(phi_k), V>, one difference of the closed-form gradient
    Hphi = _jacobian_fd(lambda x: conformal_factor_gradient(model, x, k), pts, model.fd_step)
    nabla_grad = (np.einsum("nab,nb->na", Hphi, vals)
                  + np.einsum("nabc,nb,nc->na", G, vals, grad_phi))
    integrand = (phi * (_inner(g, nv, nv) + curv)
                 + 2.0 * _inner(g, grad_phi, vals) * _inner(g, nv, vel)
                 + 0.5 * _inner(g, nabla_grad, vals) * _inner(g, vel, vel))
    total = grid_integral(grid, integrand)
    # shape term of the observer line at the arrival end: nu^2 <nabla_Y Y, w'> for V = nu Y
    nu = float(_inner_y(g[-1], vals[-1]) / g[-1, -1, -1])
    return float(total + phi[-1] * nu * nu * float(G[-1, :, -1, -1] @ g[-1] @ vel[-1]))


def second_fundamental_form_gamma(model: SpacetimeModel, q_on_gamma, n, v1, v2) -> float:
    """Shape tensor of the observer line: nu1 nu2 <nabla_Y Y, n> for v_i = nu_i Y.  n must be
    horizontal (g_R cosine with Y <= 1e-8), each v_i have |horizontal part|_R <= 1e-8 |v_i|_R."""
    q = _coords(q_on_gamma)
    g = model.g(q)
    n = _coords(n)
    _require_horizontal(g, n, 1e-8, "direction vector", NotNormal)
    nus = []
    for v in (v1, v2):
        v = _coords(v)
        if _gr_length(g, _horizontal(g, v)) > 1e-8 * _gr_length(g, v):
            raise NotTangentToGamma("vector is not tangent to the observer line")
        nus.append(float(_inner_y(g, v)) / float(g[-1, -1]))
    return nus[0] * nus[1] * float(connection_coeffs(model, q)[:, -1, -1] @ g @ n)


# ---------------------------------------------------------------------------
# Discretized Morse indices

@dataclass
class HessianMatrix:
    basis: str
    entries: np.ndarray
    n_negative: int
    n_zero: int
    eps_eig: float

    def eigenvalues(self) -> np.ndarray:
        return _eigenvalues(self.entries)


def _eigenvalues(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix.  LAPACK returns numbers for a matrix
    with a NaN entry, so a non-finite entry raises ``NonFiniteHessian`` first."""
    if not np.isfinite(H).all():
        raise NonFiniteHessian("the discretized Hessian has a non-finite entry")
    return np.linalg.eigvalsh(H)


def _frame_perp(g: np.ndarray, vels: np.ndarray, drop_velocity: bool) -> np.ndarray:
    """g_R-orthonormal frames orthogonal to Y (and optionally to w') at the nodes of g, each row's
    sign continued along the curve by the signs of consecutive frames' g_R products."""
    gr = _riemannian(g)
    E = _horizontal_frame(g)
    if drop_velocity:
        u = _horizontal(g, vels)
        nn = _gr_length(g, u)
        if not (nn > 1e-8).all():
            raise FrameDegenerate("could not complete an orthonormal frame")
        E = _frame_through(gr, u / nn[:, None], E)[:, 1:]
    turn = np.einsum("nia,nab,nib->ni", E[1:], gr[1:], E[:-1]) < 0.0
    E[1:] *= np.cumprod(np.where(turn, -1.0, 1.0), axis=0)[..., None]
    return E


def _quad_points(n_el: int):
    """Two-point Gauss nodes and weights on each element of a uniform mesh."""
    h = 1.0 / n_el
    left = np.arange(n_el) * h
    off = 0.5 * h + np.array([-1.0, 1.0]) * (h / (2.0 * np.sqrt(3.0)))
    tq = (left[:, None] + off[None, :]).ravel()
    wq = np.full(tq.size, h / 2.0)
    return tq, wq


def _apply(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M(q) X_d(q) for the fields X, shape (ndof, nq, m), and matrices M, shape (nq, m, m),
    as einsum("qac,dqc->dqa", M, X) gives it, three to four times as fast: per component a,
    elementwise multiply-adds over whole (ndof, nq) arrays, written into an array of X's
    shape.  The even c and the odd c are summed apart and then added, which is the order
    of numpy 2.4's einsum here, so with it the bits are einsum's; einsum in another order
    differs from this by the rounding of the sum only, the bound the tests hold it to."""
    m = M.shape[-1]
    out = np.empty_like(X)
    term, odd = np.empty(X.shape[:-1]), np.empty(X.shape[:-1])
    for a in range(m):
        total = out[..., a]
        np.multiply(M[:, a, 0], X[..., 0], out=total)
        for c in range(2, m, 2):
            total += np.multiply(M[:, a, c], X[..., c], out=term)
        np.multiply(M[:, a, 1], X[..., 1], out=odd)
        for c in range(3, m, 2):
            odd += np.multiply(M[:, a, c], X[..., c], out=term)
        total += odd
    return out


def assemble_hessian(data: ConformalCurveData, boundary_conditions: str,
                     n_basis: int) -> HessianMatrix:
    """Galerkin matrix of the energy Hessian on nodal P1 fields.

    ``data.w`` runs from the observer line to the event.  Modes:

    * ``full``: fields with V(0) parallel to Y and V(1) = 0;
    * ``horizontal``: additionally tangent to the horizontal-curve manifold
      (the Y-component is reconstructed from that first-order condition);
    * ``perpendicular``: additionally pointwise orthogonal to the velocity.
    """
    if boundary_conditions not in ("full", "horizontal", "perpendicular"):
        raise ValueError(f"unknown boundary condition set '{boundary_conditions}'")
    if n_basis < 2:
        raise ValueError(f"n_basis must be at least 2, got {n_basis}")
    m = data.confgeom.m

    tq, wq = _quad_points(n_basis)
    nodes = np.linspace(0.0, 1.0, n_basis + 1)
    # the cached node data, interpolated: no curvature at the quadrature points
    at_q = data.spline.sample(tq)
    nq = tq.size
    y = np.eye(m)[-1]  # Y = e_last, constant along the curve: dY = 0

    def hats(ts):
        """Values and slopes of all nodal hats at the given parameters."""
        idx = np.clip(np.searchsorted(nodes, ts, side="right") - 1, 0, n_basis - 1)
        h = 1.0 / n_basis
        local = (ts - nodes[idx]) / h
        vals = np.zeros((ts.size, n_basis + 1))
        slopes = np.zeros((ts.size, n_basis + 1))
        rows = np.arange(ts.size)
        vals[rows, idx] = 1.0 - local
        vals[rows, idx + 1] = local
        slopes[rows, idx] = -1.0 / h
        slopes[rows, idx + 1] = 1.0 / h
        return vals, slopes

    hat_v, hat_s = hats(tq)
    interior = slice(1, n_basis)
    # interior hats as (node, 1, nq, 1), to broadcast against (direction, nq, m)
    hv, hs = (h[:, interior].T[:, None, :, None] for h in (hat_v, hat_s))

    # Basis fields at the quadrature points, shape (ndof, nq, m), interior nodes
    # first (node-major); their values at the observer end go to V0s.  The hat
    # products are made in C order: a broadcast product is laid out node axis
    # innermost, and every reshape of it, the Galerkin products' included, copied it.
    if boundary_conditions == "full":
        # nodal fields hat_j e_a, then the observer-end field hat_0 Y
        axes = np.eye(m)[:, None, :]
        Vs, dVs = (np.multiply(h, axes, order="C").reshape(-1, nq, m) for h in (hv, hs))
        V_y = hat_v[:, 0][:, None] * y
        dV_y = hat_s[:, 0][:, None] * y
        Vs = np.concatenate([Vs, V_y[None]])
        dVs = np.concatenate([dVs, dV_y[None]])
        V0s = np.zeros((Vs.shape[0], m))
        V0s[-1] = y
    else:
        drop_velocity = boundary_conditions == "perpendicular"
        at_nodes = data.spline.sample(nodes)
        frames_nodes = _frame_perp(at_nodes["g"], at_nodes["v"], drop_velocity)
        keep = frames_nodes.shape[1]
        fr_spl = _CubicSpline(nodes, frames_nodes.reshape(nodes.size, -1))
        frames_q = fr_spl(tq).reshape(nq, keep, m)
        dframes_q = fr_spl(tq, 1).reshape(nq, keep, m)

        # Lorentzian 2 <E_a, nabla_w' Y> / <Y,Y> along the curve, for the
        # first-order horizontality condition on the Y-component.
        def rate(at, frames):
            g = at["g"]
            Kv = np.einsum("qab,qb->qa", at["K"], at["v"])  # nabla_{w'} Y
            return 2.0 * np.einsum("qca,qab,qb->qc", frames, g, Kv) / g[:, -1, -1][:, None]

        # rate for a field c(t) E_a(t): lambda' = c(t) * rate[a](t)
        rate_q = rate(at_q, frames_q)
        fine = np.linspace(0.0, 1.0, 4 * n_basis + 1)
        hat_vf, _ = hats(fine)
        rate_f = rate(data.spline.sample(fine, names=("v", "g", "K")),
                      fr_spl(fine).reshape(fine.size, keep, m))

        def y_components():
            """Y-components from the tangency condition, vanishing at the event end, at the
            Gauss points and the observer end: one antiderivative, freed on return."""
            lam_rate_f = (hat_vf[:, interior, None] * rate_f[:, None, :]).reshape(fine.size, -1)
            lam = _CubicSpline(fine, lam_rate_f).antiderivative()
            lam_1 = lam(1.0)
            return (lam(tq) - lam_1).T[:, :, None], lam(0.0) - lam_1

        lam_q, lam_0 = y_components()
        lam_rate_q = (hat_v[:, interior, None] * rate_q[:, None, :]).reshape(nq, -1).T[:, :, None]
        # transverse parts hat_j E_a, plus their Y-components
        E, dE = frames_q.transpose(1, 0, 2), dframes_q.transpose(1, 0, 2)
        Vs, dVs = (np.multiply(h, E, order="C") for h in (hv, hs))
        dVs += hv * dE
        Vs, dVs = Vs.reshape(-1, nq, m), dVs.reshape(-1, nq, m)
        Vs += lam_q * y
        dVs += lam_rate_q * y
        V0s = lam_0[:, None] * y

    ndof = Vs.shape[0]
    # covariant derivative along the curve at quadrature points, summed into dVs's array
    nVs = dVs
    nVs += _apply(np.einsum("qabc,qb->qac", at_q["gamma"], at_q["v"]), Vs)
    # Galerkin contraction sum_q wq X_a(q)^T M(q) X_b(q) as one matrix product
    Hmat = np.zeros((ndof, ndof))
    for X, M in ((nVs, at_q["gt"]), (Vs, at_q["B"])):
        Hmat += X.reshape(ndof, -1) @ _apply(M * wq[:, None, None], X).reshape(ndof, -1).T
    Hmat = Hmat + _boundary_2ff(data, V0s, V0s)
    Hmat = 0.5 * (Hmat + Hmat.T)

    evals = _eigenvalues(Hmat)
    scale = float(np.max(np.abs(evals))) if evals.size else 1.0
    eps = 1e-6 * scale
    n_neg = int(np.sum(evals < -eps))
    n_zero = int(np.sum(np.abs(evals) <= eps))
    return HessianMatrix(basis=f"P1/{boundary_conditions}/n={n_basis}", entries=Hmat,
                         n_negative=n_neg, n_zero=n_zero, eps_eig=eps)


def _restricted_hessians(data: ConformalCurveData, n_basis: int) -> tuple:
    """Hessian matrices on the full, horizontal and perpendicular variation spaces.

    Raises ``FocalEndpoint`` at the first mode whose matrix has a zero eigenvalue.
    """
    out = []
    for mode in ("full", "horizontal", "perpendicular"):
        hm = assemble_hessian(data, mode, n_basis)
        if hm.n_zero > 0:
            raise FocalEndpoint(
                f"degenerate Hessian in mode '{mode}' (n_zero = {hm.n_zero})")
        out.append(hm)
    return tuple(out)


def index_data(model: SpacetimeModel, sol: BrachistochroneSolution) -> ConformalCurveData:
    """The curve cache on which the indices of ``sol`` are computed: its deformation, on
    the solution's own grid, run from the observer line to the event."""
    return ConformalCurveData(conformal_geometry(model, sol.k), deform_D(model, sol).reversed())


def restricted_index_report(data: ConformalCurveData, n_basis: int) -> tuple:
    """Morse index on the full, horizontal, and perpendicular variation spaces."""
    return tuple(hm.n_negative for hm in _restricted_hessians(data, n_basis))


# ---------------------------------------------------------------------------
# Admissible variation fields

def make_admissible_variation(geom: SolutionGeometry, rng=None,
                              seed_coeffs=None) -> FieldAlongCurve:
    """Construct a field along ``geom.sol`` satisfying the tangent-space constraints exactly.

    A free smooth seed vanishing at both ends is corrected by components along
    Y and along the horizontal part of the velocity; the correction functions
    solve the two constraint equations, and the admissible constant is fixed
    by the far boundary condition.  Exact covariant derivative values are
    attached.
    """
    model, sol = geom.model, geom.sol
    curve = sol.sigma
    grid = curve.grid
    m = model.m
    k, T = sol.k, sol.T

    if seed_coeffs is None:
        rng = np.random.default_rng(0) if rng is None else rng
        seed_coeffs = rng.standard_normal((3, m)) / np.array([1, 2, 3])[:, None]
    zeta0, dzeta0 = sine_bumps(grid, seed_coeffs)

    vels = curve.velocities
    nz0 = dzeta0 + np.einsum("nabc,nb,nc->na", geom.gamma, vels, zeta0)

    # horizontal part of the velocity and its covariant derivative
    Z = vels + (k * T / geom.N)[:, None] * geom.y
    acc = brachistochrone_rhs(model, k, T, (curve.points, vels))[1]
    nabla_ss = acc + np.einsum("nabc,nb,nc->na", geom.gamma, vels, vels)
    Kv = np.einsum("nab,nb->na", geom.K, vels)          # nabla_{s'} Y
    dN = 2.0 * np.einsum("na,nab,nb->n", Kv, geom.g, geom.y)
    nabla_Z = (nabla_ss + (-k * T * dN / geom.N ** 2)[:, None] * geom.y
               + (k * T / geom.N)[:, None] * Kv)

    gv = np.einsum("nab,nb->na", geom.g, vels)
    gy = geom.g[..., :, -1]
    P0 = np.einsum("na,na->n", nz0, gy) - np.einsum("na,na->n", zeta0,
                                                    np.einsum("nab,nb->na", geom.g, Kv))
    Q0 = np.einsum("na,na->n", nz0, gv)
    beta_P = (np.einsum("na,na->n", nabla_Z, gy)
              - np.einsum("na,na->n", Z, np.einsum("nab,nb->na", geom.g, Kv)))
    Zs = np.einsum("na,na->n", Z, gv)
    nabla_Z_s = np.einsum("na,na->n", nabla_Z, gv)

    alpha = -(k * T * beta_P / geom.N + nabla_Z_s) / Zs
    beta = (-Q0 - k * T * P0 / geom.N) / Zs
    gamma_c = (T / k + k * T / geom.N) / Zs

    A = cumulative_integral(grid, alpha)
    expA = np.exp(A)
    b_beta = expA * cumulative_integral(grid, beta / expA)
    b_gamma = expA * cumulative_integral(grid, gamma_c / expA)
    if abs(b_gamma[-1]) < 1e-12:
        raise ConstraintViolated("variation construction is degenerate (b_gamma(1) = 0)")
    C = -b_beta[-1] / b_gamma[-1]
    b = b_beta + C * b_gamma
    bprime = alpha * b + beta + C * gamma_c
    aprime = (C - P0 - b * beta_P) / geom.N
    a = cumulative_integral(grid, aprime)

    values = zeta0 + a[:, None] * geom.y + b[:, None] * Z
    derivs = (nz0 + aprime[:, None] * geom.y + a[:, None] * Kv
              + bprime[:, None] * Z + b[:, None] * nabla_Z)
    return FieldAlongCurve(host=curve, values=values, derivatives=derivs)
