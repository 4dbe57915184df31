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
from .dynamics import BrachistochroneSolution, _geodesic_residual, brachistochrone_rhs
from .errors import (ConstraintViolated, FocalEndpoint, FrameDegenerate, NonFiniteHessian,
                     NotCritical, NotGeodesic, NotNormal, NotTangentToGamma)
from .geometry import (ConformalGeometry, SpacetimeModel, conformal_factor,
                       conformal_factor_gradient, conformal_geometry, connection_coeffs,
                       horizontal_part, _conformal_metric,
                       _connection_and_curvature, _coords, _frame_through,
                       _grad_phi_k, _gr_length, _horizontal, _horizontal_frame, _inner, _inner_y,
                       _jacobian_fd, _linearized_conservation, _require_horizontal, _riemannian)
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

    ``spline`` holds A, the coefficient matrix of the linearized travel-time equation
    (``_linearized_matrix``), then g, sigma' and nabla Y = Gamma[..., -1] (``K``), which
    the launch conditions read.  Gamma, RM1 and RM2 stay node arrays.  The second variation
    reads the tidal matrices as forms by R's symmetries, <R(z, s') z, x> = <R(s', z) x, z>,
    as ``ConformalCurveData`` reads ``Braw``: M_ss = sym(g RM1) and M_sy = sym(g RM2)."""

    def __init__(self, model: SpacetimeModel, sol: BrachistochroneSolution):
        self.model = model
        self.sol = sol
        pts, v = sol.sigma.points, sol.sigma.velocities
        self.g = model.g(pts)
        self.y = y = model.y(pts)
        self.gamma, R = _connection_and_curvature(model, pts)
        self.K = self.gamma[..., -1]                          # (nabla_v Y)^a = K[a,b] v^b
        self.N = self.g[..., -1, -1]                          # <Y,Y>
        self.RM1 = np.einsum("nabcd,nb,nc->nad", R, v, v)     # (R(s', V) s')^a = RM1[a, d] V^d
        self.RM2 = np.einsum("nabcd,nb,nc->nad", R, y, v)     # (R(s', V) Y)^a  = RM2[a, d] V^d
        self.M_ss = _sym(self.g @ self.RM1)                   # <R(z, s') z, s'> = z^T M_ss z
        self.M_sy = _sym(self.g @ self.RM2)                   # <R(z, s') z, Y>  = z^T M_sy z
        self.P = self.sol.k ** 2 + self.N

    @cached_property
    def spline(self) -> _NodeSpline:
        return _NodeSpline(self.sol.sigma.grid, dict(A=_linearized_matrix(self), g=self.g,
                                                     v=self.sol.sigma.velocities, K=self.K))


def _linearized_matrix(geom: SolutionGeometry) -> np.ndarray:
    """A at the solution's nodes: the linearized travel-time equation is x' = A x on the
    augmented states x = (V, DV, C_V), DV covariant, with C_V constant (A's last row is
    zero).  The right-hand side is homogeneous linear in x, so on the identity rows it
    gives A's columns.  d(nabla Y)/dt is the slope at the nodes of nabla Y's spline."""
    k, T, m = geom.sol.k, geom.sol.T, geom.model.m
    K = np.ascontiguousarray(geom.K)   # a product's bits depend on its factors' layout
    dK = _CubicSpline(geom.sol.sigma.grid, K).at_knots(1)
    kk = k * k
    X = np.eye(2 * m + 1)
    V, DV, C_V = X[:, :m], X[:, m:2 * m], X[:, 2 * m]
    g, v = geom.g, geom.sol.sigma.velocities[:, None, :]   # v as a row
    N = geom.N[:, None]             # one value per node, against one per row
    P = kk + N
    NP = N * P
    GvT = (v[:, None] @ geom.gamma)[..., 0, :].mT   # V @ GvT = Gamma(s', V)
    KT = K.mT
    gy = g[..., :, -1:]             # g Y, a column
    Kv = v @ KT                     # nabla_{s'} Y, a row
    W = (Kv @ gy)[..., 0]
    KV = V @ KT                     # nabla_V Y
    dN = 2.0 * (KV @ gy)[..., 0]
    dNP = dN * (N + P)
    dT = -C_V / k
    Vdot = DV - V @ GvT
    # nabla_{s'} (nabla_V Y) along the curve
    nsKV = V @ dK.mT + Vdot @ KT + KV @ GvT
    dW = (nsKV @ gy + KV @ (g @ Kv.mT))[..., 0]
    R1V = V @ geom.RM1.mT           # R(s', V) s'
    R2V = V @ geom.RM2.mT           # R(s', V) Y
    L = ((2.0 * kk * (dW / NP - W * dNP / NP ** 2))[..., None] * v
         + (2.0 * kk * (W / NP))[..., None] * DV
         + (2.0 * k * (dT / N - T * dN / N ** 2))[..., None] * Kv
         + (2.0 * k * T / N)[..., None] * (nsKV - R2V)
         - (2.0 * k * T * (W / NP))[..., None] * KV)
    L[..., -1] -= 2.0 * k * (dT * W / NP + T * dW / NP - T * W * dNP / NP ** 2)  # Y = e_last
    dDV = R1V - L - DV @ GvT
    return np.concatenate([Vdot, dDV, np.zeros(dDV.shape[:-1] + (1,))], axis=-1).mT


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

    ``spline`` holds g~ and B, then A = Gamma~(w', .) and ``Braw``, the two that the Jacobi
    equation reads, then w', the Lorentzian g and nabla Y (``K``), the three that the
    restricted Hessian modes read on their own; the Hessian assembly and the Jacobi solves
    sample it.  Gamma~ stays a node array."""

    def __init__(self, confgeom: ConformalGeometry, w: Curve, check: bool = True):
        self.confgeom = confgeom
        self.w = w
        model, k = confgeom.model, confgeom.k
        pts, v = w.points, w.velocities
        g, G = model.g(pts), connection_coeffs(model, pts)   # gives g~, g and K
        if check:
            res = _geodesic_residual(g, G, k, w)
            speed2 = max(float(v[0] @ _riemannian(g[0]) @ v[0]), 1e-300)
            if res > _GEODESIC_TOL * (1.0 + speed2):
                raise NotGeodesic(f"curve is not a conformal geodesic: residual {res:.2e}")
        self.gt = _conformal_metric(g, k, pts)
        self.gamma, R = confgeom.curvature(pts)          # Gamma~, the stencil's centre
        self.Kt = self.gamma[..., -1]                      # conformal nabla Y
        # (R(v,w)u)^a = R^a_{bcd} u^b v^c w^d; R~(w',J)w' -> R^a_{bcd} v^b v^c J^d
        self.Braw = np.einsum("nabcd,nb,nc->nad", R, v, v)
        del R                                              # freed before the spline is built
        self.B = _sym(self.gt @ self.Braw)                 # g~(R~(w',z)w', x) = z^T B x
        self.spline = _NodeSpline(w.grid, dict(
            gt=self.gt, B=self.B, A=np.einsum("nabc,nb->nac", self.gamma, v), Braw=self.Braw,
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


def assemble_hessian(data: ConformalCurveData, boundary_conditions: str,
                     n_basis: int) -> HessianMatrix:
    """Galerkin matrix of the energy Hessian on nodal P1 fields.

    ``data.w`` runs from the observer line to the event.  Modes:

    * ``full``: fields with V(0) parallel to Y and V(1) = 0;
    * ``horizontal``: additionally tangent to the horizontal-curve manifold
      (the Y-component is reconstructed from that first-order condition);
    * ``perpendicular``: additionally pointwise orthogonal to the velocity.

    A field hat D_a, D the chart axes (full mode) or the ``_frame_perp`` frames, has the
    value hv D and the covariant derivative hs D + hv (D' + A D), A = Gamma~(w').  The
    2r x 2r blocks of the two hats alive at each Gauss point, summed per element, make the
    block-tridiagonal nodal matrix; its interior nodes (node-major) are the dofs, then
    hat_0 Y in the full mode.  A restricted field adds hv rate Y to its derivative, and
    its Y-component lambda Y to its value (lambda A Y to its derivative): that part, not
    local, enters as Lam C^T + C Lam^T + Lam diag(s) Lam^T on (dof, Gauss point) arrays.
    """
    if boundary_conditions not in ("full", "horizontal", "perpendicular"):
        raise ValueError(f"unknown boundary condition set '{boundary_conditions}'")
    if n_basis < 2:
        raise ValueError(f"n_basis must be at least 2, got {n_basis}")
    m, n, h = data.confgeom.m, n_basis, 1.0 / n_basis
    nodes = np.linspace(0.0, 1.0, n + 1)
    xi = 0.5 + np.array([-0.5, 0.5]) / np.sqrt(3.0)      # the two Gauss points of [0, 1]
    tq, wq = ((np.arange(n)[:, None] + xi) * h).ravel(), 0.5 * h
    # the cached node data, interpolated: no curvature at the quadrature points
    at_q = data.spline.sample(tq)
    gt, B = at_q["gt"], at_q["B"]
    A = at_q["A"]      # nabla~_{w'} X = X' + A X
    y = np.eye(m)[-1]  # Y = e_last, constant along the curve: dY = 0

    if boundary_conditions == "full":
        D, dD = np.broadcast_to(np.eye(m), (tq.size, m, m)), 0.0
    else:
        at_nodes = data.spline.sample(nodes)
        frames = _frame_perp(at_nodes["g"], at_nodes["v"], boundary_conditions == "perpendicular")
        fr_spl = _CubicSpline(nodes, frames.reshape(nodes.size, -1))
        D, dD = (fr_spl(tq, nu).reshape(tq.size, -1, m) for nu in (0, 1))

        # Lorentzian 2 <D_a, nabla_w' Y> / <Y,Y> along the curve: hat D_a + lambda Y is
        # horizontal to first order when lambda' = hat rate[a]
        def rate(at, frames):
            g = at["g"]
            Kv = np.einsum("qab,qb->qa", at["K"], at["v"])  # nabla_{w'} Y
            return 2.0 * np.einsum("qca,qab,qb->qc", frames, g, Kv) / g[:, -1, -1][:, None]

        dD = dD + rate(at_q, D)[..., None] * y
        fine = np.linspace(0.0, 1.0, 4 * n + 1)
        rate_f = rate(data.spline.sample(fine, names=("v", "g", "K")),
                      fr_spl(fine).reshape(fine.size, -1, m))
        hat_f = np.maximum(1.0 - np.abs(fine[:, None] - nodes[1:-1]) / h, 0.0)
        # the Y-components, vanishing at the event end, at the Gauss points and the
        # observer end, off one antiderivative
        lam = _CubicSpline(fine, (hat_f[:, :, None] * rate_f[:, None]).reshape(fine.size, -1)
                           ).antiderivative()
        Lam, lam_0 = (lam(tq) - lam(1.0)).T, lam(0.0) - lam(1.0)
        del lam, rate_f, hat_f
    r = D.shape[1]

    # the fields of the two hats alive at each Gauss point, (point, hat x direction, m)
    hv = np.tile(np.stack([1.0 - xi, xi], axis=1), (n, 1))[:, :, None, None]
    hs = np.array([-1.0, 1.0])[:, None, None] / h
    F = (hv * D[:, None]).reshape(tq.size, 2 * r, m)
    G = (hs * D[:, None] + hv * (dD + D @ A.mT)[:, None]).reshape(tq.size, 2 * r, m)
    blocks = (wq * (G @ gt @ G.mT + F @ B @ F.mT)).reshape(n, 2, 2, r, 2, r).sum(axis=1)
    nodal, e = np.zeros((n + 1, r, n + 1, r)), np.arange(n)
    for i, j in np.ndindex(2, 2):
        nodal[e + i, :, e + j] += blocks[:, i, :, j]
    nodal = nodal.reshape((n + 1) * r, (n + 1) * r)
    if boundary_conditions == "full":
        dofs = np.r_[m:n * m, m - 1]   # interior nodes node-major, then hat_0 Y
        Hmat, V0s = nodal[np.ix_(dofs, dofs)], np.outer(dofs == m - 1, y)
    else:
        Z = A[..., -1]                                      # A Y
        c = (wq * (G @ (gt @ Z[..., None]) + F @ (B @ y)[..., None])).reshape(n, 2, 2, r)
        C = np.zeros((n + 1, r, n, 2))      # c by node and direction, at the Gauss points
        for i in (0, 1):
            C[e + i, :, e] = c[:, :, i].swapaxes(1, 2)
        C = C.reshape((n + 1) * r, tq.size)[r:n * r]
        s = wq * (np.einsum("qa,qab,qb->q", Z, gt, Z) + B[:, -1, -1])
        Hmat = nodal[r:n * r, r:n * r] + Lam @ C.T + C @ Lam.T + (Lam * s) @ Lam.T
        V0s = lam_0[:, None] * y
    del nodal
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

    # the linearized laws of the seed and of Z: a and b below make those of zeta0 + a Y + b Z
    # equal C and T C / k (Z is horizontal, and a Y adds a' <Y,Y> to the first only)
    P0, Q0 = _linearized_conservation(geom.g, geom.K, vels, zeta0, nz0)
    beta_P, nabla_Z_s = _linearized_conservation(geom.g, geom.K, vels, Z, nabla_Z)
    Zs = _inner(geom.g, Z, vels)

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
