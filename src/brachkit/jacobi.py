"""Jacobi fields along solutions and along conformal geodesics, focal point
detection, and the correspondence between the two sides.

A function of one curve takes the curve's cache (``SolutionGeometry`` or
``ConformalCurveData``); ``bfocal_points`` builds both for its solution.  Each Jacobi
equation reaches its lanes by one path: a coefficient matrix built once at the curve's
nodes and sampled off the one spline of the cache, A of the linearized travel-time
equation (x' = A x) on the solution side and A = Gamma~(w', .) with ``Braw`` on the
conformal side.  Both equations run on stacked rows, one field per row.  Each solve is
one lane of ``dynamics.ode_lanes`` whose last column is the clock t, read anywhere off
the lane's continuous extension.  Focal points are where eigenvalues of a unitary W(t),
built from the Lagrangian span of the m basis fields, pass through -1, as many as pass
together.  On the solution side they are confirmed through the adjoint of the
linearized equation, R' = -R A, integrated once backward from the event on the same A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import Curve, FieldAlongCurve, _NodeSpline
from .dynamics import BrachistochroneSolution, ode_lanes
from .dynamics import solve_ivp  # unused here; bench/spans.py wraps this binding
from .errors import (ConstraintViolated, FrameDegenerate, InitialConditionViolated,
                     NotCritical, NotOrthogonalStart, StepFailure)
from .geometry import (SpacetimeModel, _coords, _horizontal_frame, _linearized_conservation,
                       _require_horizontal, _riemannian)
from .variation import _CRITICALITY_TOL, ConformalCurveData, SolutionGeometry, index_data

__all__ = [
    "JacobiFieldData",
    "FocalReport",
    "integrate_bjacobi",
    "integrate_rjacobi",
    "gamma_jacobi_basis",
    "focal_points",
    "bfocal_points",
]

_RTOL, _ATOL = 1e-11, 1e-13   # the tolerances of the Jacobi solves
_FOCAL_T_MIN = 0.01     # the focal scan starts here, clear of the zero of J at t = 0
_MAX_TURN = np.pi / 4   # the focal scan divides an interval where an eigenvalue turns further
_SECTIONS = 8           # ... into this many parts at a time
_FOCAL_TOL = 1e-9       # passages this close in t are one focal point; so is one this short at 1


@dataclass
class JacobiFieldData:
    field: FieldAlongCurve
    derivative: FieldAlongCurve
    C_V: float
    drift: float = 0.0   # conserved-quantity drift over the run


@dataclass
class FocalReport:
    focal_list: list          # [(t0, multiplicity)]
    geometric_index: int
    determinant_trace: tuple  # (t samples, det samples)

    def as_dict(self) -> dict:
        return {
            "focal_list": [[float(t), int(m)] for t, m in self.focal_list],
            "geometric_index": int(self.geometric_index),
        }


def _clock_lane(rhs, x0, t0: float, t1: float, what: str):
    """x' = rhs(t, x) from x(t0) = x0 to t1, as one dense ``ode_lanes`` lane whose last
    column is the clock t = t0 + s (t1 - t0), s in [0, 1]: the lane's extension, read at s.

    ``rhs`` takes clocks of shape (n,) and states of shape (n, d): a step's stage is one
    row, the extension's stages of all steps one batch.  A failure to step raises
    StepFailure naming ``what``."""
    rate = t1 - t0

    def fun(Y, lanes):
        out = np.full_like(Y, rate)
        out[:, :-1] *= rhs(Y[:, -1], Y[:, :-1])
        return out

    extensions, _, failures = ode_lanes(fun, np.append(x0, t0)[None], _RTOL, _ATOL, dense=True)
    if failures:
        exc = failures[0]
        raise StepFailure(f"{what} failed: {exc}") if isinstance(exc, StepFailure) else exc
    return extensions[0]


# ---------------------------------------------------------------------------
# Linearized travel-time equation along a solution

def integrate_bjacobi(geom: SolutionGeometry, V0, dV0, t0: float = 0.0) -> JacobiFieldData:
    """Integrate the linearized travel-time equation along ``geom.sol`` from (V0, dV0) at t0
    to 1 (dV0 covariant; the field is zero before t0), its stages reading A off ``geom.spline``.
    The launch must have linearized laws (C_V, T C_V / k); ``drift`` is the largest change of
    the first over the nodes.  ValueError unless 0 <= t0 < 1."""
    if not 0.0 <= t0 < 1.0:
        raise ValueError(f"t0 must lie in [0, 1), got {t0}")
    sol = geom.sol
    d0 = geom.spline.sample(t0, names=("g", "v", "K"))
    V0 = _coords(V0)
    dV0 = _coords(dV0)
    C_V, s0 = (float(x) for x in _linearized_conservation(d0["g"], d0["K"], d0["v"], V0, dV0))
    ic = -sol.T * C_V + sol.k * s0
    scale = 1.0 + float(np.linalg.norm(V0)) + float(np.linalg.norm(dV0))
    if abs(ic) > 1e-6 * scale * (1.0 + sol.T):
        raise InitialConditionViolated(
            f"launch data violates the linearized conservation condition: {ic:.3e}")

    m, spline = geom.model.m, geom.spline
    lane = _clock_lane(lambda t, x: (x[:, None] @ spline.sample(t, names=("A",))["A"].mT)[:, 0],
                       np.concatenate([V0, dV0, [C_V]]), t0, 1.0, "linearized integration")

    grid = sol.sigma.grid
    mask = grid >= t0 - 1e-12
    vals = np.zeros((grid.size, m))
    ders = np.zeros((grid.size, m))
    sampled = lane((grid[mask] - t0) / (1.0 - t0))
    vals[mask] = sampled[:, :m]
    ders[mask] = sampled[:, m:2 * m]
    c_here = _linearized_conservation(geom.g[mask], geom.K[mask], sol.sigma.velocities[mask],
                                      vals[mask], ders[mask])[0]
    return JacobiFieldData(
        field=FieldAlongCurve(host=sol.sigma, values=vals),
        derivative=FieldAlongCurve(host=sol.sigma, values=ders),
        C_V=C_V, drift=float(np.max(np.abs(c_here - C_V), initial=0.0)),
    )


# ---------------------------------------------------------------------------
# Riemannian Jacobi fields along a conformal geodesic

def _rjacobi_lane(spline: _NodeSpline, X0: np.ndarray):
    """The Jacobi equation of g~ on stacked rows (J, DJ), one field per row: all rows of
    X0, shape (n, 2m), in one lane over [0, 1]; its extension, the clock last."""
    n, m = X0.shape[0], X0.shape[1] // 2

    def rhs(t, x):
        X = x.reshape(len(x), n, 2 * m)
        J, DJ = X[..., :m], X[..., m:]
        d = spline.sample(t, names=("A", "Braw"))
        AT = d["A"].mT                  # J @ AT = Gamma~(w', J)
        dDJ = J @ d["Braw"].mT - DJ @ AT
        return np.concatenate([DJ - J @ AT, dDJ], axis=-1).reshape(len(x), -1)

    return _clock_lane(rhs, X0.ravel(), 0.0, 1.0, "Jacobi integration")


def _field_data(w: Curve, lane) -> list:
    """The stacked fields of a Jacobi lane, read on the grid of ``w``."""
    m = w.points.shape[1]
    sampled = lane(w.grid)[:, :-1].reshape(w.grid.size, -1, 2 * m)
    return [JacobiFieldData(field=FieldAlongCurve(host=w, values=sampled[:, i, :m]),
                            derivative=FieldAlongCurve(host=w, values=sampled[:, i, m:]),
                            C_V=0.0) for i in range(sampled.shape[1])]


def integrate_rjacobi(data: ConformalCurveData, J0, dJ0) -> JacobiFieldData:
    """Integrate the Jacobi equation of the conformal metric along the geodesic ``data.w``."""
    X0 = np.concatenate([_coords(J0), _coords(dJ0)])[None]
    return _field_data(data.w, _rjacobi_lane(data.spline, X0))[0]


def _jacobi_basis(data: ConformalCurveData):
    """The one lane of all m basis fields, from a start orthogonal to the line."""
    w = data.w
    _require_horizontal(data.spline.sample(w.grid[0], names=("g",))["g"], w.velocities[0], 1e-6,
                        "geodesic start", NotOrthogonalStart)
    m, gt0 = data.confgeom.m, data.gt[0]
    X0 = np.zeros((m, 2 * m))
    # field tangent to the line at the start: Y, with derivative along Y
    X0[0, m - 1] = 1.0
    X0[0, -1] = -float(w.velocities[0] @ gt0 @ data.Kt[0][:, -1]) / gt0[-1, -1]
    # fields vanishing at the start, derivative orthogonal to Y
    X0[1:, m:] = _horizontal_frame(gt0)
    if np.linalg.svd(X0, compute_uv=False)[-1] <= 1e-8:
        raise FrameDegenerate("initial data for the Jacobi basis is degenerate")
    return _rjacobi_lane(data.spline, X0)


def gamma_jacobi_basis(data: ConformalCurveData) -> list:
    """m independent Jacobi fields along ``data.w`` meeting the observer-line conditions.

    Condition set at the start node: J(0) parallel to Y, and the conserved
    pairing of the derivative with Y matches the shape of the line.
    """
    return _field_data(data.w, _jacobi_basis(data))


def focal_points(data: ConformalCurveData, n_scan: int = 1000) -> FocalReport:
    """Focal points along ``data.w`` on (_FOCAL_T_MIN, 1]: passages of eigenvalues through -1.

    With J, DJ the basis fields of ``gamma_jacobi_basis`` and their derivatives (rows) and
    g~ = L L^T, X = J L and P = DJ L span a Lagrangian subspace: W = (X - iP)^-1 (X + iP) is
    unitary, with -1 an eigenvalue where X is singular, as often as ker X is wide.  Each passes
    -1 clockwise (Duistermaat 1976).  ``determinant_trace`` is det(J L) at the scan nodes.
    ValueError unless the scan has at least one interval (``n_scan`` >= 1).
    """
    if n_scan < 1:
        raise ValueError(f"n_scan must be at least 1, got {n_scan}")
    lane, spline, m = _jacobi_basis(data), data.spline, data.confgeom.m
    cuts = 2.0 * np.pi * np.arange(m + 1) / (m + 1)   # m eigenvalues leave one of them clear
    shifts = (np.arange(m) + np.arange(m)[:, None]) % m

    def eigenvalues(t):
        """W's eigenvalues at an array t, counterclockwise, and X.  Turned by a / 2, the frame
        has P_a^-1 X_a symmetric with eigenvalues cot((theta - a) / 2), read as singular values:
        the package runs no eigenvalue driver of LAPACK, whose code would take more memory."""
        JD = lane(t)[..., :-1].reshape(t.shape + (m, 2 * m))
        L = np.linalg.cholesky(spline.sample(t, names=("gt",))["gt"])
        X, P = JD[..., :m] @ L, JD[..., m:] @ L
        a, far = 0.0, 0.0
        for cut in cuts:
            d = np.abs(np.linalg.det(np.cos(cut / 2) * P - np.sin(cut / 2) * X))
            a, far = np.where(d > far, cut, a), np.maximum(d, far)
        c, s = np.cos(a / 2)[..., None, None], np.sin(a / 2)[..., None, None]
        S = np.linalg.solve(c * P - s * X, c * X + s * P)
        shift = np.linalg.norm(S, axis=(-2, -1))[..., None]   # at least every |eigenvalue|
        kappa = np.linalg.svd(S + S.mT + 2 * shift[..., None] * np.eye(m), compute_uv=False) / 2
        kappa -= shift
        return (np.cos(a) + 1j * np.sin(a))[..., None] * (kappa + 1j) ** 2 / (kappa ** 2 + 1), X

    # An interval of the scan is divided into _SECTIONS while an eigenvalue turns by more than
    # _MAX_TURN across it, or while it holds a passage and is wider than _FOCAL_TOL, where the
    # passage is read off linearly.  Passages that close are one focal point, and so is an
    # eigenvalue that close short of -1 at t = 1.
    ts = np.linspace(_FOCAL_T_MIN, 1.0, n_scan + 1)
    nodes = ts[None]
    lam, X = eigenvalues(nodes)
    found = [np.ones(np.count_nonzero((abs(lam[0, -1] + 1) < _FOCAL_TOL) & (lam[0, -1].imag <= 0)))]
    while True:   # each row of nodes divides an interval still open
        lo, hi = nodes[:, :-1].ravel(), nodes[:, 1:].ravel()
        lam_lo, lam_hi = lam[:, :-1].reshape(-1, m), lam[:, 1:].reshape(-1, m)
        # pair the eigenvalues across each interval by the cyclic shift of least total move
        paired, least = lam_hi, np.inf
        for shift in shifts:
            move = np.abs(lam_hi[:, shift] - lam_lo).sum(axis=-1)
            paired = np.where((move < least)[:, None], lam_hi[:, shift], paired)
            least = np.minimum(move, least)
        cross = ((lam_lo.imag > 0) != (paired.imag > 0)) & (lam_lo.real + paired.real < 0)
        split = ((np.abs(paired - lam_lo) > 2.0 * np.sin(_MAX_TURN / 2)).any(axis=-1)
                 | (cross.any(axis=-1) & (hi - lo > _FOCAL_TOL)))
        i, j = np.nonzero(cross & ~split[:, None])
        wrong = paired.imag[i, j] <= 0
        if wrong.any():
            raise ConstraintViolated(f"W passes -1 counterclockwise at t = {lo[i[wrong][0]]:.9f}")
        found.append(lo[i] + (hi[i] - lo[i]) * lam_lo.imag[i, j] / (lam_lo - paired).imag[i, j])
        if not split.any():
            break
        nodes = np.linspace(lo[split], hi[split], _SECTIONS + 1, axis=-1)
        lam = eigenvalues(nodes)[0]

    at = np.array(sorted(np.concatenate(found)))
    focal = [(float(g.mean()), g.size)
             for g in np.split(at, np.flatnonzero(np.diff(at) > _FOCAL_TOL) + 1) if g.size]
    return FocalReport(focal, int(sum(mu for _, mu in focal)), (ts, np.linalg.det(X[0])))


def _endpoint_rows(geom: SolutionGeometry):
    """R(t) = F Phi(1, t) at any t, the endpoint map of the linearized equation from t.

    F = [E g_R | 0 | 0] reads the g_R-components of V(1) along the horizontal
    frame E at sigma(1).  R solves the adjoint equation dR/dt = -R A(t)
    backward from R(1) = F, so R(t0) x(t0) = F x(1) for every augmented
    solution x; no inversion is needed.  A stage reads A off ``geom.spline``, as the
    stages of ``integrate_bjacobi`` do.
    """
    m, g1, spline = geom.model.m, geom.g[-1], geom.spline
    F = np.zeros((m - 1, 2 * m + 1))
    F[:, :m] = _horizontal_frame(g1) @ _riemannian(g1)

    def adjoint(t, flat):
        R = flat.reshape(len(flat), m - 1, 2 * m + 1)
        return -(R @ spline.sample(t, names=("A",))["A"]).reshape(len(flat), -1)

    lane = _clock_lane(adjoint, F.ravel(), 1.0, 0.0, "endpoint propagator integration")
    return lambda t: lane(1.0 - t)[:-1].reshape(m - 1, 2 * m + 1)


def _admissible_launches(geom: SolutionGeometry, t0: float) -> tuple:
    """(dirs, C_V): m - 1 orthonormal rows dv spanning the launches (0, dv) at t0 that meet
    the linearized laws (``geometry._linearized_conservation`` at z = 0, where they ask
    <dv, k s' - T Y> = 0), and C_V = <dv, Y> for each."""
    d = geom.spline.sample(t0, names=("g", "v"))
    g, y = d["g"], np.eye(geom.model.m)[-1]
    row = g @ (geom.sol.k * d["v"] - geom.sol.T * y)
    dirs = np.linalg.svd(row[None, :])[2][1:]
    return dirs, dirs @ (g @ y)


def _bfocal_singular_value(geom: SolutionGeometry, t0, rows):
    """Smallest relative singular value of the endpoint map at parameter t0, from the
    ``_admissible_launches`` there to the frame components of V(1) through the propagator
    ``rows`` of ``_endpoint_rows``: zero where t0 is focal."""
    m = geom.model.m
    dirs, C_V = _admissible_launches(geom, t0)
    R = rows(t0)
    M = R[:, m:2 * m] @ dirs.T + np.outer(R[:, 2 * m], C_V)
    svals = np.linalg.svd(M, compute_uv=False)
    return float(svals[-1] / max(svals[0], 1e-300))


def bfocal_points(model: SpacetimeModel, sol: BrachistochroneSolution,
                  confirm_tol: float = 1e-4) -> FocalReport:
    """Focal parameters of a solution, via the deformed side plus a direct check.

    The Riemannian scan runs on the reversed deformation; parameters are pulled
    back through t -> 1 - t, and each is confirmed where the scan places it: the
    endpoint map of the linearized equation, read off one backward propagator
    (``_endpoint_rows``) per solution, must drop rank there, its smallest relative
    singular value at most ``confirm_tol``.
    """
    if sol.residual_ode > _CRITICALITY_TOL * (1.0 + sol.T ** 2):
        raise NotCritical("focal analysis requires a critical curve")
    riem = focal_points(index_data(model, sol))

    geom = SolutionGeometry(model, sol)
    rows = _endpoint_rows(geom) if riem.focal_list else None
    focal = []
    for tR, mult in riem.focal_list:   # tR >= _FOCAL_T_MIN, so tb < 1
        tb = 1.0 - tR
        sv = _bfocal_singular_value(geom, tb, rows)
        if sv > confirm_tol:
            raise ConstraintViolated(
                f"no vanishing linearized solution confirms the focal parameter "
                f"{tb:.6f} (endpoint singular value {sv:.3e})")
        focal.append((tb, mult))
    return FocalReport(sorted(focal), int(sum(m for _, m in focal)), riem.determinant_trace)
