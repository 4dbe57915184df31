"""Chart-level Lorentzian geometry: metric, Killing field, connection, curvature,
and the auxiliary Riemannian / conformal structures built from them.

Everything lives in a single coordinate chart adapted to the Killing field:
Y = e_last, and the metric does not depend on the last coordinate
(``require_adapted_chart``).  A model supplies callables for the metric
components; Christoffel symbols fall back to central finite differences when
no analytic form is given.  The Killing terms are read off g and Gamma:
<Y,Y> = g[..., -1, -1], g Y = g[..., :, -1] and nabla Y = Gamma[..., :, :, -1]
(dY = 0), and so is d_c g_ab = Gamma_{a,bc} + Gamma_{b,ac}.  Every function
here accepts chart points of shape ``(..., m)`` and broadcasts over the
leading axes, so geometry along a curve is one call over its nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (FrameDegenerate, InvalidParams, NotHorizontal, OutOfChart, OutsideUk,
                     StencilOutOfChart, ZeroSeed)

__all__ = [
    "SpacetimeModel",
    "ConformalGeometry",
    "require_adapted_chart",
    "isometry_defect",
    "metric_eval",
    "connection_coeffs",
    "curvature_tensor",
    "riemannian_metric_eval",
    "riemannian_metric_matrix",
    "conformal_factor",
    "uk_membership",
    "conformal_geometry",
    "nabla_y_matrix",
    "killing_residual",
    "conformal_factor_gradient",
    "horizontal_part",
    "horizontal_unit",
    "horizontal_frame",
    "conservation_residuals",
    "curve_distance",
]


def _coords(x) -> np.ndarray:
    """A chart point or vector components as a float array."""
    return np.asarray(x, dtype=float)


@dataclass
class SpacetimeModel:
    """Stationary Lorentzian metric on one chart adapted to its timelike Killing field.

    The Killing field is Y = e_last by construction: the metric must not
    depend on the last coordinate, and Y must be timelike on the chart.  Every
    callback takes chart points of shape ``(..., m)`` (one point, or a
    batch of nodes along a leading axis) and returns one value per point, so
    geometry along a curve is evaluated in one call over all of its nodes.

    Parameters
    ----------
    name : str
        Registry identifier.
    m : int
        Chart dimension (>= 2).
    metric_components : callable
        ``q -> (..., m, m)`` symmetric array of metric components.
    analytic_christoffels : callable, optional
        ``q -> (..., m, m, m)`` array ``Gamma[..., a, b, c]``, symmetric in
        (b, c).  When absent, central differences of the metric are used.
    chart_domain : callable, optional
        ``q -> (...)`` boolean array marking chart points; defaults to all of
        R^m.
    fd_step : float
        Step of the central differences of g (where Christoffels are absent) and of grad phi_k.
    periods : dict, optional
        Map coordinate index -> period for angle-like coordinates.  Used by
        quotient distances; an empty dict means no periodic coordinates.
    """

    name: str
    m: int
    metric_components: Callable[[np.ndarray], np.ndarray]
    analytic_christoffels: Optional[Callable[[np.ndarray], np.ndarray]] = None
    chart_domain: Optional[Callable[[np.ndarray], np.ndarray]] = None
    fd_step: float = 1e-5
    periods: dict = field(default_factory=dict)
    # not fields: bench/spans.py is their only reader, and skips them when None
    killing_components = None
    killing_jacobian = None

    def in_chart(self, q) -> bool:
        """True iff every point of ``q`` (shape ``(..., m)``) lies in the chart."""
        return _off_chart(self, _coords(q)) is None

    def require_in_chart(self, q) -> np.ndarray:
        q = _coords(q)
        bad = _off_chart(self, q)
        if bad is not None:
            raise OutOfChart(f"outside chart of '{self.name}': {_first_of(q, bad)}")
        return q

    # Raw component access -------------------------------------------------

    def g(self, q) -> np.ndarray:
        return np.asarray(self.metric_components(_coords(q)), dtype=float)

    def y(self, q) -> np.ndarray:
        """Components of Y = e_last at every point of ``q``, as a new array."""
        return np.zeros(np.shape(q)) + np.eye(self.m)[-1]

    def wrap_difference(self, dq: np.ndarray) -> np.ndarray:
        """Reduce periodic coordinate differences to their principal value."""
        if not self.periods:
            return dq
        dq = np.array(dq, dtype=float, copy=True)
        for i, period in self.periods.items():
            dq[..., i] = (dq[..., i] + period / 2.0) % period - period / 2.0
        return dq


def _off_chart(model: SpacetimeModel, q: np.ndarray) -> np.ndarray | None:
    """None if every point of ``q`` is a finite chart point, else True where a point is
    not (everywhere, for a wrong m); the mask is only formed for a failing batch."""
    if q.shape[-1:] != (model.m,):
        return np.ones(q.shape[:-1], dtype=bool)
    inside = True if model.chart_domain is None else np.asarray(model.chart_domain(q), dtype=bool)
    finite = np.isfinite(q)
    if finite.all() and (inside is True or inside.all()):
        return None
    return ~(inside & finite.all(axis=-1))


def _first_of(q: np.ndarray, bad) -> str:
    """'n of N points, the first <point>' for the points flagged in ``bad``: a message
    names one point, since formatting a batch can cost more than the failed call."""
    bad = np.broadcast_to(bad, q.shape[:-1])
    first = q[tuple(np.argwhere(bad)[0])]
    return f"{np.count_nonzero(bad)} of {bad.size} points, the first {first}"


def _require_stencil(model: SpacetimeModel, q: np.ndarray, offsets) -> None:
    """StencilOutOfChart, naming the nodes of ``q``, unless every q + offset is a chart point."""
    bad = _off_chart(model, np.stack([q + e for e in offsets]))
    if bad is not None:
        raise StencilOutOfChart(f"stencil leaves chart of '{model.name}' at "
                                f"{_first_of(q, bad.any(axis=0))}")


# ---------------------------------------------------------------------------
# Finite differences and index algebra, all over a leading node axis

def _jacobian_fd(f, q, h):
    """J[..., a, i] = d f^a / d q^i by second-order central differences."""
    return np.stack([(np.asarray(f(q + e)) - np.asarray(f(q - e))) / (2.0 * h)
                     for e in h * np.eye(q.shape[-1])], axis=-1)


# Step of the curvature stencil.  Its truncation error, h^4/30 times the fifth
# derivative of Gamma, and its rounding error, about eps |Gamma| / h, balance
# near h = 2e-4 for the cylinder's cot(theta) at theta = 0.3; the curvature of
# a model with analytic Gamma is then good to about 1e-11.
_CURVATURE_STEP = 2e-4


def _curvature(model: SpacetimeModel, christoffels, q: np.ndarray) -> tuple:
    """(Gamma, R[..., a, b, c, d]): christoffels at q, and R from it and a fourth-order
    difference of it.

    The difference runs along the m - 1 axes other than the Killing one: in the adapted
    chart g does not depend on the last coordinate (``require_adapted_chart``), so neither
    do the Christoffels of g or of g~, and d_last Gamma = 0 without an evaluation."""
    steps = _CURVATURE_STEP * np.eye(model.m)[:-1]
    _require_stencil(model, q, [s * e for e in steps for s in (1.0, -1.0, 2.0, -2.0)])
    dG = np.zeros(q.shape[:-1] + (model.m,) * 4)
    for c, e in enumerate(steps):
        d = dG[..., c, :, :, :]        # filled in place: two stencil values alive at a time
        np.subtract(christoffels(q + e), christoffels(q - e), out=d)
        d *= 8.0
        d -= christoffels(q + 2.0 * e) - christoffels(q - 2.0 * e)
        d /= 12.0 * _CURVATURE_STEP
    G = christoffels(q)                # after the stencil, whose values are then freed
    # dG[..., c, a, d, b] = d_c Gamma^a_{db}; the permutations of dG are views, so R is
    # their difference, and the two products are added in place
    R = np.einsum("...cadb->...abcd", dG) - np.einsum("...dacb->...abcd", dG)
    R += np.einsum("...ace,...edb->...abcd", G, G)
    R -= np.einsum("...ade,...ecb->...abcd", G, G)
    return G, R


def _inner(g, v, w):
    """<v, w> in the metric g, one value per node."""
    return np.einsum("...a,...ab,...b->...", v, g, w)


def _inner_y(g, v):
    """<v, Y> = (g v)_last, one value per node."""
    return np.einsum("...a,...a->...", v, g[..., :, -1])


# ---------------------------------------------------------------------------
# Core operations

def isometry_defect(model: SpacetimeModel, q, s: float) -> float:
    """Largest change of a metric component between q - s e_last and q + s e_last.

    Zero when g does not depend on the last coordinate, i.e. when the flow of
    Y = e_last is an isometry; ``q`` may be a batch of points.
    """
    shift = s * np.eye(model.m)[-1]
    q = _coords(q)
    return float(np.max(np.abs(model.g(q + shift) - model.g(q - shift)), initial=0.0))


def require_adapted_chart(model: SpacetimeModel, points) -> None:
    """Raise InvalidParams unless the chart is adapted to Y = e_last at ``points``.

    Adapted means that the last coordinate is not periodic and that g does
    not depend on it: ``isometry_defect(model, points, model.fd_step)`` must
    be at most 1e-12, so |d_last g| is below about 5e-8 at the default step.
    Code that relies on the contract (the Killing flow, the brachistochrone
    acceleration) checks it where a computation starts, not at every step.
    """
    if model.m - 1 in model.periods:
        raise InvalidParams(f"the Killing coordinate of '{model.name}' must not be periodic")
    if isometry_defect(model, points, model.fd_step) > 1e-12:
        raise InvalidParams(f"the chart of '{model.name}' is not adapted to its Killing field: "
                            f"the metric depends on the last coordinate")


def metric_eval(model: SpacetimeModel, q, v, w):
    """Lorentzian inner product <v, w> at q (one value per node)."""
    q = model.require_in_chart(q)
    return _inner(model.g(q), _coords(v), _coords(w))


def connection_coeffs(model: SpacetimeModel, q) -> np.ndarray:
    """Christoffel symbols Gamma[..., a, b, c] of the Lorentzian metric at q.

    Uses the analytic form when the model carries one; otherwise second-order
    central differences of the metric components with step ``fd_step``.
    """
    q = model.require_in_chart(q)
    if model.analytic_christoffels is not None:
        return np.asarray(model.analytic_christoffels(q), dtype=float)
    steps = model.fd_step * np.eye(model.m)
    _require_stencil(model, q, [s * e for e in steps for s in (1.0, -1.0)])
    dg = np.stack([(model.g(q + e) - model.g(q - e)) / (2.0 * model.fd_step)
                   for e in steps], axis=-3)                          # dg[..., c, a, b] = d_c g_ab
    # Gamma^a_bc = 1/2 g^{ad} (d_b g_dc + d_c g_db - d_d g_bc)
    term = np.einsum("...bdc->...dbc", dg) + np.einsum("...cdb->...dbc", dg) - dg
    return 0.5 * np.einsum("...ad,...dbc->...abc", np.linalg.inv(model.g(q)), term)


def curvature_tensor(model: SpacetimeModel, q) -> np.ndarray:
    """Curvature R[..., a, b, c, d] with R(X,Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y].

    Components satisfy (R(v, w) u)^a = R[a, b, c, d] u^b v^c w^d.  The
    derivative of Gamma is one fourth-order central difference (``_curvature``).
    """
    return _connection_and_curvature(model, q)[1]


def _connection_and_curvature(model: SpacetimeModel, q) -> tuple:
    """(Gamma, R) at q, with Gamma evaluated once there: the centre of R's stencil."""
    return _curvature(model, lambda x: connection_coeffs(model, x), model.require_in_chart(q))


def riemannian_metric_eval(model: SpacetimeModel, q, v, w):
    """Auxiliary Riemannian product: <v,w> - 2 <v,Y><w,Y> / <Y,Y>."""
    q = model.require_in_chart(q)
    return _inner(riemannian_metric_matrix(model, q), _coords(v), _coords(w))


def riemannian_metric_matrix(model: SpacetimeModel, q) -> np.ndarray:
    """Component matrix of the auxiliary Riemannian metric at q: g - 2 gY (gY)^T / <Y,Y>."""
    return _riemannian(model.g(q))


def _riemannian(g: np.ndarray) -> np.ndarray:
    """g_R from the metric g at the same points."""
    gy = g[..., :, -1]
    return g - 2.0 * gy[..., :, None] * gy[..., None, :] / g[..., -1, -1][..., None, None]


def _gr_length(g: np.ndarray, v) -> np.ndarray:
    """|v|_R, the g_R length of v from the metric g at the same points, one value per node."""
    return np.sqrt(np.maximum(_inner(_riemannian(g), v, v), 0.0))


def _require_horizontal(g: np.ndarray, v, rtol: float, what: str, error=NotHorizontal) -> None:
    """Raise ``error`` unless |<v,Y>| <= rtol |v|_R |Y|_R at every node (|Y|_R^2 = -<Y,Y>): a
    g_R cosine of v and Y, as g_R(v, Y) = -<v,Y>, at most rtol.  A zero v fails."""
    vy = np.abs(_inner_y(g, v))
    bound = rtol * _gr_length(g, v) * np.sqrt(-g[..., -1, -1])
    ok = (vy <= bound) & (bound > 0.0)
    if not ok.all():
        raise error(f"{what} is not horizontal: |<v,Y>| = {np.max(vy)}, "
                    f"{np.count_nonzero(~ok)} of {ok.size} nodes over {rtol} |v|_R |Y|_R")


def uk_membership(model: SpacetimeModel, q, k: float) -> bool:
    """True iff <Y,Y> + k^2 > 0 at every node of q."""
    q = model.require_in_chart(q)
    return bool(np.all(model.g(q)[..., -1, -1] + k * k > 0.0))


def conformal_factor(model: SpacetimeModel, q, k: float):
    """phi_k = -<Y,Y> / (k^2 + <Y,Y>) > 0 on the admissible region, which it checks (not the
    chart: it is also evaluated at stencil points and at trial points of the discrete minimizer)."""
    return _phi_k(model.g(q), k, _coords(q))


def _phi_k(g: np.ndarray, k: float, q: np.ndarray) -> np.ndarray:
    """The only home of phi_k, from the metric g at the points q."""
    yy = g[..., -1, -1]
    denom = k * k + yy
    if (denom <= 0.0).any():
        raise OutsideUk(f"k^2 + <Y,Y> = {np.min(denom)} <= 0 at {_first_of(q, denom <= 0.0)}")
    return -yy / denom


def _phi_k_derivative(g: np.ndarray, G: np.ndarray, k: float, q: np.ndarray):
    """(phi_k, d phi_k) at q: d phi_k = -k^2 d<Y,Y> / (k^2 + <Y,Y>)^2, d_c<Y,Y> = 2 Gamma_{m,mc}."""
    dyy = 2.0 * np.einsum("...d,...dc->...c", g[..., -1, :], G[..., :, -1, :])
    return _phi_k(g, k, q), (-k * k / (k * k + g[..., -1, -1]) ** 2)[..., None] * dyy


def conformal_factor_gradient(model: SpacetimeModel, q, k: float) -> np.ndarray:
    """Lorentzian gradient g^{ab} d_b phi_k at q, in closed form from g and Gamma."""
    G, g = connection_coeffs(model, q), model.g(q)
    return _grad_phi_k(g, G, k, _coords(q))


def _grad_phi_k(g: np.ndarray, G: np.ndarray, k: float, q: np.ndarray) -> np.ndarray:
    """g^{ab} d_b phi_k from the g and Gamma already evaluated at q."""
    return np.linalg.solve(g, _phi_k_derivative(g, G, k, q)[1][..., None])[..., 0]


def _conformal_metric(g: np.ndarray, k: float, q: np.ndarray) -> np.ndarray:
    """g~ = phi_k g_R from the metric g at q."""
    return _phi_k(g, k, q)[..., None, None] * _riemannian(g)


def _conformal_connection(g: np.ndarray, G: np.ndarray, k: float, q: np.ndarray):
    """The Christoffels of g~ = phi_k g_R at q, in closed form from g and Gamma there.

    g~ = phi_k g + psi w w^T with w = g Y, psi = 2 / (k^2 + <Y,Y>) and d psi = 2 d phi_k / k^2,
    so the lowered Gamma~_{d,bc} is phi_k Gamma_{d,bc} + (d_b phi_k S_dc + d_c phi_k S_db -
    d_d phi_k S_bc) / 2, S = g + 2 w w^T / k^2, plus the same form of psi d(w w^T), in one array.
    """
    gt = _conformal_metric(g, k, q)     # before the terms: built after them it raised peak RSS
    phi, dphi = _phi_k_derivative(g, G, k, q)
    w, half_psi = g[..., :, -1], 1.0 / (k * k + g[..., -1, -1])
    ww = w[..., :, None] * w[..., None, :]
    low = np.einsum("...ad,...dbc->...abc", g, G)                         # Gamma_{a,bc}
    # psi/2 d_b w_c, with d_b w_c = Gamma_{c,last b} + Gamma_{last,cb}
    hdw = (half_psi[..., None, None] * (low[..., :, -1, :] + low[..., -1, :, :])).swapaxes(-1, -2)
    S = g + (2.0 / (k * k)) * ww
    low *= phi[..., None, None, None]
    t = dphi[..., None, :, None] * S[..., :, None, :]                     # d_b phi_k S_dc
    low += 0.5 * (t + np.swapaxes(t, -1, -2))
    low -= 0.5 * dphi[..., :, None, None] * S[..., None, :, :]
    # psi/2 ((dw_bd - dw_db) w_c + (dw_cd - dw_dc) w_b + (dw_bc + dw_cb) w_d)
    t = (np.swapaxes(hdw, -1, -2) - hdw)[..., None] * w[..., None, None, :]
    low += t + np.swapaxes(t, -1, -2)
    low += w[..., :, None, None] * (hdw + np.swapaxes(hdw, -1, -2))[..., None, :, :]
    return np.einsum("...ad,...dbc->...abc", np.linalg.inv(gt), low)


def nabla_y_matrix(model: SpacetimeModel, q) -> np.ndarray:
    """Matrix K[..., a, b] with (nabla_v Y)^a = K[a, b] v^b: Gamma^a_{b,last}, as dY = 0."""
    return connection_coeffs(model, q)[..., -1]


def killing_residual(model: SpacetimeModel, q, v, w):
    """Antisymmetry defect <nabla_v Y, w> + <nabla_w Y, v> (zero for Killing Y), one value per
    node: in the adapted chart it is (L_Y g)(v, w) = (d_last g)(v, w), read off Gamma."""
    q, v, w = _coords(q), _coords(v), _coords(w)
    K = model.g(q) @ nabla_y_matrix(model, q)      # Gamma_{a,b last} = <e_a, nabla_b Y>
    return _inner(K, v, w) + _inner(K, w, v)


# ---------------------------------------------------------------------------
# Shared constructions along curves

def horizontal_part(model: SpacetimeModel, q, v) -> np.ndarray:
    """v minus its component along Y, at every node."""
    return _horizontal(model.g(q), v)


def _horizontal(g: np.ndarray, v) -> np.ndarray:
    """``horizontal_part`` from the metric g at the same points (Y = e_last)."""
    return v - (_inner_y(g, v) / g[..., -1, -1])[..., None] * np.eye(g.shape[-1])[-1]


def horizontal_unit(model: SpacetimeModel, q, v) -> np.ndarray:
    """The horizontal part of v, normalised in g_R; ZeroSeed if v is parallel to Y."""
    q = model.require_in_chart(q)
    u = horizontal_part(model, q, _coords(v))
    nn = _gr_length(model.g(q), u)
    if np.any(nn < 1e-12):
        raise ZeroSeed("direction is parallel to the observer field")
    return u / nn[..., None]


def horizontal_frame(model: SpacetimeModel, q) -> np.ndarray:
    """g_R-orthonormal basis (rows) of the orthogonal complement of Y at q."""
    return _horizontal_frame(model.g(q))


def _horizontal_frame(g: np.ndarray) -> np.ndarray:
    """``horizontal_frame`` from the metric g (or g~ = phi_k g_R, for g~-orthonormal rows).

    The horizontal parts of the chart axes e_1..e_{m-1}, e_i - c_i e_m with c = g_{:-1,m} / g_mm,
    are the rows of H.  Their Gram matrix in g and g_R alike is S = g_{:-1,:-1} - c g_{m,:-1},
    so Gram-Schmidt of the axes is E = L^-1 H for S = L L^T (Golub & Van Loan, 5.2).
    """
    H = _horizontal(g[..., None, :, :], np.eye(g.shape[-1])[:-1])
    S = g[..., :-1, :-1] + H[..., -1:] * g[..., None, -1, :-1]
    return np.linalg.solve(np.linalg.cholesky(S), H)


def _frame_through(g: np.ndarray, u: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """The horizontal frame (rows) whose first row is the g-unit horizontal u, at every node:
    Gram-Schmidt in g of u, then of the rows of ``frame`` (a ``_horizontal_frame``), skipping
    a remainder shorter than 1e-8.  A skipped row stays as zeros, which subtract nothing, until
    the kept rows are gathered; the last row of ``frame`` is needed only after a skip."""
    n = frame.shape[-2]
    rows, kept, whole = [u[..., None, :]], [], True
    for j in range(n):
        if j == n - 1 and whole:
            return np.concatenate(rows, axis=-2)
        vec = frame[..., j:j + 1, :]
        # v @ g @ w.mT: under another order of the same sums, Newton's converged
        # launches move in the 12th digit
        for b in rows:
            vec = vec - (vec @ g @ b.mT) * b
        nn = np.sqrt(np.maximum(vec @ g @ vec.mT, 0.0))
        kept.append(nn > 1e-8)
        whole = whole and kept[-1].all()
        rows.append(np.where(kept[-1], vec / np.maximum(nn, 1e-300), 0.0))
    kept = np.concatenate([np.ones_like(kept[0]), *kept], axis=-2)[..., 0]
    if (kept.sum(axis=-1) < n).any():
        raise FrameDegenerate("could not complete an orthonormal frame")
    first = np.argsort(~kept, axis=-1, kind="stable")[..., :n, None]
    return np.take_along_axis(np.concatenate(rows, axis=-2), first, axis=-2)


def conservation_residuals(model: SpacetimeModel, points, velocities, k: float, T: float):
    """Per-node defects of the two conservation laws: (<v,Y> + kT, <v,v> + T^2)."""
    return _conservation(model.g(points), _coords(velocities), k, T)


def _conservation(g: np.ndarray, v: np.ndarray, k: float, T: float) -> tuple:
    """``conservation_residuals`` from the metric g at the same points."""
    return _inner_y(g, v) + k * T, _inner(g, v, v) + T * T


def _linearized_conservation(g: np.ndarray, K: np.ndarray, v: np.ndarray, z, dz) -> tuple:
    """(<dz,Y> - <z,nabla_v Y>, <dz,v>) per node, for a field z with covariant derivative dz
    along a curve with velocity v, from g and nabla Y = K there: the derivative of
    ``_conservation`` along z at fixed T (Y Killing), its second entry halved."""
    return _inner_y(g, dz) - _inner(g, z, np.einsum("...ab,...b->...a", K, v)), _inner(g, dz, v)


def curve_distance(model: SpacetimeModel, points_a, points_b) -> float:
    """Sup over nodes of the g_R length (at points_a) of the wrapped difference b - a."""
    d = model.wrap_difference(np.asarray(points_b) - np.asarray(points_a))
    return float(np.max(_gr_length(model.g(points_a), d)))


# ---------------------------------------------------------------------------
# Conformal geometry

@dataclass
class ConformalGeometry:
    """Evaluators for the Riemannian metric phi_k * g_R and its derived objects.

    Its Christoffels are a closed form in the model's g and Gamma, its curvature
    one fourth-order difference of them; a stencil offset is one call over all nodes.
    """

    model: SpacetimeModel
    k: float

    @property
    def m(self) -> int:
        return self.model.m

    def metric(self, q) -> np.ndarray:
        return _conformal_metric(self.model.g(q), self.k, _coords(q))

    def christoffels(self, q) -> np.ndarray:
        G, q = connection_coeffs(self.model, q), _coords(q)    # connection_coeffs checks the chart
        return _conformal_connection(self.model.g(q), G, self.k, q)

    def curvature(self, q) -> tuple:
        """(Gamma~, R[..., a, b, c, d]) of phi_k * g_R at q, R in the index convention of
        curvature_tensor: the Christoffels are the centre of R's stencil."""
        return _curvature(self.model, self.christoffels, self.model.require_in_chart(q))


def conformal_geometry(model: SpacetimeModel, k: float) -> ConformalGeometry:
    """Bundle evaluators for the conformal Riemannian structure at energy k."""
    if not k > 0.0:
        raise OutsideUk("the energy constant k must be positive")
    return ConformalGeometry(model=model, k=k)
