"""Chart-level Lorentzian geometry: metric, Killing field, connection, curvature,
and the auxiliary Riemannian / conformal structures built from them.

Everything lives in a single coordinate chart adapted to the Killing field:
Y = e_last, and the metric does not depend on the last coordinate
(``require_adapted_chart``).  A model supplies callables for the metric
components; Christoffel symbols fall back to central finite differences when
no analytic form is given.  The Killing terms are read off g and Gamma:
<Y,Y> = g[..., -1, -1], g Y = g[..., :, -1] and nabla Y = Gamma[..., :, :, -1]
(dY = 0).  Every function here accepts chart points of shape ``(..., m)`` and
broadcasts over the leading axes, so geometry along a curve is one call over
its nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (FrameDegenerate, InvalidParams, OutOfChart, OutsideUk, StencilOutOfChart,
                     ZeroSeed)

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
    "scalar_gradient",
    "horizontal_part",
    "horizontal_unit",
    "orthonormal_completion",
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
        Step for central-difference derivatives of the metric.
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
        q = _coords(q)
        if q.shape[-1:] != (self.m,) or not np.isfinite(q).all():
            return False
        return self.chart_domain is None or bool(self.chart_domain(q).all())

    def require_in_chart(self, q) -> np.ndarray:
        q = _coords(q)
        if not self.in_chart(q):
            raise OutOfChart(f"point {q} outside chart of model '{self.name}'")
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


# ---------------------------------------------------------------------------
# Finite differences and index algebra, all over a leading node axis

def _jacobian_fd(f, q, h):
    """J[..., a, i] = d f^a / d q^i by second-order central differences."""
    return np.stack([(np.asarray(f(q + e)) - np.asarray(f(q - e))) / (2.0 * h)
                     for e in h * np.eye(q.shape[-1])], axis=-1)


def _directional_diff4(f, q, i, h):
    """Fourth-order central difference of f along coordinate i."""
    e = np.zeros(q.shape[-1])
    e[i] = 1.0
    fp1 = np.asarray(f(q + h * e))
    fm1 = np.asarray(f(q - h * e))
    fp2 = np.asarray(f(q + 2.0 * h * e))
    fm2 = np.asarray(f(q - 2.0 * h * e))
    return (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * h)


def _christoffels(g, dg):
    """Gamma^a_bc = 1/2 g^{ad} (d_b g_dc + d_c g_db - d_d g_bc), dg[..., c, a, b] = d_c g_ab."""
    term = (np.einsum("...bdc->...dbc", dg) + np.einsum("...cdb->...dbc", dg) - dg)
    return 0.5 * np.einsum("...ad,...dbc->...abc", np.linalg.inv(g), term)


def _riemann(G, dG):
    """R[..., a, b, c, d] from Gamma and dG[..., c, a, d, b] = d_c Gamma^a_{db}."""
    return (np.einsum("...cadb->...abcd", dG) - np.einsum("...dacb->...abcd", dG)
            + np.einsum("...ace,...edb->...abcd", G, G)
            - np.einsum("...ade,...ecb->...abcd", G, G))


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
    if not all(model.in_chart(q + e) and model.in_chart(q - e) for e in steps):
        raise StencilOutOfChart(f"stencil around {q} leaves the chart")
    dg = np.stack([(model.g(q + e) - model.g(q - e)) / (2.0 * model.fd_step)
                   for e in steps], axis=-3)
    return _christoffels(model.g(q), dg)


def curvature_tensor(model: SpacetimeModel, q) -> np.ndarray:
    """Curvature R[..., a, b, c, d] with R(X,Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y].

    Components satisfy (R(v, w) u)^a = R[a, b, c, d] u^b v^c w^d.  The
    derivative of Gamma is taken by central differences with step ``fd_step``.
    """
    q = model.require_in_chart(q)
    h = model.fd_step
    dG = np.stack([(connection_coeffs(model, q + e) - connection_coeffs(model, q - e)) / (2.0 * h)
                   for e in h * np.eye(model.m)], axis=-4)
    return _riemann(connection_coeffs(model, q), dG)


def riemannian_metric_eval(model: SpacetimeModel, q, v, w):
    """Auxiliary Riemannian product: <v,w> - 2 <v,Y><w,Y> / <Y,Y>."""
    q = model.require_in_chart(q)
    return _inner(riemannian_metric_matrix(model, q), _coords(v), _coords(w))


def riemannian_metric_matrix(model: SpacetimeModel, q) -> np.ndarray:
    """Component matrix of the auxiliary Riemannian metric at q: g - 2 gY (gY)^T / <Y,Y>."""
    g = model.g(q)
    gy = g[..., :, -1]
    return g - 2.0 * gy[..., :, None] * gy[..., None, :] / g[..., -1, -1][..., None, None]


def uk_membership(model: SpacetimeModel, q, k: float) -> bool:
    """True iff <Y,Y> + k^2 > 0 at every node of q."""
    q = model.require_in_chart(q)
    return bool(np.all(model.g(q)[..., -1, -1] + k * k > 0.0))


def conformal_factor(model: SpacetimeModel, q, k: float):
    """phi_k = -<Y,Y> / (k^2 + <Y,Y>); positive on the admissible region.

    The only home of phi_k.  It checks the admissible region, not the chart,
    because it is also evaluated at finite-difference stencil points and at
    trial points of the discrete minimizer.
    """
    q = _coords(q)
    yy = model.g(q)[..., -1, -1]
    denom = k * k + yy
    if (denom <= 0.0).any():
        raise OutsideUk(f"k^2 + <Y,Y> = {np.min(denom)} <= 0 at {q}")
    return -yy / denom


def nabla_y_matrix(model: SpacetimeModel, q) -> np.ndarray:
    """Matrix K[..., a, b] with (nabla_v Y)^a = K[a, b] v^b: Gamma^a_{b,last}, as dY = 0."""
    return connection_coeffs(model, q)[..., -1]


def killing_residual(model: SpacetimeModel, q, v, w) -> float:
    """Antisymmetry defect <nabla_v Y, w> + <nabla_w Y, v> (zero for Killing Y).

    In the adapted chart this is (d_last g)(v, w), read through Gamma, because
    L_Y g = d_last g there.
    """
    q = _coords(q)
    g = model.g(q)
    K = nabla_y_matrix(model, q)
    v = _coords(v)
    w = _coords(w)
    return float((K @ v) @ g @ w + (K @ w) @ g @ v)


def scalar_gradient(model: SpacetimeModel, q, f, h: Optional[float] = None) -> np.ndarray:
    """Lorentzian gradient components g^{ab} d_b f of a chart scalar f."""
    q = _coords(q)
    h = model.fd_step if h is None else h
    df = np.stack([_directional_diff4(f, q, i, max(h, 1e-6)) for i in range(model.m)], axis=-1)
    return np.linalg.solve(model.g(q), df[..., None])[..., 0]


# ---------------------------------------------------------------------------
# Shared constructions along curves

def horizontal_part(model: SpacetimeModel, q, v) -> np.ndarray:
    """v minus its component along Y, at every node."""
    g = model.g(q)
    return v - (_inner_y(g, v) / g[..., -1, -1])[..., None] * model.y(q)


def horizontal_unit(model: SpacetimeModel, q, v) -> np.ndarray:
    """The horizontal part of v, normalised in g_R; ZeroSeed if v is parallel to Y."""
    q = model.require_in_chart(q)
    u = horizontal_part(model, q, _coords(v))
    nn = np.sqrt(np.maximum(_inner(riemannian_metric_matrix(model, q), u, u), 0.0))
    if np.any(nn < 1e-12):
        raise ZeroSeed("direction is parallel to the observer field")
    return u / nn[..., None]


def orthonormal_completion(gr: np.ndarray, fixed, n_new: int, candidates=None) -> np.ndarray:
    """Gram-Schmidt: n_new gr-orthonormal vectors orthogonal to the gr-orthonormal ``fixed``.

    Candidates (the chart axes by default) are taken in order; one whose
    remainder is shorter than 1e-8 is skipped.
    """
    basis = [np.asarray(b, dtype=float) for b in fixed]
    target = len(basis) + n_new
    for cand in np.eye(gr.shape[-1]) if candidates is None else candidates:
        if len(basis) == target:
            break
        vec = np.array(cand, dtype=float)
        for b in basis:
            vec = vec - float(vec @ gr @ b) * b
        nn = np.sqrt(max(float(vec @ gr @ vec), 0.0))
        if nn > 1e-8:
            basis.append(vec / nn)
    if len(basis) < target:
        raise FrameDegenerate("could not complete an orthonormal frame")
    return np.array(basis[target - n_new:]).reshape(n_new, gr.shape[-1])


def horizontal_frame(model: SpacetimeModel, q) -> np.ndarray:
    """g_R-orthonormal basis of the orthogonal complement of Y at q."""
    q = _coords(q)
    gr = riemannian_metric_matrix(model, q)
    y = model.y(q)
    return orthonormal_completion(gr, [y / np.sqrt(float(y @ gr @ y))], model.m - 1)


def conservation_residuals(model: SpacetimeModel, points, velocities, k: float, T: float):
    """Per-node defects of the two conservation laws: (<v,Y> + kT, <v,v> + T^2)."""
    g = model.g(points)
    return _inner_y(g, velocities) + k * T, _inner(g, velocities, velocities) + T * T


def curve_distance(model: SpacetimeModel, points_a, points_b) -> float:
    """Sup over nodes of the g_R length (at points_a) of the wrapped difference b - a."""
    d = model.wrap_difference(np.asarray(points_b) - np.asarray(points_a))
    d2 = _inner(riemannian_metric_matrix(model, points_a), d, d)
    return float(np.sqrt(max(np.max(d2), 0.0)))


# ---------------------------------------------------------------------------
# Conformal geometry

@dataclass
class ConformalGeometry:
    """Evaluators for the Riemannian metric phi_k * g_R and its derived objects.

    The components are assembled analytically from the model; Christoffels and
    curvature use fourth-order central differences (the assembled metric is
    exact, so a wider high-order stencil keeps the two differentiation stages
    well above roundoff).  Each stencil offset is one evaluation over all nodes.
    """

    model: SpacetimeModel
    k: float
    fd_step: float = 1e-3

    @property
    def m(self) -> int:
        return self.model.m

    def phi(self, q):
        return conformal_factor(self.model, _coords(q), self.k)

    def metric(self, q) -> np.ndarray:
        q = _coords(q)
        return self.phi(q)[..., None, None] * riemannian_metric_matrix(self.model, q)

    def christoffels(self, q) -> np.ndarray:
        q = self.model.require_in_chart(q)
        dg = np.stack([_directional_diff4(self.metric, q, c, self.fd_step)
                       for c in range(self.m)], axis=-3)
        return _christoffels(self.metric(q), dg)

    def curvature(self, q) -> np.ndarray:
        """R[..., a, b, c, d] of phi_k * g_R, same index convention as curvature_tensor."""
        q = self.model.require_in_chart(q)
        dG = np.stack([_directional_diff4(self.christoffels, q, c, self.fd_step)
                       for c in range(self.m)], axis=-4)
        return _riemann(self.christoffels(q), dG)


def conformal_geometry(model: SpacetimeModel, k: float) -> ConformalGeometry:
    """Bundle evaluators for the conformal Riemannian structure at energy k."""
    if not k > 0.0:
        raise OutsideUk("the energy constant k must be positive")
    return ConformalGeometry(model=model, k=k)
