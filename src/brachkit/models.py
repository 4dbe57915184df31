"""Concrete stationary spacetime fixtures.

Five charts cover the cases the solver machinery has to face: flat static
(minkowski3/minkowski4), curved static with constant observer norm
(einstein_cylinder), static with varying observer norm (static_well), and
stationary non-static (rotating_frame, whose Killing field has nonzero
covariant derivative with cross terms).

Coordinate convention: the Killing coordinate is always the last chart
coordinate and is not periodic, so Y has constant components (0, ..., 0, 1)
and its flow is a translation (``geometry.require_adapted_chart`` checks it).  Every callback takes
points of shape ``(..., m)`` and returns one value per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams, UnknownModel
from .geometry import SpacetimeModel

__all__ = ["ModelSpec", "make_model", "MODEL_NAMES"]

MODEL_NAMES = ("minkowski3", "minkowski4", "einstein_cylinder", "static_well",
               "rotating_frame")


@dataclass(frozen=True)
class ModelSpec:
    name: str
    params: dict = field(default_factory=dict)


def _zeros(q, *shape):
    return np.zeros(q.shape[:-1] + shape)


def _const_killing(m):
    def y(q):
        out = np.zeros(q.shape)
        out[..., -1] = 1.0
        return out

    return y, lambda q: _zeros(q, m, m)


def _minkowski(m):
    g = np.eye(m)
    g[-1, -1] = -1.0
    y, dy = _const_killing(m)
    return SpacetimeModel(
        name="minkowski3" if m == 3 else "minkowski4",
        m=m,
        metric_components=lambda q: _zeros(q, m, m) + g,
        killing_components=y,
        analytic_christoffels=lambda q: _zeros(q, m, m, m),
        killing_jacobian=dy,
    )


def _einstein_cylinder():
    # Chart (theta, phi, t) on R x S^2 away from the poles.
    def metric(q):
        g = _zeros(q, 3, 3)
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = np.sin(q[..., 0]) ** 2
        g[..., 2, 2] = -1.0
        return g

    def christoffels(q):
        th = q[..., 0]
        G = _zeros(q, 3, 3, 3)
        G[..., 0, 1, 1] = -np.sin(th) * np.cos(th)
        cot = np.cos(th) / np.sin(th)
        G[..., 1, 0, 1] = G[..., 1, 1, 0] = cot
        return G

    y, dy = _const_killing(3)
    return SpacetimeModel(
        name="einstein_cylinder",
        m=3,
        metric_components=metric,
        killing_components=y,
        analytic_christoffels=christoffels,
        chart_domain=lambda q: (0.1 <= q[..., 0]) & (q[..., 0] <= np.pi - 0.1),
        killing_jacobian=dy,
        periods={1: 2.0 * np.pi},
    )


def _static_well(a):
    # Chart (x, y, t): dx^2 + dy^2 - (1 + a x^2) dt^2.
    def metric(q):
        g = _zeros(q, 3, 3)
        g[..., 0, 0] = g[..., 1, 1] = 1.0
        g[..., 2, 2] = -(1.0 + a * q[..., 0] ** 2)
        return g

    def christoffels(q):
        x = q[..., 0]
        G = _zeros(q, 3, 3, 3)
        G[..., 0, 2, 2] = a * x
        G[..., 2, 0, 2] = G[..., 2, 2, 0] = a * x / (1.0 + a * x * x)
        return G

    y, dy = _const_killing(3)
    return SpacetimeModel(
        name="static_well",
        m=3,
        metric_components=metric,
        killing_components=y,
        analytic_christoffels=christoffels,
        killing_jacobian=dy,
    )


def _rotating_frame(omega, r_max):
    # Flat 2+1 metric seen from a frame rotating at omega, chart (x, y, t):
    #   dx^2 + dy^2 - 2 w y dx dt + 2 w x dy dt + (w^2 r^2 - 1) dt^2.
    # Stationary but non-static: nabla Y has Coriolis cross terms.
    w = omega

    def metric(q):
        x, y = q[..., 0], q[..., 1]
        g = _zeros(q, 3, 3)
        g[..., 0, 0] = g[..., 1, 1] = 1.0
        g[..., 0, 2] = g[..., 2, 0] = -w * y
        g[..., 1, 2] = g[..., 2, 1] = w * x
        g[..., 2, 2] = w * w * (x * x + y * y) - 1.0
        return g

    def christoffels(q):
        x, y = q[..., 0], q[..., 1]
        G = _zeros(q, 3, 3, 3)
        G[..., 0, 1, 2] = G[..., 0, 2, 1] = -w
        G[..., 0, 2, 2] = -w * w * x
        G[..., 1, 0, 2] = G[..., 1, 2, 0] = w
        G[..., 1, 2, 2] = -w * w * y
        return G

    ykomp, dy = _const_killing(3)
    return SpacetimeModel(
        name="rotating_frame",
        m=3,
        metric_components=metric,
        killing_components=ykomp,
        analytic_christoffels=christoffels,
        chart_domain=lambda q: q[..., 0] ** 2 + q[..., 1] ** 2 < r_max ** 2,
        killing_jacobian=dy,
    )


def make_model(spec: ModelSpec) -> SpacetimeModel:
    """Instantiate a registered model, validating its parameters."""
    params = dict(spec.params or {})

    def _only(allowed):
        extra = set(params) - set(allowed)
        if extra:
            raise InvalidParams(f"unknown parameters {sorted(extra)} for {spec.name}")

    if spec.name == "minkowski3":
        _only(())
        return _minkowski(3)
    if spec.name == "minkowski4":
        _only(())
        return _minkowski(4)
    if spec.name == "einstein_cylinder":
        _only(())
        return _einstein_cylinder()
    if spec.name == "static_well":
        _only(("a",))
        a = float(params.get("a", 1.0))
        if a <= 0.0:
            raise InvalidParams("static_well curvature a must be positive")
        return _static_well(a)
    if spec.name == "rotating_frame":
        _only(("omega", "r_max"))
        omega = float(params.get("omega", 0.3))
        r_max = float(params.get("r_max", 2.0))
        if omega <= 0.0 or r_max <= 0.0:
            raise InvalidParams("rotating_frame needs omega > 0 and r_max > 0")
        if r_max >= 1.0 / omega:
            raise InvalidParams("rotating_frame chart must satisfy r_max < 1/omega "
                                "(Y becomes null at r = 1/omega)")
        return _rotating_frame(omega, r_max)
    raise UnknownModel(f"no model named '{spec.name}'")
