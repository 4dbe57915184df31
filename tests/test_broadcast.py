"""The broadcast contract: model callbacks and geometry take points of shape
(..., m) and agree with stacked single-point evaluation."""

import numpy as np
import pytest

from brachkit import geometry as geo
from brachkit.models import MODEL_NAMES, ModelSpec, make_model

from conftest import STANDARD_LAUNCH


def node_batch(model, name, n=7, seed=0):
    rng = np.random.default_rng(seed)
    p = np.asarray(STANDARD_LAUNCH[name]["p"], dtype=float)
    pts = p + 0.2 * rng.uniform(-1.0, 1.0, (n, model.m))
    assert model.in_chart(pts)
    return pts


def stacked(fn, pts):
    return np.array([fn(q) for q in pts.reshape(-1, pts.shape[-1])]).reshape(
        pts.shape[:-1] + np.shape(fn(pts.reshape(-1, pts.shape[-1])[0])))


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_model_callbacks_broadcast(models, name):
    model = models[name]
    pts = node_batch(model, name)
    for batch in (pts, np.stack([pts, pts[::-1]])):
        for fn in (model.g, model.y, model.analytic_christoffels):
            out = fn(batch)
            assert out.shape[:batch.ndim - 1] == batch.shape[:-1]
            np.testing.assert_array_equal(out, stacked(fn, batch))


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_geometry_broadcasts(models, name):
    model = models[name]
    fd_model = make_model(ModelSpec(name, STANDARD_LAUNCH[name]["params"]))
    fd_model.analytic_christoffels = None
    cg = geo.conformal_geometry(model, STANDARD_LAUNCH[name]["k"])
    pts = node_batch(model, name, seed=1)
    k = STANDARD_LAUNCH[name]["k"]
    v, w = np.random.default_rng(2).standard_normal((2, model.m))
    checks = {
        "connection_coeffs": lambda q: geo.connection_coeffs(model, q),
        "connection_coeffs_fd": lambda q: geo.connection_coeffs(fd_model, q),
        "curvature_tensor": lambda q: geo.curvature_tensor(model, q),
        "conformal_christoffels": cg.christoffels,
        "conformal_curvature": cg.curvature,
        "riemannian_metric_matrix": lambda q: geo.riemannian_metric_matrix(model, q),
        "conformal_factor": lambda q: geo.conformal_factor(model, q, k),
        "conformal_factor_gradient": lambda q: geo.conformal_factor_gradient(model, q, k),
        "nabla_y_matrix": lambda q: geo.nabla_y_matrix(model, q),
        "killing_residual": lambda q: geo.killing_residual(model, q, v, w),
    }
    for label, fn in checks.items():
        batched = fn(pts)
        single = stacked(fn, pts)
        assert batched.shape == single.shape, label
        scale = max(float(np.max(np.abs(single))), 1.0)
        assert np.max(np.abs(batched - single)) <= 1e-9 * scale, label
