import numpy as np
import pytest

from brachkit.dynamics import integrate_brachistochrone
from brachkit.geometry import SpacetimeModel, riemannian_metric_matrix
from brachkit.models import ModelSpec, make_model


def unit_horizontal(model, q, seed):
    """Project a chart vector to the horizontal space and g_R-normalize it."""
    q = np.asarray(q, dtype=float)
    g = model.g(q)
    y = model.y(q)
    u = np.asarray(seed, dtype=float)
    u = u - (float(u @ g @ y) / float(y @ g @ y)) * y
    gr = riemannian_metric_matrix(model, q)
    return u / np.sqrt(float(u @ gr @ u))


def gram_schmidt(G, vectors, n):
    """The first n G-orthonormal rows of Gram-Schmidt over ``vectors``, one at a time, skipping
    a vector whose remainder is shorter than 1e-8: a reference independent of the package's
    closed-form frames."""
    basis = []
    for v in vectors:
        r = np.array(v, dtype=float)
        for b in basis:
            r = r - float(r @ G @ b) * b
        nn = np.sqrt(max(float(r @ G @ r), 0.0))
        if nn > 1e-8:
            basis.append(r / nn)
        if len(basis) == n:
            return np.array(basis)
    raise AssertionError("the vectors span fewer than n directions")


# A launch per model that exercises every term of the equation while staying
# well inside chart and admissible region.
STANDARD_LAUNCH = {
    "minkowski3": dict(params={}, k=np.sqrt(2.0), T=1.0,
                       p=[0.0, 0.0, 0.0], useed=[1.0, 0.3, 0.0]),
    "minkowski4": dict(params={}, k=np.sqrt(2.0), T=0.8,
                       p=[0.0, 0.0, 0.0, 0.0], useed=[1.0, 0.4, 0.2, 0.0]),
    "einstein_cylinder": dict(params={}, k=np.sqrt(2.0), T=1.2,
                              p=[np.pi / 2, 0.0, 0.0], useed=[0.3, 1.0, 0.0]),
    "static_well": dict(params={"a": 1.0}, k=2.0, T=0.5,
                        p=[0.2, 0.0, 0.0], useed=[1.0, 0.2, 0.0]),
    "rotating_frame": dict(params={}, k=1.5, T=0.6,
                           p=[0.3, 0.2, 0.0], useed=[1.0, 0.4, 0.0]),
}


@pytest.fixture(scope="session")
def models():
    return {name: make_model(ModelSpec(name, info["params"]))
            for name, info in STANDARD_LAUNCH.items()}


@pytest.fixture(scope="session")
def solutions(models):
    out = {}
    for name, info in STANDARD_LAUNCH.items():
        model = models[name]
        u = unit_horizontal(model, info["p"], info["useed"])
        out[name] = integrate_brachistochrone(model, info["k"], np.asarray(info["p"]),
                                              u, info["T"])
    return out


@pytest.fixture(scope="session")
def cylinder_long_arc(models):
    """Equatorial solution with deformed arc length 4.5 (one focal point)."""
    model = models["einstein_cylinder"]
    k = np.sqrt(2.0)
    L = 4.5
    u = unit_horizontal(model, [np.pi / 2, 0.0, 0.0], [0.0, 1.0, 0.0])
    return integrate_brachistochrone(model, k, np.array([np.pi / 2, 0.0, 0.0]), u,
                                     L / np.sqrt(k * k - 1.0))


@pytest.fixture(scope="session")
def cylinder_very_long_arc(models):
    """Arc length 7.0: two focal points."""
    model = models["einstein_cylinder"]
    k = np.sqrt(2.0)
    L = 7.0
    u = unit_horizontal(model, [np.pi / 2, 0.0, 0.0], [0.0, 1.0, 0.0])
    return integrate_brachistochrone(model, k, np.array([np.pi / 2, 0.0, 0.0]), u,
                                     L / np.sqrt(k * k - 1.0))


def _r_s3():
    """The Einstein static universe R x S^3 (Hawking & Ellis 5.3) on the chart
    (chi, theta, phi, t): g = dchi^2 + sin^2 chi (dtheta^2 + sin^2 theta dphi^2) - dt^2, with
    its analytic Christoffels, in the band 0.1 <= chi, theta <= pi - 0.1, phi periodic."""
    def metric(q):
        chi, th = q[..., 0], q[..., 1]
        g = np.zeros(q.shape[:-1] + (4, 4))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = np.sin(chi) ** 2
        g[..., 2, 2] = (np.sin(chi) * np.sin(th)) ** 2
        g[..., 3, 3] = -1.0
        return g

    def christoffels(q):
        chi, th = q[..., 0], q[..., 1]
        G = np.zeros(q.shape[:-1] + (4, 4, 4))
        G[..., 0, 1, 1] = -np.sin(chi) * np.cos(chi)
        G[..., 0, 2, 2] = -np.sin(chi) * np.cos(chi) * np.sin(th) ** 2
        G[..., 1, 0, 1] = G[..., 1, 1, 0] = G[..., 2, 0, 2] = G[..., 2, 2, 0] = 1.0 / np.tan(chi)
        G[..., 1, 2, 2] = -np.sin(th) * np.cos(th)
        G[..., 2, 1, 2] = G[..., 2, 2, 1] = 1.0 / np.tan(th)
        return G

    def band(q):
        return np.all((0.1 <= q[..., :2]) & (q[..., :2] <= np.pi - 0.1), axis=-1)

    return SpacetimeModel(name="r_s3", m=4, metric_components=metric,
                          analytic_christoffels=christoffels, chart_domain=band,
                          periods={2: 2.0 * np.pi})


@pytest.fixture(scope="session")
def r_s3_arcs():
    """R x S^3 and its equatorial solutions from (pi/2, pi/2, 0, 0) along phi, k = sqrt(2),
    of deformed arc length 4.5 and 7.0: their focal points, of multiplicity m - 2 = 2,
    lie at pi / L (and 2 pi / L) from the observer end of the deformation."""
    model = _r_s3()
    k = np.sqrt(2.0)
    p = np.array([np.pi / 2, np.pi / 2, 0.0, 0.0])
    u = unit_horizontal(model, p, [0.0, 0.0, 1.0, 0.0])
    return model, {L: integrate_brachistochrone(model, k, p, u, L / np.sqrt(k * k - 1.0))
                   for L in (4.5, 7.0)}
