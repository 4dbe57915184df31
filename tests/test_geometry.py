import numpy as np
import pytest

from brachkit import geometry as geo
from brachkit.curves import Curve, sine_bumps
from brachkit.dynamics import geodesic_residual, initial_velocity, integrate_conformal_geodesic
from brachkit.errors import (NotHorizontal, NotNormal, NotOrthogonalStart, OutOfChart, OutsideUk,
                             StencilOutOfChart)
from brachkit.jacobi import gamma_jacobi_basis
from brachkit.models import MODEL_NAMES, ModelSpec, make_model
from brachkit.transform import flow_points, isometry_defect, lift_G
from brachkit.variation import ConformalCurveData, second_fundamental_form_gamma

from conftest import STANDARD_LAUNCH, gram_schmidt


def test_metric_eval_minkowski_timelike(models):
    q = np.zeros(3)
    assert geo.metric_eval(models["minkowski3"], q, [0, 0, 1], [0, 0, 1]) == -1.0


def test_metric_eval_zero_vector(models):
    q = np.zeros(3)
    assert geo.metric_eval(models["minkowski3"], q, [0.0, 0, 0], [1, 2, 3]) == 0.0


def test_metric_eval_static_well_component(models):
    val = geo.metric_eval(models["static_well"], [1.0, 0, 0], [0, 0, 1], [0, 0, 1])
    assert val == pytest.approx(-2.0, abs=1e-14)


def test_metric_eval_symmetric(models):
    rng = np.random.default_rng(0)
    model = models["rotating_frame"]
    for _ in range(20):
        q = np.append(rng.uniform(-1, 1, 2), rng.uniform(-1, 1))
        v, w = rng.standard_normal(3), rng.standard_normal(3)
        assert geo.metric_eval(model, q, v, w) == pytest.approx(
            geo.metric_eval(model, q, w, v), abs=1e-13)


def test_out_of_chart_raises(models):
    with pytest.raises(OutOfChart):
        geo.metric_eval(models["einstein_cylinder"], [0.01, 0, 0], [1, 0, 0], [1, 0, 0])
    with pytest.raises(OutOfChart):   # a point of the wrong dimension
        geo.metric_eval(models["einstein_cylinder"], [1.0, 0], [1, 0, 0], [1, 0, 0])


def test_batch_errors_name_the_count_and_the_first_offending_point(models):
    # one bad point in a batch of 1000: the message counts the bad points and
    # shows the first one, not the whole batch
    n, bad = 1000, 417
    equator = np.column_stack([np.full(n, np.pi / 2), np.linspace(0.0, 6.0, n), np.zeros(n)])
    off_chart, near_edge = equator.copy(), equator.copy()
    off_chart[bad, 0] = 0.05                   # the chart is 0.1 <= theta <= pi - 0.1
    near_edge[bad, 0] = 0.1 + 1e-6             # in the chart, its stencil is not
    fd_cylinder = make_model(ModelSpec("einstein_cylinder"))
    fd_cylinder.analytic_christoffels = None
    well = np.column_stack([np.linspace(0.0, 1.0, n), np.zeros(n), np.zeros(n)])
    well[bad, 0] = 2.0                         # <Y,Y> = -5 < -k^2
    flat = np.zeros((n, 3))
    flat[bad, 1] = np.nan                      # a chart without a domain: finite points only
    cases = [
        (OutOfChart, flat, lambda: geo.connection_coeffs(models["minkowski3"], flat)),
        (OutOfChart, off_chart, lambda: geo.connection_coeffs(models["einstein_cylinder"],
                                                              off_chart)),
        (StencilOutOfChart, near_edge, lambda: geo.connection_coeffs(fd_cylinder, near_edge)),
        (OutsideUk, well, lambda: geo.conformal_factor(models["static_well"], well, 2.0)),
    ]
    for error, q, call in cases:
        with pytest.raises(error) as info:
            call()
        msg = str(info.value)
        assert len(msg) < 200 and "1 of 1000 points" in msg and str(q[bad]) in msg, msg


def test_killing_eval(models):
    y = models["minkowski3"].y(np.zeros(3))
    assert np.allclose(y, [0, 0, 1])
    yc = models["einstein_cylinder"].y(np.array([np.pi / 2, 0.3, 0.1]))
    assert np.allclose(yc, [0, 0, 1])


def test_connection_minkowski_zero(models):
    G = geo.connection_coeffs(models["minkowski3"], np.zeros(3))
    assert np.max(np.abs(G)) == 0.0


def test_connection_static_well_hand_value(models):
    # d_x g_tt / (2 g_tt) at x = 1, a = 1
    G = geo.connection_coeffs(models["static_well"], [1.0, 0, 0])
    assert G[2, 2, 0] == pytest.approx(0.5, abs=1e-12)
    assert G[2, 0, 2] == pytest.approx(0.5, abs=1e-12)


def test_connection_fd_matches_analytic(models):
    # the closed forms of the conformal geometry rest on the analytic Gamma:
    # check it against differences of g itself on every model, over boxes that
    # reach where Gamma is largest (small theta on the cylinder, the chart's rim
    # on rotating_frame)
    boxes = {
        "minkowski3": ([-1.0] * 3, [1.0] * 3),
        "minkowski4": ([-1.0] * 4, [1.0] * 4),
        "einstein_cylinder": ([0.5, 0.0, -1.0], [2.5, 6.0, 1.0]),
        "static_well": ([-2.0, -2.0, -1.0], [2.0, 2.0, 1.0]),
        "rotating_frame": ([-1.4, -1.4, -1.0], [1.4, 1.4, 1.0]),
    }
    assert set(boxes) == set(MODEL_NAMES)
    rng = np.random.default_rng(1)
    for name, (lo, hi) in boxes.items():
        base = models[name]
        fd = make_model(ModelSpec(name, STANDARD_LAUNCH[name]["params"]))
        fd.analytic_christoffels = None
        for _ in range(10):
            q = rng.uniform(lo, hi)
            diff = np.abs(geo.connection_coeffs(base, q) - geo.connection_coeffs(fd, q))
            assert np.max(diff) < 1e-6, name


def test_connection_symmetric_lower(models):
    rng = np.random.default_rng(2)
    for name, model in models.items():
        info = STANDARD_LAUNCH[name]
        q = np.asarray(info["p"], dtype=float) + 0.05 * rng.standard_normal(model.m)
        G = geo.connection_coeffs(model, q)
        assert np.max(np.abs(G - np.swapaxes(G, 1, 2))) < 1e-12


def test_curvature_minkowski_zero(models):
    R = geo.curvature_tensor(models["minkowski3"], np.zeros(3))
    assert np.max(np.abs(R)) < 1e-14


def test_curvature_cylinder_sphere_block(models):
    # unit-sphere sectional curvature: R^theta_{phi theta phi} = sin^2(theta)
    q = np.array([1.1, 0.4, 0.0])
    R = geo.curvature_tensor(models["einstein_cylinder"], q)
    assert R[0, 1, 0, 1] == pytest.approx(np.sin(1.1) ** 2, abs=1e-8)
    # flat time direction
    assert abs(R[0, 2, 0, 2]) < 1e-10


def test_curvature_antisymmetry_and_pair_symmetry(models):
    rng = np.random.default_rng(3)
    for name, model in models.items():
        info = STANDARD_LAUNCH[name]
        q = np.asarray(info["p"], dtype=float) + 0.05 * rng.standard_normal(model.m)
        R = geo.curvature_tensor(model, q)
        assert np.max(np.abs(R + np.swapaxes(R, 2, 3))) < 1e-8
        g = model.g(q)
        # pairwise symmetry <R(v,w)z, u> = <R(z,u)v, w> on random vectors
        low = np.einsum("ea,abcd->ebcd", g, R)
        for _ in range(5):
            v, w, z, u = (rng.standard_normal(model.m) for _ in range(4))
            lhs = float(np.einsum("ebcd,b,c,d,e->", low, z, v, w, u))
            rhs = float(np.einsum("ebcd,b,c,d,e->", low, v, z, u, w))
            assert abs(lhs - rhs) < 1e-8 * (1 + abs(lhs))


def test_curvature_first_bianchi(models):
    rng = np.random.default_rng(4)
    for name, model in models.items():
        info = STANDARD_LAUNCH[name]
        q = np.asarray(info["p"], dtype=float) + 0.05 * rng.standard_normal(model.m)
        R = geo.curvature_tensor(model, q)
        for _ in range(5):
            u, v, w = (rng.standard_normal(model.m) for _ in range(3))
            t1 = np.einsum("abcd,b,c,d->a", R, w, u, v)
            t2 = np.einsum("abcd,b,c,d->a", R, u, v, w)
            t3 = np.einsum("abcd,b,c,d->a", R, v, w, u)
            assert np.max(np.abs(t1 + t2 + t3)) < 1e-6


def _all_axes_curvature(christoffels, q):
    """(Gamma, R) of geometry._curvature's stencil taken along every axis, the Killing one
    included, in the same order of operations."""
    h = geo._CURVATURE_STEP
    dG = np.stack([(8.0 * (christoffels(q + e) - christoffels(q - e))
                    - (christoffels(q + 2.0 * e) - christoffels(q - 2.0 * e))) / (12.0 * h)
                   for e in h * np.eye(q.shape[-1])], axis=-4)
    G = christoffels(q)
    R = np.einsum("...cadb->...abcd", dG) - np.einsum("...dacb->...abcd", dG)
    R += np.einsum("...ace,...edb->...abcd", G, G)
    R -= np.einsum("...ade,...ecb->...abcd", G, G)
    return G, R


def test_curvature_stencil_skips_the_killing_axis_bit_for_bit(models, r_s3_arcs):
    # in the adapted chart the Christoffels of g and g~ do not depend on the last
    # coordinate, so its differences are exactly 0 and skipping them changes no bit
    model_s3, arcs = r_s3_arcs
    cases = [(models[name], STANDARD_LAUNCH[name]["k"], np.asarray(STANDARD_LAUNCH[name]["p"]))
             for name in models]
    cases.append((model_s3, np.sqrt(2.0), arcs[4.5].sigma.points[::40]))
    rng = np.random.default_rng(11)
    for model, k, p in cases:
        q = p + 0.05 * rng.standard_normal((7,) + p.shape[-1:]) if p.ndim == 1 else p
        cg = geo.conformal_geometry(model, k)
        for christoffels in (lambda x: geo.connection_coeffs(model, x), cg.christoffels):
            G, R = geo._curvature(model, christoffels, q)
            G_ref, R_ref = _all_axes_curvature(christoffels, q)
            assert np.array_equal(G, G_ref) and np.array_equal(R, R_ref), model.name


def test_riemannian_metric_sign_flip(models):
    model = models["minkowski3"]
    q = np.zeros(3)
    y = model.y(q)
    assert geo.riemannian_metric_eval(model, q, y, y) == pytest.approx(1.0, abs=1e-14)


def test_riemannian_metric_restriction(models):
    rng = np.random.default_rng(5)
    model = models["rotating_frame"]
    q = np.array([0.4, 0.1, 0.0])
    g = model.g(q)
    y = model.y(q)
    for _ in range(10):
        v = rng.standard_normal(3)
        v -= (v @ g @ y) / (y @ g @ y) * y
        w = rng.standard_normal(3)
        w -= (w @ g @ y) / (y @ g @ y) * y
        assert geo.riemannian_metric_eval(model, q, v, w) == pytest.approx(
            geo.metric_eval(model, q, v, w), abs=1e-12)
        # mixed slot vanishes
        assert geo.riemannian_metric_eval(model, q, y, w) == pytest.approx(0.0, abs=1e-12)


def test_riemannian_metric_positive_definite(models):
    rng = np.random.default_rng(6)
    for name, model in models.items():
        info = STANDARD_LAUNCH[name]
        q = np.asarray(info["p"], dtype=float)
        for _ in range(20):
            v = rng.standard_normal(model.m)
            val = geo.riemannian_metric_eval(model, q, v, v)
            assert val > 0.0


def test_horizontal_frame_over_nodes_is_gram_schmidt_of_the_axes(models):
    # one call over a batch of nodes: rows g_R-orthonormal, g-orthogonal to Y, and the
    # Gram-Schmidt frame of the chart axes after the g_R-unit Y at every node
    rng = np.random.default_rng(8)
    for name, model in models.items():
        m = model.m
        q = (np.asarray(STANDARD_LAUNCH[name]["p"], dtype=float)
             + 0.05 * rng.standard_normal((20, m)))
        E = geo.horizontal_frame(model, q)
        gr = geo.riemannian_metric_matrix(model, q)
        assert E.shape == (20, m - 1, m)
        assert np.max(np.abs(E @ gr @ E.mT - np.eye(m - 1))) <= 1e-14, name
        assert np.max(np.abs(E @ model.g(q)[..., -1:])) <= 1e-14, name
        for x, frame, gr_x in zip(q, E, gr):
            y = model.y(x)
            ref = gram_schmidt(gr_x, [y / np.sqrt(y @ gr_x @ y), *np.eye(m)], m)[1:]
            assert np.max(np.abs(frame - ref)) <= 1e-14, name


def test_conformal_factor_values(models):
    model = models["minkowski3"]
    q = np.zeros(3)
    assert geo.conformal_factor(model, q, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert geo.conformal_factor(model, q, np.sqrt(2.0)) == pytest.approx(1.0, rel=1e-14)


def test_conformal_factor_pole(models):
    with pytest.raises(OutsideUk):
        geo.conformal_factor(models["minkowski3"], np.zeros(3), 1.0)
    # static_well: <Y,Y> = -5 at x = 2, so k = 2 is outside
    with pytest.raises(OutsideUk):
        geo.conformal_factor(models["static_well"], [2.0, 0, 0], 2.0)


def test_uk_membership(models):
    model = models["minkowski3"]
    q = np.zeros(3)
    assert not geo.uk_membership(model, q, 0.5)
    assert geo.uk_membership(model, q, 2.0)
    assert not geo.uk_membership(models["static_well"], [2.0, 0, 0], 2.0)


def test_conformal_geometry_flat(models):
    cg = geo.conformal_geometry(models["minkowski3"], np.sqrt(2.0))
    q = np.array([0.3, -0.2, 0.5])
    gt = cg.metric(q)
    # constant factor 1 on the horizontal block, +1 on the Y block
    assert np.allclose(gt, np.eye(3), atol=1e-14)
    assert np.max(np.abs(cg.christoffels(q))) < 1e-10


def test_conformal_christoffels_self_consistent(models):
    # the closed form against second-order differences of the assembled g~,
    # on every model
    for name in MODEL_NAMES:
        info = STANDARD_LAUNCH[name]
        cg = geo.conformal_geometry(models[name], info["k"])
        m = cg.m
        q = np.asarray(info["p"], dtype=float) + 0.1 * np.arange(1, m + 1) / m
        h = 1e-5
        dg = np.empty((m, m, m))
        for c in range(m):
            e = np.zeros(m)
            e[c] = h
            dg[c] = (cg.metric(q + e) - cg.metric(q - e)) / (2 * h)
        ginv = np.linalg.inv(cg.metric(q))
        term = (np.einsum("bdc->dbc", dg) + np.einsum("cdb->dbc", dg)
                - np.einsum("dbc->dbc", dg))
        ref = 0.5 * np.einsum("ad,dbc->abc", ginv, term)
        assert np.max(np.abs(cg.christoffels(q) - ref)) < 1e-6, name


def _round_sphere_curvature(theta):
    """R[a, b, c, d] = delta^a_c g_bd - delta^a_d g_bc on the (theta, phi) block, else 0:
    the exact curvature of the cylinder, and of any constant multiple of its g_R."""
    gs = np.zeros(theta.shape + (3, 3))
    gs[..., 0, 0] = 1.0
    gs[..., 1, 1] = np.sin(theta) ** 2
    delta = np.diag([1.0, 1.0, 0.0])
    return (np.einsum("ac,...bd->...abcd", delta, gs)
            - np.einsum("ad,...bc->...abcd", delta, gs))


def test_cylinder_curvatures_are_exact(models):
    # g~ = g_R / (k^2 - 1) with g_R = round S^2 x line: both curvatures are the
    # sphere's, to the rounding of one fourth-order difference
    model = models["einstein_cylinder"]
    n = 200
    theta = np.linspace(0.3, 2.8, n)
    q = np.column_stack([theta, np.linspace(0.0, 5.0, n), np.linspace(-1.0, 1.0, n)])
    exact = _round_sphere_curvature(theta)
    cg = geo.conformal_geometry(model, np.sqrt(2.0))
    assert np.max(np.abs(geo.curvature_tensor(model, q) - exact)) <= 1e-10
    assert np.max(np.abs(cg.curvature(q)[1] - exact)) <= 1e-10


def test_cylinder_conformal_christoffels_are_the_models(models):
    # phi_k is constant and g_R = round S^2 x line, so Gamma~ is the model's Gamma
    model = models["einstein_cylinder"]
    theta = np.linspace(0.3, 2.8, 200)
    q = np.column_stack([theta, np.linspace(0.0, 5.0, 200), np.zeros(200)])
    cg = geo.conformal_geometry(model, np.sqrt(2.0))
    assert np.max(np.abs(cg.christoffels(q) - model.analytic_christoffels(q))) <= 1e-14


def test_curvature_stencil_near_the_chart_edge_names_the_node(models):
    # the chart is 0.1 <= theta <= pi - 0.1; the node is in it, its stencil is not
    model = models["einstein_cylinder"]
    node = np.array([0.1 + 1e-4, 0.3, 0.0])
    batch = np.array([[np.pi / 2, 0.0, 0.0], node, [1.0, 2.0, 1.0]])
    cg = geo.conformal_geometry(model, np.sqrt(2.0))
    for curvature in (lambda q: geo.curvature_tensor(model, q), lambda q: cg.curvature(q)[1]):
        for q in (node, batch):
            with pytest.raises(StencilOutOfChart) as info:
                curvature(q)
            assert str(node) in str(info.value) and "stencil leaves chart" in str(info.value)
        assert curvature(batch[[0, 2]]).shape == (2, 3, 3, 3, 3)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_conformal_factor_gradient_matches_differences(models, name):
    # the closed form against fourth-order differences of phi_k itself
    info = STANDARD_LAUNCH[name]
    model = models[name]
    k = info["k"]
    rng = np.random.default_rng(8)
    q = np.asarray(info["p"], dtype=float) + 0.2 * rng.uniform(-1.0, 1.0, (5, model.m))
    h = 1e-3
    dphi = np.empty(q.shape)
    f = lambda x: geo.conformal_factor(model, x, k)  # noqa: E731
    for c, e in enumerate(h * np.eye(model.m)):
        dphi[:, c] = (8 * (f(q + e) - f(q - e)) - (f(q + 2 * e) - f(q - 2 * e))) / (12 * h)
    ref = np.linalg.solve(model.g(q), dphi[..., None])[..., 0]
    assert np.max(np.abs(geo.conformal_factor_gradient(model, q, k) - ref)) < 1e-9


def test_killing_antisymmetry_sampled(models):
    rng = np.random.default_rng(7)
    for name, model in models.items():
        info = STANDARD_LAUNCH[name]
        p = np.asarray(info["p"], dtype=float)
        for _ in range(100):
            q = p + 0.2 * rng.standard_normal(model.m)
            if not model.in_chart(q):
                continue
            v = rng.standard_normal(model.m)
            w = rng.standard_normal(model.m)
            res = geo.killing_residual(model, q, v, w)
            assert abs(res) < 1e-6 * np.linalg.norm(v) * np.linalg.norm(w)


def test_yy_constant_along_flow(models):
    for name, model in models.items():
        info = STANDARD_LAUNCH[name]
        q = np.asarray(info["p"], dtype=float)
        y = model.y(q)
        before = float(y @ model.g(q) @ y)
        q2 = flow_points(model, q[None, :], np.array([0.3]))[0]
        y2 = model.y(q2)
        after = float(y2 @ model.g(q2) @ y2)
        assert abs(after - before) < 1e-8


def test_flow_differential_isometry(models):
    for name, model in models.items():
        info = STANDARD_LAUNCH[name]
        q = np.asarray(info["p"], dtype=float)
        assert isometry_defect(model, q, 0.4) < 1e-7


# ---------------------------------------------------------------------------
# The horizontality gate, |<v,Y>| <= rtol |v|_R |Y|_R at every node, through each
# public entry that applies it.  static_well at x = 1 has |Y|_R = sqrt(2).

def _tilted(model, q, v, c):
    """v plus c |v|_R times the g_R-unit Y: for horizontal v, g_R cosine c / sqrt(1 + c^2)
    with Y."""
    g = model.g(q)
    return v + c * geo._gr_length(g, v) / np.sqrt(-g[-1, -1]) * model.y(q)


def _line(model, c, node=-1):
    """A horizontal straight line in y at x = 1, its velocity at ``node`` tilted by c."""
    grid = np.linspace(0.0, 1.0, 41)
    pts = np.stack([np.ones_like(grid), 0.4 * grid, np.zeros_like(grid)], axis=1)
    vels = np.tile([0.0, 0.4, 0.0], (grid.size, 1))
    vels[node] = _tilted(model, pts[node], vels[node], c)
    return Curve(grid=grid, points=pts, velocities=vels)


_Q = np.array([1.0, 0.0, 0.0])
_K = 2.0
_GATES = {
    "initial_velocity": (1e-8, NotHorizontal, lambda model, c: initial_velocity(
        model, _K, _Q, _tilted(model, _Q, np.array([1.0, 0.0, 0.0]), c) / np.sqrt(1.0 + c * c),
        0.5)),
    "integrate_conformal_geodesic": (1e-8, NotHorizontal, lambda model, c:
                                     integrate_conformal_geodesic(
                                         model, _K, _Q, _tilted(model, _Q, [0.0, 0.3, 0.0], c))),
    "geodesic_residual": (1e-6, NotHorizontal, lambda model, c:
                          geodesic_residual(model, _K, _line(model, c))),
    "lift_G": (1e-6, NotHorizontal, lambda model, c: lift_G(model, _K, _line(model, c))),
    "second_fundamental_form_gamma": (1e-8, NotNormal, lambda model, c:
                                      second_fundamental_form_gamma(
                                          model, _Q, _tilted(model, _Q, [1.0, 0.0, 0.0], c),
                                          model.y(_Q), model.y(_Q))),
    "gamma_jacobi_basis": (1e-6, NotOrthogonalStart, lambda model, c: gamma_jacobi_basis(
        ConformalCurveData(geo.conformal_geometry(model, _K), _line(model, c, node=0),
                           check=False))),
}


@pytest.mark.parametrize("entry", list(_GATES))
def test_horizontality_gate_is_the_g_R_cosine(models, entry):
    rtol, error, call = _GATES[entry]
    call(models["static_well"], rtol / 10.0)
    with pytest.raises(error):
        call(models["static_well"], 10.0 * rtol)


def test_linearized_conservation_is_the_derivative_of_the_laws(models, solutions):
    # moving the nodes along a field z and the velocities along z' changes the two
    # conservation residuals at the rate (c, 2 s) of the linearized pair, with
    # nabla z = z' + Gamma(sigma', z) and nabla Y = Gamma[..., -1]
    rng = np.random.default_rng(33)
    for name in ("static_well", "rotating_frame", "minkowski4", "einstein_cylinder"):
        model, sol = models[name], solutions[name]
        pts, vels = sol.sigma.points, sol.sigma.velocities
        z, dz = sine_bumps(sol.sigma.grid, 0.1 * rng.standard_normal((3, model.m)))
        G = geo.connection_coeffs(model, pts)
        nz = dz + np.einsum("nabc,nb,nc->na", G, vels, z)
        c, s = geo._linearized_conservation(model.g(pts), G[..., -1], vels, z, nz)
        h = 1e-5
        plus, minus = (geo._conservation(model.g(pts + e * z), vels + e * dz, sol.k, sol.T)
                       for e in (h, -h))
        for fd, exact in zip(((p - m) / (2.0 * h) for p, m in zip(plus, minus)), (c, 2.0 * s)):
            assert np.max(np.abs(fd - exact)) <= 1e-7 * (1.0 + np.max(np.abs(exact))), name
