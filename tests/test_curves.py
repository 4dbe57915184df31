import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from brachkit.curves import (Curve, FieldAlongCurve, _CubicSpline, _NodeSpline,
                             covariant_derivative_along, curve_from_csv, curve_from_json_dict,
                             curve_to_csv, curve_to_json_dict, cumulative_integral,
                             field_integral, resample_curve)
from brachkit.errors import GridMismatch, GridTooCoarse
from brachkit.geometry import connection_coeffs


def straight_line(n=100, m=3):
    grid = np.linspace(0.0, 1.0, n + 1)
    direction = np.array([1.0, -0.5, 2.0])[:m]
    pts = np.outer(grid, direction)
    vels = np.tile(direction, (n + 1, 1))
    return Curve(grid=grid, points=pts, velocities=vels)


def great_circle(n=400, L=2.0):
    grid = np.linspace(0.0, 1.0, n + 1)
    pts = np.stack([np.full(n + 1, np.pi / 2), L * grid, np.zeros(n + 1)], axis=1)
    vels = np.stack([np.zeros(n + 1), np.full(n + 1, L), np.zeros(n + 1)], axis=1)
    return Curve(grid=grid, points=pts, velocities=vels)


def test_grid_validation():
    with pytest.raises(GridMismatch):
        Curve(grid=[0.0, 0.5, 0.4, 1.0], points=np.zeros((4, 3)),
              velocities=np.zeros((4, 3)))
    with pytest.raises(GridMismatch):
        Curve(grid=[0.1, 0.5, 1.0], points=np.zeros((3, 3)),
              velocities=np.zeros((3, 3)))


def test_covariant_derivative_flat_constant(models):
    c = straight_line()
    f = FieldAlongCurve(host=c, values=np.tile([0.3, 1.0, -0.2], (c.grid.size, 1)))
    out = covariant_derivative_along(models["minkowski3"], c, f)
    assert np.max(np.abs(out.values)) < 1e-12


def test_covariant_derivative_of_velocity_on_geodesic(models):
    c = straight_line()
    f = FieldAlongCurve(host=c, values=c.velocities.copy())
    out = covariant_derivative_along(models["minkowski3"], c, f)
    assert np.max(np.abs(out.values)) < 1e-12


def test_covariant_derivative_parallel_field(models):
    # transport a frame vector along a great circle, then check the nodal
    # derivative of the sampled field is small
    model = models["einstein_cylinder"]
    c = great_circle()

    def rhs(t, f):
        q = c.point_spline()(t)
        v = c.velocity_spline()(t)
        G = connection_coeffs(model, q)
        return -np.einsum("abc,b,c->a", G, v, f)

    out = solve_ivp(rhs, (0.0, 1.0), np.array([1.0, 0.0, 0.3]), rtol=1e-12,
                    atol=1e-12, dense_output=True)
    f = FieldAlongCurve(host=c, values=out.sol(c.grid).T)
    dv = covariant_derivative_along(model, c, f)
    assert np.max(np.abs(dv.values)) < 1e-3


def test_covariant_derivative_product_rule_order(models):
    model = models["einstein_cylinder"]
    worst = {}
    for n in (100, 200):
        c = great_circle(n=n)
        vals_f = np.stack([np.sin(2 * c.grid), np.cos(c.grid), c.grid ** 2], axis=1)
        vals_g = np.stack([c.grid, np.sin(c.grid), np.ones(c.grid.size)], axis=1)
        f = FieldAlongCurve(host=c, values=vals_f)
        g = FieldAlongCurve(host=c, values=vals_g)
        df = covariant_derivative_along(model, c, f)
        dg = covariant_derivative_along(model, c, g)
        ip = np.array([f.values[i] @ model.g(q) @ g.values[i]
                       for i, q in enumerate(c.points)])
        lhs = CubicSpline(c.grid, ip)(c.grid, 1)
        rhs = np.array([df.values[i] @ model.g(q) @ g.values[i]
                        + f.values[i] @ model.g(q) @ dg.values[i]
                        for i, q in enumerate(c.points)])
        worst[n] = np.max(np.abs(lhs - rhs))
    assert worst[100] / max(worst[200], 1e-30) >= 3.5


def test_covariant_derivative_rejects_field_on_other_grid(models):
    # f(t) = t hosted on a curve sampled at t = s^2 is not a field on a curve
    # sampled uniformly in s, although both grids have 11 nodes
    s = np.linspace(0.0, 1.0, 11)
    direction = np.array([1.0, 0.5, 0.0])

    def line(grid):
        return Curve(grid=grid, points=np.outer(grid, direction),
                     velocities=np.tile(direction, (grid.size, 1)))

    uniform, squared = line(s), line(s ** 2)
    f = FieldAlongCurve(host=squared, values=np.outer(squared.grid, [1.0, 0.0, 0.0]))
    with pytest.raises(GridMismatch):
        covariant_derivative_along(models["minkowski3"], uniform, f)
    # another curve object on an equal grid is accepted
    out = covariant_derivative_along(models["minkowski3"], line(s ** 2), f)
    assert np.max(np.abs(out.values[:, 0] - 1.0)) < 1e-12


def test_field_integral_basics(models):
    model = models["minkowski3"]
    c = straight_line(n=200)
    zero = FieldAlongCurve(host=c, values=np.zeros_like(c.points))
    assert field_integral(model, c, zero, zero) == 0.0
    const = FieldAlongCurve(host=c, values=np.tile([1.0, 0, 0], (c.grid.size, 1)))
    assert field_integral(model, c, const, const) == pytest.approx(1.0, abs=1e-14)


def test_field_integral_sine(models):
    model = models["minkowski3"]
    c = straight_line(n=200)
    f = FieldAlongCurve(host=c, values=np.stack(
        [np.sin(np.pi * c.grid), np.zeros(c.grid.size), np.zeros(c.grid.size)], axis=1))
    val = field_integral(model, c, f, f)
    assert val == pytest.approx(0.5, abs=1e-4)


def test_field_integral_symmetric_bilinear(models):
    model = models["minkowski3"]
    c = straight_line(n=50)
    rng = np.random.default_rng(0)
    f = FieldAlongCurve(host=c, values=rng.standard_normal(c.points.shape))
    g = FieldAlongCurve(host=c, values=rng.standard_normal(c.points.shape))
    assert field_integral(model, c, f, g) == pytest.approx(
        field_integral(model, c, g, f), abs=1e-14)
    both = FieldAlongCurve(host=c, values=f.values + g.values)
    assert field_integral(model, c, both, g) == pytest.approx(
        field_integral(model, c, f, g) + field_integral(model, c, g, g), rel=1e-12)


def test_node_spline_columns_equal_separate_splines():
    # values and first derivatives of each part of the fused spline, at scalar
    # and array t, are bit-identical to those of a spline of that part alone
    rng = np.random.default_rng(5)
    grid = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 399)]))
    parts = dict(q=rng.standard_normal((401, 3)), g=rng.standard_normal((401, 3, 3)),
                 gamma=rng.standard_normal((401, 3, 3, 3)), N=rng.standard_normal(401))
    fused = _NodeSpline(grid, parts)
    alone = {name: _CubicSpline(grid, arr) for name, arr in parts.items()}
    ts = np.concatenate([grid[::7], rng.uniform(0.0, 1.0, 50)])
    for nu in (0, 1):
        batch = fused.sample(ts, nu)
        for name, spl in alone.items():
            assert batch[name].shape == (ts.size,) + parts[name].shape[1:]
            assert np.array_equal(batch[name], spl(ts, nu)), (name, nu)
        for t in ts[::5]:
            one = fused.sample(t, nu)
            for name, spl in alone.items():
                assert np.array_equal(one[name], spl(t, nu)), (name, nu, t)
    # at the last knot a scalar t and an array t both read the node values
    for name, arr in parts.items():
        assert np.array_equal(fused.sample(grid[-1])[name], arr[-1]), name
        assert np.array_equal(fused.sample(grid[-1:])[name], arr[-1:]), name
    # a read of some parts evaluates only their columns, bit-identical to the full read
    for names in (("g",), ("gamma",), ("q", "N"), ("g", "gamma")):
        for t in (ts, ts[3], ts[3:4]):
            for nu in (0, 1, 2):
                some, full = fused.sample(t, nu, names), fused.sample(t, nu)
                assert list(some) == list(names)
                for name in names:
                    assert np.array_equal(some[name], full[name]), (names, name, nu)


def test_cubic_spline_matches_scipy():
    # the numpy not-a-knot spline agrees with scipy's CubicSpline to 1e-13 of each
    # quantity's largest value: values, first and second derivatives, integrals,
    # antiderivatives and the reads at the nodes, on non-uniform grids
    rng = np.random.default_rng(11)
    for n, width in ((3, 2), (4, 1), (5, 3), (6, 78), (9, 2), (64, 9), (401, 78), (801, 3)):
        grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.8, n - 1))])
        grid /= grid[-1]
        vals = rng.standard_normal((n, width))
        ours, ref = _CubicSpline(grid, vals), CubicSpline(grid, vals, axis=0)
        ts = np.concatenate([grid, rng.uniform(0.0, 1.0, 40)])

        def close(got, want, what):
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, (n, width, what)

        for nu in (0, 1, 2):
            close(ours(ts, nu), ref(ts, nu), nu)
            close(ours(0.37, nu), ref(0.37, nu), (nu, "scalar"))
        close(ours.at_knots(), ref(grid), "nodes")
        close(ours.at_knots(1), ref(grid, 1), "node slopes")
        close(ours.antiderivative()(ts), ref.antiderivative()(ts), "antiderivative")
        close(ours.integrate(grid[0], grid[-1]), ref.integrate(grid[0], grid[-1]), "integral")
        close(_CubicSpline(grid, vals[:, 0]).integrate(0.1, 0.8),
              ref.integrate(0.1, 0.8)[0], "integral of 1-D data")
        assert np.array_equal(ours.at_knots(), vals)   # the node values, the last one included
        assert np.array_equal(ours(grid), vals)
    for n in (0, 1, 2):   # three nodes give their parabola, fewer nothing
        with pytest.raises(GridTooCoarse):
            _CubicSpline(np.linspace(0.0, 1.0, n), np.ones(n))


def test_cumulative_integral_from_any_lower_limit():
    # the not-a-knot spline reproduces a cubic, so every integral is exact,
    # whether or not the lower limit is a node
    grid = np.sort(np.concatenate([[0.0, 1.0], np.random.default_rng(0).uniform(0, 1, 30)]))
    vals = 1.0 + grid - 2.0 * grid ** 2 + 3.0 * grid ** 3

    def F(t):
        return t + t ** 2 / 2 - 2.0 * t ** 3 / 3 + 3.0 * t ** 4 / 4

    for t0 in (None, 0.0, grid[7], 0.37, 1.0):
        lower = 0.0 if t0 is None else t0
        got = cumulative_integral(grid, vals, t0)
        assert np.max(np.abs(got - (F(grid) - F(lower)))) < 1e-14, t0
    assert cumulative_integral(grid, vals, grid[7])[7] == 0.0


def test_resample_straight_line():
    c = straight_line(n=57)
    r = resample_curve(c, 123)
    expected = np.outer(r.grid, [1.0, -0.5, 2.0])
    assert np.max(np.abs(r.points - expected)) < 1e-12
    assert np.max(np.abs(r.velocities - [1.0, -0.5, 2.0])) < 1e-10


def test_resample_identity():
    c = straight_line(n=64)
    r = resample_curve(c, 64)
    assert np.max(np.abs(r.points - c.points)) < 1e-12


def test_resample_refine_circle():
    c = great_circle(n=100)
    r = resample_curve(c, 400)
    drift = np.abs(np.linalg.norm(r.velocities, axis=1) - 2.0)
    assert np.max(drift) < 1e-5


def test_resample_too_coarse():
    with pytest.raises(GridTooCoarse):
        resample_curve(straight_line(), 3)


def test_serialization_roundtrip():
    c = great_circle(n=17)
    c2 = curve_from_csv(curve_to_csv(c))
    assert np.max(np.abs(c2.points - c.points)) == 0.0
    assert np.max(np.abs(c2.velocities - c.velocities)) == 0.0
    c3 = curve_from_json_dict(curve_to_json_dict(c))
    assert np.max(np.abs(c3.points - c.points)) == 0.0


def test_csv_rows_are_the_per_number_format():
    from brachkit.curves import csv_rows
    special = [-0.0, 5e-324, 1e300, np.nan, np.inf, -np.inf, 1.0 / 3.0]
    rows = np.array([special, special[::-1], [0.0, -1e-300, 2.0 ** 0.5, -7.0, 1e16, 123.0, 0.1]])
    # with and without a +0.0 (written unformatted), and mostly zeros
    for arr in (rows, rows[:2], np.diag(special)):
        assert csv_rows(arr) == [",".join(format(x, ".17g") for x in row) for row in arr]
    assert csv_rows(np.zeros((0, 3))) == []
    c = Curve(grid=np.linspace(0.0, 1.0, 7), points=rows.T.copy(), velocities=rows.T[::-1].copy())
    per_number = "t,q_1,q_2,q_3,v_1,v_2,v_3\n" + "".join(
        ",".join(format(x, ".17g") for x in [t, *q, *v]) + "\n"
        for t, q, v in zip(c.grid, c.points, c.velocities))
    assert curve_to_csv(c) == per_number
