"""Sampled curves on [0, 1], vector fields along them, covariant derivatives,
and quadrature helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GridMismatch, GridTooCoarse
from .geometry import SpacetimeModel, connection_coeffs, _inner

__all__ = [
    "Curve",
    "FieldAlongCurve",
    "covariant_nodes",
    "covariant_derivative_along",
    "field_integral",
    "resample_curve",
    "sine_bumps",
    "cumulative_integral",
    "grid_integral",
    "csv_rows",
    "curve_to_csv",
    "curve_from_csv",
    "curve_to_json_dict",
    "curve_from_json_dict",
]


@dataclass
class Curve:
    """A curve sampled on a strictly increasing grid with t0 = 0, tN = 1.

    ``points[i]`` and ``velocities[i]`` are the chart position and chart
    velocity at ``grid[i]``.
    """

    grid: np.ndarray
    points: np.ndarray      # (N+1, m)
    velocities: np.ndarray  # (N+1, m)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        if self.grid.ndim != 1 or np.any(np.diff(self.grid) <= 0.0):
            raise GridMismatch("grid must be strictly increasing")
        if abs(self.grid[0]) > 1e-14 or abs(self.grid[-1] - 1.0) > 1e-14:
            raise GridMismatch("grid must span [0, 1]")
        if self.points.shape != self.velocities.shape or self.points.shape[0] != self.grid.size:
            raise GridMismatch("points/velocities shapes do not match the grid")

    @property
    def n_segments(self) -> int:
        return self.grid.size - 1

    @property
    def m(self) -> int:
        return self.points.shape[1]

    def point_spline(self) -> _CubicSpline:
        return _CubicSpline(self.grid, self.points)

    def velocity_spline(self) -> _CubicSpline:
        return _CubicSpline(self.grid, self.velocities)

    def reversed(self) -> "Curve":
        """Direction reversal t -> 1 - t."""
        return Curve(grid=1.0 - self.grid[::-1],
                     points=self.points[::-1].copy(),
                     velocities=-self.velocities[::-1])


@dataclass
class FieldAlongCurve:
    """Nodal values of a vector field along a host curve.

    ``derivatives`` optionally stores exact covariant derivative values; when
    missing they are reconstructed by differencing the nodal values.
    """

    host: Curve
    values: np.ndarray                      # (N+1, m)
    derivatives: Optional[np.ndarray] = None  # (N+1, m), covariant, optional

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.host.points.shape:
            raise GridMismatch("field values do not match host curve shape")
        if self.derivatives is not None:
            self.derivatives = np.asarray(self.derivatives, dtype=float)
            if self.derivatives.shape != self.values.shape:
                raise GridMismatch("field derivatives do not match host curve shape")

    def reversed(self) -> "FieldAlongCurve":
        der = None if self.derivatives is None else -self.derivatives[::-1]
        return FieldAlongCurve(host=self.host.reversed(),
                               values=self.values[::-1].copy(),
                               derivatives=der)


# ---------------------------------------------------------------------------
# Cubic splines of node data

class _Reduction:
    """Odd-even cyclic reduction of a tridiagonal matrix (Buzbee, Golub & Nielson 1970),
    made once and applied to any number of right-hand sides.

    Row i has ``lower[i]`` left of the diagonal, ``diag[i]`` on it and ``upper[i]`` right
    of it (``lower[0]`` and ``upper[-1]`` are not read).  Each level eliminates the odd
    rows from the even ones; nothing is pivoted, so the matrix must be diagonally
    dominant or symmetric positive definite.  A solve is elementwise across the columns
    of its right-hand side: each column's solution is that of the column alone."""

    def __init__(self, lower, diag, upper):
        a, b, c = (np.array(x, dtype=float) for x in (lower, diag, upper))
        a[0] = c[-1] = 0.0
        self.levels = []   # per level: its rows' stride, the even rows' multipliers, the odd rows
        stride = 1
        while b.size > 1:
            ne, no = (b.size + 1) // 2, b.size // 2
            ao, bo, co = a[1::2], b[1::2], c[1::2]
            al, ga = -a[2::2] / bo[:ne - 1], -c[0::2][:no] / bo   # even row j takes al[j - 1]
            a, b, c = np.zeros(ne), b[0::2].copy(), np.zeros(ne)  # times odd row j - 1 and
            b[1:] += al * co[:ne - 1]                               # ga[j] times odd row j
            b[:no] += ga * ao
            a[1:], c[:no] = al * ao[:ne - 1], ga * co
            cols = tuple(x[:, None] for x in (al, ga, ao, co[:ne - 1], bo))
            self.levels.append((stride,) + cols)
            stride *= 2
        self.last = b[0]

    def solve(self, r: np.ndarray) -> np.ndarray:
        """The solution for the right-hand sides r, shape (rows, columns).  A level's rows
        are every stride-th row of one array, reduced in place and then solved in place."""
        x = np.array(r, dtype=float)
        for stride, al, ga, _, _, _ in self.levels:
            even, odd = x[::2 * stride], x[stride::2 * stride]
            even[1:] += al * odd[:al.shape[0]]
            even[:ga.shape[0]] += ga * odd
        x[0] /= self.last
        for stride, _, _, ao, co, bo in reversed(self.levels):
            even, odd = x[::2 * stride], x[stride::2 * stride]
            odd -= ao * even[:bo.shape[0]]
            odd[:co.shape[0]] -= co * even[1:]
            odd /= bo
        return x


_REDUCTIONS = {}       # the reduced spline matrix of each grid (by its bytes), the latest few
_REDUCTIONS_KEPT = 8


def _spline_reduction(x: np.ndarray) -> _Reduction:
    """The reduction of the slope equations at the interior nodes of grid x, the not-a-knot
    rows folded into their neighbours: a diagonally dominant matrix that x alone fixes."""
    key = x.tobytes()
    red = _REDUCTIONS.get(key)
    if red is None:
        h = np.diff(x)
        diag = 2.0 * (h[:-1] + h[1:])
        diag[0], diag[-1] = x[2] - x[0], x[-1] - x[-3]
        red = _Reduction(h[1:], diag, h[:-1])
        if len(_REDUCTIONS) >= _REDUCTIONS_KEPT:
            del _REDUCTIONS[next(iter(_REDUCTIONS))]
        _REDUCTIONS[key] = red
    return red


class _Pieces:
    """A piecewise polynomial in columns, each column on its own.

    ``c[:, i]``, shape (degree + 1, columns), is the piece from ``knots[i]`` in powers of
    t - knots[i], highest first.  The last row continues the last piece from the last
    knot, so every knot, the last one included, reads its own row's constant term: the
    node value, exactly.  A t outside the knots is read off the first or the last piece.
    ``shape`` is the trailing shape of the values, whose columns are flattened."""

    def __init__(self, knots: np.ndarray, c: np.ndarray, shape: tuple):
        self.knots, self.c, self.shape = knots, c, shape
        self._right = knots[1:]

    def __call__(self, t, nu: int = 0) -> np.ndarray:
        """The nu-th derivative at t, shape ``np.shape(t) + shape``."""
        out = self.columns(t, nu)
        return out.reshape(out.shape[:-1] + self.shape)

    def columns(self, t, nu: int = 0, cols: slice | None = None) -> np.ndarray:
        """The nu-th derivative (nu below the degree) of the columns ``cols`` (all by
        default) at t, shape ``np.shape(t) + (columns,)``, in Horner steps elementwise: no
        product mixes columns, so a column's value is that of its spline alone.  A t of
        one point is read off a view of its piece's row, with no gather."""
        t = np.asarray(t, dtype=float)
        c = self.c if cols is None else self.c[:, :, cols]
        if t.size == 1:
            tt = t.item()
            i = self._right.searchsorted(tt, side="right")
            x, rows = tt - self.knots[i], c[:, i]
        else:
            i = self._right.searchsorted(t, side="right")
            x = (t - self.knots[i])[..., None]
            rows = c.take(i, axis=1) if cols is None else c[:, i]
        deg = self.c.shape[0] - 1 - nu   # the derivative's degree
        if nu:
            rows = [rows[j] * math.perm(deg + nu - j, nu) for j in range(deg)] + [
                rows[deg] * math.factorial(nu)]
        out = rows[0] * x
        for j in range(1, deg):
            out += rows[j]
            out *= x
        out += rows[deg]
        return out.reshape(t.shape + out.shape[-1:])

    def at_knots(self, nu: int = 0) -> np.ndarray:
        """The nu-th derivative at each knot, read off the rows."""
        vals = self.c[-1 - nu] * math.factorial(nu)
        return vals.reshape(self.knots.shape + self.shape)

    def antiderivative(self) -> "_Pieces":
        """The antiderivative that vanishes at the first knot: at each knot, the sum of the
        integrals of the pieces before it."""
        deg = self.c.shape[0] - 1
        c = np.empty((deg + 2,) + self.c.shape[1:])
        np.divide(self.c, np.arange(deg + 1, 0, -1)[:, None, None], out=c[:-1])
        h = np.diff(self.knots)[:, None]
        piece = c[0, :-1].copy()
        for j in range(1, deg + 1):
            piece *= h
            piece += c[j, :-1]
        piece *= h
        c[-1, 0] = 0.0
        np.cumsum(piece, axis=0, out=c[-1, 1:])
        return _Pieces(self.knots, c, self.shape)

    def integrate(self, a, b) -> np.ndarray:
        """The integral from a to b."""
        anti = self.antiderivative()
        return anti(b) - anti(a)


class _CubicSpline(_Pieces):
    """The not-a-knot cubic spline of node data (de Boor, *A Practical Guide to Splines*,
    ch. IV): ``values`` along axis 0 at the nodes of ``grid``, any trailing shape.

    The slopes at the nodes solve one tridiagonal system.  Folding each not-a-knot row
    into its neighbour leaves a diagonally dominant system for the interior slopes,
    solved by the grid's ``_Reduction``; the end slopes follow.  Every step is
    elementwise across the columns.  Three nodes give the parabola through them; fewer
    raise GridTooCoarse."""

    def __init__(self, grid, values):
        x = np.asarray(grid, dtype=float)
        y = np.asarray(values, dtype=float)
        if x.size < 3:
            raise GridTooCoarse("a cubic spline needs at least 3 nodes")
        shape, y = y.shape[1:], y.reshape(x.size, -1)
        h = np.diff(x)[:, None]
        slope = np.diff(y, axis=0) / h
        s = np.empty_like(y)
        if x.size == 3:
            s[1] = (h[1] * slope[0] + h[0] * slope[1]) / (x[2] - x[0])
            s[0], s[2] = 2.0 * slope[0] - s[1], 2.0 * slope[1] - s[1]
        else:
            d, e = x[2] - x[0], x[-1] - x[-3]
            r = 3.0 * (h[1:] * slope[:-1] + h[:-1] * slope[1:])
            first = ((h[0] + 2.0 * d) * h[1] * slope[0] + h[0] ** 2 * slope[1]) / d
            last = (h[-1] ** 2 * slope[-2] + (2.0 * e + h[-1]) * h[-2] * slope[-1]) / e
            r[0] -= first
            r[-1] -= last
            s[1:-1] = _spline_reduction(x).solve(r)
            s[0] = (first - d * s[1]) / h[1]
            s[-1] = (last - e * s[-2]) / h[-2]
        t = (s[:-1] + s[1:] - 2.0 * slope) / h
        c = np.empty((4,) + y.shape)
        c[0, :-1] = t / h
        c[1, :-1] = (slope - s[:-1]) / h - t
        c[0, -1] = c[0, -2]
        c[1, -1] = c[1, -2] + 3.0 * c[0, -2] * h[-1]
        c[2], c[3] = s, y
        super().__init__(x, c, shape)


class _NodeSpline:
    """Named per-node arrays as the columns of one cubic spline on their grid.

    Each part's values and derivatives are bit-identical to those of a spline of that
    part alone."""

    def __init__(self, grid: np.ndarray, parts: dict):
        self._layout = {}
        start = 0
        for name, arr in parts.items():
            width = arr[0].size
            self._layout[name] = (start, start + width, arr.shape[1:])
            start += width
        self._spl = _CubicSpline(grid, np.hstack([arr.reshape(grid.size, -1)
                                                  for arr in parts.values()]))
        self._spans = {}   # by tuple of names: the columns they span, each one's columns in them

    def sample(self, t, nu: int = 0, names: tuple | None = None) -> dict:
        """The nu-th derivatives at parameter(s) t of the arrays ``names`` (all of them by
        default), as views into one evaluation of the columns they span."""
        if names not in self._spans:
            layout = {name: self._layout[name] for name in names or self._layout}
            lo = min(start for start, _, _ in layout.values())
            hi = max(stop for _, stop, _ in layout.values())
            self._spans[names] = (None if names is None else slice(lo, hi),
                                  {name: (slice(start - lo, stop - lo), shape)
                                   for name, (start, stop, shape) in layout.items()})
        cols, layout = self._spans[names]
        vals = self._spl.columns(t, nu, cols)
        lead = vals.shape[:-1]
        return {name: vals[..., sl].reshape(lead + shape) for name, (sl, shape) in layout.items()}


def covariant_nodes(c: Curve, gamma: np.ndarray, f: FieldAlongCurve) -> np.ndarray:
    """nabla_{c'} f at the nodes of c, from the Christoffels ``gamma`` at those nodes.

    ``gamma`` may be Lorentzian or conformal.  The stored exact values are
    returned when f carries them; otherwise the derivative of the nodal cubic
    spline of f (its slopes at the nodes) plus Gamma(c', f).
    """
    if f.derivatives is not None:
        return f.derivatives
    return (_CubicSpline(c.grid, f.values).at_knots(1)
            + np.einsum("nabc,nb,nc->na", gamma, c.velocities, f.values))


def _require_hosted(c: Curve, f: FieldAlongCurve) -> None:
    """Raise unless f lives on the grid of c and that grid has the 5 nodes a derivative needs."""
    if f.host is not c and not np.array_equal(f.host.grid, c.grid):
        raise GridMismatch("field not hosted on the given curve")
    if c.grid.size < 5:
        raise GridTooCoarse("covariant derivative needs at least 5 nodes")


def covariant_derivative_along(model: SpacetimeModel, c: Curve,
                               f: FieldAlongCurve) -> FieldAlongCurve:
    """Node-wise covariant derivative of f along c in the Lorentzian connection.

    Uses the stored exact derivative values when the field carries them.
    """
    _require_hosted(c, f)
    if f.derivatives is not None:
        return FieldAlongCurve(host=c, values=f.derivatives.copy())
    return FieldAlongCurve(host=c, values=covariant_nodes(c, connection_coeffs(model, c.points), f))


def field_integral(model: SpacetimeModel, c: Curve, f: FieldAlongCurve,
                   g: FieldAlongCurve, weight=None) -> float:
    """Composite trapezoid of weight * <f, g> over the curve grid."""
    if f.values.shape != g.values.shape:
        raise GridMismatch("fields live on different grids")
    vals = _inner(model.g(c.points), f.values, g.values)
    if weight is not None:
        vals = vals * np.asarray(weight, dtype=float)
    return float(np.trapezoid(vals, c.grid))


def grid_integral(grid: np.ndarray, vals: np.ndarray) -> float:
    """Spline quadrature of nodal samples (fourth-order accurate)."""
    return float(_CubicSpline(grid, vals).integrate(grid[0], grid[-1]))


def cumulative_integral(grid: np.ndarray, vals: np.ndarray, t0: float | None = None) -> np.ndarray:
    """F(t_i) = int_{t0}^{t_i} of the nodal spline of vals, off its antiderivative; t0 = grid[0]."""
    anti = _CubicSpline(grid, vals).antiderivative()
    return anti.at_knots() - anti(grid[0] if t0 is None else t0)


def sine_bumps(grid: np.ndarray, coeffs) -> tuple:
    """(b, b') at the nodes of ``grid`` for b(t) = sum_j coeffs[j] sin((j + 1) pi t): a smooth
    field that vanishes at both ends, one row of ``coeffs`` per mode."""
    coeffs = np.asarray(coeffs, dtype=float)
    vals = np.zeros((grid.size, coeffs.shape[1]))
    ders = np.zeros((grid.size, coeffs.shape[1]))
    for j in range(coeffs.shape[0]):
        vals += np.sin((j + 1) * np.pi * grid)[:, None] * coeffs[j][None, :]
        ders += ((j + 1) * np.pi * np.cos((j + 1) * np.pi * grid))[:, None] * coeffs[j][None, :]
    return vals, ders


def resample_curve(c: Curve, n_new: int) -> Curve:
    """Cubic resampling onto a uniform grid with n_new segments."""
    if n_new < 4:
        raise GridTooCoarse("resampling needs at least 4 segments")
    grid = np.linspace(0.0, 1.0, n_new + 1)
    spline = c.point_spline()
    return Curve(grid=grid, points=spline(grid), velocities=spline(grid, 1))


# ---------------------------------------------------------------------------
# Serialization

def csv_rows(rows) -> list:
    """Each row of a 2-D array as one CSV line of ``.17g`` numbers (round-trip exact)."""
    rows = np.asarray(rows, dtype=float)
    fmt = ",".join(["%.17g"] * rows.shape[-1])
    return [fmt % tuple(row.tolist()) for row in rows]  # row by row: no list of all floats


def curve_to_csv(c: Curve) -> str:
    """CSV with columns t, q_1..q_m, v_1..v_m (17 significant digits)."""
    m = c.m
    cols = ["t"] + [f"q_{i+1}" for i in range(m)] + [f"v_{i+1}" for i in range(m)]
    lines = [",".join(cols)] + csv_rows(np.column_stack([c.grid, c.points, c.velocities]))
    return "\n".join(lines) + "\n"


def curve_from_csv(text: str) -> Curve:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    header = lines[0].split(",")
    m = (len(header) - 1) // 2
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return Curve(grid=data[:, 0], points=data[:, 1:1 + m], velocities=data[:, 1 + m:1 + 2 * m])


def curve_to_json_dict(c: Curve) -> dict:
    return {
        "grid": list(c.grid),
        "points": [list(row) for row in c.points],
        "velocities": [list(row) for row in c.velocities],
    }


def curve_from_json_dict(d: dict) -> Curve:
    return Curve(grid=np.asarray(d["grid"]), points=np.asarray(d["points"]),
                 velocities=np.asarray(d["velocities"]))
