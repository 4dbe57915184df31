"""Sampled curves on [0, 1], vector fields along them, covariant derivatives,
and quadrature helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline

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

    def point_spline(self) -> CubicSpline:
        return CubicSpline(self.grid, self.points, axis=0)

    def velocity_spline(self) -> CubicSpline:
        return CubicSpline(self.grid, self.velocities, axis=0)

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


class _NodeSpline:
    """Named per-node arrays as the columns of one cubic spline on their grid.

    Each column's values and derivatives are bit-identical to those of a
    spline of that quantity alone, except that the values at the last knot are
    the node values: every other knot starts a cubic and reads its node value
    exactly, the last one is the right end of the last cubic.
    """

    def __init__(self, grid: np.ndarray, parts: dict):
        self._layout = {}
        start = 0
        for name, arr in parts.items():
            width = arr[0].size
            self._layout[name] = (slice(start, start + width), arr.shape[1:])
            start += width
        columns = np.hstack([arr.reshape(grid.size, -1) for arr in parts.values()])
        self._spl = CubicSpline(grid, columns, axis=0)
        self._end = (grid[-1], columns[-1].copy())  # a view would keep all columns alive

    def sample(self, t, nu: int = 0) -> dict:
        """The arrays' nu-th derivatives at parameter(s) t, as views into one evaluation."""
        vals = self._spl(t, nu)
        if nu == 0:
            end, at_end = self._end
            vals[np.asarray(t) == end] = at_end
        lead = vals.shape[:-1]
        return {name: vals[..., sl].reshape(lead + shape)
                for name, (sl, shape) in self._layout.items()}


def covariant_nodes(c: Curve, gamma: np.ndarray, f: FieldAlongCurve) -> np.ndarray:
    """nabla_{c'} f at the nodes of c, from the Christoffels ``gamma`` at those nodes.

    ``gamma`` may be Lorentzian or conformal.  The stored exact values are
    returned when f carries them; otherwise the derivative of the nodal cubic
    spline of f plus Gamma(c', f).
    """
    if f.derivatives is not None:
        return f.derivatives
    return (CubicSpline(c.grid, f.values, axis=0)(c.grid, 1)
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
    return float(CubicSpline(grid, vals).integrate(grid[0], grid[-1]))


def cumulative_integral(grid: np.ndarray, vals: np.ndarray, t0: float | None = None) -> np.ndarray:
    """F(t_i) = int_{t0}^{t_i} of the nodal spline of vals, off its antiderivative; t0 = grid[0]."""
    anti = CubicSpline(grid, vals).antiderivative()
    return anti(grid) - anti(grid[0] if t0 is None else t0)


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
