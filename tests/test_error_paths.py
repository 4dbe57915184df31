"""Error classes raised on purpose by the geometry and index machinery."""

import numpy as np
import pytest

from brachkit import geometry as geo
from brachkit.curves import Curve
from brachkit.errors import FrameDegenerate, StencilOutOfChart
from brachkit.models import ModelSpec, make_model
from brachkit.variation import ConformalCurveData, assemble_hessian


def test_fd_connection_stencil_leaves_chart():
    model = make_model(ModelSpec("einstein_cylinder"))
    model.analytic_christoffels = None
    edge = np.array([0.1 + 1e-6, 0.3, 0.0])
    with pytest.raises(StencilOutOfChart):
        geo.connection_coeffs(model, edge)
    batch = np.array([[np.pi / 2, 0.0, 0.0], edge, [1.0, 2.0, 1.0]])
    with pytest.raises(StencilOutOfChart):
        geo.connection_coeffs(model, batch)
    # the same batch without the edge node is fine
    assert geo.connection_coeffs(model, batch[[0, 2]]).shape == (2, 3, 3, 3)


def test_perpendicular_frame_degenerate_when_velocity_along_y(models):
    model = models["minkowski3"]
    cg = geo.conformal_geometry(model, np.sqrt(2.0))
    grid = np.linspace(0.0, 1.0, 41)
    y = model.y(np.zeros(3))
    w = Curve(grid=grid, points=np.outer(grid, y), velocities=np.tile(y, (grid.size, 1)))
    data = ConformalCurveData(cg, w, check=False)
    with pytest.raises(FrameDegenerate):
        assemble_hessian(cg, w, "perpendicular", 8, data=data)
