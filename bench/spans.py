"""Stdlib span and counter recorder, and the instrumentation the traced run uses.

A span is one timed call of a layer's public function.  Spans nest: a span's
self time is its duration minus the durations of the spans (and model
callbacks) that ran inside it.  Finished spans are kept in memory and written
out when the benchmark ends; the hottest layers (model callbacks, Christoffel
symbols, curvature, ODE solves) are only aggregated, so memory stays flat.

``instrument(recorder)`` swaps wrappers into every brachkit module binding of
the functions listed below and restores the originals on exit.  Nothing in
``src/`` is modified; outside the ``with`` block brachkit runs unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter_ns

# (defining module, function name, span name, kept as individual spans)
FUNCTIONS = (
    ("geometry", "connection_coeffs", "geometry.connection_coeffs", False),
    ("variation", "assemble_hessian", "variation.assemble_hessian", True),
    ("variation", "restricted_index_report", "variation.restricted_index", True),
    ("jacobi", "focal_points", "jacobi.focal_points", True),
    ("jacobi", "bfocal_points", "jacobi.bfocal_points", True),
    ("jacobi", "integrate_bjacobi", "jacobi.integrate_bjacobi", True),
    ("dynamics", "integrate_brachistochrone_from_velocity", "dynamics.integrate", True),
    ("dynamics", "conservation_report", "dynamics.conservation_report", True),
    ("dynamics", "geodesic_residual", "dynamics.geodesic_residual", True),
    ("transform", "deform_D", "transform.deform_D", True),
    ("transform", "lift_G", "transform.lift_G", True),
    ("transform", "correspondence_report", "transform.correspondence", True),
    ("bvp", "shoot", "bvp.shoot", True),
    ("oracle", "discrete_minimize", "oracle.discrete_minimize", True),
    ("cli", "dumps_canonical", "cli.dumps_canonical", True),
)
# modules whose own ``solve_ivp`` binding is wrapped, one ``ode.<module>`` span each
ODE_MODULES = ("dynamics", "transform", "bvp", "jacobi")
# SpacetimeModel callable fields, counted and timed as leaves
MODEL_CALLBACKS = (("metric_components", "models.g"), ("killing_components", "models.y"),
                   ("killing_jacobian", "models.dy"),
                   ("analytic_christoffels", "models.christoffel"))


class Recorder:
    """Nested spans with self times, plus named counters."""

    def __init__(self):
        self.spans = []     # finished kept spans: (id, parent id, name, t0_ns, t1_ns, self_ns)
        self.totals = {}    # name -> [calls, total_ns, self_ns, failed]
        self.counters = {}
        self._stack = []    # open frames: [id, parent id, name, t0_ns, child_ns]
        self._next_id = 0

    def begin(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, parent, name, perf_counter_ns(), 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def end(self, frame: list, keep: bool = True, failed: bool = False):
        t1 = perf_counter_ns()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span '{frame[2]}' closed out of order")
        dur = t1 - frame[3]
        tot = self.totals.setdefault(frame[2], [0, 0, 0, 0])
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - frame[4]
        tot[3] += failed
        if self._stack:
            self._stack[-1][4] += dur
        if keep:
            self.spans.append((frame[0], frame[1], frame[2], frame[3], t1, dur - frame[4]))

    @contextmanager
    def span(self, name: str):
        frame = self.begin(name)
        failed = True
        try:
            yield frame
            failed = False
        finally:
            self.end(frame, failed=failed)

    def leaf(self, name: str, dur_ns: int):
        """Account a call that opens no spans (a model callback) without storing it."""
        tot = self.totals.setdefault(name, [0, 0, 0, 0])
        tot[0] += 1
        tot[1] += dur_ns
        tot[2] += dur_ns
        if self._stack:
            self._stack[-1][4] += dur_ns

    def count(self, name: str, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0,))[0]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0))[2] / 1e9

    def failed(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0, 0))[3]

    def as_dict(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "totals": {k: {"calls": v[0], "total_s": v[1] / 1e9, "self_s": v[2] / 1e9,
                           "failed": v[3]} for k, v in sorted(self.totals.items())},
            "counters": dict(sorted(self.counters.items())),
        }


def _span_wrapper(rec: Recorder, name: str, fn, keep: bool, on_call=None):
    # begin/end rather than Recorder.span: some wrappers run ~10^6 times a pass
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(*args, **kwargs)
        frame = rec.begin(name)
        failed = True
        try:
            out = fn(*args, **kwargs)
            failed = False
            return out
        finally:
            rec.end(frame, keep, failed)
    return wrapper


def _leaf_wrapper(rec: Recorder, name: str, fn):
    def wrapper(q):
        t0 = perf_counter_ns()
        try:
            return fn(q)
        finally:
            rec.leaf(name, perf_counter_ns() - t0)
    return wrapper


def _counting_wrapper(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)
    return wrapper


def _ode_wrapper(rec: Recorder, module: str, solve_ivp):
    name = f"ode.{module}"

    @functools.wraps(solve_ivp)
    def wrapper(*args, **kwargs):
        frame = rec.begin(name)
        failed = True
        try:
            out = solve_ivp(*args, **kwargs)
            failed = not out.success
            rec.count(f"ode.nfev.{module}", int(out.nfev))
            return out
        finally:
            rec.end(frame, keep=False, failed=failed)
    return wrapper


def _brachkit_modules() -> list:
    importlib.import_module("brachkit.cli")  # imports every module the front end uses
    return [mod for key, mod in sys.modules.items()
            if mod is not None and (key == "brachkit" or key.startswith("brachkit."))]


@contextmanager
def instrument(rec: Recorder):
    """Wrap brachkit's public functions at every module binding while the block runs."""
    modules = _brachkit_modules()
    pkg = {mod.__name__.rsplit(".", 1)[-1]: mod for mod in modules}
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def rebind(original, new):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    patch(mod, attr, new)

    try:
        for module, fname, name, keep in FUNCTIONS:
            original = getattr(pkg[module], fname)
            rebind(original, _span_wrapper(rec, name, original, keep))

        import numpy as np

        def count_points(model, starts, times):
            rec.count("transform.flow_points_points", np.atleast_2d(starts).shape[0])

        flow_points = pkg["transform"].flow_points
        rebind(flow_points, _span_wrapper(rec, "transform.flow_points", flow_points, True,
                                          on_call=count_points))

        rrm = pkg["geometry"].riemannian_metric_matrix
        rebind(rrm, _counting_wrapper(rec, "geometry.riemannian_metric_matrix", rrm))

        cgeom = pkg["geometry"].ConformalGeometry
        patch(cgeom, "curvature", _span_wrapper(
            rec, "geometry.conformal_curvature", cgeom.curvature, False))
        ccd = pkg["variation"].ConformalCurveData
        patch(ccd, "__init__", _span_wrapper(
            rec, "variation.conformal_curve_data", ccd.__init__, True))
        worldline = pkg["bvp"].ObserverWorldline
        patch(worldline, "point", _counting_wrapper(rec, "bvp.worldline_point", worldline.point))

        for module in ODE_MODULES:
            patch(pkg[module], "solve_ivp", _ode_wrapper(rec, module, pkg[module].solve_ivp))

        make_model = pkg["models"].make_model

        @functools.wraps(make_model)
        def traced_make_model(spec):
            model = make_model(spec)
            for field, name in MODEL_CALLBACKS:
                fn = getattr(model, field)
                if fn is not None:
                    setattr(model, field, _leaf_wrapper(rec, name, fn))
            return model

        rebind(make_model, traced_make_model)
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
