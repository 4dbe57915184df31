"""Brachistochrone and conformal-geodesic integration.

The second-order brachistochrone equation is integrated as a first-order
system in (position, velocity).  Conservation of <sigma', Y> = -k T and
<sigma', sigma'> = -T^2 is implied by the equation together with the launch
conditions, so both quantities are monitored as independent correctness
checks rather than enforced by projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import RK45, solve_ivp

from .curves import Curve, FieldAlongCurve, covariant_nodes, grid_integral
from .errors import BrachkitError, NoConvergence, NotHorizontal, OutsideUk, StepFailure
from .geometry import (ConformalGeometry, SpacetimeModel, conformal_factor, conformal_geometry,
                       connection_coeffs, conservation_residuals, require_adapted_chart,
                       riemannian_metric_matrix, scalar_gradient, _coords, _inner, _inner_y)

__all__ = [
    "IntegratorConfig",
    "BrachistochroneSolution",
    "initial_velocity",
    "brachistochrone_acceleration",
    "brachistochrone_rhs",
    "rk45_lanes",
    "shot_endpoints",
    "integrate_brachistochrone",
    "integrate_conformal_geodesic",
    "conservation_report",
    "geodesic_residual",
]


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-10
    atol: float = 1e-10
    grid_n: int = 400
    tol_cons: float = 1e-7


@dataclass
class BrachistochroneSolution:
    """An integrated trial curve with its conserved quantities' residuals."""

    sigma: Curve
    T: float
    k: float
    residual_conservation_Y: float
    residual_conservation_speed: float
    residual_ode: float

    def check_conservation(self, tol_cons: float):
        from .errors import ConstraintViolated
        if self.residual_conservation_Y > tol_cons * (1.0 + self.k * self.T):
            raise ConstraintViolated(
                f"<sigma',Y> + kT residual {self.residual_conservation_Y:.3e} over tolerance")
        if self.residual_conservation_speed > tol_cons * (1.0 + self.T ** 2):
            raise ConstraintViolated(
                f"<sigma',sigma'> + T^2 residual {self.residual_conservation_speed:.3e} over tolerance")


def initial_velocity(model: SpacetimeModel, k: float, p, u, T: float) -> np.ndarray:
    """Launch velocity (T / sqrt(-<Y,Y>)) (k Yhat + sqrt(k^2 + <Y,Y>) u).

    ``u`` must be a g_R-unit direction orthogonal to Y; the result satisfies
    <v,v> = -T^2 and <v,Y> = -kT exactly.
    """
    q = model.require_in_chart(p)
    return _launch_velocity(model.g(q), riemannian_metric_matrix(model, q), k, u, T)


def _launch_velocity(g: np.ndarray, gr: np.ndarray, k: float, u, T: float) -> np.ndarray:
    """``initial_velocity`` at a launch point whose g and g_R are given (one point)."""
    u = _coords(u)
    yy = float(g[-1, -1])
    P = k * k + yy
    if P <= 0.0:
        raise OutsideUk(f"launch point violates k^2 + <Y,Y> > 0 (got {P})")
    uy = float(_inner_y(g, u))
    if abs(uy) > 1e-8 * np.sqrt(abs(yy)):
        raise NotHorizontal(f"launch direction has <u,Y> = {uy}, expected 0")
    nrm = float(u @ gr @ u)
    if abs(nrm - 1.0) > 1e-8:
        raise NotHorizontal(f"launch direction has g_R norm {np.sqrt(nrm)}, expected 1")
    y = np.eye(u.size)[-1]
    return (T / np.sqrt(-yy)) * (k * y / np.sqrt(-yy) + np.sqrt(P) * u)


def brachistochrone_acceleration(model: SpacetimeModel, k: float, T, q, v) -> np.ndarray:
    """sigma'' of the travel-time equation at states (q, v) of shape ``(..., m)``.

    ``T`` is a scalar or one travel time per state.  The only implementation
    of the acceleration: it raises OutOfChart (through the connection) or
    OutsideUk if any state of the batch leaves the chart or the admissible
    region.

    The chart must be adapted to the Killing field (Y = e_last,
    ``geometry.require_adapted_chart``); the callers check that where an
    integration starts.  The Killing terms are then read off g and Gamma:
    <Y,Y> = g_{mm}, g Y = g_{.m}, nabla_v Y = Gamma^._{.m} v, and the term
    along Y adds to the last component.
    """
    G = connection_coeffs(model, q)
    g = model.g(q)
    N = g[..., -1, -1]                    # <Y,Y>
    P = k * k + N
    if (P <= 0.0).any():
        raise OutsideUk(f"trajectory left the admissible region (k^2 + <Y,Y> = {np.min(P)})")
    two_kT = 2.0 * k * np.asarray(T, dtype=float)
    dvy = np.einsum("...ab,...b->...a", G[..., :, :, -1], v)   # nabla_v Y
    W = np.einsum("...a,...a->...", dvy, g[..., :, -1])       # <nabla_v Y, Y>
    NP = N * P
    acc = (-np.einsum("...abc,...b,...c->...a", G, v, v)
           - (2.0 * k * k * W / NP)[..., None] * v
           - (two_kT / N)[..., None] * dvy)
    acc[..., -1] += two_kT * W / NP
    return acc


def _rhs_factory(model: SpacetimeModel, k: float, T: float):
    """Single-state right-hand side for ``solve_ivp``: the acceleration on a batch of one."""
    m = model.m

    def rhs(t, state):
        q, v = state[None, :m], state[None, m:]
        return np.concatenate([state[m:], brachistochrone_acceleration(model, k, T, q, v)[0]])

    return rhs


def brachistochrone_rhs(model: SpacetimeModel, k: float, T: float, state):
    """(velocity, acceleration) of the travel-time equation at states of shape ``(..., m)``."""
    q, v = _coords(state[0]), _coords(state[1])
    require_adapted_chart(model, q)
    return v.copy(), brachistochrone_acceleration(model, k, T, q, v)


# ---------------------------------------------------------------------------
# Lockstep shots: Dormand-Prince 5(4) with a step size per lane

# scipy's RK45 tableau and step-size rules (Hairer, Norsett & Wanner, Solving ODEs I, II.4)
_RK_A, _RK_B, _RK_E = RK45.A, RK45.B, RK45.E
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERR_EXP = -1.0 / 5.0


def _lincomb(coeffs, K):
    """sum_s c_s K_s, elementwise so that each lane's value is independent of the batch."""
    out = coeffs[0] * K[0]
    for c, k in zip(coeffs[1:], K[1:]):
        out = out + c * k
    return out


def _rms(x):
    return np.sqrt(np.sum(x * x, axis=-1) / x.shape[-1])


class _Lanes:
    """Per-lane arrays of the live lanes, shrunk together when lanes leave."""

    STATE = ("lane", "y", "f", "h_abs", "t", "rejected")  # what a lane carries from step to step

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def keep(self, mask):
        for key, val in vars(self).items():
            if isinstance(val, list):
                val[:] = [k[mask] for k in val]  # in place: a pending L.K.append must see it
            else:
                setattr(self, key, val[mask])

    def join(self, other):
        """The lanes of both, carrying only their step-to-step state."""
        return _Lanes(**{key: np.concatenate([getattr(self, key), getattr(other, key)])
                         for key in self.STATE})


def rk45_lanes(fun, y0, rtol: float, atol: float, admit=None):
    """Integrate each lane of ``y' = fun(Y, lanes)`` on [0, 1] with its own RK45 step control.

    ``y0`` has shape ``(n, d)``.  Lanes are numbered in the order they are
    admitted, and ``fun`` gets the states of the live lanes and their
    numbers.  Each lane follows scipy's RK45 rules (initial step, SAFETY,
    MIN/MAX_FACTOR, no growth after a rejection, min-step failure) with an
    error norm over that lane alone, so it takes scipy's steps and agrees with
    its result to roundoff; and it is bit-identical whether it runs alone or
    in any batch, admitted at the start or later.  When a batched evaluation
    raises, the lanes are evaluated one by one; each lane that raises leaves
    with its exception and the others continue.

    With ``admit``, lanes join at step boundaries: whenever lanes have left
    (reached t = 1 or raised), ``admit(left)`` gets them as a dict lane ->
    state at t = 1 or exception, and returns the initial states of the lanes
    to add (shape ``(j, d)``, ``j`` may be 0).  Each new lane makes its own
    initial-step selection and then steps with the others.  Without
    ``admit``, the lanes of ``y0`` are all there are.

    Returns ``(ends, steps, failures)`` over every lane admitted: the states
    at t = 1 (NaN rows for failed lanes), the accepted steps per lane and a
    dict lane -> exception.
    """
    y0 = np.asarray(y0, dtype=float)
    dim = y0.shape[1]
    ends = np.empty((0, dim))
    steps = np.zeros(0, dtype=int)
    failures = {}
    left = []  # lanes that left since the last call of admit

    def fail(lane, exc):
        failures[int(lane)] = exc
        left.append(int(lane))

    def evaluate(L, Y):
        """fun on the live lanes of L; a lane that raises leaves L and the returned rows."""
        if not L.lane.size:
            return Y
        try:
            return fun(Y, L.lane)
        except (BrachkitError, ValueError):
            pass
        out = np.empty_like(Y)
        ok = np.ones(L.lane.size, dtype=bool)
        for j in range(L.lane.size):
            try:
                out[j] = fun(Y[j:j + 1], L.lane[j:j + 1])[0]
            except (BrachkitError, ValueError) as exc:
                fail(L.lane[j], exc.with_traceback(None))  # no frame cycle
                ok[j] = False
        L.keep(ok)
        return out[ok]

    def start(y):
        """Lanes for the initial states y, with scipy's initial step (select_initial_step)."""
        nonlocal ends, steps
        first = steps.size
        ends = np.concatenate([ends, np.full(y.shape, np.nan)])
        steps = np.concatenate([steps, np.zeros(len(y), dtype=int)])
        N = _Lanes(lane=np.arange(first, steps.size), y=y.copy())
        N.f = evaluate(N, N.y)
        N.scale = atol + np.abs(N.y) * rtol
        N.d1 = _rms(N.f / N.scale)
        d0 = _rms(N.y / N.scale)
        with np.errstate(divide="ignore"):  # the branch that divides by zero is not taken
            N.h0 = np.minimum(np.where((d0 < 1e-5) | (N.d1 < 1e-5), 1e-6, 0.01 * d0 / N.d1), 1.0)
        f1 = evaluate(N, N.y + N.h0[:, None] * N.f)
        d2 = _rms((f1 - N.f) / N.scale) / N.h0
        with np.errstate(divide="ignore"):
            h1 = np.where((N.d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, N.h0 * 1e-3),
                          (0.01 / np.maximum(N.d1, d2)) ** 0.2)
        N.h_abs = np.minimum(np.minimum(100.0 * N.h0, h1), 1.0)
        del N.scale, N.d1, N.h0
        N.t = np.zeros(N.lane.size)
        N.rejected = np.zeros(N.lane.size, dtype=bool)
        return N

    L = start(y0)
    while True:
        if admit is not None and left:
            # copies: a view would keep this whole array alive after start() replaces it
            arrived = {lane: failures[lane] if lane in failures else ends[lane].copy()
                       for lane in left}
            left.clear()
            new = np.asarray(admit(arrived), dtype=float).reshape(-1, dim)
            if len(new):
                L = L.join(start(new))
            continue  # lanes that failed on admission are reported before the next step
        if not L.lane.size:
            break
        min_step = 10.0 * np.abs(np.nextafter(L.t, np.inf) - L.t)
        L.h_abs = np.where(~L.rejected & (L.h_abs < min_step), min_step, L.h_abs)
        small = L.h_abs < min_step
        if small.any():
            for lane in L.lane[small]:
                fail(lane, NoConvergence("shot integration failed: Required step size is less "
                                         "than spacing between numbers."))
            L.keep(~small)
            continue
        t_new = L.t + L.h_abs
        L.t_new = np.where(t_new > 1.0, 1.0, t_new)
        L.h = (L.t_new - L.t)[:, None]
        L.K = [L.f]
        for s in range(1, 6):
            L.K.append(evaluate(L, L.y + L.h * _lincomb(_RK_A[s, :s], L.K)))
        L.y_new = L.y + L.h * _lincomb(_RK_B, L.K)
        L.K.append(evaluate(L, L.y_new))
        scale = atol + np.maximum(np.abs(L.y), np.abs(L.y_new)) * rtol
        err = _rms(L.h * _lincomb(_RK_E, L.K) / scale)
        accept = err < 1.0
        with np.errstate(divide="ignore"):  # err == 0 gives inf: growth by _MAX_FACTOR
            fac = _SAFETY * err ** _ERR_EXP
        grow = np.where(fac < _MAX_FACTOR, fac, _MAX_FACTOR)
        grow = np.where(L.rejected & ~(grow < 1.0), 1.0, grow)
        shrink = np.where(fac > _MIN_FACTOR, fac, _MIN_FACTOR)
        L.h_abs = np.abs(L.h[:, 0]) * np.where(accept, grow, shrink)
        L.rejected = ~accept
        L.t = np.where(accept, L.t_new, L.t)
        L.y = np.where(accept[:, None], L.y_new, L.y)
        L.f = np.where(accept[:, None], L.K[-1], L.f)
        del L.K, L.y_new, L.t_new, L.h  # the step is decided: only STATE goes on
        steps[L.lane[accept]] += 1
        done = accept & (L.t >= 1.0)
        if done.any():
            ends[L.lane[done]] = L.y[done]
            left.extend(L.lane[done].tolist())
            L.keep(~done)
    return ends, steps, failures


def shot_endpoints(model: SpacetimeModel, k: float, states, T, config: IntegratorConfig,
                   admit=None, tally=None) -> list:
    """Arrival points of brachistochrone shots integrated in lockstep on [0, 1].

    ``states`` holds one launch state (q, v) per row and ``T`` one travel time
    per row; each entry of the result is that shot's chart point at t = 1 or
    the exception the shot raised.  With ``admit``, shots join the running
    batch (see ``rk45_lanes``): ``admit(arrived)`` gets a dict shot ->
    arrival point or exception for the shots that ended since its last call,
    and returns the launch states and travel times of the shots to add, which
    are numbered on from the last.  If a ``tally`` dict is given, its
    ``"batched_calls"`` entry counts the calls of the acceleration.
    """
    m = model.m
    states = np.asarray(states, dtype=float)
    require_adapted_chart(model, states[:, :m])
    T = np.asarray(T, dtype=float)
    calls = 0

    def fun(Y, lanes):
        nonlocal calls
        calls += 1
        q, v = Y[:, :m], Y[:, m:]
        return np.concatenate([v, brachistochrone_acceleration(model, k, T[lanes], q, v)], axis=1)

    def admit_shots(left):
        nonlocal T
        new_states, new_T = admit({i: end if isinstance(end, Exception) else end[:m]
                                   for i, end in left.items()})
        new_states = np.asarray(new_states, dtype=float).reshape(-1, 2 * m)
        if len(new_states):
            require_adapted_chart(model, new_states[:, :m])
        T = np.concatenate([T, np.asarray(new_T, dtype=float)])
        return new_states

    ends, _, failures = rk45_lanes(fun, states, config.rtol, config.atol,
                                   None if admit is None else admit_shots)
    if tally is not None:
        tally["batched_calls"] = tally.get("batched_calls", 0) + calls
    return [failures.get(i, ends[i, :m]) for i in range(len(ends))]


def _sample(sol_ivp, m, grid):
    y = sol_ivp.sol(grid)
    return y[:m].T.copy(), y[m:].T.copy()


def _ode_residual(model, k, T, curve: Curve) -> float:
    idx = np.arange(0, curve.grid.size, max(1, curve.grid.size // 64))
    pts = curve.points[idx]
    target = brachistochrone_acceleration(model, k, T, pts, curve.velocities[idx])
    d = curve.velocity_spline()(curve.grid[idx], 1) - target
    return float(np.sqrt(np.max(_inner(riemannian_metric_matrix(model, pts), d, d))))


def integrate_brachistochrone(model: SpacetimeModel, k: float, p, u, T: float,
                              config: IntegratorConfig = IntegratorConfig()
                              ) -> BrachistochroneSolution:
    """Integrate the travel-time equation on [0, 1] from the launch data (p, u, T)."""
    if T <= 0.0:
        raise ValueError("travel time T must be positive")
    v0 = initial_velocity(model, k, p, u, T)
    return integrate_brachistochrone_from_velocity(model, k, p, v0, T, config)


def integrate_brachistochrone_from_velocity(model: SpacetimeModel, k: float, p, v0,
                                            T: float,
                                            config: IntegratorConfig = IntegratorConfig()
                                            ) -> BrachistochroneSolution:
    """Same as integrate_brachistochrone but from an explicit launch velocity."""
    q0 = model.require_in_chart(p)
    require_adapted_chart(model, q0)
    state0 = np.concatenate([q0, _coords(v0)])
    rhs = _rhs_factory(model, k, T)
    out = solve_ivp(rhs, (0.0, 1.0), state0, method="RK45",
                    rtol=config.rtol, atol=config.atol, dense_output=True)
    if not out.success:
        raise StepFailure(f"integrator failed: {out.message}")
    grid = np.linspace(0.0, 1.0, config.grid_n + 1)
    pts, vels = _sample(out, model.m, grid)
    curve = Curve(grid=grid, points=pts, velocities=vels)
    r_y, r_v = conservation_residuals(model, pts, vels, k, T)
    return BrachistochroneSolution(
        sigma=curve, T=T, k=k,
        residual_conservation_Y=float(np.max(np.abs(r_y))),
        residual_conservation_speed=float(np.max(np.abs(r_v))),
        residual_ode=_ode_residual(model, k, T, curve),
    )


def integrate_conformal_geodesic(model: SpacetimeModel, k: float, q, v,
                                 config: IntegratorConfig = IntegratorConfig(),
                                 confgeom: ConformalGeometry | None = None) -> Curve:
    """Geodesic of the conformal Riemannian metric from horizontal data (q, v)."""
    cg = conformal_geometry(model, k) if confgeom is None else confgeom
    q0 = model.require_in_chart(q)
    v0 = _coords(v)
    vy = float(_inner_y(model.g(q0), v0))
    speed = np.sqrt(float(v0 @ riemannian_metric_matrix(model, q0) @ v0))
    if speed == 0.0 or abs(vy) > 1e-8 * speed:
        raise NotHorizontal(f"geodesic launch has <v,Y> = {vy}")

    m = model.m

    def rhs(t, state):
        pos, vel = state[:m], state[m:]
        G = cg.christoffels(pos)
        return np.concatenate([vel, -np.einsum("abc,b,c->a", G, vel, vel)])

    out = solve_ivp(rhs, (0.0, 1.0), np.concatenate([q0, v0]), method="RK45",
                    rtol=config.rtol, atol=config.atol, dense_output=True)
    if not out.success:
        raise StepFailure(f"integrator failed: {out.message}")
    grid = np.linspace(0.0, 1.0, config.grid_n + 1)
    pts, vels = _sample(out, m, grid)
    return Curve(grid=grid, points=pts, velocities=vels)


def conservation_report(model: SpacetimeModel, sol: BrachistochroneSolution,
                        refine: int = 2) -> dict:
    """Recompute the two conservation residuals on a refined grid."""
    n = sol.sigma.n_segments * refine
    grid = np.linspace(0.0, 1.0, n + 1)
    ps = sol.sigma.point_spline()
    vs = sol.sigma.velocity_spline()
    errs_y, errs_v = conservation_residuals(model, ps(grid), vs(grid), sol.k, sol.T)
    return {
        "residual_Y_max": float(np.max(np.abs(errs_y))),
        "residual_Y_l2": float(np.sqrt(grid_integral(grid, errs_y ** 2))),
        "residual_speed_max": float(np.max(np.abs(errs_v))),
        "residual_speed_l2": float(np.sqrt(grid_integral(grid, errs_v ** 2))),
    }


def geodesic_residual(model: SpacetimeModel, k: float, w: Curve) -> float:
    """Max-norm defect of nabla_w'(phi_k w') - 1/2 grad(phi_k) <w',w'> at the nodes."""
    pts, vels = w.points, w.velocities
    g, gr = model.g(pts), riemannian_metric_matrix(model, pts)
    speeds = np.sqrt(np.maximum(_inner(gr, vels, vels), 0.0))
    horiz = np.max(np.abs(_inner_y(g, vels)))
    if horiz > 1e-6 * max(np.max(speeds), 1e-30):
        raise NotHorizontal(f"curve is not horizontal: max |<w',Y>| = {horiz}")

    u = FieldAlongCurve(host=w, values=conformal_factor(model, pts, k)[:, None] * vels)
    nabla_u = covariant_nodes(w, connection_coeffs(model, pts), u)
    grad_phi = scalar_gradient(model, pts, lambda qq: conformal_factor(model, qq, k))
    d = nabla_u - 0.5 * grad_phi * _inner(g, vels, vels)[:, None]
    return float(np.sqrt(np.max(_inner(gr, d, d))))
