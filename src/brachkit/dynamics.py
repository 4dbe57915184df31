"""Brachistochrone and conformal-geodesic integration.

The second-order brachistochrone equation is integrated as a first-order
system in (position, velocity).  Conservation of <sigma', Y> = -k T and
<sigma', sigma'> = -T^2 is implied by the equation together with the launch
conditions, so both quantities are monitored as independent correctness
checks rather than enforced by projection.  Shots, dense curves, conformal
geodesics and the Jacobi fields of ``jacobi`` all run on ``ode_lanes``, scipy's
DOP853 applied to each lane on its own; a dense lane is read anywhere off its
continuous extension, DOP853's 7th-order dense output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853
from scipy.integrate import solve_ivp  # unused here; bench/spans.py wraps this binding

from .curves import Curve, FieldAlongCurve, covariant_nodes, grid_integral
from .errors import BrachkitError, ConstraintViolated, NotHorizontal, OutsideUk, StepFailure
from .geometry import (SpacetimeModel, conformal_geometry, connection_coeffs,
                       conservation_residuals, require_adapted_chart, riemannian_metric_matrix,
                       _coords, _gr_length, _grad_phi_k, _inner, _inner_y, _phi_k,
                       _require_horizontal)

__all__ = [
    "IntegratorConfig",
    "BrachistochroneSolution",
    "initial_velocity",
    "brachistochrone_acceleration",
    "brachistochrone_rhs",
    "ode_lanes",
    "shot_endpoints",
    "integrate_brachistochrone",
    "integrate_conformal_geodesic",
    "conservation_report",
    "conservation_failures",
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
        failed = conservation_failures(self.residual_conservation_Y,
                                       self.residual_conservation_speed, self.k, self.T, tol_cons)
        if failed:
            raise ConstraintViolated(f"{' and '.join(failed)} over tolerance: residuals "
                                     f"{self.residual_conservation_Y:.3e} (Y), "
                                     f"{self.residual_conservation_speed:.3e} (speed)")


def conservation_failures(r_y, r_v, k: float, T: float, tol: float) -> list:
    """The names of the failing conservation laws: "conservation_Y" if the largest residual
    r_y > tol (1 + kT), "conservation_speed" if r_v > tol (1 + T^2)."""
    return ([] if r_y <= tol * (1.0 + k * T) else ["conservation_Y"]) + (
        [] if r_v <= tol * (1.0 + T ** 2) else ["conservation_speed"])


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
    # the rule of geometry._require_horizontal for a g_R-unit u, inline: it runs on every launch
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


def brachistochrone_rhs(model: SpacetimeModel, k: float, T: float, state):
    """(velocity, acceleration) of the travel-time equation at states of shape ``(..., m)``."""
    q, v = _coords(state[0]), _coords(state[1])
    require_adapted_chart(model, q)
    return v.copy(), brachistochrone_acceleration(model, k, T, q, v)


# ---------------------------------------------------------------------------
# Lanes: Dormand-Prince 8(5,3) with a step size per lane, and its continuous extension

# scipy's DOP853 tableau, dense output and step-size rules (Hairer, Norsett & Wanner,
# Solving ODEs I, II.5 and II.6; Dormand & Prince 1980).  The equations are autonomous,
# so the nodes C and C_EXTRA are not needed.
_S = DOP853.n_stages  # K[_S] is f at the step's end, K[_S + 1:] the dense output's stages
_A = [DOP853.A[s, :s] for s in range(_S)]  # the stages' coefficients
_B, _E = DOP853.B, np.stack([DOP853.E5, DOP853.E3])
_D, _A_EXTRA = DOP853.D, [a[:s] for s, a in enumerate(DOP853.A_EXTRA, start=_S + 1)]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERR_EXP = -1.0 / 8.0  # -1 / (error estimator order + 1), also in the initial step


def _max_step(rtol: float) -> float:
    """The longest step of a brachistochrone or conformal-geodesic lane: 0.15 at
    rtol = 1e-10, scaling as rtol^(1/8).

    Where the error estimate does not bind (the initial step, the growth cap
    MAX_FACTOR, the last step clipped at t = 1), DOP853 takes a step longer
    than rtol calls for, and the error at its end and at the nodes read off its
    dense output does not follow rtol: on short arcs the residuals could rise
    when rtol fell tenfold.  Held to a length that scales as rtol^(1/8), such a
    step's h^8 error scales as rtol.  Shots and dense curves share the bound, so
    a curve takes its shot's steps and ends at its arrival."""
    return 0.15 * (rtol / 1e-10) ** 0.125


def _lincomb(coeffs, K):
    """sum_s c_s K_s over the first stages of K, shape (stages, n, d), for coefficients of
    shape (s,), or for each row of coefficients of shape (r, s).

    The stages are added in order, elementwise, so each lane's value is
    independent of the batch.  A reduction over the stage axis of a C-ordered
    array does that (K itself may not be C-ordered once lanes have left), except
    where K holds one number per stage (one lane of d = 1): there it sums 8 or
    more terms pairwise, and an accumulation keeps the order."""
    terms = np.multiply(coeffs[..., None, None], K[:coeffs.shape[-1]], order="C")
    if K[0].size == 1:
        return np.add.accumulate(terms, axis=-3)[..., -1, :, :]
    return np.add.reduce(terms, axis=-3)


def _rms(x):
    return np.sqrt(np.sum(x * x, axis=-1) / x.shape[-1])


def _error_norm(K, h, scale):
    """scipy's DOP853 error norm of each lane, from its 5th- and 3rd-order estimates:
    h |e5|^2 / sqrt((|e5|^2 + |e3|^2 / 100) d) for a step h >= 0, 0 where both vanish."""
    e5, e3 = np.add.reduce((_lincomb(_E, K) / scale) ** 2, axis=-1)
    denom = e5 + 0.01 * e3   # 0 only where both vanish, and then so does e5
    return h * e5 / np.sqrt(np.where(denom == 0.0, 1.0, denom) * scale.shape[-1])


class _Extension:
    """A lane's DOP853 continuous extension on [0, 1] (Hairer, Norsett & Wanner, II.6).

    ``t`` holds the ends of the accepted steps, ``y`` the lane's states there and
    ``coeffs`` the 7 coefficient rows of each step's 7th-order dense output, shape
    (7, steps, d).  A t inside a step is read off that step's polynomial, as scipy's
    ``Dop853DenseOutput`` reads it; a step end is the state there, exactly, so the
    extension at t = 1 is the lane's arrival."""

    def __init__(self, t, y, coeffs):
        self.t, self.y, self.coeffs = t, y, coeffs
        self.h = np.diff(t)

    def __call__(self, t):
        """The state at t, shape ``np.shape(t) + (d,)``."""
        t = np.asarray(t, dtype=float)
        i = np.searchsorted(self.t[1:-1], t, side="right")   # the step that holds t
        x = ((t - self.t[i]) / self.h[i])[..., None]
        factors = (x, 1.0 - x)
        out = np.zeros(t.shape + self.y.shape[-1:])
        for j in range(6, -1, -1):  # a row at a time: no temporary holds all 7 (7 x nodes x d)
            out += self.coeffs[j][i]
            out *= factors[j % 2]
        out += self.y[i]
        out[t == self.t[-1]] = self.y[-1]
        return out


def _extensions(S, ends, failures) -> list:
    """Each lane's ``_Extension`` (None for a lane that failed) from ``S``, its accepted
    steps in order with all 16 stages: the coefficients of each step's dense output, as
    scipy's ``DOP853._dense_output_impl`` forms them."""
    dy = S.y_new - S.y
    F = [dy, S.h * S.K[0] - dy, 2.0 * dy - S.h * (S.K[_S] + S.K[0])]
    F = np.stack(F + [S.h * _lincomb(d, S.K) for d in _D])
    extensions = []
    for lane, end in enumerate(ends):
        i = S.lane == lane   # the lane's steps, in order
        extensions.append(None if lane in failures else
                          _Extension(np.append(S.t[i], 1.0), np.vstack([S.y[i], end]), F[:, i]))
    return extensions


class _Lanes:
    """Per-lane arrays of the live lanes (or of accepted steps), shrunk together when lanes
    leave.

    The stages ``K``, shape (stages, n, d), have the lane on axis 1."""

    STATE = ("lane", "y", "f", "h_abs", "t", "rejected")  # carried from step to step
    STEP = ("lane", "t", "h", "y", "y_new", "K")  # an accepted step, for the extension

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def keep(self, mask):
        for key, val in vars(self).items():
            setattr(self, key, val[:, mask] if key == "K" else val[mask])

    def join(self, other):
        """The lanes of both, carrying only their step-to-step state."""
        return _Lanes(**{key: np.concatenate([getattr(self, key), getattr(other, key)])
                         for key in self.STATE})


def ode_lanes(fun, y0, rtol: float, atol: float, admit=None, dense=False, max_step=np.inf):
    """Integrate each lane of ``y' = fun(Y, lanes)`` on [0, 1] with its own DOP853 step control.

    ``y0`` has shape ``(n, d)``.  Lanes are numbered in the order they are
    admitted, and ``fun`` gets the states of the live lanes and their
    numbers.  Each lane follows scipy's DOP853 rules (initial step, the
    combined 5th/3rd-order error norm, SAFETY, MIN/MAX_FACTOR, no growth after
    a rejection, min-step failure) with an error norm over that lane alone, so
    it takes scipy's steps and agrees with its result to roundoff; and it is
    bit-identical whether it runs alone or in any batch, admitted at the start
    or later.  When a batched evaluation raises, the lanes are evaluated one by
    one; each lane that raises leaves with its exception and the others
    continue; so does a lane whose step size falls below scipy's minimum, with
    ``StepFailure``.  No step is longer than ``max_step``, which applies as
    scipy's ``solve_ivp`` applies it (to the initial step and to each step's
    start).

    With ``dense``, each lane is read through its continuous extension
    (``_Extension``): every accepted step keeps its stages, and once all
    lanes have left, the 3 extra stages of DOP853's 7th-order dense output
    (the ones scipy's dense output evaluates) are evaluated for all of them,
    one batch per stage in which ``fun`` gets one row per step (a lane's
    number on each of its rows).  A lane that raises in one of them fails
    with its exception.  Without ``dense`` no step pays for them.

    With ``admit``, lanes join at step boundaries: whenever lanes have left
    (reached t = 1 or raised), ``admit(left)`` gets them as a dict lane ->
    state at t = 1 or exception, and returns the initial states of the lanes
    to add (shape ``(j, d)``, ``j`` may be 0).  Each new lane makes its own
    initial-step selection and then steps with the others.  Without
    ``admit``, the lanes of ``y0`` are all there are.

    Returns ``(ends, steps, failures)`` over every lane admitted: the states
    at t = 1, shape ``(lanes, d)`` (NaN for a failed lane), the accepted steps
    per lane and a dict lane -> exception.  With ``dense``, ``ends`` is the
    list of the lanes' extensions instead (None for a failed lane).
    """
    y0 = np.asarray(y0, dtype=float)
    dim = y0.shape[1]
    ends = np.empty((0, dim))
    steps = np.zeros(0, dtype=int)
    failures = {}
    left = []  # lanes that left since the last call of admit
    trail = []  # with dense: the arrays of each step and the lanes it accepted

    def fail(lane, exc):
        failures[int(lane)] = exc
        left.append(int(lane))

    def evaluate(L, Y):
        """fun on the rows of L; a lane with a row that raises leaves L and the returned rows."""
        if not L.lane.size:
            return Y
        try:
            return fun(Y, L.lane)
        except (BrachkitError, ValueError):
            pass
        out = np.empty_like(Y)
        ok = np.ones(L.lane.size, dtype=bool)
        for j, lane in enumerate(L.lane):
            try:
                out[j] = fun(Y[j:j + 1], L.lane[j:j + 1])[0]
            except (BrachkitError, ValueError) as exc:
                fail(lane, exc.with_traceback(None))  # no frame cycle
                ok[j] = False
        kept = np.isin(L.lane, L.lane[~ok], invert=True)
        L.keep(kept)
        return out[kept]

    def start(y):
        """Lanes for the initial states y, with scipy's initial step (select_initial_step)."""
        nonlocal ends, steps
        first = steps.size
        ends = np.concatenate([ends, np.full_like(y, np.nan)])
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
                          (0.01 / np.maximum(N.d1, d2)) ** -_ERR_EXP)
        N.h_abs = np.minimum(np.minimum(100.0 * N.h0, h1), min(1.0, max_step))
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
        min_step = 10.0 * np.spacing(L.t)  # scipy's 10 |nextafter(t, inf) - t|, t >= 0
        L.h_abs = np.minimum(L.h_abs, max_step)
        L.h_abs = np.where(~L.rejected & (L.h_abs < min_step), min_step, L.h_abs)
        small = ~(L.h_abs >= min_step)  # and NaN, as from a non-finite initial step
        if small.any():
            for lane in L.lane[small]:
                fail(lane, StepFailure("integrator failed: Required step size is less than "
                                       "spacing between numbers."))
            L.keep(~small)
            continue
        t_new = L.t + L.h_abs
        L.t_new = np.where(t_new > 1.0, 1.0, t_new)
        L.h = (L.t_new - L.t)[:, None]
        L.K = np.empty((_S + 1,) + L.y.shape)
        L.K[0] = L.f
        for s in range(1, _S):
            # L.K is looked up after the right side, so the row lands in the array
            # that an evaluation dropping lanes has shrunk
            L.K[s] = evaluate(L, L.y + L.h * _lincomb(_A[s], L.K))
        L.y_new = L.y + L.h * _lincomb(_B, L.K)
        L.K[_S] = evaluate(L, L.y_new)
        scale = atol + np.maximum(np.abs(L.y), np.abs(L.y_new)) * rtol
        L.err = _error_norm(L.K, L.h[:, 0], scale)
        accept = L.err < 1.0
        if dense:  # the step's arrays, which no later step changes in place
            trail.append(dict(accept=accept, **{key: getattr(L, key) for key in _Lanes.STEP}))
        # an err below 1e-300, 0 too, grows the step by _MAX_FACTOR, as an infinite fac would
        fac = _SAFETY * np.maximum(L.err, 1e-300) ** _ERR_EXP
        grow = np.minimum(fac, _MAX_FACTOR)
        grow = np.where(L.rejected, np.minimum(grow, 1.0), grow)  # none after a rejection
        shrink = np.where(fac > _MIN_FACTOR, fac, _MIN_FACTOR)
        L.h_abs = L.h[:, 0] * np.where(accept, grow, shrink)
        L.rejected = ~accept
        L.t = np.where(accept, L.t_new, L.t)
        L.y = np.where(accept[:, None], L.y_new, L.y)
        L.f = np.where(accept[:, None], L.K[_S], L.f)
        del L.K, L.y_new, L.t_new, L.h, L.err  # the step is decided: only STATE goes on
        steps[L.lane] += accept
        done = accept & (L.t >= 1.0)
        if done.any():
            ends[L.lane[done]] = L.y[done]
            left.extend(L.lane[done].tolist())
            L.keep(~done)
    if not dense:
        return ends, steps, failures
    if not trail:  # no lane took a step
        return [None] * len(ends), steps, failures
    S = _Lanes(**{key: np.concatenate([b[key] for b in trail], axis=1 if key == "K" else 0)
                  for key in trail[0]})
    S.keep(S.accept & [lane not in failures for lane in S.lane.tolist()])
    S.K = np.concatenate([S.K, np.empty((len(_A_EXTRA),) + S.y.shape)])
    for s, a in enumerate(_A_EXTRA, start=_S + 1):
        # S.K is looked up after the right side, as in the steps
        S.K[s] = evaluate(S, S.y + S.h * _lincomb(a, S.K))
    return _extensions(S, ends, failures), steps, failures


def _shot_lanes(model: SpacetimeModel, k: float, states, T, config: IntegratorConfig,
                dense=False, admit=None, tally=None) -> tuple:
    """``(ends, failures)`` of ``ode_lanes`` for the shots of ``shot_endpoints`` (with
    ``dense``, the lanes' extensions in place of ``ends``)."""
    m = model.m
    states = np.asarray(states, dtype=float)
    require_adapted_chart(model, states[:, :m])
    T = np.asarray(T, dtype=float)
    tally = {} if tally is None else tally
    tally.setdefault("batched_calls", 0)

    def fun(Y, lanes):
        tally["batched_calls"] += 1
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

    ends, _, failures = ode_lanes(fun, states, config.rtol, config.atol,
                                  None if admit is None else admit_shots, dense,
                                  _max_step(config.rtol))
    return ends, failures


def shot_endpoints(model: SpacetimeModel, k: float, states, T, config: IntegratorConfig,
                   admit=None, tally=None) -> list:
    """Arrival points of brachistochrone shots integrated in lockstep on [0, 1].

    ``states`` holds one launch state (q, v) per row and ``T`` one travel time
    per row; each entry of the result is that shot's chart point at t = 1 or
    the exception the shot raised.  With ``admit``, shots join the running
    batch (see ``ode_lanes``): ``admit(arrived)`` gets a dict shot ->
    arrival point or exception for the shots that ended since its last call,
    and returns the launch states and travel times of the shots to add, which
    are numbered on from the last.  If a ``tally`` dict is given, its
    ``"batched_calls"`` entry counts the calls of the acceleration.
    """
    ends, failures = _shot_lanes(model, k, states, T, config, admit=admit, tally=tally)
    return [failures.get(i, ends[i, :model.m]) for i in range(len(ends))]


def _lane_curve(grid, extensions, failures) -> Curve:
    """The only lane of a dense ``ode_lanes`` run read at ``grid``; raises that lane's
    failure."""
    if failures:
        raise failures[0]
    states = extensions[0](grid)
    m = states.shape[-1] // 2
    return Curve(grid=grid, points=states[:, :m].copy(), velocities=states[:, m:].copy())


def _sampled_solution(model, k, T, sigma: Curve) -> BrachistochroneSolution:
    """A sampled trial curve with its conservation residuals and its equation residual
    (the largest g_R norm at about 64 nodes)."""
    r_y, r_v = conservation_residuals(model, sigma.points, sigma.velocities, k, T)
    idx = np.arange(0, sigma.grid.size, max(1, sigma.grid.size // 64))
    pts = sigma.points[idx]
    d = (sigma.velocity_spline()(sigma.grid[idx], 1)
         - brachistochrone_acceleration(model, k, T, pts, sigma.velocities[idx]))
    return BrachistochroneSolution(
        sigma=sigma, T=T, k=k,
        residual_conservation_Y=float(np.max(np.abs(r_y))),
        residual_conservation_speed=float(np.max(np.abs(r_v))),
        residual_ode=float(np.max(_gr_length(model.g(pts), d))),
    )


def integrate_brachistochrone(model: SpacetimeModel, k: float, p, u, T: float,
                              config: IntegratorConfig = IntegratorConfig()
                              ) -> BrachistochroneSolution:
    """Integrate the travel-time equation on [0, 1] from the launch data (p, u, T)."""
    if T <= 0.0:
        raise ValueError("travel time T must be positive")
    v0 = initial_velocity(model, k, p, u, T)
    return integrate_brachistochrone_from_velocity(model, k, p, v0, T, config)


def integrate_brachistochrone_from_velocity(model: SpacetimeModel, k: float, p, v0, T: float,
                                            config: IntegratorConfig = IntegratorConfig()
                                            ) -> BrachistochroneSolution:
    """Same as integrate_brachistochrone but from an explicit launch velocity.  The curve
    is a shot's lane read off its extension, so its last point is that shot's arrival."""
    state0 = np.concatenate([model.require_in_chart(p), _coords(v0)])
    grid = np.linspace(0.0, 1.0, config.grid_n + 1)
    extensions, failures = _shot_lanes(model, k, state0[None], [T], config, dense=True)
    return _sampled_solution(model, k, T, _lane_curve(grid, extensions, failures))


def integrate_conformal_geodesic(model: SpacetimeModel, k: float, q, v,
                                 config: IntegratorConfig = IntegratorConfig()) -> Curve:
    """Geodesic of the conformal Riemannian metric from horizontal data (q, v): NotHorizontal
    unless |<v,Y>| <= 1e-8 |v|_R |Y|_R (``geometry._require_horizontal``)."""
    cg = conformal_geometry(model, k)
    q0 = model.require_in_chart(q)
    v0 = _coords(v)
    _require_horizontal(model.g(q0), v0, 1e-8, "geodesic launch")

    m = model.m

    def fun(Y, lanes):
        G, vel = cg.christoffels(Y[:, :m]), Y[:, m:]
        return np.concatenate([vel, -np.einsum("nabc,nb,nc->na", G, vel, vel)], axis=1)

    extensions, _, failures = ode_lanes(fun, np.concatenate([q0, v0])[None], config.rtol,
                                        config.atol, dense=True,
                                        max_step=_max_step(config.rtol))
    return _lane_curve(np.linspace(0.0, 1.0, config.grid_n + 1), extensions, failures)


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
    """Largest g_R norm over the nodes of nabla_w'(phi_k w') - 1/2 grad(phi_k) <w',w'>;
    NotHorizontal unless |<w',Y>| <= 1e-6 |w'|_R |Y|_R at every node."""
    pts, vels = w.points, w.velocities
    g = model.g(pts)
    _require_horizontal(g, vels, 1e-6, "curve")
    G = connection_coeffs(model, pts)
    d = covariant_nodes(w, G, FieldAlongCurve(host=w, values=_phi_k(g, k, pts)[:, None] * vels))
    d -= 0.5 * _grad_phi_k(g, G, k, pts) * _inner(g, vels, vels)[:, None]
    return float(np.max(_gr_length(g, d)))
