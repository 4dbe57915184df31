"""Brachistochrone and conformal-geodesic integration.

The second-order brachistochrone equation is integrated as a first-order
system in (position, velocity).  Conservation of <sigma', Y> = -k T and
<sigma', sigma'> = -T^2 is implied by the equation together with the launch
conditions, so both quantities are monitored as independent correctness
checks rather than enforced by projection.  Shots, dense curves, conformal
geodesics and the Jacobi fields of ``jacobi`` all run on ``ode_lanes``, scipy's
DOP853 applied to each lane on its own; a dense lane is read anywhere off its
continuous extension, DOP853's 7th-order dense output.  The DOP853 tableau is
written here as literal constants (Hairer's published coefficients), so the
integrator imports nothing from scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def solve_ivp(*args, **kwargs):
    """scipy's ``solve_ivp``, imported when called.  Nothing calls it: every ODE runs on
    ``ode_lanes``.  It is the ``solve_ivp`` that dynamics, transform, bvp and jacobi
    bind, by name, for the benchmark's tracer (bench/spans.py) to wrap."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


# ---------------------------------------------------------------------------
# Lanes: Dormand-Prince 8(5,3) with a step size per lane, and its continuous extension

def _row(size: int, entries: dict) -> np.ndarray:
    """A row of ``size`` coefficients, zero but for ``entries`` (index: value)."""
    row = np.zeros(size)
    row[list(entries)] = list(entries.values())
    return row


# DOP853's tableau, dense output and step-size rules (Hairer, Norsett & Wanner, Solving
# ODEs I, II.5 and II.6; Dormand & Prince 1980), as scipy's DOP853 applies them.  The
# tableau is Hairer's published coefficients, as scipy's dop853_coefficients.py lists
# them.  The equations are autonomous, so the nodes C and C_EXTRA are not needed.
_S = 12  # stages of a step; K[_S] is f at the step's end, K[_S + 1:] the dense output's stages
# _A[s] holds stage s's coefficients on the stages before it, _A_EXTRA those of the
# dense output's stages 13, 14 and 15; _E5 and _E3 give the 5th- and 3rd-order error estimates
_A = [np.zeros(0),
      _row(1, {0: 5.26001519587677318785587544488e-2}),
      _row(2, {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2}),
      _row(3, {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2}),
      _row(4, {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
               3: 9.24834003261792003115737966543e-1}),
      _row(5, {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
               4: 1.25467687566822425016691814123e-1}),
      _row(6, {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
               4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2}),
      _row(7, {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
               4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
               6: 8.27378916381402288758473766002e-3}),
      _row(8, {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
               4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
               6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1}),
      _row(9, {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
               4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
               6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
               8: -2.03312017085086261358222928593e-2}),
      _row(10, {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
                4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
                6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
                8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022}),
      _row(11, {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
                4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
                6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
                8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
                10: 6.43392746015763530355970484046e-1})]
_B = _row(12, {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
               6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
               8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
               10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2})
_A_EXTRA = [
    _row(13, {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
              7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
              9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
              11: 7.56789766054569976138603589584e-3, 12: -8.298e-3}),
    _row(14, {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
              6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
              10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
              12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1}),
    _row(15, {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
              6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
              8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
              13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138}),
]
_E5 = _row(13, {0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
                6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
                8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
                10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1})
_E3 = np.append(_B, 0.0) - _row(13, {0: 0.244094488188976377952755905512,
                                     8: 0.733846688281611857341361741547,
                                     11: 0.220588235294117647058823529412e-1})
_D = np.stack([
    _row(16, {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
              6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
              8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
              10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
              12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
              14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1}),
    _row(16, {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
              6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
              8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
              10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
              12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
              14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2}),
    _row(16, {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
              6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
              8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
              10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
              12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
              14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2}),
    _row(16, {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
              6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
              8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
              10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
              12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
              14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3}),
])
_E = np.stack([_E5, _E3])
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
    or later.  When a batched evaluation raises, it is halved, and each half
    that raises is halved again, until every lane that raises is evaluated
    alone; such a lane leaves with its own exception and the others
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
        """fun on the rows of L; a row that raises alone fails its lane and leaves L and the
        returned rows."""
        if not L.lane.size:
            return Y
        try:
            return fun(Y, L.lane)
        except (BrachkitError, ValueError) as exc:
            raised = [(0, L.lane.size, exc.with_traceback(None))]  # no frame cycle
        out = np.empty_like(Y)
        ok = np.ones(L.lane.size, dtype=bool)
        while raised:  # the spans of rows that raised, the next one last
            a, b, exc = raised.pop()
            if b - a == 1:
                fail(L.lane[a], exc)
                ok[a] = False
                continue
            for lo, hi in (((a + b) // 2, b), (a, (a + b) // 2)):  # halves, the first next
                try:
                    out[lo:hi] = fun(Y[lo:hi], L.lane[lo:hi])
                except (BrachkitError, ValueError) as exc:
                    raised.append((lo, hi, exc.with_traceback(None)))
        L.keep(ok)
        return out[ok]

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
    d = (sigma.velocity_spline().at_knots(1)[idx]
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


def conservation_report(model: SpacetimeModel, sol: BrachistochroneSolution) -> dict:
    """The two conservation residuals at the solution's nodes, where its spline adds no
    interpolation error: maxima (``sol.residual_conservation_*``) and L2 norms."""
    grid, pts, vels = sol.sigma.grid, sol.sigma.points, sol.sigma.velocities
    errs_y, errs_v = conservation_residuals(model, pts, vels, sol.k, sol.T)
    return {
        "residual_Y_max": float(np.max(np.abs(errs_y))),
        "residual_Y_l2": float(np.sqrt(grid_integral(grid, errs_y ** 2))),
        "residual_speed_max": float(np.max(np.abs(errs_v))),
        "residual_speed_l2": float(np.sqrt(grid_integral(grid, errs_v ** 2))),
    }


def geodesic_residual(model: SpacetimeModel, k: float, w: Curve) -> float:
    """Largest g_R norm over the nodes of nabla_w'(phi_k w') - 1/2 grad(phi_k) <w',w'>;
    NotHorizontal unless |<w',Y>| <= 1e-6 |w'|_R |Y|_R at every node."""
    return _geodesic_residual(model.g(w.points), connection_coeffs(model, w.points), k, w)


def _geodesic_residual(g: np.ndarray, G: np.ndarray, k: float, w: Curve) -> float:
    """``geodesic_residual`` from the metric g and the Christoffels G at the nodes of w."""
    pts, vels = w.points, w.velocities
    _require_horizontal(g, vels, 1e-6, "curve")
    d = covariant_nodes(w, G, FieldAlongCurve(host=w, values=_phi_k(g, k, pts)[:, None] * vels))
    d -= 0.5 * _grad_phi_k(g, G, k, pts) * _inner(g, vels, vels)[:, None]
    return float(np.max(_gr_length(g, d)))
