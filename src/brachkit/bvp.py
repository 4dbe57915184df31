"""Shooting solver for the event-to-observer boundary value problem, plus
deterministic multi-start surveys with index attachment and deduplication.

The endpoint condition "arrive on the observer line" is measured in the
quotient by the Killing flow: the arrival point is flowed-matched to the
nearest orbit point and the residual is the remaining displacement, expressed
in a horizontal frame.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

from .curves import resample_curve
from .dynamics import (BrachistochroneSolution, IntegratorConfig, _rhs_factory,
                       initial_velocity, integrate_brachistochrone)
from .errors import BrachkitError, NoConvergence
from .geometry import (SpacetimeModel, curve_distance, horizontal_frame, horizontal_unit,
                       orthonormal_completion, riemannian_metric_matrix, _coords)
from .transform import flow_points

__all__ = [
    "ObserverWorldline",
    "ShootingProblem",
    "SurveyResult",
    "sample_initial_velocity",
    "shoot",
    "multistart_survey",
]

log = logging.getLogger("brachkit.bvp")


@dataclass(frozen=True)
class ObserverWorldline:
    """The observer: the Killing-flow line through an anchor point."""

    anchor: np.ndarray
    model: SpacetimeModel

    def __post_init__(self):
        object.__setattr__(self, "anchor", np.asarray(self.anchor, dtype=float))

    def point(self, s: float) -> np.ndarray:
        return flow_points(self.model, self.anchor[None, :], np.array([s]))[0]


@dataclass
class ShootConfig:
    tol_bvp: float = 1e-10
    max_newton: int = 30
    fd_step: float = 1e-7
    integrator: IntegratorConfig = dc_field(default_factory=IntegratorConfig)


@dataclass
class ShootingProblem:
    model: SpacetimeModel
    p: np.ndarray
    gamma: ObserverWorldline
    k: float
    config: ShootConfig = dc_field(default_factory=ShootConfig)

    def __post_init__(self):
        self.p = _coords(self.p)


@dataclass
class SurveyResult:
    solutions: list
    dedup_threshold: float
    parity: int
    n_failures: int
    parity_note: str


def sample_initial_velocity(model: SpacetimeModel, p, k: float, T: float,
                            u_seed) -> np.ndarray:
    """Launch velocity on the constraint manifold from an arbitrary spatial seed.

    The seed is projected to the horizontal space and normalized; the velocity
    then satisfies <v,Y>^2 + k^2 <v,v> = 0 with <v,v> < 0 and <v,Y> < 0.
    """
    return initial_velocity(model, k, p, horizontal_unit(model, p, u_seed), T)


def _endpoint(model, k, p, u, T, config: IntegratorConfig):
    """Arrival state of a shot, without dense output (cheap)."""
    v0 = initial_velocity(model, k, p, u, T)
    rhs = _rhs_factory(model, k, T)
    out = solve_ivp(rhs, (0.0, 1.0), np.concatenate([p, v0]), method=config.method,
                    rtol=config.rtol, atol=config.atol)
    if not out.success:
        raise NoConvergence(f"shot integration failed: {out.message}")
    return out.y[:model.m, -1]


def _orbit_match(problem: ShootingProblem, q_end) -> tuple:
    """Flow parameter s* minimizing the g_R distance from q_end to the orbit."""
    model = problem.model
    anchor = problem.gamma.anchor
    gr = riemannian_metric_matrix(model, anchor)
    y = model.y(anchor)

    def dist2(s):
        pt = problem.gamma.point(s)
        d = model.wrap_difference(q_end - pt)
        return float(d @ gr @ d)

    d0 = model.wrap_difference(q_end - anchor)
    s_est = float(d0 @ gr @ y) / float(y @ gr @ y)
    width = 2.0 + 0.5 * abs(s_est)
    res = minimize_scalar(dist2, bracket=None, bounds=(s_est - width, s_est + width),
                          method="bounded", options={"xatol": 1e-13})
    return float(res.x), np.sqrt(max(float(res.fun), 0.0))


def _residual_vector(problem: ShootingProblem, u, T) -> np.ndarray:
    model = problem.model
    q_end = _endpoint(model, problem.k, problem.p, u, T, problem.config.integrator)
    s_star, _ = _orbit_match(problem, q_end)
    pt = problem.gamma.point(s_star)
    d = model.wrap_difference(q_end - pt)
    frame = horizontal_frame(model, pt)
    gr = riemannian_metric_matrix(model, pt)
    return np.array([float(d @ gr @ e) for e in frame])


def _sphere_direction(model, p, center, coeffs):
    """Point on the unit horizontal sphere: normalize(center + sum c_i E_i)."""
    q = _coords(p)
    gr = riemannian_metric_matrix(model, q)
    # tangent directions at the current center
    tang = orthonormal_completion(gr, [center], model.m - 2,
                                  candidates=horizontal_frame(model, q))
    vec = center + sum(c * t for c, t in zip(coeffs, tang))
    return vec / np.sqrt(float(vec @ gr @ vec))


def shoot(problem: ShootingProblem, guess) -> BrachistochroneSolution:
    """Newton iteration on (direction, travel time) until the arrival defect
    drops below tolerance; returns the fully sampled converged solution."""
    model = problem.model
    cfg = problem.config
    u0, T = guess
    center = horizontal_unit(model, problem.p, u0)
    T = float(T)
    ndim = model.m - 1

    def system(x, ctr):
        u = _sphere_direction(model, problem.p, ctr, x[:-1])
        return _residual_vector(problem, u, max(x[-1], 1e-8))

    x = np.zeros(ndim)
    x[-1] = T
    r = system(x, center)
    jac = None
    for it in range(cfg.max_newton):
        rn = float(np.linalg.norm(r))
        if rn < cfg.tol_bvp:
            break
        if jac is None:
            jac = np.empty((ndim, ndim))
            for j in range(ndim):
                dx = np.zeros(ndim)
                dx[j] = cfg.fd_step * (1.0 + abs(x[j]))
                jac[:, j] = (system(x + dx, center) - r) / dx[j]
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            raise NoConvergence("singular shooting Jacobian")
        lam = 1.0
        for _ in range(8):
            x_new = x + lam * step
            if x_new[-1] <= 0.0:
                lam *= 0.5
                continue
            try:
                r_new = system(x_new, center)
            except (BrachkitError, ValueError):
                lam *= 0.5
                continue
            if np.linalg.norm(r_new) < rn or lam < 0.26:
                break
            lam *= 0.5
        else:
            raise NoConvergence(f"line search stalled at residual {rn:.3e}")
        # re-center the sphere chart at the accepted direction
        center = _sphere_direction(model, problem.p, center, x_new[:-1])
        x = x_new.copy()
        x[:-1] = 0.0
        r = r_new
        if lam < 1.0 or it % 4 == 3:
            jac = None  # refresh the chord Jacobian after damped steps
    else:
        raise NoConvergence(
            f"no convergence after {cfg.max_newton} iterations (residual {np.linalg.norm(r):.3e})")

    u_final = center
    T_final = float(x[-1])
    sol = integrate_brachistochrone(model, problem.k, problem.p, u_final, T_final,
                                    cfg.integrator)
    sol.check_conservation(cfg.integrator.tol_cons)
    return sol


def _attach_indices(model, sol, n_basis: int = 50):
    from .geometry import conformal_geometry
    from .jacobi import focal_points
    from .transform import deform_D
    from .variation import ConformalCurveData, assemble_hessian

    w = deform_D(model, sol, n_out=400)
    wrev = w.reversed()
    cg = conformal_geometry(model, sol.k)
    data = ConformalCurveData(cg, wrev)
    hm = assemble_hessian(cg, wrev, "full", n_basis, data=data)
    rep = focal_points(cg, wrev, data=data)
    return hm.n_negative, hm.n_zero, rep.geometric_index


def multistart_survey(problem: ShootingProblem, n_starts: int, T_bracket,
                      seed: int, dedup_threshold: float = 1e-4,
                      attach_indices: bool = True, n_basis: int = 50,
                      threads: int = 1) -> SurveyResult:
    """Deterministic multi-start shooting over random directions and T values.

    Individual failures are logged and skipped; converged solutions are sorted
    by travel time, deduplicated by sup curve distance, and annotated with
    their Morse and geometric indices.
    """
    rng = np.random.default_rng(seed)
    T_lo, T_hi = float(T_bracket[0]), float(T_bracket[1])
    starts = []
    for _ in range(n_starts):
        seed_dir = rng.standard_normal(problem.model.m)
        T0 = rng.uniform(T_lo, T_hi)
        starts.append((seed_dir, T0))

    def run_one(idx_start):
        idx, (seed_dir, T0) = idx_start
        try:
            sol = shoot(problem, (seed_dir, T0))
            return idx, sol, None
        except (BrachkitError, ValueError) as exc:
            return idx, None, f"start {idx}: {type(exc).__name__}: {exc}"

    results = []
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_one, enumerate(starts)))
    else:
        results = [run_one(pair) for pair in enumerate(starts)]
    results.sort(key=lambda r: r[0])

    n_failures = 0
    converged = []
    for idx, sol, err in results:
        if sol is None:
            n_failures += 1
            log.info("%s", err)
            continue
        if not (T_lo - 1e-9 <= sol.T <= T_hi + 1e-9):
            log.info("start %d: converged outside the T bracket (T=%.6g), discarded",
                     idx, sol.T)
            continue
        converged.append(sol)

    converged.sort(key=lambda s: s.T)
    unique = []
    for sol in converged:
        if all(curve_distance(problem.model, resample_curve(sol.sigma, 200).points,
                              resample_curve(other.sigma, 200).points) > dedup_threshold
               for other in unique):
            unique.append(sol)

    records = []
    for sol in unique:
        rec = {"solution": sol, "T": sol.T,
               "residual_conservation_Y": sol.residual_conservation_Y,
               "residual_conservation_speed": sol.residual_conservation_speed}
        if attach_indices:
            morse, n_zero, geometric = _attach_indices(problem.model, sol, n_basis)
            rec.update(index_morse=morse, index_geometric=geometric, n_zero=n_zero)
        records.append(rec)

    count = len(records)
    parity = count % 2
    if parity == 1:
        note = "odd count: consistent with an odd solution total"
    else:
        note = ("even count: consistent with an odd solution total only under "
                "bracket truncation (a survey lower-bounds the count)")
    return SurveyResult(solutions=records, dedup_threshold=dedup_threshold,
                        parity=parity, n_failures=n_failures, parity_note=note)
