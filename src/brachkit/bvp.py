"""Shooting solver for the event-to-observer boundary value problem, plus
deterministic multi-start surveys with index attachment and deduplication.

The endpoint condition "arrive on the observer line" is measured in the
quotient by the Killing flow.  In the adapted chart the observer's orbit is
anchor + s e_last and the metric does not depend on s, so the residual is the
displacement from the anchor in a g_R-orthonormal frame E of the horizontal
space at the anchor: E g_R wrap(q_end - anchor).  Its component along Y, the
one a flow parameter could absorb, drops out because E is g_R-orthogonal to Y.

Newton's method is written as a generator that yields the shots it needs, so
one loop (``_solve_starts``) can integrate the shots of every start of a
survey in one running batch of lanes (``dynamics.ode_lanes``): a start's next
shots join as soon as its previous ones have arrived.  ``shoot`` is that loop
with a single start, and its curve is the lane of the shot whose arrival
Newton accepted, read off the lane's continuous extension: the trials' shots
keep their integrator stages, and only the accepted one pays for the dense
output.  A survey keeps no stages; it integrates again only the converged
launches it may keep.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .dynamics import (BrachistochroneSolution, IntegratorConfig, initial_velocity,
                       integrate_brachistochrone, _launch_velocity, _shot_lanes, _shot_solution)
from .dynamics import solve_ivp  # unused here; bench/spans.py wraps this binding
from .errors import BrachkitError, NoConvergence
from .geometry import (SpacetimeModel, curve_distance, horizontal_unit, require_adapted_chart,
                       _coords, _frame_through, _horizontal_frame, _riemannian)
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


@dataclass(frozen=True, eq=False)
class ObserverWorldline:
    """The observer: the Killing-flow line s -> psi(anchor, s) = anchor + s e_last.

    Worldlines compare and hash by identity (the anchor is an array).
    """

    anchor: np.ndarray
    model: SpacetimeModel

    def __post_init__(self):
        object.__setattr__(self, "anchor", _coords(self.anchor))
        require_adapted_chart(self.model, self.anchor)

    def point(self, s: float) -> np.ndarray:
        return flow_points(self.model, self.anchor, np.array([s]))[0]


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

    @cached_property
    def _launch_geometry(self):
        """g, g_R and the horizontal frame at p, from which every launch is built."""
        g = self.model.g(self.p)
        return g, _riemannian(g), _horizontal_frame(g)

    @cached_property
    def _anchor_frame(self):
        """g_R and the horizontal frame at the observer's anchor, in which residuals are read."""
        g = self.model.g(self.gamma.anchor)
        return _riemannian(g), _horizontal_frame(g)


@dataclass
class SurveyResult:
    solutions: list
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


def _residual_vector(problem: ShootingProblem, q_end) -> np.ndarray:
    """Horizontal-frame components of the displacement from the observer's anchor."""
    gr, frame = problem._anchor_frame
    return frame @ (problem.model.wrap_difference(q_end - problem.gamma.anchor) @ gr)


def _sphere_chart(problem: ShootingProblem, center):
    """The unit horizontal sphere at p around ``center``: the centre and its tangents E_i."""
    _, gr, frame = problem._launch_geometry
    return center, _frame_through(gr, center, frame)[1:]


def _sphere_direction(problem: ShootingProblem, chart, coeffs):
    """Point on the unit horizontal sphere at p: normalize(center + sum c_i E_i)."""
    vec = chart[0] + sum(c * t for c, t in zip(coeffs, chart[1]))
    return vec / np.sqrt(float(vec @ problem._launch_geometry[1] @ vec))


# The longest Newton step: the direction coefficients c of a step, T riding
# along, are scaled to |c| <= 1.  The sphere chart is gnomonic, so |c| is the
# tangent of the turn of the launch direction: the bound caps each trial at a
# 45 degree turn, where the chart's linearisation is off by a factor of 2.
# Longer steps saturate the chart and send trial curves past its poles.
_MAX_TURN = 1.0

# The sequential line search tries lambda = 1, 1/2, ..., 1/128 in turn.  These
# are the groups of trials one yield carries: while the previous step was
# damped, and after a full step.
_LAMBDAS = tuple(0.5 ** j for j in range(8))
_DAMPED_GROUPS = (_LAMBDAS[:3], _LAMBDAS[3:])
_FULL_GROUPS = (_LAMBDAS[:1], _LAMBDAS[1:3], _LAMBDAS[3:])


def _attempt(f, *args):
    """f(*args), or the exception it raised, for the caller to raise where it is needed."""
    try:
        return f(*args)
    except Exception as exc:  # any class: the caller raises it where the sequential code would
        return exc


def _newton(problem: ShootingProblem, guess):
    """Newton iteration on (direction, travel time), as a generator of shots.

    Each ``yield`` hands out a list of launches ``(state, T)``, with the
    positions in it of the trials' nominal shots (the launches that can carry
    a converged launch, as opposed to Jacobian launches), and is sent back
    each launch's arrival point or the exception its integration raised.  The
    generator returns ``((u, T), pos)`` once the arrival defect drops below
    tolerance: the launch of the shot whose arrival it accepted, and that
    shot's position in the last yield.

    The iterates are those of the sequential damped Newton method: every
    iteration solves with a fresh finite-difference Jacobian at its iterate,
    the step is scaled so that it turns the launch direction by at most 45
    degrees (``_MAX_TURN``), and the trials lambda = 1, 1/2, ..., 1/128 of it
    are taken in turn and the first whose defect is smaller, or whose lambda
    is below 0.26, is accepted.  Work is yielded ahead of need to save rounds:

    * every launch, the first and each trial's, comes with the Jacobian
      launches around its (re-centred) iterate, so the accepted trial's
      Jacobian arrives with it;
    * the trials of a step come in groups, {1, 1/2, 1/4} and then
      {1/8, ..., 1/128} while the previous step was damped, and {1},
      {1/2, 1/4}, {1/8, ..., 1/128} after a full step (so a start that takes
      full steps asks for no extra shots).

    Trials after the accepted one are dropped without computing their
    residuals, together with their exceptions.  An exception raised while
    building work ahead of need is raised only where the sequential iteration
    would have met it.
    """
    model = problem.model
    cfg = problem.config
    chart = _sphere_chart(problem, horizontal_unit(model, problem.p, guess[0]))
    ndim = model.m - 1
    g, gr, _ = problem._launch_geometry  # p is in the chart: horizontal_unit checked it

    def launch(x, ctr):
        T = max(x[-1], 1e-8)
        u = _sphere_direction(problem, ctr, x[:-1])
        return np.concatenate([problem.p, _launch_velocity(g, gr, problem.k, u, T)]), T

    def residual(end):
        if isinstance(end, Exception):
            raise end
        return _residual_vector(problem, end)

    def jacobian_launches(x, ctr):
        dxs = cfg.fd_step * (1.0 + np.abs(x))
        return dxs, [launch(x + dx * e, ctr) for dx, e in zip(dxs, np.eye(ndim))]

    def jacobian(plan, ends, r):
        if isinstance(plan, Exception):
            raise plan
        return np.column_stack([(residual(end) - r) / dx for end, dx in zip(ends, plan[0])])

    def recentre(x_new, ctr):
        """(x, chart) of the sphere chart re-centred at the direction of x_new."""
        x = x_new.copy()
        x[:-1] = 0.0
        return x, _sphere_chart(problem, _sphere_direction(problem, ctr, x_new[:-1]))

    def ahead(shot, plan):
        """The launches of a trial shot and of the Jacobian plan riding with it."""
        if isinstance(shot, Exception):
            return []
        return [shot] + ([] if plan is None or isinstance(plan, Exception) else plan[1])

    x = np.zeros(ndim)
    x[-1] = float(guess[1])
    first = launch(x, chart)
    u = _sphere_direction(problem, chart, x[:-1])   # the direction first was launched in
    plan = _attempt(jacobian_launches, x, chart)
    ends = yield ahead(first, plan), [0]
    r = residual(ends[0])
    plan_ends = ends[1:]
    pos = 0           # where the accepted shot was in the last yield
    damped = False
    for _ in range(cfg.max_newton):
        rn = float(np.linalg.norm(r))
        if rn < cfg.tol_bvp:
            break
        jac = jacobian(plan, plan_ends, r)
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            raise NoConvergence("singular shooting Jacobian")
        turn = float(np.linalg.norm(step[:-1]))
        if turn > _MAX_TURN:
            step *= _MAX_TURN / turn
        accepted = None
        for group in _DAMPED_GROUPS if damped else _FULL_GROUPS:
            trials, launches, nominal = [], [], []
            for lam in group:
                x_new = x + lam * step
                if x_new[-1] <= 0.0:
                    continue
                shot = _attempt(launch, x_new, chart)
                moved = trial_plan = None
                if not isinstance(shot, Exception):
                    moved = _attempt(recentre, x_new, chart)
                    if not isinstance(moved, Exception):
                        trial_plan = _attempt(jacobian_launches, *moved)
                trials.append((lam, shot, moved, trial_plan, len(launches)))
                if not isinstance(shot, Exception):
                    nominal.append(len(launches))
                launches += ahead(shot, trial_plan)
            ends = (yield launches, nominal) if launches else []
            for lam, shot, moved, trial_plan, pos in trials:
                if isinstance(shot, Exception):
                    if isinstance(shot, (BrachkitError, ValueError)):
                        continue
                    raise shot
                try:
                    r_new = residual(ends[pos])
                except (BrachkitError, ValueError) as exc:
                    exc.__traceback__ = None  # it is kept in ends: no cycle through this frame
                    continue
                if np.linalg.norm(r_new) < rn or lam < 0.26:
                    accepted = lam, r_new, moved, trial_plan, ends[pos + 1:pos + ndim + 1], pos
                    break
            if accepted is not None:
                break
        else:
            raise NoConvergence(f"line search stalled at residual {rn:.3e}")
        lam, r, moved, plan, plan_ends, pos = accepted
        if isinstance(moved, Exception):
            raise moved
        x, chart = moved
        u = chart[0]      # the accepted trial's direction, which the chart is now centred on
        damped = lam < 1.0
    else:
        raise NoConvergence(
            f"no convergence after {cfg.max_newton} iterations (residual {np.linalg.norm(r):.3e})")
    return (u, float(max(x[-1], 1e-8))), pos


def _solve_starts(problem: ShootingProblem, guesses, dense: bool = False) -> tuple:
    """Newton-solve every guess, all starts sharing one running batch of lanes.

    A start's Newton generator advances as soon as all the shots it yielded
    have arrived, and its next shots join the batch at the next step
    boundary (``dynamics.ode_lanes`` with ``admit``).  Returns
    ``(results, counts)``: ``results[i]`` is the converged launch ``(u, T)``
    of start i or the exception that ended it; ``counts`` has ``rounds`` (the
    most yields of any start), ``lane_shots`` and ``batched_calls`` (calls of
    the acceleration).

    Without ``dense`` no dense curve is integrated.  With it, the result of a
    start that converged is its solution instead: the lane of the shot whose
    arrival Newton accepted, read off that lane's continuous extension.  Only
    the trials' nominal shots keep their stages while the batch runs, and the
    dense output's stages are evaluated only for the accepted ones.
    """
    newtons = [_newton(problem, guess) for guess in guesses]
    results = [None] * len(newtons)
    yields = [0] * len(newtons)
    owner = []        # shot -> (start, position in its yield)
    arrivals = {}     # start -> the arrivals of its current yield, None until they land
    queued = []       # the launches of the shots not yet handed to the batch
    first = {}        # start -> the number of the first shot of its current yield
    nominal = []      # the trials' nominal shots, which can carry a converged launch
    accepted = {}     # start -> the shot whose arrival its Newton accepted

    def advance(i, ends):
        try:
            shots, trials = newtons[i].send(ends)
        except StopIteration as stop:
            results[i], pos = stop.value
            accepted[i] = first[i] + pos
        except (BrachkitError, ValueError) as exc:
            results[i] = exc.with_traceback(None)  # no cycle through the frames of the start
        else:
            yields[i] += 1
            first[i] = len(owner)
            nominal.extend(first[i] + j for j in trials)
            arrivals[i] = [None] * len(shots)
            owner.extend((i, j) for j in range(len(shots)))
            queued.extend(shots)

    def take_queued():
        shots = queued[:]
        queued.clear()
        return np.array([st for st, _ in shots]), [T for _, T in shots]

    def admit(arrived):
        for shot, end in sorted(arrived.items()):
            i, j = owner[shot]
            arrivals[i][j] = end
            if all(a is not None for a in arrivals[i]):
                advance(i, arrivals.pop(i))
        return take_queued()

    def keeps(shots):
        """The shots that keep their stages: the nominal ones while a start runs, then the
        accepted ones."""
        running = any(res is None for res in results)
        return np.isin(shots, nominal if running else list(accepted.values()))

    for i in range(len(newtons)):
        advance(i, None)
    tally = {"batched_calls": 0}
    if queued:
        extensions, failures = _shot_lanes(problem.model, problem.k, *take_queued(),
                                           problem.config.integrator, keeps if dense else False,
                                           admit=admit, tally=tally)
        if dense:
            for i, shot in accepted.items():
                results[i] = _attempt(_shot_solution, problem.model, problem.k, results[i][1],
                                      problem.config.integrator, extensions, failures, shot)
    return results, dict(rounds=max(yields, default=0), lane_shots=len(owner), **tally)


def _integrate(problem: ShootingProblem, launch) -> BrachistochroneSolution:
    """The fully sampled solution of a converged launch (u, T), its conservation checked."""
    cfg = problem.config.integrator
    sol = integrate_brachistochrone(problem.model, problem.k, problem.p, *launch, cfg)
    sol.check_conservation(cfg.tol_cons)
    return sol


def shoot(problem: ShootingProblem, guess) -> BrachistochroneSolution:
    """Newton iteration on (direction, travel time) until the arrival defect
    drops below tolerance; returns the converged solution, the lane of the
    shot Newton accepted sampled on the integrator's grid, its conservation
    checked."""
    (result,), _ = _solve_starts(problem, [guess], dense=True)
    if isinstance(result, Exception):
        raise result
    result.check_conservation(problem.config.integrator.tol_cons)
    return result


def _attach_indices(model, sol, n_basis: int = 50):
    from .jacobi import focal_points
    from .variation import assemble_hessian, index_data

    data = index_data(model, sol)
    hm = assemble_hessian(data, "full", n_basis)
    rep = focal_points(data)
    return hm.n_negative, hm.n_zero, rep.geometric_index


# Converged launches this close (max norm over the direction and T) are one
# solution: Newton leaves them ~1e-10 apart, distinct solutions lie O(1) apart.
_SAME_LAUNCH = 1e-8
# Integrated curves this close (sup g_R distance over their shared nodes) are one solution.
_SAME_CURVE = 1e-4


def _survey_starts(m: int, n_starts: int, T_bracket, seed: int) -> list:
    """The survey's deterministic (direction seed, T) starts."""
    rng = np.random.default_rng(seed)
    T_lo, T_hi = float(T_bracket[0]), float(T_bracket[1])
    return [(rng.standard_normal(m), rng.uniform(T_lo, T_hi)) for _ in range(n_starts)]


def multistart_survey(problem: ShootingProblem, n_starts: int, T_bracket,
                      seed: int, attach_indices: bool = True,
                      n_basis: int = 50) -> SurveyResult:
    """Deterministic multi-start shooting over random directions and T values.

    All starts are shot in lockstep.  Individual failures are logged and
    skipped.  The converged launches inside the T bracket are walked in order
    of travel time: a launch within ``_SAME_LAUNCH`` of a kept one is a
    duplicate, and every other is integrated, its conservation checked, and
    kept unless its curve lies within ``_SAME_CURVE`` of a kept curve (sup
    g_R distance over the nodes, which every integrated curve shares).  Kept
    solutions are annotated with their Morse and geometric indices; a solution
    whose indices cannot be computed is kept with them set to None and the
    failure's class in ``index_error``.  One INFO line sums up what became of
    the starts and of the index attachments.
    """
    T_lo, T_hi = float(T_bracket[0]), float(T_bracket[1])
    starts = _survey_starts(problem.model.m, n_starts, T_bracket, seed)
    results, counts = _solve_starts(problem, starts)

    failed = Counter()

    def fail(idx, exc):
        failed[type(exc).__name__] += 1
        log.info("start %d: %s: %s", idx, type(exc).__name__, exc)

    n_outside = 0
    converged = []
    for idx, res in enumerate(results):
        if isinstance(res, Exception):
            fail(idx, res)
        elif not (T_lo - 1e-9 <= res[1] <= T_hi + 1e-9):
            log.info("start %d: converged outside the T bracket (T=%.6g), discarded",
                     idx, res[1])
            n_outside += 1
        else:
            converged.append((idx, res))

    converged.sort(key=lambda c: c[1][1])
    unique, kept = [], []  # kept: the launch (u, T) of each unique solution
    n_duplicate = n_integrated = 0
    for idx, launch in converged:
        ut = np.append(*launch)
        if any(np.max(np.abs(ut - other)) <= _SAME_LAUNCH for other in kept):
            n_duplicate += 1
            continue
        n_integrated += 1
        try:
            sol = _integrate(problem, launch)
        except (BrachkitError, ValueError) as exc:
            fail(idx, exc)
            continue
        if all(curve_distance(problem.model, sol.sigma.points, other.sigma.points) > _SAME_CURVE
               for other in unique):
            unique.append(sol)
            kept.append(ut)
        else:
            n_duplicate += 1

    records, index_failed = [], Counter()
    for sol in unique:
        rec = {"solution": sol, "T": sol.T,
               "residual_conservation_Y": sol.residual_conservation_Y,
               "residual_conservation_speed": sol.residual_conservation_speed}
        if attach_indices:
            try:
                morse, n_zero, geometric = _attach_indices(problem.model, sol, n_basis)
            except (BrachkitError, ValueError) as exc:
                name = type(exc).__name__
                index_failed[name] += 1
                log.info("solution T=%.6g: no indices: %s: %s", sol.T, name, exc)
                morse = n_zero = geometric = None
                rec["index_error"] = name
            rec.update(index_morse=morse, index_geometric=geometric, n_zero=n_zero)
        records.append(rec)

    def by_class(counter):
        return " ".join(f"{k}={v}" for k, v in sorted(counter.items()))

    n_failures = sum(failed.values())
    log.info("survey: starts=%d distinct=%d duplicate=%d outside_bracket=%d failed=%d (%s) "
             "rounds=%d lane_shots=%d batched_calls=%d integrated=%d index_failed=%d (%s)",
             n_starts, len(unique), n_duplicate, n_outside, n_failures, by_class(failed),
             counts["rounds"], counts["lane_shots"], counts["batched_calls"], n_integrated,
             sum(index_failed.values()), by_class(index_failed))

    count = len(records)
    parity = count % 2
    if parity == 1:
        note = "odd count: consistent with an odd solution total"
    else:
        note = ("even count: consistent with an odd solution total only under "
                "bracket truncation (a survey lower-bounds the count)")
    return SurveyResult(solutions=records, parity=parity, n_failures=n_failures,
                        parity_note=note)
