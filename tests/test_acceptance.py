"""Acceptance battery: every criterion at its stated tolerance.

Each test prints one PASS line (visible with ``pytest -s``); a failing
assertion marks the criterion red.  Fixtures cache the expensive shared
objects so the whole battery stays inside the runtime budget.
"""

import json
import logging
import re

import numpy as np
import pytest

from brachkit.bvp import ObserverWorldline, ShootingProblem, multistart_survey, shoot
from brachkit.curves import FieldAlongCurve
from brachkit.dynamics import IntegratorConfig, integrate_brachistochrone
from brachkit.geometry import conformal_geometry, connection_coeffs, riemannian_metric_matrix
from brachkit.jacobi import (_bfocal_singular_value, _endpoint_rows, bfocal_points,
                             focal_points, integrate_bjacobi)
from brachkit.models import ModelSpec, make_model
from brachkit.oracle import (constrained_curve_family, discrete_minimize,
                             fd_variation_family)
from brachkit.transform import correspondence_report, dD_differential, deform_D, map_L
from brachkit.variation import (ConformalCurveData, SolutionGeometry, assemble_hessian,
                                constraint_residual, hessian_E_eval, hessian_F_eval,
                                make_admissible_variation, restricted_index_report)

from conftest import unit_horizontal

# deterministic launch windows keeping trajectories inside chart and
# admissible region
LAUNCH_WINDOWS = {
    "minkowski3": dict(params={}, k_range=(1.2, 3.0), T_range=(0.3, 1.5),
                       p_center=[0.0, 0.0, 0.0], p_spread=0.3),
    "minkowski4": dict(params={}, k_range=(1.2, 3.0), T_range=(0.3, 1.2),
                       p_center=[0.0, 0.0, 0.0, 0.0], p_spread=0.3),
    "einstein_cylinder": dict(params={}, k_range=(1.3, 2.5), T_range=None,
                              p_center=[np.pi / 2, 0.0, 0.0], p_spread=0.1),
    "static_well": dict(params={}, k_range=(2.2, 3.0), T_range=(0.2, 0.4),
                        p_center=[0.0, 0.0, 0.0], p_spread=0.3),
    "rotating_frame": dict(params={}, k_range=(1.3, 2.0), T_range=(0.2, 0.5),
                           p_center=[0.0, 0.0, 0.0], p_spread=0.3),
}
MODEL_PARAMS = {"static_well": {"a": 1.0}}


def random_launch(model, name, rng):
    info = LAUNCH_WINDOWS[name]
    p = np.asarray(info["p_center"], dtype=float)
    p = p + info["p_spread"] * rng.uniform(-1.0, 1.0, model.m)
    k = rng.uniform(*info["k_range"])
    if info["T_range"] is None:  # cylinder: cap the deformed arc length
        T = rng.uniform(0.3, 0.9) / np.sqrt(k * k - 1.0)
    else:
        T = rng.uniform(*info["T_range"])
    u = unit_horizontal(model, p, rng.standard_normal(model.m))
    return p, u, k, T


@pytest.fixture(scope="module")
def acceptance_models():
    return {name: make_model(ModelSpec(name, MODEL_PARAMS.get(name, {})))
            for name in LAUNCH_WINDOWS}


@pytest.fixture(scope="module")
def launch_battery(acceptance_models):
    """20 random solutions per model at rtol = 1e-10."""
    rng = np.random.default_rng(2024)
    out = {}
    for name, model in acceptance_models.items():
        launches = []
        for _ in range(20):
            p, u, k, T = random_launch(model, name, rng)
            sol = integrate_brachistochrone(model, k, p, u, T)
            launches.append((p, u, k, T, sol))
        out[name] = launches
    return out


@pytest.fixture(scope="module")
def cylinder_fixtures(acceptance_models):
    """Arcs of deformed length 4.5 and 7.0 with their conformal caches."""
    model = acceptance_models["einstein_cylinder"]
    k = np.sqrt(2.0)
    cg = conformal_geometry(model, k)
    out = {}
    for L in (4.5, 7.0):
        u = unit_horizontal(model, [np.pi / 2, 0.0, 0.0], [0.0, 1.0, 0.0])
        sol = integrate_brachistochrone(model, k, np.array([np.pi / 2, 0.0, 0.0]), u,
                                        L / np.sqrt(k * k - 1.0))
        wrev = deform_D(model, sol).reversed()
        data = ConformalCurveData(cg, wrev)
        out[L] = (sol, wrev, data)
    return model, cg, out


def test_acceptance_01_conservation(acceptance_models, launch_battery):
    worst = 0.0
    for name, launches in launch_battery.items():
        for p, u, k, T, sol in launches:
            assert sol.residual_conservation_Y < 1e-8, name
            assert sol.residual_conservation_speed < 1e-8, name
            worst = max(worst, sol.residual_conservation_Y,
                        sol.residual_conservation_speed)
    # tightening the integrator tolerance tenfold shrinks residuals >= 5x
    min_ratio = np.inf
    tight = IntegratorConfig(rtol=1e-11, atol=1e-11)
    for name, launches in launch_battery.items():
        model = acceptance_models[name]
        for p, u, k, T, sol in launches[:2]:
            loose_res = max(sol.residual_conservation_Y,
                            sol.residual_conservation_speed)
            if loose_res < 1e-13:
                continue  # already at the roundoff floor
            sol2 = integrate_brachistochrone(model, k, p, u, T, tight)
            tight_res = max(sol2.residual_conservation_Y,
                            sol2.residual_conservation_speed, 1e-16)
            min_ratio = min(min_ratio, loose_res / tight_res)
    assert min_ratio >= 5.0
    print(f"\nACCEPTANCE 01 conservation: PASS "
          f"(max residual {worst:.2e}, min shrink {min_ratio:.1f}x)")


def test_acceptance_02_first_variational_principle(acceptance_models, launch_battery):
    worst_geo = worst_energy = worst_round = 0.0
    for name, launches in launch_battery.items():
        model = acceptance_models[name]
        for p, u, k, T, sol in launches[:3]:
            rep = correspondence_report(model, sol)
            assert rep.geodesic_residual < 1e-6, name
            assert rep.energy_vs_halfT2 < 1e-8 * (1.0 + sol.T ** 2), name
            assert rep.roundtrip_error < 1e-7, name
            worst_geo = max(worst_geo, rep.geodesic_residual)
            worst_energy = max(worst_energy, rep.energy_vs_halfT2 / (1 + sol.T ** 2))
            worst_round = max(worst_round, rep.roundtrip_error)
    print(f"\nACCEPTANCE 02 first variational principle: PASS "
          f"(geodesic {worst_geo:.2e}, energy {worst_energy:.2e}, "
          f"roundtrip {worst_round:.2e})")


def test_acceptance_03_flat_closed_form(acceptance_models):
    model = acceptance_models["minkowski3"]
    gamma = ObserverWorldline(np.array([1.0, 0.0, 0.0]), model)
    worst = 0.0
    for k in (np.sqrt(2.0), 2.0, 3.0):
        prob = ShootingProblem(model, np.zeros(3), gamma, k)
        sol = shoot(prob, (np.array([1.0, 0.2, 0.0]), 0.6))
        err = abs(sol.T - 1.0 / np.sqrt(k * k - 1.0))
        assert err < 1e-8
        worst = max(worst, err)
    print(f"\nACCEPTANCE 03 flat closed form: PASS (max |T - 1/sqrt(k^2-1)| = {worst:.2e})")


def _fd_field(model, sol, plus, minus, s):
    grid = sol.sigma.grid
    vals = (plus.sigma.point_spline()(grid)
            - minus.sigma.point_spline()(grid)) / (2 * s)
    dots = (plus.sigma.velocity_spline()(grid)
            - minus.sigma.velocity_spline()(grid)) / (2 * s)
    ders = np.empty_like(dots)
    for i, (q, v) in enumerate(zip(sol.sigma.points, sol.sigma.velocities)):
        G = connection_coeffs(model, q)
        ders[i] = dots[i] + np.einsum("abc,b,c->a", G, v, vals[i])
    return FieldAlongCurve(host=sol.sigma, values=vals, derivatives=ders)


def test_acceptance_04_travel_time_differential(acceptance_models, launch_battery):
    rng = np.random.default_rng(44)
    # regime 1: non-critical constrained curves, finite differences vs -C/k
    worst_rel = 0.0
    checked = 0
    for name in ("minkowski3", "static_well", "rotating_frame"):
        model = acceptance_models[name]
        sol = launch_battery[name][0][4]
        for trial in range(4 if name == "static_well" else 3):
            coeffs = 0.05 * rng.standard_normal((1, model.m))
            s0 = 0.06 + 0.02 * trial
            s = 1e-4
            base = constrained_curve_family(model, sol, coeffs, s0)
            plus = constrained_curve_family(model, sol, coeffs, s0 + s)
            minus = constrained_curve_family(model, sol, coeffs, s0 - s)
            zeta = _fd_field(model, base, plus, minus, s)
            rep = constraint_residual(model, base, zeta)
            dT_formula = -rep.C_zeta / base.k
            dT_fd = (plus.T - minus.T) / (2 * s)
            rel = abs(dT_formula - dT_fd) / max(abs(dT_fd), 1e-12)
            assert rel < 1e-4, name
            worst_rel = max(worst_rel, rel)
            checked += 1
    assert checked >= 10
    # regime 2: at critical points the differential vanishes
    worst_crit = 0.0
    for name, launches in launch_battery.items():
        model = acceptance_models[name]
        sol = launches[0][4]
        geom = SolutionGeometry(model, sol)
        for _ in range(2):
            zeta = make_admissible_variation(geom, rng=rng)
            rep = constraint_residual(model, sol, zeta)
            val = abs(rep.C_zeta / sol.k)
            assert val < 1e-7, name
            worst_crit = max(worst_crit, val)
    print(f"\nACCEPTANCE 04 travel time differential: PASS "
          f"(fd match {worst_rel:.2e}, critical value {worst_crit:.2e})")


def test_acceptance_05_hessian_fd(acceptance_models, launch_battery):
    rng = np.random.default_rng(45)
    worst = 0.0
    checked = 0
    for name in ("minkowski3", "static_well", "rotating_frame"):
        model = acceptance_models[name]
        sol = launch_battery[name][0][4]
        geom = SolutionGeometry(model, sol)
        n_fields = 4 if name == "minkowski3" else 3
        for _ in range(n_fields):
            coeffs = 0.05 * rng.standard_normal((2, model.m))
            s = 3e-3
            plus = constrained_curve_family(model, sol, coeffs, s)
            minus = constrained_curve_family(model, sol, coeffs, -s)
            base = constrained_curve_family(model, sol, coeffs, 0.0)
            zeta = _fd_field(model, sol, plus, minus, s)
            H = hessian_F_eval(geom, zeta, zeta, constraint_tol=1e-3)
            F = lambda T: -0.5 * T * T
            d2F = (F(plus.T) - 2 * F(base.T) + F(minus.T)) / (s * s)
            rel = abs(H - d2F) / max(abs(d2F), 1e-12)
            assert rel < 1e-3, name
            worst = max(worst, rel)
            checked += 1
    assert checked == 10
    print(f"\nACCEPTANCE 05 explicit Hessian vs finite differences: PASS "
          f"(max rel err {worst:.2e} on {checked} fields)")


def test_acceptance_06_second_variational_principle(acceptance_models, launch_battery):
    rng = np.random.default_rng(46)
    worst = 0.0
    for name, launches in launch_battery.items():
        model = acceptance_models[name]
        sol = launches[0][4]
        geom = SolutionGeometry(model, sol)
        cg = conformal_geometry(model, sol.k)
        w = deform_D(model, sol, check=False)
        wrev = w.reversed()
        data = ConformalCurveData(cg, wrev)
        for _ in range(10):
            zeta = make_admissible_variation(geom, rng=rng)
            HF = hessian_F_eval(geom, zeta, zeta)
            X = dD_differential(model, sol, zeta)
            Xr = FieldAlongCurve(host=wrev, values=X.reversed().values)
            HE = hessian_E_eval(data, Xr, Xr)
            scale = max(abs(HF), abs(HE), 1.0)
            rel = abs(HF + HE) / scale
            assert rel < 1e-5, name
            worst = max(worst, rel)
    print(f"\nACCEPTANCE 06 second variational principle: PASS (max defect {worst:.2e})")


def test_acceptance_07_morse_index_pair(acceptance_models, cylinder_fixtures):
    model, cg, fixtures = cylinder_fixtures
    results = {}
    for L, expected in ((4.5, 1), (7.0, 2)):
        sol, wrev, data = fixtures[L]
        focal = bfocal_points(model, sol)
        assert focal.geometric_index == expected, L
        for n_basis in (50, 100):
            hm = assemble_hessian(data, "full", n_basis)
            assert hm.n_negative == expected, (L, n_basis)
            assert hm.n_zero == 0
        results[L] = (focal.geometric_index, expected)
    # flat case: zero index both ways
    flat = acceptance_models["minkowski3"]
    k = np.sqrt(2.0)
    sol_flat = integrate_brachistochrone(flat, k, np.zeros(3), [1.0, 0.0, 0.0], 1.0)
    focal_flat = bfocal_points(flat, sol_flat)
    assert focal_flat.geometric_index == 0
    cgf = conformal_geometry(flat, k)
    wrevf = deform_D(flat, sol_flat).reversed()
    for n_basis in (50, 100):
        hm = assemble_hessian(ConformalCurveData(cgf, wrevf), "full", n_basis)
        assert hm.n_negative == 0 and hm.n_zero == 0
    print(f"\nACCEPTANCE 07 Morse index pair: PASS "
          f"(indices {results[4.5][0]} and {results[7.0][0]}, flat 0; "
          f"mesh-stable 50->100)")


def test_acceptance_08_restricted_indices(cylinder_fixtures):
    model, cg, fixtures = cylinder_fixtures
    for L, expected in ((4.5, 1), (7.0, 2)):
        _, wrev, data = fixtures[L]
        triple = restricted_index_report(data, 60)
        assert triple == (expected, expected, expected), L
    print("\nACCEPTANCE 08 restricted index equality: PASS "
          "(full = horizontal = perpendicular on both fixtures)")


def test_acceptance_09_jacobi_correspondence(acceptance_models):
    from scipy.interpolate import CubicSpline
    model = acceptance_models["einstein_cylinder"]
    k = np.sqrt(2.0)
    L = 4.5
    cfg = IntegratorConfig(grid_n=800)
    u = unit_horizontal(model, [np.pi / 2, 0.0, 0.0], [0.0, 1.0, 0.0])
    sol = integrate_brachistochrone(model, k, np.array([np.pi / 2, 0.0, 0.0]), u,
                                    L / np.sqrt(k * k - 1.0), cfg)
    s = 1e-5
    du = unit_horizontal(model, sol.sigma.points[0], [1.0, 0.0, 0.0])
    fams = fd_variation_family(model, sol, (du, 0.0), [s, -s], config=cfg)
    grid = sol.sigma.grid
    V = (fams[0].sigma.point_spline()(grid) - fams[1].sigma.point_spline()(grid)) / (2 * s)
    dV = (fams[0].sigma.velocity_spline()(grid)
          - fams[1].sigma.velocity_spline()(grid)) / (2 * s)
    jb = integrate_bjacobi(SolutionGeometry(model, sol), V[0], dV[0])
    fd_defect = np.max(np.abs(jb.field.values - V)) / max(1.0, np.max(np.abs(V)))
    assert fd_defect < 1e-3
    out = map_L(model, sol, 0.0, jb.field, C_zeta=jb.C_V)
    cg = conformal_geometry(model, k)
    data = ConformalCurveData(cg, out.host)
    nJ = data.covariant_nodes(out)
    d_nJ = CubicSpline(out.host.grid, nJ, axis=0)(out.host.grid, 1)
    worst = 0.0
    scale = np.max(np.abs(nJ)) + 1.0
    for i in range(5, out.host.grid.size - 5, 20):
        nnJ = d_nJ[i] + np.einsum("abc,b,c->a", data.gamma[i],
                                  out.host.velocities[i], nJ[i])
        worst = max(worst, np.max(np.abs(nnJ - data.Braw[i] @ out.values[i])))
    assert worst < 1e-3 * scale
    # focal parameters: direct linearized detection vs Riemannian scan.  bfocal_points
    # reports the pulled-back scan parameter itself, so the solution side is located
    # here on its own: scipy's bounded minimum of the endpoint map's smallest relative
    # singular value, within 0.02 of that parameter
    from scipy.optimize import minimize_scalar
    focal_b = bfocal_points(model, sol)
    wrev = deform_D(model, sol).reversed()
    focal_r = focal_points(ConformalCurveData(cg, wrev))
    assert len(focal_b.focal_list) == len(focal_r.focal_list) == 1
    geom = SolutionGeometry(model, sol)
    rows = _endpoint_rows(geom)
    tb = focal_b.focal_list[0][0]
    res = minimize_scalar(lambda t: _bfocal_singular_value(geom, t, rows),
                          bounds=(tb - 0.02, tb + 0.02), method="bounded")
    assert res.fun < 1e-4
    gap = abs((1.0 - res.x) - focal_r.focal_list[0][0])
    assert gap < 1e-4
    print(f"\nACCEPTANCE 09 Jacobi correspondence: PASS "
          f"(equation residual {worst / scale:.2e}, focal gap {gap:.2e})")


def test_acceptance_10_oracle_equivalence(acceptance_models):
    from brachkit.curves import Curve
    from scipy.interpolate import CubicSpline
    worst_T = worst_d = 0.0
    for name, p, anchor, k, guess in (
            ("minkowski3", [0.0, 0, 0], [1.0, 0, 0], np.sqrt(2.0), ([1.0, 0.1, 0], 0.8)),
            ("einstein_cylinder", [np.pi / 2, 0, 0], [np.pi / 2, np.pi / 2, 0],
             np.sqrt(2.0), ([0.0, 1.0, 0], 1.3))):
        model = acceptance_models[name]
        grid = np.linspace(0, 1, 201)
        chord = np.outer(1 - grid, p) + np.outer(grid, anchor)
        bend = 0.15 * np.sin(np.pi * grid)
        chord[:, 0] += bend
        init = Curve(grid=grid, points=chord,
                     velocities=CubicSpline(grid, chord, axis=0)(grid, 1))
        cand = discrete_minimize(model, p, anchor, k, 200, init=init)
        gamma = ObserverWorldline(np.asarray(anchor, float), model)
        prob = ShootingProblem(model, np.asarray(p, float), gamma, k)
        sol = shoot(prob, (np.asarray(guess[0], float), guess[1]))
        dT = abs(cand.T_estimate - sol.T)
        assert dT < 1e-3 * (1.0 + sol.T), name
        w = deform_D(model, sol)
        dist = 0.0
        for qa, qb in zip(cand.polyline.points, w.point_spline()(cand.polyline.grid)):
            d = model.wrap_difference(qb - qa)
            gr = riemannian_metric_matrix(model, qa)
            dist = max(dist, float(np.sqrt(max(d @ gr @ d, 0.0))))
        assert dist < 1e-3, name
        worst_T = max(worst_T, dT)
        worst_d = max(worst_d, dist)
    print(f"\nACCEPTANCE 10 oracle equivalence: PASS "
          f"(|dT| {worst_T:.2e}, sup distance {worst_d:.2e})")


def test_acceptance_11_parity(acceptance_models, caplog):
    model = acceptance_models["minkowski3"]
    gamma = ObserverWorldline(np.array([1.0, 0.0, 0.0]), model)
    prob = ShootingProblem(model, np.zeros(3), gamma, np.sqrt(2.0))
    res = multistart_survey(prob, 24, (0.2, 2.5), seed=7, n_basis=40)
    assert len(res.solutions) == 1
    assert res.parity == 1

    model = acceptance_models["einstein_cylinder"]
    k = np.sqrt(2.0)
    alpha = np.pi / 2
    gamma = ObserverWorldline(np.array([np.pi / 2, alpha, 0.0]), model)
    prob = ShootingProblem(model, np.array([np.pi / 2, 0.0, 0.0]), gamma, k)
    j_wraps = 1
    t_max = (2 * np.pi * j_wraps + alpha + 0.5) / np.sqrt(k * k - 1.0)
    with caplog.at_level(logging.INFO, logger="brachkit.bvp"):
        res = multistart_survey(prob, 48, (0.3, t_max), seed=11, n_basis=40)
    summary = [r.getMessage() for r in caplog.records if r.getMessage().startswith("survey:")]
    rounds = int(re.search(r"rounds=(\d+)", summary[-1]).group(1))
    assert rounds <= 18  # the longest chain of Newton yields of any start
    count = len(res.solutions)
    assert count in (2 * j_wraps + 1, 2 * j_wraps + 2)
    expected_T = sorted([alpha, 2 * np.pi - alpha, alpha + 2 * np.pi])
    found_T = sorted(rec["T"] for rec in res.solutions)
    for ft, et in zip(found_T, expected_T):
        assert abs(ft - et) < 1e-6
    for rec in res.solutions:
        if rec["n_zero"] == 0:
            assert rec["index_morse"] == rec["index_geometric"]
    print(f"\nACCEPTANCE 11 parity consistency: PASS "
          f"(flat count 1 odd; cylinder count {count}; note: {res.parity_note})")


def test_acceptance_12_determinism(tmp_path):
    from brachkit.cli import main
    cfg = {
        "model": {"name": "minkowski3"},
        "k": float(np.sqrt(2.0)),
        "p": [0.0, 0.0, 0.0],
        "gamma_anchor": [1.0, 0.0, 0.0],
        "survey": {"n_starts": 8, "T_bracket": [0.3, 2.0], "seed": 7, "n_basis": 40},
    }
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(cfg))
    for d in ("run_a", "run_b"):
        code = main(["survey", "--config", str(path), "--out-dir",
                     str(tmp_path / d), "--seed", "7"])
        assert code == 0
    a = (tmp_path / "run_a" / "survey.json").read_bytes()
    b = (tmp_path / "run_b" / "survey.json").read_bytes()
    assert a == b
    a_csv = (tmp_path / "run_a" / "survey_sol_000.csv").read_bytes()
    b_csv = (tmp_path / "run_b" / "survey_sol_000.csv").read_bytes()
    assert a_csv == b_csv
    print("\nACCEPTANCE 12 determinism: PASS (survey outputs byte-identical)")
