"""The benchmark's workloads: scenario generation from a seed, and output checks.

Each workload is a list of cases; a case is one generated scenario file and the
CLI commands run on it, in order, into one output directory.  The committed
templates live in ``scenarios/``.  The seed never reaches the program: it only
changes the generated scenario files.

* ``survey_cylinder`` and ``focal_cylinder``: the seed picks a rigid motion of
  the cylinder problem (a rotation in phi and a translation in t, both
  isometries), so the expected answers are known for every seed.  The
  survey's own start seed stays 11, as in acceptance 11: a different start set
  changes the work of a pass by up to 60 % (43 s to 70 s for start seeds 11, 1
  and 2 on a 2-core x86_64 machine), which would hide any regression inside
  seed noise.
* ``crosscheck_models``: the seed perturbs the shoot guess around the launch
  that produced the observer anchor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SCENARIOS = Path(__file__).resolve().parent / "scenarios"

T_TOL = 1e-6          # travel times against their known values
ORACLE_DIST_TOL = 1e-3


@dataclass
class Case:
    name: str
    scenario: Path
    commands: tuple
    expect: dict = field(default_factory=dict)


def _template(name: str) -> dict:
    return json.loads((SCENARIOS / f"{name}.json").read_text())


def _write_scenario(cfg: dict, gen_dir: Path, name: str) -> Path:
    path = gen_dir / f"{name}.json"
    path.write_text(json.dumps(cfg, indent=1))
    return path


def _rigid_motion(cfg: dict, rng) -> dict:
    """Rotate the cylinder chart in phi and translate it in t (both isometries)."""
    dphi, dt = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-5.0, 5.0)
    for key in ("p", "gamma_anchor"):
        if key in cfg:
            q = list(cfg[key])
            q[1] += dphi
            q[2] += dt
            cfg[key] = q
    return cfg


def survey_cylinder(seed: int, gen_dir: Path) -> list:
    import numpy as np
    cfg = _rigid_motion(_template("survey_cylinder"), np.random.default_rng(seed))
    alpha = cfg["gamma_anchor"][1] - cfg["p"][1]
    expect = {"T": sorted([alpha, 2.0 * math.pi - alpha, alpha + 2.0 * math.pi]),
              "count": (3, 4)}
    return [Case("survey", _write_scenario(cfg, gen_dir, "survey_cylinder"),
                 ("survey",), expect)]


def focal_cylinder(seed: int, gen_dir: Path) -> list:
    import numpy as np
    rng = np.random.default_rng(seed)
    cases = []
    for arc, index in (("4.5", 1), ("7.0", 2)):
        cfg = _rigid_motion(_template(f"focal_cylinder_{arc}"), rng)
        cases.append(Case(f"arc_{arc}", _write_scenario(cfg, gen_dir, f"focal_cylinder_{arc}"),
                          ("solve", "verify", "jacobi", "index"), {"index": index}))
    return cases


def _unit_horizontal(model, q, seed):
    """Project a chart vector to the horizontal space and g_R-normalize it."""
    import numpy as np
    from brachkit.geometry import riemannian_metric_matrix
    g, y = model.g(q), model.y(q)
    u = np.asarray(seed, dtype=float)
    u = u - (float(u @ g @ y) / float(y @ g @ y)) * y
    return u / np.sqrt(float(u @ riemannian_metric_matrix(model, q) @ u))


def crosscheck_models(seed: int, gen_dir: Path) -> list:
    """The observer worldline runs through the endpoint of the committed launch.

    Its anchor is the point where the launch's horizontal deformation D meets
    the worldline, because the oracle pins its polyline there and compares the
    polyline with D of the shot solution node by node.  The seed perturbs the
    shoot guess.
    """
    import numpy as np
    from brachkit.dynamics import integrate_brachistochrone
    from brachkit.models import ModelSpec, make_model
    from brachkit.transform import deform_D
    rng = np.random.default_rng(seed)
    cases = []
    for name in ("minkowski4", "static_well", "rotating_frame"):
        cfg = _template(f"crosscheck_{name}")
        model = make_model(ModelSpec(name, cfg["model"].get("params", {})))
        p = np.asarray(cfg["p"], dtype=float)
        u, T = _unit_horizontal(model, p, cfg["solve"]["u"]), float(cfg["solve"]["T"])
        launch = integrate_brachistochrone(model, float(cfg["k"]), p, u, T)
        cfg["gamma_anchor"] = deform_D(model, launch).points[-1].tolist()
        cfg["shoot"] = {
            "guess_u": (u + 0.05 * rng.standard_normal(u.size)).tolist(),
            "guess_T": T * (1.0 + 0.05 * rng.uniform(-1.0, 1.0)),
        }
        cases.append(Case(name, _write_scenario(cfg, gen_dir, f"crosscheck_{name}"),
                          ("shoot", "verify", "oracle"), {"T": T}))
    return cases


# ---------------------------------------------------------------------------
# Output checks: each returns [(command, message)] for every check that fails


def _load(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def check_survey(case: Case, out: Path) -> list:
    doc = _load(out, "survey.json")
    sols = doc.get("solutions", [])
    bad = []
    if doc.get("count") != len(sols) or len(sols) not in case.expect["count"]:
        bad.append(f"count {doc.get('count')} with {len(sols)} solutions, "
                   f"expected one of {case.expect['count']}")
    found = sorted(s.get("T", math.nan) for s in sols)
    for want, got in zip(case.expect["T"], found):
        if not abs(got - want) < T_TOL:
            bad.append(f"T {got!r} differs from {want!r}")
    if len(found) < len(case.expect["T"]):
        bad.append(f"found {len(found)} travel times, expected at least {len(case.expect['T'])}")
    for i, s in enumerate(sols):
        if any(key not in s for key in ("index_morse", "index_geometric", "n_zero")):
            bad.append(f"solution {i} lacks its indices")
        elif s["n_zero"] == 0 and s["index_morse"] != s["index_geometric"]:
            bad.append(f"solution {i}: morse index {s['index_morse']} != "
                       f"geometric index {s['index_geometric']}")
    return [("survey", msg) for msg in bad]


def check_focal(case: Case, out: Path) -> list:
    want = case.expect["index"]
    bad = []
    if _load(out, "verify.json").get("passed") is not True:
        bad.append(("verify", "verify did not pass"))
    geo = _load(out, "focal.json").get("geometric_index")
    if geo != want:
        bad.append(("jacobi", f"geometric index {geo}, expected {want}"))
    idx = _load(out, "index.json").get("indices", {})
    triple = tuple(idx.get(k) for k in ("full", "horizontal", "perpendicular"))
    if triple != (want, want, want):
        bad.append(("index", f"index triple {triple}, expected {(want,) * 3}"))
    return bad


def check_crosscheck(case: Case, out: Path) -> list:
    bad = []
    T = _load(out, "solution.json").get("T", math.nan)
    if not abs(T - case.expect["T"]) < T_TOL:
        bad.append(("shoot", f"shoot T {T!r}, launch T {case.expect['T']!r}"))
    if _load(out, "verify.json").get("passed") is not True:
        bad.append(("verify", "verify did not pass"))
    orc = _load(out, "oracle.json")
    dT, dist = orc.get("T_difference", math.nan), orc.get("curve_distance", math.nan)
    if not dT < 1e-3 * (1.0 + orc.get("shoot_T", math.nan)):
        bad.append(("oracle", f"oracle |dT| {dT!r} over 1e-3 (1 + T)"))
    if not dist < ORACLE_DIST_TOL:
        bad.append(("oracle", f"oracle curve distance {dist!r} over {ORACLE_DIST_TOL}"))
    return bad


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable  # (seed, directory for generated files) -> [Case]
    check: Callable     # (Case, output directory) -> [(command, message)]


WORKLOADS = {w.name: w for w in (
    Workload("survey_cylinder",
             "48-start cylinder survey with indices: bvp Newton shots, brachistochrone RHS, "
             "Killing-flow orbit matches, and a third index attachment",
             survey_cylinder, check_survey),
    Workload("focal_cylinder",
             "solve/verify/jacobi/index on cylinder arcs 4.5 and 7.0: conformal curvature, "
             "focal scans and Hessian eigensolves, no shooting",
             focal_cylinder, check_focal),
    Workload("crosscheck_models",
             "shoot/verify/oracle on minkowski4, static_well and rotating_frame: short shots, "
             "400-node D/G maps, the oracle, m=4 and a non-static Killing field",
             crosscheck_models, check_crosscheck),
)}
