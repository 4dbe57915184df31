"""Scenario-driven command line front end.

One JSON scenario file describes the model, the endpoints, and per-command
blocks; results land in machine-readable files under the output directory.
Logs go to standard error; standard output carries a one-line summary only.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .bvp import ObserverWorldline, ShootConfig, ShootingProblem, multistart_survey, shoot
from .curves import (csv_rows, curve_from_csv, curve_from_json_dict, curve_to_csv,
                     curve_to_json_dict)
from .dynamics import (BrachistochroneSolution, IntegratorConfig, conservation_failures,
                       conservation_report, integrate_brachistochrone)
from .errors import (BrachkitError, ConfigError, GridMismatch, InvalidParams, UnknownModel,
                     ZeroSeed)
from .geometry import curve_distance, horizontal_unit
from .models import MODEL_NAMES, ModelSpec, make_model
from .oracle import PenaltyConfig, discrete_minimize
from .transform import correspondence_report, deform_D

log = logging.getLogger("brachkit.cli")

COMMANDS = ("solve", "shoot", "survey", "jacobi", "index", "verify", "oracle")

_TOL_KEYS = {"rtol", "atol", "grid_n", "tol_cons", "tol_bvp"}
# command -> (required top-level keys, required keys of the command's block)
_REQUIRED = {
    "solve": ({"k", "p"}, {"u", "T"}),
    "shoot": ({"k", "p", "gamma_anchor"}, {"guess_u", "guess_T"}),
    "survey": ({"k", "p", "gamma_anchor"}, {"n_starts", "T_bracket"}),
    "jacobi": (set(), {"solution"}),
    "index": (set(), {"solution"}),
    "verify": (set(), {"solution"}),
    "oracle": ({"k", "p", "gamma_anchor"}, set()),
}
# shape each numeric key must parse to; None means one entry per chart coordinate
_SHAPES = {"k": (), "T": (), "guess_T": (), "n_starts": (), "seed": (), "n_basis": (),
           "n_segments": (), "epsilon": (), "gtol": (), "max_iters": (), "T_bracket": (2,),
           "p": None, "gamma_anchor": None, "u": None, "guess_u": None,
           **{key: () for key in _TOL_KEYS}}
# range each parsed number must lie in: key -> (test, wording)
_RANGES = {
    **{key: (lambda x: x > 0.0, "positive")
       for key in ("k", "T", "guess_T", "epsilon", "gtol", *_TOL_KEYS)},
    **{key: (lambda x: x >= 1, "at least 1") for key in ("n_starts", "max_iters")},
    **{key: (lambda x: x >= 2, "at least 2") for key in ("n_basis", "n_segments", "grid_n")},
    "T_bracket": (lambda x: 0.0 < x[0] < x[1], "two increasing positive times"),
}
# counts that must be JSON integers, and flags that must be JSON booleans
_INTEGERS = {"n_starts", "seed", "n_basis", "n_segments", "max_iters", "grid_n"}
_FLAGS = {"attach_indices", "shoot_check"}
# keys that name chart points rather than tangent vectors
_POINTS = {"p", "gamma_anchor"}
_TOP_KEYS = {"model", "k", "p", "gamma_anchor", "tolerances", "out"} | set(COMMANDS)
# the result files whose names the ``out`` block may set
_OUT_KEYS = {"solution", "survey", "focal", "hessian", "report", "oracle"}
_BLOCK_KEYS = {
    "solve": {"u", "T"},
    "shoot": {"guess_u", "guess_T"},
    "survey": {"n_starts", "T_bracket", "seed", "n_basis", "attach_indices"},
    "jacobi": {"solution"},
    "index": {"solution", "n_basis"},
    "verify": {"solution"},
    "oracle": {"n_segments", "epsilon", "gtol", "max_iters", "init", "shoot_check",
               "guess_T"},
}


# ---------------------------------------------------------------------------
# Deterministic JSON with round-trip exact floats

def _canon(obj):
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(json.dumps(k) + ":" + _canon(v) for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.ndim in (1, 2):
            # "%.17g" writes the text of format(x, ".17g"), nan, inf and -0 included
            rows = obj if obj.ndim == 2 else obj[None]
            fmt = "[" + ",".join(["%.17g"] * rows.shape[1]) + "]"
            text = ",".join([fmt % tuple(row.tolist()) for row in rows])
            return text if obj.ndim == 1 else "[" + text + "]"
        return _canon(obj.tolist())
    return json.dumps(obj)


def dumps_canonical(obj) -> str:
    return _canon(obj) + "\n"


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Config handling

def _require_keys(block: dict, allowed: set, where: str):
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object, got {block!r}")
    extra = set(block) - allowed
    if extra:
        raise ConfigError(f"unknown keys {sorted(extra)} in {where}")


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("scenario file must hold a JSON object")
    _require_keys(cfg, _TOP_KEYS, "the scenario")
    if "model" not in cfg:
        raise ConfigError("scenario lacks a 'model' block")
    _require_keys(cfg["model"], {"name", "params"}, "'model'")
    if cfg["model"].get("name") not in MODEL_NAMES:
        raise ConfigError(f"model name must be one of {MODEL_NAMES}")
    for cmd, keys in _BLOCK_KEYS.items():
        if cmd in cfg:
            _require_keys(cfg[cmd], keys, f"'{cmd}'")
    if "tolerances" in cfg:
        _require_keys(cfg["tolerances"], _TOL_KEYS, "'tolerances'")
    if "out" in cfg:
        _require_keys(cfg["out"], _OUT_KEYS, "'out'")
        for key, name in cfg["out"].items():
            # .json: the CSV that some commands write next to it is named after it
            if not isinstance(name, str) or not name.endswith(".json") or name == ".json":
                raise ConfigError(f"'out.{key}' must be a file name ending in .json, "
                                  f"got {name!r}")
    return cfg


def _with_tolerances(default, cfg):
    """``default`` with each field the scenario's ``tolerances`` block names, as its type.

    The values were checked by ``_check_command``.
    """
    tol = cfg.get("tolerances", {})
    return dataclasses.replace(default, **{f.name: type(getattr(default, f.name))(tol[f.name])
                                           for f in dataclasses.fields(default) if f.name in tol})


def _integrator_config(cfg) -> IntegratorConfig:
    return _with_tolerances(IntegratorConfig(), cfg)


def _shooting_problem(cfg, model) -> ShootingProblem:
    """Shooting from ``p`` at energy ``k`` to the observer through ``gamma_anchor``."""
    gamma = ObserverWorldline(np.asarray(cfg["gamma_anchor"], dtype=float), model)
    return ShootingProblem(model, np.asarray(cfg["p"], dtype=float), gamma, float(cfg["k"]),
                           _with_tolerances(ShootConfig(integrator=_integrator_config(cfg)), cfg))


def _model_of(cfg):
    block = cfg["model"]
    try:
        return make_model(ModelSpec(block["name"], block.get("params", {})))
    except (InvalidParams, UnknownModel) as exc:
        raise ConfigError(str(exc))


def _solution_dict(model_block, sol: BrachistochroneSolution) -> dict:
    return {
        "model": model_block,
        "k": sol.k,
        "T": sol.T,
        "residuals": {
            "conservation_Y": sol.residual_conservation_Y,
            "conservation_speed": sol.residual_conservation_speed,
            "equation": sol.residual_ode,
        },
        "curve": curve_to_json_dict(sol.sigma),
    }


def _load_solution(path: Path):
    try:
        with open(path) as fh:
            d = json.load(fh)
        model = _model_of(d)
        sol = BrachistochroneSolution(
            sigma=curve_from_json_dict(d["curve"]), T=float(d["T"]), k=float(d["k"]),
            residual_conservation_Y=float(d["residuals"]["conservation_Y"]),
            residual_conservation_speed=float(d["residuals"]["conservation_speed"]),
            residual_ode=float(d["residuals"]["equation"]),
        )
    except (OSError, KeyError, TypeError, ValueError, GridMismatch) as exc:
        raise ConfigError(f"cannot read solution file {path.name}: {exc!r}")
    if sol.sigma.points.ndim != 2 or sol.sigma.m != model.m:
        raise ConfigError(f"solution file {path.name} must hold {model.m}-dimensional points")
    return model, d["model"], sol


def _load_init_curve(path: Path, model):
    try:
        with open(path) as fh:
            curve = curve_from_csv(fh.read())
    except (OSError, IndexError, ValueError, GridMismatch) as exc:
        raise ConfigError(f"cannot read initial curve {path.name}: {exc!r}")
    if curve.points.ndim != 2 or curve.points.shape[1] != model.m:
        raise ConfigError(f"initial curve {path.name} must hold {model.m}-dimensional points")
    return curve


def _is_numbers(value) -> bool:
    """True for a JSON number or a (nested) list of them; strings and booleans are not numbers."""
    if isinstance(value, list):
        return all(_is_numbers(v) for v in value)
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def _check_command(cfg: dict, command: str):
    """Required keys, parseable numbers, vector lengths and ranges for one command."""
    top, block_keys = _REQUIRED[command]
    block = cfg.get(command, {})
    missing = sorted(top - set(cfg)) + [f"{command}.{key}" for key in sorted(block_keys - set(block))]
    if missing:
        raise ConfigError(f"scenario lacks {missing}")
    model = _model_of(cfg) if top else None
    fields = [(key, cfg[key]) for key in sorted(top)]
    fields += [(f"{command}.{key}", value) for key, value in block.items()]
    fields += [(f"tolerances.{key}", value) for key, value in cfg.get("tolerances", {}).items()]
    for where, value in fields:
        key = where.rsplit(".", 1)[-1]
        if key in _FLAGS and not isinstance(value, (bool, np.bool_)):
            raise ConfigError(f"'{where}' must be true or false, got {value!r}")
        if key in _INTEGERS and (isinstance(value, bool)
                                 or not isinstance(value, (int, np.integer))):
            raise ConfigError(f"'{where}' must be an integer, got {value!r}")
        if key not in _SHAPES:
            continue
        shape = (model.m,) if _SHAPES[key] is None else _SHAPES[key]
        try:
            parsed = np.asarray(value, dtype=float) if _is_numbers(value) else None
        except OverflowError:  # an integer beyond the float range
            parsed = None
        if parsed is None or parsed.shape != shape or not np.isfinite(parsed).all():
            want = f"a list of {shape[0]} finite numbers" if shape else "a finite number"
            raise ConfigError(f"'{where}' must be {want}, got {value!r}")
        if key in _RANGES and not _RANGES[key][0](parsed):
            raise ConfigError(f"'{where}' must be {_RANGES[key][1]}, got {value!r}")
        if key in _POINTS and not model.in_chart(parsed):
            raise ConfigError(f"'{where}' = {value!r} lies outside the chart of '{model.name}'")


def _unit_horizontal(model, q, seed):
    try:
        return horizontal_unit(model, q, seed)
    except ZeroSeed:
        raise ConfigError("direction seed is parallel to the observer field")


# ---------------------------------------------------------------------------
# Commands

def _cmd_solve(cfg, out_dir: Path, seed) -> str:
    model = _model_of(cfg)
    icfg = _integrator_config(cfg)
    block = cfg["solve"]
    p = np.asarray(cfg["p"], dtype=float)
    u = _unit_horizontal(model, p, block["u"])
    sol = integrate_brachistochrone(model, float(cfg["k"]), p, u, float(block["T"]), icfg)
    report = conservation_report(model, sol)
    doc = _solution_dict(cfg["model"], sol)
    doc["conservation_report"] = report
    name = cfg.get("out", {}).get("solution", "solution.json")
    _write(out_dir / name, dumps_canonical(doc))
    return f"solve: T={sol.T:.17g} residuals Y={sol.residual_conservation_Y:.3e}"


def _cmd_shoot(cfg, out_dir: Path, seed) -> str:
    model = _model_of(cfg)
    block = cfg["shoot"]
    prob = _shooting_problem(cfg, model)
    sol = shoot(prob, (np.asarray(block["guess_u"], dtype=float), float(block["guess_T"])))
    rep = correspondence_report(model, sol)
    doc = _solution_dict(cfg["model"], sol)
    doc["correspondence"] = rep.as_dict()
    name = cfg.get("out", {}).get("solution", "solution.json")
    _write(out_dir / name, dumps_canonical(doc))
    return f"shoot: T={sol.T:.17g} roundtrip={rep.roundtrip_error:.3e}"


def _cmd_survey(cfg, out_dir: Path, seed) -> str:
    prob = _shooting_problem(cfg, _model_of(cfg))
    block = cfg["survey"]
    if seed is None and "seed" not in block:
        raise ConfigError("survey needs a seed, in its block or from --seed")
    use_seed = int(block["seed"]) if seed is None else int(seed)
    res = multistart_survey(
        prob, int(block["n_starts"]), tuple(block["T_bracket"]), use_seed,
        attach_indices=block.get("attach_indices", True),
        n_basis=int(block.get("n_basis", 50)))
    sol_docs = []
    for i, rec in enumerate(res.solutions):
        ref = f"survey_sol_{i:03d}.csv"
        _write(out_dir / ref, curve_to_csv(rec["solution"].sigma))
        entry = {
            "T": rec["T"],
            "residuals": {
                "conservation_Y": rec["residual_conservation_Y"],
                "conservation_speed": rec["residual_conservation_speed"],
            },
            "curve_ref": ref,
        }
        for key in ("index_morse", "index_geometric", "n_zero", "index_error"):
            if key in rec:
                entry[key] = rec[key]
        sol_docs.append(entry)
    doc = {
        "seed": use_seed,
        "n_starts": int(block["n_starts"]),
        "T_bracket": [float(x) for x in block["T_bracket"]],
        "count": len(sol_docs),
        "parity": res.parity,
        "parity_note": res.parity_note,
        "n_failures": res.n_failures,
        "solutions": sol_docs,
    }
    name = cfg.get("out", {}).get("survey", "survey.json")
    _write(out_dir / name, dumps_canonical(doc))
    return f"survey: {len(sol_docs)} solutions, parity {res.parity}"


def _cmd_jacobi(cfg, out_dir: Path, seed) -> str:
    from .jacobi import bfocal_points
    block = cfg["jacobi"]
    model, _, sol = _load_solution(out_dir / block["solution"])
    rep = bfocal_points(model, sol)
    doc = rep.as_dict()
    name = cfg.get("out", {}).get("focal", "focal.json")
    _write(out_dir / name, dumps_canonical(doc))
    ts, dets = rep.determinant_trace
    lines = ["t,det"] + csv_rows(np.column_stack([ts, dets]))
    _write(out_dir / name.replace(".json", "_trace.csv"), "\n".join(lines) + "\n")
    return f"jacobi: geometric index {rep.geometric_index}"


def _cmd_index(cfg, out_dir: Path, seed) -> str:
    from .variation import _restricted_hessians, index_data
    block = cfg["index"]
    model, _, sol = _load_solution(out_dir / block["solution"])
    n_basis = int(block.get("n_basis", 80))
    hms = _restricted_hessians(index_data(model, sol), n_basis)
    triple = tuple(h.n_negative for h in hms)
    hm = hms[0]
    doc = {
        "n_basis": n_basis,
        "indices": {"full": triple[0], "horizontal": triple[1],
                    "perpendicular": triple[2]},
        "eps_eig": hm.eps_eig,
        "n_zero": hm.n_zero,
        "basis": hm.basis,
    }
    name = cfg.get("out", {}).get("hessian", "index.json")
    _write(out_dir / name, dumps_canonical(doc))
    rows = csv_rows(hm.entries)
    _write(out_dir / name.replace(".json", "_matrix.csv"), "\n".join(rows) + "\n")
    return f"index: full={triple[0]} horizontal={triple[1]} perpendicular={triple[2]}"


def _cmd_verify(cfg, out_dir: Path, seed) -> str:
    block = cfg["verify"]
    model, _, sol = _load_solution(out_dir / block["solution"])
    tol_cons = _integrator_config(cfg).tol_cons
    rep = conservation_report(model, sol)
    failures = conservation_failures(rep["residual_Y_max"], rep["residual_speed_max"],
                                     sol.k, sol.T, tol_cons)
    corr = None
    if not failures:
        corr = correspondence_report(model, sol)
        if corr.geodesic_residual > 1e-5 * (1.0 + sol.T ** 2):
            failures.append("geodesic_residual")
        if corr.energy_vs_halfT2 > 1e-7 * (1.0 + sol.T ** 2):
            failures.append("energy_identity")
        if corr.roundtrip_error > 1e-6:
            failures.append("roundtrip")
    doc = {
        "conservation": rep,
        "correspondence": corr.as_dict() if corr else None,
        "failures": failures,
        "passed": not failures,
    }
    name = cfg.get("out", {}).get("report", "verify.json")
    _write(out_dir / name, dumps_canonical(doc))
    if failures:
        raise BrachkitError(f"verification failed: {', '.join(failures)}")
    return "verify: all invariants hold"


def _cmd_oracle(cfg, out_dir: Path, seed) -> str:
    model = _model_of(cfg)
    block = cfg.get("oracle", {})
    p = np.asarray(cfg["p"], dtype=float)
    anchor = np.asarray(cfg["gamma_anchor"], dtype=float)
    pc = PenaltyConfig(epsilon=float(block.get("epsilon", 0.5)))
    init = _load_init_curve(out_dir / block["init"], model) if "init" in block else None
    cand = discrete_minimize(model, p, anchor, float(cfg["k"]),
                             int(block.get("n_segments", 200)), init=init, pc=pc,
                             gtol=float(block.get("gtol", 1e-7)),
                             max_iters=int(block.get("max_iters", 20000)))
    doc = {"T_estimate": cand.T_estimate, "constraint_penalty": cand.constraint_penalty}
    if block.get("shoot_check", True):
        guess_dir = cand.polyline.velocities[0]
        prob = _shooting_problem(cfg, model)
        sol = shoot(prob, (guess_dir, float(block.get("guess_T", cand.T_estimate))))
        w = deform_D(model, sol)
        doc["shoot_T"] = sol.T
        doc["T_difference"] = abs(sol.T - cand.T_estimate)
        doc["curve_distance"] = curve_distance(model, cand.polyline.points,
                                               w.point_spline()(cand.polyline.grid))
    name = cfg.get("out", {}).get("oracle", "oracle.json")
    _write(out_dir / name, dumps_canonical(doc))
    _write(out_dir / name.replace(".json", "_polyline.csv"), curve_to_csv(cand.polyline))
    return f"oracle: T={cand.T_estimate:.17g}"


_HANDLERS = {
    "solve": _cmd_solve,
    "shoot": _cmd_shoot,
    "survey": _cmd_survey,
    "jacobi": _cmd_jacobi,
    "index": _cmd_index,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


def run_scenario(config: dict, command: str, out_dir, seed=None, threads: int = 1) -> str:
    """Run one command of a scenario; ``threads`` is kept for callers and must be 1."""
    if threads != 1:
        raise ConfigError(f"threads must be 1 (all starts are shot in lockstep), got {threads!r}")
    if command not in _HANDLERS:
        raise ConfigError(f"unknown command '{command}'")
    if command not in config and command not in ("oracle",):
        raise ConfigError(f"scenario lacks a '{command}' block")
    _check_command(config, command)
    return _HANDLERS[command](config, Path(out_dir), seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="brachkit",
        description="Travel-time extremal curves in stationary spacetimes")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="scenario JSON file")
    parser.add_argument("--out-dir", default=".", help="directory for result files")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed (survey)")
    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(name)s: %(message)s")
    try:
        cfg = load_config(args.config)
        summary = run_scenario(cfg, args.command, args.out_dir, seed=args.seed)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return 2
    except (BrachkitError, ValueError, np.linalg.LinAlgError) as exc:
        log.error("numerical failure: %s", exc)
        try:
            _write(Path(args.out_dir) / "error.json",
                   dumps_canonical({"error": type(exc).__name__, "message": str(exc)}))
        except OSError:
            pass
        return 3
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
