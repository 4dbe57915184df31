"""brachkit benchmark: latency of the command-line front end, and a traced per-layer run.

    python3 bench/run.py --workload survey_cylinder --seed 3 --seconds 10 --trace 0
    python3 bench/run.py --workload all      # every workload, then one summary table

Run it from the root of a source tree: brachkit is imported from ``src/``.
One process, one thread (``threads=1``), a closed loop: each CLI command starts
when the previous one has returned, so two cores are enough.  A pass runs every
command of the workload once through ``brachkit.cli.run_scenario``; passes
repeat while the ``--seconds`` window is open (at least one pass).  Every
output is checked (``workloads.py``); a command that raises or whose output
check fails counts as a failed operation.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes one untraced
pass, then traced passes with spans around brachkit's public functions
(``spans.py``), checks that both produce byte-identical files, and prints the
per-layer metrics.  The last line of standard output is one JSON object;
the lines above it are the human report.  Work files go to ``bench/_work/``.
"""

import os

# BLAS pinned to one thread for this process and the set-up probes it starts:
# on a 2-core x86_64 machine `index` took 6.0 s unpinned and 4.2-4.8 s pinned.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
SETUP_PROBES = 3
ODE_MODULES = ("dynamics", "transform", "bvp", "jacobi")


# ---------------------------------------------------------------------------
# Statistics


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def summarize(values) -> dict:
    """Median, and the highest listed percentile with at least ten samples beyond it."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "p": None, "p_value": None}
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            out["p"], out["p_value"] = p, percentile(values, p)
            break
    return out


# ---------------------------------------------------------------------------
# One pass


def _digest(out: Path, names) -> str:
    h = hashlib.sha256()
    for name in sorted(names):
        h.update(name.encode() + b"\0" + (out / name).read_bytes())
    return h.hexdigest()


def run_pass(wl, cases, configs, pass_dir: Path, rec=None) -> dict:
    """Run every command of every case once; time commands and check outputs.

    With a recorder, brachkit is instrumented for the pass and each command
    is a ``cli.<command>`` span.
    """
    from brachkit.cli import run_scenario
    span = rec.span if rec else (lambda name: contextlib.nullcontext())
    timings, failures, digests = [], {}, {}
    with spans.instrument(rec) if rec else contextlib.nullcontext(), span("pass"):
        for case in cases:
            out = pass_dir / case.name
            out.mkdir(parents=True, exist_ok=True)
            for command in case.commands:
                before = set(os.listdir(out))
                t0 = time.perf_counter()
                try:
                    with span(f"cli.{command}"):
                        run_scenario(configs[case.name], command, out, threads=1)
                except Exception as exc:  # a failed operation is counted, not fatal
                    failures[(case.name, command)] = f"{type(exc).__name__}: {exc}"
                    traceback.print_exc(file=sys.stderr)
                timings.append((command, time.perf_counter() - t0))
                digests[(case.name, command)] = _digest(out, set(os.listdir(out)) - before)
            try:
                bad = wl.check(case, out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                bad = [(command, f"outputs unreadable: {type(exc).__name__}: {exc}")
                       for command in case.commands]
            for command, msg in bad:
                failures.setdefault((case.name, command), msg)
    return {"pass_s": sum(d for _, d in timings), "timings": timings,
            "failures": failures, "digests": digests, "dir": pass_dir, "rec": rec}


def compare_outputs(reference: dict, other: dict, what: str):
    """Count a command of ``other`` as failed when its files differ from ``reference``."""
    for key, digest in other["digests"].items():
        if reference["digests"].get(key) != digest:
            other["failures"].setdefault(key, f"outputs differ from {what}")


def measure(wl, cases, configs, work: Path, seconds: float, traced: bool = False) -> list:
    """Passes until the window closes, at least one; outputs must match pass 0."""
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        pass_dir = work / f"pass-{len(passes)}{'-traced' if traced else ''}"
        result = run_pass(wl, cases, configs, pass_dir, spans.Recorder() if traced else None)
        if passes:
            compare_outputs(passes[0], result, "pass 0")
        passes.append(result)
    return passes


# ---------------------------------------------------------------------------
# Metrics


def setup_times(scenarios) -> list:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)] + [str(s) for s in scenarios],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def command_samples(passes) -> dict:
    samples = {}
    for p in passes:
        for command, dur in p["timings"]:
            samples.setdefault(f"{command}_s", []).append(dur)
    return samples


def bytes_written(pass_dir: Path) -> int:
    return sum(f.stat().st_size for f in pass_dir.rglob("*") if f.is_file())


def layer_metrics(rec, pass_dir: Path) -> dict:
    """Per-layer counts and self times of one traced pass (None where undefined)."""
    m = {}
    for key in ("g", "y", "dy", "christoffel"):
        m[f"models.{key}_calls"] = rec.calls(f"models.{key}")
    m["models.callback_s"] = sum(rec.self_s(f"models.{k}") for k in ("g", "y", "dy", "christoffel"))
    for span in ("geometry.connection_coeffs", "geometry.conformal_curvature",
                 "variation.conformal_curve_data", "variation.assemble_hessian",
                 "variation.restricted_index", "jacobi.focal_points", "jacobi.bfocal_points",
                 "jacobi.integrate_bjacobi", "dynamics.integrate", "dynamics.conservation_report",
                 "dynamics.geodesic_residual", "transform.flow_points", "transform.deform_D",
                 "transform.lift_G", "transform.correspondence", "bvp.shoot",
                 "oracle.discrete_minimize", "cli.dumps_canonical"):
        m[f"{span}_calls"] = rec.calls(span)
        m[f"{span}_s"] = rec.self_s(span)
    m["geometry.riemannian_metric_matrix_calls"] = rec.counters.get(
        "geometry.riemannian_metric_matrix", 0)
    m["transform.flow_points_points"] = rec.counters.get("transform.flow_points_points", 0)
    for mod in ODE_MODULES:
        m[f"ode.solves.{mod}"] = rec.calls(f"ode.{mod}")
        m[f"ode.nfev.{mod}"] = rec.counters.get(f"ode.nfev.{mod}", 0)
        m[f"ode.failed.{mod}"] = rec.failed(f"ode.{mod}")
        m[f"ode.s.{mod}"] = rec.self_s(f"ode.{mod}")
    shots, shot_failed = rec.calls("bvp.shoot"), rec.failed("bvp.shoot")
    converged = shots - shot_failed
    m["bvp.shoot_failed"] = shot_failed
    m["bvp.worldline_point_calls"] = rec.counters.get("bvp.worldline_point", 0)
    m["bvp.converged_ratio"] = converged / shots if shots else None
    surveys = [json.loads(f.read_text()) for f in pass_dir.rglob("survey.json")]
    unique = sum(doc["count"] for doc in surveys)
    m["bvp.unique_ratio"] = unique / converged if surveys and converged else None
    m["cli.bytes_written"] = bytes_written(pass_dir)
    return m


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.startswith("ode.s."):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


# ---------------------------------------------------------------------------
# Provenance and report


def provenance() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    src = hashlib.sha256()
    for f in sorted((SRC / "brachkit").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
    }


def _fmt(x) -> str:
    if x is None:
        return "n/a"
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def print_table(rows):
    """rows: (name, unit, median, percentile label, percentile value, n)."""
    print(f"  {'metric':<44} {'unit':<6} {'median':>12} {'p_hi':>16} {'n':>5}")
    for name, unit, med, p, pv, n in rows:
        hi = "-" if p is None else f"p{p:g}={_fmt(pv)}"
        print(f"  {name:<44} {unit:<6} {_fmt(med):>12} {hi:>16} {_fmt(n):>5}")


# ---------------------------------------------------------------------------
# Entry points


def run_workload(args) -> int:
    from brachkit.cli import load_config

    wl = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "gen").mkdir(parents=True)
    cases = wl.generate(args.seed, work / "gen")
    configs = {case.name: load_config(case.scenario) for case in cases}

    print(f"brachkit benchmark: workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"provenance: {json.dumps(provenance(), sort_keys=True)}")

    if args.trace:
        reference = run_pass(wl, cases, configs, work / "pass-untraced")
        passes = measure(wl, cases, configs, work, args.seconds, traced=True)
        for p in passes:
            compare_outputs(reference, p, "the untraced pass")
        per_pass = [layer_metrics(p["rec"], p["dir"]) for p in passes]
        values = {}
        for name in per_pass[0]:
            vals = [m[name] for m in per_pass if m[name] is not None]
            values[name] = statistics.median(vals) if vals else None
        values["trace.overhead_ratio"] = (statistics.median(p["pass_s"] for p in passes)
                                          / reference["pass_s"])
        trace_file = work / "trace.json"
        trace_file.write_text(json.dumps({"metrics": values, "pass_s": passes[0]["pass_s"],
                                          **passes[0]["rec"].as_dict()}))
        print(f"per-layer metrics, median over {len(passes)} traced pass(es); "
              f"untraced pass {reference['pass_s']:.4g} s; spans in "
              f"{trace_file.relative_to(ROOT)}")
        print_table([(k, unit_of(k), v, None, None, len(passes)) for k, v in values.items()])
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        all_passes = [reference] + passes
    else:
        passes = measure(wl, cases, configs, work, args.seconds)
        setup = setup_times([c.scenario for c in cases])
        samples = {"pass_s": [p["pass_s"] for p in passes], "setup_s": setup,
                   **command_samples(passes)}
        values = {k: statistics.median(v) for k, v in samples.items()}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        samples["peak_rss_mb"] = [values["peak_rss_mb"]]
        print(f"end-to-end metrics over {len(passes)} pass(es)")
        rows = []
        for k, v in samples.items():
            s = summarize(v)
            rows.append((k, "MB" if k == "peak_rss_mb" else "s", s["median"], s["p"],
                         s["p_value"], s["n"]))
        print_table(rows)
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        all_passes = passes

    attempted = sum(len(p["timings"]) for p in all_passes)
    failed = sum(len(p["failures"]) for p in all_passes)
    print(f"  fail_ratio = {failed}/{attempted} = {failed / attempted:.4g}")
    for p in all_passes:
        for (case, command), msg in sorted(p["failures"].items()):
            print(f"  FAILED {p['dir'].name}/{case} {command}: {msg}")
    metrics = {}
    for name, unit in names:
        if values.get(name) is None:
            raise RuntimeError(f"metric '{name}' has no value on workload {wl.name}")
        metrics[name] = {"value": values[name], "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("summary:")
    for name, res in results.items():
        cells = " ".join(f"{k}={_fmt(v['value'])}{v['unit']}" for k, v in res["metrics"].items())
        print(f"  {name:<18} failed={res['failed']}/{res['attempted']} {cells}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "brachkit" / "__init__.py").is_file():
        print(f"error: no brachkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or 'all'",
              file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
