"""Self-tests of the benchmark: output checks, failure counting and span recording.

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import math
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Case  # noqa: E402

FLAT = {
    "model": {"name": "minkowski3"},
    "k": math.sqrt(2.0),
    "p": [0.0, 0.0, 0.0],
    "gamma_anchor": [1.0, 0.0, 0.0],
    "shoot": {"guess_u": [1.0, 0.3, 0.0], "guess_T": 0.7},
}


def write(out: Path, name: str, doc: dict):
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(json.dumps(doc))


# ---------------------------------------------------------------------------
# Output checks reject corrupted results

SURVEY_CASE = Case("survey", Path("unused"), ("survey",),
                   {"T": [math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2], "count": (3, 4)})
GOOD_SURVEY = {"count": 3, "solutions": [
    {"T": math.pi / 2, "index_morse": 0, "index_geometric": 0, "n_zero": 0},
    {"T": 3 * math.pi / 2, "index_morse": 1, "index_geometric": 1, "n_zero": 0},
    {"T": 5 * math.pi / 2, "index_morse": 2, "index_geometric": 2, "n_zero": 0},
]}


def corrupt_missing_T(doc):
    del doc["solutions"][1]
    doc["count"] = 2


def corrupt_shifted_T(doc):
    doc["solutions"][2]["T"] += 1e-5


def corrupt_index_pair(doc):
    doc["solutions"][1]["index_morse"] = 2


def corrupt_dropped_index(doc):
    del doc["solutions"][0]["index_geometric"]


def test_survey_check_accepts_good_output(tmp_path):
    write(tmp_path, "survey.json", GOOD_SURVEY)
    assert workloads.check_survey(SURVEY_CASE, tmp_path) == []


@pytest.mark.parametrize("corrupt", [corrupt_missing_T, corrupt_shifted_T,
                                     corrupt_index_pair, corrupt_dropped_index])
def test_survey_check_rejects_corruption(tmp_path, corrupt):
    doc = copy.deepcopy(GOOD_SURVEY)
    corrupt(doc)
    write(tmp_path, "survey.json", doc)
    bad = workloads.check_survey(SURVEY_CASE, tmp_path)
    assert bad and all(command == "survey" for command, _ in bad)


def focal_outputs(out, passed=True, geometric=1, triple=(1, 1, 1)):
    write(out, "verify.json", {"passed": passed})
    write(out, "focal.json", {"geometric_index": geometric})
    write(out, "index.json", {"indices": dict(zip(("full", "horizontal", "perpendicular"),
                                                  triple))})


@pytest.mark.parametrize("kwargs, command", [
    ({}, None),
    ({"passed": False}, "verify"),
    ({"geometric": 2}, "jacobi"),
    ({"triple": (1, 1, 2)}, "index"),
])
def test_focal_check(tmp_path, kwargs, command):
    focal_outputs(tmp_path, **kwargs)
    bad = workloads.check_focal(Case("arc", Path("unused"), (), {"index": 1}), tmp_path)
    assert [c for c, _ in bad] == ([command] if command else [])


@pytest.mark.parametrize("shoot_T, dist, command", [
    (0.8, 1e-5, None), (0.8 + 1e-5, 1e-5, "shoot"), (0.8, 2e-3, "oracle")])
def test_crosscheck_check(tmp_path, shoot_T, dist, command):
    write(tmp_path, "solution.json", {"T": shoot_T})
    write(tmp_path, "verify.json", {"passed": True})
    write(tmp_path, "oracle.json", {"T_difference": 1e-5, "shoot_T": shoot_T,
                                    "curve_distance": dist})
    bad = workloads.check_crosscheck(Case("m", Path("unused"), (), {"T": 0.8}), tmp_path)
    assert [c for c, _ in bad] == ([command] if command else [])


# ---------------------------------------------------------------------------
# A pass counts exceptions and failed checks as failed operations


def flat_case(tmp_path, commands):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(FLAT))
    return Case("flat", path, commands, {"T": 1.0})


def check_shoot_T(case, out):
    T = json.loads((out / "solution.json").read_text())["T"]
    return [] if abs(T - case.expect["T"]) < 1e-6 else [("shoot", f"T {T}")]


def test_pass_counts_exceptions_and_failed_checks(tmp_path):
    wl = workloads.Workload("flat", "", None, check_shoot_T)
    case = flat_case(tmp_path, ("shoot", "index"))  # the scenario has no index block
    good = run.run_pass(wl, [case], {"flat": FLAT}, tmp_path / "a")
    assert set(good["failures"]) == {("flat", "index")}
    assert [c for c, _ in good["timings"]] == ["shoot", "index"]

    case.expect["T"] = 1.5  # a wrong reference value must fail the shoot check
    bad = run.run_pass(wl, [case], {"flat": FLAT}, tmp_path / "b")
    assert set(bad["failures"]) == {("flat", "index"), ("flat", "shoot")}


def test_differing_outputs_fail(tmp_path):
    a = {"digests": {("c", "shoot"): "x"}, "failures": {}}
    b = {"digests": {("c", "shoot"): "y"}, "failures": {}}
    run.compare_outputs(a, b, "pass 0")
    assert set(b["failures"]) == {("c", "shoot")}


def test_summarize_reports_percentile_with_ten_beyond():
    assert run.summarize([1.0] * 19)["p"] is None
    s = run.summarize([float(i) for i in range(100)])
    assert s["p"] == 90 and s["p_value"] == 89.0 and s["n"] == 100


# ---------------------------------------------------------------------------
# Spans: self times are non-negative and children lie within their parents


def assert_well_formed(rec: spans.Recorder):
    by_id = {s[0]: s for s in rec.spans}
    for sid, parent, name, t0, t1, self_ns in rec.spans:
        assert 0 <= self_ns <= t1 - t0, name
        if parent is not None and parent in by_id:
            _, _, pname, p0, p1, _ = by_id[parent]
            assert p0 <= t0 and t1 <= p1, (name, pname)
    for name, (calls, total, self_ns, failed) in rec.totals.items():
        assert calls > 0 and 0 <= self_ns <= total and 0 <= failed <= calls, name


def test_recorder_nesting():
    rec = spans.Recorder()
    with rec.span("outer"):
        time.sleep(0.002)
        with rec.span("inner"):
            time.sleep(0.002)
            rec.leaf("leaf", 500_000)
        with pytest.raises(ValueError), rec.span("failing"):
            raise ValueError
    assert_well_formed(rec)
    assert rec.failed("failing") == 1 and rec.failed("inner") == 0
    # the leaf's time is removed from its parent's self time
    assert rec.totals["inner"][2] == rec.totals["inner"][1] - 500_000
    outer = rec.totals["outer"]
    assert outer[2] == outer[1] - rec.totals["inner"][1] - rec.totals["failing"][1]


def test_instrumented_run_matches_untraced_and_restores_bindings(tmp_path):
    import brachkit.bvp
    from brachkit.cli import run_scenario
    original = brachkit.bvp.shoot
    run_scenario(FLAT, "shoot", tmp_path / "plain")
    rec = spans.Recorder()
    with spans.instrument(rec):
        assert brachkit.bvp.shoot is not original
        with rec.span("cli.shoot"):
            run_scenario(FLAT, "shoot", tmp_path / "traced")
    assert brachkit.bvp.shoot is original
    assert ((tmp_path / "plain" / "solution.json").read_bytes()
            == (tmp_path / "traced" / "solution.json").read_bytes())
    assert_well_formed(rec)
    assert rec.calls("bvp.shoot") == 1 and rec.calls("models.g") > 0
    assert rec.calls("ode.bvp") > 0 and rec.counters["ode.nfev.bvp"] > 0
    metrics = run.layer_metrics(rec, tmp_path / "traced")
    assert metrics["bvp.converged_ratio"] == 1.0 and metrics["transform.flow_points_points"] > 0
