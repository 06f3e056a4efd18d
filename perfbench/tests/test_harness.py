"""Tests of the benchmark harness itself.

Run with: python3 -m pytest perfbench/tests
"""

import copy
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from pertinax.frontend.parser import parse  # noqa: E402


# -- reach interpolation -----------------------------------------------------------


def test_reach_interpolates_between_rungs():
    times = {6: 0.5, 7: 1.0, 8: 2.0, 9: 4.0}
    r, saturated = run.reach(times, budget=3.0)
    assert not saturated
    assert r == pytest.approx(8 + math.log(3.0 / 2.0) / math.log(2.0))


def test_reach_on_a_rung_time_equal_to_the_budget():
    r, _ = run.reach({6: 1.0, 7: 2.0, 8: 4.0}, budget=2.0)
    assert r == pytest.approx(7.0)


def test_reach_extrapolates_below_the_ladder():
    r, saturated = run.reach({6: 8.0, 7: 16.0}, budget=4.0)
    assert r == pytest.approx(5.0) and not saturated


def test_reach_saturates_when_no_rung_exceeds_the_budget():
    r, saturated = run.reach({28: 0.1, 29: 0.2, 30: 0.3}, budget=4.0)
    assert (r, saturated) == (30.0, True)


def test_reach_uses_the_rungs_that_finished():
    r, _ = run.reach({7: 1.0, 8: 4.0}, budget=2.0)
    assert r == pytest.approx(7.5)


def test_reach_needs_a_finished_rung():
    with pytest.raises(ValueError):
        run.reach({}, budget=2.0)


# -- scripts and seeds ---------------------------------------------------------------


@pytest.mark.parametrize(
    "workload,fixture", [("oracle", "km1xyz_cyclic3"), ("products", "km1xyz_diag11")]
)
def test_seed_zero_template_is_the_fixture(workload, fixture):
    ours = parse(workloads.render(workload, 0, 8))
    theirs = parse((REPO / "fixtures" / (fixture + ".ptx")).read_text())
    assert ours.render() == theirs.render()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seeds_are_reproducible_and_unimodular(workload):
    for seed in range(1, 20):
        u = workloads.change_of_basis(workload, seed)
        assert u == workloads.change_of_basis(workload, seed)
        inv = workloads._inverse(u)
        assert workloads._matmul(u, inv) == [[int(i == j) for j in range(3)] for i in range(3)]
        assert sorted(abs(e) for row in u for e in row) == [0] * 6 + [1] * 3
    assert workloads.render(workload, 5, 7) == workloads.render(workload, 5, 7)


def test_every_task_degree_follows_the_rung():
    for name in workloads.WORKLOADS:
        script = parse(workloads.render(name, 3, 7))
        degrees = sorted({t.option("maxdeg") for t in script.tasks})
        assert degrees == ([7, 15] if name == "s3" else [7])


# -- answer checks and failure accounting --------------------------------------------


SMOKE_D = 6  # the smallest rung on which every workload's checks apply


def _smoke_payloads():
    """One real cold report per workload at the smoke rung, seed 1."""
    worker = run.Worker(timeout=120)
    out = {}
    for name in workloads.WORKLOADS:
        bench = run.Bench(name, 1, seconds=0, run_worker=worker)
        out[name] = (SMOKE_D, worker("report", bench.script(SMOKE_D)))
    return out


@pytest.fixture(scope="module")
def smoke():
    return _smoke_payloads()


def test_smoke_reports_pass_every_check(smoke):
    reference = workloads.load_reference()
    for name, (D, payload) in smoke.items():
        assert "error" not in payload, (name, payload)
        assert workloads.check(name, 1, D, payload, reference) == [], name


def _corrupt(name, payload):
    bad = copy.deepcopy(payload)
    for task in bad["report"]["tasks"]:
        result = task["result"]
        if "dims_radical" in result:
            result["dims_radical"][-1] += 1
            result["hilbert_quotient"][-1] -= 1
        if "dims_A" in result:
            result["dims_A"][-1] += 1
    return bad


def test_corrupted_reports_fail_their_checks(smoke):
    reference = workloads.load_reference()
    for name, (D, payload) in smoke.items():
        assert workloads.check(name, 1, D, _corrupt(name, payload), reference), name
    garbled = {"report": {"tasks": [{"task": "radical", "result": {}}]}}
    assert workloads.check("oracle", 1, 6, garbled, reference)


def test_seed_zero_digest_catches_an_answer_change(smoke):
    worker = run.Worker(timeout=120)
    bench = run.Bench("oracle", 0, seconds=0, run_worker=worker)
    payload = worker("report", bench.script(6))
    reference = workloads.load_reference()
    assert workloads.check("oracle", 0, 6, payload, reference) == []
    payload["report"]["tasks"][0]["result"]["table"]["6"][0] += " + x"
    assert "report differs from the seed-commit digest" in workloads.check(
        "oracle", 0, 6, payload, reference
    )


def test_corrupted_report_counts_in_pass_frac(smoke, monkeypatch):
    D, good = smoke["oracle"]
    w = workloads.WORKLOADS["oracle"]
    assert w.start < w.nominal
    bad_rung = w.start  # a failed rung below the nominal one does not end the ladder

    def fake_worker(mode, script_path, trace_path=None):
        if mode == "setup":
            return {"ready": 1.1, "spawned": 1.0, "backend": good["backend"]}
        rung = int(Path(script_path).stem.rsplit("D", 1)[1])
        payload = copy.deepcopy(good)
        payload["report_s"] = 0.1 * 2 ** (rung - w.start)
        return _corrupt("oracle", payload) if rung == bad_rung else payload

    # every rung reuses the real D=6 payload, so check it as a D=6 report
    real_check = workloads.check
    monkeypatch.setattr(
        workloads, "check", lambda name, seed, rung, payload, ref: real_check(name, seed, D, payload, ref)
    )
    bench = run.Bench("oracle", 1, seconds=0, run_worker=fake_worker)
    monkeypatch.setattr(bench, "script", lambda rung: Path("oracle-seed1-D%d.ptx" % rung))
    metrics, samples, _ = bench.measure()
    # rung times double from 0.1 s; the first one over the budget ends the ladder
    budget = workloads.BUDGET_S
    last = w.start + math.ceil(math.log2(budget / 0.1))
    assert (bench.attempted, bench.failed) == (last - w.start + 1, 1)
    assert metrics["pass_frac"][0] == pytest.approx(1 - 1 / bench.attempted)
    assert bench.problems[0]["D"] == bad_rung
    t_last = 0.1 * 2 ** (last - 1 - w.start)
    expected = last - 1 + math.log(budget / t_last) / math.log(2)
    assert metrics["reach_deg"][0] == pytest.approx(expected)


def test_smoke_run_through_the_harness_and_trace(tmp_path, monkeypatch):
    """Every workload, end to end, at its smallest rung, untraced and traced."""
    small = {name: workloads.Workload(name, SMOKE_D, SMOKE_D) for name in workloads.WORKLOADS}
    monkeypatch.setattr(workloads, "WORKLOADS", small)
    monkeypatch.setattr(workloads, "BUDGET_S", 1e-3)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    for name in small:
        bench = run.Bench(name, 2, seconds=0)
        metrics, _, _ = bench.measure()
        assert bench.failed == 0, bench.problems
        assert set(metrics) == {"report_s", "setup_s", "peak_rss_mb", "pass_frac", "reach_deg"}
        assert metrics["pass_frac"][0] == 1.0
        bench = run.Bench(name, 2, seconds=0)
        metrics, _, extra = bench.measure_trace()
        assert bench.failed == 0, bench.problems
        declared = json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]
        assert {m["name"]: m["unit"] for m in declared} == {k: u for k, (_, u) in metrics.items()}
        assert metrics["kernel.rref.calls"][0] > 0
        assert metrics["trace.coverage_frac"][0] > 0.5
        trace = json.loads((tmp_path / ("trace-%s-seed2-0.json" % name)).read_text())
        assert trace["spans"] and trace["self_s"]
        assert trace["oracle_shapes"]
