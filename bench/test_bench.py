"""Self-tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

They show that the names are well formed and match BENCHMARK.json, that one
seed repeats its call counts and outcomes exactly and another seed keeps the
counts of attempted and failed ops, that the output checks can fire, and
that the benchmark refuses to run without the sources.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

geodd = run.import_geodd()

import cases  # noqa: E402
import checks  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_are_well_formed_and_match_the_spec():
    workloads = [w["name"] for w in SPEC["workloads"]]
    metrics = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    for name in workloads + metrics:
        assert NAME.fullmatch(name), name
    assert len(set(workloads + metrics)) == len(workloads + metrics)
    assert workloads == list(cases.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


COUNTS = re.compile(r"\.(calls|fail|invalid|warnings)$")


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_counts_and_ok_share_repeat_for_one_seed(workload):
    first, info1 = run.measure(workload, 7, 0.01, True, limit=1)
    second, info2 = run.measure(workload, 7, 0.01, True, limit=1)
    assert first["correct"] and second["correct"]
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    assert info1["outcomes"] == info2["outcomes"]
    counts = [k for k in first["metrics"] if COUNTS.search(k)]
    assert counts
    for key in counts:
        assert first["metrics"][key] == second["metrics"][key], key
    assert set(first["metrics"]) == {name for name, _ in run.PER_LAYER}
    # another seed only reorders the same corpus
    other, info3 = run.measure(workload, 8, 0.01, False, limit=1)
    assert (other["attempted"] * 2, other["failed"] * 2) == (first["attempted"], first["failed"])
    assert {k: 2 * v for k, v in info3["outcomes"].items()} == info1["outcomes"]


def _solved(seed=3):
    plant = geodd.generate_instance(geodd.InstanceSpec(seed=seed, n=4))
    comp, _ = geodd.solve(plant, "p2")
    return plant, comp


def test_compensator_check_accepts_solved_and_rejects_perturbed():
    plant, comp = _solved()
    good = checks.check_compensator(plant, comp.A_c, comp.B_c, comp.C_c, comp.D_c, stable=True)
    assert good.ok and good.wrong is None
    rng = np.random.default_rng(0)
    bump = 1e-3 * (1.0 + np.linalg.norm(comp.A_c, 2)) * rng.standard_normal(comp.A_c.shape)
    bad = checks.check_compensator(plant, comp.A_c + bump, comp.B_c, comp.C_c, comp.D_c,
                                   stable=True)
    assert not bad.ok and "T_zw" in bad.wrong


def test_compensator_check_rejects_an_unstable_loop_for_p2():
    # p1 compensators decouple without caring for stability; find one whose
    # loop is unstable and present it as a p2 answer
    for seed in range(40):
        plant = geodd.generate_instance(geodd.InstanceSpec(seed=seed, n=4))
        try:
            comp, _ = geodd.solve(plant, "p1")
        except geodd.GeoddError:
            continue
        loop = checks.closed_loop(plant, comp.A_c, comp.B_c, comp.C_c, comp.D_c)
        if not checks.spectrum_stable(loop.A, plant.time_domain):
            break
    else:
        pytest.fail("no unstable p1 loop among the seeds")
    args = (plant, comp.A_c, comp.B_c, comp.C_c, comp.D_c)
    assert checks.check_compensator(*args, stable=False).ok
    unstable = checks.check_compensator(*args, stable=True)
    assert not unstable.ok and "not stable" in unstable.wrong


def test_verdict_checks_reject_wrong_verdicts():
    rng = np.random.default_rng(5)
    plant = cases.lifted_obstruction(6, "continuous", rng)
    expected = cases.exact_expectation(plant)
    assert expected.p1 == cases.OBSTRUCTION
    report = geodd.analyze_p1(plant)
    conds = {c.label: c.passed for c in report.conditions}
    assert checks.check_p1_report(report.overall, conds, expected).ok
    assert checks.check_p1_report("solvable", conds, expected).wrong
    flipped = dict(conds, ii=not conds["ii"])
    assert checks.check_p1_report(report.overall, flipped, expected).wrong
    assert checks.check_p2_report("solvable", {}, {}, expected).wrong
    assert checks.check_p1_report("numerical_failure", conds, expected).wrong is None


def test_exact_expectation_sees_each_failed_condition():
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(60):
        plant = geodd.generate_instance(geodd.InstanceSpec(
            seed=int(rng.integers(2**31)), n=3, m=1, p=1, q=1, r=1,
            solvable_by_construction=False))
        expected = cases.exact_expectation(plant)
        seen.add(expected.p1)
        report = geodd.analyze_p1(plant)
        conds = {c.label: c.passed for c in report.conditions}
        assert checks.check_p1_report(report.overall, conds, expected).wrong is None
    assert {"solvable", "infeasible(i)", "infeasible(ii)"} <= seen


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verdict-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
