"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
"""

import json
import random
import re
import sys
import time

import pytest

from cbceval.cbc import CBCConfig, run_pipeline
from cbceval.cli import main as cli_main
from cbceval.errors import AssignmentDeadlockError
from cbceval.evaluate import rank
from cbceval.ingest import parse_dataset
from cbceval.kmeans import KMeansConfig, run_kmeans
from cbceval.model import CandidateDataset, ConstraintSpec
from cbceval.constraints import detect_deadlock
from cbceval.oracle import brute_force_feasible_exists, brute_force_min_sse
from cbceval import fixtures

from helpers import (
    FEASIBLE_AT_6,
    INFEASIBLE_AT_6,
    SAMPLE_ROWS,
    assignment_satisfies,
    feasible_and_infeasible,
    partition_signature,
    random_constraint_spec,
    random_dataset,
)


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {number} {name}: {status}{suffix}"
    # bypass pytest capture so the line lands in plain `pytest` output too
    print(line, file=sys.__stdout__)
    assert ok, line


def test_criterion_1_sample_dataset_fidelity():
    started = time.perf_counter()
    dataset = parse_dataset(fixtures.sample_dataset_text())
    cells_ok = len(dataset) == 10
    for cid, row, row_constraints in zip(
        dataset.ids(), dataset.ratings.tolist(), dataset.constraints_ratings.tolist()
    ):
        ratings, constraints_rating = SAMPLE_ROWS[cid]
        cells_ok = cells_ok and tuple(row) == tuple(float(r) for r in ratings)
        cells_ok = cells_ok and row_constraints == float(constraints_rating)
    elapsed = time.perf_counter() - started
    _report(
        1,
        "sample-dataset-fidelity",
        cells_ok and elapsed < 1.0,
        f"70 cells exact, {elapsed:.3f}s",
    )


def test_criterion_2_feasibility_fixture():
    started = time.perf_counter()
    dataset = fixtures.load_sample_dataset()
    spec = fixtures.load_sample_constraint_spec()
    feasible, infeasible = feasible_and_infeasible(dataset, spec)
    ok = feasible == FEASIBLE_AT_6 and [cid for cid, _ in infeasible] == INFEASIBLE_AT_6
    elapsed = time.perf_counter() - started
    _report(2, "feasibility-fixture", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_3_oracle_equivalence_unconstrained():
    started = time.perf_counter()
    dataset = fixtures.load_sample_dataset()
    ok = True
    details = []
    for k in (2, 3):
        engine = run_kmeans(dataset, KMeansConfig(k=k, seed=0, restarts=50))
        _, optimum = brute_force_min_sse(dataset, k)
        gap = (engine.sse - optimum) / optimum * 100
        ok = ok and engine.sse >= optimum - 1e-9 and gap <= 5.0
        details.append(f"k={k} gap {gap:.2f}%")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    _report(3, "oracle-equivalence-unconstrained", ok, ", ".join(details) + f", {elapsed:.1f}s")


def test_criterion_4_deadlock_equivalence():
    started = time.perf_counter()
    rng = random.Random(20260810)
    checked = 0
    disagreements = 0
    while checked < 500:
        dataset = random_dataset(rng, rng.randint(2, 8), rng.randint(1, 3))
        spec = random_constraint_spec(rng, dataset, rules=True)
        k = rng.randint(1, 3)
        report = detect_deadlock(spec, dataset, k)
        exists, _, _ = brute_force_feasible_exists(spec, dataset, k)
        if report.deadlocked == exists:
            disagreements += 1
        checked += 1
    elapsed = time.perf_counter() - started
    ok = disagreements == 0 and elapsed < 60.0
    _report(
        4,
        "deadlock-equivalence",
        ok,
        f"{checked} specs, {disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_5_constraint_satisfaction_fuzzing():
    started = time.perf_counter()
    rng = random.Random(55)
    runs =  0
    successes = 0
    violations = 0
    while runs < 1000:
        dataset = random_dataset(rng, rng.randint(4, 12), rng.randint(1, 4))
        spec = random_constraint_spec(rng, dataset, tau=1.0)
        k = rng.randint(2, min(4, len(dataset)))
        config = CBCConfig(kmeans=KMeansConfig(k=k, seed=rng.randrange(2**32)))
        runs += 1
        try:
            result = run_pipeline(dataset, spec, config)
        except AssignmentDeadlockError:
            continue
        if result.aborted:
            continue
        successes += 1
        if assignment_satisfies(result.clustering.assignment, spec, k):
            violations += 1
    elapsed = time.perf_counter() - started
    ok = violations == 0 and successes > 100 and elapsed < 60.0
    _report(
        5,
        "constraint-satisfaction-fuzzing",
        ok,
        f"{runs} runs, {successes} successes, {violations} violations, {elapsed:.1f}s",
    )


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_no_assignment_deadlock_on_an_oracle_feasible_spec():
    # Criterion 5's runs again: the oracle decides each run that exits 3 on
    # an assignment deadlock. The greedy assignment has no minimum-size
    # repair, so it deadlocks on specs the oracle satisfies.
    rng = random.Random(55)
    feasible_deadlocks = 0
    for _ in range(1000):
        dataset = random_dataset(rng, rng.randint(4, 12), rng.randint(1, 4))
        spec = random_constraint_spec(rng, dataset, tau=1.0)
        k = rng.randint(2, min(4, len(dataset)))
        config = CBCConfig(kmeans=KMeansConfig(k=k, seed=rng.randrange(2**32)))
        try:
            run_pipeline(dataset, spec, config)
        except AssignmentDeadlockError:
            feasible_deadlocks += brute_force_feasible_exists(spec, dataset, k)[0]
    assert feasible_deadlocks == 0, f"{feasible_deadlocks} of 1000 runs exit 3 on a feasible spec"


def test_criterion_6_baseline_reduction():
    dataset = fixtures.load_sample_dataset()
    empty = ConstraintSpec()
    mismatches = 0
    for seed in range(100):
        config = CBCConfig(kmeans=KMeansConfig(k=3, seed=seed))
        piped = run_pipeline(dataset, empty, config)
        plain = run_kmeans(dataset, config.kmeans)
        if partition_signature(piped.clustering.labels) != partition_signature(plain.labels):
            mismatches += 1
    _report(6, "baseline-reduction", mismatches == 0, f"100 seeds, {mismatches} mismatches")


def test_criterion_7_determinism(tmp_path):
    data = tmp_path / "sample_data.csv"
    data.write_text(fixtures.sample_dataset_text(), encoding="utf-8")
    constraints = tmp_path / "sample_constraints.json"
    constraints.write_text(fixtures.sample_constraints_text(), encoding="utf-8")
    outs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        code = cli_main(
            [
                "evaluate",
                "--data", str(data),
                "--constraints", str(constraints),
                "--seed", "42",
                "--out", str(out),
            ]
        )
        assert code == 0
        outs.append(out.read_text(encoding="utf-8"))

    def neutralize(text: str) -> str:
        return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "-"', text)

    identical = neutralize(outs[0]) == neutralize(outs[1])
    digests_equal = (
        json.loads(outs[0])["meta"]["report_digest"]
        == json.loads(outs[1])["meta"]["report_digest"]
    )
    _report(7, "determinism", identical and digests_equal, "byte-identical modulo timestamp")


def test_criterion_8_ranking_properties():
    started = time.perf_counter()
    rng = random.Random(88)
    dataset = fixtures.load_sample_dataset()
    spec = fixtures.load_sample_constraint_spec()
    result = run_pipeline(dataset, spec, CBCConfig(kmeans=KMeansConfig(k=3, seed=42)))
    names = dataset.schema.names

    rescale_failures = 0
    for _ in range(200):
        weights = {n: rng.uniform(0.01, 10.0) for n in names}
        factor = rng.uniform(1e-3, 1e3)
        scaled = {n: w * factor for n, w in weights.items()}
        if [r["id"] for r in rank(result, dataset, weights)["ranking"]] != [
            r["id"] for r in rank(result, dataset, scaled)["ranking"]
        ]:
            rescale_failures += 1

    monotonicity_failures = 0
    trials = 0
    while trials < 200:
        d = random_dataset(rng, rng.randint(4, 9), rng.randint(2, 4))
        sp = ConstraintSpec(feasibility_threshold=1)
        res = run_pipeline(d, sp, CBCConfig(kmeans=KMeansConfig(k=2, seed=trials)))
        report = rank(res, d)
        order = [r["id"] for r in report["ranking"]]
        target = rng.choice(order)
        row = d.row_of[target]
        attr = rng.randrange(len(d.schema.names))
        ratings = d.ratings.tolist()
        if ratings[row][attr] >= 10:
            continue
        trials += 1
        ratings[row][attr] = min(10.0, ratings[row][attr] + rng.uniform(0.5, 4.0))
        new_dataset = CandidateDataset(d.schema, d.ids(), ratings, d.constraints_ratings)
        new_order = [r["id"] for r in rank(res, new_dataset)["ranking"]]
        if new_order.index(target) > order.index(target):
            monotonicity_failures += 1

    elapsed = time.perf_counter() - started
    ok = rescale_failures == 0 and monotonicity_failures == 0
    _report(
        8,
        "ranking-properties",
        ok,
        f"rescale {rescale_failures}/200, monotonicity {monotonicity_failures}/200, "
        f"{elapsed:.1f}s",
    )
