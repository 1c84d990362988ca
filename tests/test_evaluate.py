import json
import random
from dataclasses import replace

import pytest

from cbceval.cbc import CBCConfig, run_pipeline
from cbceval import evaluate
from cbceval.errors import DomainError
from cbceval.evaluate import _digest, rank, report_json, round_floats
from cbceval.kmeans import KMeansConfig
from cbceval.model import (
    AttributeSchema,
    CandidateDataset,
    ConstraintSpec,
    ExistentialRule,
    MicroClustering,
    SCALE_MIN,
)

from helpers import FEASIBLE_AT_6, INFEASIBLE_AT_6, random_dataset, take_rows


def pipeline_result(dataset, spec, k=3, seed=42):
    return run_pipeline(dataset, spec, CBCConfig(kmeans=KMeansConfig(k=k, seed=seed)))


def all_scores(dataset, weights=None):
    """Rank scores with every candidate feasible (threshold at the scale floor)."""
    spec = ConstraintSpec(feasibility_threshold=SCALE_MIN)
    report = rank(pipeline_result(dataset, spec, k=1), dataset, weights)
    return report_scores(report)


def test_score_all_max_is_one():
    schema = AttributeSchema(("a", "b", "c"))
    dataset = CandidateDataset(schema, ["x"], [(10, 10, 10)], [10])
    assert all_scores(dataset)["x"] == pytest.approx(1.0)


def test_score_sample_row_equal_weights(sample_dataset):
    assert all_scores(sample_dataset)["T103"] == pytest.approx(20 / 54, abs=1e-12)


def test_score_single_attribute_weight(sample_dataset):
    weights = {name: 0.0 for name in sample_dataset.schema.names}
    weights["availability"] = 1.0
    assert all_scores(sample_dataset, weights)["T104"] == pytest.approx(4 / 9, abs=1e-12)


def test_rank_fixture_top_candidate(sample_dataset, sample_spec):
    report = rank(pipeline_result(sample_dataset, sample_spec), sample_dataset)
    assert [r["id"] for r in report["ranking"]][0] == "T103"
    assert len(report["ranking"]) == 6
    assert [r["id"] for r in report["ranking"]] == sorted(
        FEASIBLE_AT_6, key=lambda cid: (-report_scores(report)[cid], cid)
    )
    assert [e["id"] for e in report["excluded"]] == INFEASIBLE_AT_6
    for entry in report["excluded"]:
        assert entry["violations"]


def test_rank_excludes_in_dataset_order_whatever_the_map_order(sample_dataset, sample_spec):
    result = pipeline_result(sample_dataset, sample_spec)
    reversed_map = dict(reversed(result.micro.violations.items()))
    assert list(reversed_map) == INFEASIBLE_AT_6[::-1]
    reversed_result = replace(result, micro=MicroClustering(result.clustering, reversed_map))
    report = rank(reversed_result, sample_dataset)
    assert [e["id"] for e in report["excluded"]] == INFEASIBLE_AT_6
    assert report_json(report, timestamp="t") == report_json(
        rank(result, sample_dataset), timestamp="t"
    )


def test_rank_rejects_a_result_for_other_rows(sample_dataset, sample_spec):
    # Without the last row, T109 (infeasible) would drop out of `excluded`.
    result = pipeline_result(sample_dataset, sample_spec)
    with pytest.raises(DomainError, match="in order"):
        rank(result, take_rows(sample_dataset, range(len(sample_dataset) - 1)))


def report_scores(report):
    return {r["id"]: r["score"] for r in report["ranking"]}


def test_rank_completeness(sample_dataset, sample_spec):
    report = rank(pipeline_result(sample_dataset, sample_spec), sample_dataset)
    assert len(report["ranking"]) + len(report["excluded"]) == len(sample_dataset)
    ids = {r["id"] for r in report["ranking"]} | {e["id"] for e in report["excluded"]}
    assert ids == set(sample_dataset.ids())


def test_rank_empty_feasible_set(sample_dataset):
    spec = ConstraintSpec(feasibility_threshold=10)
    result = pipeline_result(sample_dataset, spec)
    # threshold 10 deadlocks at bind time (empty feasible set)
    assert result.aborted
    report = rank(result, sample_dataset)
    assert list(report) == ["meta", "deadlock"]
    assert report["deadlock"]["deadlocked"]


def test_rank_identical_candidates_tie_by_id():
    schema = AttributeSchema(("a", "b"))
    dataset = CandidateDataset(schema, ["Z9", "A1", "M5"], [(5, 5), (5, 5), (2, 2)], [8, 8, 8])
    spec = ConstraintSpec(feasibility_threshold=5)
    report = rank(pipeline_result(dataset, spec, k=2, seed=1), dataset)
    assert [r["id"] for r in report["ranking"]] == ["A1", "Z9", "M5"]


def test_rank_scale_invariance_of_order(sample_dataset, sample_spec):
    rng = random.Random(3)
    result = pipeline_result(sample_dataset, sample_spec)
    names = sample_dataset.schema.names
    for _ in range(60):
        weights = {n: rng.uniform(0.01, 5.0) for n in names}
        factor = rng.uniform(0.001, 1000)
        scaled = {n: w * factor for n, w in weights.items()}
        a = [r["id"] for r in rank(result, sample_dataset, weights)["ranking"]]
        b = [r["id"] for r in rank(result, sample_dataset, scaled)["ranking"]]
        assert a == b


def test_rank_monotone_in_ratings():
    rng = random.Random(5)
    for _ in range(40):
        dataset = random_dataset(rng, rng.randint(4, 9), rng.randint(2, 4))
        spec = ConstraintSpec(feasibility_threshold=1)
        result = pipeline_result(dataset, spec, k=2, seed=rng.randrange(2**32))
        report = rank(result, dataset)
        order = [r["id"] for r in report["ranking"]]
        target = rng.choice(order)
        row = dataset.row_of[target]
        attr = rng.randrange(len(dataset.schema.names))
        ratings = dataset.ratings.tolist()
        if ratings[row][attr] >= 10:
            continue
        ratings[row][attr] = min(10.0, ratings[row][attr] + rng.uniform(0.5, 3.0))
        new_dataset = CandidateDataset(
            dataset.schema, dataset.ids(), ratings, dataset.constraints_ratings
        )
        new_report = rank(
            pipeline_result(new_dataset, spec, k=2, seed=1), new_dataset
        )
        new_order = [r["id"] for r in new_report["ranking"]]
        assert new_order.index(target) <= order.index(target)


def test_report_json_shape(sample_dataset, sample_spec):
    report = rank(pipeline_result(sample_dataset, sample_spec), sample_dataset)
    payload = json.loads(report_json(report))
    assert list(payload) == ["meta", "deadlock", "micro_clusters", "ranking", "excluded"]
    meta = payload["meta"]
    for key in ("seed", "k", "config_digest", "dataset_digest", "report_digest", "timestamp"):
        assert key in meta
    assert meta["user_constraints"]["budget_per_instance"] == 5000
    assert meta["user_constraints"]["trial_period"] == 7
    assert payload["deadlock"]["stage"] == "post-refinement"
    assert len(payload["ranking"]) == 6
    entry = payload["ranking"][0]
    assert set(entry) == {"id", "score", "per_attribute"}
    assert len(entry["per_attribute"]) == 6
    for mc in payload["micro_clusters"]:
        assert mc["label"] in ("feasible", "infeasible")
        for member in mc["members"]:
            assert ("score" in member) == (mc["label"] == "feasible")


def test_report_digest_excludes_timestamp(sample_dataset, sample_spec):
    report = rank(pipeline_result(sample_dataset, sample_spec), sample_dataset)
    a = json.loads(report_json(report, timestamp="1970-01-01T00:00:00Z"))
    b = json.loads(report_json(report, timestamp="2000-06-15T12:30:00Z"))
    assert a["meta"]["report_digest"] == b["meta"]["report_digest"]
    a["meta"].pop("timestamp")
    b["meta"].pop("timestamp")
    assert a == b


def test_report_numbers_rounded_to_twelve_significant_digits(
    sample_dataset, sample_spec
):
    report = rank(pipeline_result(sample_dataset, sample_spec), sample_dataset)
    payload = json.loads(report_json(report))
    top = payload["ranking"][0]["score"]
    assert top == float(format(20 / 54, ".12g"))


def test_aborted_report_has_only_deadlock_section(sample_dataset):
    spec = ConstraintSpec(feasibility_threshold=10)
    report = rank(pipeline_result(sample_dataset, spec), sample_dataset)
    payload = json.loads(report_json(report))
    assert list(payload) == ["meta", "deadlock"]
    assert payload["deadlock"]["deadlocked"] is True


def test_rounding_a_report_body_twice_changes_nothing():
    # rank rounds once and report_json hashes the body as is; that equals
    # hashing a second rounding only because rounding is idempotent.
    rng = random.Random(11)
    dataset = random_dataset(rng, 300, 5)
    weights = {name: rng.uniform(0.1, 3.0) for name in dataset.schema.names}
    spec = ConstraintSpec(feasibility_threshold=4, distance_weights=weights)
    result = pipeline_result(dataset, spec, k=4, seed=9)
    body = rank(result, dataset, weights)
    exact = evaluate._weighted_means(dataset.normalized, dataset.schema, weights).tolist()
    assert any(r["score"] != exact[dataset.row_of[r["id"]]] for r in body["ranking"])
    assert round_floats(body) == body
    assert repr(round_floats(body)) == repr(body)
    written = json.loads(report_json(body, timestamp="1970-01-01T00:00:00Z"))
    assert written["meta"]["report_digest"] == _digest(body)


def test_report_body_shares_nothing_with_the_result(sample_dataset, sample_spec):
    result = pipeline_result(sample_dataset, sample_spec)
    violations, deadlock = repr(result.micro.violations), repr(result.deadlock)
    text = report_json(rank(result, sample_dataset), timestamp="t")
    body = rank(result, sample_dataset)
    body["excluded"][0]["violations"][0]["message"] = "changed"
    body["deadlock"]["causes"].append({"kind": "changed"})
    body["meta"]["stages"][0]["summary"] = "changed"
    assert repr(result.micro.violations) == violations
    assert repr(result.deadlock) == deadlock
    assert report_json(rank(result, sample_dataset), timestamp="t") == text


def test_rank_shares_one_violations_list_per_failure_pattern():
    rng = random.Random(12)
    dataset = random_dataset(rng, 300, 3)
    rule = ExistentialRule("f0", ">=", 3.0, 1, per_candidate=True)
    spec = ConstraintSpec(feasibility_threshold=4, existential=(rule,))
    result = pipeline_result(dataset, spec, k=4, seed=9)
    body = rank(result, dataset)
    violations = result.micro.violations
    lists = {}
    for entry in body["excluded"]:
        shared = lists.setdefault(id(violations[entry["id"]]), entry["violations"])
        assert shared is entry["violations"]
    assert len({id(shared) for shared in lists.values()}) == len(lists) < len(body["excluded"])
    # The shared lists and their records are the body's own.
    records = {id(vars(v)) for found in violations.values() for v in found}
    assert not records & {id(r) for shared in lists.values() for r in shared}
    text = report_json(body, timestamp="t")
    next(iter(lists.values()))[0]["message"] = "changed"
    assert report_json(rank(result, dataset), timestamp="t") == text


def test_aborted_report_body_shares_nothing_with_the_result(sample_dataset):
    result = pipeline_result(sample_dataset, ConstraintSpec(feasibility_threshold=10))
    deadlock = repr(result.deadlock)
    text = report_json(rank(result, sample_dataset), timestamp="t")
    body = rank(result, sample_dataset)
    body["deadlock"]["causes"][0]["kind"] = "changed"
    body["deadlock"]["causes"][0]["witness"]["population"] = -1
    body["meta"]["stages"][0]["summary"] = "changed"
    assert repr(result.deadlock) == deadlock
    assert report_json(rank(result, sample_dataset), timestamp="t") == text


def test_report_json_is_repeatable_and_leaves_the_body_alone(sample_dataset, sample_spec):
    body = rank(pipeline_result(sample_dataset, sample_spec), sample_dataset)
    before = repr(body)
    first = report_json(body, timestamp="t")
    assert report_json(body, timestamp="t") == first
    assert "report_digest" not in body["meta"]
    assert "timestamp" not in body["meta"]
    assert repr(body) == before
