import json
import random

import pytest

from cbceval.cbc import CBCConfig, run_pipeline
from cbceval import evaluate
from cbceval.evaluate import rank, report_json, report_to_dict, round_floats, score_candidate
from cbceval.kmeans import KMeansConfig
from cbceval.model import (
    AttributeSchema,
    Candidate,
    CandidateDataset,
    ConstraintSpec,
)

from helpers import FEASIBLE_AT_6, INFEASIBLE_AT_6, random_dataset


def pipeline_result(dataset, spec, k=3, seed=42):
    return run_pipeline(dataset, spec, CBCConfig(kmeans=KMeansConfig(k=k, seed=seed)))


def test_score_all_max_is_one():
    schema = AttributeSchema(("a", "b", "c"))
    cand = Candidate("x", (10, 10, 10), 10)
    assert score_candidate(cand, schema) == pytest.approx(1.0)


def test_score_sample_row_equal_weights(sample_dataset):
    t103 = sample_dataset.by_id("T103")
    assert score_candidate(t103, sample_dataset.schema) == pytest.approx(
        20 / 54, abs=1e-12
    )


def test_score_single_attribute_weight(sample_dataset):
    t104 = sample_dataset.by_id("T104")
    weights = {name: 0.0 for name in sample_dataset.schema.names}
    weights["availability"] = 1.0
    assert score_candidate(t104, sample_dataset.schema, weights) == pytest.approx(
        4 / 9, abs=1e-12
    )


def test_rank_fixture_top_candidate(sample_dataset, sample_spec):
    report = rank(pipeline_result(sample_dataset, sample_spec), sample_dataset)
    assert [r.id for r in report.ranking][0] == "T103"
    assert len(report.ranking) == 6
    assert [r.id for r in report.ranking] == sorted(
        FEASIBLE_AT_6, key=lambda cid: (-report_scores(report)[cid], cid)
    )
    assert [cid for cid, _ in report.excluded] == INFEASIBLE_AT_6
    for _, violations in report.excluded:
        assert violations


def report_scores(report):
    return {r.id: r.score for r in report.ranking}


def test_rank_completeness(sample_dataset, sample_spec):
    report = rank(pipeline_result(sample_dataset, sample_spec), sample_dataset)
    assert len(report.ranking) + len(report.excluded) == len(sample_dataset)
    ids = {r.id for r in report.ranking} | {cid for cid, _ in report.excluded}
    assert ids == set(sample_dataset.ids())


def test_rank_empty_feasible_set(sample_dataset):
    spec = ConstraintSpec(feasibility_threshold=10)
    result = pipeline_result(sample_dataset, spec)
    # threshold 10 deadlocks at bind time (empty feasible set)
    assert result.aborted
    report = rank(result, sample_dataset)
    assert report.ranking == ()
    assert report.excluded == ()
    assert report.deadlock.deadlocked


def test_rank_identical_candidates_tie_by_id():
    schema = AttributeSchema(("a", "b"))
    cands = (
        Candidate("Z9", (5, 5), 8),
        Candidate("A1", (5, 5), 8),
        Candidate("M5", (2, 2), 8),
    )
    dataset = CandidateDataset(schema, cands)
    spec = ConstraintSpec(feasibility_threshold=5)
    report = rank(pipeline_result(dataset, spec, k=2, seed=1), dataset)
    assert [r.id for r in report.ranking] == ["A1", "Z9", "M5"]


def test_rank_scale_invariance_of_order(sample_dataset, sample_spec):
    rng = random.Random(3)
    result = pipeline_result(sample_dataset, sample_spec)
    names = sample_dataset.schema.names
    for _ in range(60):
        weights = {n: rng.uniform(0.01, 5.0) for n in names}
        factor = rng.uniform(0.001, 1000)
        scaled = {n: w * factor for n, w in weights.items()}
        a = [r.id for r in rank(result, sample_dataset, weights).ranking]
        b = [r.id for r in rank(result, sample_dataset, scaled).ranking]
        assert a == b


def test_rank_monotone_in_ratings():
    rng = random.Random(5)
    for _ in range(40):
        dataset = random_dataset(rng, rng.randint(4, 9), rng.randint(2, 4))
        spec = ConstraintSpec(feasibility_threshold=1)
        result = pipeline_result(dataset, spec, k=2, seed=rng.randrange(2**32))
        report = rank(result, dataset)
        order = [r.id for r in report.ranking]
        target = rng.choice(order)
        cand = dataset.by_id(target)
        attr = rng.randrange(len(dataset.schema.names))
        if cand.ratings[attr] >= 10:
            continue
        bumped = list(cand.ratings)
        bumped[attr] = min(10.0, bumped[attr] + rng.uniform(0.5, 3.0))
        new_cands = tuple(
            Candidate(c.id, tuple(bumped), c.constraints_rating)
            if c.id == target
            else c
            for c in dataset.candidates
        )
        new_dataset = CandidateDataset(dataset.schema, new_cands)
        new_report = rank(
            pipeline_result(new_dataset, spec, k=2, seed=1), new_dataset
        )
        new_order = [r.id for r in new_report.ranking]
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
    a = report_to_dict(report, timestamp="1970-01-01T00:00:00Z")
    b = report_to_dict(report, timestamp="2000-06-15T12:30:00Z")
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


def test_rounding_a_report_body_twice_changes_nothing(monkeypatch):
    # report_to_dict hashes the body it has already rounded; that equals
    # hashing a second rounding only because rounding is idempotent.
    rng = random.Random(11)
    dataset = random_dataset(rng, 300, 5)
    weights = {name: rng.uniform(0.1, 3.0) for name in dataset.schema.names}
    spec = ConstraintSpec(feasibility_threshold=4, distance_weights=weights)
    report = rank(pipeline_result(dataset, spec, k=4, seed=9), dataset, weights)
    monkeypatch.setattr(evaluate, "round_floats", lambda value: value)
    body = report_to_dict(report, timestamp="1970-01-01T00:00:00Z")
    monkeypatch.undo()
    once = round_floats(body)
    assert once != body
    assert round_floats(once) == once
    assert repr(round_floats(once)) == repr(once)
    rounded = report_to_dict(report, timestamp="1970-01-01T00:00:00Z")
    del once["meta"]["report_digest"], rounded["meta"]["report_digest"]
    assert once == rounded
