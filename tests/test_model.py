import random

import pytest

from cbceval.errors import DomainError
from cbceval.model import (
    AttributeSchema,
    Candidate,
    CandidateDataset,
    ConstraintSpec,
    DeadlockCause,
    DeadlockReport,
    ExistentialRule,
    KEY_FEATURES,
    UserConstraintSpec,
    denormalize,
    normalize,
)


def test_schema_rejects_duplicates_and_bad_scale():
    with pytest.raises(DomainError):
        AttributeSchema(("a", "a"))
    with pytest.raises(DomainError):
        AttributeSchema(("a",), scale_min=5, scale_max=5)
    with pytest.raises(DomainError):
        AttributeSchema(())


def test_normalize_bounds():
    schema = AttributeSchema(("a",))
    assert normalize((1,), schema) == (0.0,)
    assert normalize((10,), schema) == (1.0,)


def test_normalize_sample_row():
    schema = AttributeSchema(KEY_FEATURES)
    values = normalize((2, 2, 4, 2, 3, 5), schema)
    expected = (1 / 9, 1 / 9, 3 / 9, 1 / 9, 2 / 9, 4 / 9)
    assert values == pytest.approx(expected, abs=1e-15)


def test_normalize_names_offending_attribute():
    schema = AttributeSchema(("alpha", "beta"))
    with pytest.raises(DomainError, match="beta"):
        normalize((5, 11), schema)


def test_round_trip_on_integer_grid():
    schema = AttributeSchema(("a", "b"), scale_min=1, scale_max=10)
    for x in range(1, 11):
        for y in range(1, 11):
            back = denormalize(normalize((x, y), schema), schema)
            assert back[0] == pytest.approx(x, abs=1e-12)
            assert back[1] == pytest.approx(y, abs=1e-12)


def test_normalize_monotone_per_attribute():
    schema = AttributeSchema(("a",), scale_min=2, scale_max=8)
    rng = random.Random(0)
    for _ in range(200):
        lo = rng.uniform(2, 8)
        hi = rng.uniform(lo, 8)
        assert normalize((lo,), schema)[0] <= normalize((hi,), schema)[0]


def test_dataset_rejects_duplicate_ids_and_bad_ratings():
    schema = AttributeSchema(("a",))
    with pytest.raises(DomainError, match="duplicate"):
        CandidateDataset(schema, (Candidate("x", (5,), 5), Candidate("x", (6,), 5)))
    with pytest.raises(DomainError, match="out of range"):
        CandidateDataset(schema, (Candidate("x", (11,), 5),))
    with pytest.raises(DomainError, match="constraints"):
        CandidateDataset(schema, (Candidate("x", (5,), 0),))


def test_user_spec_invariants():
    base = dict(
        parallel_instances=50,
        max_instances=100,
        total_work=180,
        min_workload_per_instance=48,
        budget_per_instance=5000,
        deadline=30,
        budget_class="medium",
    )
    spec = UserConstraintSpec(**base)
    assert spec.trial_period is None
    with pytest.raises(DomainError, match="parallel_instances"):
        UserConstraintSpec(**{**base, "parallel_instances": 200})
    with pytest.raises(DomainError, match="budget_class"):
        UserConstraintSpec(**{**base, "budget_class": "enormous"})
    with pytest.raises(DomainError, match="budget_confidence"):
        UserConstraintSpec(**{**base, "budget_confidence": 1.5})
    with pytest.raises(DomainError, match="nonnegative"):
        UserConstraintSpec(**{**base, "total_work": -1})


def test_constraint_spec_pair_normalization():
    spec = ConstraintSpec(must_link=[("b", "a"), ("a", "b")])
    assert spec.must_link == (("a", "b"),)


def test_constraint_spec_rejects_conflicting_and_self_pairs():
    with pytest.raises(DomainError, match="both must_link and cannot_link"):
        ConstraintSpec(must_link=[("a", "b")], cannot_link=[("b", "a")])
    with pytest.raises(DomainError, match="itself"):
        ConstraintSpec(cannot_link=[("a", "a")])


def test_constraint_spec_size_and_weight_checks():
    with pytest.raises(DomainError, match="min_cluster_size"):
        ConstraintSpec(min_cluster_size=5, max_cluster_size=2)
    with pytest.raises(DomainError, match="negative"):
        ConstraintSpec(distance_weights={"a": -1})
    with pytest.raises(DomainError, match="positive"):
        ConstraintSpec(distance_weights={"a": 0, "b": 0})


def test_existential_rule_comparators():
    rule = ExistentialRule("a", ">=", 4, 1)
    assert rule.satisfied_by(4) and not rule.satisfied_by(3.9)
    assert ExistentialRule("a", "==", 4, 1).satisfied_by(4)
    with pytest.raises(DomainError):
        ExistentialRule("a", "~=", 4, 1)


def test_deadlock_report_consistency():
    cause = DeadlockCause(kind="link-conflict", detail="x")
    DeadlockReport(deadlocked=True, causes=(cause,))
    with pytest.raises(DomainError):
        DeadlockReport(deadlocked=True, causes=())
    with pytest.raises(DomainError):
        DeadlockReport(deadlocked=False, causes=(cause,))
