import random

import numpy as np
import pytest

from cbceval.errors import DomainError
from cbceval.model import (
    AttributeSchema,
    CandidateDataset,
    Clustering,
    ConstraintSpec,
    DeadlockCause,
    DeadlockReport,
    ExistentialRule,
    FEASIBLE,
    INFEASIBLE,
    KEY_FEATURES,
    MicroCluster,
    MicroClustering,
    SCALE_MAX,
    SCALE_MIN,
    UserConstraintSpec,
    Violation,
)


def test_schema_rejects_duplicates_and_no_attributes():
    with pytest.raises(DomainError):
        AttributeSchema(("a", "a"))
    with pytest.raises(DomainError):
        AttributeSchema(())


def normalized_rows(schema, *rows):
    ids = [f"x{i}" for i in range(len(rows))]
    return CandidateDataset(schema, ids, rows, [SCALE_MAX] * len(rows)).normalized.tolist()


def test_normalize_bounds():
    assert normalized_rows(AttributeSchema(("a",)), (1,), (10,)) == [[0.0], [1.0]]


def test_normalize_sample_row():
    [values] = normalized_rows(AttributeSchema(KEY_FEATURES), (2, 2, 4, 2, 3, 5))
    expected = (1 / 9, 1 / 9, 3 / 9, 1 / 9, 2 / 9, 4 / 9)
    assert values == pytest.approx(expected, abs=1e-15)


def test_normalize_names_offending_attribute():
    schema = AttributeSchema(("alpha", "beta"))
    with pytest.raises(DomainError, match="attribute beta: rating 11.0 out of range"):
        normalized_rows(schema, (5, 11))


def test_normalize_monotone_per_attribute():
    schema = AttributeSchema(("a",))
    rng = random.Random(0)
    for _ in range(200):
        lo = rng.uniform(SCALE_MIN, SCALE_MAX)
        hi = rng.uniform(lo, SCALE_MAX)
        [[low], [high]] = normalized_rows(schema, (lo,), (hi,))
        assert low <= high


def test_dataset_rejects_duplicate_ids_and_bad_ratings():
    schema = AttributeSchema(("a",))
    with pytest.raises(DomainError, match="duplicate"):
        CandidateDataset(schema, ["x", "x"], [(5,), (6,)], [5, 5])
    with pytest.raises(DomainError, match="out of range"):
        CandidateDataset(schema, ["x"], [(11,)], [5])
    with pytest.raises(DomainError, match="constraints"):
        CandidateDataset(schema, ["x"], [(5,)], [0])


def test_dataset_rejects_ragged_columns_and_blank_ids():
    schema = AttributeSchema(("a",))
    with pytest.raises(DomainError, match="differ in length"):
        CandidateDataset(schema, ["x", "y"], [[5]], [5, 5])
    with pytest.raises(DomainError, match="non-empty string"):
        CandidateDataset(schema, ["x", " "], [[5], [6]], [5, 5])


def test_dataset_cuts_long_ids_in_errors():
    schema = AttributeSchema(("a",))
    long_id = "x" * 5000
    with pytest.raises(DomainError) as info:
        CandidateDataset(schema, [long_id, long_id], [[5], [6]], [5, 5])
    assert str(info.value) == f"duplicate candidate id {'x' * 40}... (5000 characters)"
    with pytest.raises(DomainError) as info:
        CandidateDataset(schema, [" " + long_id], [[5]], [5])
    assert str(info.value) == (
        f"candidate id ' {'x' * 38}... (5003 characters) "
        "must not start or end with whitespace or hold a carriage return"
    )
    with pytest.raises(DomainError) as info:
        AttributeSchema(("a", " " + "n" * 999))
    assert str(info.value) == (
        f"attribute name ' {'n' * 38}... (1002 characters) "
        "must not start or end with whitespace or hold a carriage return"
    )
    with pytest.raises(DomainError) as info:
        schema.index_of("m" * 1000)
    assert str(info.value) == f"unknown attribute '{'m' * 39}... (1002 characters)"
    # Only an 11-character name can name the constraints column: never cut.
    with pytest.raises(DomainError) as info:
        AttributeSchema(("a", "Constraints"))
    assert str(info.value) == "attribute name 'Constraints' names the constraints column"


LONG_ID = "x" * 5000
CUT_ID = f"{'x' * 40}... (5000 characters)"


@pytest.mark.parametrize(
    "ratings, constraints, message",
    [
        ([[5, 5]], [5], "candidate {}: expected 1 ratings, got 2"),
        ([[11]], [5], "candidate {}, attribute a: rating 11.0 out of range"),
        ([[5]], [0], "candidate {}: constraints rating 0.0 out of range"),
    ],
    ids=["width", "rating", "constraints"],
)
def test_dataset_cuts_long_ids_in_row_errors(ratings, constraints, message):
    schema = AttributeSchema(("a",))
    with pytest.raises(DomainError) as info:
        CandidateDataset(schema, [LONG_ID], ratings, constraints)
    assert str(info.value) == message.format(CUT_ID)
    assert len(str(info.value)) < 300
    # an id of 40 characters or fewer reads as before
    with pytest.raises(DomainError) as info:
        CandidateDataset(schema, ["x" * 40], ratings, constraints)
    assert str(info.value) == message.format("x" * 40)


def test_clusterings_cut_long_ids_in_errors():
    fields = dict(centroids=((0.0,),), sse=0.0, iterations=0, seed=0)
    for cid, shown in ((LONG_ID, CUT_ID), ("x" * 40, "x" * 40)):
        with pytest.raises(DomainError) as info:
            Clustering(ids=(cid,), labels=(1,), **fields)
        assert str(info.value) == f"candidate {shown} assigned to invalid cluster 1"
        parent = Clustering(ids=(cid,), labels=(0,), **fields)
        with pytest.raises(DomainError) as info:
            MicroClustering(parent, {cid: ()})
        assert str(info.value) == f"candidate {shown} has an empty violation record"
        with pytest.raises(DomainError) as info:
            MicroClustering(parent, {cid + "y": ()})
        assert len(str(info.value)) < 300


def test_dataset_takes_arrays_as_lists():
    schema = AttributeSchema(("a", "b"))
    rows = [[1.0, 2.5], [10.0, 3.0], [4.0, 7.25]]
    from_lists = CandidateDataset(schema, ["x", "y", "z"], rows, [5, 6, 7])
    # A transposed view holds the same rows; the dataset keeps its own C-order copy.
    columns = np.array(rows).T.copy()
    from_arrays = CandidateDataset(schema, ["x", "y", "z"], columns.T, np.array([5.0, 6.0, 7.0]))
    assert from_arrays == from_lists
    assert from_arrays.ratings.flags.c_contiguous
    assert columns.flags.writeable
    with pytest.raises(DomainError, match="candidate x: expected 2 ratings, got 3"):
        CandidateDataset(schema, ["x"], np.ones((1, 3)), [5])


def test_clustering_labels_follow_ids():
    schema = AttributeSchema(("a",))
    dataset = CandidateDataset(schema, ["x", "y"], [(1,), (10,)], [5, 5])
    fields = dict(centroids=((0.0,), (1.0,)), sse=0.0, iterations=1, seed=0)
    clustering = Clustering(ids=dataset.ids(), labels=[1, 0], **fields)
    assert clustering.ids == ("x", "y")
    assert clustering.labels.dtype == np.int64
    assert clustering.labels.tolist() == [1, 0]
    assert clustering.centroids.dtype == np.float64
    assert clustering.centroids.tolist() == [[0.0], [1.0]]
    assert (clustering.sse, clustering.iterations, clustering.seed) == (0.0, 1, 0)
    assert clustering.k == 2
    assert clustering.assignment == {"x": 1, "y": 0}
    clustering.check_rows(dataset)
    reordered = CandidateDataset(schema, ["y", "x"], [(10,), (1,)], [5, 5])
    with pytest.raises(DomainError, match="does not cover"):
        clustering.check_rows(reordered)
    with pytest.raises(DomainError, match="expected 2 labels, got 1"):
        Clustering(ids=dataset.ids(), labels=[0], **fields)
    with pytest.raises(DomainError, match="candidate y assigned to invalid cluster 2"):
        Clustering(ids=dataset.ids(), labels=[0, 2], **fields)
    with pytest.raises(DomainError, match="candidate y assigned to invalid cluster 2"):
        Clustering(ids=dataset.ids(), labels=np.array([0, 2]), **fields)
    with pytest.raises(DomainError, match="k must be at least 1, got 0"):
        Clustering(ids=(), labels=(), **{**fields, "centroids": ()})
    # A label must be an integer: a fraction is not cut to one, and a text
    # is not read as a number. The first such candidate is named.
    for labels, message in (
        ((1.5, 0), "candidate x assigned to invalid cluster 1.5"),
        ((0, 1.5), "candidate y assigned to invalid cluster 1.5"),
        ((0, "1"), "candidate y assigned to invalid cluster '1'"),
        (("a", 0), "candidate x assigned to invalid cluster 'a'"),
        ((0, None), "candidate y assigned to invalid cluster None"),
        ((5, 0.5), "candidate x assigned to invalid cluster 5"),
    ):
        with pytest.raises(DomainError) as info:
            Clustering(ids=dataset.ids(), labels=labels, **fields)
        assert str(info.value) == message
    # The error names the label as given, however long.
    with pytest.raises(DomainError) as info:
        Clustering(ids=dataset.ids(), labels=(0, "z" * 1000), **fields)
    assert len(str(info.value)) < 300


def test_clustering_holds_read_only_copies():
    labels, centroids = np.array([1, 0, 1]), np.array([[0.0, 0.5], [1.0, 0.25]])
    clustering = Clustering(
        ids=("x", "y", "z"), labels=labels, centroids=centroids, sse=0.0, iterations=1, seed=0
    )
    labels[0], centroids[0, 0] = 0, 9.0
    assert clustering.labels.tolist() == [1, 0, 1]
    assert clustering.centroids.tolist() == [[0.0, 0.5], [1.0, 0.25]]
    for array in (clustering.labels, clustering.centroids):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert [type(label) for label in clustering.assignment.values()] == [int, int, int]
    # Labels of any integer type are stored as int64.
    narrow = Clustering(
        ids=("x", "y", "z"), labels=labels.astype(np.uint8), centroids=centroids, sse=0.0,
        iterations=1, seed=0,
    )
    assert narrow.labels.dtype == np.int64
    assert narrow.labels.tolist() == [0, 0, 1]


def test_micro_clustering_is_its_violations_map():
    parent = Clustering(
        ids=("x", "y"), labels=(0, 0), centroids=((0.0,),), sse=0.0, iterations=0, seed=0
    )
    violation = Violation("feasibility_threshold", "constraints", ">=", 6.0, 3.0, "3 < 6")
    micro = MicroClustering(parent, {"y": (violation,)})
    assert micro.feasible_ids() == ("x",)
    assert micro.micro_clusters == (
        MicroCluster(parent=0, label=FEASIBLE, members=("x",)),
        MicroCluster(parent=0, label=INFEASIBLE, members=("y",)),
    )
    assert micro.micro_clusters is micro.micro_clusters
    with pytest.raises(DomainError, match="not a candidate of the parent"):
        MicroClustering(parent, {"z": (violation,)})
    with pytest.raises(DomainError, match="empty violation record"):
        MicroClustering(parent, {"y": ()})


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


def test_existential_rule_comparators():
    rule = ExistentialRule("a", ">=", 4, 1)
    assert rule.satisfied_by(4) and not rule.satisfied_by(3.9)
    assert ExistentialRule("a", "==", 4, 1).satisfied_by(4)
    with pytest.raises(DomainError):
        ExistentialRule("a", "~=", 4, 1)


def test_deadlock_report_consistency():
    cause = DeadlockCause(kind="link-conflict", detail="x")
    assert DeadlockReport(causes=(cause,)).deadlocked
    assert not DeadlockReport(causes=()).deadlocked
    assert not DeadlockReport(warnings=("w",)).deadlocked


def test_dataset_pickles_and_copies_with_its_columnar_form():
    import copy
    import pickle

    schema = AttributeSchema(("a", "b"))
    dataset = CandidateDataset(schema, ["x", "y"], [(1, 4), (10, 5.5)], [2, 9])
    for clone in (pickle.loads(pickle.dumps(dataset)), copy.deepcopy(dataset), copy.copy(dataset)):
        assert clone == dataset
        assert clone.normalized.tolist() == dataset.normalized.tolist()
        assert not clone.normalized.flags.writeable
        assert clone.row_of == dataset.row_of
        assert clone.ratings[clone.row_of["y"]].tolist() == [10.0, 5.5]
        assert clone.constraints_ratings[clone.row_of["y"]] == 9.0
