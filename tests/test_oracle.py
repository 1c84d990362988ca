import dataclasses
import itertools
import random
import warnings

import numpy as np
import pytest

from cbceval.errors import CapacityError
from cbceval.model import AttributeSchema, ConstraintSpec
from cbceval.kmeans import weight_vector
from cbceval.oracle import _components_for, brute_force_feasible_exists, brute_force_min_sse

from helpers import (
    SAMPLE_ROWS,
    assignment_satisfies,
    dataset_from_rows,
    partition_signature,
    random_constraint_spec,
    random_dataset,
    reference_min_sse,
    reference_witness,
    restricted_growth_strings,
    take_rows,
)

# Pinned exhaustive optima for the bundled sample (recomputed below).
OPTIMAL_K2_SSE = 0.7376543209876534
OPTIMAL_K2_SIGNATURE = (0, 0, 1, 0, 0, 0, 1, 1, 1, 0)
OPTIMAL_K3_SSE = 0.4999999999999991


def count_partitions(n, kmax):
    return sum(1 for _ in restricted_growth_strings(n, kmax))


def test_rgs_counts_match_stirling_sums():
    # Bell-number prefixes: sum of Stirling numbers of the second kind
    assert count_partitions(3, 3) == 5
    assert count_partitions(4, 2) == 8  # S(4,1)+S(4,2) = 1+7
    assert count_partitions(10, 2) == 512
    assert count_partitions(10, 3) == 9842


def test_rgs_yields_unique_canonical_partitions():
    seen = set()
    for labels in restricted_growth_strings(6, 3):
        # canonical form: first occurrences appear in increasing label order
        first_seen = []
        for v in labels:
            if v not in first_seen:
                first_seen.append(v)
        assert first_seen == sorted(first_seen)
        partition = frozenset(
            frozenset(i for i, v in enumerate(labels) if v == j) for j in set(labels)
        )
        assert partition not in seen
        seen.add(partition)


def test_two_points_two_clusters():
    schema = AttributeSchema(("a",))
    dataset = dataset_from_rows(schema, [("x", (1,), 5), ("y", (10,), 5)])
    clustering, optimum = brute_force_min_sse(dataset, 2)
    assert optimum == 0.0
    assert clustering.assignment["x"] != clustering.assignment["y"]


def test_pigeonhole_infeasible(sample_dataset):
    sub = take_rows(sample_dataset, range(4))
    ids = sub.ids()
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    spec = ConstraintSpec(cannot_link=pairs, feasibility_threshold=6)
    assert brute_force_min_sse(sub, 3, spec) is None
    exists, witness, reason = brute_force_feasible_exists(spec, sub, 3)
    assert not exists and witness is None
    assert reason == "no assignment of 4 components meets the link and size constraints"


def test_capacity_guard(sample_dataset):
    big = random_dataset(random.Random(0), 13)
    with pytest.raises(CapacityError):
        brute_force_min_sse(big, 2)
    with pytest.raises(CapacityError):
        brute_force_min_sse(sample_dataset, 5)
    with pytest.raises(CapacityError):
        brute_force_feasible_exists(ConstraintSpec(), big, 2)


def test_sample_k2_optimum_pinned_and_recomputed(sample_dataset):
    clustering, optimum = brute_force_min_sse(sample_dataset, 2)
    assert optimum == pytest.approx(OPTIMAL_K2_SSE, abs=1e-12)
    assert partition_signature(clustering.labels) == OPTIMAL_K2_SIGNATURE

    # independent recomputation of the returned partition's SSE
    X = sample_dataset.normalized
    ids = sample_dataset.ids()
    total = 0.0
    for label in (0, 1):
        rows = [i for i, cid in enumerate(ids) if clustering.assignment[cid] == label]
        mu = X[rows].mean(axis=0)
        total += float(((X[rows] - mu) ** 2).sum())
    assert total == pytest.approx(optimum, abs=1e-12)
    assert clustering.sse == pytest.approx(optimum, abs=1e-12)


def test_sample_k3_optimum_pinned(sample_dataset):
    _, optimum = brute_force_min_sse(sample_dataset, 3)
    assert optimum == pytest.approx(OPTIMAL_K3_SSE, abs=1e-12)


def test_optimum_beats_every_explicit_partition():
    rng = random.Random(6)
    dataset = random_dataset(rng, 7, 2)
    _, optimum = brute_force_min_sse(dataset, 3)
    X = dataset.normalized
    for labels in itertools.product(range(3), repeat=7):
        total = 0.0
        for j in range(3):
            rows = [i for i, v in enumerate(labels) if v == j]
            if rows:
                mu = X[rows].mean(axis=0)
                total += float(((X[rows] - mu) ** 2).sum())
        assert optimum <= total + 1e-9


def test_constrained_optimum_never_below_unconstrained(sample_dataset):
    spec = ConstraintSpec(
        must_link=[("T103", "T108")], feasibility_threshold=6
    )
    _, unconstrained = brute_force_min_sse(sample_dataset, 2)
    result = brute_force_min_sse(sample_dataset, 2, spec)
    assert result is not None
    clustering, constrained = result
    assert clustering.assignment["T103"] == clustering.assignment["T108"]
    assert constrained >= unconstrained - 1e-12


def test_must_link_components_collapse_enumeration(sample_dataset):
    # 10 candidates merged into 2 components: only 2 partitions exist at k=2
    ids = sample_dataset.ids()
    left = [(ids[0], x) for x in ids[1:5]]
    right = [(ids[5], x) for x in ids[6:]]
    spec = ConstraintSpec(must_link=left + right, feasibility_threshold=6)
    result = brute_force_min_sse(sample_dataset, 2, spec)
    assert result is not None
    clustering, _ = result
    labels = {clustering.assignment[x] for x in ids[:5]}
    assert len(labels) == 1


def test_empty_spec_witness_satisfies_the_spec(sample_dataset):
    spec = ConstraintSpec(feasibility_threshold=6)
    exists, witness, reason = brute_force_feasible_exists(spec, sample_dataset, 3)
    assert exists
    assert assignment_satisfies(witness, spec, 3) == []
    assert reason == "witness found by exact search over 10 components"


def test_min_size_arithmetic_infeasible(sample_dataset):
    spec = ConstraintSpec(min_cluster_size=4, feasibility_threshold=6)
    exists, witness, _ = brute_force_feasible_exists(spec, sample_dataset, 3)
    assert not exists and witness is None


def test_self_consistency_randomized():
    rng = random.Random(14)
    for _ in range(20):
        dataset = random_dataset(rng, rng.randint(2, 9), rng.randint(1, 3))
        k = rng.randint(1, min(4, len(dataset)))
        clustering, optimum = brute_force_min_sse(dataset, k)
        X = dataset.normalized
        ids = dataset.ids()
        total = 0.0
        for j in range(k):
            rows = [i for i, cid in enumerate(ids) if clustering.assignment[cid] == j]
            if rows:
                mu = X[rows].mean(axis=0)
                total += float(((X[rows] - mu) ** 2).sum())
        assert abs(total - optimum) <= 1e-12


def test_weighted_optimum_uses_spec_weights():
    schema = AttributeSchema(("a", "b"))
    dataset = dataset_from_rows(
        schema,
        [("p", (1, 1), 5), ("q", (1, 10), 5), ("r", (10, 1), 5), ("s", (10, 10), 5)],
    )
    spec = ConstraintSpec(distance_weights={"a": 1.0, "b": 0.0}, feasibility_threshold=5)
    clustering, optimum = brute_force_min_sse(dataset, 2, spec)
    assert optimum == pytest.approx(0.0, abs=1e-15)
    assert clustering.assignment["p"] == clustering.assignment["q"]
    assert clustering.assignment["r"] == clustering.assignment["s"]


def test_optimum_under_a_huge_weight_on_a_constant_attribute(sample_dataset):
    # Every row rates reusability 10 and its weight times n is near the
    # largest float: weighting the squared cluster sums overflowed, and the
    # optimum came out 0.
    rows = [(cid, (10, *ratings[1:]), c) for cid, (ratings, c) in SAMPLE_ROWS.items()]
    dataset = dataset_from_rows(sample_dataset.schema, rows)
    huge = ConstraintSpec(distance_weights={"reusability": 1.7e307})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clustering, optimum = brute_force_min_sse(dataset, 2, huge)
    _, without = brute_force_min_sse(dataset, 2, ConstraintSpec(distance_weights={"reusability": 0.0}))
    assert without > 0.5
    assert optimum == pytest.approx(without, abs=1e-12)
    assert clustering.sse == optimum


def _enumeration_sse(dataset, labels, spec):
    """A partition's SSE as the enumeration scores it: each cluster's
    component sums added in component order, the clusters in label order."""
    X = dataset.normalized
    w = weight_vector(dataset.schema, spec.distance_weights)
    components = _components_for(spec, dataset)
    total = 0.0
    for label in dict.fromkeys(labels):
        sums, squares, count = np.zeros(X.shape[1]), np.zeros(X.shape[1]), 0
        for comp in components:
            if labels[comp[0]] == label:
                sums += X[comp].sum(axis=0)
                squares += (X[comp] ** 2).sum(axis=0)
                count += len(comp)
        total += float((w * (squares - sums**2 / count)).sum())
    return max(total, 0.0)


def test_exact_search_matches_enumeration():
    # Links, size bounds and, in a fifth of the specs, a cannot-link pair
    # inside a must-link component. The verdicts and the SSE bits equal the
    # enumeration's; the partitions too, except on exact ties.
    rng = random.Random(2009)
    feasible = 0
    for case in range(400):
        dataset = random_dataset(rng, rng.randint(1, 8), rng.randint(1, 3))
        spec = random_constraint_spec(rng, dataset, tau=1.0)
        if len(dataset) >= 3 and rng.random() < 0.2:
            a, b, c = rng.sample(dataset.ids(), 3)
            spec = dataclasses.replace(spec, must_link=[(a, b), (b, c)], cannot_link=[(a, c)])
        k = rng.randint(1, 4)
        expected = reference_min_sse(dataset, k, spec)
        result = brute_force_min_sse(dataset, k, spec)
        exists, witness, _ = brute_force_feasible_exists(spec, dataset, k)
        assert (result is None) == (expected is None) == (not exists), case
        assert (reference_witness(spec, dataset, k) is None) == (not exists), case
        if expected is None:
            continue
        feasible += 1
        (clustering, optimum), (reference, reference_optimum) = result, expected
        assert repr(optimum) == repr(reference_optimum) == repr(clustering.sse), case
        # The witness is that partition, labelled in order of first member.
        labels = [witness[cid] for cid in dataset.ids()]
        assert labels == list(clustering.labels) == list(partition_signature(labels)), case
        assert assignment_satisfies(witness, spec, k) == [], case
        if partition_signature(clustering.labels) != partition_signature(reference.labels):
            # An exact tie: the other partition scores the same bits.
            assert _enumeration_sse(dataset, clustering.labels, spec) == optimum, case
    assert feasible > 200
