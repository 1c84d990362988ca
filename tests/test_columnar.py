"""The columnar dataset core against per-candidate reference loops.

Each reference below restates, one candidate at a time, what the library
computes over whole columns: dataset validation, the normalized matrix,
feasibility with its violation records, refinement, deadlock counts and
scores. Hypothesis draws datasets, specs and weights; every comparison is
exact (floats compared by bit pattern).
"""

import math

import pytest

from cbceval.cbc import CBCConfig, CBCResult, refine_micro_clusters
from cbceval.constraints import detect_deadlock, effective_rules, feasibility_partition
from cbceval.errors import DomainError
from cbceval import evaluate
from cbceval.evaluate import rank, round_floats
from cbceval.kmeans import KMeansConfig, weight_vector
from cbceval.model import (
    COMPARATORS,
    AttributeSchema,
    CandidateDataset,
    Clustering,
    ConstraintSpec,
    DeadlockReport,
    ExistentialRule,
    FEASIBLE,
    INFEASIBLE,
    MicroCluster,
    SCALE_MAX,
    SCALE_MIN,
    UserConstraintSpec,
    Violation,
)

from helpers import dataset_from_rows, feasible_and_infeasible

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

PROPERTY = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Generic names plus user_spec fields, so bridged rules get exercised.
NAME_POOL = ("a", "b", "c", "budget_per_instance", "trial_period", "deadline", "total_work")


# --- per-candidate references -------------------------------------------------


def table_rows(dataset):
    """Every row as a plain ``(id, ratings, constraints rating)`` tuple."""
    return list(
        zip(dataset.ids(), map(tuple, dataset.ratings.tolist()), dataset.constraints_ratings.tolist())
    )


def reference_dataset_error(schema, rows):
    """The message the row-by-row validation raises first, or None."""
    seen = set()
    for cid, ratings, constraints_rating in rows:
        if not isinstance(cid, str) or not cid.strip():
            return "candidate id must be a non-empty string"
        if cid != cid.strip() or "\r" in cid:
            return (
                f"candidate id {cid!r} must not start or end with whitespace "
                "or hold a carriage return"
            )
        if cid in seen:
            return f"duplicate candidate id {cid}"
        seen.add(cid)
        if len(ratings) != len(schema.names):
            return (
                f"candidate {cid}: expected {len(schema.names)} ratings, "
                f"got {len(ratings)}"
            )
        for name, r in zip(schema.names, ratings):
            if not SCALE_MIN <= r <= SCALE_MAX:
                return f"candidate {cid}, attribute {name}: rating {r} out of range"
        if not SCALE_MIN <= constraints_rating <= SCALE_MAX:
            return (
                f"candidate {cid}: constraints rating "
                f"{constraints_rating} out of range"
            )
    return None


def reference_violations(ratings, constraints_rating, schema, spec):
    violations = []
    tau = spec.feasibility_threshold
    if constraints_rating < tau:
        violations.append(
            Violation(
                rule="feasibility_threshold",
                attribute="constraints",
                op=">=",
                required=tau,
                observed=constraints_rating,
                message=f"constraints_rating {constraints_rating:g} < {tau:g}",
            )
        )
    for rule in effective_rules(spec, schema):
        if not rule.per_candidate:
            continue
        value = ratings[schema.index_of(rule.attribute)]
        if not rule.satisfied_by(value):
            violations.append(
                Violation(
                    rule=rule.origin or "existential",
                    attribute=rule.attribute,
                    op=rule.op,
                    required=rule.threshold,
                    observed=value,
                    message=f"{rule.attribute} {value:g} violates {rule.op} {rule.threshold:g}",
                )
            )
    return tuple(violations)


def reference_normalized(ratings):
    return [(r - SCALE_MIN) / (SCALE_MAX - SCALE_MIN) for r in ratings]


def reference_score(ratings, schema, weights):
    w = weight_vector(schema, weights)
    values = reference_normalized(ratings)
    return float(sum(wi * v for wi, v in zip(w, values)) / float(w.sum()))


def reference_satisfying(rule, dataset, population):
    idx = dataset.schema.index_of(rule.attribute)
    return sum(
        1
        for cid, ratings, _ in table_rows(dataset)
        if cid in population and rule.satisfied_by(ratings[idx])
    )


def bits(x: float) -> str:
    return float(x).hex()


# --- strategies ---------------------------------------------------------------


@st.composite
def datasets(draw, min_size=0):
    names = tuple(draw(st.lists(st.sampled_from(NAME_POOL), min_size=1, max_size=4, unique=True)))
    lo, hi = SCALE_MIN, SCALE_MAX
    value = st.one_of(
        st.floats(lo, hi, allow_nan=False),
        st.sampled_from((lo, hi, (lo + hi) / 2)),
    )
    n = draw(st.integers(min_size, 25))
    rows = [(f"X{i:02d}", tuple(draw(value) for _ in names), draw(value)) for i in range(n)]
    return dataset_from_rows(AttributeSchema(names), rows)


@st.composite
def specs(draw, schema):
    lo, hi = SCALE_MIN, SCALE_MAX
    value = st.floats(lo - 1, hi + 1, allow_nan=False)
    rules = [
        ExistentialRule(
            draw(st.sampled_from(schema.names)),
            draw(st.sampled_from(COMPARATORS)),
            draw(st.one_of(value, st.sampled_from((lo, hi)))),
            draw(st.integers(0, 5)),
            per_candidate=draw(st.booleans()),
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    user = None
    if draw(st.booleans()):
        amount = st.floats(0.0, max(hi + 1, 1.0), allow_nan=False)
        user = UserConstraintSpec(
            parallel_instances=1,
            max_instances=2,
            total_work=draw(amount),
            min_workload_per_instance=0,
            budget_per_instance=draw(amount),
            deadline=draw(amount),
            budget_class="low",
            trial_period=draw(amount),
        )
    return ConstraintSpec(
        existential=rules,
        feasibility_threshold=draw(value),
        user_spec=user,
    )


@st.composite
def cases(draw, min_size=0):
    dataset = draw(datasets(min_size))
    spec = draw(specs(dataset.schema))
    weights = None
    if draw(st.booleans()):
        weights = {
            name: draw(st.one_of(st.just(0.0), st.floats(0.001, 50.0)))
            for name in dataset.schema.names
        }
        if not any(weights.values()):
            weights[dataset.schema.names[0]] = 1.0
    return dataset, spec, weights


# --- properties ---------------------------------------------------------------


@PROPERTY
@given(cases())
def test_columnar_form_matches_rows_and_is_read_only(case):
    dataset, _, _ = case
    X = dataset.normalized
    assert X.shape == (len(dataset), len(dataset.schema.names))
    rows = table_rows(dataset)
    for row, (_, ratings, _) in zip(X.tolist(), rows):
        assert list(map(bits, row)) == list(map(bits, reference_normalized(ratings)))
    assert dataset.ratings.tolist() == [list(ratings) for _, ratings, _ in rows]
    assert dataset.constraints_ratings.tolist() == [c for _, _, c in rows]
    assert dataset.ids() == tuple(cid for cid, _, _ in rows)
    for array in (dataset.ratings, dataset.normalized, dataset.constraints_ratings):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0.0
    with pytest.raises(TypeError):
        dataset.row_of["new"] = 0


# Mostly on the scale and of the schema's width, so that later rows and whole
# datasets are reached.
RATING = st.sampled_from((0, 0, 0, 0, 1, 2)).flatmap(
    lambda kind: (
        st.floats(SCALE_MIN, SCALE_MAX),
        st.floats(-2.0, 12.0, allow_nan=False),
        st.just(math.nan),
    )[kind]
)
RATINGS = st.sampled_from((2, 2, 2, 2, 1, 3)).flatmap(
    lambda width: st.lists(RATING, min_size=width, max_size=width)
)


@settings(PROPERTY, max_examples=300)
@given(
    st.lists(
        st.tuples(
            # Good ids and duplicates mostly; blank, CSV-unsafe and non-string ids too.
            st.sampled_from(("p", "q", "r", "s") * 6 + ("", "  ", " p", "q\r", 7)),
            RATINGS,
            RATING,
        ),
        max_size=6,
    )
)
def test_dataset_validation_matches_row_by_row(rows):
    # The constructor must raise the reference message or hold the rows as given.
    schema = AttributeSchema(("u", "v"))
    expected = reference_dataset_error(schema, rows)
    ids, ratings, constraints = ([row[i] for row in rows] for i in range(3))
    if expected is None:
        dataset = CandidateDataset(schema, ids, ratings, constraints)
        assert table_rows(dataset) == [(cid, tuple(r), c) for cid, r, c in rows]
    else:
        with pytest.raises(DomainError) as info:
            CandidateDataset(schema, ids, ratings, constraints)
        assert str(info.value) == expected


@PROPERTY
@given(cases())
def test_feasibility_matches_per_candidate_reference(case):
    dataset, spec, _ = case
    expected_feasible = []
    expected_infeasible = []
    for cid, ratings, constraints_rating in table_rows(dataset):
        violations = reference_violations(ratings, constraints_rating, dataset.schema, spec)
        if violations:
            expected_infeasible.append((cid, violations))
        else:
            expected_feasible.append(cid)
    feasible, infeasible = feasible_and_infeasible(dataset, spec)
    assert (feasible, infeasible) == (expected_feasible, expected_infeasible)
    # Rows that fail alike share one tuple: as many objects as distinct tuples.
    found = [violations for _, violations in infeasible]
    assert len({id(v) for v in found}) == len(set(found))


def test_equal_failures_share_one_record():
    # Rows p0..p2 fail the threshold at constraints rating 3, p3 at 4; p0,
    # p1 and p4 fail the rule at u = 2, p2 at u = 1. So p0 and p1 fail
    # alike, and share one tuple.
    schema = AttributeSchema(("u", "v"))
    rows = [
        ("p0", (2.0, 5.0), 3.0),
        ("p1", (2.0, 6.0), 3.0),
        ("p2", (1.0, 7.0), 3.0),
        ("p3", (9.0, 8.0), 4.0),
        ("p4", (2.0, 9.0), 8.0),
        ("p5", (9.0, 9.0), 8.0),
    ]
    rule = ExistentialRule("u", ">=", 3.0, 1, per_candidate=True)
    spec = ConstraintSpec(feasibility_threshold=5.0, existential=(rule,))
    violations = feasibility_partition(dataset_from_rows(schema, rows), spec)
    assert violations == {
        cid: reference_violations(ratings, c, schema, spec) for cid, ratings, c in rows[:5]
    }
    p0, p1, p2, p3, p4 = (violations[f"p{i}"] for i in range(5))
    assert p0[0] is p1[0] is p2[0] and p0[0] is not p3[0]
    assert p0[1] is p1[1] is p4[0] and p0[1] is not p2[1]
    assert p0 is p1 and len({id(p) for p in (p0, p2, p3, p4)}) == 4


@PROPERTY
@given(cases(min_size=1), st.data())
def test_refine_and_recheck_match_reference(case, data):
    dataset, spec, _ = case
    k = data.draw(st.integers(1, 4))
    labels = [data.draw(st.integers(0, k - 1)) for _ in range(len(dataset))]
    clustering = Clustering(
        ids=dataset.ids(),
        labels=labels,
        centroids=tuple((0.0,) * len(dataset.schema.names) for _ in range(k)),
        sse=0.0,
        iterations=0,
        seed=0,
    )
    micro = refine_micro_clusters(clustering, dataset, spec)
    ok = {
        cid: not reference_violations(ratings, c, dataset.schema, spec)
        for cid, ratings, c in table_rows(dataset)
    }
    expected = []
    for j in range(k):
        members = [cid for cid, label in zip(dataset.ids(), labels) if label == j]
        for label, side in ((FEASIBLE, True), (INFEASIBLE, False)):
            chosen = tuple(cid for cid in members if ok[cid] is side)
            if chosen:
                expected.append(MicroCluster(parent=j, label=label, members=chosen))
    assert micro.micro_clusters == tuple(expected)

    population = [cid for cid in dataset.ids() if data.draw(st.booleans())]
    report = detect_deadlock(
        spec, dataset, k, stage="post-refinement", population=population, structural=False
    )
    wanted = set(population)
    expected_counts = [
        count
        for rule in effective_rules(spec, dataset.schema)
        if (count := reference_satisfying(rule, dataset, wanted)) < rule.min_count
    ]
    counts = [
        c.witness["satisfying"] for c in report.causes if c.kind == "existential-unsatisfiable"
    ]
    assert counts == expected_counts
    for cause in report.causes:
        assert cause.witness["population"] == len(wanted)
    empty = not any(ok[cid] for cid in wanted)
    assert any(c.kind == "empty-feasible-set" for c in report.causes) == empty


def rank_one_cluster(dataset, spec, weights):
    clustering = Clustering(
        ids=dataset.ids(),
        labels=[0] * len(dataset),
        centroids=((0.0,) * len(dataset.schema.names),),
        sse=0.0,
        iterations=0,
        seed=0,
    )
    micro = refine_micro_clusters(clustering, dataset, spec)
    result = CBCResult(
        micro, DeadlockReport(), (), spec, CBCConfig(KMeansConfig(k=1, seed=0))
    )
    return micro, rank(result, dataset, weights)


@PROPERTY
@given(cases(min_size=1))
def test_scores_match_per_candidate_reference(case):
    dataset, spec, weights = case
    expected = {
        cid: reference_score(ratings, dataset.schema, weights)
        for cid, ratings, _ in table_rows(dataset)
    }
    # Every row's exact score, the value rank sorts on, matches bit for bit.
    exact = evaluate._weighted_means(dataset.normalized, dataset.schema, weights)
    assert dict(zip(dataset.ids(), map(bits, exact.tolist()))) == {
        cid: bits(score) for cid, score in expected.items()
    }
    # With the threshold at the bottom of the scale and no rules, every
    # candidate is feasible, so every row's reported (rounded) score is checked.
    _, everyone = rank_one_cluster(
        dataset, ConstraintSpec(feasibility_threshold=SCALE_MIN), weights
    )
    assert {r["id"]: bits(r["score"]) for r in everyone["ranking"]} == {
        cid: bits(round_floats(score)) for cid, score in expected.items()
    }
    micro, report = rank_one_cluster(dataset, spec, weights)
    feasible = set(micro.feasible_ids())
    assert [r["id"] for r in report["ranking"]] == sorted(
        feasible, key=lambda cid: (-expected[cid], cid)
    )
    for entry in report["ranking"]:
        assert bits(entry["score"]) == bits(round_floats(expected[entry["id"]]))
        ratings = dataset.ratings[dataset.row_of[entry["id"]]].tolist()
        assert entry["per_attribute"] == round_floats(
            dict(zip(dataset.schema.names, reference_normalized(ratings)))
        )
    assert [e["id"] for e in report["excluded"]] == [
        cid for cid in dataset.ids() if cid not in feasible
    ]


@PROPERTY
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_round_floats_is_idempotent(x):
    once = round_floats(x)
    assert bits(round_floats(once)) == bits(once)
