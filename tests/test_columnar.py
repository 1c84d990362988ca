"""The columnar dataset core against per-candidate reference loops.

Each reference below restates, one candidate at a time, what the library
computes over whole columns: dataset validation, the normalized matrix,
feasibility with its violation records, refinement, deadlock counts and
scores. Hypothesis draws datasets, specs and weights; every comparison is
exact (floats compared by bit pattern).
"""

import pytest

from cbceval.cbc import CBCResult, refine_micro_clusters
from cbceval.constraints import (
    detect_deadlock,
    effective_rules,
    feasibility_partition,
    object_feasible,
)
from cbceval.errors import DomainError
from cbceval.evaluate import rank, round_floats, score_candidate
from cbceval.kmeans import normalized_matrix, weight_vector
from cbceval.model import (
    COMPARATORS,
    AttributeSchema,
    Candidate,
    CandidateDataset,
    Clustering,
    ConstraintSpec,
    DeadlockReport,
    ExistentialRule,
    FEASIBLE,
    INFEASIBLE,
    MicroCluster,
    UserConstraintSpec,
    Violation,
    normalize,
)

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


def reference_dataset_error(schema, candidates):
    """The message the row-by-row validation raises first, or None."""
    seen = set()
    for cand in candidates:
        if cand.id in seen:
            return f"duplicate candidate id {cand.id}"
        seen.add(cand.id)
        if len(cand.ratings) != len(schema.names):
            return (
                f"candidate {cand.id}: expected {len(schema.names)} ratings, "
                f"got {len(cand.ratings)}"
            )
        for name, r in zip(schema.names, cand.ratings):
            if not schema.scale_min <= r <= schema.scale_max:
                return f"candidate {cand.id}, attribute {name}: rating {r} out of range"
        if not schema.scale_min <= cand.constraints_rating <= schema.scale_max:
            return (
                f"candidate {cand.id}: constraints rating "
                f"{cand.constraints_rating} out of range"
            )
    return None


def reference_violations(candidate, schema, spec):
    violations = []
    tau = spec.feasibility_threshold
    if candidate.constraints_rating < tau:
        violations.append(
            Violation(
                rule="feasibility_threshold",
                attribute="constraints",
                op=">=",
                required=tau,
                observed=candidate.constraints_rating,
                message=f"constraints_rating {candidate.constraints_rating:g} < {tau:g}",
            )
        )
    for rule in effective_rules(spec, schema):
        if not rule.per_candidate:
            continue
        value = candidate.ratings[schema.index_of(rule.attribute)]
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


def reference_score(candidate, schema, weights):
    w = weight_vector(schema, weights)
    values = normalize(candidate.ratings, schema)
    return float(sum(wi * v for wi, v in zip(w, values)) / float(w.sum()))


def reference_satisfying(rule, dataset, population):
    idx = dataset.schema.index_of(rule.attribute)
    return sum(
        1
        for c in dataset.candidates
        if c.id in population and rule.satisfied_by(c.ratings[idx])
    )


def bits(x: float) -> str:
    return float(x).hex()


# --- strategies ---------------------------------------------------------------


@st.composite
def datasets(draw, min_size=0):
    names = tuple(draw(st.lists(st.sampled_from(NAME_POOL), min_size=1, max_size=4, unique=True)))
    lo = draw(st.sampled_from((1.0, 0.0, -3.5)))
    hi = lo + draw(st.sampled_from((9.0, 1.0, 100.0, 0.3)))
    value = st.one_of(
        st.floats(lo, hi, allow_nan=False),
        st.sampled_from((lo, hi, (lo + hi) / 2)),
    )
    n = draw(st.integers(min_size, 25))
    candidates = tuple(
        Candidate(f"X{i:02d}", tuple(draw(value) for _ in names), draw(value))
        for i in range(n)
    )
    return CandidateDataset(AttributeSchema(names, scale_min=lo, scale_max=hi), candidates)


@st.composite
def specs(draw, schema):
    lo, hi = schema.scale_min, schema.scale_max
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
    X = normalized_matrix(dataset)
    assert X.shape == (len(dataset), len(dataset.schema.names))
    for row, cand in zip(X.tolist(), dataset.candidates):
        assert list(map(bits, row)) == list(map(bits, normalize(cand.ratings, dataset.schema)))
    assert dataset.ratings.tolist() == [list(c.ratings) for c in dataset.candidates]
    assert dataset.constraints_ratings.tolist() == [c.constraints_rating for c in dataset.candidates]
    assert dataset.ids() == tuple(c.id for c in dataset.candidates)
    for array in (dataset.ratings, dataset.normalized, dataset.constraints_ratings):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0.0
    with pytest.raises(TypeError):
        dataset.row_of["new"] = 0


@PROPERTY
@given(
    st.lists(
        st.tuples(
            st.sampled_from(("p", "q", "r", "s")),
            st.lists(st.floats(-2.0, 12.0, allow_nan=False), min_size=1, max_size=3),
            st.floats(-2.0, 12.0, allow_nan=False),
        ),
        max_size=6,
    )
)
def test_dataset_validation_matches_row_by_row(rows):
    schema = AttributeSchema(("u", "v"))
    candidates = tuple(Candidate(cid, ratings, c) for cid, ratings, c in rows)
    expected = reference_dataset_error(schema, candidates)
    if expected is None:
        CandidateDataset(schema, candidates)
    else:
        with pytest.raises(DomainError) as info:
            CandidateDataset(schema, candidates)
        assert str(info.value) == expected


@PROPERTY
@given(cases())
def test_feasibility_matches_per_candidate_reference(case):
    dataset, spec, _ = case
    expected_feasible = []
    expected_infeasible = []
    for cand in dataset.candidates:
        violations = reference_violations(cand, dataset.schema, spec)
        assert object_feasible(cand, dataset.schema, spec) == (not violations, violations)
        if violations:
            expected_infeasible.append((cand.id, violations))
        else:
            expected_feasible.append(cand.id)
    assert feasibility_partition(dataset, spec) == (expected_feasible, expected_infeasible)


@PROPERTY
@given(cases(min_size=1), st.data())
def test_refine_and_recheck_match_reference(case, data):
    dataset, spec, _ = case
    k = data.draw(st.integers(1, 4))
    labels = [data.draw(st.integers(0, k - 1)) for _ in dataset.candidates]
    clustering = Clustering(
        k=k,
        assignment=dict(zip(dataset.ids(), labels)),
        centroids=tuple((0.0,) * len(dataset.schema.names) for _ in range(k)),
        sse=0.0,
        iterations=0,
        seed=0,
    )
    micro = refine_micro_clusters(clustering, dataset, spec)
    ok = {c.id: not reference_violations(c, dataset.schema, spec) for c in dataset.candidates}
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


@PROPERTY
@given(cases(min_size=1))
def test_scores_match_per_candidate_reference(case):
    dataset, spec, weights = case
    clustering = Clustering(
        k=1,
        assignment={cid: 0 for cid in dataset.ids()},
        centroids=((0.0,) * len(dataset.schema.names),),
        sse=0.0,
        iterations=0,
        seed=0,
    )
    micro = refine_micro_clusters(clustering, dataset, spec)
    result = CBCResult(clustering, micro, DeadlockReport(deadlocked=False), (), spec)
    report = rank(result, dataset, weights)
    expected = {c.id: reference_score(c, dataset.schema, weights) for c in dataset.candidates}
    for cand in dataset.candidates:
        assert bits(score_candidate(cand, dataset.schema, weights)) == bits(expected[cand.id])
    feasible = set(micro.feasible_ids())
    assert [r.id for r in report.ranking] == sorted(feasible, key=lambda cid: (-expected[cid], cid))
    for entry in report.ranking:
        assert bits(entry.score) == bits(expected[entry.id])
        cand = dataset.by_id(entry.id)
        assert entry.per_attribute == dict(
            zip(dataset.schema.names, normalize(cand.ratings, dataset.schema))
        )
    assert [cid for cid, _ in report.excluded] == [
        cid for cid in dataset.ids() if cid not in feasible
    ]


@PROPERTY
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_round_floats_is_idempotent(x):
    once = round_floats(x)
    assert bits(round_floats(once)) == bits(once)
