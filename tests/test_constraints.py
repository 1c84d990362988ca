import random

import pytest

from cbceval.constraints import (
    build_link_components,
    detect_deadlock,
    feasibility_partition,
    must_link_path,
    object_feasible,
    user_spec_rules,
)
from cbceval.errors import DomainError
from cbceval.model import (
    AttributeSchema,
    Candidate,
    CandidateDataset,
    ConstraintSpec,
    ExistentialRule,
    UserConstraintSpec,
)
from cbceval.oracle import brute_force_feasible_exists

from helpers import (
    FEASIBLE_AT_6,
    INFEASIBLE_AT_6,
    random_constraint_spec,
    random_dataset,
)


def spec_at(tau=6, **kwargs):
    return ConstraintSpec(feasibility_threshold=tau, **kwargs)


def test_components_transitive(sample_dataset):
    spec = spec_at(must_link=[("T100", "T101"), ("T101", "T102")])
    components = build_link_components(spec, sample_dataset)
    idx = components.component_of
    assert idx["T100"] == idx["T101"] == idx["T102"]
    assert ("T100", "T101", "T102") in components.components


def test_components_empty_spec_all_singletons(sample_dataset):
    components = build_link_components(spec_at(), sample_dataset)
    assert len(components.components) == 10
    assert all(len(c) == 1 for c in components.components)


def test_components_lifted_cannot_link(sample_dataset):
    spec = spec_at(must_link=[("T103", "T107")], cannot_link=[("T103", "T108")])
    components = build_link_components(spec, sample_dataset)
    merged = components.component_of["T103"]
    assert components.component_of["T107"] == merged
    other = components.component_of["T108"]
    assert components.lifted_cannot_link == ((min(merged, other), max(merged, other)),)
    assert components.conflicts == ()


def test_components_reject_unknown_ids(sample_dataset):
    with pytest.raises(DomainError, match="unknown id"):
        build_link_components(spec_at(must_link=[("T100", "T999")]), sample_dataset)


def test_must_link_path_witness():
    spec = spec_at(must_link=[("a", "b"), ("b", "c"), ("c", "d")])
    assert must_link_path(spec, "a", "d") == ["a", "b", "c", "d"]


def test_object_feasible_threshold(sample_dataset):
    t103 = sample_dataset.by_id("T103")
    ok, violations = object_feasible(t103, sample_dataset.schema, spec_at(6))
    assert ok and violations == ()

    t102 = sample_dataset.by_id("T102")
    ok, violations = object_feasible(t102, sample_dataset.schema, spec_at(6))
    assert not ok
    assert violations[0].message == "constraints_rating 3 < 6"
    assert violations[0].observed == 3 and violations[0].required == 6


def test_vacuous_threshold_accepts_everyone(sample_dataset):
    for cand in sample_dataset.candidates:
        ok, _ = object_feasible(cand, sample_dataset.schema, spec_at(1))
        assert ok


def test_feasibility_partition_fixture(sample_dataset):
    feasible, infeasible = feasibility_partition(sample_dataset, spec_at(6))
    assert feasible == FEASIBLE_AT_6
    assert [cid for cid, _ in infeasible] == INFEASIBLE_AT_6
    assert all(violations for _, violations in infeasible)


def test_feasibility_partition_scale_max(sample_dataset):
    feasible, infeasible = feasibility_partition(sample_dataset, spec_at(10))
    assert feasible == []
    assert len(infeasible) == 10


def test_feasibility_partition_empty_dataset():
    dataset = CandidateDataset(AttributeSchema(("a",)), ())
    feasible, infeasible = feasibility_partition(dataset, spec_at(6))
    assert feasible == [] and infeasible == []


def test_feasibility_partition_is_partition(sample_dataset):
    rng = random.Random(2)
    for _ in range(50):
        tau = rng.randint(1, 10)
        feasible, infeasible = feasibility_partition(sample_dataset, spec_at(tau))
        names = feasible + [cid for cid, _ in infeasible]
        assert set(names) == set(sample_dataset.ids())
        assert len(names) == len(sample_dataset)
        # order stability: both lists follow dataset order
        order = {cid: i for i, cid in enumerate(sample_dataset.ids())}
        assert feasible == sorted(feasible, key=order.get)


def user_spec_fixture(**overrides):
    base = dict(
        parallel_instances=50,
        max_instances=100,
        total_work=180,
        min_workload_per_instance=48,
        budget_per_instance=5000,
        deadline=30,
        budget_class="medium",
        trial_period=7,
    )
    base.update(overrides)
    return UserConstraintSpec(**base)


def test_user_spec_rules_bridge_matching_columns():
    schema = AttributeSchema(("budget_per_instance", "trial_period", "quality"))
    spec = ConstraintSpec(user_spec=user_spec_fixture())
    rules = user_spec_rules(spec, schema)
    by_attr = {r.attribute: r for r in rules}
    assert set(by_attr) == {"budget_per_instance", "trial_period"}
    assert by_attr["budget_per_instance"].op == "<="  # cost cap
    assert by_attr["trial_period"].op == ">="  # capacity demand
    assert all(r.per_candidate and r.min_count == 1 for r in rules)


def test_user_spec_rules_gate_candidates():
    schema = AttributeSchema(
        ("budget_per_instance", "quality"), scale_min=0, scale_max=10000
    )
    cheap = Candidate("cheap", (4000, 8), 9000)
    pricey = Candidate("pricey", (7000, 9), 9000)
    dataset = CandidateDataset(schema, (cheap, pricey))
    spec = ConstraintSpec(user_spec=user_spec_fixture(), feasibility_threshold=5)
    ok_cheap, _ = object_feasible(cheap, schema, spec)
    ok_pricey, violations = object_feasible(pricey, schema, spec)
    assert ok_cheap
    assert not ok_pricey
    assert violations[0].rule == "user_spec.budget_per_instance"


def test_user_spec_without_matching_columns_changes_nothing(sample_dataset):
    plain = spec_at(6)
    with_user = ConstraintSpec(
        feasibility_threshold=6, user_spec=user_spec_fixture()
    )
    assert feasibility_partition(sample_dataset, plain) == feasibility_partition(
        sample_dataset, with_user
    )


def test_deadlock_size_arithmetic(sample_dataset):
    report = detect_deadlock(spec_at(min_cluster_size=4), sample_dataset, 3)
    assert report.deadlocked
    assert report.causes[0].kind == "size-arithmetic"
    w = report.causes[0].witness
    assert w["k"] * w["min_cluster_size"] > w["candidates"]


def test_deadlock_link_conflict_witness(sample_dataset):
    spec = spec_at(
        must_link=[("T100", "T101"), ("T101", "T102")],
        cannot_link=[("T100", "T102")],
    )
    report = detect_deadlock(spec, sample_dataset, 3)
    assert report.deadlocked
    cause = next(c for c in report.causes if c.kind == "link-conflict")
    path = cause.witness["path"]
    assert path == ["T100", "T101", "T102"]
    # replay the witness: consecutive hops are must-link pairs and the
    # endpoints are the cannot-link pair
    pairs = set(spec.must_link)
    for a, b in zip(path, path[1:]):
        assert (min(a, b), max(a, b)) in pairs
    assert sorted(cause.witness["cannot_link"]) == [path[0], path[-1]]


def test_deadlock_component_exceeds_max(sample_dataset):
    spec = spec_at(
        must_link=[("T100", "T101"), ("T101", "T102")], max_cluster_size=2
    )
    report = detect_deadlock(spec, sample_dataset, 3)
    assert report.deadlocked
    assert any(
        c.kind == "size-arithmetic" and "component" in c.witness for c in report.causes
    )


def test_deadlock_coloring_rule(sample_dataset):
    ids = ["T100", "T101", "T102"]
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    report = detect_deadlock(spec_at(cannot_link=pairs), sample_dataset, 2)
    assert report.deadlocked
    assert any(c.kind == "link-conflict" for c in report.causes)


def test_deadlock_size_link_interaction(sample_dataset):
    # Sizes and links jointly infeasible though no single quick rule fires:
    # component of 2 plus two mutually cannot-linked singletons, k=2, max=2.
    spec = spec_at(
        must_link=[("T100", "T101")],
        cannot_link=[("T102", "T103")],
        max_cluster_size=2,
    )
    sub = CandidateDataset(sample_dataset.schema, sample_dataset.candidates[:4])
    report = detect_deadlock(spec, sub, 2)
    assert report.deadlocked
    exists, _, _ = brute_force_feasible_exists(spec, sub, 2)
    assert not exists


def test_deadlock_existential_rule(sample_dataset):
    # availability >= 4 holds for exactly 6 candidates
    ok_rule = ExistentialRule("availability", ">=", 4, 3)
    report = detect_deadlock(spec_at(existential=[ok_rule]), sample_dataset, 3)
    assert not report.deadlocked

    bad_rule = ExistentialRule("availability", ">=", 4, 7)
    report = detect_deadlock(spec_at(existential=[bad_rule]), sample_dataset, 3)
    assert report.deadlocked
    cause = report.causes[0]
    assert cause.kind == "existential-unsatisfiable"
    assert cause.witness["satisfying"] == 6


def test_deadlock_empty_feasible_set(sample_dataset):
    report = detect_deadlock(spec_at(10), sample_dataset, 3)
    assert report.deadlocked
    assert report.causes[0].kind == "empty-feasible-set"


def test_deadlock_clean_fixture(sample_dataset, sample_spec):
    report = detect_deadlock(sample_spec, sample_dataset, 3)
    assert not report.deadlocked
    assert report.causes == ()
    assert report.stage == "bind"


def test_deadlock_population_restriction(sample_dataset):
    # pay_per_use >= 5: five candidates overall, but only T100 and T107 among
    # the tau=6 feasible set.
    rule = ExistentialRule("pay_per_use", ">=", 5, 4)
    full = detect_deadlock(spec_at(existential=[rule]), sample_dataset, 3)
    assert not full.deadlocked
    narrowed = detect_deadlock(
        spec_at(existential=[rule]),
        sample_dataset,
        3,
        stage="post-refinement",
        population=FEASIBLE_AT_6,
        structural=False,
    )
    assert narrowed.deadlocked
    assert narrowed.stage == "post-refinement"
    assert narrowed.causes[0].witness["satisfying"] == 2


def test_deadlock_witnesses_revalidate(sample_dataset):
    rng = random.Random(21)
    for _ in range(120):
        dataset = random_dataset(rng, rng.randint(2, 8), rng.randint(1, 3))
        spec = random_constraint_spec(rng, dataset, rules=True)
        k = rng.randint(1, 3)
        report = detect_deadlock(spec, dataset, k)
        for cause in report.causes:
            w = cause.witness
            if cause.kind == "size-arithmetic" and "min_cluster_size" in w and "k" in w:
                if "candidates" in w:
                    assert (
                        w["k"] * w["min_cluster_size"] > w["candidates"]
                        or w.get("component_sizes") is not None
                    )
            if cause.kind == "link-conflict" and "path" in w:
                pairs = set(spec.must_link)
                path = w["path"]
                for a, b in zip(path, path[1:]):
                    assert (min(a, b), max(a, b)) in pairs
                cl = tuple(sorted(w["cannot_link"]))
                assert cl in spec.cannot_link
            if cause.kind == "existential-unsatisfiable":
                idx = dataset.schema.index_of(w["attribute"])
                rule = ExistentialRule(w["attribute"], w["op"], w["threshold"], w["min_count"])
                count = sum(
                    1 for c in dataset.candidates if rule.satisfied_by(c.ratings[idx])
                )
                assert count == w["satisfying"] < w["min_count"]
            if cause.kind == "empty-feasible-set":
                assert all(
                    not object_feasible(c, dataset.schema, spec)[0]
                    for c in dataset.candidates
                )


def test_deadlock_agrees_with_oracle_randomized():
    rng = random.Random(99)
    for _ in range(150):
        dataset = random_dataset(rng, rng.randint(2, 8), rng.randint(1, 3))
        spec = random_constraint_spec(rng, dataset, rules=True)
        k = rng.randint(1, 3)
        report = detect_deadlock(spec, dataset, k)
        exists, witness, _ = brute_force_feasible_exists(spec, dataset, k)
        assert report.deadlocked == (not exists)
        if witness is not None:
            for a, b in spec.must_link:
                assert witness[a] == witness[b]
            for a, b in spec.cannot_link:
                assert witness[a] != witness[b]


SIZE_WARNING = "size and link constraint interaction not exhaustively checked"


def twenty_candidates():
    rng = random.Random(20)
    return random_dataset(rng, 20, 2)


def test_size_only_spec_satisfiable_without_warning():
    # All-singleton components and no cannot-link: k*min <= n <= k*max is exact.
    report = detect_deadlock(
        spec_at(1, min_cluster_size=5, max_cluster_size=5), twenty_candidates(), 4
    )
    assert not report.deadlocked
    assert not any(w.startswith(SIZE_WARNING) for w in report.warnings)
    report = detect_deadlock(spec_at(1, max_cluster_size=7), twenty_candidates(), 3)
    assert not report.deadlocked and report.warnings == ()


def test_size_only_spec_unsatisfiable_without_warning():
    report = detect_deadlock(spec_at(1, min_cluster_size=6), twenty_candidates(), 4)
    assert report.deadlocked
    assert [c.kind for c in report.causes] == ["size-arithmetic"]
    assert report.warnings == ()
    report = detect_deadlock(spec_at(1, max_cluster_size=6), twenty_candidates(), 3)
    assert [c.kind for c in report.causes] == ["size-arithmetic"]


def test_size_spec_with_must_link_keeps_warning():
    dataset = twenty_candidates()
    ids = dataset.ids()
    spec = spec_at(1, must_link=[(ids[0], ids[1])], min_cluster_size=5, max_cluster_size=5)
    report = detect_deadlock(spec, dataset, 4)
    assert not report.deadlocked
    assert any(w.startswith(SIZE_WARNING) for w in report.warnings)
