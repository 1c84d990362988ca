import dataclasses
import random

import pytest

from cbceval import constraints
from cbceval.constraints import (
    build_link_components,
    detect_deadlock,
    feasibility_partition,
    must_link_path,
    user_spec_rules,
)
from cbceval.errors import DomainError
from cbceval.evaluate import deadlock_to_dict
from cbceval.model import (
    AttributeSchema,
    CandidateDataset,
    ConstraintSpec,
    ExistentialRule,
    UserConstraintSpec,
)
from cbceval.oracle import brute_force_feasible_exists

from helpers import (
    FEASIBLE_AT_6,
    INFEASIBLE_AT_6,
    assignment_satisfies,
    component_index,
    dataset_from_rows,
    feasible_and_infeasible,
    random_constraint_spec,
    random_dataset,
    reference_link_components,
    take_rows,
)

try:
    from hypothesis import HealthCheck, given, settings, strategies as st
except ImportError:  # only the properties need Hypothesis
    st = None


def spec_at(tau=6, **kwargs):
    return ConstraintSpec(feasibility_threshold=tau, **kwargs)


def test_components_transitive(sample_dataset):
    spec = spec_at(must_link=[("T100", "T101"), ("T101", "T102")])
    components = build_link_components(spec, sample_dataset)
    idx = component_index(components)
    assert idx["T100"] == idx["T101"] == idx["T102"]
    assert ("T100", "T101", "T102") in components.components


def test_components_empty_spec_all_singletons(sample_dataset):
    components = build_link_components(spec_at(), sample_dataset)
    assert len(components.components) == 10
    assert all(len(c) == 1 for c in components.components)


def test_components_lifted_cannot_link(sample_dataset):
    spec = spec_at(must_link=[("T103", "T107")], cannot_link=[("T103", "T108")])
    components = build_link_components(spec, sample_dataset)
    idx = component_index(components)
    merged = idx["T103"]
    assert idx["T107"] == merged
    other = idx["T108"]
    assert components.lifted_cannot_link == ((min(merged, other), max(merged, other)),)
    assert components.conflicts == ()


def test_components_reject_unknown_ids(sample_dataset):
    with pytest.raises(DomainError, match="unknown id"):
        build_link_components(spec_at(must_link=[("T100", "T999")]), sample_dataset)


if st is not None:

    @st.composite
    def linked_specs(draw):
        """(dataset, spec): 0, 1, a few or 200+ rows, listed in id order or
        reversed; random must-links, and past 200 rows one must-link chain of
        200+ of them, which a reversed listing joins root under root; then
        cannot-links wherever they fall, inside components or across."""
        n = draw(st.one_of(st.integers(0, 1), st.integers(2, 24), st.integers(201, 240)))
        names = [f"r{i:03d}" for i in range(n)]
        ids = names[::-1] if draw(st.booleans()) else names
        dataset = dataset_from_rows(AttributeSchema(("a",)), ((cid, (5.0,), 9.0) for cid in ids))
        ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)) if n else st.nothing()
        must = {(names[a], names[b]) for a, b in draw(st.lists(ends, max_size=n)) if a < b}
        if n > 200:
            must |= {(names[i], names[i + 1]) for i in range(draw(st.integers(200, n - 1)))}
        pairs = draw(st.lists(ends, max_size=min(n, 8)))
        cannot = {(names[a], names[b]) for a, b in pairs if a < b}
        return dataset, spec_at(must_link=must, cannot_link=cannot - must)

    @settings(
        max_examples=150,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=linked_specs())
    def test_components_match_the_per_row_union_find(case):
        dataset, spec = case
        rows, lifted, conflicts = reference_link_components(spec, dataset)
        links = build_link_components(spec, dataset)
        component_of = {row: c for c, members in enumerate(rows) for row in members}
        assert links.labels.tolist() == [component_of[i] for i in range(len(dataset))]
        assert not links.labels.flags.writeable
        assert links.rows == rows
        assert links.components == tuple(tuple(dataset.ids()[i] for i in r) for r in rows)
        assert links.sizes.tolist() == [len(r) for r in rows]
        assert links.lifted_cannot_link == lifted
        assert links.conflicts == conflicts


def test_must_link_path_witness():
    spec = spec_at(must_link=[("a", "b"), ("b", "c"), ("c", "d")])
    assert must_link_path(spec, "a", "d") == ["a", "b", "c", "d"]


def test_feasibility_threshold_violation_record(sample_dataset):
    feasible, infeasible = feasible_and_infeasible(sample_dataset, spec_at(6))
    assert "T103" in feasible
    violations = dict(infeasible)["T102"]
    assert len(violations) == 1
    assert violations[0].message == "constraints_rating 3 < 6"
    assert violations[0].observed == 3 and violations[0].required == 6


def test_vacuous_threshold_accepts_everyone(sample_dataset):
    feasible, infeasible = feasible_and_infeasible(sample_dataset, spec_at(1))
    assert feasible == list(sample_dataset.ids()) and infeasible == []


def test_feasibility_partition_fixture(sample_dataset):
    feasible, infeasible = feasible_and_infeasible(sample_dataset, spec_at(6))
    assert feasible == FEASIBLE_AT_6
    assert [cid for cid, _ in infeasible] == INFEASIBLE_AT_6
    assert all(violations for _, violations in infeasible)


def test_feasibility_partition_scale_max(sample_dataset):
    feasible, infeasible = feasible_and_infeasible(sample_dataset, spec_at(10))
    assert feasible == []
    assert len(infeasible) == 10


def test_feasibility_partition_empty_dataset():
    dataset = CandidateDataset(AttributeSchema(("a",)), (), (), ())
    feasible, infeasible = feasible_and_infeasible(dataset, spec_at(6))
    assert feasible == [] and infeasible == []


def test_feasibility_partition_is_partition(sample_dataset):
    rng = random.Random(2)
    for _ in range(50):
        tau = rng.randint(1, 10)
        feasible, infeasible = feasible_and_infeasible(sample_dataset, spec_at(tau))
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
    schema = AttributeSchema(("budget_per_instance", "quality"))
    dataset = dataset_from_rows(schema, [("cheap", (4, 8), 9), ("pricey", (7, 9), 9)])
    spec = ConstraintSpec(user_spec=user_spec_fixture(budget_per_instance=5), feasibility_threshold=5)
    feasible, [(cid, violations)] = feasible_and_infeasible(dataset, spec)
    assert feasible == ["cheap"]
    assert cid == "pricey"
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
    assert deadlock_to_dict(report) == {
        "deadlocked": True,
        "stage": "bind",
        "causes": [
            {
                "kind": "link-conflict",
                "detail": "3 mutually cannot-linked components admit no 2-coloring",
                "witness": {"components": [[cid] for cid in ids], "k": 2},
            }
        ],
        "warnings": [],
    }


def test_deadlock_size_link_interaction(sample_dataset):
    # Sizes and links jointly infeasible though no single quick rule fires:
    # component of 2 plus two mutually cannot-linked singletons, k=2, max=2.
    spec = spec_at(
        must_link=[("T100", "T101")],
        cannot_link=[("T102", "T103")],
        max_cluster_size=2,
    )
    sub = take_rows(sample_dataset, range(4))
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


def test_deadlock_population_rejects_unknown_ids(sample_dataset, sample_spec):
    # An unknown id used to be dropped, leaving an empty population that
    # reported an empty feasible set.
    for population in (["NOPE"], ["T101", "NOPE", "ALSO"]):
        with pytest.raises(DomainError, match="population names NOPE, not a candidate"):
            detect_deadlock(
                sample_spec,
                sample_dataset,
                3,
                stage="post-refinement",
                population=population,
                structural=False,
            )


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
                    1 for row in dataset.ratings.tolist() if rule.satisfied_by(row[idx])
                )
                assert count == w["satisfying"] < w["min_count"]
            if cause.kind == "empty-feasible-set":
                assert feasible_and_infeasible(dataset, spec)[0] == []


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
            assert assignment_satisfies(witness, spec, k) == []


def test_user_spec_bridge_agrees_with_oracle():
    # Columns named after the user record's cost and capacity fields, some in
    # upper case, gate candidates and demand a satisfying one on both sides.
    rng = random.Random(1931)
    fields = constraints.USER_COST_FIELDS + constraints.USER_CAPACITY_FIELDS
    optional = {f.name for f in dataclasses.fields(UserConstraintSpec) if f.default is None}
    for _ in range(300):
        columns = rng.sample(fields, rng.randint(1, 3))
        overrides = {}
        for name in columns:
            fraction = name.endswith("confidence")
            overrides[name] = rng.random() if fraction else float(rng.randint(1, 10))
            if name in optional and rng.random() < 0.2:
                overrides[name] = None
        overrides["parallel_instances"] = min(
            overrides.get("parallel_instances", 1), overrides.get("max_instances", 100)
        )
        schema = AttributeSchema(tuple(c.upper() if rng.random() < 0.3 else c for c in columns))
        base = random_dataset(rng, rng.randint(2, 7), len(columns))
        dataset = CandidateDataset(schema, base.ids(), base.ratings, base.constraints_ratings)
        spec = random_constraint_spec(rng, dataset, tau=float(rng.randint(1, 6)))
        spec = dataclasses.replace(spec, user_spec=user_spec_fixture(**overrides))
        k = rng.randint(1, 3)
        exists, _, reason = brute_force_feasible_exists(spec, dataset, k)
        assert detect_deadlock(spec, dataset, k).deadlocked == (not exists), reason


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


def test_size_spec_with_must_link_is_decided_by_first_fit():
    # 19 components: first-fit places the 2-row one and the 18 single rows
    # fill the four clusters up to 5, a witness without a search.
    dataset = twenty_candidates()
    ids = dataset.ids()
    spec = spec_at(1, must_link=[(ids[0], ids[1])], min_cluster_size=5, max_cluster_size=5)
    report = detect_deadlock(spec, dataset, 4)
    assert not report.deadlocked and report.warnings == ()


def test_coloring_beyond_limit_checks_cannot_linked_components():
    # 20 components, 3 of them mutually cannot-linked: the coloring runs over
    # those 3 alone and names them in its witness.
    dataset = twenty_candidates()
    a, b, c = dataset.ids()[:3]
    report = detect_deadlock(spec_at(1, cannot_link=[(a, b), (a, c), (b, c)]), dataset, 2)
    assert deadlock_to_dict(report)["causes"] == [
        {
            "kind": "link-conflict",
            "detail": "3 mutually cannot-linked components admit no 2-coloring",
            "witness": {"components": [["C000"], ["C001"], ["C002"]], "k": 2},
        }
    ]
    assert report.warnings == ()


def test_coloring_beyond_limit_decided_by_first_fit():
    # 15 cannot-linked components in a chain: first-fit 2-colors it, and
    # the 5 free rows top the clusters up to at most 10.
    dataset = twenty_candidates()
    ids = dataset.ids()
    chain = [(ids[i], ids[i + 1]) for i in range(14)]
    report = detect_deadlock(spec_at(1, cannot_link=chain, max_cluster_size=10), dataset, 2)
    assert not report.deadlocked and report.warnings == ()


def test_coloring_warns_when_first_fit_fails_beyond_limit():
    # A triangle plus a chain: 15 constrained components with no 2-coloring,
    # too many for the exact search, so the coloring stays undecided.
    dataset = twenty_candidates()
    ids = dataset.ids()
    links = [(ids[0], ids[1]), (ids[1], ids[2]), (ids[0], ids[2])]
    links += [(ids[i], ids[i + 1]) for i in range(2, 14)]
    report = detect_deadlock(spec_at(1, cannot_link=links), dataset, 2)
    assert not report.deadlocked
    assert report.warnings == (
        "cannot-link coloring not checked: 15 constrained components exceed the exact limit 12",
    )


def test_packing_warns_when_first_fit_fails_beyond_limit():
    # Thirteen 2-row components, at most 13 rows a cluster and k = 2: no
    # cluster takes seven of them, so no assignment exists. First-fit puts six
    # in each and has no room for the last, and 13 is past the limit.
    dataset = random_dataset(random.Random(26), 26, 2)
    ids = dataset.ids()
    pairs = [(ids[2 * i], ids[2 * i + 1]) for i in range(13)]
    report = detect_deadlock(spec_at(1, must_link=pairs, max_cluster_size=13), dataset, 2)
    assert not report.deadlocked
    assert report.warnings == (
        f"{SIZE_WARNING}: 13 multi-row or cannot-linked components exceed the exact limit 12",
    )


COLORING_WARNING = "cannot-link coloring not checked"
LABELS = "labels"

#: (sized, scripted _pack results in call order, cause kinds, warning heads):
#: the sized packing runs first, and the coloring only when it gives no labels.
PACK_OUTCOMES = [
    (True, [LABELS], [], []),
    (True, [None, None], ["link-conflict"], []),
    (True, [None, LABELS], ["size-arithmetic"], []),
    (True, [None, False], ["size-arithmetic"], [COLORING_WARNING]),
    (True, [False, None], ["link-conflict"], []),
    (True, [False, LABELS], [], [SIZE_WARNING]),
    (True, [False, False], [], [COLORING_WARNING, SIZE_WARNING]),
    (False, [None], ["link-conflict"], []),
    (False, [LABELS], [], []),
    (False, [False], [], [COLORING_WARNING]),
]


@pytest.mark.parametrize("sized, script, kinds, warnings", PACK_OUTCOMES)
def test_deadlock_packs_once_and_colors_only_without_a_packing(
    monkeypatch, sample_dataset, sized, script, kinds, warnings
):
    calls, results = [], iter(script)

    def scripted_pack(sizes, pairs, k, min_size, max_size):
        calls.append((sizes, min_size, max_size))
        result = next(results)
        return [0] * len(sizes) if result == LABELS else result

    monkeypatch.setattr(constraints, "_pack", scripted_pack)
    bounds = {"max_cluster_size": 8} if sized else {}
    spec = spec_at(1, must_link=[("T100", "T101")], cannot_link=[("T102", "T103")], **bounds)
    report = detect_deadlock(spec, sample_dataset, 2)
    assert [cause.kind for cause in report.causes] == kinds
    assert [warning.split(":")[0] for warning in report.warnings] == warnings
    packing, coloring = ([2] + [1] * 8, None, 8), ([1] * 9, None, None)
    expected = [packing, coloring] if sized else [coloring]
    assert calls == expected[: len(script)]
