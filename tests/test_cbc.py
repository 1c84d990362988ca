import random
from dataclasses import fields, replace

import pytest

from cbceval.cbc import (
    CBCConfig,
    CBCResult,
    StageRecord,
    constrained_assign,
    refine_micro_clusters,
    run_pipeline,
)
from cbceval.constraints import build_link_components
from cbceval.errors import AssignmentDeadlockError, DomainError
from cbceval.kmeans import KMeansConfig, kmeans_pp_init, lloyd, run_kmeans
from cbceval.model import ConstraintSpec, ExistentialRule, FEASIBLE, INFEASIBLE
from cbceval.oracle import brute_force_feasible_exists, brute_force_min_sse

from helpers import (
    FEASIBLE_AT_6,
    assignment_satisfies,
    partition_signature,
    pinned_instance,
    pinned_values,
    random_constraint_spec,
    random_dataset,
    take_rows,
)

# Golden fixture: pipeline on the bundled sample with the bundled spec,
# k=3, seed=42, single restart.
GOLDEN_PIPELINE_SIGNATURE = (0, 0, 1, 2, 0, 0, 0, 0, 0, 0)


def spec_at(tau=6, **kwargs):
    return ConstraintSpec(feasibility_threshold=tau, **kwargs)


# pinned_instance arguments -> (partition signature digest, centroid tuple
# digest, repr(sse), iterations). Any change to the greedy pass's arithmetic,
# visiting order or tie-breaking moves at least one of these.
PINNED_ASSIGNMENTS = {
    (1, 200, 6, 5, 30, 10, 48): ("c95516738adebb62", "c48350a35e4f05e8", "85.84206192545759", 12),
    (2, 300, 6, 8, 60, 20, 42): ("af9fd13575524e78", "65509d16e4908566", "118.26745828732089", 11),
    (3, 400, 8, 8, 80, 30, 56): ("855eb494cbab8ade", "5790fa49fc89aa33", "228.22781136558916", 30),
    (4, 250, 8, 5, 40, 15, 55): ("083ced72bf885102", "a9043363a456062f", "151.67360447439177", 18),
    (5, 350, 6, 8, 70, 25, 45): ("a7ffa6ab77937276", "632d621b9e6f1252", "141.83308419278995", 11),
    (6, 400, 8, 8, 120, 40, 50): ("bb023a3691a1dcc0", "2aedda808a871247", "258.74543209876543", 20),
    (2, 300, 6, 8, 60, 20, 60, True): ("024d9da6cf63dee3", "c7ded920242584d4", "118.10438267773205", 15),
    (13, 260, 6, 5, 50, 20, 70, True): ("b7899db3d42d4ac6", "58be95f9fad33531", "120.74551512386526", 25),
}

# pinned_instance arguments -> (failing iteration, component) of a greedy
# pass that finds no admissible cluster.
PINNED_DEADLOCKS = {
    (21, 240, 6, 6, 40, 20, 41): (3, ("C232",)),
    (9, 200, 6, 5, 100, 20, 40): (1, ("C179",)),
}

# pinned_instance arguments -> pinned values as above, for specs with
# must-links only: components go to their nearest centroid, no greedy pass.
PINNED_MUST_LINK_ONLY = {
    (7, 300, 6, 5, 60, 0, None): ("f7110f2bee4feeb2", "117dfa40078a52b2", "134.62103001981", 7),
    (8, 400, 8, 8, 150, 0, None): ("dc6854da8a7e500f", "e90595d7882fb3bb", "253.7357272484118", 9),
    (10, 350, 12, 6, 100, 0, None): ("4948a22135fa17d3", "3fc08d0ec863d29e", "358.16270007729054", 17),
    (8, 400, 8, 8, 150, 0, None, True): ("1328769e3b7f2bcc", "289b246090175e89", "253.72643921396923", 13),
}


def test_constrained_reduces_to_lloyd_on_empty_spec(sample_dataset):
    for seed in (0, 11, 42, 77):
        config = KMeansConfig(k=3, seed=seed)
        init = kmeans_pp_init(sample_dataset, config)
        plain = lloyd(sample_dataset, init, config)
        constrained = constrained_assign(sample_dataset, init, spec_at(), config)
        assert constrained.assignment == plain.assignment
        assert constrained.centroids.tolist() == plain.centroids.tolist()
        assert constrained.sse == plain.sse
        assert constrained.iterations == plain.iterations


def test_cannot_link_pair_separated(sample_dataset):
    spec = spec_at(cannot_link=[("T100", "T101")])
    for seed in (1, 2, 3):
        config = KMeansConfig(k=2, seed=seed)
        init = kmeans_pp_init(sample_dataset, config)
        clustering = constrained_assign(sample_dataset, init, spec, config)
        assert clustering.assignment["T100"] != clustering.assignment["T101"]


def test_must_link_co_assigned_and_sse_dominated_by_oracle(sample_dataset):
    spec = spec_at(must_link=[("T103", "T108")])
    config = KMeansConfig(k=2, seed=5)
    init = kmeans_pp_init(sample_dataset, config)
    clustering = constrained_assign(sample_dataset, init, spec, config)
    assert clustering.assignment["T103"] == clustering.assignment["T108"]

    _, unconstrained_opt = brute_force_min_sse(sample_dataset, 2)
    constrained = brute_force_min_sse(sample_dataset, 2, spec)
    assert constrained is not None
    assert clustering.sse >= constrained[1] - 1e-9
    assert constrained[1] >= unconstrained_opt - 1e-12


def test_max_size_respected(sample_dataset):
    spec = spec_at(max_cluster_size=4)
    config = KMeansConfig(k=3, seed=9)
    init = kmeans_pp_init(sample_dataset, config)
    clustering = constrained_assign(sample_dataset, init, spec, config)
    counts = {}
    for label in clustering.assignment.values():
        counts[label] = counts.get(label, 0) + 1
    assert all(c <= 4 for c in counts.values())


def test_assignment_deadlock_raises(sample_dataset):
    # k=2, max 2: after two components fill both clusters nothing fits.
    spec = spec_at(max_cluster_size=2)
    config = KMeansConfig(k=2, seed=0)
    init = kmeans_pp_init(sample_dataset, config)
    with pytest.raises(AssignmentDeadlockError, match="no admissible cluster"):
        constrained_assign(sample_dataset, init, spec, config)


@pytest.mark.parametrize("args", [*PINNED_ASSIGNMENTS, *PINNED_MUST_LINK_ONLY])
def test_constrained_assign_pinned(args):
    dataset, spec, config, init = pinned_instance(*args)
    clustering = constrained_assign(dataset, init, spec, config)
    expected = {**PINNED_ASSIGNMENTS, **PINNED_MUST_LINK_ONLY}[args]
    assert pinned_values(clustering, dataset) == expected
    assert assignment_satisfies(clustering.assignment, spec, config.k) == []


@pytest.mark.parametrize("args", list(PINNED_DEADLOCKS))
def test_constrained_assign_pinned_deadlock(args):
    dataset, spec, config, init = pinned_instance(*args)
    iteration, component = PINNED_DEADLOCKS[args]
    with pytest.raises(AssignmentDeadlockError) as exc:
        constrained_assign(dataset, init, spec, config)
    assert exc.value.component == component
    assert str(exc.value) == (
        f"no admissible cluster for must-link component {component} at "
        f"iteration {iteration}; greedy order found no slot (an exhaustive "
        f"search may still succeed at small n)"
    )


def test_min_size_checked_after_convergence(sample_dataset):
    # Force a lopsided split: min_cluster_size=5 with k=2 on the sample
    # usually fails through the greedy path; assert the error is explicit.
    spec = spec_at(min_cluster_size=5)
    config = KMeansConfig(k=2, seed=13)
    init = kmeans_pp_init(sample_dataset, config)
    try:
        clustering = constrained_assign(sample_dataset, init, spec, config)
    except AssignmentDeadlockError as exc:
        assert "min_cluster_size" in str(exc)
    else:
        counts = {}
        for label in clustering.assignment.values():
            counts[label] = counts.get(label, 0) + 1
        assert all(c >= 5 for c in counts.values())


def test_conflicting_links_rejected_up_front(sample_dataset):
    # ConstraintSpec itself rejects identical pairs in both sets, so build the
    # conflict transitively: T100-T101 linked, T101-T102 linked, T100-T102 forbidden.
    spec = spec_at(
        must_link=[("T100", "T101"), ("T101", "T102")],
        cannot_link=[("T100", "T102")],
    )
    config = KMeansConfig(k=2, seed=1)
    init = kmeans_pp_init(sample_dataset, config)
    with pytest.raises(DomainError, match="detect_deadlock"):
        constrained_assign(sample_dataset, init, spec, config)


def test_lloyd_rejects_links_from_another_dataset(sample_dataset):
    spec = spec_at(must_link=[("T100", "T101")], cannot_link=[("T102", "T103")])
    links = build_link_components(spec, sample_dataset)
    shuffled = take_rows(sample_dataset, reversed(range(len(sample_dataset))))
    config = KMeansConfig(k=2, seed=1)
    init = kmeans_pp_init(shuffled, config)
    with pytest.raises(DomainError, match="another dataset"):
        lloyd(shuffled, init, config, links=links)
    labels = lloyd(sample_dataset, init, config, links=links).labels
    assert labels[0] == labels[1] and labels[2] != labels[3]


@pytest.mark.parametrize("cannot_link", [(), [("T102", "T103")]])
def test_lloyd_reads_links_without_building_rows(sample_dataset, cannot_link):
    # Plain and greedy passes alike take the components' labels and sizes.
    spec = spec_at(must_link=[("T100", "T101")], cannot_link=cannot_link)
    links = build_link_components(spec, sample_dataset)
    config = KMeansConfig(k=3, seed=0)
    lloyd(sample_dataset, kmeans_pp_init(sample_dataset, config), config, links=links)
    assert "rows" not in vars(links)


def test_refine_all_feasible_mirrors_parents(sample_dataset):
    clustering = run_kmeans(sample_dataset, KMeansConfig(k=3, seed=42))
    micro = refine_micro_clusters(clustering, sample_dataset, spec_at(1))
    assert all(mc.label == FEASIBLE for mc in micro.micro_clusters)
    assert len(micro.micro_clusters) == 3
    assert micro.violations == {}


def test_refine_feasible_union_invariant(sample_dataset):
    for seed in (0, 1, 2, 3, 4):
        clustering = run_kmeans(sample_dataset, KMeansConfig(k=3, seed=seed))
        micro = refine_micro_clusters(clustering, sample_dataset, spec_at(6))
        feasible = {
            cid
            for mc in micro.micro_clusters
            if mc.label == FEASIBLE
            for cid in mc.members
        }
        assert feasible == set(FEASIBLE_AT_6)


def test_refine_all_infeasible(sample_dataset):
    clustering = run_kmeans(sample_dataset, KMeansConfig(k=2, seed=0))
    micro = refine_micro_clusters(clustering, sample_dataset, spec_at(10))
    assert all(mc.label == INFEASIBLE for mc in micro.micro_clusters)
    assert set(micro.violations) == set(sample_dataset.ids())


def test_refine_is_conservative(sample_dataset):
    clustering = run_kmeans(sample_dataset, KMeansConfig(k=3, seed=7))
    micro = refine_micro_clusters(clustering, sample_dataset, spec_at(6))
    assert micro.parent is clustering
    for mc in micro.micro_clusters:
        for cid in mc.members:
            assert clustering.assignment[cid] == mc.parent


def test_refine_rejects_clustering_in_another_order(sample_dataset):
    clustering = run_kmeans(sample_dataset, KMeansConfig(k=3, seed=42))
    reordered = replace(clustering, ids=clustering.ids[::-1], labels=clustering.labels[::-1])
    with pytest.raises(DomainError, match="in order"):
        refine_micro_clusters(reordered, sample_dataset, spec_at(6))


def test_pipeline_golden_fixture(sample_dataset, sample_spec):
    config = CBCConfig(kmeans=KMeansConfig(k=3, seed=42))
    result = run_pipeline(sample_dataset, sample_spec, config)
    assert not result.aborted
    assert result.micro.feasible_ids() == tuple(FEASIBLE_AT_6)
    assert partition_signature(result.clustering.labels) == GOLDEN_PIPELINE_SIGNATURE
    assert [s.name for s in result.stage_log] == [
        "bind",
        "deadlock",
        "cluster",
        "refine",
        "recheck",
    ]
    assert not result.deadlock.deadlocked


def test_pipeline_clustering_is_the_refinement_parent(sample_dataset, sample_spec):
    result = run_pipeline(sample_dataset, sample_spec, CBCConfig(kmeans=KMeansConfig(k=3, seed=42)))
    assert result.clustering is result.micro.parent
    assert "clustering" not in {f.name for f in fields(CBCResult)}
    assert [f.name for f in fields(StageRecord)] == ["name", "summary"]


def test_pipeline_stage0_abort(sample_dataset):
    spec = spec_at(min_cluster_size=4)
    result = run_pipeline(
        sample_dataset, spec, CBCConfig(kmeans=KMeansConfig(k=3, seed=1))
    )
    assert result.aborted
    assert result.clustering is None and result.micro is None
    assert result.deadlock.deadlocked and result.deadlock.stage == "bind"
    assert result.stage_log[-1].name == "abort"


def test_pipeline_baseline_reduction(sample_dataset):
    for seed in (0, 5, 9):
        config = CBCConfig(kmeans=KMeansConfig(k=3, seed=seed))
        result = run_pipeline(sample_dataset, ConstraintSpec(), config)
        plain = run_kmeans(sample_dataset, config.kmeans)
        assert partition_signature(result.clustering.labels) == partition_signature(plain.labels)


def test_pipeline_post_refinement_annotation(sample_dataset):
    # Rule satisfiable on the raw data but not after the threshold filter:
    # five candidates rate pay_per_use >= 5, only two of them are feasible.
    spec = spec_at(existential=[ExistentialRule("pay_per_use", ">=", 5, 4)])
    result = run_pipeline(
        sample_dataset, spec, CBCConfig(kmeans=KMeansConfig(k=3, seed=1))
    )
    assert not result.aborted
    assert result.deadlock.deadlocked
    assert result.deadlock.stage == "post-refinement"
    assert result.deadlock.causes[0].kind == "existential-unsatisfiable"


def test_pipeline_spec_k_wins_over_config(sample_dataset):
    spec = spec_at(k=2)
    result = run_pipeline(
        sample_dataset, spec, CBCConfig(kmeans=KMeansConfig(k=3, seed=1))
    )
    assert result.clustering.k == 2


def test_pipeline_records_the_config_it_used(sample_dataset):
    # Spec k=2 overrides config k=3, so both runs are one run: same recorded
    # config, same report body, config_digest included.
    from cbceval.evaluate import rank

    bodies = []
    for k in (3, 2):
        result = run_pipeline(sample_dataset, spec_at(k=2), CBCConfig(KMeansConfig(k=k, seed=1)))
        assert result.config == CBCConfig(KMeansConfig(k=2, seed=1))
        bodies.append(rank(result, sample_dataset))
    assert bodies[0] == bodies[1]


def test_pipeline_rejects_unbound_spec(sample_dataset):
    spec = spec_at(must_link=[("T100", "T999")])
    with pytest.raises(DomainError, match="unknown id T999"):
        run_pipeline(sample_dataset, spec, CBCConfig(kmeans=KMeansConfig(k=2, seed=1)))


def test_pipeline_enforces_size_only_specs(sample_dataset):
    # No link pairs, only a max size: the constrained path must still engage.
    spec = spec_at(max_cluster_size=4)
    result = run_pipeline(
        sample_dataset, spec, CBCConfig(kmeans=KMeansConfig(k=3, seed=3))
    )
    counts = {}
    for label in result.clustering.assignment.values():
        counts[label] = counts.get(label, 0) + 1
    assert all(c <= 4 for c in counts.values())


def test_pipeline_restarts_recover_from_greedy_deadlock(sample_dataset):
    # Some seeds deadlock greedily at max_cluster_size=2 with k=5; restarts
    # keep trying derived seeds and succeed when any restart finds a slotting.
    spec = spec_at(max_cluster_size=2)
    config = CBCConfig(kmeans=KMeansConfig(k=5, seed=0, restarts=20))
    result = run_pipeline(sample_dataset, spec, config)
    problems = assignment_satisfies(result.clustering.assignment, spec, 5)
    assert problems == []


def test_pipeline_fuzz_constraint_satisfaction():
    rng = random.Random(1234)
    successes = 0
    for _ in range(250):
        dataset = random_dataset(rng, rng.randint(4, 12), rng.randint(1, 4))
        spec = random_constraint_spec(rng, dataset, tau=1.0)
        k = rng.randint(2, min(4, len(dataset)))
        config = CBCConfig(kmeans=KMeansConfig(k=k, seed=rng.randrange(2**32)))
        try:
            result = run_pipeline(dataset, spec, config)
        except AssignmentDeadlockError:
            continue
        if result.aborted:
            exists, _, _ = brute_force_feasible_exists(spec, dataset, k)
            assert not exists
            continue
        successes += 1
        problems = assignment_satisfies(result.clustering.assignment, spec, k)
        assert problems == [], problems
        # a successful run is itself a satisfiability witness
        exists, _, _ = brute_force_feasible_exists(spec, dataset, k)
        assert exists
    assert successes > 50


def test_pipeline_keeps_links_across_restarts(sample_dataset):
    # The deadlock check and every restart each build the spec's components.
    spec = spec_at(must_link=[("T100", "T101")], cannot_link=[("T102", "T103")])
    config = CBCConfig(kmeans=KMeansConfig(k=3, seed=5, restarts=4))
    result = run_pipeline(sample_dataset, spec, config)
    assert not result.aborted
    assert assignment_satisfies(result.clustering.assignment, spec, 3) == []
