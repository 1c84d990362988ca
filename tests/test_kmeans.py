import math
import random
from dataclasses import replace

import numpy as np
import pytest

from cbceval import kmeans
from cbceval.cbc import CBCConfig, run_pipeline
from cbceval.constraints import build_link_components
from cbceval.errors import AssignmentDeadlockError, DomainError
from cbceval.kmeans import (
    KMeansConfig,
    choose_k,
    distance_matrix,
    group_means,
    kmeans_pp_init,
    lloyd,
    run_kmeans,
    silhouette,
    sse,
    weight_vector,
)
from cbceval.model import AttributeSchema, CandidateDataset, Clustering, ConstraintSpec
from cbceval.oracle import brute_force_min_sse
from cbceval.rng import SplitMix64, child_seed

from helpers import (
    partition_signature,
    pinned_instance,
    pinned_values,
    random_dataset,
    random_pairs,
    reference_lloyd_steps,
    take_rows,
)

try:
    from hypothesis import HealthCheck, given, settings, strategies as st
except ImportError:  # the Lloyd property needs Hypothesis; nothing else here does
    st = None

# Golden fixture: seeded k-means++ on the bundled sample, k=3, seed=42,
# picks candidates T103, T101, T102 (indices 3, 1, 2) in that order.
GOLDEN_INIT_INDICES = (3, 1, 2)

# Golden fixture: single-restart run on the bundled sample, k=3, seed=42.
GOLDEN_RUN_SSE = 0.5972222222222222
GOLDEN_RUN_SIGNATURE = (0, 0, 1, 2, 0, 0, 0, 0, 0, 0)

# Exhaustive-optimum partition of the bundled sample at k=2 (see test_oracle).
OPTIMAL_K2_SIGNATURE = (0, 0, 1, 0, 0, 0, 1, 1, 1, 0)


def tiny_dataset(points, schema_names=("a", "b")):
    schema = AttributeSchema(tuple(schema_names))
    return CandidateDataset(
        schema, [f"P{i}" for i in range(len(points))], points, [5.0] * len(points)
    )


def test_seeding_first_two_draws_traced_by_hand(sample_dataset):
    # Replay the documented seeding procedure step by step, independently of
    # the implementation, and compare the chosen indices.
    gen = SplitMix64(42)
    n = len(sample_dataset)
    limit = ((1 << 64) // n) * n
    x = gen.next_uint64()
    assert x == 13679457532755275413
    assert x < limit
    first = x % n
    assert first == GOLDEN_INIT_INDICES[0]

    X = sample_dataset.normalized
    d2 = ((X - X[first]) ** 2).sum(axis=1)
    u = gen.next_float() * float(d2.sum())
    acc = 0.0
    second = None
    for i, v in enumerate(d2):
        acc += float(v)
        if acc > u:
            second = i
            break
    assert second == GOLDEN_INIT_INDICES[1]

    centroids = kmeans_pp_init(sample_dataset, KMeansConfig(k=3, seed=42))
    expected = tuple(
        tuple(sample_dataset.normalized[i].tolist()) for i in GOLDEN_INIT_INDICES
    )
    assert centroids == expected


def test_seeding_with_k_equal_n_takes_every_point():
    points = [(1, 1), (10, 1), (1, 10), (10, 10), (5, 5)]
    dataset = tiny_dataset(points)
    centroids = kmeans_pp_init(dataset, KMeansConfig(k=5, seed=3))
    expected = {tuple(row) for row in dataset.normalized.tolist()}
    assert set(centroids) == expected


def test_seeding_k1_then_lloyd_moves_to_mean():
    dataset = tiny_dataset([(1, 1), (10, 10)])
    config = KMeansConfig(k=1, seed=0)
    init = kmeans_pp_init(dataset, config)
    assert init[0] in {(0.0, 0.0), (1.0, 1.0)}
    clustering = lloyd(dataset, init, config)
    assert clustering.centroids.tolist() == [[0.5, 0.5]]


def test_seeding_rejects_k_above_n():
    dataset = tiny_dataset([(1, 1)])
    with pytest.raises(DomainError, match="k exceeds"):
        kmeans_pp_init(dataset, KMeansConfig(k=2, seed=0))


def test_lloyd_two_points_two_clusters():
    dataset = tiny_dataset([(1, 1), (10, 10)])
    config = KMeansConfig(k=2, seed=1)
    clustering = lloyd(dataset, kmeans_pp_init(dataset, config), config)
    assert clustering.sse == 0.0
    assert len(set(clustering.assignment.values())) == 2


def test_lloyd_identical_points_any_k():
    dataset = tiny_dataset([(4, 4)] * 6)
    config = KMeansConfig(k=3, seed=2)
    clustering = lloyd(dataset, kmeans_pp_init(dataset, config), config)
    assert clustering.sse == 0.0


def test_lloyd_repairs_empty_cluster():
    # Second init centroid is far from every point, so the first assignment
    # leaves its cluster empty; repair must fill it.
    dataset = tiny_dataset([(1, 1), (1.9, 1.9), (2.8, 2.8), (3.7, 3.7)])
    config = KMeansConfig(k=2, seed=0)
    init = ((0.0, 0.0), (1.0, 1.0))
    clustering = lloyd(dataset, init, config)
    counts = [0, 0]
    for label in clustering.assignment.values():
        counts[label] += 1
    assert all(c >= 1 for c in counts)


def lloyd_instance(seed, n, d, k, far=False):
    """Seeded random_dataset and k-means++ init; ``far`` moves the last
    centroid outside the unit cube so that cluster starts empty."""
    dataset = random_dataset(random.Random(seed), n, d)
    config = KMeansConfig(k=k, seed=seed)
    init = kmeans_pp_init(dataset, config)
    if far:
        init = init[:-1] + ((3.0,) * d,)
    return dataset, config, init


# lloyd_instance arguments -> (partition signature digest, centroid tuple
# digest, repr(sse), iterations). Any change to the assignment step, the
# empty-cluster repair or the mean update moves at least one of these.
PINNED_LLOYD = {
    (41, 500, 6, 5): ("ff9f96735d6b7efe", "58856975e2ebb11b", "199.9737490014229", 20),
    (41, 500, 6, 5, True): ("0ab67973ea471c48", "928b561d1ab8970e", "202.7359698690563", 16),
    (42, 1500, 8, 8): ("478057b01b91bce2", "19eab883f31068ff", "804.5666106970932", 55),
    (42, 1500, 8, 8, True): ("6f7bb4006991c841", "15381144d2297eec", "808.4479024942018", 42),
    (43, 2500, 12, 6): ("8b2633f95755a2f1", "adf2bf7013fc2db3", "2487.564241350443", 40),
    (43, 2500, 12, 6, True): ("dc4dc8e41168a8c1", "20b8166aa5d5da5f", "2478.2274140412687", 42),
    (44, 4000, 19, 7): ("d17aee6bdf977f81", "06c768c67c25f8e7", "6732.542204223003", 100),
    (44, 4000, 19, 7, True): ("d41a9b57d07eff6f", "f7ebfda3350a8dcb", "6737.602066748299", 56),
}


@pytest.mark.parametrize("args", list(PINNED_LLOYD))
def test_lloyd_pinned(args):
    dataset, config, init = lloyd_instance(*args)
    assert pinned_values(lloyd(dataset, init, config), dataset) == PINNED_LLOYD[args]


def test_run_kmeans_restarts_pinned():
    dataset = random_dataset(random.Random(51), 600, 8)
    clustering = run_kmeans(dataset, KMeansConfig(k=6, seed=51, restarts=4))
    assert pinned_values(clustering, dataset) == (
        "e34cf68c0cd3db65", "947f4c475ae7bcf2", "345.63765955472263", 19
    )
    assert clustering.seed == 51


def test_run_kmeans_stacks_every_restart_in_one_call(sample_dataset, monkeypatch):
    # Wrapping kmeans.lloyd_stack sees one call carrying every restart's init.
    calls = []
    original = kmeans.lloyd_stack

    def counted(dataset, inits, *args):
        calls.append(list(inits))
        return original(dataset, calls[-1], *args)

    monkeypatch.setattr(kmeans, "lloyd_stack", counted)
    config = KMeansConfig(k=3, seed=42, restarts=3)
    run_kmeans(sample_dataset, config)
    assert calls == [list(kmeans.restart_inits(sample_dataset, config))]
    # The pipeline's assignment binds lloyd_stack by name, so the wrapper
    # sees plain k-means runs only.
    spec = ConstraintSpec(must_link=[("T100", "T101")], feasibility_threshold=6)
    run_pipeline(sample_dataset, spec, CBCConfig(KMeansConfig(k=3, seed=42, restarts=2)))
    assert len(calls) == 1


def test_golden_run_on_sample(sample_dataset):
    clustering = run_kmeans(sample_dataset, KMeansConfig(k=3, seed=42))
    assert clustering.sse == pytest.approx(GOLDEN_RUN_SSE, abs=1e-12)
    assert partition_signature(clustering.labels) == GOLDEN_RUN_SIGNATURE
    assert clustering.seed == 42


def test_sse_recompute_matches_stored(sample_dataset):
    clustering = run_kmeans(sample_dataset, KMeansConfig(k=3, seed=42))
    assert sse(sample_dataset, clustering) == pytest.approx(clustering.sse, abs=1e-12)


def test_sse_two_point_cluster_halves_squared_distance():
    dataset = tiny_dataset([(1,), (10,)], schema_names=("a",))
    config = KMeansConfig(k=1, seed=0)
    clustering = lloyd(dataset, kmeans_pp_init(dataset, config), config)
    # normalized distance 1 between the points: each contributes (1/2)^2
    assert clustering.sse == pytest.approx(0.5, abs=1e-15)


def test_sse_monotone_within_runs():
    # Capped at t iterations, lloyd reports the SSE after the t-th; nearest-
    # centroid placement and the mean update never raise it.
    rng = random.Random(12)
    for _ in range(30):
        dataset = random_dataset(rng, rng.randint(3, 12), rng.randint(1, 4))
        k = rng.randint(1, min(4, len(dataset)))
        config = KMeansConfig(k=k, seed=rng.randrange(2**32))
        init = kmeans_pp_init(dataset, config)
        runs = lloyd(dataset, init, config).iterations
        sses = []
        with pytest.MonkeyPatch.context() as patch:
            for t in range(1, runs + 1):
                patch.setattr(kmeans, "MAX_ITERATIONS", t)
                sses.append(lloyd(dataset, init, config).sse)
        assert all(later <= earlier + 1e-9 for earlier, later in zip(sses, sses[1:]))


def test_determinism_bitwise():
    rng = random.Random(77)
    dataset = random_dataset(rng, 12, 4)
    config = KMeansConfig(k=3, seed=123456789, restarts=5)
    a = run_kmeans(dataset, config)
    b = run_kmeans(dataset, config)
    assert a.ids == b.ids
    assert a.labels.tolist() == b.labels.tolist()
    assert [v.hex() for v in a.centroids.ravel().tolist()] == [
        v.hex() for v in b.centroids.ravel().tolist()
    ]
    assert a.sse.hex() == b.sse.hex()
    assert (a.iterations, a.seed) == (b.iterations, b.seed)


def test_permutation_equivariance_with_explicit_init(sample_dataset):
    config = KMeansConfig(k=3, seed=9)
    init = kmeans_pp_init(sample_dataset, config)
    direct = lloyd(sample_dataset, init, config)

    order = list(range(len(sample_dataset)))
    random.Random(5).shuffle(order)
    permuted = take_rows(sample_dataset, order)
    shuffled = lloyd(permuted, init, config)

    def as_sets(clustering):
        groups = {}
        for cid, label in clustering.assignment.items():
            groups.setdefault(label, set()).add(cid)
        return frozenset(frozenset(g) for g in groups.values())

    assert as_sets(direct) == as_sets(shuffled)


def test_lloyd_never_beats_oracle():
    rng = random.Random(31)
    for _ in range(15):
        dataset = random_dataset(rng, rng.randint(3, 10), rng.randint(1, 3))
        k = rng.randint(1, min(3, len(dataset)))
        config = KMeansConfig(k=k, seed=rng.randrange(2**32))
        clustering = lloyd(dataset, kmeans_pp_init(dataset, config), config)
        _, optimum = brute_force_min_sse(dataset, k)
        assert clustering.sse >= optimum - 1e-9


def test_weighted_distance_changes_assignment():
    # Points separated on attribute b only; zeroing b's weight collapses them.
    dataset = tiny_dataset([(1, 1), (1, 10), (10, 1), (10, 10)])
    config = KMeansConfig(k=2, seed=4)
    weights = {"a": 1.0, "b": 0.0}
    clustering = lloyd(
        dataset, kmeans_pp_init(dataset, config, weights), config, weights
    )
    assert clustering.assignment["P0"] == clustering.assignment["P1"]
    assert clustering.assignment["P2"] == clustering.assignment["P3"]


def test_weight_vector_validation(sample_dataset):
    schema = sample_dataset.schema
    assert list(weight_vector(schema, None)) == [1.0] * 6
    assert weight_vector(schema, {"scalability": 2.0})[2] == 2.0
    with pytest.raises(DomainError, match="unknown attribute"):
        weight_vector(schema, {"mystery": 1.0})
    with pytest.raises(DomainError, match="negative"):
        weight_vector(schema, {"scalability": -1.0})
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DomainError, match="not finite"):
            weight_vector(schema, {"scalability": value})


def test_weight_vector_rejects_overflowing_sum(sample_dataset):
    schema = sample_dataset.schema
    assert weight_vector(schema, {"scalability": 1e308})[2] == 1e308
    with pytest.raises(DomainError, match="sum to more than the largest float"):
        weight_vector(schema, {"scalability": 1e308, "availability": 1e308})


def test_distance_weights_reject_an_overflowing_n_times_sum(sample_dataset):
    # The sum is finite, so these are valid scoring weights, but ten rows
    # times it are not: as distance weights they gave an infinite SSE.
    weights = {"reusability": 1e308, "customizability": 7e307}
    assert np.isfinite(weight_vector(sample_dataset.schema, weights).sum())
    config = KMeansConfig(k=3, seed=42)
    init = kmeans_pp_init(sample_dataset, config)
    clustering = lloyd(sample_dataset, init, config)
    for call in (
        lambda: kmeans._distance_weights(sample_dataset, weights),
        lambda: kmeans_pp_init(sample_dataset, config, weights),
        lambda: lloyd(sample_dataset, init, config, weights),
        lambda: sse(sample_dataset, clustering, weights),
    ):
        with pytest.raises(DomainError, match="weights times 10 candidates exceed the largest float"):
            call()


@pytest.mark.parametrize("greedy", [False, True])
def test_distance_weights_scaled_by_powers_of_4_scale_only_the_sse(greedy):
    # A power of 4 scales each weighted square exactly and each Hamerly bound
    # by a power of 2, so seeding, labels, centroids and iterations keep
    # their bits and SSE scales exactly, up to the largest scale whose
    # n * sum(w) is finite, and no float operation overflows on the way.
    dataset, config, _ = lloyd_instance(42, 600, 8, 8)
    base = dict(zip(dataset.schema.names, (1.0, 0.5, 3.0, 0.25, 1.0, 2.0, 0.75, 1.5)))
    links = max_size = None
    if greedy:
        pairs = random_pairs(random.Random(42), dataset.ids(), 40)
        links, max_size = build_link_components(ConstraintSpec(cannot_link=pairs), dataset), 82
    bound = len(dataset) * sum(base.values())
    jmax = 0
    while math.isfinite(bound * 4.0 ** (jmax + 1)):
        jmax += 1

    def run(j):
        weights = {name: w * 4.0**j for name, w in base.items()}
        with np.errstate(all="raise"):
            init = kmeans_pp_init(dataset, config, weights)
            return init, lloyd(dataset, init, config, weights, links, max_size)

    init, expected = run(0)
    assert expected.iterations > 1
    for j in (7, 100, jmax):
        got_init, got = run(j)
        assert got_init == init
        assert got.labels.tolist() == expected.labels.tolist()
        assert [v.hex() for v in got.centroids.ravel().tolist()] == [
            v.hex() for v in expected.centroids.ravel().tolist()
        ]
        assert got.iterations == expected.iterations
        assert got.sse == expected.sse * 4.0**j
    with pytest.raises(DomainError, match="exceed the largest float"):
        run(jmax + 1)


#: Attribute counts below, at and past numpy's eight running sums and its
#: 128-item block, which the distance kernel's order must follow.
SUM_LENGTHS = [*range(1, 20), 64, 127, 128, 129, 136, 257]


@pytest.mark.parametrize("d", SUM_LENGTHS)
def test_coordinate_sum_has_the_bits_of_a_row_sum(d):
    rng = np.random.default_rng(900 + d)
    terms = rng.standard_normal((d, 3, 41)) * 10.0 ** rng.integers(-6, 7, (d, 3, 41))
    expected = np.stack(list(terms), axis=-1).sum(axis=-1)
    for start in (0, 5):
        made = []

        def term(c):
            made.append(c)
            return terms[c - start].copy()  # the kernel adds into its terms

        assert kmeans._coordinate_sum(term, start, start + d).tobytes() == expected.tobytes()
        assert sorted(made) == list(range(start, start + d))


@pytest.mark.parametrize("d", SUM_LENGTHS)
def test_distance_matrix_matches_per_row_form(d):
    rng = np.random.default_rng(d)
    X = rng.random((37, d))
    C = rng.random((5, d))
    C[3] = C[1]  # equal columns exercise stable tie order
    w = rng.random(d) * 3
    D = distance_matrix(X, C, w)
    for i in range(len(X)):
        row = ((X[i] - C) ** 2 * w).sum(axis=1)
        assert D[i].tobytes() == row.tobytes()
        assert np.argsort(D, axis=1, kind="stable")[i].tolist() == np.argsort(row, kind="stable").tolist()
    # Any subset of rows, in any order and of any size, has the same bits.
    X = rng.random((300, d)) * 10.0 ** rng.integers(-3, 4, (300, d))
    D = distance_matrix(X, C, w)
    for idx in (
        np.array([7]),
        rng.choice(300, 17, replace=False),
        np.sort(rng.choice(300, 150, replace=False)),
        np.arange(300),
    ):
        assert distance_matrix(X[idx], C, w).tobytes() == D[idx].tobytes()


@pytest.mark.parametrize("d", range(1, 20))
def test_group_means_have_the_bits_of_one_mean_per_group(d):
    rng = np.random.default_rng(200 + d)
    sizes = (1, 2, 9, 129, 300)
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    X = rng.random((len(labels), d)) * 10.0 ** rng.integers(-3, 4, (len(labels), d))
    # One more group than labels use: it is empty.
    means, counts = group_means(X, labels, len(sizes) + 1)
    assert counts.tolist() == [*sizes, 0]
    for j in range(len(sizes)):
        assert means[j].tobytes() == X[labels == j].mean(axis=0).tobytes()
    assert np.isnan(means[-1]).all()
    # lloyd passes a column-major view; the sums do not change.
    columns = np.ascontiguousarray(X.T).T
    assert group_means(columns, labels, len(sizes) + 1)[0].tobytes() == means.tobytes()


def lloyd_case(seed, n, d, k, distinct, grid=False, coincide=False, far=False, zeros=0, links=0):
    """(dataset, init, weights, must-link components) drawn from ``seed``.

    ``distinct`` rows are drawn and the other n - distinct repeat them.
    ``grid`` puts every rating at 1, 5.5 or 10 (normalized 0, 0.5 and 1) and
    every init centroid on the quarter grid, so exact distance ties occur;
    otherwise ratings are uniform and init centroids are rows. ``coincide``
    makes the first two init centroids equal, ``far`` moves the last one
    outside the unit cube so its cluster starts empty, ``zeros`` attributes
    (all but one at most) get weight 0, and ``links`` random must-link pairs
    join rows into components.
    """
    rng = random.Random(seed)
    rating = (lambda: rng.choice((1.0, 5.5, 10.0))) if grid else (lambda: rng.uniform(1, 10))
    pool = [[rating() for _ in range(d)] for _ in range(distinct)]
    rows = pool + [pool[rng.randrange(distinct)] for _ in range(n - distinct)]
    rng.shuffle(rows)
    dataset = tiny_dataset(rows, tuple(f"f{i}" for i in range(d)))
    if grid:
        init = [tuple(rng.choice((0.0, 0.25, 0.5, 0.75, 1.0)) for _ in range(d)) for _ in range(k)]
    else:
        init = [tuple(dataset.normalized[rng.randrange(n)].tolist()) for _ in range(k)]
    if coincide and k > 1:
        init[1] = init[0]
    if far and k > 1:
        init[-1] = (3.0,) * d
    names = dataset.schema.names
    zeroed = set(rng.sample(names, min(zeros, d - 1)))
    weights = {name: 0.0 if name in zeroed else rng.choice((1.0, 0.5, 3.0)) for name in names}
    pairs = random_pairs(rng, dataset.ids(), links)
    components = build_link_components(ConstraintSpec(must_link=pairs), dataset) if pairs else None
    return dataset, tuple(init), weights, components


def assert_lloyd_matches_reference(dataset, init, weights, links, max_size=None):
    """``lloyd`` capped at t iterations equals the reference after its t-th,
    for every t up to the reference's convergence."""
    config = KMeansConfig(k=len(init), seed=0)
    steps = list(reference_lloyd_steps(dataset, init, weights, links, max_size))
    with pytest.MonkeyPatch.context() as patch:
        for t, (labels, centroids, expected_sse) in enumerate(steps, 1):
            patch.setattr(kmeans, "MAX_ITERATIONS", t)
            got = lloyd(dataset, init, config, weights, links, max_size)
            assert got.iterations == t
            assert got.labels.tolist() == list(labels)
            assert [v.hex() for row in got.centroids.tolist() for v in row] == [
                v.hex() for row in centroids for v in row
            ]
            assert got.sse.hex() == expected_sse.hex()


# The cases the bounds must survive, each built on purpose.
LLOYD_CASES = {
    "duplicate rows": dict(seed=1, n=40, d=3, k=4, distinct=5),
    "coincident init centroids": dict(seed=2, n=30, d=2, k=4, distinct=30, coincide=True),
    "exact ties": dict(seed=0, n=40, d=1, k=7, distinct=30, grid=True),
    "zero weight": dict(seed=4, n=40, d=4, k=4, distinct=40, zeros=2),
    "k = 1": dict(seed=5, n=20, d=3, k=1, distinct=20),
    "empty-cluster repair": dict(seed=6, n=30, d=3, k=4, distinct=30, far=True),
    "must-link components": dict(seed=7, n=40, d=3, k=4, distinct=40, links=12),
    "crowded bisectors": dict(seed=1, n=60, d=1, k=5, distinct=60),
    "one attribute, linked": dict(seed=8, n=60, d=1, k=3, distinct=60, links=6),
    # An empty-cluster repair moves centroid 2 onto centroid 3. The rows at
    # centroid 3 then hold a lower bound of 0.75 - 0.25 - 0.5 (times the
    # root of the weight), which rounds to above 0.
    "centroids that meet": dict(seed=2001, n=39, d=1, k=4, distinct=4, grid=True),
}


@pytest.mark.parametrize("case", list(LLOYD_CASES))
def test_lloyd_matches_the_unpruned_reference_every_iteration(case):
    assert_lloyd_matches_reference(*lloyd_case(**LLOYD_CASES[case]))


# pinned_instance arguments of greedy runs: cannot-links and a max size
# that binds (the second also starts with an empty cluster).
GREEDY_LLOYD_CASES = [(1, 200, 6, 5, 30, 10, 48), (2, 300, 6, 8, 60, 20, 60, True)]


@pytest.mark.parametrize("args", GREEDY_LLOYD_CASES)
def test_greedy_lloyd_matches_the_reference_every_iteration(args):
    dataset, spec, config, init = pinned_instance(*args)
    links = build_link_components(spec, dataset)
    assert links.lifted_cannot_link
    steps = list(reference_lloyd_steps(dataset, init, None, links, spec.max_cluster_size))
    assert len(steps) > 5
    # The max size binds: without it the run goes otherwise.
    assert steps != list(reference_lloyd_steps(dataset, init, None, links))
    assert_lloyd_matches_reference(dataset, init, None, links, spec.max_cluster_size)


def test_greedy_lloyd_deadlocks_where_the_reference_does():
    dataset, spec, config, init = pinned_instance(21, 240, 6, 6, 40, 20, 41)
    links = build_link_components(spec, dataset)
    done = []
    with pytest.raises(AssignmentDeadlockError) as expected:
        for step in reference_lloyd_steps(dataset, init, None, links, spec.max_cluster_size):
            done.append(step)
    with pytest.raises(AssignmentDeadlockError) as got:
        lloyd(dataset, init, config, None, links, spec.max_cluster_size)
    assert got.value.component == expected.value.component
    assert f" at iteration {len(done) + 1};" in str(got.value)


if st is not None:

    @settings(
        max_examples=40,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        d=st.integers(1, 5),
        k=st.integers(1, 8),
        distinct=st.integers(1, 60),
        grid=st.booleans(),
        coincide=st.booleans(),
        far=st.booleans(),
        zeros=st.integers(0, 4),
        links=st.integers(0, 15),
    )
    def test_lloyd_matches_the_unpruned_reference_property(
        seed, n, d, k, distinct, grid, coincide, far, zeros, links
    ):
        case = lloyd_case(seed, n, d, min(k, n), min(distinct, n), grid, coincide, far, zeros, links)
        assert_lloyd_matches_reference(*case)


def test_lloyd_recomputes_only_the_rows_its_bounds_cannot_settle(monkeypatch):
    dataset, config, init = lloyd_instance(42, 1500, 8, 8)
    rows = []
    full = kmeans.distance_matrix
    monkeypatch.setattr(
        kmeans, "distance_matrix", lambda X, C, w, runs=None: rows.append(len(X)) or full(X, C, w, runs)
    )
    clustering = lloyd(dataset, init, config)
    assert len(rows) == clustering.iterations
    assert rows[0] == len(dataset)
    assert sum(rows[1:]) < 0.5 * len(dataset) * (len(rows) - 1)


def run_bits(outcome):
    """A stack outcome at the bit level: the clustering's labels, centroids,
    SSE and iteration count, or the deadlock's message and component."""
    if isinstance(outcome, AssignmentDeadlockError):
        return str(outcome), outcome.component
    return (
        outcome.labels.tobytes(),
        outcome.centroids.tobytes(),
        outcome.sse.hex(),
        outcome.iterations,
        outcome.seed,
    )


def assert_stack_matches_single_runs(dataset, inits, weights=None, links=None, max_size=None):
    """``lloyd_stack`` over ``inits`` gives each run the outcome of its own
    one-run call."""
    config = KMeansConfig(k=len(inits[0]), seed=0)
    stacked = list(kmeans.lloyd_stack(dataset, inits, config, weights, links, max_size))
    alone = [next(kmeans.lloyd_stack(dataset, [init], config, weights, links, max_size)) for init in inits]
    assert list(map(run_bits, stacked)) == list(map(run_bits, alone))
    return stacked


def stack_inits(seed, dataset, init, runs):
    """``init`` and ``runs - 1`` more, each centroid drawn from the rows and
    from ``init``'s own, so the runs differ but share its ties, coincident
    centroids and far (empty-cluster) centroids."""
    rng = random.Random(seed)
    pool = [tuple(row) for row in dataset.normalized.tolist()] + list(init)
    return [init] + [tuple(rng.choice(pool) for _ in init) for _ in range(runs - 1)]


@pytest.mark.parametrize("case", list(LLOYD_CASES))
def test_a_stack_gives_each_run_its_single_run_outcome(case):
    dataset, init, weights, links = lloyd_case(**LLOYD_CASES[case])
    inits = stack_inits(LLOYD_CASES[case]["seed"], dataset, init, 5)
    stacked = assert_stack_matches_single_runs(dataset, inits, weights, links)
    if case == "empty-cluster repair":
        assert len({run.iterations for run in stacked}) > 1


@pytest.mark.parametrize("args", GREEDY_LLOYD_CASES)
def test_a_greedy_stack_gives_each_run_its_single_run_outcome(args):
    dataset, spec, config, init = pinned_instance(*args)
    links = build_link_components(spec, dataset)
    inits = [init, *kmeans.restart_inits(dataset, replace(config, restarts=4))]
    assert_stack_matches_single_runs(dataset, inits, None, links, spec.max_cluster_size)


def test_a_deadlock_ends_only_its_own_run():
    dataset, spec, config, init = pinned_instance(21, 240, 6, 6, 40, 20, 41)
    links = build_link_components(spec, dataset)
    inits = [init, *kmeans.restart_inits(dataset, replace(config, restarts=5))]
    stacked = assert_stack_matches_single_runs(dataset, inits, None, links, spec.max_cluster_size)
    deadlocked = [isinstance(run, AssignmentDeadlockError) for run in stacked]
    assert deadlocked == [True, True, True, False, False, True]
    # The reducer skips the deadlocked runs, and raises the first error when
    # every run deadlocks.
    best = kmeans.best_of_restarts(stacked)
    assert best.sse == min(run.sse for run in stacked if not isinstance(run, AssignmentDeadlockError))
    with pytest.raises(AssignmentDeadlockError) as first:
        kmeans.best_of_restarts([stacked[1], stacked[0]])
    assert first.value is stacked[1]


def test_lloyd_stack_reports_faults_in_the_single_run_order():
    # Restart inits are made on demand, so the seeding's own check comes
    # first; a given init's size is checked before k against n.
    empty = CandidateDataset(AttributeSchema(("a",)), [], np.zeros((0, 1)), [])
    config = KMeansConfig(k=1, seed=0, restarts=3)
    with pytest.raises(DomainError, match="dataset is empty"):
        run_kmeans(empty, config)
    with pytest.raises(DomainError, match="k exceeds candidate count"):
        lloyd(empty, [[0.5]], config)
    with pytest.raises(DomainError, match="init has 2 centroids but config.k is 1"):
        lloyd(empty, [[0.5], [0.2]], config)


def test_best_of_restarts_takes_the_lowest_sse_then_the_lowest_restart():
    def run(sse, label):
        return Clustering(("a", "b"), [0, label], [[0.0], [1.0]], sse, 1, 0)

    runs = [AssignmentDeadlockError("no slot"), run(2.0, 0), run(1.0, 1), run(1.0, 0)]
    assert kmeans.best_of_restarts(runs) is runs[2]


def test_lloyd_stack_holds_at_most_stack_entries(monkeypatch):
    dataset, config, _ = lloyd_instance(43, 300, 4, 5)
    inits = list(kmeans.restart_inits(dataset, replace(config, restarts=7)))
    stacked = list(map(run_bits, kmeans.lloyd_stack(dataset, inits, config)))
    # A stack's first iteration recomputes every row of every run in it.
    firsts = []
    full = kmeans.distance_matrix

    def first_iterations(X, C, w, runs=None):
        if len(X) == len(C) * len(dataset):
            firsts.append(len(C))
        return full(X, C, w, runs)

    monkeypatch.setattr(kmeans, "distance_matrix", first_iterations)
    list(kmeans.lloyd_stack(dataset, inits, config))
    assert firsts == [7] and kmeans.STACK_ENTRIES == 2**20
    # Three runs' rows per stack: runs 0-2, 3-5 and 6, in restart order.
    monkeypatch.setattr(kmeans, "STACK_ENTRIES", 3 * len(dataset) + 2)
    firsts.clear()
    assert list(map(run_bits, kmeans.lloyd_stack(dataset, inits, config))) == stacked
    assert firsts == [3, 3, 1]
    # Inits are read, and outcomes given, one stack at a time.
    read = []
    outcomes = kmeans.lloyd_stack(dataset, (read.append(r) or init for r, init in enumerate(inits)), config)
    assert run_bits(next(outcomes)) == stacked[0] and read == [0, 1, 2]
    # A single run larger than the bound still runs, alone.
    monkeypatch.setattr(kmeans, "STACK_ENTRIES", 1)
    firsts.clear()
    assert list(map(run_bits, kmeans.lloyd_stack(dataset, inits, config))) == stacked
    assert firsts == [1] * 7


if st is not None:

    @settings(
        max_examples=30,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        d=st.integers(1, 5),
        k=st.integers(1, 8),
        distinct=st.integers(1, 60),
        grid=st.booleans(),
        coincide=st.booleans(),
        far=st.booleans(),
        links=st.integers(0, 15),
        runs=st.integers(1, 5),
        max_size=st.one_of(st.none(), st.integers(1, 30)),
    )
    def test_a_stack_gives_each_run_its_single_run_outcome_property(
        seed, n, d, k, distinct, grid, coincide, far, links, runs, max_size
    ):
        dataset, init, weights, components = lloyd_case(
            seed, n, d, min(k, n), min(distinct, n), grid, coincide, far, 0, links
        )
        inits = stack_inits(seed, dataset, init, runs)
        assert_stack_matches_single_runs(dataset, inits, weights, components, max_size)


def test_silhouette_duplicated_tight_clusters():
    dataset = tiny_dataset([(1, 1), (1, 1), (10, 10), (10, 10)])
    clustering = lloyd(
        dataset,
        ((0.0, 0.0), (1.0, 1.0)),
        KMeansConfig(k=2, seed=0),
    )
    assert silhouette(dataset, clustering) == pytest.approx(1.0)


def test_silhouette_all_identical_points_is_zero():
    dataset = tiny_dataset([(5, 5)] * 4)
    from cbceval.model import Clustering

    clustering = Clustering(
        ids=dataset.ids(),
        labels=[i % 2 for i in range(4)],
        centroids=((0.444, 0.444), (0.444, 0.444)),
        sse=0.0,
        iterations=1,
        seed=0,
    )
    assert silhouette(dataset, clustering) == 0.0


def test_silhouette_requires_k_at_least_two(sample_dataset):
    clustering = run_kmeans(sample_dataset, KMeansConfig(k=1, seed=0))
    with pytest.raises(DomainError):
        silhouette(sample_dataset, clustering)


def test_silhouette_matches_independent_formula(sample_dataset):
    # Evaluate the oracle-optimal k=2 partition with a from-scratch pairwise
    # computation and compare against the engine.
    from cbceval.model import Clustering

    labels = dict(zip(sample_dataset.ids(), OPTIMAL_K2_SIGNATURE))
    X = sample_dataset.normalized
    centroids = tuple(
        tuple(X[[i for i, cid in enumerate(sample_dataset.ids()) if labels[cid] == j]].mean(axis=0))
        for j in (0, 1)
    )
    clustering = Clustering(
        ids=sample_dataset.ids(),
        labels=OPTIMAL_K2_SIGNATURE,
        centroids=centroids,
        sse=0.0,
        iterations=0,
        seed=0,
    )

    ids = sample_dataset.ids()
    dist = {
        (a, b): float(np.sqrt(((X[i] - X[j]) ** 2).sum()))
        for i, a in enumerate(ids)
        for j, b in enumerate(ids)
    }
    expected = []
    for cid in ids:
        own = [o for o in ids if labels[o] == labels[cid] and o != cid]
        other = [o for o in ids if labels[o] != labels[cid]]
        a = sum(dist[(cid, o)] for o in own) / len(own)
        b = sum(dist[(cid, o)] for o in other) / len(other)
        expected.append((b - a) / max(a, b))
    assert silhouette(sample_dataset, clustering) == pytest.approx(
        sum(expected) / len(expected), abs=1e-12
    )


# (seed, n, d, k) -> silhouette of a seeded run_kmeans clustering of
# random_dataset(Random(seed), n, d). No n is a multiple of the row block.
PINNED_SILHOUETTES = {
    (31, 300, 6, 2): 0.13861578021754875,
    (32, 517, 6, 5): 0.1303082048131109,
    (33, 700, 8, 8): 0.10363894693492617,
    (34, 100, 8, 3): 0.09790686981656999,
}


@pytest.mark.parametrize("args", list(PINNED_SILHOUETTES))
def test_silhouette_pinned(args):
    seed, n, d, k = args
    dataset = random_dataset(random.Random(seed), n, d)
    clustering = run_kmeans(dataset, KMeansConfig(k=k, seed=seed))
    assert silhouette(dataset, clustering) == PINNED_SILHOUETTES[args]


def test_choose_k_two_blobs():
    rng = random.Random(8)
    points = [(1 + rng.uniform(0, 0.4), 1 + rng.uniform(0, 0.4)) for _ in range(5)]
    points += [(9 + rng.uniform(0, 0.4), 9 + rng.uniform(0, 0.4)) for _ in range(5)]
    dataset = tiny_dataset(points)
    assert choose_k(dataset, seed=3) == 2


def test_choose_k_deterministic():
    dataset = tiny_dataset([(1, 1), (2, 9), (9, 2), (10, 10)])
    first = choose_k(dataset, seed=17)
    assert first == choose_k(dataset, seed=17)


def test_choose_k_below_three_candidates_is_one_cluster():
    points = [(1, 1), (9, 9), (5, 1)]
    for n in (0, 1, 2):
        assert choose_k(tiny_dataset(points[:n]), seed=0) == 1
    assert choose_k(tiny_dataset(points), seed=0) == 2


def test_choose_k_sweeps_up_to_the_cap(sample_dataset, monkeypatch):
    # evaluate without --k picks k=4 on the sample at seed 0.
    assert choose_k(sample_dataset, seed=0) == 4
    swept = []
    original = kmeans.run_kmeans
    monkeypatch.setattr(
        kmeans, "run_kmeans", lambda d, config: swept.append(config.k) or original(d, config)
    )
    choose_k(sample_dataset, seed=0)
    assert swept == list(range(2, kmeans.CHOOSE_K_MAX + 1))
    swept.clear()
    choose_k(take_rows(sample_dataset, range(5)), seed=0)
    assert swept == [2, 3, 4]


@pytest.mark.parametrize(("seed", "n", "d"), [(41, 300, 3), (42, 520, 6)])
def test_choose_k_matches_a_per_k_sweep(seed, n, d):
    # The per-k loop that perfbench/trace_layers.py replays: one silhouette
    # per clustering, the first best score wins.
    dataset = random_dataset(random.Random(seed), n, d)
    best_k, best = None, -np.inf
    for k in range(2, kmeans.CHOOSE_K_MAX + 1):
        config = KMeansConfig(k=k, seed=child_seed(seed, k), restarts=kmeans.CHOOSE_K_RESTARTS)
        score = silhouette(dataset, run_kmeans(dataset, config))
        if score > best:
            best_k, best = k, score
    assert choose_k(dataset, seed) == best_k


def test_restart_reduction_prefers_lower_sse(sample_dataset):
    single = run_kmeans(sample_dataset, KMeansConfig(k=3, seed=42))
    multi = run_kmeans(sample_dataset, KMeansConfig(k=3, seed=42, restarts=25))
    assert multi.sse <= single.sse + 1e-12
