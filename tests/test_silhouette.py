"""The batched silhouette against the per-row reference, bit for bit.

``kmeans._silhouettes`` scores many clusterings from one pass over the
distance blocks and takes each cluster's means for a whole block at once;
``helpers.reference_silhouette`` takes them one row and one 1-D mean at a
time. Hypothesis draws datasets with duplicate rows, all-identical points
and singleton clusters, k from 2 to 8, n around the block edges and up to
17 attributes, so the batched distances are added one by one, in eight
running sums and with a remainder; every score must have the same bits in
a batch and in a one-clustering call.
"""

import random
import tracemalloc

import pytest

from cbceval import kmeans
from cbceval.errors import DomainError
from cbceval.kmeans import SILHOUETTE_BLOCK, silhouette
from cbceval.model import AttributeSchema, CandidateDataset, Clustering

from helpers import reference_silhouette

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

PROPERTY = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SIZES = (SILHOUETTE_BLOCK - 1, SILHOUETTE_BLOCK, SILHOUETTE_BLOCK + 1, 2 * SILHOUETTE_BLOCK + 1)


def labeled(dataset: CandidateDataset, k: int, labels) -> Clustering:
    return Clustering(
        ids=dataset.ids(),
        labels=labels,
        centroids=((0.0,) * len(dataset.schema.names),) * k,
        sse=0.0,
        iterations=0,
        seed=0,
    )


def drawn_dataset(rng: random.Random, n: int, d: int, distinct: int, whole: bool) -> CandidateDataset:
    """n rows drawn from ``distinct`` distinct points (one: all identical)."""
    rating = (lambda: float(rng.randint(1, 10))) if whole else (lambda: rng.uniform(1, 10))
    pool = [[rating() for _ in range(d)] for _ in range(distinct)]
    rows = [pool[rng.randrange(distinct)] for _ in range(n)]
    return CandidateDataset(
        AttributeSchema(tuple(f"f{i}" for i in range(d))),
        [f"C{i:03d}" for i in range(n)],
        rows,
        [5.0] * n,
    )


def drawn_labels(rng: random.Random, n: int, k: int, singletons: int, skew: bool) -> list[int]:
    """Labels with clusters 0..singletons-1 of one member each and every
    other cluster non-empty; ``skew`` puts most rows in the last cluster."""
    order = list(range(n))
    rng.shuffle(order)
    labels = [0] * n
    for j, row in enumerate(order[:k]):
        labels[row] = j
    for row in order[k:]:
        if skew and rng.random() < 0.9:
            labels[row] = k - 1
        else:
            labels[row] = rng.randrange(singletons, k)
    return labels


@PROPERTY
@given(
    n=st.sampled_from(SIZES),
    d=st.integers(1, 17),
    distinct=st.sampled_from((1, 2, 7, 50, 1000)),
    whole=st.booleans(),
    plans=st.lists(
        st.tuples(st.integers(2, 8), st.integers(0, 7), st.booleans()), min_size=1, max_size=7
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_scores_equal_the_per_row_reference(n, d, distinct, whole, plans, seed):
    rng = random.Random(seed)
    dataset = drawn_dataset(rng, n, d, distinct, whole)
    clusterings = [
        labeled(dataset, k, drawn_labels(rng, n, k, min(singletons, k - 1), skew))
        for k, singletons, skew in plans
    ]
    expected = [reference_silhouette(dataset, c).hex() for c in clusterings]
    assert [score.hex() for score in kmeans._silhouettes(dataset, clusterings)] == expected
    assert [silhouette(dataset, c).hex() for c in clusterings] == expected


def test_all_identical_points_score_zero_in_a_batch():
    dataset = drawn_dataset(random.Random(0), SILHOUETTE_BLOCK + 1, 3, 1, True)
    clusterings = [labeled(dataset, k, [i % k for i in range(len(dataset))]) for k in range(2, 9)]
    assert kmeans._silhouettes(dataset, clusterings) == [0.0] * 7


@pytest.mark.parametrize(
    ("k", "labels", "message"),
    [
        (1, [0] * 6, "at least 2 clusters"),
        (3, [0, 1, 0, 1, 0, 1], "every cluster non-empty"),
    ],
)
def test_bad_clusterings_raise_alone_and_in_a_batch(k, labels, message):
    dataset = drawn_dataset(random.Random(1), 6, 2, 6, False)
    bad = labeled(dataset, k, labels)
    good = labeled(dataset, 2, [0, 1, 0, 1, 0, 1])
    with pytest.raises(DomainError, match=message):
        silhouette(dataset, bad)
    with pytest.raises(DomainError, match=message):
        kmeans._silhouettes(dataset, [good, bad])


def test_a_sweep_holds_a_few_distance_blocks():
    """The sweep's memory is a few block x n arrays, not a block x n x d one."""
    n = 1500
    rng = random.Random(2)
    dataset = drawn_dataset(rng, n, 6, 1000, False)
    clusterings = [labeled(dataset, k, drawn_labels(rng, n, k, 0, False)) for k in range(2, 9)]
    tracemalloc.start()
    try:
        kmeans._silhouettes(dataset, clusterings)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * SILHOUETTE_BLOCK * n * 8
