"""Exact reference implementations backing tests and `verify`.

Every constraint the oracle applies is a property of one cluster: once
must-links merge candidates into components, a block of components is
valid or not on its own, by the cannot-link pairs inside it and by its size.
So one exact search over the subsets of components, the subset dynamic
program of set partitioning (Björklund, Husfeldt & Koivisto, SIAM J.
Comput. 2009), finds the minimum-SSE partition and, with it, whether any
valid one exists. Capacity is guarded so the search stays fast. Constraint
checks here are written independently of the constraints module on
purpose: the two sides cross-validate each other.
"""

import math

import numpy as np

from .errors import CapacityError, DomainError
from .constraints import USER_CAPACITY_FIELDS, USER_COST_FIELDS
from .kmeans import weight_vector
from .model import CandidateDataset, Clustering, ConstraintSpec

MAX_CANDIDATES = 12
MAX_CLUSTERS = 4


def _guard(n: int, k: int):
    if n > MAX_CANDIDATES or k > MAX_CLUSTERS:
        raise CapacityError(
            f"exhaustive search capped at n <= {MAX_CANDIDATES}, "
            f"k <= {MAX_CLUSTERS} (got n={n}, k={k})"
        )
    if k < 1:
        raise DomainError(f"k must be at least 1, got {k}")


def _components_for(spec: ConstraintSpec, dataset: CandidateDataset) -> list[list[int]]:
    """Must-link components as candidate index lists, ordered by first member.

    Independent of the constraints module: a direct merge pass over pairs.
    """
    index = dataset.row_of
    groups = {i: {i} for i in range(len(dataset))}
    owner = {i: i for i in range(len(dataset))}
    for a, b in spec.must_link:
        if a not in index or b not in index:
            raise DomainError(f"unknown id in must_link pair ({a}, {b})")
        ra, rb = owner[index[a]], owner[index[b]]
        if ra == rb:
            continue
        ra, rb = min(ra, rb), max(ra, rb)
        for member in groups[rb]:
            owner[member] = ra
        groups[ra] |= groups.pop(rb)
    for a, b in spec.cannot_link:
        if a not in index or b not in index:
            raise DomainError(f"unknown id in cannot_link pair ({a}, {b})")
    return [sorted(groups[root]) for root in sorted(groups)]


def _lifted_pairs(spec: ConstraintSpec, dataset, components: list[list[int]]) -> set[tuple[int, int]]:
    pairs = set()
    comp_of = {i: c for c, comp in enumerate(components) for i in comp}
    for a, b in spec.cannot_link:
        ca, cb = comp_of[dataset.row_of[a]], comp_of[dataset.row_of[b]]
        pairs.add((min(ca, cb), max(ca, cb)))
    return pairs


def _best_partition(
    dataset: CandidateDataset, k: int, spec: ConstraintSpec
) -> tuple[int, list[int] | None, float]:
    """The least-SSE split of the must-link components into at most k valid
    blocks, exactly k when min_cluster_size is set (an empty cluster is below
    it): (component count, each row's label or None if no split is valid,
    SSE). Labels are numbered in order of each block's first member.

    Component i is bit i of a block's mask. Blocks are placed in label order,
    each holding the lowest component not yet placed, and each set of placed
    components keeps its least running sum, of equal sums the first found,
    extending the sets in ascending mask order. So a tie goes to the fewest
    blocks allowed, then to the first optimal block in submask order: the
    largest last block as a mask, and so back to the first.
    """
    X = dataset.normalized
    w = weight_vector(dataset.schema, spec.distance_weights)
    components = _components_for(spec, dataset)
    m, size = len(components), 1 << len(components)
    # Row `mask` of each table extends row `mask - 2**j` by component j, its
    # highest bit, so a block's sums add its components in ascending order
    # starting from zero.
    counts = np.zeros(size, dtype=np.int64)
    sums = np.zeros((size, X.shape[1]))
    squares = np.zeros((size, X.shape[1]))
    for j, comp in enumerate(components):
        low, high = slice(0, 1 << j), slice(1 << j, 2 << j)
        counts[high] = counts[low] + len(comp)
        sums[high] = sums[low] + X[comp].sum(axis=0)
        squares[high] = squares[low] + (X[comp] ** 2).sum(axis=0)
    masks = np.arange(size)
    valid = masks > 0
    for a, b in _lifted_pairs(spec, dataset, components):
        valid &= (masks >> a) & (masks >> b) & 1 == 0
    if spec.min_cluster_size:
        valid &= counts >= spec.min_cluster_size
    if spec.max_cluster_size is not None:
        valid &= counts <= spec.max_cluster_size
    # Each attribute's scatter, sum(x**2) - sum(x)**2 / count, is taken
    # before its weight: it is at most count, so the weighted term stays
    # within n * sum(w), and no weighted totals cancel. Each row is summed as
    # numpy sums one row, so a block costs the bits it costs alone.
    cost = np.full(size, math.inf)
    scatter = w * (squares[1:] - sums[1:] ** 2 / counts[1:, None])
    cost[1:] = np.where(valid[1:], scatter.sum(axis=1), math.inf)
    cost = cost.tolist()

    # best[t][placed] is the least SSE of t blocks covering `placed`, summed
    # in label order from 0.0. Rounding a sum is monotone in each term, so
    # extending each placed set's least sum reaches every least sum.
    full = size - 1
    best = [[math.inf] * size for _ in range(k + 1)]
    came = [[0] * size for _ in range(k + 1)]
    best[0][0] = 0.0
    for t in range(k):
        here, there, via = best[t], best[t + 1], came[t + 1]
        for placed, total in enumerate(here):
            if total == math.inf or placed == full:
                continue
            free = full ^ placed
            low = free & -free
            rest = sub = free ^ low
            while True:
                block = sub | low
                value = total + cost[block]
                if value < there[placed | block]:
                    there[placed | block] = value
                    via[placed | block] = block
                if not sub:
                    break
                sub = (sub - 1) & rest

    t = k if spec.min_cluster_size else min(range(1, k + 1), key=lambda j: best[j][full])
    if best[t][full] == math.inf:
        return m, None, math.inf
    labels = [0] * len(dataset)
    placed = full
    for label in range(t - 1, -1, -1):
        block = came[label + 1][placed]
        placed ^= block
        for c, comp in enumerate(components):
            if block >> c & 1:
                for i in comp:
                    labels[i] = label
    return m, labels, best[t][full]


def brute_force_min_sse(
    dataset: CandidateDataset, k: int, spec: ConstraintSpec = ConstraintSpec()
) -> tuple[Clustering, float] | None:
    """Exact minimum-SSE clustering (weighted by spec.distance_weights).

    Only assignments meeting the link and size constraints count; the
    default empty spec has none. Global existential and threshold rules do
    not constrain assignments and are ignored here (see
    brute_force_feasible_exists).
    Returns None when every assignment is infeasible. The SSE is the least,
    over valid partitions, of the cluster scatters summed in label order.
    Ties resolve to the first optimal block in submask order (see
    _best_partition).
    """
    n = len(dataset)
    _guard(n, k)
    if n == 0:
        raise DomainError("dataset is empty")
    _, point_labels, best_sse = _best_partition(dataset, k, spec)
    if point_labels is None:
        return None

    X = dataset.normalized
    centroids = []
    for j in range(k):
        members = [i for i in range(n) if point_labels[i] == j]
        if members:
            centroids.append(tuple(float(v) for v in X[members].mean(axis=0)))
        else:
            centroids.append(tuple(0.0 for _ in range(X.shape[1])))
    best_sse = max(best_sse, 0.0)
    clustering = Clustering(
        ids=dataset.ids(),
        labels=point_labels,
        centroids=tuple(centroids),
        sse=best_sse,
        iterations=0,
        seed=0,
    )
    return clustering, best_sse


def _independent_feasible(
    ratings: list[float], constraints_rating: float, dataset: CandidateDataset, spec: ConstraintSpec
) -> bool:
    """Threshold plus user-bridged per-candidate rules, restated from scratch."""
    if constraints_rating < spec.feasibility_threshold:
        return False
    if spec.user_spec is None:
        return True
    lowered = {name.lower(): i for i, name in enumerate(dataset.schema.names)}
    for field in USER_COST_FIELDS:
        value = getattr(spec.user_spec, field)
        if value is not None and field in lowered:
            if ratings[lowered[field]] > value:
                return False
    for field in USER_CAPACITY_FIELDS:
        value = getattr(spec.user_spec, field)
        if value is not None and field in lowered:
            if ratings[lowered[field]] < value:
                return False
    return True


def _rule_satisfied(value: float, op: str, threshold: float) -> bool:
    return {
        ">=": value >= threshold,
        "<=": value <= threshold,
        ">": value > threshold,
        "<": value < threshold,
        "==": value == threshold,
    }[op]


def brute_force_feasible_exists(
    spec: ConstraintSpec, dataset: CandidateDataset, k: int
) -> tuple[bool, dict[str, int] | None, str]:
    """Decide spec satisfiability exactly: global rules must hold and some
    assignment must satisfy all link and size constraints.

    Returns (exists, witness assignment or None, reason). The witness is the
    partition brute_force_min_sse returns, labelled by first member.
    """
    _guard(len(dataset), k)

    rows = dataset.ratings.tolist()
    lowered = {name.lower(): i for i, name in enumerate(dataset.schema.names)}
    for rule in spec.existential:
        idx = dataset.schema.index_of(rule.attribute)
        satisfying = sum(1 for row in rows if _rule_satisfied(row[idx], rule.op, rule.threshold))
        if satisfying < rule.min_count:
            return (
                False,
                None,
                f"existential rule on {rule.attribute} has {satisfying} < "
                f"{rule.min_count} satisfying candidates",
            )
    if spec.user_spec is not None:
        for field, op in (
            *((f, "<=") for f in USER_COST_FIELDS),
            *((f, ">=") for f in USER_CAPACITY_FIELDS),
        ):
            value = getattr(spec.user_spec, field)
            if value is None or field not in lowered:
                continue
            satisfying = sum(
                1 for row in rows if _rule_satisfied(row[lowered[field]], op, float(value))
            )
            if satisfying < 1:
                return (
                    False,
                    None,
                    f"no candidate satisfies user_spec.{field} {op} {value}",
                )

    if not any(
        _independent_feasible(row, c, dataset, spec)
        for row, c in zip(rows, dataset.constraints_ratings.tolist())
    ):
        return (
            False,
            None,
            f"no candidate reaches feasibility threshold "
            f"{spec.feasibility_threshold:g}",
        )

    m, labels, _ = _best_partition(dataset, k, spec)
    if labels is None:
        return (False, None, f"no assignment of {m} components meets the link and size constraints")
    witness = dict(zip(dataset.ids(), labels))
    return (True, witness, f"witness found by exact search over {m} components")
