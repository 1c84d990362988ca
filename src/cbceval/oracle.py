"""Brute-force reference implementations backing tests and `verify`.

Partitions are enumerated as restricted growth strings (canonical set-
partition form), which sidesteps the k! label blowup. Capacity is guarded so
exhaustive runs stay fast. Constraint checks here are written independently
of the constraints module on purpose: the two sides cross-validate each
other.
"""

from typing import Iterator

import numpy as np

from .errors import CapacityError, DomainError
from .constraints import USER_CAPACITY_FIELDS, USER_COST_FIELDS
from .kmeans import weight_vector
from .model import CandidateDataset, Clustering, ConstraintSpec

MAX_CANDIDATES = 12
MAX_CLUSTERS = 4


def restricted_growth_strings(n: int, kmax: int) -> Iterator[tuple[int, ...]]:
    """All canonical label strings over n items using at most kmax labels.

    a[0] = 0 and a[i] <= max(a[0..i-1]) + 1, so each set partition appears
    exactly once, in lexicographic order.
    """
    if n == 0:
        yield ()
        return
    a = [0] * n
    b = [0] * n  # b[i] = max(a[0..i-1])
    while True:
        yield tuple(a)
        i = n - 1
        while i > 0 and a[i] >= min(b[i] + 1, kmax - 1):
            i -= 1
        if i == 0:
            return
        a[i] += 1
        for j in range(i + 1, n):
            b[j] = max(b[j - 1], a[j - 1])
            a[j] = 0


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


def _sizes_ok(counts: list[int], spec: ConstraintSpec) -> bool:
    if spec.min_cluster_size and any(c < spec.min_cluster_size for c in counts):
        return False
    if spec.max_cluster_size is not None and any(
        c > spec.max_cluster_size for c in counts
    ):
        return False
    return True


def _assignment_valid(
    labels: tuple[int, ...],
    k: int,
    comp_sizes: list[int],
    cl_pairs: set[tuple[int, int]],
    spec: ConstraintSpec,
) -> bool:
    for a, b in cl_pairs:
        if labels[a] == labels[b]:
            return False
    counts = [0] * k
    for comp, label in enumerate(labels):
        counts[label] += comp_sizes[comp]
    return _sizes_ok(counts, spec)


def _expand(labels: tuple[int, ...], components: list[list[int]], n: int) -> list[int]:
    out = [0] * n
    for comp, label in enumerate(labels):
        for i in components[comp]:
            out[i] = label
    return out


def brute_force_min_sse(
    dataset: CandidateDataset, k: int, spec: ConstraintSpec = ConstraintSpec()
) -> tuple[Clustering, float] | None:
    """Exhaustive minimum-SSE clustering (weighted by spec.distance_weights).

    Skips assignments violating link or size constraints; the default empty
    spec has none, so every assignment counts. Global existential and
    threshold rules do not constrain assignments and are ignored here (see
    brute_force_feasible_exists).
    Returns None when every assignment is infeasible. Ties resolve to the
    lexicographically smallest canonical signature.
    """
    n = len(dataset)
    _guard(n, k)
    if n == 0:
        raise DomainError("dataset is empty")
    X = dataset.normalized
    w = weight_vector(dataset.schema, spec.distance_weights)
    components = _components_for(spec, dataset)
    cl_pairs = _lifted_pairs(spec, dataset, components)
    comp_sizes = [len(c) for c in components]
    comp_sums = [X[comp].sum(axis=0) for comp in components]
    comp_squares = [(X[comp] ** 2).sum(axis=0) for comp in components]

    best_sse = None
    best_labels = None
    for labels in restricted_growth_strings(len(components), k):
        if not _assignment_valid(labels, k, comp_sizes, cl_pairs, spec):
            continue
        sums = np.zeros((k, X.shape[1]))
        squares = np.zeros((k, X.shape[1]))
        counts = [0] * k
        for comp, label in enumerate(labels):
            sums[label] += comp_sums[comp]
            squares[label] += comp_squares[comp]
            counts[label] += comp_sizes[comp]
        # Each attribute's scatter, sum(x**2) - sum(x)**2 / count, is taken
        # before its weight: it is at most count, so the weighted term stays
        # within n * sum(w), and no weighted totals cancel.
        sse_value = 0.0
        for j in range(k):
            if counts[j]:
                sse_value += float((w * (squares[j] - sums[j] ** 2 / counts[j])).sum())
        if best_sse is None or sse_value < best_sse:
            best_sse = sse_value
            best_labels = labels

    if best_labels is None:
        return None

    point_labels = _expand(best_labels, components, n)
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
    """Decide spec satisfiability exhaustively: global rules must hold and
    some assignment must satisfy all link and size constraints.

    Returns (exists, witness assignment or None, reason).
    """
    n = len(dataset)
    _guard(n, k)

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

    components = _components_for(spec, dataset)
    cl_pairs = _lifted_pairs(spec, dataset, components)
    comp_sizes = [len(c) for c in components]

    checked = 0
    for labels in restricted_growth_strings(len(components), k):
        checked += 1
        if _assignment_valid(labels, k, comp_sizes, cl_pairs, spec):
            point_labels = _expand(labels, components, n)
            witness = {cid: point_labels[i] for i, cid in enumerate(dataset.ids())}
            return (True, witness, f"witness found after {checked} assignments")
    return (False, None, f"exhausted {checked} assignments without a witness")
