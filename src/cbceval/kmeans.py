"""Seeded, deterministic k-means in normalized attribute space: one Lloyd
loop over must-link components serves plain and constrained clustering.

Distance is weighted squared Euclidean on min-max-normalized ratings.
Tie-breaking is always by lowest index and all randomness comes from the
package's portable generator, so identical inputs reproduce identical
clusterings bit for bit.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import AssignmentDeadlockError, CBCError, DomainError
from .model import AttributeSchema, CandidateDataset, Clustering
from .rng import SplitMix64, child_seed


@dataclass(frozen=True)
class KMeansConfig:
    k: int
    seed: int
    max_iterations: int = 100
    convergence_tol: float = 1e-9
    restarts: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise DomainError(f"k must be at least 1, got {self.k}")
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be at least 1")
        if self.restarts < 1:
            raise DomainError("restarts must be at least 1")
        if self.convergence_tol < 0:
            raise DomainError("convergence_tol must be nonnegative")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must be an unsigned 64-bit integer")


def normalized_matrix(dataset: CandidateDataset) -> np.ndarray:
    """n x d float64 matrix of normalized candidate ratings (the dataset's
    read-only cached copy)."""
    return dataset.normalized


def weight_vector(
    schema: AttributeSchema, weights: Mapping[str, float] | None
) -> np.ndarray:
    """Per-attribute distance weights aligned to the schema (default all ones).

    Attributes missing from a partial mapping keep weight 1.
    """
    if weights is None:
        return np.ones(len(schema.names), dtype=np.float64)
    for name, value in weights.items():
        if name not in schema.names:
            raise DomainError(f"unknown attribute {name!r} in weights")
        if not math.isfinite(value):
            raise DomainError(f"weight for {name} is not finite")
        if value < 0:
            raise DomainError(f"weight for {name} is negative")
    vec = np.array([float(weights.get(n, 1.0)) for n in schema.names], dtype=np.float64)
    if not np.any(vec > 0):
        raise DomainError("weights need at least one positive entry")
    return vec


def _sq_distances(X: np.ndarray, point: np.ndarray, w: np.ndarray) -> np.ndarray:
    return ((X - point) ** 2 * w).sum(axis=1)


def distance_matrix(X: np.ndarray, C: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows x centroids matrix of weighted squared distances.

    Entry (i, j) is bit-identical to ``((X[i] - C[j]) ** 2 * w).sum()``:
    each is one reduction over the d coordinates of a contiguous row.
    """
    return np.stack([_sq_distances(X, C[j], w) for j in range(len(C))], axis=1)


def kmeans_pp_init(
    dataset: CandidateDataset,
    config: KMeansConfig,
    weights: Mapping[str, float] | None = None,
) -> tuple[tuple[float, ...], ...]:
    """D^2-weighted seeding: first centroid uniform, each next one drawn with
    probability proportional to squared weighted distance to the nearest
    already-chosen centroid. Deterministic given (dataset, seed)."""
    n = len(dataset)
    if n < 1:
        raise DomainError("dataset is empty")
    if config.k > n:
        raise DomainError("k exceeds candidate count")
    X = normalized_matrix(dataset)
    w = weight_vector(dataset.schema, weights)
    rng = SplitMix64(config.seed)

    chosen = [rng.randbelow(n)]
    d2 = _sq_distances(X, X[chosen[0]], w)
    while len(chosen) < config.k:
        total = float(d2.sum())
        if total <= 0.0:
            # All points coincide with a centroid; take the lowest unchosen index.
            taken = set(chosen)
            idx = next(i for i in range(n) if i not in taken)
        else:
            u = rng.next_float() * total
            cum = np.cumsum(d2)
            idx = int(np.searchsorted(cum, u, side="right"))
            if idx >= n:
                idx = int(np.flatnonzero(d2 > 0)[-1])
        chosen.append(idx)
        d2 = np.minimum(d2, _sq_distances(X, X[idx], w))
    return tuple(tuple(float(v) for v in X[i]) for i in chosen)


def component_lloyd(
    dataset: CandidateDataset,
    init,
    config: KMeansConfig,
    weights: Mapping[str, float] | None = None,
    components: Sequence[tuple[str, ...]] | None = None,
    cannot_link: Sequence[tuple[int, int]] = (),
    max_size: int | None = None,
) -> Clustering:
    """The Lloyd loop, over must-link components placed whole by the
    weighted distance of their means.

    ``components`` partitions the ids in order of first member, as
    ``build_link_components`` lists them (None: every candidate alone), and
    ``cannot_link`` pairs component indices. Without cannot-links and
    ``max_size`` each component goes to its nearest centroid and SSE must
    not rise. Otherwise a greedy pass (COP-KMeans) takes components in index
    order to the nearest centroid that breaks no cannot-link with a placed
    component and no max size; one with none raises AssignmentDeadlockError,
    even where an exhaustive search may succeed. Equal distances go to the
    lowest cluster index.
    """
    ids = dataset.ids()
    k = len(init)
    if k != config.k:
        raise DomainError(f"init has {k} centroids but config.k is {config.k}")
    if k > len(ids):
        raise DomainError("k exceeds candidate count")
    X = normalized_matrix(dataset)
    w = weight_vector(dataset.schema, weights)
    C = np.array(init, dtype=np.float64).reshape(k, X.shape[1])
    if components is None or len(components) == len(ids):
        # Single candidates in dataset order: a one-row mean is the row itself.
        M, sizes, row_comp = X, [1] * len(X), None
    else:
        index = {cid: i for i, cid in enumerate(ids)}
        rows = [[index[cid] for cid in comp] for comp in components]
        M = X[[r[0] for r in rows]]
        for ci, r in enumerate(rows):
            if len(r) > 1:
                M[ci] = X[r].mean(axis=0)
        sizes = [len(r) for r in rows]
        row_comp = np.empty(len(X), dtype=np.int64)
        row_comp[[i for r in rows for i in r]] = np.repeat(np.arange(len(M)), sizes)
    greedy = bool(cannot_link) or max_size is not None
    if greedy:
        apart = [[] for _ in range(len(M))]
        for a, b in cannot_link:
            apart[a].append(b)
            apart[b].append(a)

    iterations = 0
    prev_sse = np.inf
    for _ in range(config.max_iterations):
        D = distance_matrix(M, C, w)
        if not greedy:
            comp_labels = D.argmin(axis=1)
        else:
            orders = np.argsort(D, axis=1, kind="stable").tolist()
            counts = [0] * k
            # Components are placed in index order, so every earlier component
            # holds its label for this iteration and every later one is still -1.
            placed = [-1] * len(M)
            for ci, order in enumerate(orders):
                size = sizes[ci]
                partners = apart[ci]
                for j in order:
                    if max_size is not None and counts[j] + size > max_size:
                        continue
                    if partners and any(placed[other] == j for other in partners):
                        continue
                    placed[ci] = j
                    counts[j] += size
                    break
                else:
                    component = (ids[ci],) if components is None else components[ci]
                    raise AssignmentDeadlockError(
                        f"no admissible cluster for must-link component "
                        f"{component} at iteration {iterations + 1}; "
                        f"greedy order found no slot (an exhaustive search may "
                        f"still succeed at small n)",
                        component=component,
                    )
            comp_labels = np.array(placed, dtype=np.int64)
        # Reseed each empty cluster with the component farthest from its own
        # centroid, never a cluster's sole one (any placed component fits a
        # max size alone). Ties go to the lowest index, empties fill lowest first.
        while True:
            occupants = np.bincount(comp_labels, minlength=k)
            empties = np.flatnonzero(occupants == 0)
            if empties.size == 0:
                break
            d_own = ((M - C[comp_labels]) ** 2 * w).sum(axis=1)
            d_own[occupants[comp_labels] < 2] = -1.0
            donor = int(np.argmax(d_own))
            if d_own[donor] < 0:
                break
            comp_labels[donor] = int(empties[0])

        labels = comp_labels if row_comp is None else comp_labels[row_comp]
        members = np.bincount(labels, minlength=k)
        new_C = np.stack([X[labels == j].mean(axis=0) if members[j] else C[j] for j in range(k)])
        movement = float(np.sqrt(((new_C - C) ** 2).sum(axis=1)).max())
        C = new_C
        iterations += 1
        current = float(((X - C[labels]) ** 2 * w).sum())
        # Nearest-centroid placement cannot raise SSE, so a rise means
        # non-finite input; the greedy pass trades distance for admissibility.
        if not greedy and not current <= prev_sse + 1e-9:
            raise CBCError(
                f"SSE rose from {prev_sse!r} to {current!r} at Lloyd iteration "
                f"{iterations}; inputs must be finite"
            )
        prev_sse = current
        if movement <= config.convergence_tol:
            break

    return Clustering(
        k=k,
        assignment=dict(zip(ids, labels.tolist())),
        centroids=tuple(tuple(float(v) for v in row) for row in C),
        sse=prev_sse,
        iterations=iterations,
        seed=config.seed,
    )


def lloyd(
    dataset: CandidateDataset,
    init,
    config: KMeansConfig,
    weights: Mapping[str, float] | None = None,
) -> Clustering:
    """Plain k-means: ``component_lloyd`` with every candidate its own
    component, so SSE is non-increasing across iterations."""
    return component_lloyd(dataset, init, config, weights)


def best_of_restarts(
    config: KMeansConfig, attempt: Callable[[KMeansConfig], Clustering]
) -> Clustering:
    """Best of ``config.restarts`` attempts, restart r > 0 at ``child_seed(seed, r)``.

    Results reduce by (SSE, restart index), so the selected run never depends
    on execution order. Restarts that raise AssignmentDeadlockError are
    skipped; if all do, the first error is raised. The record carries the
    base seed."""
    best: Clustering | None = None
    first_error: AssignmentDeadlockError | None = None
    for r in range(config.restarts):
        seed_r = config.seed if r == 0 else child_seed(config.seed, r)
        try:
            clustering = attempt(replace(config, seed=seed_r, restarts=1))
        except AssignmentDeadlockError as exc:
            if first_error is None:
                first_error = exc
            continue
        if best is None or clustering.sse < best.sse:
            best = clustering
    if best is None:
        raise first_error
    return replace(best, seed=config.seed)


def run_kmeans(
    dataset: CandidateDataset,
    config: KMeansConfig,
    weights: Mapping[str, float] | None = None,
) -> Clustering:
    """Best-of-restarts plain k-means from k-means++ seeds."""
    # ``lloyd`` is looked up per restart, so wrapping the module attribute
    # sees every call.
    return best_of_restarts(
        config,
        lambda cfg: lloyd(dataset, kmeans_pp_init(dataset, cfg, weights), cfg, weights),
    )


def sse(
    dataset: CandidateDataset,
    clustering: Clustering,
    weights: Mapping[str, float] | None = None,
) -> float:
    """Recompute the sum of squared weighted distances to assigned centroids."""
    X = normalized_matrix(dataset)
    w = weight_vector(dataset.schema, weights)
    C = np.array(clustering.centroids, dtype=np.float64)
    labels = np.array(
        [clustering.assignment[c.id] for c in dataset.candidates], dtype=np.int64
    )
    return float(((X - C[labels]) ** 2 * w).sum())


SILHOUETTE_BLOCK = 256


def silhouette(dataset: CandidateDataset, clustering: Clustering) -> float:
    """Mean silhouette coefficient with plain Euclidean distance on the
    normalized ratings. Singleton members contribute 0, as does the
    degenerate a = b = 0 case.

    Distances are computed for ``SILHOUETTE_BLOCK`` rows at a time, so
    memory is O(block * n * d) rather than O(n^2 * d). Each mean runs over
    its members in dataset order, so the block size never changes a score.
    """
    k = clustering.k
    if k < 2:
        raise DomainError("silhouette needs at least 2 clusters")
    X = normalized_matrix(dataset)
    labels = np.array(
        [clustering.assignment[c.id] for c in dataset.candidates], dtype=np.int64
    )
    counts = np.bincount(labels, minlength=k)
    if np.any(counts == 0):
        raise DomainError("silhouette needs every cluster non-empty")
    members = [np.flatnonzero(labels == j) for j in range(k)]

    n = len(dataset)
    scores = np.zeros(n)
    for start in range(0, n, SILHOUETTE_BLOCK):
        block = X[start : start + SILHOUETTE_BLOCK]
        D = np.sqrt(((block[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
        for r, own in enumerate(labels[start : start + len(block)].tolist()):
            if counts[own] < 2:
                continue
            i = start + r
            same = members[own]
            a = float(D[r, same[same != i]].mean())
            b = min(float(D[r, members[other]].mean()) for other in range(k) if other != own)
            denom = max(a, b)
            if denom != 0.0:
                scores[i] = (b - a) / denom
    return float(np.mean(scores))


def choose_k(
    dataset: CandidateDataset,
    k_range: tuple[int, int],
    seed: int,
    *,
    restarts: int = 10,
    weights: Mapping[str, float] | None = None,
) -> int:
    """Pick the k in the inclusive range maximizing silhouette over seeded
    best-of-restarts runs; ties go to the smallest k."""
    lo, hi = k_range
    n = len(dataset)
    if lo > hi:
        raise DomainError(f"empty k range [{lo}, {hi}]")
    if lo < 2 or hi > n - 1:
        raise DomainError(f"k range [{lo}, {hi}] must lie within [2, {n - 1}]")
    best_k = None
    best_score = -np.inf
    for k in range(lo, hi + 1):
        config = KMeansConfig(k=k, seed=child_seed(seed, k), restarts=restarts)
        clustering = run_kmeans(dataset, config, weights)
        score = silhouette(dataset, clustering)
        if score > best_score:
            best_k, best_score = k, score
    return best_k


def partition_signature(assignment: Mapping[str, int], dataset: CandidateDataset) -> tuple[int, ...]:
    """Canonical label sequence in dataset order, relabeled by first occurrence.

    Two clusterings are the same partition iff their signatures are equal.
    """
    relabel: dict[int, int] = {}
    signature = []
    for cand in dataset.candidates:
        label = assignment[cand.id]
        if label not in relabel:
            relabel[label] = len(relabel)
        signature.append(relabel[label])
    return tuple(signature)
