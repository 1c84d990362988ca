"""Seeded, deterministic k-means in normalized attribute space.

Distance is weighted squared Euclidean on min-max-normalized ratings.
Tie-breaking is always by lowest index and all randomness comes from the
package's portable generator, so identical inputs reproduce identical
clusterings bit for bit.
"""

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .errors import CBCError, DomainError
from .model import AttributeSchema, CandidateDataset, Clustering, normalize
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
    """n x d float64 matrix of normalized candidate ratings."""
    return np.array(
        [normalize(c.ratings, dataset.schema) for c in dataset.candidates],
        dtype=np.float64,
    ).reshape(len(dataset), len(dataset.schema.names))


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


def _repair_empty_clusters(
    labels: np.ndarray, X: np.ndarray, C: np.ndarray, w: np.ndarray, k: int
) -> np.ndarray:
    """Reseed each empty cluster with the point farthest from its own centroid.

    Sole members of a cluster are never stolen. Deterministic: ties resolve
    to the lowest point index, empties fill lowest first.
    """
    labels = labels.copy()
    while True:
        counts = np.bincount(labels, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            return labels
        d_own = ((X - C[labels]) ** 2 * w).sum(axis=1)
        d_own[counts[labels] < 2] = -1.0
        donor = int(np.argmax(d_own))
        if d_own[donor] < 0:
            return labels
        labels[donor] = int(empties[0])


def lloyd(
    dataset: CandidateDataset,
    init,
    config: KMeansConfig,
    weights: Mapping[str, float] | None = None,
) -> Clustering:
    """Alternate nearest-centroid assignment and mean updates until the
    largest centroid movement drops to ``convergence_tol`` (or the iteration
    cap). SSE is non-increasing across iterations."""
    n = len(dataset)
    k = len(init)
    if k != config.k:
        raise DomainError(f"init has {k} centroids but config.k is {config.k}")
    if k > n:
        raise DomainError("k exceeds candidate count")
    X = normalized_matrix(dataset)
    w = weight_vector(dataset.schema, weights)
    C = np.array(init, dtype=np.float64).reshape(k, X.shape[1])

    labels = np.zeros(n, dtype=np.int64)
    iterations = 0
    prev_sse = np.inf
    for _ in range(config.max_iterations):
        labels = distance_matrix(X, C, w).argmin(axis=1)
        labels = _repair_empty_clusters(labels, X, C, w, k)
        new_C = np.stack([X[labels == j].mean(axis=0) for j in range(k)])
        movement = float(np.sqrt(((new_C - C) ** 2).sum(axis=1)).max())
        C = new_C
        iterations += 1
        current = float(((X - C[labels]) ** 2 * w).sum())
        if not current <= prev_sse + 1e-9:
            raise CBCError(
                f"SSE rose from {prev_sse!r} to {current!r} at Lloyd iteration "
                f"{iterations}; inputs must be finite"
            )
        prev_sse = current
        if movement <= config.convergence_tol:
            break

    assignment = {c.id: int(labels[i]) for i, c in enumerate(dataset.candidates)}
    return Clustering(
        k=k,
        assignment=assignment,
        centroids=tuple(tuple(float(v) for v in row) for row in C),
        sse=prev_sse,
        iterations=iterations,
        seed=config.seed,
    )


def run_kmeans(
    dataset: CandidateDataset,
    config: KMeansConfig,
    weights: Mapping[str, float] | None = None,
) -> Clustering:
    """Best-of-restarts k-means; results reduce by (SSE, restart index) so
    the selected run never depends on execution order. The returned record
    carries the base seed."""
    best: Clustering | None = None
    for r in range(config.restarts):
        seed_r = config.seed if r == 0 else child_seed(config.seed, r)
        cfg = replace(config, seed=seed_r, restarts=1)
        init = kmeans_pp_init(dataset, cfg, weights)
        clustering = lloyd(dataset, init, cfg, weights)
        if best is None or clustering.sse < best.sse:
            best = clustering
    return replace(best, seed=config.seed)


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
