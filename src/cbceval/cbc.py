"""The three-stage constraint-based clustering pipeline.

Stage 0 checks the bound constraint set for deadlocks and aborts on one.
Stage 1 clusters: plain seeded k-means when nothing constrains membership,
otherwise greedy constrained assignment over must-link components. Stage 2
refines each cluster into feasible/infeasible micro-clusters, and stage 3
re-checks existential rules against the feasible population only, annotating
(never aborting) the result.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .constraints import (
    build_link_components,
    detect_deadlock,
    feasibility_partition,
)
from .errors import AssignmentDeadlockError, DomainError
from .ingest import bind_and_validate
from .kmeans import (
    KMeansConfig,
    distance_matrix,
    kmeans_pp_init,
    normalized_matrix,
    run_kmeans,
    weight_vector,
)
from .model import (
    CandidateDataset,
    Clustering,
    ConstraintSpec,
    DeadlockReport,
    FEASIBLE,
    INFEASIBLE,
    MicroCluster,
    MicroClustering,
    Violation,
)
from .rng import child_seed


@dataclass(frozen=True)
class CBCConfig:
    kmeans: KMeansConfig
    enforce_links: bool = True
    refine: bool = True


@dataclass(frozen=True)
class StageRecord:
    name: str
    duration: float
    summary: str


@dataclass(frozen=True)
class CBCResult:
    """Pipeline output. ``clustering`` and ``micro`` are absent when a
    bind-time deadlock aborted the run; the stage log records the abort."""

    clustering: Clustering | None
    micro: MicroClustering | None
    deadlock: DeadlockReport
    stage_log: tuple[StageRecord, ...]
    spec: ConstraintSpec = field(default_factory=ConstraintSpec)
    config: CBCConfig | None = None

    @property
    def aborted(self) -> bool:
        return self.clustering is None


def constrained_assign(
    dataset: CandidateDataset,
    centroids,
    spec: ConstraintSpec,
    config: KMeansConfig,
) -> Clustering:
    """Greedy constrained Lloyd iteration.

    Must-link components are placed whole, in dataset order, each to the
    nearest centroid (weighted distance of the component mean) that breaks
    no cannot-link against already-placed components and no max size. Each
    iteration computes one components x clusters distance matrix and sorts
    every row once with a stable sort, so equal distances go to the lowest
    cluster index. A component with no admissible cluster raises
    AssignmentDeadlockError; greedy order can produce that even when an
    exhaustive search would succeed. The final partition is also checked
    against min_cluster_size.
    """
    n = len(dataset)
    k = len(centroids)
    if k != config.k:
        raise DomainError(f"init has {k} centroids but config.k is {config.k}")
    if k > n:
        raise DomainError("k exceeds candidate count")
    components = build_link_components(spec, dataset)
    if components.conflicts:
        a, b = components.conflicts[0]
        raise DomainError(
            f"cannot_link pair ({a}, {b}) inside one must-link component; "
            f"run detect_deadlock first"
        )

    X = normalized_matrix(dataset)
    w = weight_vector(dataset.schema, spec.distance_weights)
    index = {cid: i for i, cid in enumerate(dataset.ids())}
    comp_rows = [np.array([index[cid] for cid in comp]) for comp in components.components]
    comp_means = np.stack([X[rows].mean(axis=0) for rows in comp_rows])
    comp_sizes = [len(rows) for rows in comp_rows]
    row_comp = np.array([components.component_of[cid] for cid in dataset.ids()])
    m = len(comp_rows)
    adjacency = [[] for _ in range(m)]
    for a, b in components.lifted_cannot_link:
        adjacency[a].append(b)
        adjacency[b].append(a)
    max_size = spec.max_cluster_size

    C = np.array(centroids, dtype=np.float64).reshape(k, X.shape[1])
    iterations = 0
    for _ in range(config.max_iterations):
        orders = np.argsort(distance_matrix(comp_means, C, w), axis=1, kind="stable").tolist()
        counts = [0] * k
        # Components are placed in index order, so every earlier component
        # holds its label for this iteration and every later one is still -1.
        comp_labels = [-1] * m
        for ci in range(m):
            size = comp_sizes[ci]
            apart = adjacency[ci]
            for j in orders[ci]:
                if max_size is not None and counts[j] + size > max_size:
                    continue
                if apart and any(comp_labels[other] == j for other in apart):
                    continue
                comp_labels[ci] = j
                counts[j] += size
                break
            else:
                raise AssignmentDeadlockError(
                    f"no admissible cluster for must-link component "
                    f"{components.components[ci]} at iteration {iterations + 1}; "
                    f"greedy order found no slot (an exhaustive search may "
                    f"still succeed at small n)",
                    component=components.components[ci],
                )

        if 0 in counts:
            comp_labels = _repair_empty_component_clusters(
                comp_labels, comp_means, comp_sizes, C, w, k, max_size
            )

        labels = np.array(comp_labels, dtype=np.int64)[row_comp]
        new_C = np.stack(
            [
                X[labels == j].mean(axis=0) if np.any(labels == j) else C[j]
                for j in range(k)
            ]
        )
        movement = float(np.sqrt(((new_C - C) ** 2).sum(axis=1)).max())
        C = new_C
        iterations += 1
        if movement <= config.convergence_tol:
            break

    if spec.min_cluster_size:
        member_counts = np.bincount(labels, minlength=k)
        if np.any(member_counts < spec.min_cluster_size):
            small = int(np.flatnonzero(member_counts < spec.min_cluster_size)[0])
            raise AssignmentDeadlockError(
                f"cluster {small} ended with {int(member_counts[small])} members, "
                f"below min_cluster_size {spec.min_cluster_size}; greedy "
                f"assignment cannot guarantee minimum sizes",
            )

    assignment = dict(zip(dataset.ids(), labels.tolist()))
    sse_value = float(((X - C[labels]) ** 2 * w).sum())
    return Clustering(
        k=k,
        assignment=assignment,
        centroids=tuple(tuple(float(v) for v in row) for row in C),
        sse=sse_value,
        iterations=iterations,
        seed=config.seed,
    )


def _repair_empty_component_clusters(comp_labels, comp_means, comp_sizes, C, w, k, max_size):
    """Move the worst-fitting movable component into each empty cluster.

    Mirrors the plain-Lloyd repair exactly when components are singletons:
    the donor is the component farthest from its current centroid whose
    cluster keeps at least one component, ties to the lowest index.
    """
    comp_labels = list(comp_labels)
    m = len(comp_labels)
    while True:
        counts = [0] * k
        occupants = [0] * k
        for ci, label in enumerate(comp_labels):
            counts[label] += comp_sizes[ci]
            occupants[label] += 1
        empties = [j for j in range(k) if occupants[j] == 0]
        if not empties:
            return comp_labels
        target = empties[0]
        best = None
        best_dist = -1.0
        for ci in range(m):
            if occupants[comp_labels[ci]] < 2:
                continue
            if max_size is not None and comp_sizes[ci] > max_size:
                continue
            dist = float(((comp_means[ci] - C[comp_labels[ci]]) ** 2 * w).sum())
            if dist > best_dist:
                best, best_dist = ci, dist
        if best is None:
            return comp_labels
        comp_labels[best] = target


def refine_micro_clusters(
    clustering: Clustering, dataset: CandidateDataset, spec: ConstraintSpec
) -> MicroClustering:
    """Split each parent cluster into its feasible and infeasible members
    (empty sides omitted). Parent assignments are never touched."""
    feasible_ids, infeasible = feasibility_partition(dataset, spec)
    feasible_set = set(feasible_ids)
    violations: dict[str, tuple[Violation, ...]] = dict(infeasible)

    micro = []
    for j in range(clustering.k):
        members = [c.id for c in dataset.candidates if clustering.assignment[c.id] == j]
        good = tuple(cid for cid in members if cid in feasible_set)
        bad = tuple(cid for cid in members if cid not in feasible_set)
        if good:
            micro.append(MicroCluster(parent=j, label=FEASIBLE, members=good))
        if bad:
            micro.append(MicroCluster(parent=j, label=INFEASIBLE, members=bad))
    return MicroClustering(
        parent=clustering, micro_clusters=tuple(micro), violations=violations
    )


def _cluster_stage(
    dataset: CandidateDataset, spec: ConstraintSpec, config: CBCConfig, k: int
) -> Clustering:
    base = replace(config.kmeans, k=k)
    needs_constrained = config.enforce_links and spec.has_assignment_constraints
    if not needs_constrained:
        return run_kmeans(dataset, base, spec.distance_weights)

    best: Clustering | None = None
    first_error: AssignmentDeadlockError | None = None
    for r in range(base.restarts):
        seed_r = base.seed if r == 0 else child_seed(base.seed, r)
        cfg = replace(base, seed=seed_r, restarts=1)
        init = kmeans_pp_init(dataset, cfg, spec.distance_weights)
        try:
            clustering = constrained_assign(dataset, init, spec, cfg)
        except AssignmentDeadlockError as exc:
            if first_error is None:
                first_error = exc
            continue
        if best is None or clustering.sse < best.sse:
            best = clustering
    if best is None:
        raise first_error
    return replace(best, seed=base.seed)


def run_pipeline(
    dataset: CandidateDataset, spec: ConstraintSpec, config: CBCConfig
) -> CBCResult:
    """Run bind check, clustering, refinement, and the post-refinement
    deadlock re-check. A bind-time deadlock aborts with a structured result;
    an assignment deadlock propagates as an error."""
    log: list[StageRecord] = []

    t0 = time.perf_counter()
    report = bind_and_validate(dataset, spec)
    if not report.ok:
        raise DomainError(f"spec does not bind to dataset: {report.summary()}")
    k = spec.k if spec.k is not None else config.kmeans.k
    if k > len(dataset):
        raise DomainError("k exceeds candidate count")
    log.append(StageRecord("bind", time.perf_counter() - t0, f"ok, k={k}"))

    t0 = time.perf_counter()
    deadlock = detect_deadlock(spec, dataset, k)
    log.append(
        StageRecord(
            "deadlock",
            time.perf_counter() - t0,
            f"{len(deadlock.causes)} causes" if deadlock.deadlocked else "no deadlock",
        )
    )
    if deadlock.deadlocked:
        log.append(StageRecord("abort", 0.0, "bind-time deadlock"))
        return CBCResult(None, None, deadlock, tuple(log), spec, config)

    t0 = time.perf_counter()
    clustering = _cluster_stage(dataset, spec, config, k)
    log.append(
        StageRecord(
            "cluster",
            time.perf_counter() - t0,
            f"k={k} sse={clustering.sse:.6g} iterations={clustering.iterations}",
        )
    )

    if not config.refine:
        return CBCResult(clustering, None, deadlock, tuple(log), spec, config)

    t0 = time.perf_counter()
    micro = refine_micro_clusters(clustering, dataset, spec)
    feasible_ids = micro.feasible_ids()
    log.append(
        StageRecord(
            "refine",
            time.perf_counter() - t0,
            f"{len(micro.micro_clusters)} micro-clusters, "
            f"{len(feasible_ids)} feasible candidates",
        )
    )

    t0 = time.perf_counter()
    recheck = detect_deadlock(
        spec,
        dataset,
        k,
        stage="post-refinement",
        population=list(feasible_ids),
        structural=False,
    )
    log.append(
        StageRecord(
            "recheck",
            time.perf_counter() - t0,
            f"{len(recheck.causes)} causes" if recheck.deadlocked else "no deadlock",
        )
    )
    return CBCResult(clustering, micro, recheck, tuple(log), spec, config)
