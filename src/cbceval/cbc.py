"""The three-stage constraint-based clustering pipeline.

Stage 0 checks the bound constraint set for deadlocks and aborts on one.
Stage 1 clusters with one seeded Lloyd loop over must-link components (single
candidates when nothing links them), placing each greedily when cannot-links
or a maximum size constrain membership. Stage 2 refines each cluster into
feasible/infeasible micro-clusters, and stage 3 re-checks existential rules
against the feasible population only, annotating (never aborting) the result.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .constraints import (
    LinkComponents,
    build_link_components,
    detect_deadlock,
    feasibility_partition,
)
from .errors import AssignmentDeadlockError, DomainError
from .ingest import bind_and_validate
from .kmeans import KMeansConfig, best_of_restarts, component_lloyd, kmeans_pp_init
from .model import (
    CandidateDataset,
    Clustering,
    ConstraintSpec,
    DeadlockReport,
    FEASIBLE,
    INFEASIBLE,
    MicroCluster,
    MicroClustering,
)


@dataclass(frozen=True)
class CBCConfig:
    kmeans: KMeansConfig


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
    *,
    components: LinkComponents | None = None,
) -> Clustering:
    """``kmeans.component_lloyd`` over the spec's must-link components, with
    its cannot-links and max size. A cannot-link pair inside one component is
    rejected up front, and the final partition is checked against
    min_cluster_size (greedy assignment cannot guarantee it). ``components``
    is the spec's ``build_link_components`` result when the caller already
    has it.
    """
    if components is None:
        components = build_link_components(spec, dataset)
    if components.conflicts:
        a, b = components.conflicts[0]
        raise DomainError(
            f"cannot_link pair ({a}, {b}) inside one must-link component; "
            f"run detect_deadlock first"
        )
    clustering = component_lloyd(
        dataset,
        centroids,
        config,
        spec.distance_weights,
        components.components,
        components.lifted_cannot_link,
        spec.max_cluster_size,
    )

    if spec.min_cluster_size:
        member_counts = np.bincount(list(clustering.assignment.values()), minlength=clustering.k)
        if np.any(member_counts < spec.min_cluster_size):
            small = int(np.flatnonzero(member_counts < spec.min_cluster_size)[0])
            raise AssignmentDeadlockError(
                f"cluster {small} ended with {int(member_counts[small])} members, "
                f"below min_cluster_size {spec.min_cluster_size}; greedy "
                f"assignment cannot guarantee minimum sizes",
            )
    return clustering


def refine_micro_clusters(
    clustering: Clustering, dataset: CandidateDataset, spec: ConstraintSpec
) -> MicroClustering:
    """Split each parent cluster into its feasible and infeasible members
    (empty sides omitted), each in dataset order. Parent assignments are
    never touched."""
    feasible_ids, infeasible = feasibility_partition(dataset, spec)
    ids = dataset.ids()
    infeasible_rows = np.ones(len(ids), dtype=np.int64)
    infeasible_rows[[dataset.row_of[cid] for cid in feasible_ids]] = 0
    labels = np.array([clustering.assignment[cid] for cid in ids], dtype=np.int64)
    # Sorting by (parent, side) with a stable sort groups each side's members
    # in dataset order, feasible side first.
    groups = 2 * labels + infeasible_rows
    order = np.argsort(groups, kind="stable").tolist()
    ends = np.cumsum(np.bincount(groups, minlength=2 * clustering.k)).tolist()

    micro = []
    start = 0
    for group, end in enumerate(ends):
        if end > start:
            micro.append(
                MicroCluster(
                    parent=group // 2,
                    label=INFEASIBLE if group % 2 else FEASIBLE,
                    members=tuple(ids[i] for i in order[start:end]),
                )
            )
        start = end
    return MicroClustering(
        parent=clustering, micro_clusters=tuple(micro), violations=dict(infeasible)
    )


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
    components = build_link_components(spec, dataset)
    deadlock = detect_deadlock(spec, dataset, k, components=components)
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
    # With no assignment constraints every component is a single row, so
    # constrained_assign is plain k-means.
    weights = spec.distance_weights
    clustering = best_of_restarts(
        replace(config.kmeans, k=k),
        lambda cfg: constrained_assign(
            dataset, kmeans_pp_init(dataset, cfg, weights), spec, cfg, components=components
        ),
    )
    log.append(
        StageRecord(
            "cluster",
            time.perf_counter() - t0,
            f"k={k} sse={clustering.sse:.6g} iterations={clustering.iterations}",
        )
    )

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
