"""The three-stage constraint-based clustering pipeline.

Stage 0 checks the bound constraint set for deadlocks and aborts on one.
Stage 1 clusters with ``kmeans.lloyd_stack``, every restart in one stack,
over must-link components (single candidates when nothing links them),
given as row labels that each stage builds from the spec, placing each
greedily when cannot-links or a maximum size constrain membership. Stage 2
refines each cluster into feasible/infeasible micro-clusters, and stage 3
re-checks existential rules against the feasible population only,
annotating (never aborting) the result.
"""

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .constraints import build_link_components, detect_deadlock, feasibility_partition
from .errors import AssignmentDeadlockError, DomainError
from .ingest import bind_and_validate
# ``lloyd_stack`` is bound here by name, so replacing the module attribute
# ``kmeans.lloyd_stack`` (to see plain k-means runs) never sees this module's calls.
from .kmeans import KMeansConfig, best_of_restarts, lloyd_stack, restart_inits
from .model import (
    CandidateDataset,
    Clustering,
    ConstraintSpec,
    DeadlockReport,
    MicroClustering,
)


@dataclass(frozen=True)
class CBCConfig:
    kmeans: KMeansConfig


@dataclass(frozen=True)
class StageRecord:
    name: str
    summary: str


@dataclass(frozen=True)
class CBCResult:
    """Pipeline output. ``micro`` (and with it ``clustering``, its parent) is
    absent when a bind-time deadlock aborted the run; the stage log records
    the abort. ``config`` is the one the run used: its k is the run's k."""

    micro: MicroClustering | None
    deadlock: DeadlockReport
    stage_log: tuple[StageRecord, ...]
    spec: ConstraintSpec
    config: CBCConfig

    @property
    def clustering(self) -> Clustering | None:
        return None if self.micro is None else self.micro.parent

    @property
    def aborted(self) -> bool:
        return self.micro is None


def _constrained_runs(
    dataset: CandidateDataset,
    inits,
    spec: ConstraintSpec,
    config: KMeansConfig,
) -> Iterator[Clustering | AssignmentDeadlockError]:
    """``kmeans.lloyd_stack`` from each of ``inits`` over the spec's
    must-link components, with its cannot-links and max size. A cannot-link
    pair inside one component is rejected up front, and each final partition
    is checked against min_cluster_size (greedy assignment cannot guarantee
    it): a run below it ends in an AssignmentDeadlockError.
    """
    components = build_link_components(spec, dataset)
    if components.conflicts:
        a, b = components.conflicts[0]
        raise DomainError(
            f"cannot_link pair ({a}, {b}) inside one must-link component; "
            f"run detect_deadlock first"
        )
    outcomes = lloyd_stack(
        dataset,
        inits,
        config,
        spec.distance_weights,
        components,
        spec.max_cluster_size,
    )
    return (_sized(outcome, spec.min_cluster_size) for outcome in outcomes)


def _sized(outcome, min_size: int | None):
    """``outcome``, or the error of a clustering with a cluster below ``min_size``."""
    if not min_size or isinstance(outcome, AssignmentDeadlockError):
        return outcome
    member_counts = np.bincount(outcome.labels, minlength=outcome.k)
    if not np.any(member_counts < min_size):
        return outcome
    small = int(np.flatnonzero(member_counts < min_size)[0])
    return AssignmentDeadlockError(
        f"cluster {small} ended with {int(member_counts[small])} members, "
        f"below min_cluster_size {min_size}; greedy "
        f"assignment cannot guarantee minimum sizes",
    )


def constrained_assign(
    dataset: CandidateDataset,
    centroids,
    spec: ConstraintSpec,
    config: KMeansConfig,
) -> Clustering:
    """``_constrained_runs`` as a stack of one, from ``centroids``; a
    deadlocked run raises its AssignmentDeadlockError."""
    return best_of_restarts(_constrained_runs(dataset, [centroids], spec, config))


def refine_micro_clusters(
    clustering: Clustering, dataset: CandidateDataset, spec: ConstraintSpec
) -> MicroClustering:
    """Split each parent cluster into its feasible and infeasible members
    (empty sides omitted), each in dataset order. Parent assignments are
    never touched."""
    clustering.check_rows(dataset)
    return MicroClustering(clustering, feasibility_partition(dataset, spec))


def run_pipeline(
    dataset: CandidateDataset, spec: ConstraintSpec, config: CBCConfig
) -> CBCResult:
    """Run bind check, clustering, refinement, and the post-refinement
    deadlock re-check. A bind-time deadlock aborts with a structured result;
    an assignment deadlock propagates as an error. The spec's k, when set,
    overrides the config's, and the result records the config with the k
    used."""
    k = spec.k if spec.k is not None else config.kmeans.k
    report = bind_and_validate(dataset, spec, k)
    if not report.ok:
        raise DomainError(f"spec does not bind to dataset: {report.summary()}")
    config = replace(config, kmeans=replace(config.kmeans, k=k))
    log = [StageRecord("bind", f"ok, k={k}")]

    deadlock = detect_deadlock(spec, dataset, k)
    log.append(
        StageRecord(
            "deadlock",
            f"{len(deadlock.causes)} causes" if deadlock.deadlocked else "no deadlock",
        )
    )
    if deadlock.deadlocked:
        log.append(StageRecord("abort", "bind-time deadlock"))
        return CBCResult(None, deadlock, tuple(log), spec, config)

    # With no assignment constraints every component is a single row, so
    # _constrained_runs is plain k-means.
    inits = restart_inits(dataset, config.kmeans, spec.distance_weights)
    clustering = best_of_restarts(_constrained_runs(dataset, inits, spec, config.kmeans))
    log.append(
        StageRecord(
            "cluster", f"k={k} sse={clustering.sse:.6g} iterations={clustering.iterations}"
        )
    )

    micro = refine_micro_clusters(clustering, dataset, spec)
    feasible_ids = micro.feasible_ids()
    log.append(
        StageRecord(
            "refine",
            f"{len(micro.micro_clusters)} micro-clusters, "
            f"{len(feasible_ids)} feasible candidates",
        )
    )

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
            "recheck", f"{len(recheck.causes)} causes" if recheck.deadlocked else "no deadlock"
        )
    )
    return CBCResult(micro, recheck, tuple(log), spec, config)
