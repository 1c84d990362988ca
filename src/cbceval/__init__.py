"""Constraint-based clustering and evaluation of SaaS candidates.

Clusters candidate rating vectors with seeded k-means, refines clusters into
feasibility micro-clusters under user constraints, detects constraint
deadlocks, and ranks the surviving candidates into an evaluation report.
"""

from .cbc import CBCConfig, CBCResult, constrained_assign, refine_micro_clusters, run_pipeline
from .constraints import (
    LinkComponents,
    build_link_components,
    detect_deadlock,
    feasibility_partition,
)
from .errors import (
    AssignmentDeadlockError,
    CapacityError,
    CBCError,
    DomainError,
    ParseError,
)
from .evaluate import rank, report_json
from .ingest import (
    ValidationReport,
    bind_and_validate,
    parse_constraint_spec,
    parse_dataset,
    serialize_dataset,
)
from .kmeans import (
    KMeansConfig,
    choose_k,
    kmeans_pp_init,
    lloyd,
    run_kmeans,
    silhouette,
    sse,
)
from .model import (
    AttributeSchema,
    CandidateDataset,
    Clustering,
    ConstraintSpec,
    DeadlockCause,
    DeadlockReport,
    ExistentialRule,
    MicroCluster,
    MicroClustering,
    UserConstraintSpec,
    Violation,
)
from .oracle import brute_force_feasible_exists, brute_force_min_sse

__version__ = "0.1.0"

__all__ = [
    "AssignmentDeadlockError",
    "AttributeSchema",
    "CBCConfig",
    "CBCError",
    "CBCResult",
    "CandidateDataset",
    "CapacityError",
    "Clustering",
    "ConstraintSpec",
    "DeadlockCause",
    "DeadlockReport",
    "DomainError",
    "ExistentialRule",
    "KMeansConfig",
    "LinkComponents",
    "MicroCluster",
    "MicroClustering",
    "ParseError",
    "UserConstraintSpec",
    "ValidationReport",
    "Violation",
    "bind_and_validate",
    "brute_force_feasible_exists",
    "brute_force_min_sse",
    "build_link_components",
    "choose_k",
    "constrained_assign",
    "detect_deadlock",
    "feasibility_partition",
    "kmeans_pp_init",
    "lloyd",
    "parse_constraint_spec",
    "parse_dataset",
    "rank",
    "refine_micro_clusters",
    "report_json",
    "run_kmeans",
    "run_pipeline",
    "serialize_dataset",
    "silhouette",
    "sse",
]
