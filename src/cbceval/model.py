"""Core domain types for constraint-based SaaS candidate evaluation.

Immutable value types shared by every other module: the attribute schema,
candidate rating vectors, the compiled constraint model, and the result
records produced by the clustering pipeline. No I/O, and no algorithms
beyond rating normalization.
"""

import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import DomainError

#: The six core SaaS features: the paper's default rating schema.
KEY_FEATURES = (
    "reusability",
    "customizability",
    "scalability",
    "availability",
    "data_management",
    "pay_per_use",
)

DEFAULT_SCALE_MIN = 1.0
DEFAULT_SCALE_MAX = 10.0

#: Default feasibility threshold: midpoint of the default 1..10 rating scale.
#: Always overridable in the constraint spec.
DEFAULT_FEASIBILITY_THRESHOLD = 5.5

_COMPARE = {
    ">=": operator.ge,
    "<=": operator.le,
    ">": operator.gt,
    "<": operator.lt,
    "==": operator.eq,
}
COMPARATORS = tuple(_COMPARE)

BUDGET_CLASSES = ("low", "medium", "high")


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered rating attributes plus the shared rating scale."""

    names: tuple[str, ...]
    scale_min: float = DEFAULT_SCALE_MIN
    scale_max: float = DEFAULT_SCALE_MAX

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if not names:
            raise DomainError("schema needs at least one attribute")
        for name in names:
            if not isinstance(name, str) or not name.strip():
                raise DomainError("attribute names must be non-empty strings")
        if len(set(names)) != len(names):
            raise DomainError("attribute names must be unique")
        if not self.scale_min < self.scale_max:
            raise DomainError(
                f"scale_min {self.scale_min} must be below scale_max {self.scale_max}"
            )

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DomainError(f"unknown attribute {name!r}") from None


def normalize(ratings, schema: AttributeSchema) -> tuple[float, ...]:
    """Map ratings onto [0, 1] per attribute via the declared scale bounds.

    Uses the schema's fixed bounds rather than data-dependent min/max so
    distances stay comparable across datasets and runs.
    """
    if len(ratings) != len(schema.names):
        raise DomainError(
            f"expected {len(schema.names)} ratings, got {len(ratings)}"
        )
    span = schema.scale_max - schema.scale_min
    out = []
    for name, r in zip(schema.names, ratings):
        if not schema.scale_min <= r <= schema.scale_max:
            raise DomainError(
                f"rating {r} for attribute {name} outside "
                f"[{schema.scale_min}, {schema.scale_max}]"
            )
        out.append((r - schema.scale_min) / span)
    return tuple(out)


def denormalize(values, schema: AttributeSchema) -> tuple[float, ...]:
    """Inverse of :func:`normalize` for values in [0, 1]."""
    if len(values) != len(schema.names):
        raise DomainError(
            f"expected {len(schema.names)} values, got {len(values)}"
        )
    span = schema.scale_max - schema.scale_min
    out = []
    for name, v in zip(schema.names, values):
        if not 0.0 <= v <= 1.0:
            raise DomainError(f"normalized value {v} for attribute {name} outside [0, 1]")
        out.append(schema.scale_min + v * span)
    return tuple(out)


@dataclass(frozen=True)
class Candidate:
    """One SaaS candidate: a rating vector plus its aggregate constraints rating."""

    id: str
    ratings: tuple[float, ...]
    constraints_rating: float

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id.strip():
            raise DomainError("candidate id must be a non-empty string")
        object.__setattr__(self, "ratings", tuple(float(r) for r in self.ratings))
        object.__setattr__(self, "constraints_rating", float(self.constraints_rating))


@dataclass(frozen=True)
class CandidateDataset:
    """Ordered candidates over a shared schema. Order is the determinism anchor.

    The columnar form is built once, here, and is read-only: ``ratings``
    (n x d raw ratings), ``normalized`` (the same matrix mapped onto [0, 1]
    exactly as :func:`normalize` maps one row), ``constraints_ratings``
    (length n) and ``row_of`` (id -> row index, in dataset order).
    """

    schema: AttributeSchema
    candidates: tuple[Candidate, ...]
    ratings: np.ndarray = field(init=False, repr=False, compare=False)
    normalized: np.ndarray = field(init=False, repr=False, compare=False)
    constraints_ratings: np.ndarray = field(init=False, repr=False, compare=False)
    row_of: Mapping[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        candidates = tuple(self.candidates)
        object.__setattr__(self, "candidates", candidates)
        schema = self.schema
        d = len(schema.names)
        # Rows before the first duplicate id or wrong-length row are range
        # checked first, so the error raised is the one for the earliest row.
        row_of: dict[str, int] = {}
        shape_error = None
        for cand in candidates:
            if cand.id in row_of:
                shape_error = f"duplicate candidate id {cand.id}"
                break
            if len(cand.ratings) != d:
                shape_error = (
                    f"candidate {cand.id}: expected {d} ratings, got {len(cand.ratings)}"
                )
                break
            row_of[cand.id] = len(row_of)
        checked = candidates[: len(row_of)]
        ratings = np.array([c.ratings for c in checked], dtype=np.float64).reshape(len(checked), d)
        constraints = np.array([c.constraints_rating for c in checked], dtype=np.float64)
        lo, hi = schema.scale_min, schema.scale_max
        bad_rating = ~((lo <= ratings) & (ratings <= hi))
        bad_rows = np.flatnonzero(bad_rating.any(axis=1) | ~((lo <= constraints) & (constraints <= hi)))
        if bad_rows.size:
            cand = checked[bad_rows[0]]
            columns = np.flatnonzero(bad_rating[bad_rows[0]])
            if columns.size:
                j = int(columns[0])
                raise DomainError(
                    f"candidate {cand.id}, attribute {schema.names[j]}: "
                    f"rating {cand.ratings[j]} out of range"
                )
            raise DomainError(
                f"candidate {cand.id}: constraints rating "
                f"{cand.constraints_rating} out of range"
            )
        if shape_error is not None:
            raise DomainError(shape_error)
        normalized = (ratings - lo) / (hi - lo)
        for array in (ratings, normalized, constraints):
            array.flags.writeable = False
        object.__setattr__(self, "ratings", ratings)
        object.__setattr__(self, "normalized", normalized)
        object.__setattr__(self, "constraints_ratings", constraints)
        object.__setattr__(self, "row_of", MappingProxyType(row_of))

    def __reduce__(self):
        # Pickle and copy rebuild the columnar form; a mapping proxy cannot
        # be pickled.
        return (CandidateDataset, (self.schema, self.candidates))

    def __len__(self) -> int:
        return len(self.candidates)

    def ids(self) -> tuple[str, ...]:
        return tuple(self.row_of)

    def by_id(self, candidate_id: str) -> Candidate:
        try:
            return self.candidates[self.row_of[candidate_id]]
        except KeyError:
            raise DomainError(f"unknown id {candidate_id}") from None


def _check_nonneg(value, label: str):
    if value is not None and value < 0:
        raise DomainError(f"{label} must be nonnegative, got {value}")


def _check_fraction(value, label: str):
    if value is not None and not 0.0 <= value <= 1.0:
        raise DomainError(f"{label} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class UserConstraintSpec:
    """User-side workload and budget constraints attached to an evaluation run.

    The numeric fields do not gate clustering directly; they feed feasibility
    only where a dataset column of the same name exists (see the constraints
    module) and are otherwise echoed into report metadata.
    """

    parallel_instances: int
    max_instances: int
    total_work: float
    min_workload_per_instance: float
    budget_per_instance: float
    deadline: float
    budget_class: str
    task_length: float | None = None
    budget_confidence: float | None = None
    deadline_confidence: float | None = None
    spot_bid: float | None = None
    trial_period: float | None = None

    def __post_init__(self):
        if self.parallel_instances > self.max_instances:
            raise DomainError(
                f"parallel_instances {self.parallel_instances} exceeds "
                f"max_instances {self.max_instances}"
            )
        for label in (
            "parallel_instances",
            "max_instances",
            "total_work",
            "min_workload_per_instance",
            "budget_per_instance",
            "deadline",
            "task_length",
            "spot_bid",
            "trial_period",
        ):
            _check_nonneg(getattr(self, label), label)
        _check_fraction(self.budget_confidence, "budget_confidence")
        _check_fraction(self.deadline_confidence, "deadline_confidence")
        if self.budget_class not in BUDGET_CLASSES:
            raise DomainError(
                f"budget_class must be one of {BUDGET_CLASSES}, got {self.budget_class!r}"
            )


@dataclass(frozen=True)
class ExistentialRule:
    """"At least ``min_count`` candidates satisfy ``attribute op threshold``.

    Rules compiled from a UserConstraintSpec additionally gate each candidate
    individually (``per_candidate``); rules written by hand are global counts.
    """

    attribute: str
    op: str
    threshold: float
    min_count: int
    per_candidate: bool = False
    origin: str = ""

    def __post_init__(self):
        if self.op not in COMPARATORS:
            raise DomainError(f"unknown comparator {self.op!r}")
        if self.min_count < 0:
            raise DomainError(f"min_count must be nonnegative, got {self.min_count}")

    def satisfied_by(self, value):
        """Whether ``value`` passes the comparison; elementwise on an array."""
        return _COMPARE[self.op](value, self.threshold)


def _normalize_pairs(pairs, label: str) -> tuple[tuple[str, str], ...]:
    normalized = set()
    for pair in pairs:
        a, b = pair
        if a == b:
            raise DomainError(f"{label} pair links {a!r} to itself")
        normalized.add((a, b) if a <= b else (b, a))
    return tuple(sorted(normalized))


@dataclass(frozen=True)
class ConstraintSpec:
    """The compiled constraint model binding a run: link pairs, parameter
    bounds, existential rules, the feasibility threshold, and the optional
    user constraint record."""

    must_link: tuple[tuple[str, str], ...] = ()
    cannot_link: tuple[tuple[str, str], ...] = ()
    distance_weights: dict[str, float] | None = None
    k: int | None = None
    min_cluster_size: int | None = None
    max_cluster_size: int | None = None
    existential: tuple[ExistentialRule, ...] = ()
    feasibility_threshold: float = DEFAULT_FEASIBILITY_THRESHOLD
    user_spec: UserConstraintSpec | None = None

    def __post_init__(self):
        must = _normalize_pairs(self.must_link, "must_link")
        cannot = _normalize_pairs(self.cannot_link, "cannot_link")
        object.__setattr__(self, "must_link", must)
        object.__setattr__(self, "cannot_link", cannot)
        overlap = set(must) & set(cannot)
        if overlap:
            pair = sorted(overlap)[0]
            raise DomainError(
                f"pair {pair} appears in both must_link and cannot_link"
            )
        if self.k is not None and self.k < 1:
            raise DomainError(f"k must be at least 1, got {self.k}")
        _check_nonneg(self.min_cluster_size, "min_cluster_size")
        _check_nonneg(self.max_cluster_size, "max_cluster_size")
        if (
            self.min_cluster_size is not None
            and self.max_cluster_size is not None
            and self.min_cluster_size > self.max_cluster_size
        ):
            raise DomainError(
                f"min_cluster_size {self.min_cluster_size} exceeds "
                f"max_cluster_size {self.max_cluster_size}"
            )
        if self.distance_weights is not None:
            weights = dict(self.distance_weights)
            for name, w in weights.items():
                if w < 0:
                    raise DomainError(f"distance weight for {name} is negative")
            if weights and not any(w > 0 for w in weights.values()):
                raise DomainError("distance_weights need at least one positive weight")
            object.__setattr__(self, "distance_weights", weights)
        object.__setattr__(self, "existential", tuple(self.existential))

    @property
    def has_assignment_constraints(self) -> bool:
        """True when the spec constrains cluster membership or sizes."""
        return bool(
            self.must_link
            or self.cannot_link
            or self.min_cluster_size is not None
            or self.max_cluster_size is not None
        )


@dataclass(frozen=True)
class Clustering:
    """An assignment of candidates to ``k`` clusters with its centroids."""

    k: int
    assignment: dict[str, int]
    centroids: tuple[tuple[float, ...], ...]
    sse: float
    iterations: int
    seed: int

    def __post_init__(self):
        if self.k < 1:
            raise DomainError(f"k must be at least 1, got {self.k}")
        if len(self.centroids) != self.k:
            raise DomainError(
                f"expected {self.k} centroids, got {len(self.centroids)}"
            )
        for cid, label in self.assignment.items():
            if not 0 <= label < self.k:
                raise DomainError(f"candidate {cid} assigned to invalid cluster {label}")


FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class Violation:
    """A single failed feasibility rule with observed vs required values."""

    rule: str
    attribute: str
    op: str
    required: float
    observed: float
    message: str


@dataclass(frozen=True)
class MicroCluster:
    parent: int
    label: str
    members: tuple[str, ...]

    def __post_init__(self):
        if self.label not in (FEASIBLE, INFEASIBLE):
            raise DomainError(f"unknown micro-cluster label {self.label!r}")
        object.__setattr__(self, "members", tuple(self.members))


@dataclass(frozen=True)
class MicroClustering:
    """Feasibility refinement of a clustering: each parent cluster split into
    a feasible and an infeasible side (empty sides omitted)."""

    parent: Clustering
    micro_clusters: tuple[MicroCluster, ...]
    violations: dict[str, tuple[Violation, ...]]

    def __post_init__(self):
        object.__setattr__(self, "micro_clusters", tuple(self.micro_clusters))
        seen: set[str] = set()
        for mc in self.micro_clusters:
            for cid in mc.members:
                if cid in seen:
                    raise DomainError(f"candidate {cid} in two micro-clusters")
                seen.add(cid)
                has_violations = bool(self.violations.get(cid))
                if mc.label == FEASIBLE and has_violations:
                    raise DomainError(f"feasible member {cid} carries violations")
                if mc.label == INFEASIBLE and not has_violations:
                    raise DomainError(f"infeasible member {cid} lacks violations")
        if seen != set(self.parent.assignment):
            raise DomainError("micro-clusters do not partition the candidate set")

    def feasible_ids(self) -> tuple[str, ...]:
        """Feasible members in parent-assignment (dataset) order."""
        feasible = {
            cid
            for mc in self.micro_clusters
            if mc.label == FEASIBLE
            for cid in mc.members
        }
        return tuple(cid for cid in self.parent.assignment if cid in feasible)


DEADLOCK_CAUSE_KINDS = (
    "size-arithmetic",
    "link-conflict",
    "existential-unsatisfiable",
    "empty-feasible-set",
)


@dataclass(frozen=True)
class DeadlockCause:
    """One reason a constraint set is unsatisfiable, with a replayable witness."""

    kind: str
    detail: str
    witness: dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in DEADLOCK_CAUSE_KINDS:
            raise DomainError(f"unknown deadlock cause kind {self.kind!r}")


@dataclass(frozen=True)
class DeadlockReport:
    """Proof object: causes of unsatisfiability, or certification none were found."""

    deadlocked: bool
    causes: tuple[DeadlockCause, ...] = ()
    warnings: tuple[str, ...] = ()
    stage: str = "bind"

    def __post_init__(self):
        object.__setattr__(self, "causes", tuple(self.causes))
        object.__setattr__(self, "warnings", tuple(self.warnings))
        if self.deadlocked != bool(self.causes):
            raise DomainError("deadlocked must be true iff causes is non-empty")


@dataclass(frozen=True)
class RankedCandidate:
    id: str
    score: float
    per_attribute: dict[str, float]


@dataclass(frozen=True)
class EvaluationReport:
    """Ranked feasible candidates plus exclusions, with run metadata."""

    meta: dict[str, object]
    deadlock: DeadlockReport
    micro: MicroClustering | None
    ranking: tuple[RankedCandidate, ...]
    excluded: tuple[tuple[str, tuple[Violation, ...]], ...]
