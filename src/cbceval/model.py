"""Core domain types for constraint-based SaaS candidate evaluation.

Immutable value types shared by every other module: the attribute schema,
the candidate dataset, the compiled constraint model, and the result
records produced by the clustering pipeline. No I/O, and no algorithms
beyond rating normalization and micro-cluster grouping.
"""

import operator
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import count, repeat
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import DomainError, _cut, _shown

#: The six core SaaS features: the paper's default rating schema.
KEY_FEATURES = (
    "reusability",
    "customizability",
    "scalability",
    "availability",
    "data_management",
    "pay_per_use",
)

#: The rating scale every rating and constraints rating lies on.
SCALE_MIN = 1.0
SCALE_MAX = 10.0

#: Default feasibility threshold: midpoint of the 1..10 rating scale.
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


#: ``parse_dataset`` strips every cell and reads a carriage return as a line
#: break, so an id or attribute name holding either would not round-trip.
_NOT_CSV_TEXT = "must not start or end with whitespace or hold a carriage return"


def _survives_csv(text: str) -> bool:
    return text == text.strip() and "\r" not in text


def _sequence(values):
    """``values`` as a sized, sliceable sequence; arrays are kept as they are."""
    return values if isinstance(values, np.ndarray) else list(values)


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered rating attributes, each rated on the scale ``SCALE_MIN``..``SCALE_MAX``."""

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if not names:
            raise DomainError("schema needs at least one attribute")
        for name in names:
            if not isinstance(name, str) or not name.strip():
                raise DomainError("attribute names must be non-empty strings")
            if not _survives_csv(name):
                raise DomainError(f"attribute name {_shown(name)} {_NOT_CSV_TEXT}")
            if name.lower() == "constraints":
                raise DomainError(f"attribute name {_shown(name)} names the constraints column")
        if len(set(names)) != len(names):
            raise DomainError("attribute names must be unique")

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DomainError(f"unknown attribute {_shown(name)}") from None


def _first_invalid(schema: AttributeSchema, ids: list, ratings, constraints):
    """The earliest invalid row of a dataset's columns as ``(row, column,
    message)``, or None. Each check runs over all rows at once; within a row
    the id comes first (a non-empty string, then CSV-safe, then unique),
    then the width, then each rating in schema order, then the constraints
    rating. ``column`` is the rating's index (``d`` for the constraints
    rating), None for an id or width fault."""
    n, d = len(ids), len(schema.names)
    strings = list(map(isinstance, ids, repeat(str)))
    m = strings.index(False) if False in strings else n
    # Later checks read only the ids before the first that is not a string:
    # a fault in that row comes before any fault in a later one.
    text = ids[:m]
    stripped = list(map(str.strip, text))
    blank = stripped.index("") if "" in stripped else m
    # Each check's first row, appended in the check order: min() keeps the
    # first of equal rows.
    faults = [(blank, None, "candidate id must be a non-empty string")] if blank < n else []
    if text != stripped or "\r" in "".join(text):
        row = list(map(_survives_csv, text)).index(False)
        faults.append((row, None, f"candidate id {_shown(text[row])} {_NOT_CSV_TEXT}"))
    if len(set(text)) < m:
        # The first row whose id has an earlier row.
        first_row = dict(zip(reversed(text), reversed(range(m))))
        row = list(map(operator.ne, map(first_row.__getitem__, text), count())).index(True)
        faults.append((row, None, f"duplicate candidate id {_cut(text[row])}"))
    # Every row of an n x d array holds d ratings: only lists are measured.
    w = m
    if not (isinstance(ratings, np.ndarray) and ratings.shape[1:] == (d,)):
        wrong = list(map(d.__ne__, map(len, ratings[:m])))
        if True in wrong:
            w = wrong.index(True)
            got = f"expected {d} ratings, got {len(ratings[w])}"
            faults.append((w, None, f"candidate {_cut(text[w])}: {got}"))
    rated = np.asarray(ratings[:w], dtype=np.float64).reshape(w, d)
    values = np.column_stack((rated, np.asarray(constraints[:w], dtype=np.float64)))
    with np.errstate(invalid="ignore"):  # NaN fails the range check quietly
        bad = ~((SCALE_MIN <= values) & (values <= SCALE_MAX))
    if bad.any():
        row, column = divmod(int(bad.argmax()), d + 1)
        label = f", attribute {schema.names[column]}: " if column < d else ": constraints "
        message = f"{label}rating {float(values[row, column])} out of range"
        faults.append((row, column, f"candidate {_cut(text[row])}{message}"))
    return min(faults, key=operator.itemgetter(0), default=None)


@dataclass(frozen=True, init=False, eq=False)
class CandidateDataset:
    """Ordered candidates over a shared schema. Order is the determinism anchor.

    The dataset is its id tuple plus read-only columns, built once from
    parallel ids, rating rows and constraints ratings: ``ratings`` (n x d raw
    ratings), ``normalized`` (the same matrix mapped onto [0, 1] through the
    fixed scale bounds, so distances stay comparable across datasets),
    ``constraints_ratings`` (length n) and ``row_of`` (id -> row index, in
    dataset order).
    """

    schema: AttributeSchema
    _ids: tuple[str, ...] = field(repr=False)
    ratings: np.ndarray = field(repr=False)
    normalized: np.ndarray = field(repr=False)
    constraints_ratings: np.ndarray = field(repr=False)
    row_of: Mapping[str, int] = field(repr=False)

    def __init__(self, schema: AttributeSchema, ids, ratings, constraints_ratings):
        ids, rows, constraints = list(ids), _sequence(ratings), _sequence(constraints_ratings)
        if not len(ids) == len(rows) == len(constraints):
            raise DomainError("ids, ratings and constraints ratings differ in length")
        fault = _first_invalid(schema, ids, rows, constraints)
        if fault is not None:
            raise DomainError(fault[2])
        ratings = np.array(rows, dtype=np.float64, order="C").reshape(len(ids), len(schema.names))
        constraints = np.array(constraints, dtype=np.float64)
        normalized = (ratings - SCALE_MIN) / (SCALE_MAX - SCALE_MIN)
        for array in (ratings, normalized, constraints):
            array.flags.writeable = False
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "_ids", tuple(ids))
        object.__setattr__(self, "ratings", ratings)
        object.__setattr__(self, "normalized", normalized)
        object.__setattr__(self, "constraints_ratings", constraints)
        object.__setattr__(self, "row_of", MappingProxyType(dict(zip(ids, count()))))

    def __reduce__(self):
        # A mapping proxy cannot be pickled; pickle and copy rebuild the columns.
        return (
            CandidateDataset,
            (self.schema, self._ids, self.ratings.tolist(), self.constraints_ratings.tolist()),
        )

    def __eq__(self, other):
        # Equal when they pickle alike: the same schema, ids and columns.
        if not isinstance(other, CandidateDataset):
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash((self.schema, self._ids))

    def __len__(self) -> int:
        return len(self._ids)

    def ids(self) -> tuple[str, ...]:
        return self._ids


def _check_nonneg(value, label: str):
    if value is not None and value < 0:
        raise DomainError(f"{label} must be nonnegative, got {value}")


def _check_fraction(value, label: str):
    if value is not None and not 0.0 <= value <= 1.0:
        raise DomainError(f"{label} must lie in [0, 1], got {value}")


#: UserConstraintSpec fields that are confidences in [0, 1]; every other
#: numeric field is a nonnegative amount.
_USER_FRACTIONS = ("budget_confidence", "deadline_confidence")


@dataclass(frozen=True)
class UserConstraintSpec:
    """User-side workload and budget constraints attached to an evaluation run.

    The numeric fields do not gate clustering directly; they feed feasibility
    only where a dataset column of the same name exists (see the constraints
    module) and are otherwise echoed into report metadata. The fields, in
    order, are the keys of a spec's ``user_spec`` object; those without a
    default are required there.
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
        for f in fields(self):
            if f.type is not str and f.name not in _USER_FRACTIONS:
                _check_nonneg(getattr(self, f.name), f.name)
        for name in _USER_FRACTIONS:
            _check_fraction(getattr(self, name), name)
        if self.budget_class not in BUDGET_CLASSES:
            raise DomainError(
                f"budget_class must be one of {BUDGET_CLASSES}, got {_shown(self.budget_class)}"
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
            raise DomainError(f"op must be one of {list(COMPARATORS)}, got {_shown(self.op)}")
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
            raise DomainError(f"{label} pair links {_shown(a)} to itself")
        normalized.add((a, b) if a <= b else (b, a))
    return tuple(sorted(normalized))


@dataclass(frozen=True)
class ConstraintSpec:
    """The compiled constraint model binding a run: link pairs, parameter
    bounds, existential rules, the feasibility threshold, and the optional
    user constraint record. The fields, in order, are the keys a constraint
    spec's JSON object may hold."""

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
            raise DomainError(
                f"pair {_shown(min(overlap))} appears in both must_link and cannot_link"
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
                    raise DomainError(f"distance weight for {_cut(str(name))} is negative")
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


@dataclass(frozen=True, eq=False)
class Clustering:
    """Cluster labels of candidates ``ids`` (dataset order), a read-only int64
    array, with the centroids as a read-only k x d float64 array; ``k`` is their count."""

    ids: tuple[str, ...]
    labels: np.ndarray
    centroids: np.ndarray
    sse: float
    iterations: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        labels, centroids = np.asarray(self.labels), np.array(self.centroids, dtype=np.float64)
        if len(centroids) < 1:
            raise DomainError(f"k must be at least 1, got {len(centroids)}")
        if len(labels) != len(self.ids):
            raise DomainError(f"expected {len(self.ids)} labels, got {len(labels)}")
        # numpy's common type may turn an int into text, so judge each label as given.
        if labels.dtype.kind not in "iu":
            given = np.array(self.labels, dtype=object)
            labels = np.where(list(map(isinstance, given, repeat((int, np.integer)))), given, -1)
        bad = np.flatnonzero((labels < 0) | (labels >= len(centroids)))
        if bad.size:
            cid, label = _cut(str(self.ids[bad[0]])), np.array(self.labels, dtype=object)[bad[0]]
            raise DomainError(f"candidate {cid} assigned to invalid cluster {_shown(label)}")
        object.__setattr__(self, "labels", labels.astype(np.int64))  # a copy no caller can change
        object.__setattr__(self, "centroids", centroids)
        self.labels.flags.writeable = centroids.flags.writeable = False

    @property
    def k(self) -> int:
        return len(self.centroids)

    @property
    def assignment(self) -> dict[str, int]:
        """Candidate id -> cluster label, in dataset order."""
        return dict(zip(self.ids, self.labels.tolist()))

    def check_rows(self, dataset: CandidateDataset) -> None:
        """Reject a clustering of other rows than ``dataset``'s, or in another order."""
        if self.ids != dataset.ids():
            raise DomainError("clustering does not cover the dataset's candidates in order")


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
    """Feasibility refinement of a clustering: ``violations`` maps each
    infeasible candidate of the parent to its failed checks; the rest are
    feasible. Micro-clusters and feasible ids derive from it and the labels."""

    parent: Clustering
    violations: dict[str, tuple[Violation, ...]]

    def __post_init__(self):
        ids = set(self.parent.ids)
        for cid, violations in self.violations.items():
            if cid not in ids:
                raise DomainError(
                    f"violations name {_cut(str(cid))}, not a candidate of the parent"
                )
            if not violations:
                raise DomainError(f"candidate {_cut(str(cid))} has an empty violation record")

    @cached_property
    def micro_clusters(self) -> tuple[MicroCluster, ...]:
        """Each parent cluster split into a feasible and an infeasible side
        (empty sides omitted), members in dataset order; computed once."""
        sides = [([], []) for _ in range(self.parent.k)]
        for cid, label in zip(self.parent.ids, self.parent.labels.tolist()):
            sides[label][cid in self.violations].append(cid)
        return tuple(
            MicroCluster(parent=j, label=(FEASIBLE, INFEASIBLE)[side], members=tuple(members))
            for j, pair in enumerate(sides)
            for side, members in enumerate(pair)
            if members
        )

    def feasible_ids(self) -> tuple[str, ...]:
        """Feasible members in the parent's (dataset) order."""
        return tuple(cid for cid in self.parent.ids if cid not in self.violations)


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
    """Proof object: causes of unsatisfiability, or certification none were
    found; ``deadlocked`` is whether there are causes."""

    causes: tuple[DeadlockCause, ...] = ()
    warnings: tuple[str, ...] = ()
    stage: str = "bind"

    def __post_init__(self):
        object.__setattr__(self, "causes", tuple(self.causes))
        object.__setattr__(self, "warnings", tuple(self.warnings))

    @property
    def deadlocked(self) -> bool:
        return bool(self.causes)
