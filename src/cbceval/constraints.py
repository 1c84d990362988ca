"""Constraint semantics: link components, per-candidate feasibility, and
deadlock identification. A dataset's must-link components are one label
per row (``LinkComponents``); sizes, row lists and id lists derive from it.

"Deadlock" is formalized as unsatisfiability of the constraint set. Detection
combines quick sound rules (size arithmetic, direct link conflicts, oversized
components, global existential counts, an empty feasible set) with one packing
routine, run under the size bounds and, when that finds no packing, for the
cannot-link coloring alone. A first-fit placement that works is a witness
however many components there are; when it fails, at most
``EXACT_COMPONENT_LIMIT`` multi-row or cannot-linked components are searched
exactly, and past that limit the report carries a "not checked" warning
instead of a verdict.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .errors import DomainError
from .model import (
    AttributeSchema,
    CandidateDataset,
    ConstraintSpec,
    DeadlockCause,
    DeadlockReport,
    ExistentialRule,
    Violation,
)

#: Most multi-row or cannot-linked components searched exactly once first-fit
#: fails; single free rows do not count, they are interchangeable.
EXACT_COMPONENT_LIMIT = 12

#: UserConstraintSpec fields that cap a cost-like dataset column (candidate
#: value must be <= the user's figure) vs fields that demand capacity
#: (candidate value must be >= it).
USER_COST_FIELDS = ("budget_per_instance", "spot_bid", "task_length", "deadline")
USER_CAPACITY_FIELDS = (
    "parallel_instances",
    "max_instances",
    "total_work",
    "min_workload_per_instance",
    "trial_period",
    "budget_confidence",
    "deadline_confidence",
)


@dataclass(frozen=True, eq=False)
class LinkComponents:
    """A dataset's must-link components and the cannot-link relation lifted
    onto component indices. ``ids`` is the dataset's id tuple; ``labels`` is
    a read-only int array of each row's component, components numbered in
    order of first member; ``conflicts`` holds the cannot-link id pairs that
    fall inside one component. ``sizes``, ``rows`` and ``components`` derive
    from ``labels`` on first read."""

    ids: tuple[str, ...]
    labels: np.ndarray
    lifted_cannot_link: tuple[tuple[int, int], ...]
    conflicts: tuple[tuple[str, str], ...]

    @cached_property
    def sizes(self) -> np.ndarray:
        """Each component's row count."""
        return np.bincount(self.labels)

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Each component's rows, ascending."""
        order = np.argsort(self.labels, kind="stable").tolist()
        bounds = np.cumsum([0, *self.sizes.tolist()]).tolist()
        return tuple(tuple(order[start:end]) for start, end in zip(bounds, bounds[1:]))

    @cached_property
    def components(self) -> tuple[tuple[str, ...], ...]:
        """The components as id tuples."""
        return tuple(tuple(self.ids[i] for i in rows) for rows in self.rows)


def build_link_components(spec: ConstraintSpec, dataset: CandidateDataset) -> LinkComponents:
    """Union-find over the rows of must_link pairs, keeping the smaller root
    so each root is its component's first row; pointer jumping then points
    every row at its root. Rows in no must-link pair are singletons.
    cannot_link is re-expressed between components; a pair falling inside
    one component is recorded as a conflict, not raised (deadlock detection
    owns that verdict)."""
    row_of = dataset.row_of
    try:
        must = [(row_of[a], row_of[b]) for a, b in spec.must_link]
        cannot = np.array([(row_of[a], row_of[b]) for a, b in spec.cannot_link], dtype=np.intp)
    except KeyError as exc:
        raise DomainError(f"unknown id {exc.args[0]} in link constraints") from None

    up: dict[int, int] = {}  # row -> a row nearer its root; roots are absent

    def find(row: int) -> int:
        while row in up:
            up[row] = up.get(up[row], up[row])
            row = up[row]
        return row

    for a, b in must:
        ra, rb = find(a), find(b)
        if ra != rb:
            up[max(ra, rb)] = min(ra, rb)
    parent = np.arange(len(dataset))
    parent[list(up)] = list(up.values())
    while not np.array_equal(jumped := parent[parent], parent):
        parent = jumped
    labels = (np.cumsum(parent == np.arange(len(parent))) - 1)[parent]
    labels.flags.writeable = False

    lifted, conflicts = set(), []
    for pair, (ca, cb) in zip(spec.cannot_link, labels[cannot.reshape(-1, 2)].tolist()):
        if ca == cb:
            conflicts.append(pair)
        else:
            lifted.add((min(ca, cb), max(ca, cb)))

    return LinkComponents(
        ids=dataset.ids(),
        labels=labels,
        lifted_cannot_link=tuple(sorted(lifted)),
        conflicts=tuple(conflicts),
    )


def must_link_path(spec: ConstraintSpec, a: str, b: str) -> list[str]:
    """Shortest path from a to b through must_link edges (BFS); the witness
    for a link conflict."""
    adjacency: dict[str, list[str]] = {}
    for x, y in spec.must_link:
        adjacency.setdefault(x, []).append(y)
        adjacency.setdefault(y, []).append(x)
    frontier = [a]
    parents = {a: a}
    while frontier:
        nxt = []
        for node in frontier:
            for neighbor in sorted(adjacency.get(node, ())):
                if neighbor not in parents:
                    parents[neighbor] = node
                    if neighbor == b:
                        path = [b]
                        while path[-1] != a:
                            path.append(parents[path[-1]])
                        return path[::-1]
                    nxt.append(neighbor)
        frontier = nxt
    raise DomainError(f"no must-link path between {a} and {b}")


def user_spec_rules(spec: ConstraintSpec, schema: AttributeSchema) -> tuple[ExistentialRule, ...]:
    """Bridge the user constraint record to the data model: for each numeric
    user field whose name matches a dataset attribute, emit a per-candidate
    rule (comparator <= for costs, >= for capacities) that also demands at
    least one satisfying candidate globally."""
    if spec.user_spec is None:
        return ()
    names = {n.lower(): n for n in schema.names}
    rules = []
    for field_name, op in (
        *((f, "<=") for f in USER_COST_FIELDS),
        *((f, ">=") for f in USER_CAPACITY_FIELDS),
    ):
        value = getattr(spec.user_spec, field_name)
        if value is None or field_name not in names:
            continue
        rules.append(
            ExistentialRule(
                attribute=names[field_name],
                op=op,
                threshold=float(value),
                min_count=1,
                per_candidate=True,
                origin=f"user_spec.{field_name}",
            )
        )
    return tuple(rules)


def effective_rules(spec: ConstraintSpec, schema: AttributeSchema) -> tuple[ExistentialRule, ...]:
    return (*spec.existential, *user_spec_rules(spec, schema))


def _failed_checks(
    spec: ConstraintSpec, schema: AttributeSchema, ratings: np.ndarray, constraints: np.ndarray
) -> list[tuple[ExistentialRule | None, int, np.ndarray]]:
    """Each per-candidate check as (rule, column, mask of failing rows), in
    violation order: the feasibility threshold (rule None) first, then every
    per-candidate rule. ``ratings`` is rows x d, ``constraints`` one per row."""
    checks = [(None, -1, constraints < spec.feasibility_threshold)]
    for rule in effective_rules(spec, schema):
        if rule.per_candidate:
            column = schema.index_of(rule.attribute)
            checks.append((rule, column, ~rule.satisfied_by(ratings[:, column])))
    return checks


def _infeasible_mask(checks) -> np.ndarray:
    return np.logical_or.reduce([failed for _, _, failed in checks])


def _violation(rule: ExistentialRule | None, observed: float, tau: float) -> Violation:
    """The record of failing ``rule`` (the feasibility threshold ``tau`` when
    None) at the value ``observed``."""
    if rule is None:
        return Violation(
            rule="feasibility_threshold",
            attribute="constraints",
            op=">=",
            required=tau,
            observed=observed,
            message=f"constraints_rating {observed:g} < {tau:g}",
        )
    return Violation(
        rule=rule.origin or "existential",
        attribute=rule.attribute,
        op=rule.op,
        required=rule.threshold,
        observed=observed,
        message=f"{rule.attribute} {observed:g} violates {rule.op} {rule.threshold:g}",
    )


def feasibility_partition(
    dataset: CandidateDataset, spec: ConstraintSpec
) -> dict[str, tuple[Violation, ...]]:
    """Each infeasible candidate's id -> its violations, in dataset order. A
    candidate is feasible, and absent, iff its constraints rating reaches the
    threshold and every per-candidate rule passes; an infeasible row gets a
    record for every check it fails, in check order.

    The map is built one check at a time: the rows that fail a check at the
    same observed value share one frozen ``Violation``, and the rows with
    the same failure pattern (the same records) share one tuple."""
    ratings, constraints = dataset.ratings, dataset.constraints_ratings
    checks = _failed_checks(spec, dataset.schema, ratings, constraints)
    infeasible = np.flatnonzero(_infeasible_mask(checks))
    # Each infeasible row's record index per check (-1: passed), folded one
    # check at a time into a dense pattern code; rows with equal codes fail
    # alike.
    code = np.zeros(len(infeasible), dtype=np.int64)
    indexed = []
    for rule, column, failed in checks:
        at = np.flatnonzero(failed[infeasible])
        rows = infeasible[at]
        observed = constraints[rows] if rule is None else ratings[rows, column]
        values, shared = np.unique(observed, return_inverse=True)
        records = [_violation(rule, v, spec.feasibility_threshold) for v in values.tolist()]
        index = np.full(len(code), -1, dtype=np.int64)
        index[at] = shared
        keys, code = np.unique(code * (len(records) + 1) + index + 1, return_inverse=True)
        indexed.append((records, index))
    # One tuple per code, built from any one row that has it.
    some_row = np.empty(len(keys), dtype=np.intp)
    some_row[code] = np.arange(len(code))
    found = [[] for _ in some_row]
    for records, index in indexed:
        for pattern, j in zip(found, index[some_row].tolist()):
            if j >= 0:
                pattern.append(records[j])
    patterns = [tuple(pattern) for pattern in found]
    ids = dataset.ids()
    return {ids[i]: patterns[c] for i, c in zip(infeasible.tolist(), code.tolist())}


def _pack(sizes: list[int], pairs, k: int, min_size: int | None, max_size: int | None):
    """Labels putting components of ``sizes`` into k clusters, no pair of
    ``pairs`` together and min_size to max_size rows in each; None when no
    such labels exist; False when the search gives up undecided.

    Single rows in no pair are interchangeable and fill the clusters last:
    each deficit below min_size, then room under max_size. The other, bound,
    components go largest first to the lowest cluster that takes them, so
    the first path is first-fit; the search backtracks over canonical
    labelings only when at most ``EXACT_COMPONENT_LIMIT`` are bound."""
    m, total = len(sizes), sum(sizes)
    low, high = min_size or 0, total if max_size is None else max_size
    if k * high < total:  # then no packing has room for every row
        return None
    partners: dict[int, list[int]] = {}
    for a, b in pairs:
        partners.setdefault(a, []).append(b)
        partners.setdefault(b, []).append(a)
    bound = [c for c, size in enumerate(sizes) if size > 1 or c in partners]
    bound.sort(key=lambda c: -sizes[c])
    exhaustive = len(bound) <= EXACT_COMPONENT_LIMIT
    labels, counts = [-1] * m, [0] * k

    def place(c: int, j: int, sign: int = 1):
        labels[c] = j if sign > 0 else -1
        counts[j] += sign * sizes[c]

    path: list[int] = []  # the clusters of bound[:len(path)]
    start = 0  # the first cluster to try for bound[len(path)]
    while True:
        i = len(path)
        # The rows not yet placed must be able to lift every cluster to low.
        if sum(low - count for count in counts if count < low) <= total - sum(counts):
            if i == len(bound):
                # The free rows take each deficit first, then the room left.
                turns = chain(
                    *(repeat(j, max(0, low - counts[j])) for j in range(k)),
                    *(repeat(j, high - max(low, counts[j])) for j in range(k)),
                )
                return [label if label >= 0 else next(turns) for label in labels]
            c = bound[i]
            taken = {labels[p] for p in partners.get(c, ())}
            opened = min(k, k - counts.count(0) + 1)  # empty clusters are alike
            fit = [
                j for j in range(start, opened) if j not in taken and counts[j] + sizes[c] <= high
            ]
            if fit:
                place(c, fit[0])
                path.append(fit[0])
                start = 0
                continue
        if not (exhaustive and path):
            return None if exhaustive else False
        start = path.pop() + 1
        place(bound[len(path)], start - 1, -1)


def detect_deadlock(
    spec: ConstraintSpec,
    dataset: CandidateDataset,
    k: int | None = None,
    *,
    stage: str = "bind",
    population: list[str] | None = None,
    structural: bool = True,
) -> DeadlockReport:
    """Report every discovered cause of unsatisfiability (or certify none).

    ``population`` restricts existential counting and the feasible-set check
    to some of the dataset's candidates (used for the post-refinement
    re-check, where ``structural`` is off because link and size rules were
    already settled); an id outside the dataset raises DomainError.
    """
    causes: list[DeadlockCause] = []
    warnings: list[str] = []
    n = len(dataset)

    if structural:
        components = build_link_components(spec, dataset)
        sizes = components.sizes.tolist()
        m = len(sizes)

        if k is not None and spec.min_cluster_size:
            demand = k * spec.min_cluster_size
            if demand > n:
                causes.append(
                    DeadlockCause(
                        kind="size-arithmetic",
                        detail=(
                            f"k*min_cluster_size = {demand} exceeds "
                            f"candidate count {n}"
                        ),
                        witness={
                            "k": k,
                            "min_cluster_size": spec.min_cluster_size,
                            "candidates": n,
                        },
                    )
                )
        if k is not None and spec.max_cluster_size is not None:
            room = k * spec.max_cluster_size
            if room < n:
                causes.append(
                    DeadlockCause(
                        kind="size-arithmetic",
                        detail=(
                            f"k*max_cluster_size = {room} leaves no room for "
                            f"{n} candidates"
                        ),
                        witness={
                            "k": k,
                            "max_cluster_size": spec.max_cluster_size,
                            "candidates": n,
                        },
                    )
                )

        for a, b in components.conflicts:
            path = must_link_path(spec, a, b)
            causes.append(
                DeadlockCause(
                    kind="link-conflict",
                    detail=(
                        f"cannot_link pair ({a}, {b}) is connected by the "
                        f"must-link path {' - '.join(path)}"
                    ),
                    witness={"path": path, "cannot_link": [a, b]},
                )
            )

        if spec.max_cluster_size is not None:
            for c in np.flatnonzero(components.sizes > spec.max_cluster_size).tolist():
                causes.append(
                    DeadlockCause(
                        kind="size-arithmetic",
                        detail=(
                            f"must-link component of size {sizes[c]} exceeds "
                            f"max_cluster_size {spec.max_cluster_size}"
                        ),
                        witness={
                            "component": list(components.components[c]),
                            "max_cluster_size": spec.max_cluster_size,
                        },
                    )
                )

        sized = bool(spec.min_cluster_size or spec.max_cluster_size is not None)
        needs_packing = bool(components.lifted_cannot_link) or sized
        if not causes and needs_packing and k is not None and n > 0:
            pairs = components.lifted_cannot_link
            constrained = sorted({c for pair in pairs for c in pair})
            bounds = (spec.min_cluster_size, spec.max_cluster_size)
            packed = _pack(sizes, pairs, k, *bounds) if sized else None
            # A packing is also a coloring, so the coloring runs only without one.
            colored = packed or _pack([1] * m, pairs, k, None, None)
            if colored is None:
                causes.append(
                    DeadlockCause(
                        kind="link-conflict",
                        detail=(
                            f"{len(constrained)} mutually cannot-linked "
                            f"components admit no {k}-coloring"
                        ),
                        witness={
                            "components": [list(components.components[c]) for c in constrained],
                            "k": k,
                        },
                    )
                )
            elif sized and packed is None:
                causes.append(
                    DeadlockCause(
                        kind="size-arithmetic",
                        detail=(
                            f"no assignment of the {m} must-link components to "
                            f"{k} clusters satisfies the size bounds and "
                            f"cannot-link constraints"
                        ),
                        witness={
                            "component_sizes": sizes,
                            "cannot_link_components": [list(p) for p in pairs],
                            "k": k,
                            "min_cluster_size": spec.min_cluster_size,
                            "max_cluster_size": spec.max_cluster_size,
                        },
                    )
                )
            if colored is False:
                warnings.append(
                    f"cannot-link coloring not checked: {len(constrained)} constrained "
                    f"components exceed the exact limit {EXACT_COMPONENT_LIMIT}"
                )
            if packed is False and colored is not None:
                bound = len(set(constrained).union(c for c in range(m) if sizes[c] > 1))
                warnings.append(
                    "size and link constraint interaction not exhaustively checked: "
                    f"{bound} multi-row or cannot-linked components exceed the exact "
                    f"limit {EXACT_COMPONENT_LIMIT}"
                )
        if needs_packing and k is None:
            warnings.append("cluster count unknown; size and coloring rules skipped")

    ratings, constraints = dataset.ratings, dataset.constraints_ratings
    if population is not None:
        try:
            rows = np.fromiter({dataset.row_of[cid] for cid in population}, dtype=np.intp)
        except KeyError as exc:
            raise DomainError(f"population names {exc.args[0]}, not a candidate") from None
        ratings, constraints = ratings[rows], constraints[rows]
    population_size = len(constraints)

    for rule in effective_rules(spec, dataset.schema):
        column = dataset.schema.index_of(rule.attribute)
        satisfying = int(np.count_nonzero(rule.satisfied_by(ratings[:, column])))
        if satisfying < rule.min_count:
            origin = rule.origin or "existential"
            causes.append(
                DeadlockCause(
                    kind="existential-unsatisfiable",
                    detail=(
                        f"{origin}: only {satisfying} candidates satisfy "
                        f"{rule.attribute} {rule.op} {rule.threshold:g} "
                        f"(need {rule.min_count})"
                    ),
                    witness={
                        "attribute": rule.attribute,
                        "op": rule.op,
                        "threshold": rule.threshold,
                        "min_count": rule.min_count,
                        "satisfying": satisfying,
                        "population": population_size,
                    },
                )
            )

    if _infeasible_mask(_failed_checks(spec, dataset.schema, ratings, constraints)).all():
        causes.append(
            DeadlockCause(
                kind="empty-feasible-set",
                detail=(
                    f"no candidate reaches feasibility threshold "
                    f"{spec.feasibility_threshold:g}"
                ),
                witness={
                    "feasibility_threshold": spec.feasibility_threshold,
                    "population": population_size,
                },
            )
        )

    return DeadlockReport(
        causes=tuple(causes),
        warnings=tuple(warnings),
        stage=stage,
    )
