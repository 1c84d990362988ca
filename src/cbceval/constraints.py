"""Constraint semantics: link-component propagation, per-candidate
feasibility, and deadlock identification.

"Deadlock" is formalized as unsatisfiability of the constraint set. Detection
combines quick sound rules (size arithmetic, direct link conflicts, oversized
components, global existential counts, an empty feasible set) with an exact
component-packing decision whenever the must-link component count stays at or
below ``EXACT_COMPONENT_LIMIT``; beyond that limit only the cheap rules run
and the report carries a "not checked" warning.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import (
    AttributeSchema,
    Candidate,
    CandidateDataset,
    ConstraintSpec,
    DeadlockCause,
    DeadlockReport,
    ExistentialRule,
    Violation,
)

#: Largest component count for which deadlock detection is exact.
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


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass(frozen=True)
class LinkComponents:
    """Must-link components with the cannot-link relation lifted onto them."""

    components: tuple[tuple[str, ...], ...]
    component_of: dict[str, int]
    lifted_cannot_link: tuple[tuple[int, int], ...]
    conflicts: tuple[tuple[str, str], ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.components)


def build_link_components(spec: ConstraintSpec, dataset: CandidateDataset) -> LinkComponents:
    """Union-find over must_link pairs; cannot_link re-expressed between
    components. Components are listed in dataset order of their first member,
    and ids in no must-link pair are singletons. A cannot-link pair falling
    inside one component is recorded as a conflict, not raised (deadlock
    detection owns that verdict)."""
    known = dataset.row_of
    for a, b in (*spec.must_link, *spec.cannot_link):
        for cid in (a, b):
            if cid not in known:
                raise DomainError(f"unknown id {cid} in link constraints")

    uf = _UnionFind({cid for pair in spec.must_link for cid in pair})
    for a, b in spec.must_link:
        uf.union(a, b)

    roots: dict[str, int] = {}
    members: list[list[str]] = []
    component_of: dict[str, int] = {}
    for cid in known:
        root = uf.find(cid) if cid in uf.parent else cid
        if root not in roots:
            roots[root] = len(members)
            members.append([])
        component_of[cid] = roots[root]
        members[roots[root]].append(cid)

    lifted = set()
    conflicts = []
    for a, b in spec.cannot_link:
        ca, cb = component_of[a], component_of[b]
        if ca == cb:
            conflicts.append((a, b))
        else:
            lifted.add((min(ca, cb), max(ca, cb)))

    return LinkComponents(
        components=tuple(tuple(m) for m in members),
        component_of=component_of,
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


def _row_violations(checks, row: int, candidate: Candidate, tau: float) -> tuple[Violation, ...]:
    """Violation records of one row of ``checks``, observed values taken
    from ``candidate``."""
    violations = []
    for rule, column, failed in checks:
        if not failed[row]:
            continue
        if rule is None:
            violations.append(
                Violation(
                    rule="feasibility_threshold",
                    attribute="constraints",
                    op=">=",
                    required=tau,
                    observed=candidate.constraints_rating,
                    message=f"constraints_rating {candidate.constraints_rating:g} < {tau:g}",
                )
            )
            continue
        value = candidate.ratings[column]
        violations.append(
            Violation(
                rule=rule.origin or "existential",
                attribute=rule.attribute,
                op=rule.op,
                required=rule.threshold,
                observed=value,
                message=f"{rule.attribute} {value:g} violates {rule.op} {rule.threshold:g}",
            )
        )
    return tuple(violations)


def object_feasible(
    candidate: Candidate, schema: AttributeSchema, spec: ConstraintSpec
) -> tuple[bool, tuple[Violation, ...]]:
    """A candidate is feasible iff its constraints rating reaches the
    threshold and every per-candidate rule passes. Violations are collected
    exhaustively, never short-circuited. The single-row case of
    :func:`feasibility_partition`."""
    checks = _failed_checks(
        spec,
        schema,
        np.array([candidate.ratings], dtype=np.float64),
        np.array([candidate.constraints_rating], dtype=np.float64),
    )
    violations = _row_violations(checks, 0, candidate, spec.feasibility_threshold)
    return (not violations, violations)


def _infeasible_mask(checks) -> np.ndarray:
    return np.logical_or.reduce([failed for _, _, failed in checks])


def feasibility_partition(
    dataset: CandidateDataset, spec: ConstraintSpec
) -> tuple[list[str], list[tuple[str, tuple[Violation, ...]]]]:
    """Split candidates into feasible ids and (id, violations) pairs, both in
    dataset order. Violation records are built for infeasible rows only."""
    checks = _failed_checks(spec, dataset.schema, dataset.ratings, dataset.constraints_ratings)
    infeasible = _infeasible_mask(checks)
    ids = dataset.ids()
    tau = spec.feasibility_threshold
    return (
        [ids[i] for i in np.flatnonzero(~infeasible).tolist()],
        [
            (ids[i], _row_violations(checks, i, dataset.candidates[i], tau))
            for i in np.flatnonzero(infeasible).tolist()
        ],
    )


def _pack_components(
    sizes: list[int],
    cl_pairs: list[tuple[int, int]],
    k: int,
    min_size: int | None,
    max_size: int | None,
) -> list[int] | None:
    """Exhaustive search for an assignment of components to k clusters that
    respects lifted cannot-links and size bounds. Labels are canonicalized
    (first new cluster index only), which prunes the label-permutation
    blowup. Returns one witness assignment or None."""
    m = len(sizes)
    adjacency = [[] for _ in range(m)]
    for a, b in cl_pairs:
        adjacency[a].append(b)
        adjacency[b].append(a)
    remaining = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        remaining[i] = remaining[i + 1] + sizes[i]
    counts = [0] * k
    labels = [-1] * m

    def deficit() -> int:
        if not min_size:
            return 0
        return sum(min_size - c for c in counts if c < min_size)

    def dfs(i: int, used: int) -> bool:
        if remaining[i] < deficit():
            return False
        if i == m:
            return True
        limit = min(used + 1, k)
        for cluster in range(limit):
            if max_size is not None and counts[cluster] + sizes[i] > max_size:
                continue
            if any(labels[j] == cluster for j in adjacency[i]):
                continue
            labels[i] = cluster
            counts[cluster] += sizes[i]
            if dfs(i + 1, max(used, cluster + 1)):
                return True
            counts[cluster] -= sizes[i]
            labels[i] = -1
        return False

    if dfs(0, 0):
        return labels
    return None


def detect_deadlock(
    spec: ConstraintSpec,
    dataset: CandidateDataset,
    k: int | None = None,
    *,
    stage: str = "bind",
    population: list[str] | None = None,
    structural: bool = True,
    components: LinkComponents | None = None,
) -> DeadlockReport:
    """Report every discovered cause of unsatisfiability (or certify none).

    ``population`` restricts existential counting and the feasible-set check
    to a subset of candidates (used for the post-refinement re-check, where
    ``structural`` is off because link and size rules were already settled).
    ``components`` is the spec's ``build_link_components`` result when the
    caller already has it.
    """
    causes: list[DeadlockCause] = []
    warnings: list[str] = []
    n = len(dataset)

    if structural:
        if components is None:
            components = build_link_components(spec, dataset)
        sizes = list(components.sizes())
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
            for comp in components.components:
                if len(comp) > spec.max_cluster_size:
                    causes.append(
                        DeadlockCause(
                            kind="size-arithmetic",
                            detail=(
                                f"must-link component of size {len(comp)} exceeds "
                                f"max_cluster_size {spec.max_cluster_size}"
                            ),
                            witness={
                                "component": list(comp),
                                "max_cluster_size": spec.max_cluster_size,
                            },
                        )
                    )

        needs_packing = bool(
            components.lifted_cannot_link
            or spec.min_cluster_size
            or spec.max_cluster_size is not None
        )
        if not causes and needs_packing and k is not None and n > 0:
            cl_pairs = list(components.lifted_cannot_link)
            if m <= EXACT_COMPONENT_LIMIT:
                if cl_pairs and _pack_components(sizes, cl_pairs, k, None, None) is None:
                    causes.append(
                        DeadlockCause(
                            kind="link-conflict",
                            detail=(
                                f"the cannot-link graph over {m} must-link "
                                f"components admits no {k}-coloring"
                            ),
                            witness={
                                "components": [list(c) for c in components.components],
                                "cannot_link_components": [list(p) for p in cl_pairs],
                                "k": k,
                            },
                        )
                    )
                elif (
                    spec.min_cluster_size or spec.max_cluster_size is not None
                ) and _pack_components(
                    sizes, cl_pairs, k, spec.min_cluster_size, spec.max_cluster_size
                ) is None:
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
                                "cannot_link_components": [list(p) for p in cl_pairs],
                                "k": k,
                                "min_cluster_size": spec.min_cluster_size,
                                "max_cluster_size": spec.max_cluster_size,
                            },
                        )
                    )
            else:
                constrained = sorted({i for pair in cl_pairs for i in pair})
                if cl_pairs and len(constrained) <= EXACT_COMPONENT_LIMIT:
                    index = {c: i for i, c in enumerate(constrained)}
                    sub_pairs = [(index[a], index[b]) for a, b in cl_pairs]
                    if _pack_components([1] * len(constrained), sub_pairs, k, None, None) is None:
                        causes.append(
                            DeadlockCause(
                                kind="link-conflict",
                                detail=(
                                    f"{len(constrained)} mutually cannot-linked "
                                    f"components admit no {k}-coloring"
                                ),
                                witness={
                                    "components": [
                                        list(components.components[c]) for c in constrained
                                    ],
                                    "k": k,
                                },
                            )
                        )
                elif cl_pairs:
                    warnings.append(
                        f"cannot-link coloring not checked: {len(constrained)} "
                        f"constrained components exceed the exact limit "
                        f"{EXACT_COMPONENT_LIMIT}"
                    )
                # With only single candidates and no cannot-link, the size
                # arithmetic above is exact: some partition of n candidates
                # into k clusters fits the bounds iff k*min <= n <= k*max.
                if (spec.min_cluster_size or spec.max_cluster_size is not None) and (
                    cl_pairs or m < n
                ):
                    warnings.append(
                        "size and link constraint interaction not exhaustively "
                        f"checked: {m} components exceed the exact limit "
                        f"{EXACT_COMPONENT_LIMIT}"
                    )
        if needs_packing and k is None:
            warnings.append("cluster count unknown; size and coloring rules skipped")

    ratings, constraints = dataset.ratings, dataset.constraints_ratings
    if population is not None:
        rows = np.fromiter(
            {dataset.row_of[cid] for cid in population if cid in dataset.row_of},
            dtype=np.intp,
        )
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
        deadlocked=bool(causes),
        causes=tuple(causes),
        warnings=tuple(warnings),
        stage=stage,
    )
