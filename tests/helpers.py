"""Shared generators and fixtures for the test suite."""

import csv
import hashlib
import io
import json
import random
from typing import Iterator

import numpy as np

from cbceval.constraints import build_link_components, feasibility_partition
from cbceval.errors import AssignmentDeadlockError, DomainError, ParseError, _cut, _shown
from cbceval.ingest import (
    _RULE_KEYS,
    _SPEC_KEYS,
    _as_int,
    _as_number,
    _check_keys,
    _header,
    _parse_pairs,
    _parse_user_spec,
)
from cbceval.kmeans import (
    CONVERGENCE_TOL,
    MAX_ITERATIONS,
    SILHOUETTE_BLOCK,
    KMeansConfig,
    kmeans_pp_init,
    weight_vector,
)
from cbceval.model import (
    COMPARATORS,
    SCALE_MAX,
    SCALE_MIN,
    AttributeSchema,
    CandidateDataset,
    Clustering,
    ConstraintSpec,
    ExistentialRule,
)
from cbceval.oracle import _components_for, _guard, _lifted_pairs

SAMPLE_ROWS = {
    "T100": ((2, 2, 4, 2, 3, 5), 6),
    "T101": ((3, 5, 3, 3, 4, 4), 7),
    "T102": ((4, 4, 2, 4, 5, 8), 3),
    "T103": ((5, 5, 5, 4, 5, 2), 9),
    "T104": ((2, 3, 4, 5, 4, 5), 5),
    "T105": ((3, 2, 3, 5, 3, 3), 6),
    "T106": ((4, 4, 2, 4, 2, 4), 7),
    "T107": ((5, 5, 2, 4, 1, 5), 6),
    "T108": ((5, 5, 3, 3, 1, 5), 5),
    "T109": ((4, 3, 4, 3, 3, 4), 4),
}

FEASIBLE_AT_6 = ["T100", "T101", "T103", "T105", "T106", "T107"]
INFEASIBLE_AT_6 = ["T102", "T104", "T108", "T109"]


def dataset_from_rows(schema: AttributeSchema, rows) -> CandidateDataset:
    """A dataset from ``(id, ratings, constraints rating)`` rows."""
    rows = list(rows)
    return CandidateDataset(
        schema, [row[0] for row in rows], [row[1] for row in rows], [row[2] for row in rows]
    )


def feasible_and_infeasible(dataset: CandidateDataset, spec: ConstraintSpec):
    """``feasibility_partition`` as two lists: the feasible ids (those absent
    from the violations map) in dataset order, and the map's (id, violations)
    items in its order."""
    violations = feasibility_partition(dataset, spec)
    return [cid for cid in dataset.ids() if cid not in violations], list(violations.items())


def take_rows(dataset: CandidateDataset, rows) -> CandidateDataset:
    """The dataset of ``dataset``'s rows at the indices ``rows``, in that order."""
    rows = list(rows)
    return CandidateDataset(
        dataset.schema,
        [dataset.ids()[i] for i in rows],
        dataset.ratings[rows].tolist(),
        dataset.constraints_ratings[rows].tolist(),
    )


def component_index(components) -> dict[str, int]:
    """Candidate id -> index of its must-link component."""
    return {cid: c for c, members in enumerate(components.components) for cid in members}


def reference_link_components(spec: ConstraintSpec, dataset: CandidateDataset):
    """Union-find with a parent entry per row, then every row grouped under
    its root: the per-row form that ``build_link_components`` must agree
    with. Returns (rows, lifted_cannot_link, conflicts) as it defines them."""
    row_of = dataset.row_of
    parent = list(range(len(dataset)))

    def find(row: int) -> int:
        while parent[row] != row:
            parent[row] = parent[parent[row]]
            row = parent[row]
        return row

    for a, b in spec.must_link:
        parent[find(row_of[b])] = find(row_of[a])
    groups: dict[int, list[int]] = {}
    for row in range(len(parent)):
        groups.setdefault(find(row), []).append(row)
    component_of = {root: c for c, root in enumerate(groups)}
    lifted, conflicts = set(), []
    for a, b in spec.cannot_link:
        ca, cb = component_of[find(row_of[a])], component_of[find(row_of[b])]
        if ca == cb:
            conflicts.append((a, b))
        else:
            lifted.add((min(ca, cb), max(ca, cb)))
    return tuple(map(tuple, groups.values())), tuple(sorted(lifted)), tuple(conflicts)


def random_dataset(rng: random.Random, n: int, d: int = 3) -> CandidateDataset:
    schema = AttributeSchema(tuple(f"f{i}" for i in range(d)))
    return dataset_from_rows(
        schema,
        (
            (
                f"C{i:03d}",
                tuple(float(rng.randint(1, 10)) for _ in range(d)),
                float(rng.randint(1, 10)),
            )
            for i in range(n)
        ),
    )


def random_pairs(rng: random.Random, ids, count: int):
    """Distinct unordered id pairs, at most count of them."""
    pool = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    rng.shuffle(pool)
    return pool[:count]


def random_constraint_spec(
    rng: random.Random,
    dataset: CandidateDataset,
    *,
    links: bool = True,
    sizes: bool = True,
    rules: bool = False,
    tau: float | None = None,
) -> ConstraintSpec:
    ids = list(dataset.ids())
    n = len(ids)
    kwargs: dict = {}
    if links and n >= 2:
        pairs = random_pairs(rng, ids, rng.randint(0, min(4, n)))
        split = rng.randint(0, len(pairs))
        kwargs["must_link"] = pairs[:split]
        kwargs["cannot_link"] = pairs[split:]
    if sizes and rng.random() < 0.6:
        if rng.random() < 0.5:
            kwargs["min_cluster_size"] = rng.randint(0, max(1, n // 2))
        if rng.random() < 0.5:
            low = kwargs.get("min_cluster_size", 0)
            kwargs["max_cluster_size"] = rng.randint(max(low, 1), n + 1)
    if rules and rng.random() < 0.6:
        attr = rng.choice(dataset.schema.names)
        op = rng.choice((">=", "<=", ">", "<"))
        kwargs["existential"] = [
            ExistentialRule(attr, op, float(rng.randint(1, 10)), rng.randint(0, n))
        ]
    kwargs["feasibility_threshold"] = (
        tau if tau is not None else float(rng.randint(1, 10))
    )
    return ConstraintSpec(**kwargs)


def pinned_instance(seed, n, d, k, must, cannot, max_size, far=False):
    """Uniform integer ratings, random must-link pairs, cannot-link pairs
    across components, a max cluster size and k-means++ init. ``far`` moves
    the last centroid outside the unit cube so that cluster starts empty."""
    rng = random.Random(seed)
    dataset = random_dataset(rng, n, d)
    ids = list(dataset.ids())
    must_link = [tuple(rng.sample(ids, 2)) for _ in range(must)]
    component_of = component_index(
        build_link_components(ConstraintSpec(must_link=must_link), dataset)
    )
    cannot_link = []
    while len(cannot_link) < cannot:
        a, b = rng.sample(ids, 2)
        if component_of[a] != component_of[b]:
            cannot_link.append((a, b))
    spec = ConstraintSpec(
        must_link=must_link, cannot_link=cannot_link, max_cluster_size=max_size
    )
    config = KMeansConfig(k=k, seed=seed)
    init = kmeans_pp_init(dataset, config)
    if far:
        init = init[:-1] + ((3.0,) * d,)
    return dataset, spec, config, init


def assignment_satisfies(assignment: dict, spec: ConstraintSpec, k: int) -> list[str]:
    """List of constraint violations in an assignment (empty means clean)."""
    problems = []
    for a, b in spec.must_link:
        if assignment[a] != assignment[b]:
            problems.append(f"must_link ({a}, {b}) split")
    for a, b in spec.cannot_link:
        if assignment[a] == assignment[b]:
            problems.append(f"cannot_link ({a}, {b}) co-assigned")
    counts = [0] * k
    for label in assignment.values():
        counts[label] += 1
    if spec.min_cluster_size:
        for j, c in enumerate(counts):
            if c < spec.min_cluster_size:
                problems.append(f"cluster {j} below min size: {c}")
    if spec.max_cluster_size is not None:
        for j, c in enumerate(counts):
            if c > spec.max_cluster_size:
                problems.append(f"cluster {j} above max size: {c}")
    return problems


def restricted_growth_strings(n: int, kmax: int) -> Iterator[tuple[int, ...]]:
    """All canonical label strings over n items using at most kmax labels.

    a[0] = 0 and a[i] <= max(a[0..i-1]) + 1, so each set partition appears
    exactly once, in lexicographic order.
    """
    if n == 0:
        yield ()
        return
    a = [0] * n
    b = [0] * n  # b[i] = max(a[0..i-1])
    while True:
        yield tuple(a)
        i = n - 1
        while i > 0 and a[i] >= min(b[i] + 1, kmax - 1):
            i -= 1
        if i == 0:
            return
        a[i] += 1
        for j in range(i + 1, n):
            b[j] = max(b[j - 1], a[j - 1])
            a[j] = 0


def _sizes_ok(counts: list[int], spec: ConstraintSpec) -> bool:
    if spec.min_cluster_size and any(c < spec.min_cluster_size for c in counts):
        return False
    if spec.max_cluster_size is not None and any(
        c > spec.max_cluster_size for c in counts
    ):
        return False
    return True


def _assignment_valid(
    labels: tuple[int, ...],
    k: int,
    comp_sizes: list[int],
    cl_pairs: set[tuple[int, int]],
    spec: ConstraintSpec,
) -> bool:
    for a, b in cl_pairs:
        if labels[a] == labels[b]:
            return False
    counts = [0] * k
    for comp, label in enumerate(labels):
        counts[label] += comp_sizes[comp]
    return _sizes_ok(counts, spec)


def _expand(labels: tuple[int, ...], components: list[list[int]], n: int) -> list[int]:
    out = [0] * n
    for comp, label in enumerate(labels):
        for i in components[comp]:
            out[i] = label
    return out


def reference_min_sse(
    dataset: CandidateDataset, k: int, spec: ConstraintSpec = ConstraintSpec()
) -> tuple[Clustering, float] | None:
    """Every set partition of the must-link components, as a restricted
    growth string, checked and scored one by one: the enumeration that
    ``oracle.brute_force_min_sse`` must equal in verdict and SSE bits.

    Returns None when every assignment is infeasible. Ties resolve to the
    lexicographically smallest canonical signature.
    """
    n = len(dataset)
    _guard(n, k)
    if n == 0:
        raise DomainError("dataset is empty")
    X = dataset.normalized
    w = weight_vector(dataset.schema, spec.distance_weights)
    components = _components_for(spec, dataset)
    cl_pairs = _lifted_pairs(spec, dataset, components)
    comp_sizes = [len(c) for c in components]
    comp_sums = [X[comp].sum(axis=0) for comp in components]
    comp_squares = [(X[comp] ** 2).sum(axis=0) for comp in components]

    best_sse = None
    best_labels = None
    for labels in restricted_growth_strings(len(components), k):
        if not _assignment_valid(labels, k, comp_sizes, cl_pairs, spec):
            continue
        sums = np.zeros((k, X.shape[1]))
        squares = np.zeros((k, X.shape[1]))
        counts = [0] * k
        for comp, label in enumerate(labels):
            sums[label] += comp_sums[comp]
            squares[label] += comp_squares[comp]
            counts[label] += comp_sizes[comp]
        # Each attribute's scatter, sum(x**2) - sum(x)**2 / count, is taken
        # before its weight: it is at most count, so the weighted term stays
        # within n * sum(w), and no weighted totals cancel.
        sse_value = 0.0
        for j in range(k):
            if counts[j]:
                sse_value += float((w * (squares[j] - sums[j] ** 2 / counts[j])).sum())
        if best_sse is None or sse_value < best_sse:
            best_sse = sse_value
            best_labels = labels

    if best_labels is None:
        return None

    point_labels = _expand(best_labels, components, n)
    centroids = []
    for j in range(k):
        members = [i for i in range(n) if point_labels[i] == j]
        if members:
            centroids.append(tuple(float(v) for v in X[members].mean(axis=0)))
        else:
            centroids.append(tuple(0.0 for _ in range(X.shape[1])))
    best_sse = max(best_sse, 0.0)
    clustering = Clustering(
        ids=dataset.ids(),
        labels=point_labels,
        centroids=tuple(centroids),
        sse=best_sse,
        iterations=0,
        seed=0,
    )
    return clustering, best_sse


def reference_witness(spec: ConstraintSpec, dataset: CandidateDataset, k: int) -> dict[str, int] | None:
    """The first restricted growth string that meets every link and size
    constraint, as an id -> label map, or None: the enumeration whose
    verdict ``oracle.brute_force_feasible_exists`` must equal once the
    global rules hold."""
    n = len(dataset)
    _guard(n, k)
    components = _components_for(spec, dataset)
    cl_pairs = _lifted_pairs(spec, dataset, components)
    comp_sizes = [len(c) for c in components]
    for labels in restricted_growth_strings(len(components), k):
        if _assignment_valid(labels, k, comp_sizes, cl_pairs, spec):
            point_labels = _expand(labels, components, n)
            return {cid: point_labels[i] for i, cid in enumerate(dataset.ids())}
    return None


def partition_signature(labels) -> tuple[int, ...]:
    """A label sequence relabeled by first occurrence.

    Two clusterings of the same rows are the same partition iff their
    signatures are equal.
    """
    relabel: dict[int, int] = {}
    return tuple(relabel.setdefault(label, len(relabel)) for label in labels)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def pinned_values(clustering, dataset: CandidateDataset) -> tuple:
    """(partition signature digest, centroid tuple digest, repr(sse),
    iterations): the bit-level fingerprint that pinned-result tests compare.
    The signature follows ``dataset``'s row order."""
    assert clustering.ids == dataset.ids()
    return (
        _digest(partition_signature(clustering.labels.tolist())),
        _digest(tuple(map(tuple, clustering.centroids.tolist()))),
        repr(clustering.sse),
        clustering.iterations,
    )


def reference_silhouette(dataset: CandidateDataset, clustering) -> float:
    """Mean silhouette coefficient one row and one 1-D mean at a time, over
    blocks of ``SILHOUETTE_BLOCK`` distance rows: the per-row form that
    ``kmeans.silhouette`` must equal bit for bit."""
    k = clustering.k
    X = dataset.normalized
    labels = clustering.labels
    counts = np.bincount(labels, minlength=k)
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


def reference_lloyd_steps(dataset: CandidateDataset, init, weights=None, links=None, max_size=None):
    """Lloyd with every distance recomputed every iteration and one ``mean``
    per cluster and per multi-row must-link component: the unpruned form
    that ``kmeans.lloyd`` must equal bit for bit. Components go to their
    nearest centroid, or through ``reference_greedy_place`` when ``links``
    has cannot-links or ``max_size`` is set.

    Yields (labels, centroids, sse) after each iteration, up to convergence
    or ``MAX_ITERATIONS``. A greedy pass that places no component raises
    AssignmentDeadlockError with that component's ids.
    """
    X = dataset.normalized
    w = weight_vector(dataset.schema, weights)
    k = len(init)
    C = np.array(init, dtype=np.float64).reshape(k, X.shape[1])
    if links is None:
        M, row_comp, sizes = X, None, [1] * len(X)
    else:
        M = X[[rows[0] for rows in links.rows]]
        row_comp = np.empty(len(X), dtype=np.int64)
        for ci, rows in enumerate(links.rows):
            row_comp[list(rows)] = ci
            if len(rows) > 1:
                M[ci] = X[list(rows)].mean(axis=0)
        sizes = [len(rows) for rows in links.rows]
    cannot_link = () if links is None else links.lifted_cannot_link
    apart = [[] for _ in range(len(M))]
    for a, b in cannot_link:
        apart[a].append(b)
        apart[b].append(a)

    for _ in range(MAX_ITERATIONS):
        # numpy's own reduce over each (component, centroid) row of d terms.
        D = ((M[:, None, :] - C) ** 2 * w).sum(axis=2)
        if cannot_link or max_size is not None:
            placed = reference_greedy_place(D, sizes, apart, max_size)
            if -1 in placed:
                ci = placed.index(-1)
                rows = (ci,) if links is None else links.rows[ci]
                raise AssignmentDeadlockError(
                    "no admissible cluster", component=tuple(dataset.ids()[i] for i in rows)
                )
            comp_labels = np.array(placed)
        else:
            comp_labels = D.argmin(axis=1)
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
        yield (
            tuple(labels.tolist()),
            tuple(tuple(float(v) for v in row) for row in C),
            float(((X - C[labels]) ** 2 * w).sum()),
        )
        if movement <= CONVERGENCE_TOL:
            return


def reference_greedy_place(D, sizes, apart, max_size):
    """The greedy COP-KMeans pass as one loop over the components: the form
    that ``kmeans.greedy_place`` must equal. ``apart[i]`` lists component
    i's cannot-link partners, both ways. Returns each component's cluster;
    a component with no admissible cluster and every one after it get -1.
    """
    orders = np.argsort(D, axis=1, kind="stable").tolist()
    counts = [0] * D.shape[1]
    # Components are placed in index order, so every earlier component
    # holds its label for this iteration and every later one is still -1.
    placed = [-1] * len(D)
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
            break
    return placed


def reference_report_json(body: dict, timestamp: str) -> str:
    """The stdlib text that ``evaluate.report_json`` must equal byte for
    byte: ``report_digest`` is the sha256 of the body's sorted compact dump,
    and the report is ``json.dumps(indent=2)`` plus a newline."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    meta = {**body["meta"], "report_digest": digest, "timestamp": timestamp}
    return json.dumps({**body, "meta": meta}, indent=2) + "\n"


def _read_records(text: str) -> tuple[list[int], list[list[str]]]:
    """Every record that is not blank, read with ``csv.reader``, with its
    record number in the file."""
    text = text.lstrip("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}") from exc
    kept = [(number, row) for number, row in enumerate(rows, 1) if "".join(row).strip()]
    return [number for number, _ in kept], [row for _, row in kept]


def reference_parse_dataset(text: str) -> CandidateDataset:
    """``parse_dataset`` record by record: read every record with
    ``csv.reader``, check the header, then parse the records one at a time,
    raising the error of the first bad one."""
    numbers, records = _read_records(text)
    if not records:
        raise ParseError("missing header", locator="header")
    schema, header, columns = _header(records[0])
    ids, ratings, constraints = [], [], []
    seen_ids = set()
    for line_no, row in zip(numbers[1:], records[1:]):
        cells = [cell.strip() for cell in row]
        if len(cells) != len(header):
            raise ParseError(
                f"expected {len(header)} cells, got {len(cells)}",
                locator=f"row {line_no}",
            )
        cid = cells[0]
        if not cid:
            raise ParseError("empty id", locator=f"row {line_no}")
        if cid in seen_ids:
            raise ParseError(f"duplicate id {_cut(cid)}", locator=f"row {line_no}")
        seen_ids.add(cid)

        def _cell(col: int) -> float:
            raw = cells[col]
            try:
                value = float(raw)
            except ValueError:
                raise ParseError(
                    f"not a number: {_shown(raw)}",
                    locator=f"row {_cut(cid)}, column {_cut(header[col])}",
                ) from None
            if not SCALE_MIN <= value <= SCALE_MAX:
                raise ParseError(
                    f"rating {_cut(raw)} out of range [{SCALE_MIN:g}, {SCALE_MAX:g}]",
                    locator=f"row {_cut(cid)}, column {_cut(header[col])}",
                )
            return value

        ids.append(cid)
        *values, constraints_rating = map(_cell, columns)
        ratings.append(values)
        constraints.append(constraints_rating)

    return CandidateDataset(schema, ids, ratings, constraints)


def _reference_parse_rules(raw, locator: str) -> list[ExistentialRule]:
    if not isinstance(raw, list):
        raise ParseError("expected an array of rules", locator=locator)
    rules = []
    for i, entry in enumerate(raw):
        loc = f"{locator}[{i}]"
        if not isinstance(entry, dict):
            raise ParseError("expected a rule object", locator=loc)
        _check_keys(entry, _RULE_KEYS, _RULE_KEYS, loc)
        attribute = entry["attribute"]
        if not isinstance(attribute, str) or not attribute:
            raise ParseError("attribute must be a non-empty string", locator=loc)
        op = entry["op"]
        if op not in COMPARATORS:
            raise ParseError(
                f"op must be one of {list(COMPARATORS)}, got {_shown(op)}", locator=loc
            )
        threshold = _as_number(entry["threshold"], f"{loc}.threshold")
        min_count = _as_int(entry["min_count"], f"{loc}.min_count")
        if min_count < 0:
            raise ParseError("min_count must be nonnegative", locator=f"{loc}.min_count")
        rules.append(ExistentialRule(attribute, op, threshold, min_count))
    return rules


def reference_parse_constraint_spec(json_text: str) -> ConstraintSpec:
    """``parse_constraint_spec`` with the parser checking the sign of k and
    the cluster sizes, and each rule's op and min_count, before the
    dataclasses do: the form whose verdicts and texts the split parser must
    keep, apart from the texts those checks gave."""
    try:
        data = json.loads(json_text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("top-level value must be an object")
    _check_keys(data, _SPEC_KEYS, ())

    kwargs: dict = {}
    if "must_link" in data:
        kwargs["must_link"] = _parse_pairs(data["must_link"], "must_link")
    if "cannot_link" in data:
        kwargs["cannot_link"] = _parse_pairs(data["cannot_link"], "cannot_link")
    if "distance_weights" in data:
        raw = data["distance_weights"]
        if not isinstance(raw, dict):
            raise ParseError("expected an object", locator="distance_weights")
        kwargs["distance_weights"] = {
            name: _as_number(v, f"distance_weights.{_cut(name)}") for name, v in raw.items()
        }
    for key in ("k", "min_cluster_size", "max_cluster_size"):
        if key in data:
            value = _as_int(data[key], key)
            if value < 0:
                raise ParseError("must be nonnegative", locator=key)
            kwargs[key] = value
    if "existential" in data:
        kwargs["existential"] = tuple(_reference_parse_rules(data["existential"], "existential"))
    if "feasibility_threshold" in data:
        kwargs["feasibility_threshold"] = _as_number(
            data["feasibility_threshold"], "feasibility_threshold"
        )
    if "user_spec" in data:
        kwargs["user_spec"] = _parse_user_spec(data["user_spec"], "user_spec")

    try:
        return ConstraintSpec(**kwargs)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


def reference_fixed_k(k: int | None, dataset: CandidateDataset, spec: ConstraintSpec):
    """The command line's cluster count checked after the spec is bound:
    ``k`` (the ``--k`` value) or the spec's, which must agree, with ``k``
    in [1, n]."""
    if k is None:
        return spec.k
    if spec.k is not None and spec.k != k:
        raise ParseError(f"--k {k} conflicts with k={spec.k} in the constraint spec")
    if k < 1:
        raise ParseError(f"k must be at least 1, got {k}")
    if k > len(dataset):
        raise ParseError("k exceeds candidate count")
    return k
