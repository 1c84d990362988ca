"""Seeded, deterministic k-means in normalized attribute space: one Lloyd
loop, ``lloyd_stack``, serves plain clustering and, given must-link
components, cannot-links or a maximum size, constrained clustering. It moves
a stack of runs (every restart of one call) over the shared rows at once;
``lloyd`` is a stack of one and ``best_of_restarts`` the one reducer of a
stack's outcomes. ``choose_k`` picks the cluster count by silhouette when
none is given.

Distance is weighted squared Euclidean on min-max-normalized ratings.
Tie-breaking is always by lowest index and all randomness comes from the
package's portable generator, so identical inputs reproduce identical
clusterings bit for bit, and a run gives the same bits in a stack as alone.

Nearest-centroid Lloyd skips the distances it can rule out with Hamerly's
bounds (SDM 2010) and takes every centroid from one grouped reduction,
``group_means``; both give the bits of the full recompute with one mean per
cluster. The greedy constrained pass, ``greedy_place``, places runs of
components at their nearest admissible cluster at once and applies the
per-component rule only where a run ends. ``tests/helpers.py`` keeps the
full recompute and the one-component-at-a-time greedy loop as the
references.

Every per-row distance is summed by ``_coordinate_sum``, which adds whole
coordinate columns in the order numpy sums one row: numpy's bits without
its per-row cost on rows of a few coordinates.
"""

import math
from dataclasses import dataclass, replace
from itertools import islice
from typing import Callable, Iterator, Mapping

import numpy as np

from .constraints import LinkComponents
from .errors import AssignmentDeadlockError, DomainError, _cut, _shown
from .model import AttributeSchema, CandidateDataset, Clustering
from .rng import SplitMix64, child_seed


#: A Lloyd run stops after this many iterations, or once no centroid moves
#: farther than ``CONVERGENCE_TOL``.
MAX_ITERATIONS = 100
CONVERGENCE_TOL = 1e-9
#: Relative float-safety margin of Lloyd's pruning test: a component keeps
#: its label only when its bounds are apart by more than this share.
BOUND_MARGIN = 1e-9
#: ``lloyd_stack`` advances at most this many (run, row) entries together,
#: at least one run, so its memory stays linear in n whatever the restarts.
STACK_ENTRIES = 2**20


@dataclass(frozen=True)
class KMeansConfig:
    k: int
    seed: int
    restarts: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise DomainError(f"k must be at least 1, got {self.k}")
        if self.restarts < 1:
            raise DomainError("restarts must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must be an unsigned 64-bit integer")


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
            raise DomainError(f"unknown attribute {_shown(name)} in weights")
        if not math.isfinite(value):
            raise DomainError(f"weight for {_cut(name)} is not finite")
        if value < 0:
            raise DomainError(f"weight for {_cut(name)} is negative")
    vec = np.array([float(weights.get(n, 1.0)) for n in schema.names], dtype=np.float64)
    if not np.any(vec > 0):
        raise DomainError("weights need at least one positive entry")
    with np.errstate(over="ignore"):
        if not np.isfinite(vec.sum()):
            raise DomainError("weights sum to more than the largest float")
    return vec


def _distance_weights(dataset: CandidateDataset, weights: Mapping[str, float] | None) -> np.ndarray:
    """``weight_vector`` with n * sum(w) finite: rows and k-means++ centroids
    lie in [0, 1]^d, so that bounds every distance, cumulative sum and SSE."""
    w = weight_vector(dataset.schema, weights)
    if not math.isfinite(len(dataset) * float(w.sum())):
        raise DomainError(f"weights times {len(dataset)} candidates exceed the largest float")
    return w


def _coordinate_sum(term: Callable[[int], np.ndarray], start: int, stop: int) -> np.ndarray:
    """``term(start) + ... + term(stop - 1)`` with the bits numpy's pairwise
    sum gives the items of one contiguous row, ``np.stack(terms, -1).sum(-1)``:
    below 8 items one by one; up to 128, item c into running sum
    (c - start) % 8 up to the last multiple of 8, the sums joined as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then the rest one
    by one; above 128, two halves cut at a multiple of 8. Each running sum is
    built whole before the next, so few arrays are alive at once. numpy
    starts from 0.0, so only a sum of nothing but -0.0 items differs (0.0
    there); no distance has one, as a square is at least +0.0 and some
    weight is positive.
    """
    count = stop - start
    if count > 128:
        half = count // 2 - count // 2 % 8
        total = _coordinate_sum(term, start, start + half)
        total += _coordinate_sum(term, start + half, stop)
        return total

    def run(first: int, end: int, step: int) -> np.ndarray:
        total = term(first)
        for c in range(first + step, end, step):
            total += term(c)
        return total

    if count < 8:
        return run(start, stop, 1)
    full = stop - count % 8

    def pair(lane: int) -> np.ndarray:
        total = run(start + lane, full, 8)
        total += run(start + lane + 1, full, 8)
        return total

    total = pair(0)
    total += pair(2)
    right = pair(4)
    right += pair(6)
    total += right
    for c in range(full, stop):
        total += term(c)
    return total


def distance_matrix(X: np.ndarray, C: np.ndarray, w: np.ndarray, runs=None) -> np.ndarray:
    """Rows x centroids matrix of weighted squared distances, returned as the
    transposed view of a centroids x rows array. With ``runs``, ``C`` is a
    stack of R centroid sets (R x k x d) and ``runs`` their R row counts:
    the rows of ``X`` come in R consecutive segments, each measured against
    its own set.

    Entry (i, j) is bit-identical to ``((X[i] - C[j]) ** 2 * w).sum()``:
    ``_coordinate_sum`` adds the d coordinates of each entry in numpy's
    order for one contiguous row, so a row has the same bits in
    ``distance_matrix(X[rows], C, w)`` as in the matrix over all of ``X``.
    ``lloyd_stack`` relies on this to recompute only the rows its bounds
    cannot settle, for all its runs at once. A reduction over centroids runs
    along the long axis.
    """
    columns = np.ascontiguousarray(X.T)
    if runs is None:
        C, runs = C[None], [len(X)]
    by_coordinate = C.T

    def term(c: int) -> np.ndarray:
        # One set broadcasts; a stack repeats each set's coordinate over its
        # segment rather than gathering a centroid per row.
        if len(runs) == 1:
            t = columns[c] - by_coordinate[c]
        else:
            t = np.repeat(by_coordinate[c], runs, axis=1)
            np.subtract(columns[c], t, out=t)
        np.square(t, out=t)
        t *= w[c]
        return t

    return _coordinate_sum(term, 0, X.shape[1]).T


def group_means(X: np.ndarray, groups: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(means, counts) of the rows of ``X`` in each group 0..size-1; an empty
    group's mean is nan.

    Each mean has the bits of ``X[groups == g].mean(axis=0)``. With two or
    more columns that reduce adds the rows in ascending order, as a per-column
    ``np.bincount`` does. A one-column mean is a 1-D reduction, which numpy
    sums pairwise, so there each group is summed as one contiguous slice.
    """
    counts = np.bincount(groups, minlength=size)
    if X.shape[1] == 1:
        parts = np.split(X[np.argsort(groups, kind="stable"), 0], np.cumsum(counts)[:-1])
        sums = np.array([[part.sum()] for part in parts])
    else:
        sums = np.stack(
            [np.bincount(groups, weights=X[:, c], minlength=size) for c in range(X.shape[1])],
            axis=1,
        )
    with np.errstate(invalid="ignore"):
        return sums / counts[:, None], counts


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
    X = dataset.normalized
    w = _distance_weights(dataset, weights)
    rng = SplitMix64(config.seed)

    chosen = [rng.randbelow(n)]
    d2 = distance_matrix(X, X[chosen], w)[:, 0]
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
        d2 = np.minimum(d2, distance_matrix(X, X[[idx]], w)[:, 0])
    return tuple(tuple(float(v) for v in X[i]) for i in chosen)


def greedy_place(D: np.ndarray, sizes, cannot_link, max_size: int | None) -> np.ndarray:
    """The greedy COP-KMeans pass (Wagstaff et al., ICML 2001) over an m x k
    distance matrix. Component i, in index order, goes to the first cluster
    in the stable ascending order of ``D[i]`` that holds none of its
    cannot-link partners and that its ``sizes[i]`` rows keep within
    ``max_size`` (None: no limit). ``cannot_link`` holds component pairs
    (a, b) with a < b. Returns each component's cluster; a component with no
    admissible cluster and every one after it get -1.

    Components are placed in segments. Each one not yet placed holds its
    nearest cluster, by one ``argmin`` (lowest index on ties, as in the
    stable order), among the clusters neither full for the smallest
    remaining size nor holding one of its placed partners, so every cluster
    before that one in its order is inadmissible. The first component whose
    choice crosses ``max_size`` (a cumulative sum per overflowing cluster)
    or meets a partner's choice ends the segment: the ones before it are
    placed at once, and it alone goes through the full rule. The argmin is
    taken again for every remaining component when the set of full clusters
    grows, and for one component when a partner is placed in its choice.
    """
    m, k = D.shape
    sizes = np.asarray(sizes, dtype=np.float64)
    cap = np.inf if max_size is None else float(max_size)
    # Every component from position i on has at least smallest[i] rows.
    smallest = np.minimum.accumulate(sizes[::-1])[::-1]
    pairs = np.asarray(cannot_link, dtype=np.int64).reshape(-1, 2)
    first, second = pairs[np.argsort(pairs[:, 1], kind="stable")].T
    earlier, later = pairs[np.argsort(pairs[:, 0], kind="stable")].T
    counts = np.zeros(k)
    # banned[i, j]: a placed cannot-link partner of component i is in j.
    banned = np.zeros((m, k), dtype=bool)
    # Below ``start`` each component's cluster; from it on, its nearest
    # cluster among those neither full nor banned.
    placed = np.empty(m, dtype=np.int64)
    full = None
    start = 0
    while start < m:
        now_full = counts + smallest[start] > cap
        if full is None or (now_full != full).any():
            full = now_full
            placed[start:] = np.where(full | banned[start:], np.inf, D[start:]).argmin(axis=1)
        near = placed[start:]
        stop = m
        over = counts + np.bincount(near, weights=sizes[start:], minlength=k) > cap
        for j in over.nonzero()[0]:
            rows = (near == j).nonzero()[0]
            filled = counts[j] + sizes[start:][rows].cumsum()
            stop = min(stop, start + int(rows[filled.searchsorted(cap, side="right")]))
        lo = second.searchsorted(start)
        clash = (placed[first[lo:]] == placed[second[lo:]]).nonzero()[0]
        if clash.size:
            stop = min(stop, int(second[lo + clash[0]]))
        counts += np.bincount(placed[start:stop], weights=sizes[start:stop], minlength=k)
        if stop < m:
            lo, hi = second.searchsorted(stop), second.searchsorted(stop + 1)
            partners = placed[first[lo:hi]].tolist()
            for j in D[stop].argsort(kind="stable").tolist():
                if counts[j] + sizes[stop] <= cap and j not in partners:
                    placed[stop] = j
                    counts[j] += sizes[stop]
                    break
            else:
                placed[stop:] = -1
                break
            stop += 1
        # Bar the clusters just taken from the later partners, and move each
        # one whose nearest cluster that was.
        lo, hi = earlier.searchsorted(start), earlier.searchsorted(stop)
        ahead = later[lo:hi] >= stop
        a, b = earlier[lo:hi][ahead], later[lo:hi][ahead]
        banned[b, placed[a]] = True
        moved = b[placed[b] == placed[a]]
        placed[moved] = np.where(full | banned[moved], np.inf, D[moved]).argmin(axis=1)
        start = stop
    return placed


def lloyd_stack(
    dataset: CandidateDataset,
    inits,
    config: KMeansConfig,
    weights: Mapping[str, float] | None = None,
    links: LinkComponents | None = None,
    max_size: int | None = None,
) -> Iterator[Clustering | AssignmentDeadlockError]:
    """The Lloyd loop, over must-link components placed whole by the
    weighted distance of their means, run from each of ``inits`` (each a
    ``config.k`` x d array of centroids). Yields each run's outcome in
    ``inits`` order: its Clustering, recording ``config.seed``, or the
    AssignmentDeadlockError that ended it.

    ``links`` is the dataset's ``build_link_components`` result (None: every
    candidate alone, plain k-means), read through its ``labels`` and
    ``sizes`` as they are; links built on another dataset raise DomainError.
    Without lifted cannot-links and ``max_size`` each component goes to its
    nearest centroid. Otherwise a greedy pass (COP-KMeans) takes components
    in index order to the nearest centroid that breaks no cannot-link with a
    placed component and no max size; one with none deadlocks the run, even
    where an exhaustive search may succeed. Equal distances go to the lowest
    cluster index. SSE is computed once, after the loop.

    The runs advance together as a stack over the shared rows, each with its
    own centroids, labels and bounds as one row of (run, component) arrays,
    so an iteration costs one set of numpy calls however many runs are in
    it. A run leaves the stack as soon as it converges, reaches
    ``MAX_ITERATIONS`` or deadlocks. A stack holds at most ``STACK_ENTRIES``
    (run, row) entries, at least one run; further runs go into further
    stacks, in order. ``inits`` is read and the outcomes are yielded one
    stack at a time, so memory stays linear in n however many runs there
    are.

    The greedy pass computes every distance and places the components in
    vectorized segments (``greedy_place``), one run at a time. The
    nearest-centroid step is pruned instead (Hamerly, SDM 2010): each
    component keeps an upper bound on its weighted distance
    ``sqrt(sum(w * (m - c) ** 2))`` to its own centroid and a lower bound on
    the distance to every other one, moved by each centroid's weighted shift
    after an update. A component keeps its label while
    ``upper * (1 + BOUND_MARGIN)`` is below ``(1 - BOUND_MARGIN)`` times the
    larger of its lower bound and half the distance from its centroid to the
    nearest other one; the margin absorbs float rounding, so a kept label is
    the strict nearest one. Every other component is recomputed: all of them
    at iteration 1, and each donor of an empty-cluster repair at the
    iteration after. The stale (run, component) pairs of all runs are
    recomputed in one ``distance_matrix`` pass, each run's centroids
    repeated over its contiguous segment of them, and the nearest centroid
    is the lowest index at the least distance, found from the centroids x
    pairs matrix without an argmin across its rows. Each run's centroids
    come from one ``group_means`` call over the stack, its clusters offset
    to their own groups. Labels, centroids, SSE and iteration count are
    those of recomputing every distance, one run at a time.
    """
    ids = dataset.ids()
    k = config.k
    X = dataset.normalized
    n, d = X.shape
    inits = iter(inits)

    def next_stack() -> list:
        stack = list(islice(inits, max(1, STACK_ENTRIES // max(n, 1))))
        for init in stack:
            if len(init) != k:
                raise DomainError(f"init has {len(init)} centroids but config.k is {k}")
        return stack

    # The first stack is read before the checks, so inits made on demand
    # (``restart_inits``) report their own faults first.
    stack = next_stack()
    if k > len(ids):
        raise DomainError("k exceeds candidate count")
    if links is not None and links.ids != ids:
        raise DomainError("links were built on another dataset")
    # ``group_means`` sums column by column; contiguous columns spare
    # ``np.bincount`` a strided copy per call, with the same bits.
    columns = np.ascontiguousarray(X.T)
    w = _distance_weights(dataset, weights)
    # The coordinates of each component's mean, one row per coordinate.
    if links is None or len(links.sizes) == n:
        # Single candidates in dataset order: a one-row mean is the row itself.
        component_columns, sizes, row_comp = columns, np.ones(n, dtype=np.int64), None
    else:
        sizes, row_comp = links.sizes, links.labels
        component_columns = np.ascontiguousarray(group_means(columns.T, row_comp, len(sizes))[0].T)
    m = len(sizes)
    cannot_link = () if links is None else links.lifted_cannot_link
    greedy = bool(cannot_link) or max_size is not None
    diagonal = np.arange(k)
    while stack:
        C = np.array(stack, dtype=np.float64).reshape(-1, k, d)
        # Each run's position in the stack, and one copy of the rows (and
        # component means) per run: the runs left in the stack read its
        # first blocks.
        outcomes: list = [None] * len(C)
        run = np.arange(len(C))
        copies = len(C)
        stacked = columns if copies == 1 else np.tile(columns, copies)
        if row_comp is None:
            stacked_components = stacked
        else:
            stacked_components = component_columns if copies == 1 else np.tile(component_columns, copies)
        # Each component's cluster as a slot of the stack, r * k + j for
        # cluster j of the run in position r, so every run's clusters are
        # groups of one reduction. Hamerly bounds on the weighted distance
        # sqrt(sum(w * (m - c) ** 2)): ``upper`` from each component mean to
        # its own centroid, ``lower`` to every other one. An infinite upper
        # bound forces a recompute.
        slot = np.repeat(k * np.arange(len(C)), m).reshape(-1, m)
        upper = np.full(slot.shape, np.inf)
        lower = np.zeros(slot.shape)

        for iterations in range(1, MAX_ITERATIONS + 1):
            base = k * np.arange(len(C))
            if greedy:
                segments = np.full(len(C), m)
                stale_columns = stacked_components[:, : len(C) * m]
            else:
                # A component nearer its centroid than half that centroid's
                # gap to the next one is nearest to it (infinite gap when
                # k = 1).
                gaps = np.sqrt(((C[:, :, None, :] - C[:, None, :, :]) ** 2 * w).sum(axis=3))
                gaps[:, diagonal, diagonal] = np.inf
                half = 0.5 * gaps.min(axis=2)
                bound = np.maximum(lower, half.reshape(-1)[slot])
                stale = ~(upper * (1 + BOUND_MARGIN) < bound * (1 - BOUND_MARGIN))
                # Flat index r * m + i: each run's stale components are one
                # contiguous segment, ``segments[r]`` long.
                flat = np.flatnonzero(stale)
                segments = np.count_nonzero(stale, axis=1)
                stale_columns = stacked_components.take(flat, axis=1)
            D = distance_matrix(stale_columns.T, C, w, segments).T
            dead = np.zeros(len(C), dtype=bool)
            if greedy:
                # A deadlocked run keeps its last labels until it leaves.
                for r in range(len(C)):
                    placed = greedy_place(D[:, r * m : (r + 1) * m].T, sizes, cannot_link, max_size)
                    if placed[-1] >= 0:
                        slot[r] = placed + base[r]
                        continue
                    ci = int(np.flatnonzero(placed < 0)[0])
                    component = (ids[ci],) if links is None else links.components[ci]
                    outcomes[run[r]] = AssignmentDeadlockError(
                        f"no admissible cluster for must-link component "
                        f"{component} at iteration {iterations}; "
                        f"greedy order found no slot (an exhaustive search may "
                        f"still succeed at small n)",
                        component=component,
                    )
                    dead[r] = True
            else:
                # The nearest centroid, the lowest index at the least
                # distance, and the distance to the next one.
                best = D.min(axis=0)
                near = np.full(len(flat), k - 1)
                for j in range(k - 2, -1, -1):
                    np.putmask(near, D[j] == best, j)
                upper.reshape(-1)[flat] = np.sqrt(best)
                D[near, np.arange(len(flat))] = np.inf
                lower.reshape(-1)[flat] = np.sqrt(D.min(axis=0))
                slot.reshape(-1)[flat] = near + np.repeat(base, segments)
            # Reseed each empty cluster with the component farthest from its
            # own centroid, never a cluster's sole one (any placed component
            # fits a max size alone). Ties go to the lowest index, empties
            # fill lowest first. A donor's bounds no longer describe its
            # label.
            occupied = np.bincount(slot.reshape(-1), minlength=k * len(C)).reshape(-1, k)
            for r in np.flatnonzero((occupied == 0).any(axis=1)):
                labels, centroids = slot[r] - base[r], C[r]
                while True:
                    occupants = np.bincount(labels, minlength=k)
                    empties = np.flatnonzero(occupants == 0)
                    if empties.size == 0:
                        break
                    d_own = _coordinate_sum(
                        lambda c: (component_columns[c] - centroids[labels, c]) ** 2 * w[c], 0, d
                    )
                    d_own[occupants[labels] < 2] = -1.0
                    donor = int(np.argmax(d_own))
                    if d_own[donor] < 0:
                        break
                    labels[donor] = int(empties[0])
                    upper[r, donor] = np.inf
                slot[r] = labels + base[r]

            row_slot = slot if row_comp is None else slot.take(row_comp, axis=1)
            means, members = group_means(stacked[:, : len(C) * n].T, row_slot.reshape(-1), k * len(C))
            new_C = np.where(members.reshape(-1, k, 1) > 0, means.reshape(-1, k, d), C)
            if not greedy:
                # Each bound moves by at most the weighted shift of its
                # centroid; a lower bound by the largest shift among the other
                # centroids, widened by the margin. A lower bound can cancel to
                # a rounding residue above zero, which would keep a component
                # at its centroid although an equal one has a lower index.
                shift = np.sqrt(((new_C - C) ** 2 * w).sum(axis=2))
                upper += shift.reshape(-1)[slot]
                others = np.zeros_like(shift)
                if k > 1:
                    ranked = np.sort(shift, axis=1)
                    others[:] = ranked[:, -1:]
                    others[np.arange(len(C)), shift.argmax(axis=1)] = ranked[:, -2]
                lower -= others.reshape(-1)[slot] * (1 + BOUND_MARGIN)
            movement = np.sqrt(((new_C - C) ** 2).sum(axis=2)).max(axis=1)
            C = new_C
            done = dead | (movement <= CONVERGENCE_TOL)
            if iterations == MAX_ITERATIONS:
                done[:] = True
            if not done.any():
                continue
            for r in np.flatnonzero(done & ~dead):
                labels = row_slot[r] - base[r]
                outcomes[run[r]] = Clustering(
                    ids=ids,
                    labels=labels,
                    centroids=C[r],
                    sse=float(((X - C[r][labels]) ** 2 * w).sum()),
                    iterations=iterations,
                    seed=config.seed,
                )
            if done.all():
                break
            # The runs left move up to the first positions, their slots with
            # them.
            kept = np.flatnonzero(~done)
            C, run, upper, lower = C[kept], run[kept], upper[kept], lower[kept]
            slot = slot[kept] - (base[kept] - base[: len(kept)])[:, None]
        yield from outcomes
        stack = next_stack()


def lloyd(
    dataset: CandidateDataset,
    init,
    config: KMeansConfig,
    weights: Mapping[str, float] | None = None,
    links: LinkComponents | None = None,
    max_size: int | None = None,
) -> Clustering:
    """One Lloyd run from ``init``: ``lloyd_stack`` as a stack of one. A
    deadlocked run raises its AssignmentDeadlockError."""
    return best_of_restarts(lloyd_stack(dataset, [init], config, weights, links, max_size))


def restart_inits(
    dataset: CandidateDataset,
    config: KMeansConfig,
    weights: Mapping[str, float] | None = None,
) -> Iterator[tuple[tuple[float, ...], ...]]:
    """The k-means++ init of each of ``config.restarts`` runs, restart
    r > 0 seeded at ``child_seed(seed, r)``, made as it is read."""
    for r in range(config.restarts):
        seed = config.seed if r == 0 else child_seed(config.seed, r)
        yield kmeans_pp_init(dataset, replace(config, seed=seed, restarts=1), weights)


def best_of_restarts(outcomes) -> Clustering:
    """The best of ``lloyd_stack`` outcomes, read in restart order: the
    lowest (SSE, restart index), so the selected run never depends on
    execution order. Deadlocked runs (an AssignmentDeadlockError in place of
    a clustering) are skipped; if all are, the first error is raised. Only
    the best clustering so far is kept."""
    best: Clustering | None = None
    first_error: AssignmentDeadlockError | None = None
    for outcome in outcomes:
        if isinstance(outcome, AssignmentDeadlockError):
            if first_error is None:
                first_error = outcome
        elif best is None or outcome.sse < best.sse:
            best = outcome
    if best is None:
        raise first_error
    return best


def run_kmeans(
    dataset: CandidateDataset,
    config: KMeansConfig,
    weights: Mapping[str, float] | None = None,
) -> Clustering:
    """Best-of-restarts plain k-means from k-means++ seeds, every restart in
    one ``lloyd_stack`` call."""
    # ``lloyd_stack`` is looked up at call time, so wrapping the module
    # attribute sees the call and every init.
    return best_of_restarts(lloyd_stack(dataset, restart_inits(dataset, config, weights), config, weights))


def sse(
    dataset: CandidateDataset,
    clustering: Clustering,
    weights: Mapping[str, float] | None = None,
) -> float:
    """Recompute the sum of squared weighted distances to assigned centroids."""
    w = _distance_weights(dataset, weights)
    clustering.check_rows(dataset)
    return float(((dataset.normalized - clustering.centroids[clustering.labels]) ** 2 * w).sum())


SILHOUETTE_BLOCK = 64


def silhouette(dataset: CandidateDataset, clustering: Clustering) -> float:
    """Mean silhouette coefficient with plain Euclidean distance on the
    normalized ratings. Singleton members contribute 0, as does the
    degenerate a = b = 0 case.

    The one-clustering call of ``_silhouettes``, which ``choose_k`` uses to
    score its whole sweep in one pass; the score is the same bits either way.
    """
    return _silhouettes(dataset, [clustering])[0]


def _silhouettes(dataset: CandidateDataset, clusterings) -> list[float]:
    """``silhouette`` of each clustering of ``dataset``, from one pass over
    the distance blocks.

    Distances are computed for ``SILHOUETTE_BLOCK`` rows at a time by
    ``distance_matrix`` and each block is shared by every clustering, so
    memory is O(block * n) plus one label array per clustering, rather than
    O(n^2 * d). Each mean runs over a C-contiguous row of its members in
    dataset order, the same sum a 1-D mean takes, so neither the block size
    nor the batch changes a score.
    """
    X = dataset.normalized
    n = len(dataset)
    sweep = []
    for clustering in clusterings:
        if clustering.k < 2:
            raise DomainError("silhouette needs at least 2 clusters")
        clustering.check_rows(dataset)
        counts = np.bincount(clustering.labels, minlength=clustering.k)
        if np.any(counts == 0):
            raise DomainError("silhouette needs every cluster non-empty")
        members = [np.flatnonzero(clustering.labels == j) for j in range(clustering.k)]
        sweep.append((clustering.labels, counts, members, np.zeros(n)))

    for start in range(0, n, SILHOUETTE_BLOCK):
        # Unweighted: each product with 1.0 is exact. D is block x n.
        D = distance_matrix(X, X[start : start + SILHOUETTE_BLOCK], np.ones(X.shape[1])).T
        np.sqrt(D, out=D)
        rows = np.arange(start, start + len(D))
        for labels, counts, members, scores in sweep:
            own = labels[rows]
            a = np.zeros(len(rows))
            b = np.full(len(rows), np.inf)
            for j, same in enumerate(members):
                # take, not D[:, same]: a fancy index on axis 1 gives a
                # strided array whose row means differ in the last bit.
                to_j = D.take(same, axis=1)
                mine = own == j
                b = np.minimum(b, np.where(mine, np.inf, to_j.mean(axis=1)))
                inside = np.flatnonzero(mine)
                if len(same) > 1 and len(inside):
                    others = same[None, :] != rows[inside, None]
                    a[inside] = to_j[inside][others].reshape(len(inside), -1).mean(axis=1)
            denom = np.maximum(a, b)
            scored = (counts[own] > 1) & (denom != 0.0)
            scores[rows[scored]] = (b[scored] - a[scored]) / denom[scored]
    return [float(np.mean(scores)) for _, _, _, scores in sweep]


#: ``choose_k`` sweeps k = 2..min(CHOOSE_K_MAX, n - 1), scoring the best of
#: ``CHOOSE_K_RESTARTS`` unweighted runs at each k.
CHOOSE_K_MAX = 8
CHOOSE_K_RESTARTS = 10


def choose_k(dataset: CandidateDataset, seed: int) -> int:
    """The cluster count for a run that gives none: 1 below three
    candidates, else the swept k maximizing silhouette over seeded
    best-of-restarts unweighted runs; ties go to the smallest k.

    Every k is clustered first, in order, through ``run_kmeans``, its
    restarts as one stack; then one pass over the ``SILHOUETTE_BLOCK``-row
    distance blocks scores all the clusterings, so memory is O(block * n)
    plus one label array per k, and each score has the bits a separate
    ``silhouette`` call gives."""
    n = len(dataset)
    if n < 3:
        return 1
    ks = range(2, min(CHOOSE_K_MAX, n - 1) + 1)
    clusterings = [
        run_kmeans(dataset, KMeansConfig(k=k, seed=child_seed(seed, k), restarts=CHOOSE_K_RESTARTS))
        for k in ks
    ]
    scores = _silhouettes(dataset, clusterings)
    return ks[scores.index(max(scores))]
