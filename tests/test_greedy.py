"""The segmented greedy placement against the one-component loop.

``kmeans.greedy_place`` places runs of components at their nearest
admissible cluster at once; ``helpers.reference_greedy_place`` is the
COP-KMeans loop that places one component at a time. Both must give the
same labels, or fail on the same component. Distances are small integers so
that ties are common.
"""

import numpy as np
import pytest

from cbceval.kmeans import greedy_place

from helpers import reference_greedy_place

try:
    from hypothesis import HealthCheck, given, settings, strategies as st
except ImportError:  # only the property needs Hypothesis
    st = None


def assert_same_placement(D, sizes, pairs, max_size):
    """``greedy_place`` equals the reference; returns the reference labels."""
    D = np.asarray(D, dtype=np.float64)
    apart = [[] for _ in range(len(D))]
    for a, b in pairs:
        apart[a].append(b)
        apart[b].append(a)
    expected = reference_greedy_place(D, sizes, apart, max_size)
    got = greedy_place(D, np.array(sizes), np.array(pairs, dtype=np.int64), max_size)
    assert got.tolist() == expected
    return expected


# name -> (distances, sizes, cannot-link pairs, max size, labels)
PLACEMENTS = {
    "exact fill": ([[0, 1]] * 4, [1, 1, 2, 1], [], 4, [0, 0, 0, 1]),
    "multi-row crossing, singletons fit": ([[0, 1]] * 5, [1, 1, 3, 1, 1], [], 4, [0, 0, 1, 0, 0]),
    "tied distances": ([[2, 2, 2]] * 4, [1] * 4, [], 2, [0, 0, 1, 1]),
    "cannot-link chain": ([[0, 0, 0]] * 4, [1] * 4, [(0, 1), (1, 2), (2, 3)], None, [0, 1, 0, 1]),
    # The clash at 1 ends the first segment; (1, 2) then straddles the
    # second one's start and moves 2 off its nearest cluster.
    "pair straddles the segment start": (
        [[0, 1], [0, 1], [1, 0], [0, 1]], [1] * 4, [(0, 1), (1, 2)], None, [0, 1, 0, 0]
    ),
    "k = 1": ([[0]] * 3, [2, 1, 1], [], None, [0, 0, 0]),
    "k = 1, cannot-link": ([[0]] * 3, [1] * 3, [(0, 2)], None, [0, 0, -1]),
    "late deadlock": ([[0, 1]] * 7, [1] * 7, [], 3, [0, 0, 0, 1, 1, 1, -1]),
    "deadlock by partners in every cluster": (
        [[0, 1]] * 5, [1] * 5, [(0, 1), (0, 4), (1, 4)], None, [0, 1, 0, 0, -1]
    ),
}


@pytest.mark.parametrize("name", list(PLACEMENTS))
def test_greedy_place_matches_the_loop(name):
    D, sizes, pairs, max_size, labels = PLACEMENTS[name]
    assert assert_same_placement(D, sizes, pairs, max_size) == labels


if st is not None:

    @st.composite
    def placements(draw):
        """(D, sizes, pairs, max_size). ``max_size`` is None, any
        size, or the fill of component t's nearest cluster, without a cap,
        when t joins it (an exact fill) or one less (t crosses it)."""
        m = draw(st.integers(1, 24))
        k = draw(st.integers(1, 5))
        D = np.array(draw(st.lists(st.integers(0, 3), min_size=m * k, max_size=m * k)))
        D = D.reshape(m, k).astype(np.float64)
        sizes = draw(st.lists(st.sampled_from((1, 2, 3, 5)), min_size=m, max_size=m))
        pairs = set()
        if m > 1:
            lo = draw(st.integers(0, m - 2))
            hi = draw(st.integers(lo, m - 1))
            pairs.update((i, i + 1) for i in range(lo, hi))
            for a, b in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=m)):
                if a != b:
                    pairs.add((min(a, b), max(a, b)))
        pairs = sorted(pairs)
        mode = draw(st.sampled_from(("none", "any", "exact", "cross")))
        if mode == "none":
            max_size = None
        elif mode == "any":
            max_size = draw(st.integers(1, sum(sizes)))
        else:
            apart = [[] for _ in range(m)]
            for a, b in pairs:
                apart[a].append(b)
                apart[b].append(a)
            free = reference_greedy_place(D, sizes, apart, None)
            t = draw(st.integers(0, m - 1))
            if free[t] < 0:
                max_size = None
            else:
                fill = sum(s for s, j in zip(sizes[: t + 1], free) if j == free[t])
                max_size = max(1, fill - (mode == "cross"))
        return D, sizes, pairs, max_size

    @settings(
        max_examples=400,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=placements())
    def test_greedy_place_matches_the_loop_property(case):
        assert_same_placement(*case)
