"""``constraints._pack``, the one packing decision of the deadlock check.

It returns a witness's labels, None when it proves no assignment exists, or
False when first-fit fails past ``EXACT_COMPONENT_LIMIT`` bound components.
The properties check every witness against the constraints, and every
small verdict against an enumeration of all k**m labelings.
"""

from itertools import product

import pytest

from cbceval.constraints import EXACT_COMPONENT_LIMIT, _pack

try:
    from hypothesis import HealthCheck, given, settings, strategies as st
except ImportError:  # only the properties need Hypothesis
    st = None


def violations(labels, sizes, pairs, k, min_size, max_size) -> list[str]:
    """What ``labels`` breaks of the instance; empty for a witness."""
    if len(labels) != len(sizes) or not all(0 <= label < k for label in labels):
        return [f"labels {labels} do not put each of {len(sizes)} components in 0..{k - 1}"]
    found = [f"pair {a}, {b} in cluster {labels[a]}" for a, b in pairs if labels[a] == labels[b]]
    counts = [0] * k
    for size, label in zip(sizes, labels):
        counts[label] += size
    for j, count in enumerate(counts):
        if count < (min_size or 0) or (max_size is not None and count > max_size):
            found.append(f"cluster {j} holds {count}, outside {min_size}..{max_size}")
    return found


def exists(sizes, pairs, k, min_size, max_size) -> bool:
    return any(
        not violations(labels, sizes, pairs, k, min_size, max_size)
        for labels in product(range(k), repeat=len(sizes))
    )


# name -> (sizes, pairs, k, min_size, max_size, verdict: "labels", None or False)
INSTANCES = {
    "free rows only": ([1] * 7, [], 3, 2, 3, "labels"),
    "free rows short of the minimum": ([1] * 5, [], 3, 2, None, None),
    "triangle, k = 2": ([1] * 4, [(0, 1), (1, 2), (0, 2)], 2, None, None, None),
    "first-fit fails, the search packs": ([3, 3, 2, 2, 2, 2], [], 2, None, 7, "labels"),
    # Room first would put all three free rows beside the 3-row component.
    "deficits filled before room": ([3, 1, 1, 1], [], 2, 3, 6, "labels"),
    "room left under the maximum": ([2, 1, 1, 1, 1, 1], [(0, 1)], 3, None, 3, "labels"),
    "oversized component": ([4, 1], [], 2, None, 3, None),
    # Each cluster holds at most six of them, or two at max_size 5.
    "thirteen 2-row components": ([2] * 13, [], 2, None, 13, False),
    "twelve 2-row components and a free row": ([2] * 12 + [1], [], 5, None, 5, None),
}


@pytest.mark.parametrize("name", list(INSTANCES))
def test_pack_instances(name):
    sizes, pairs, k, min_size, max_size, verdict = INSTANCES[name]
    got = _pack(sizes, pairs, k, min_size, max_size)
    if verdict == "labels":
        assert violations(got, sizes, pairs, k, min_size, max_size) == []
    else:
        assert got is verdict
    if len(sizes) <= 7:
        assert exists(sizes, pairs, k, min_size, max_size) == (verdict == "labels")


def test_limit_counts_bound_components_only():
    # A triangle among 12 cannot-linked rows is proved uncolorable whatever
    # the free rows beside it; among 13 it is past the limit, undecided.
    assert EXACT_COMPONENT_LIMIT == 12
    triangle = [(0, 1), (1, 2), (0, 2)]
    assert _pack([1] * 52, triangle + [(i, i + 1) for i in range(2, 11)], 2, None, None) is None
    assert _pack([1] * 53, triangle + [(i, i + 1) for i in range(2, 12)], 2, None, None) is False


if st is not None:

    @st.composite
    def instances(draw, max_m, max_k):
        """(sizes, pairs, k, min_size, max_size): mostly single rows, some
        of them cannot-linked, and bounds near the mean cluster fill."""
        m = draw(st.integers(1, max_m))
        k = draw(st.integers(1, max_k))
        sizes = draw(st.lists(st.sampled_from((1, 1, 1, 2, 3)), min_size=m, max_size=m))
        pairs = set()
        if m > 1:
            ends = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
            for a, b in draw(st.lists(ends, max_size=min(m, 8))):
                if a != b:
                    pairs.add((min(a, b), max(a, b)))
        mean = sum(sizes) // k
        min_size = draw(st.sampled_from((None, 0, max(0, mean - 2), mean)))
        max_size = draw(st.sampled_from((None, mean + 2, mean + 1, max(min_size or 0, mean))))
        if min_size and max_size is not None and min_size > max_size:
            min_size = max_size
        return sizes, sorted(pairs), k, min_size, max_size

    SETTINGS = settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )

    @SETTINGS
    @given(case=instances(40, 3))
    def test_every_witness_keeps_the_constraints(case):
        got = _pack(*case)
        if isinstance(got, list):
            assert violations(got, *case) == []
        else:
            assert got is None or got is False

    @SETTINGS
    @given(case=instances(7, 3))
    def test_small_verdicts_match_the_enumeration(case):
        got = _pack(*case)
        assert got is not False
        assert (got is not None) == exists(*case)
        if got is not None:
            assert violations(got, *case) == []
