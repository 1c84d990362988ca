"""``report_json`` writes the stdlib's text, byte for byte.

The reference is ``helpers.reference_report_json``: ``json.dumps(report,
indent=2)`` plus a newline, with ``report_digest`` the sha256 of the body's
sorted compact dump. Hypothesis draws ``rank`` bodies whose ids and
attribute names hold quotes, backslashes, control, non-ASCII and non-BMP
characters and the writer's own template characters; whose rule thresholds
are fractions, ints and both signed zeros; and whose scoring weights are
non-dyadic, so scores carry 12-digit reprs. Every candidate is feasible,
every one infeasible, some of each, or the run aborted at bind time.
"""

import json

import numpy as np
import pytest

from cbceval.cbc import CBCConfig, CBCResult, refine_micro_clusters
from cbceval.constraints import detect_deadlock
from cbceval.evaluate import rank, report_json, round_floats
from cbceval.ingest import _OncePerValue
from cbceval.kmeans import KMeansConfig
from cbceval.model import (
    COMPARATORS,
    SCALE_MAX,
    SCALE_MIN,
    AttributeSchema,
    CandidateDataset,
    Clustering,
    ConstraintSpec,
    ExistentialRule,
    UserConstraintSpec,
)

from helpers import reference_report_json

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

TIMESTAMP = "2000-01-01T00:00:00Z"
ALPHABET = ("a", '"', "\\", "\x00", "\x1f", "\x7f", "\t", "\n", ",", "%", "{", "é", " ", "\U0001f600")
# Wrapped in letters, so that the ids and names pass the dataset's edge check.
TEXT = st.text(alphabet=ALPHABET, max_size=4).map(lambda s: f"a{s}b")
RATING = st.one_of(st.integers(SCALE_MIN, SCALE_MAX).map(float), st.floats(SCALE_MIN, SCALE_MAX))
THRESHOLD = st.one_of(
    st.floats(SCALE_MIN - 1, SCALE_MAX + 1),
    st.integers(SCALE_MIN - 1, SCALE_MAX + 1),
    st.sampled_from((0.0, -0.0)),
)
MODES = ("mixed", "all feasible", "all infeasible", "aborted")


def ranked(dataset, spec, weights, *, aborted=False, seed=0):
    """``rank``'s body for a k = min(2, n) clustering that alternates labels
    (or a bind-aborted run), and the violations map it was built from."""
    k = min(2, len(dataset))
    micro = None
    if not aborted:
        clustering = Clustering(
            ids=dataset.ids(),
            labels=[i % k for i in range(len(dataset))],
            centroids=((0.0,) * len(dataset.schema.names),) * k,
            sse=0.0,
            iterations=0,
            seed=seed,
        )
        micro = refine_micro_clusters(clustering, dataset, spec)
    config = CBCConfig(KMeansConfig(k=k, seed=seed))
    result = CBCResult(micro, detect_deadlock(spec, dataset, k), (), spec, config)
    return rank(result, dataset, weights), micro


def check_report_text(body, micro):
    # rank rounds each violation value through its memo; repr tells -0.0
    # from 0.0 and an int threshold from a float one
    for entry in body.get("excluded", ()):
        records = micro.violations[entry["id"]]
        assert repr(entry["violations"]) == repr([round_floats(vars(v)) for v in records])
    text = report_json(body, timestamp=TIMESTAMP)
    expected = reference_report_json(body, TIMESTAMP)
    assert text == expected
    assert json.loads(text)["meta"]["report_digest"] == json.loads(expected)["meta"]["report_digest"]


@st.composite
def bodies(draw):
    mode = draw(st.sampled_from(MODES))
    names = draw(st.lists(TEXT, min_size=1, max_size=3, unique=True))
    ids = draw(st.lists(TEXT, min_size=2 if mode == "mixed" else 1, max_size=6, unique=True))
    ratings = [[draw(RATING) for _ in names] for _ in ids]
    constraints = [draw(RATING) for _ in ids]
    tau = draw(THRESHOLD)
    if mode == "mixed":
        # the first row falls below the threshold, the last reaches it
        constraints[0], constraints[-1] = SCALE_MIN, SCALE_MAX
        tau = draw(st.floats(SCALE_MIN + 0.5, SCALE_MAX))
    dataset = CandidateDataset(AttributeSchema(names), ids, ratings, constraints)

    rules = [
        ExistentialRule(
            draw(st.sampled_from(names)), draw(st.sampled_from(COMPARATORS)), draw(THRESHOLD), 0,
            per_candidate=True,
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    if mode == "all feasible":
        rules, tau = [], SCALE_MIN
    elif mode == "all infeasible":
        rules.append(ExistentialRule(names[0], "<", SCALE_MIN, 0, per_candidate=True))
    user = None
    if draw(st.booleans()):
        amount = st.floats(0.0, 50.0)
        user = UserConstraintSpec(
            parallel_instances=1,
            max_instances=2,
            total_work=draw(amount),
            min_workload_per_instance=draw(amount),
            budget_per_instance=draw(amount),
            deadline=draw(amount),
            budget_class="low",
        )
    spec = ConstraintSpec(existential=rules, feasibility_threshold=tau, user_spec=user)
    weights = None
    if draw(st.booleans()):
        weight = st.one_of(st.sampled_from((0.1, 0.3, 1 / 3, 0.7)), st.floats(0.01, 5.0))
        weights = {name: draw(weight) for name in names}

    seed = draw(st.integers(0, 2**64 - 1))
    body, micro = ranked(dataset, spec, weights, aborted=mode == "aborted", seed=seed)
    if mode == "all feasible":
        assert body["excluded"] == []
    elif mode == "all infeasible":
        assert body["ranking"] == []
    elif mode == "aborted":
        assert list(body) == ["meta", "deadlock"]
    return body, micro


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(bodies())
def test_report_text_is_the_stdlib_dump(case):
    check_report_text(*case)


def test_signed_zero_thresholds_in_one_report():
    # Every rating breaks both rules, so each excluded entry holds a 0.0
    # and a -0.0 threshold: the memos in rank and report_json must not
    # hand one's value or text to the other.
    dataset = CandidateDataset(AttributeSchema(("a",)), ["x", "y"], [[1.0], [2.5]], [3.0, 7.0])
    rules = [
        ExistentialRule("a", "<=", 0.0, 0, per_candidate=True),
        ExistentialRule("a", "<=", -0.0, 0, per_candidate=True),
    ]
    spec = ConstraintSpec(existential=rules, feasibility_threshold=SCALE_MIN)
    body, micro = ranked(dataset, spec, None)
    for entry in body["excluded"]:
        assert [repr(v["required"]) for v in entry["violations"]] == ["0.0", "-0.0"]
    check_report_text(body, micro)
    assert '"required": -0.0' in report_json(body, timestamp=TIMESTAMP)


def test_memo_keeps_signed_zeros_apart():
    texts = _OncePerValue(repr)
    assert [texts[0.0], texts[-0.0], texts[0.0], texts[-0.0]] == ["0.0", "-0.0", "0.0", "-0.0"]
    values = np.array([[-0.0, 0.0, 1.5], [0.0, -0.0, 1.5]])
    assert _OncePerValue(repr).of_array(values) == [["-0.0", "0.0", "1.5"], ["0.0", "-0.0", "1.5"]]
