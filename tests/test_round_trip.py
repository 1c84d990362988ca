"""``serialize_dataset`` -> ``parse_dataset`` is exact for every dataset the
constructor accepts, ratings to the last digit.

Ids and attribute names are drawn from an alphabet of the characters CSV
quoting and ``parse_dataset``'s cell stripping care about: the constructor
must either reject them or the canonical text must parse back equal.
"""

import pytest

from cbceval.errors import DomainError
from cbceval.ingest import parse_dataset, serialize_dataset
from cbceval.model import AttributeSchema, CandidateDataset

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

ALPHABET = ("a", "b", " ", "\xa0", "\t", ",", '"', "\n", "\r")
RAW = st.text(alphabet=ALPHABET, min_size=1, max_size=5)
# Half the draws are wrapped in letters, so that most of those get past the
# edge check and the inner characters reach the CSV writer and reader. The
# header's own column names are drawn too: "constraints" in any case must be
# rejected as an attribute name, and "id" is a legal one.
TEXT = st.one_of(
    RAW,
    st.tuples(st.sampled_from("ab"), RAW, st.sampled_from("ab")).map("".join),
    st.sampled_from(("constraints", "Constraints", "id")),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(TEXT, min_size=1, max_size=3, unique=True),
    st.lists(TEXT, max_size=4, unique=True),
    st.data(),
)
def test_accepted_ids_and_names_round_trip(names, ids, data):
    # Whole ratings, and any float on the scale: digits past the 12th must
    # survive the canonical text too.
    rating = st.one_of(st.integers(1, 10).map(float), st.floats(1, 10))
    ratings = [[data.draw(rating) for _ in names] for _ in ids]
    constraints = [data.draw(rating) for _ in ids]
    try:
        dataset = CandidateDataset(AttributeSchema(names), ids, ratings, constraints)
    except DomainError:
        return
    assert parse_dataset(serialize_dataset(dataset)) == dataset
