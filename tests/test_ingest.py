import csv
import json
import random
import string

import pytest

from cbceval.cbc import CBCConfig, run_pipeline
from cbceval.errors import DomainError, ParseError
from cbceval.evaluate import rank
from cbceval.ingest import (
    bind_and_validate,
    constraint_spec_to_dict,
    parse_constraint_spec,
    parse_dataset,
    serialize_dataset,
)
from cbceval.kmeans import KMeansConfig
from cbceval.model import AttributeSchema, CandidateDataset, ConstraintSpec

from helpers import FEASIBLE_AT_6, SAMPLE_ROWS, dataset_from_rows, random_dataset, reference_parse_dataset

try:
    from hypothesis import HealthCheck, given, settings, strategies as st
except ImportError:  # only the row-loop property needs Hypothesis
    st = None

HEADER = "id,reusability,customizability,scalability,availability,data_management,pay_per_use,constraints"


def test_sample_dataset_parses_all_rows(sample_dataset):
    assert len(sample_dataset) == 10
    assert sample_dataset.ids() == tuple(SAMPLE_ROWS)
    t103 = sample_dataset.row_of["T103"]
    assert tuple(sample_dataset.ratings[t103].tolist()) == (5, 5, 5, 4, 5, 2)
    assert sample_dataset.constraints_ratings[t103] == 9


def test_header_only_file_is_valid():
    dataset = parse_dataset(HEADER + "\n")
    assert len(dataset) == 0
    assert len(dataset.schema.names) == 6


def test_crlf_and_bom_accepted():
    text = "﻿" + HEADER + "\r\nT1,1,2,3,4,5,6,7\r\n"
    dataset = parse_dataset(text)
    assert dataset.constraints_ratings[dataset.row_of["T1"]] == 7


def test_out_of_range_rating_locates_cell():
    text = HEADER + "\nT1,2,2,11,2,3,5,6\n"
    with pytest.raises(ParseError, match=r"row T1, column scalability: .*out of range"):
        parse_dataset(text)


def test_non_numeric_cell_locates_cell():
    text = HEADER + "\nT1,2,2,x,2,3,5,6\n"
    with pytest.raises(ParseError, match="column scalability"):
        parse_dataset(text)


def test_duplicate_id_rejected():
    text = HEADER + "\nT1,1,1,1,1,1,1,1\nT1,2,2,2,2,2,2,2\n"
    with pytest.raises(ParseError, match="duplicate id T1"):
        parse_dataset(text)


def test_missing_header_pieces():
    with pytest.raises(ParseError, match="missing header"):
        parse_dataset("")
    with pytest.raises(ParseError, match="first column"):
        parse_dataset("name,a,constraints\n")
    with pytest.raises(ParseError, match="constraints"):
        parse_dataset("id,a,b\n")
    with pytest.raises(ParseError, match="rating column"):
        parse_dataset("id,constraints\n")


def test_serialize_round_trip_sample(sample_dataset):
    text = serialize_dataset(sample_dataset)
    assert parse_dataset(text) == sample_dataset


def test_serialize_round_trip_random():
    rng = random.Random(4)
    for _ in range(25):
        dataset = random_dataset(rng, rng.randint(0, 12), rng.randint(1, 5))
        assert parse_dataset(serialize_dataset(dataset)) == dataset


def test_serialize_round_trip_quotes_ids_and_names():
    schema = AttributeSchema(("plain", "a,b", 'say "hi"', "two\nlines"))
    dataset = dataset_from_rows(
        schema,
        [
            ("x,1", (1, 2, 3, 4), 5),
            ('q"uote', (10, 9, 8, 7), 6),
            ("line\nbreak", (1.5, 2.25, 3.125, 9.75), 1),
            ("T1", (1, 1, 1, 1), 1),
        ],
    )
    text = serialize_dataset(dataset)
    assert text.splitlines()[0] == 'id,plain,"a,b","say ""hi""","two'
    assert text.endswith("\nT1,1,1,1,1,1\n")
    assert parse_dataset(text) == dataset


def test_serialize_long_ratings_round_trip_with_a_pinned_digest():
    # Ratings past 12 significant digits fall back to repr; a repeated value
    # is written once per distinct value and reused, in both columns.
    dataset = CandidateDataset(
        AttributeSchema(("a", "b")),
        ["x", "y", "z"],
        [[1.2345678901234, 5.0], [1.2345678901234, 2.5], [9.999999999999998, 1.0]],
        [7.123456789012345, 10.0, 1.2345678901234],
    )
    text = serialize_dataset(dataset)
    assert text == (
        "id,a,b,constraints\n"
        "x,1.2345678901234,5,7.123456789012345\n"
        "y,1.2345678901234,2.5,10\n"
        "z,9.999999999999998,1,1.2345678901234\n"
    )
    assert parse_dataset(text) == dataset
    result = run_pipeline(dataset, ConstraintSpec(feasibility_threshold=1), CBCConfig(KMeansConfig(k=1, seed=0)))
    assert rank(result, dataset)["meta"]["dataset_digest"] == (
        "de4416365c2fe63579ee54ade64a4a5fda047cddf15f26061e22a98800086cde"
    )


@pytest.mark.parametrize("cid", [" x", "a\xa0", "x\ry", "x\r\ny"])
def test_ids_that_would_not_round_trip_are_rejected(cid):
    # parse_dataset strips every cell and reads a carriage return as a line
    # break, so these ids would come back changed or not parse at all.
    with pytest.raises(DomainError, match="must not start or end with whitespace"):
        CandidateDataset(AttributeSchema(("a",)), [cid], [[5]], [5])


@pytest.mark.parametrize("name", ["a\rb", " a", "a\n"])
def test_names_that_would_not_round_trip_are_rejected(name):
    with pytest.raises(DomainError, match="must not start or end with whitespace"):
        AttributeSchema((name,))


def test_parsing_is_total_on_fuzzed_text():
    rng = random.Random(9)
    alphabet = string.printable
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 120)))
        try:
            parse_dataset(text)
        except ParseError:
            pass


def test_fixture_constraint_spec(sample_spec):
    assert sample_spec.feasibility_threshold == 6
    user = sample_spec.user_spec
    assert user.parallel_instances == 50
    assert user.max_instances == 100
    assert user.total_work == 180
    assert user.min_workload_per_instance == 48
    assert user.budget_per_instance == 5000
    assert user.budget_class == "medium"
    assert user.trial_period == 7
    assert user.deadline == 30
    assert sample_spec.must_link == ()
    assert sample_spec.k is None


def test_empty_spec_defaults_to_midpoint_threshold():
    spec = parse_constraint_spec("{}")
    assert spec == ConstraintSpec()
    assert spec.feasibility_threshold == 5.5
    assert spec.user_spec is None
    assert spec.distance_weights is None


def test_pair_in_both_sets_is_parse_error():
    text = json.dumps(
        {"must_link": [["T100", "T101"]], "cannot_link": [["T100", "T101"]]}
    )
    with pytest.raises(ParseError, match="both must_link and cannot_link"):
        parse_constraint_spec(text)


def test_unknown_fields_rejected():
    with pytest.raises(ParseError, match="unknown field 'surprise'"):
        parse_constraint_spec('{"surprise": 1}')
    with pytest.raises(ParseError, match="user_spec"):
        parse_constraint_spec('{"user_spec": {"nonsense": 1}}')
    with pytest.raises(ParseError, match="existential"):
        parse_constraint_spec(
            '{"existential": [{"attribute": "a", "op": ">=", "threshold": 1, '
            '"min_count": 1, "extra": 2}]}'
        )


def test_malformed_values_rejected():
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_constraint_spec("{")
    with pytest.raises(ParseError, match="nonnegative"):
        parse_constraint_spec('{"min_cluster_size": -1}')
    with pytest.raises(ParseError, match="min_cluster_size"):
        parse_constraint_spec('{"min_cluster_size": 5, "max_cluster_size": 1}')
    with pytest.raises(ParseError, match="integer"):
        parse_constraint_spec('{"k": 2.5}')
    with pytest.raises(ParseError, match="boolean"):
        parse_constraint_spec('{"k": true}')
    with pytest.raises(ParseError, match="required field"):
        parse_constraint_spec('{"user_spec": {"parallel_instances": 1}}')


USER = {
    "parallel_instances": 1,
    "max_instances": 2,
    "total_work": 10,
    "min_workload_per_instance": 1,
    "budget_per_instance": 5,
    "deadline": 3,
    "budget_class": "low",
}
RULE = {"attribute": "a", "op": ">=", "threshold": 1, "min_count": 1}


def with_user(**fields):
    return {"user_spec": {**USER, **fields}}


def without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


LONG = "L" * 100_000
LONG_CUT = f"{'L' * 40}... (100000 characters)"
LONG_SHOWN = f"'{'L' * 39}... (100002 characters)"

MALFORMED_SPECS = [
    # an unknown key at each level
    ({"surprise": 1}, "unknown field 'surprise'"),
    (with_user(nonsense=1), "user_spec: unknown field 'nonsense'"),
    ({"user_spec": {"nonsense": 1}}, "user_spec: unknown field 'nonsense'"),
    ({"existential": [{**RULE, "extra": 2}]}, "existential[0]: unknown field 'extra'"),
    # every required user_spec field, missing
    *[
        ({"user_spec": without(USER, key)}, f"user_spec: required field {key!r} missing")
        for key in USER
    ],
    # the budget_class type check runs before the numeric fields
    (
        with_user(budget_class=3, total_work="x"),
        "user_spec.budget_class: budget_class must be a string",
    ),
    (
        with_user(budget_class=None, parallel_instances=True),
        "user_spec.budget_class: budget_class must be a string",
    ),
    # numeric fields are checked in declaration order
    (with_user(total_work="x", deadline="y"), "user_spec.total_work: expected a number, got 'x'"),
    (with_user(deadline="soon"), "user_spec.deadline: expected a number, got 'soon'"),
    # a bool, a float and a negative value where an int is expected
    ({"k": True}, "k: expected a number, got a boolean"),
    ({"k": 2.5}, "k: expected an integer, got 2.5"),
    ({"k": -1}, "k must be at least 1, got -1"),
    ({"k": 0}, "k must be at least 1, got 0"),
    ({"max_cluster_size": -2}, "max_cluster_size must be nonnegative, got -2"),
    (
        with_user(parallel_instances=True),
        "user_spec.parallel_instances: expected a number, got a boolean",
    ),
    (with_user(max_instances=2.5), "user_spec.max_instances: expected an integer, got 2.5"),
    (with_user(parallel_instances=-1), "user_spec: parallel_instances must be nonnegative, got -1"),
    (
        {"existential": [{**RULE, "min_count": True}]},
        "existential[0].min_count: expected a number, got a boolean",
    ),
    (
        {"existential": [{**RULE, "min_count": 1.5}]},
        "existential[0].min_count: expected an integer, got 1.5",
    ),
    (
        {"existential": [{**RULE, "min_count": -1}]},
        "existential[0]: min_count must be nonnegative, got -1",
    ),
    # non-finite numbers and out-of-domain values in user_spec
    (with_user(total_work=float("nan")), "user_spec.total_work: expected a finite number, got nan"),
    (with_user(spot_bid=float("inf")), "user_spec.spot_bid: expected a finite number, got inf"),
    (with_user(task_length=-1), "user_spec: task_length must be nonnegative, got -1.0"),
    (with_user(budget_confidence=1.5), "user_spec: budget_confidence must lie in [0, 1], got 1.5"),
    (
        with_user(budget_class="huge"),
        "user_spec: budget_class must be one of ('low', 'medium', 'high'), got 'huge'",
    ),
    # rules
    (
        {"existential": [{**RULE, "op": "=>"}]},
        "existential[0]: op must be one of ['>=', '<=', '>', '<', '=='], got '=>'",
    ),
    (
        {"existential": [without(RULE, "min_count")]},
        "existential[0]: required field 'min_count' missing",
    ),
    (
        {"existential": [{**RULE, "threshold": float("nan")}]},
        "existential[0].threshold: expected a finite number, got nan",
    ),
    # pairs and weights
    ({"must_link": [["a"]]}, "must_link[0]: each pair must be a 2-element array of ids"),
    (
        {"cannot_link": [["a", "b"], ["c", 1]]},
        "cannot_link[1]: each pair must be a 2-element array of ids",
    ),
    ({"must_link": "ab"}, "must_link: expected an array of id pairs"),
    ({"distance_weights": [1]}, "distance_weights: expected an object"),
    ({"distance_weights": {"a": -1}}, "distance weight for a is negative"),
    # a long rejected value is quoted as its repr cut to 40 characters
    (
        {"k": [1] * 3000},
        "k: expected an integer, got [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, ... (9000 characters)",
    ),
    (
        {"distance_weights": {"reusability": "x" * 5000}},
        f"distance_weights.reusability: expected a number, got '{'x' * 39}... (5002 characters)",
    ),
    (
        {"existential": [{**RULE, "op": ">" * 1000}]},
        "existential[0]: op must be one of ['>=', '<=', '>', '<', '=='], got "
        f"'{'>' * 39}... (1002 characters)",
    ),
    # a long id or attribute name is cut wherever the model's checks name it
    (
        {"distance_weights": {LONG: "x"}},
        f"distance_weights.{LONG_CUT}: expected a number, got 'x'",
    ),
    ({"distance_weights": {LONG: -1}}, f"distance weight for {LONG_CUT} is negative"),
    ({"must_link": [[LONG, LONG]]}, f"must_link pair links {LONG_SHOWN} to itself"),
    (
        {"must_link": [[LONG, "b"]], "cannot_link": [["b", LONG]]},
        f"pair ('{'L' * 38}... (100009 characters) appears in both must_link and cannot_link",
    ),
    (
        with_user(budget_class=LONG),
        f"user_spec: budget_class must be one of ('low', 'medium', 'high'), got {LONG_SHOWN}",
    ),
]


@pytest.mark.parametrize(("spec", "message"), MALFORMED_SPECS)
def test_malformed_spec_error_text(spec, message):
    with pytest.raises(ParseError) as info:
        parse_constraint_spec(json.dumps(spec))
    assert str(info.value) == message


@pytest.mark.parametrize(
    ("text", "message"),
    [
        (
            "id,a,constraints\nx," + "q" * 2000 + ",5\n",
            f"row x, column a: not a number: '{'q' * 39}... (2002 characters)",
        ),
        (
            "id,a,constraints\n" + f"{'d' * 5000},5,5\n" * 2,
            f"row 3: duplicate id {'d' * 40}... (5000 characters)",
        ),
        (
            "id,a,constraints\nx," + "9" * 5000 + ",5\n",
            f"row x, column a: rating {'9' * 40}... (5000 characters) out of range [1, 10]",
        ),
        (
            f"id,{'a' * 41},constraints\n{'y' * 41},11,5\n",
            f"row {'y' * 40}... (41 characters), column {'a' * 40}... (41 characters): "
            "rating 11 out of range [1, 10]",
        ),
        (
            "id,a,constraints\nx," + "9" * 200_000 + ",5\n",
            "malformed CSV: field larger than field limit (131072)",
        ),
        ("id,a,constraints,Constraints\n", "header: duplicate 'constraints' column"),
        ("id,a,,constraints\n", "header: empty attribute name in column 3"),
        ("id,a,a,constraints\n", "header: duplicate column 'a'"),
    ],
    ids=[
        "not a number",
        "duplicate id",
        "rating out of range",
        "id and column name",
        "cell over the field limit",
        "two constraints columns",
        "empty attribute name",
        "duplicate attribute name",
    ],
)
def test_long_csv_cell_is_cut_in_errors(text, message):
    with pytest.raises(ParseError) as info:
        parse_dataset(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("id,a,constraints\n\n\nx,5\n", "row 4: expected 3 cells, got 2"),
        ("id,a,constraints\nx,5,5\n\n \nx,6,6\n", "row 5: duplicate id x"),
        ("\n,\nid,a,constraints\nx,5,5\n\ny\n", "row 6: expected 3 cells, got 1"),
        # Within a row the id comes first, then each attribute column in
        # header order, then the constraints column.
        ("id,a,b,constraints\nx,11,q,5\n", "row x, column a: rating 11 out of range [1, 10]"),
        ("id,a,b,constraints\nx,q,11,5\n", "row x, column a: not a number: 'q'"),
        ("id,a,constraints\nx,11,5\nx,5\n", "row x, column a: rating 11 out of range [1, 10]"),
        ("id,a,constraints\nx,5,5\nx,q,5\n", "row 3: duplicate id x"),
        ("id,a,constraints\n,q,5\n", "row 2: empty id"),
        ("id,constraints,a\nx,q,11\n", "row x, column a: rating 11 out of range [1, 10]"),
        ("id,a,constraints\nx,5,5\ny,5,q\nz,5\n", "row y, column constraints: not a number: 'q'"),
        # The cells would read as two valid rows, ids 1 and 5.
        ("id,a,constraints\n1,5,5,5\n2,5\n", "row 2: expected 3 cells, got 4"),
    ],
    ids=[
        "short record",
        "duplicate id",
        "blank records before the header",
        "range before a later column",
        "not a number before a later column",
        "range before a later short record",
        "duplicate id before its cells",
        "empty id before its cells",
        "attributes before the constraints column",
        "constraints cell before a later short record",
        "a long record, then a short one",
    ],
)
def test_row_numbers_count_blank_records(text, message):
    with pytest.raises(ParseError) as info:
        parse_dataset(text)
    assert str(info.value) == message


def dataset_outcome(parse, text):
    """What ``parse`` makes of ``text``: the dataset's ids and column bytes,
    or the text of the ParseError it raises."""
    try:
        dataset = parse(text)
    except ParseError as exc:
        return str(exc)
    return dataset.ids(), dataset.ratings.tobytes(), dataset.constraints_ratings.tobytes()


if st is not None:
    # Mostly valid cells, so that whole datasets parse as well as fail.
    IDS = ("p", "q", "r", "s", "t", " u", "v\t", "w\xa0", '"x,y"') * 3 + ("", "  ")
    RATINGS = (
        ("1", "5", "10", "2.5", " 7 ", "\t3", "\xa04\u2003", '" 6"', "1e1", "٣") * 12
        + ("", " ", "0", "11", "-1", "nan", "inf", "-inf", "1_0", "1e999", "x", "5 5", "0x5")
    )
    BLANK_RECORDS = ("", " ", ",", " ,\t,")
    HEADERS = ("id,a,constraints", "id, a ,b,constraints", "id,constraints,a")
    # Quote-free texts: ids are distinct unless a bad one is drawn, and bad
    # cells and records are rare, so most of these texts are valid plain
    # datasets. A NUL or a line longer than csv's field limit sends a text to
    # csv.reader, which rejects only a cell longer than the limit.
    PADS = ("",) * 6 + (" ", "\t", "\xa0")
    PLAIN_RATINGS = ("1", "5", "10", "2.5", " 7 ", "\t3", "\xa04\u2003", "1e1", "٣", "1_0")
    LIMIT = csv.field_size_limit()
    BAD_RATINGS = ("", " ", "0", "11", "-1", "nan", "inf", "1e999", "x", "5 5", "0x5", "5\x00")
    BAD_RATINGS += (" " * (LIMIT - 1) + "5", " " * LIMIT + "5") * 3
    BAD_IDS = ("", "  ", "c0", "\x00")

    def one_in(n):
        # A sampled flag: Hypothesis draws an integer's lower bound more often.
        return st.sampled_from((False,) * (n - 1) + (True,))

    def rarely(n, common, rare):
        return one_in(n).flatmap(lambda is_rare: st.sampled_from(rare if is_rare else common))

    @st.composite
    def quote_free_lines(draw, header: str) -> list[str]:
        width = header.count(",") + 1
        blanks = st.sampled_from(BLANK_RECORDS + ("," * (width - 1),))
        few = st.sampled_from((0,) * 18 + (1, 2))
        pads = st.sampled_from(PADS)
        cells = rarely(30, PLAIN_RATINGS, BAD_RATINGS)
        lines = [draw(blanks) for _ in range(draw(few))] + [header]
        for i in range(draw(st.sampled_from(range(9)))):
            if draw(one_in(30)):
                lines.append(draw(blanks))
                continue
            padded = draw(pads) + f"c{i}" + draw(pads)
            record = [draw(st.sampled_from(BAD_IDS)) if draw(one_in(20)) else padded]
            record += [draw(cells) for _ in range(width - 1)]
            extra = draw(rarely(20, (0,), (-1, 1)))  # a short or a long record
            lines.append(",".join(record[:-1] if extra < 0 else record + ["5"] * extra))
        return lines + [draw(blanks) for _ in range(draw(few))]

    @st.composite
    def dataset_texts(draw):
        header = draw(st.sampled_from(HEADERS))
        if draw(st.sampled_from((True, True, False))):
            lines = draw(quote_free_lines(header))
        else:
            width = header.count(",") + 1
            lines = draw(st.lists(st.sampled_from(BLANK_RECORDS), max_size=2)) + [header]
            for _ in range(draw(st.integers(0, 6))):
                if draw(st.integers(0, 5)) == 0:
                    lines.append(draw(st.sampled_from(BLANK_RECORDS)))
                    continue
                cells = [draw(st.sampled_from(IDS))]
                cells += draw(st.lists(st.sampled_from(RATINGS), min_size=width - 1, max_size=width - 1))
                extra = draw(st.sampled_from((0,) * 8 + (-1, 1)))  # a short or a long record
                lines.append(",".join(cells[:-1] if extra < 0 else cells + ["5"] * extra))
        bom = draw(st.sampled_from(("",) * 5 + ("\ufeff",)))
        newline = draw(st.sampled_from(("\n",) * 4 + ("\r\n", "\r")))
        return bom + newline.join(lines) + draw(st.sampled_from((newline, "", "\n", "\r\n")))

    @settings(
        max_examples=600,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(text=dataset_texts())
    def test_parse_dataset_matches_the_row_loop(text):
        assert dataset_outcome(parse_dataset, text) == dataset_outcome(reference_parse_dataset, text)


def test_quote_free_files_are_read_without_csv_reader(monkeypatch):
    text = HEADER + "\nT1, 1,2,3,4,5,6,7\r\nT2,2,3,4,5,6,7,8\n"
    calls = []

    def reader(*args, **kwargs):
        calls.append(args)
        return real_reader(*args, **kwargs)

    real_reader = csv.reader
    monkeypatch.setattr(csv, "reader", reader)
    assert parse_dataset(text).ids() == ("T1", "T2")
    assert calls == []
    # A quote, or a plain text that is not a valid dataset, goes to
    # csv.reader, which names the fault.
    assert parse_dataset(text.replace("T2", '"T2"')).ids() == ("T1", "T2")
    assert len(calls) == 1
    with pytest.raises(ParseError, match="row 3: expected 8 cells, got 7"):
        parse_dataset(text.replace(",8", ""))
    assert len(calls) == 2


def spec_round_trip(spec):
    return parse_constraint_spec(json.dumps(constraint_spec_to_dict(spec)))


def test_spec_serialization_round_trip(sample_spec):
    assert spec_round_trip(sample_spec) == sample_spec
    rich = ConstraintSpec(
        must_link=[("a", "b")],
        cannot_link=[("a", "c")],
        distance_weights={"f0": 2.0},
        k=3,
        min_cluster_size=1,
        max_cluster_size=5,
        feasibility_threshold=4,
    )
    assert spec_round_trip(rich) == rich


def test_bind_sample_inputs_clean(sample_dataset, sample_spec):
    report = bind_and_validate(sample_dataset, sample_spec)
    assert report.ok
    assert report.errors == []


def test_bind_unknown_id(sample_dataset):
    spec = ConstraintSpec(must_link=[("T100", "T999")], feasibility_threshold=6)
    report = bind_and_validate(sample_dataset, spec)
    assert not report.ok
    assert any("unknown id T999" in msg for _, msg in report.errors)


def test_bind_k_exceeds_count(sample_dataset):
    spec = ConstraintSpec(k=12, feasibility_threshold=6)
    report = bind_and_validate(sample_dataset, spec)
    assert any("k exceeds candidate count" in msg for _, msg in report.errors)


@pytest.mark.parametrize(
    "spec_k, k, errors",
    [
        (None, None, []),
        (3, None, []),
        (None, 10, []),
        (None, 0, [("k", "k must be at least 1, got 0")]),
        (None, -2, [("k", "k must be at least 1, got -2")]),
        (None, 11, [("k", "k exceeds candidate count")]),
        (11, None, [("k", "k exceeds candidate count")]),
        # a given k is the run's, in place of the spec's
        (11, 3, []),
        (3, 11, [("k", "k exceeds candidate count")]),
    ],
)
def test_bind_bounds_the_runs_k(sample_dataset, spec_k, k, errors):
    spec = ConstraintSpec(k=spec_k, feasibility_threshold=6)
    assert bind_and_validate(sample_dataset, spec, k).errors == errors
    if k is None:
        assert bind_and_validate(sample_dataset, spec).errors == errors


def test_pipeline_binds_the_config_k(sample_dataset):
    spec = ConstraintSpec(feasibility_threshold=6)
    with pytest.raises(DomainError) as info:
        run_pipeline(sample_dataset, spec, CBCConfig(KMeansConfig(k=11, seed=0)))
    assert str(info.value) == "spec does not bind to dataset: k: k exceeds candidate count"


def test_bind_collects_all_failures(sample_dataset):
    spec = ConstraintSpec(
        must_link=[("T100", "T998")],
        cannot_link=[("T101", "T999")],
        distance_weights={"mystery": 1.0},
        k=12,
        feasibility_threshold=6,
    )
    report = bind_and_validate(sample_dataset, spec)
    assert len(report.errors) >= 4


def two_attribute_dataset():
    # Unweighted, a's spread (1 vs 10) outweighs b's (1 vs 2).
    points = {"P0": (1, 1), "P1": (1, 2), "P2": (10, 1), "P3": (10, 2)}
    schema = AttributeSchema(("a", "b"))
    return dataset_from_rows(schema, ((cid, p, 10) for cid, p in points.items()))


def test_bind_rejects_all_zero_effective_weights():
    dataset = two_attribute_dataset()
    spec = parse_constraint_spec('{"distance_weights": {"a": 0, "b": 0}}')
    report = bind_and_validate(dataset, spec)
    assert report.errors == [("distance_weights", "weights need at least one positive entry")]


def test_partial_zero_weights_bind_and_cluster_on_the_rest():
    # Unlisted attributes weigh 1, so {"a": 0} clusters on b alone.
    dataset = two_attribute_dataset()
    spec = parse_constraint_spec('{"distance_weights": {"a": 0}, "feasibility_threshold": 1}')
    report = bind_and_validate(dataset, spec)
    assert report.ok and report.warnings == []
    result = run_pipeline(dataset, spec, CBCConfig(KMeansConfig(k=2, seed=3)))
    labels = result.clustering.assignment
    assert labels["P0"] == labels["P2"] != labels["P1"] == labels["P3"]


def test_bind_threshold_outside_scale(sample_dataset):
    spec = ConstraintSpec(feasibility_threshold=11)
    report = bind_and_validate(sample_dataset, spec)
    assert any("outside rating scale" in msg for _, msg in report.errors)


def test_feasible_scan_matches_fixture(sample_dataset, sample_spec):
    feasible = [
        cid
        for cid, constraints_rating in zip(
            sample_dataset.ids(), sample_dataset.constraints_ratings.tolist()
        )
        if constraints_rating >= sample_spec.feasibility_threshold
    ]
    assert feasible == FEASIBLE_AT_6
