"""One owner for each spec and k rule, checked against the reference.

``tests/helpers.py`` keeps the parser that checked the sign of k and the
cluster sizes, and each rule's op and min_count, itself, and the command
line's own k checks. Here the split parser (types in the parser, domains in
the dataclasses, k against n in ``bind_and_validate``) must accept the same
specs, build equal ones, and give the same (message, locator) for a spec
with one fault, apart from the texts that moved with those checks. A
seeded run of every subcommand on generated files checks that the command
line always ends in a documented exit code.
"""

import contextlib
import io
import json
import random

import pytest

from cbceval.cli import main
from cbceval.errors import ParseError
from cbceval.ingest import bind_and_validate, parse_constraint_spec, serialize_dataset
from cbceval.model import COMPARATORS

from helpers import random_dataset, reference_fixed_k, reference_parse_constraint_spec

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

USER = {
    "parallel_instances": 1,
    "max_instances": 2,
    "total_work": 10,
    "min_workload_per_instance": 1,
    "budget_per_instance": 5,
    "deadline": 3,
    "budget_class": "low",
}
NAMES = ("a", "b", "c")
NOT_A_NUMBER = ("x", True, None, [1], float("nan"), float("inf"))


def pairs(pool):
    return st.lists(
        st.lists(st.sampled_from(pool), min_size=2, max_size=2, unique=True), max_size=3
    )


RULE = st.fixed_dictionaries(
    {
        "attribute": st.sampled_from(NAMES),
        "op": st.sampled_from(COMPARATORS),
        "threshold": st.one_of(st.integers(1, 10), st.floats(1, 10)),
        "min_count": st.integers(0, 5),
    }
)

# Each field of a valid spec; link pools are disjoint, so no pair is both.
VALID = {
    "must_link": pairs(("m0", "m1", "m2", "m3")),
    "cannot_link": pairs(("x0", "x1", "x2", "x3")),
    "distance_weights": st.dictionaries(st.sampled_from(NAMES), st.floats(0, 5), max_size=3),
    "k": st.integers(1, 12),
    "min_cluster_size": st.integers(0, 3),
    "max_cluster_size": st.integers(3, 10),
    "existential": st.lists(RULE, max_size=3),
    "feasibility_threshold": st.floats(-5, 15),
    "user_spec": st.fixed_dictionaries(
        {key: st.just(value) for key, value in USER.items()},
        optional={
            "task_length": st.floats(0, 100),
            "budget_confidence": st.floats(0, 1),
            "spot_bid": st.integers(0, 9),
        },
    ),
}


def _rule(draw, spec):
    """A rule of ``spec`` to break, added if it has none: (rules, index)."""
    rules = spec.get("existential")
    if not isinstance(rules, list) or not all(isinstance(r, dict) for r in rules) or not rules:
        rules = spec["existential"] = [draw(RULE)]
    return rules, draw(st.integers(0, len(rules) - 1))


def _user(spec):
    if not isinstance(spec.get("user_spec"), dict):
        spec["user_spec"] = dict(USER)
    return spec["user_spec"]


def _links(spec, key):
    if not isinstance(spec.get(key), list):
        spec[key] = []
    return spec[key]


def _set_rule(draw, spec, key, value):
    rules, i = _rule(draw, spec)
    rules[i][key] = value
    return i


# Faults whose text moved: each breaks one rule of a spec in place and
# returns the (message, locator) that the split parser gives for it.
def k_sign(draw, spec):
    k = spec["k"] = draw(st.integers(-3, -1))
    return f"k must be at least 1, got {k}", None


def size_sign(draw, spec):
    key = draw(st.sampled_from(("min_cluster_size", "max_cluster_size")))
    value = spec[key] = draw(st.integers(-3, -1))
    return f"{key} must be nonnegative, got {value}", None


def rule_min_count_sign(draw, spec):
    value = draw(st.integers(-3, -1))
    i = _set_rule(draw, spec, "min_count", value)
    return f"min_count must be nonnegative, got {value}", f"existential[{i}]"


MOVED = {"k_sign": k_sign, "size_sign": size_sign, "rule_min_count_sign": rule_min_count_sign}
# Faults whose text stays: each breaks one rule of a spec in place.
FAULTS = {
    "k_zero": lambda draw, spec: spec.update(k=0),
    "k_type": lambda draw, spec: spec.update(k=draw(st.sampled_from((True, 2.5, "3", [1])))),
    "size_type": lambda draw, spec: spec.update(
        min_cluster_size=draw(st.sampled_from((1.5, "2", False)))
    ),
    "min_above_max": lambda draw, spec: spec.update(min_cluster_size=5, max_cluster_size=4),
    "self_pair": lambda draw, spec: _links(spec, "must_link").append(["m0", "m0"]),
    "both_links": lambda draw, spec: (
        _links(spec, "must_link").append(["m1", "m2"]),
        _links(spec, "cannot_link").append(["m2", "m1"]),
    ),
    "bad_pair": lambda draw, spec: _links(spec, "cannot_link").append(
        draw(st.sampled_from((["x0"], ["x0", 1], "x0", ["", "x1"], ["x0", "x1", "x2"])))
    ),
    "links_type": lambda draw, spec: spec.update(must_link=draw(st.sampled_from(("ab", 3, {})))),
    "weight_negative": lambda draw, spec: spec.update(distance_weights={"a": -1, "b": 1}),
    "weight_type": lambda draw, spec: spec.update(
        distance_weights={"b": draw(st.sampled_from(NOT_A_NUMBER))}
    ),
    "weights_type": lambda draw, spec: spec.update(distance_weights=[1]),
    "rule_op": lambda draw, spec: _set_rule(
        draw, spec, "op", draw(st.sampled_from(("=>", "", "=", 3, None, [">="], ">" * 60)))
    ),
    "rule_min_count_type": lambda draw, spec: _set_rule(
        draw, spec, "min_count", draw(st.sampled_from((1.5, True, "1")))
    ),
    "rule_threshold": lambda draw, spec: _set_rule(
        draw, spec, "threshold", draw(st.sampled_from(NOT_A_NUMBER))
    ),
    "rule_attribute": lambda draw, spec: _set_rule(
        draw, spec, "attribute", draw(st.sampled_from(("", 3, None)))
    ),
    "rule_missing_key": lambda draw, spec: _rule(draw, spec)[0][-1].pop(
        draw(st.sampled_from(("attribute", "op", "threshold", "min_count"))), None
    ),
    "rule_extra_key": lambda draw, spec: _set_rule(draw, spec, "extra", 1),
    "rule_not_object": lambda draw, spec: spec.update(existential=[draw(RULE), 3]),
    "rules_type": lambda draw, spec: spec.update(existential={}),
    "threshold_type": lambda draw, spec: spec.update(
        feasibility_threshold=draw(st.sampled_from(NOT_A_NUMBER))
    ),
    "user_domain": lambda draw, spec: _user(spec).update(
        draw(
            st.sampled_from(
                (
                    {"parallel_instances": 3, "max_instances": 2},
                    {"total_work": -1},
                    {"deadline": -0.5},
                    {"budget_confidence": 1.5},
                    {"budget_class": "huge"},
                )
            )
        )
    ),
    "user_type": lambda draw, spec: _user(spec).update(
        draw(st.sampled_from(({"total_work": "x"}, {"budget_class": 3}, {"max_instances": 2.5})))
    ),
    "user_missing_key": lambda draw, spec: _user(spec).pop("deadline", None),
    "user_type_object": lambda draw, spec: spec.update(user_spec=[1]),
    "unknown_key": lambda draw, spec: spec.update(surprise=1),
}
# Faults of the whole text, put in after every other one.
TEXT_FAULTS = {
    "not_an_object": lambda text: f"[{text}]",
    "bad_json": lambda text: text + "}",
}
ALL_FAULTS = [*MOVED, *FAULTS, *TEXT_FAULTS]


@st.composite
def specs(draw, faults=None):
    """A spec text and its faults, ``faults`` or none, one or several
    drawn, and the (message, locator) a moved fault gives now."""
    spec = {key: draw(value) for key, value in VALID.items() if draw(st.booleans())}
    if faults is None:
        faults = draw(st.lists(st.sampled_from(ALL_FAULTS), max_size=3))
    moved = None
    for name in faults:
        if name in MOVED:
            moved = MOVED[name](draw, spec)
        elif name in FAULTS:
            FAULTS[name](draw, spec)
    text = json.dumps(spec)
    for name in faults:
        if name in TEXT_FAULTS:
            text = TEXT_FAULTS[name](text)
    return text, faults, moved


def outcome(parse, text):
    try:
        return parse(text), None
    except ParseError as exc:
        return None, (str(exc), exc.locator)


def check_against_reference(text, faults, moved):
    spec, error = outcome(parse_constraint_spec, text)
    reference, reference_error = outcome(reference_parse_constraint_spec, text)
    assert (error is None) == (reference_error is None) == (not faults), (text, error)
    assert spec == reference
    if len(faults) != 1:
        return
    if moved is None:
        assert error == reference_error
    else:
        # The sign of k and of a cluster size is ConstraintSpec's rule now,
        # and a rule's min_count is ExistentialRule's, located at the rule.
        message, locator = moved
        assert error == (f"{locator}: {message}" if locator else message, locator)


PROPERTY = settings(
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@settings(PROPERTY, max_examples=300)
@given(specs())
def test_split_parser_matches_the_reference(drawn):
    check_against_reference(*drawn)


@pytest.mark.parametrize("fault", ALL_FAULTS)
@settings(PROPERTY, max_examples=12)
@given(data=st.data())
def test_each_fault_alone_matches_the_reference(fault, data):
    check_against_reference(*data.draw(specs([fault])))


# --- the command line's k ------------------------------------------------------

N = 6
K_VALUES = [None, *range(-2, N + 3)]


def reference_stage(dataset, spec_k, args_k):
    """Where the reference command line (the reference parser, the bind of
    the spec alone, then ``reference_fixed_k``) stops on these inputs, and
    with what text, as ``(stage, text)``; None where it proceeds."""
    text = json.dumps({} if spec_k is None else {"k": spec_k})
    try:
        spec = reference_parse_constraint_spec(text)
    except ParseError as exc:
        return "parse", str(exc)
    report = bind_and_validate(dataset, spec)
    if not report.ok:
        return "bind", report.summary()
    try:
        reference_fixed_k(args_k, dataset, spec)
    except ParseError as exc:
        return "fixed_k", str(exc)
    return None


def expected_error(dataset, spec_k, args_k):
    """The reference's text, moved where the k checks moved: a spec k below
    1 is ConstraintSpec's text, and --k is bound by ``bind_and_validate``
    under the locator ``k``, as a spec k is."""
    stage = reference_stage(dataset, spec_k, args_k)
    if stage is None:
        return None
    where, text = stage
    conflict = f"--k {args_k} conflicts with k={spec_k} in the constraint spec"
    if where == "parse" and text == "k: must be nonnegative":
        return f"k must be at least 1, got {spec_k}"
    if where == "bind" and args_k is not None and args_k != spec_k:
        # Two faults, a spec k above n and a --k that differs: the
        # conflict is checked before the bind now.
        return conflict
    if where == "fixed_k" and text != conflict:
        return f"k: {text}"
    return text


@pytest.mark.parametrize("spec_k", K_VALUES)
def test_every_subcommand_bounds_k_alike(tmp_path, capsys, spec_k):
    dataset = random_dataset(random.Random(5), N, 2)
    data = tmp_path / "data.csv"
    data.write_text(serialize_dataset(dataset), encoding="utf-8")
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps({"feasibility_threshold": 1, **({} if spec_k is None else {"k": spec_k})}),
        encoding="utf-8",
    )
    base = ["--data", str(data)]
    with_spec = [*base, "--constraints", str(spec)]
    for args_k in K_VALUES:
        k = [] if args_k is None else ["--k", str(args_k)]
        runs = [["check", *with_spec, *k], ["evaluate", *with_spec, *k]]
        if args_k is not None:  # --k is required by verify and cluster
            runs.append(["verify", *with_spec, *k, "--restarts", "1"])
            if spec_k is None:
                runs.append(["cluster", *base, *k, "--seed", "0"])
        expected = expected_error(dataset, spec_k, args_k)
        for argv in runs:
            code = main(argv)
            captured = capsys.readouterr()
            if expected is None:
                assert code != 1, (argv, captured.err)
                assert "error" not in captured.err
            else:
                assert (code, captured.out) == (1, ""), argv
                assert captured.err == f"error: {expected}\n", argv


# --- every subcommand on generated files --------------------------------------


def random_csv(rng: random.Random, n: int, names: list[str]) -> str:
    """A dataset CSV over ``names``, with one fault in about a tenth."""
    header = ["id", *names]
    header.insert(rng.randint(1, len(header)), "constraints")
    rows = [header] + [
        [f"r{i:02d}", *(str(rng.choice((rng.randint(1, 10), 5.25))) for _ in names)]
        + [str(rng.randint(1, 10))]
        for i in range(n)
    ]
    if n and rng.random() < 0.1:
        row = rows[rng.randint(1, n)]
        fault = rng.randrange(6)
        if fault == 0:
            row[rng.randrange(1, len(row))] = rng.choice(("x", "11", "0", "nan", "", "1e400"))
        elif fault == 1:
            row.pop()
        elif fault == 2:
            row[0] = rows[1][0]
        elif fault == 3:
            row[0] = rng.choice(("", " ", '"q,uoted"'))
        elif fault == 4:
            rows.insert(rng.randint(1, n), [])
        else:
            rows[0] = rows[0][::-1]
    text = "".join(",".join(row) + "\n" for row in rows)
    return rng.choice(("", "\ufeff")) + (text.replace("\n", "\r\n") if rng.random() < 0.2 else text)


def random_spec(rng: random.Random, ids: list[str], names: list[str], n: int) -> dict:
    """A spec over ``ids`` and ``names``; now and then a field names an
    unknown id or attribute, holds a value out of its domain or of the
    wrong type."""
    rare = lambda: rng.random() < 0.05  # noqa: E731
    pool = [*ids, "zz"] if rare() else ids
    attrs = [*names, "nosuch"] if rare() else names
    spec = {}
    for key in ("must_link", "cannot_link"):
        if len(pool) > 1 and rng.random() < 0.3:
            spec[key] = [rng.sample(pool, 2) for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.3:
        spec["distance_weights"] = {rng.choice(attrs): rng.choice((0, 0.5, 3)) for _ in "ab"}
    if rng.random() < 0.15:
        spec["k"] = rng.randint(-1, n + 2) if rare() else rng.randint(1, max(n, 1))
    if rng.random() < 0.2:
        spec["min_cluster_size"] = rng.randint(-1, n) if rare() else rng.randint(0, 2)
    if rng.random() < 0.2:
        spec["max_cluster_size"] = rng.randint(-1, n) if rare() else rng.randint(n // 2, n + 1)
    if rng.random() < 0.4:
        spec["existential"] = [
            {
                "attribute": rng.choice(attrs),
                "op": rng.choice(COMPARATORS),
                "threshold": rng.randint(1, 10),
                "min_count": rng.randint(-1, 3) if rare() else rng.randint(0, 3),
            }
            for _ in range(rng.randint(1, 2))
        ]
    if rng.random() < 0.7:
        spec["feasibility_threshold"] = 11 if rare() else rng.choice((1, 3, 5.5, 8, 10))
    if rng.random() < 0.2:
        spec["user_spec"] = {**USER, "budget_per_instance": rng.randint(1, 10)}
    if rare():
        spec[rng.choice(sorted(spec) or ["k"])] = rng.choice(("x", -1.5, None, [], {}))
    return spec


def random_argv(rng: random.Random, tmp_path, n: int, names: list[str], run: int) -> list[str]:
    """One subcommand's arguments, over generated CSV, spec and weights
    files written to ``tmp_path``."""
    rare = lambda: rng.random() < 0.05  # noqa: E731
    ids = [f"r{i:02d}" for i in range(n)]
    data = tmp_path / f"data{run}.csv"
    data.write_text(random_csv(rng, n, names), encoding="utf-8")
    raw_spec = random_spec(rng, ids, names, n)
    spec = tmp_path / f"spec{run}.json"
    spec.write_text(json.dumps(raw_spec), encoding="utf-8")
    weights = tmp_path / f"weights{run}.json"
    choices = (-1, 0, "x", 1) if rare() else (0, 0.5, 1, 2.5)
    weights.write_text(
        json.dumps({rng.choice([*names, "nosuch"] if rare() else names): rng.choice(choices)}),
        encoding="utf-8",
    )
    command = rng.choice(("cluster", "evaluate", "check", "verify"))
    argv = [command, "--data", str(data)]
    constrained = command in ("evaluate", "check") or (command == "verify" and rng.random() < 0.7)
    if constrained:
        argv += ["--constraints", str(spec)]
    if command in ("cluster", "verify") or rng.random() < 0.5:
        k = raw_spec.get("k") if constrained and not rare() else None
        if not isinstance(k, int):
            k = rng.randint(-1, n + 1) if rare() else rng.randint(1, max(n, 1))
        argv += ["--k", str(k)]
    if command != "check":
        argv += ["--seed", str(rng.randint(0, 99))]
    if command in ("cluster", "verify"):
        argv += ["--restarts", str(rng.randint(1, 3))]
    if command in ("cluster", "evaluate") and rng.random() < 0.4:
        argv += ["--weights", str(weights)]
    return argv


def test_every_subcommand_ends_in_a_documented_exit_code(tmp_path):
    rng = random.Random(2024)
    codes = []
    for run in range(240):
        n = rng.choice((0, *range(1, 13), *range(4, 13)))
        names = [f"a{j}" for j in range(rng.randint(1, 3))]
        argv = random_argv(rng, tmp_path, n, names, run)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # a usage error, which argparse ends
                code = exc.code
        assert code in range(6), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        codes.append(code)
    # The inputs reach success, input errors and deadlocks alike.
    assert {0, 1, 2} <= set(codes), sorted(set(codes))
