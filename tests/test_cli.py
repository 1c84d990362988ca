import json
import random
import re

import pytest

from cbceval.cbc import CBCConfig, run_pipeline
from cbceval.cli import main
from cbceval.ingest import serialize_dataset
from cbceval.kmeans import KMeansConfig
from cbceval.model import ConstraintSpec, DeadlockCause, DeadlockReport

from helpers import FEASIBLE_AT_6, random_dataset


def run_cli(*argv):
    return main(list(argv))


def test_cluster_sample(sample_paths, capsys):
    data, _ = sample_paths
    code = run_cli("cluster", "--data", str(data), "--k", "3", "--seed", "42")
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 3
    assert len(payload["assignment"]) == 10
    assert len(payload["centroids"]) == 3


def test_cluster_missing_file(tmp_path, capsys):
    code = run_cli("cluster", "--data", str(tmp_path / "missing.csv"), "--k", "2", "--seed", "1")
    err = capsys.readouterr().err
    assert code == 1
    assert "cannot read" in err


def test_cluster_k_too_large(sample_paths, capsys):
    data, _ = sample_paths
    code = run_cli("cluster", "--data", str(data), "--k", "11", "--seed", "1")
    err = capsys.readouterr().err
    assert code == 1
    assert "k exceeds candidate count" in err


def test_cluster_byte_determinism(sample_paths, tmp_path):
    data, _ = sample_paths
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli("cluster", "--data", str(data), "--k", "3", "--seed", "7", "--out", str(out1)) == 0
    assert run_cli("cluster", "--data", str(data), "--k", "3", "--seed", "7", "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ("evaluate", "--k", "3", "--seed", "42"),
        ("cluster", "--k", "3", "--seed", "1"),
        ("check",),
    ],
    ids=lambda argv: argv[0],
)
def test_json_outputs_are_fixpoints_of_the_stdlib_dump(argv, sample_paths, capsys):
    # Every command's JSON is exactly what json.dumps(indent=2) writes for it.
    data, constraints = sample_paths
    inputs = ["--data", str(data)] + (["--constraints", str(constraints)] if argv[0] != "cluster" else [])
    assert run_cli(argv[0], *inputs, *argv[1:]) == 0
    text = capsys.readouterr().out
    assert json.dumps(json.loads(text), indent=2) + "\n" == text


def test_evaluate_sample(sample_paths, capsys):
    data, constraints = sample_paths
    code = run_cli(
        "evaluate", "--data", str(data), "--constraints", str(constraints),
        "--k", "3", "--seed", "42",
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert [r["id"] for r in payload["ranking"]][0] == "T103"
    assert len(payload["ranking"]) == 6
    assert {r["id"] for r in payload["ranking"]} == set(FEASIBLE_AT_6)


def test_evaluate_deadlock_exit_code(sample_paths, tmp_path, capsys):
    data, _ = sample_paths
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"feasibility_threshold": 6, "min_cluster_size": 4}),
        encoding="utf-8",
    )
    out = tmp_path / "report.json"
    code = run_cli(
        "evaluate", "--data", str(data), "--constraints", str(bad),
        "--k", "3", "--seed", "1", "--out", str(out),
    )
    assert code == 2
    payload = json.loads(out.read_text())
    assert payload["deadlock"]["deadlocked"] is True
    assert payload["deadlock"]["causes"][0]["kind"] == "size-arithmetic"
    assert "ranking" not in payload


def test_evaluate_unreadable_constraints(sample_paths, tmp_path, capsys):
    data, _ = sample_paths
    code = run_cli(
        "evaluate", "--data", str(data),
        "--constraints", str(tmp_path / "nope.json"), "--seed", "1",
    )
    assert code == 1


def test_evaluate_byte_determinism_modulo_timestamp(sample_paths, tmp_path):
    data, constraints = sample_paths
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        code = run_cli(
            "evaluate", "--data", str(data), "--constraints", str(constraints),
            "--seed", "42", "--out", str(out),
        )
        assert code == 0

    def neutralize(text):
        return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "-"', text)

    assert neutralize(out1.read_text()) == neutralize(out2.read_text())


def test_evaluate_k_conflict_with_spec(sample_paths, tmp_path, capsys):
    data, _ = sample_paths
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"feasibility_threshold": 6, "k": 2}), encoding="utf-8")
    code = run_cli(
        "evaluate", "--data", str(data), "--constraints", str(spec),
        "--k", "3", "--seed", "1",
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "conflicts" in err


def test_evaluate_assignment_deadlock_exit(sample_paths, tmp_path, capsys):
    # Feasible spec (bind check passes) on which the greedy component order
    # finds no slot at seed 0: T100/T101 fill one cluster, then the
    # cannot-linked pair T102/T103 cannot share the other.
    data, _ = sample_paths
    rows = [line for line in data.read_text().splitlines() if not line.startswith(("T104", "T105", "T106", "T107", "T108", "T109"))]
    small = tmp_path / "four.csv"
    small.write_text("\n".join(rows) + "\n", encoding="utf-8")
    spec = tmp_path / "tight.json"
    spec.write_text(
        json.dumps(
            {
                "feasibility_threshold": 1,
                "max_cluster_size": 2,
                "cannot_link": [["T102", "T103"]],
            }
        ),
        encoding="utf-8",
    )
    code = run_cli(
        "evaluate", "--data", str(small), "--constraints", str(spec),
        "--k", "2", "--seed", "0",
    )
    err = capsys.readouterr().err
    assert code == 3
    assert "deadlock" in err


def test_packing_proof_aborts_with_exit_2(tmp_path, capsys):
    # Six 3-row must-link chains among 25 rows, at most 5 rows a cluster,
    # k = 5: no cluster takes two chains, so six chains need six clusters.
    # Every quick rule passes (25 <= 5 * 5, no chain over 5); the packing
    # search proves the deadlock at bind time instead of the greedy pass
    # failing (exit 3).
    dataset = random_dataset(random.Random(25), 25, 2)
    ids = dataset.ids()
    chains = [(ids[3 * c + i], ids[3 * c + i + 1]) for c in range(6) for i in range(2)]
    raw = {"feasibility_threshold": 1, "must_link": chains, "max_cluster_size": 5}
    result = run_pipeline(
        dataset, ConstraintSpec(**raw), CBCConfig(kmeans=KMeansConfig(k=5, seed=1))
    )
    assert result.aborted
    assert [c.kind for c in result.deadlock.causes] == ["size-arithmetic"]
    assert result.deadlock.causes[0].detail.startswith("no assignment of the 13 must-link")
    data, spec = tmp_path / "chains.csv", tmp_path / "chains.json"
    data.write_text(serialize_dataset(dataset), encoding="utf-8")
    spec.write_text(json.dumps(raw), encoding="utf-8")
    code = run_cli(
        "evaluate", "--data", str(data), "--constraints", str(spec), "--k", "5", "--seed", "1"
    )
    assert code == 2
    assert json.loads(capsys.readouterr().out)["deadlock"]["causes"][0]["kind"] == "size-arithmetic"


@pytest.mark.parametrize(
    "spec, k, message",
    [
        ({"max_cluster_size": 4}, "-2", "k: k must be at least 1, got -2"),
        ({"max_cluster_size": 4}, "50", "k: k exceeds candidate count"),
        ({"k": 2}, "3", "--k 3 conflicts with k=2 in the constraint spec"),
    ],
    ids=["negative", "above-n", "spec-conflict"],
)
def test_check_and_verify_validate_k_like_evaluate(sample_paths, tmp_path, capsys, spec, k, message):
    data, _ = sample_paths
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"feasibility_threshold": 6, **spec}), encoding="utf-8")
    for command in ("check", "verify", "evaluate"):
        code = run_cli(command, "--data", str(data), "--constraints", str(path), "--k", k)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"error: {message}" in captured.err


def test_check_sample(sample_paths, capsys):
    data, constraints = sample_paths
    code = run_cli("check", "--data", str(data), "--constraints", str(constraints))
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["deadlocked"] is False
    assert payload["causes"] == []


def test_check_without_k_skips_the_size_rules(sample_paths, tmp_path, capsys):
    data, _ = sample_paths
    spec = tmp_path / "max4.json"
    spec.write_text('{"max_cluster_size": 4}', encoding="utf-8")
    code = run_cli("check", "--data", str(data), "--constraints", str(spec))
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["deadlocked"] is False
    assert payload["warnings"] == ["cluster count unknown; size and coloring rules skipped"]


def test_check_conflict(sample_paths, tmp_path, capsys):
    data, _ = sample_paths
    spec = tmp_path / "conflict.json"
    spec.write_text(
        json.dumps(
            {
                "feasibility_threshold": 6,
                "must_link": [["T100", "T101"], ["T101", "T102"]],
                "cannot_link": [["T100", "T102"]],
            }
        ),
        encoding="utf-8",
    )
    code = run_cli("check", "--data", str(data), "--constraints", str(spec), "--k", "3")
    out = capsys.readouterr().out
    assert code == 2
    payload = json.loads(out)
    assert payload["deadlocked"] is True
    conflict = next(c for c in payload["causes"] if c["kind"] == "link-conflict")
    assert conflict["witness"]["path"] == ["T100", "T101", "T102"]


def test_check_unknown_id(sample_paths, tmp_path, capsys):
    data, _ = sample_paths
    spec = tmp_path / "unknown.json"
    spec.write_text(
        json.dumps({"feasibility_threshold": 6, "must_link": [["T100", "T999"]]}),
        encoding="utf-8",
    )
    code = run_cli("check", "--data", str(data), "--constraints", str(spec))
    err = capsys.readouterr().err
    assert code == 1
    assert "unknown id T999" in err


def test_long_link_id_is_cut_in_errors(sample_paths, tmp_path, capsys):
    data, _ = sample_paths
    spec = tmp_path / "long-id.json"
    spec.write_text(json.dumps({"must_link": [["b" * 100_000, "T100"]]}), encoding="utf-8")
    code = run_cli("check", "--data", str(data), "--constraints", str(spec))
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: must_link[0]: unknown id {'b' * 40}... (100000 characters)\n"


def test_check_rejects_all_zero_spec_weights(sample_paths, tmp_path, capsys):
    data, _ = sample_paths
    names = ("reusability", "customizability", "scalability", "availability",
             "data_management", "pay_per_use")
    spec = tmp_path / "zero.json"
    spec.write_text(json.dumps({"distance_weights": {n: 0 for n in names}}), encoding="utf-8")
    code = run_cli("check", "--data", str(data), "--constraints", str(spec))
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: distance_weights: weights need at least one positive entry\n"


def test_check_accepts_partial_zero_spec_weights(sample_paths, tmp_path, capsys):
    data, _ = sample_paths
    spec = tmp_path / "partial.json"
    spec.write_text(json.dumps({"distance_weights": {"reusability": 0}}), encoding="utf-8")
    assert run_cli("check", "--data", str(data), "--constraints", str(spec)) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["check", "evaluate"])
def test_bind_warnings_reach_stderr(sample_paths, tmp_path, capsys, command):
    data, _ = sample_paths
    spec = tmp_path / "vacuous.json"
    rule = {"attribute": "scalability", "op": ">=", "threshold": 9, "min_count": 0}
    spec.write_text(json.dumps({"existential": [rule]}), encoding="utf-8")
    extra = ("--k", "2") if command == "evaluate" else ()
    assert run_cli(command, "--data", str(data), "--constraints", str(spec), *extra) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: existential[0]: min_count 0 makes the rule vacuous\n"
    assert "vacuous" not in captured.out


def test_verify_sample_within_gap(sample_paths, capsys):
    data, _ = sample_paths
    code = run_cli("verify", "--data", str(data), "--k", "2", "--seed", "0")
    out = capsys.readouterr().out
    assert code == 0
    gap_line = next(line for line in out.splitlines() if line.startswith("gap"))
    gap = float(gap_line.split()[-1].rstrip("%"))
    assert gap <= 5.0
    assert "PASS engine-not-below-oracle" in out


def test_verify_with_constraints_agreement(sample_paths, capsys):
    data, constraints = sample_paths
    code = run_cli(
        "verify", "--data", str(data), "--constraints", str(constraints), "--k", "2",
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "feasibility" in out


def test_verify_capacity_guard(tmp_path, capsys, monkeypatch):
    import cbceval.cli as cli_module

    def never(*args, **kwargs):
        raise AssertionError("the engine ran on an input over the oracle's capacity")

    monkeypatch.setattr(cli_module, "run_kmeans", never)
    rows = ["id," + ",".join(f"f{i}" for i in range(3)) + ",constraints"]
    rows += [f"C{i},5,5,5,5" for i in range(13)]
    big = tmp_path / "big.csv"
    big.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code = run_cli("verify", "--data", str(big), "--k", "2")
    err = capsys.readouterr().err
    assert code == 4
    assert "capacity" in err.lower()


def test_verify_notes_a_greedy_assignment_deadlock(tmp_path, capsys):
    # The greedy pass ends with a one-row cluster, below min_cluster_size 2,
    # though the oracle finds an assignment: a note, not a violation. This
    # is the smallest known case of a greedy exit 3 on a satisfiable spec.
    data, spec = tmp_path / "five.csv", tmp_path / "min2.json"
    data.write_text("id,a,b,constraints\nr0,10,1,9\nr1,1,2,9\nr2,1,10,9\nr3,1,2,9\nr4,1,2,9\n", encoding="utf-8")
    spec.write_text('{"min_cluster_size": 2}', encoding="utf-8")
    code = run_cli("verify", "--data", str(data), "--constraints", str(spec), "--k", "2", "--seed", "0")
    assert code == 0
    assert capsys.readouterr().out == (
        "engine SSE:   assignment-deadlock\n"
        "oracle SSE:   1\n"
        "feasibility:  engine=no-deadlock oracle=feasible agree=yes\n"
        "note:         greedy assignment found no slot though a solution exists "
        "(known greedy limitation, not a violation)\n"
        "PASS feasibility-agreement: engine feasible, oracle feasible (witness found by exact search over 5 components)\n"
    )


def test_verify_bind_deadlock_and_infeasible_oracle(sample_paths, tmp_path, capsys):
    data, _ = sample_paths
    spec = tmp_path / "max2.json"
    spec.write_text('{"max_cluster_size": 2}', encoding="utf-8")
    code = run_cli("verify", "--data", str(data), "--constraints", str(spec), "--k", "2")
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[:2] == ["engine SSE:   bind-deadlock", "oracle SSE:   infeasible"]


def test_verify_runs_the_constrained_engine_on_links(sample_paths, tmp_path, capsys):
    data, _ = sample_paths
    spec = tmp_path / "links.json"
    spec.write_text(
        json.dumps({"must_link": [["T100", "T101"], ["T102", "T103"]], "cannot_link": [["T100", "T104"]]}),
        encoding="utf-8",
    )
    code = run_cli("verify", "--data", str(data), "--constraints", str(spec), "--k", "2")
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert "engine SSE:   0.868900646678" in out
    assert "gap:          0.19%" in out
    assert [line.split(":")[0] for line in out if line.startswith(("PASS", "FAIL"))] == [
        "PASS sse-recompute",
        "PASS engine-not-below-oracle",
        "PASS feasibility-agreement",
    ]


def test_verify_fails_an_engine_beyond_an_infeasible_oracle(sample_paths, capsys, monkeypatch):
    import cbceval.cli as cli_module

    monkeypatch.setattr(cli_module, "brute_force_min_sse", lambda *a, **kw: None)
    data, _ = sample_paths
    code = run_cli("verify", "--data", str(data), "--k", "2")
    out = capsys.readouterr().out
    assert code == 5
    assert "FAIL engine-not-beyond-oracle" in out


def test_verify_detects_injected_disagreement(sample_paths, capsys, monkeypatch):
    import cbceval.cli as cli_module

    fake = DeadlockReport(
        causes=(DeadlockCause(kind="empty-feasible-set", detail="injected fault"),),
    )
    monkeypatch.setattr(cli_module, "detect_deadlock", lambda *a, **kw: fake)
    data, constraints = sample_paths
    code = run_cli(
        "verify", "--data", str(data), "--constraints", str(constraints), "--k", "2",
    )
    out = capsys.readouterr().out
    assert code == 5
    assert "FAIL feasibility-agreement" in out


@pytest.mark.parametrize("k", [2, 3, 4])
def test_verify_slack_scales_with_the_distance_weights(sample_paths, tmp_path, capsys, monkeypatch, k):
    # At weights 1e12 the engine finds the optimum, but engine and oracle add
    # up its SSE in different orders, so the two differ by up to about 1e-3:
    # far above an absolute 1e-9, about 1e-17 of n * sum(w) = 6e13, which
    # sets the slack (1e-12 of it, 60 here).
    import cbceval.cli as cli_module

    data, _ = sample_paths
    names = data.read_text(encoding="utf-8").splitlines()[0].split(",")[1:-1]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"distance_weights": dict.fromkeys(names, 1e12)}), encoding="utf-8")
    argv = ("verify", "--data", str(data), "--constraints", str(spec), "--k", str(k))
    oracle, found = cli_module.brute_force_min_sse, []

    def recorded(*args):
        found.append(oracle(*args))
        return found[-1]

    monkeypatch.setattr(cli_module, "brute_force_min_sse", recorded)
    assert run_cli(*argv) == 0
    assert "PASS engine-not-below-oracle" in capsys.readouterr().out
    # An engine SSE truly below the oracle's is still a violation.
    [(clustering, best)] = found
    for raised, code in ((59.0, 0), (61.0, 5)):
        monkeypatch.setattr(cli_module, "brute_force_min_sse", lambda *a: (clustering, best + raised))
        assert run_cli(*argv) == code
        assert ("FAIL engine-not-below-oracle" in capsys.readouterr().out) == (code == 5)


def test_cluster_with_weights_file(sample_paths, tmp_path, capsys):
    data, _ = sample_paths
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"pay_per_use": 3.0}), encoding="utf-8")
    code = run_cli(
        "cluster", "--data", str(data), "--k", "2", "--seed", "1",
        "--weights", str(weights),
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["k"] == 2

    bad = tmp_path / "bad_weights.json"
    bad.write_text(json.dumps({"pay_per_use": "heavy"}), encoding="utf-8")
    code = run_cli(
        "cluster", "--data", str(data), "--k", "2", "--seed", "1",
        "--weights", str(bad),
    )
    assert code == 1


def test_evaluate_rejects_weights_before_clustering(sample_paths, tmp_path, capsys, monkeypatch):
    from cbceval import cli

    def never(*args, **kwargs):
        raise AssertionError("ran before the weights were checked")

    monkeypatch.setattr(cli, "choose_k", never)
    monkeypatch.setattr(cli, "run_pipeline", never)
    data, constraints = sample_paths
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"nosuch": 1}), encoding="utf-8")
    code = run_cli(
        "evaluate", "--data", str(data), "--constraints", str(constraints),
        "--weights", str(weights),
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: {weights}: unknown attribute 'nosuch' in weights\n"


@pytest.mark.parametrize("value", ["x", 1])
def test_long_weights_key_is_cut_in_errors(sample_paths, tmp_path, capsys, value):
    # A key with a bad number fails in the locator, one with a good number
    # as an unknown attribute; neither echoes the key whole.
    data, constraints = sample_paths
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"a" * 100_000: value}), encoding="utf-8")
    code = run_cli(
        "evaluate", "--data", str(data), "--constraints", str(constraints),
        "--k", "3", "--weights", str(weights),
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "a" * 39 + "... (1000" in err
    assert len(err.encode()) < 300


def test_long_attribute_name_is_cut_in_weight_errors(tmp_path, capsys):
    name = "a" * 100_000
    data, spec, weights = tmp_path / "long.csv", tmp_path / "spec.json", tmp_path / "weights.json"
    data.write_text(f"id,{name},constraints\nx,5,5\ny,6,6\n", encoding="utf-8")
    spec.write_text("{}", encoding="utf-8")
    weights.write_text(json.dumps({name: -1}), encoding="utf-8")
    code = run_cli(
        "evaluate", "--data", str(data), "--constraints", str(spec), "--k", "1",
        "--weights", str(weights),
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: {weights}: weight for {'a' * 40}... (100000 characters) is negative\n"


# JSON literals Python's json accepts that are not finite floats.
NON_FINITE = pytest.mark.parametrize(
    "literal",
    ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
    ids=["NaN", "Infinity", "-Infinity", "overflowing-int"],
)


@NON_FINITE
@pytest.mark.parametrize(
    "template, locator",
    [
        ('{"distance_weights": {"reusability": %s}}', "distance_weights.reusability"),
        ('{"feasibility_threshold": %s}', "feasibility_threshold"),
        (
            '{"existential": [{"attribute": "scalability", "op": ">=", '
            '"threshold": %s, "min_count": 1}]}',
            "existential[0].threshold",
        ),
    ],
)
def test_evaluate_rejects_non_finite_spec_numbers(sample_paths, tmp_path, capsys, literal, template, locator):
    data, _ = sample_paths
    spec = tmp_path / "spec.json"
    spec.write_text(template % literal, encoding="utf-8")
    code = run_cli(
        "evaluate", "--data", str(data), "--constraints", str(spec), "--k", "3",
    )
    err = capsys.readouterr().err
    assert code == 1
    assert f"{locator}: expected a finite number" in err


def test_integer_literal_over_digit_limit_is_input_error(sample_paths, tmp_path, capsys):
    # Python refuses to convert integer literals over 4300 digits and raises
    # a plain ValueError, not JSONDecodeError.
    data, constraints = sample_paths
    literal = "1" * 5000
    spec = tmp_path / "spec.json"
    spec.write_text('{"feasibility_threshold": %s}' % literal, encoding="utf-8")
    weights = tmp_path / "weights.json"
    weights.write_text('{"reusability": %s}' % literal, encoding="utf-8")
    assert run_cli("evaluate", "--data", str(data), "--constraints", str(spec), "--k", "3") == 1
    assert "invalid JSON" in capsys.readouterr().err
    code = run_cli(
        "evaluate", "--data", str(data), "--constraints", str(constraints), "--k", "3",
        "--weights", str(weights),
    )
    assert code == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_deeply_nested_json_is_input_error(sample_paths, tmp_path, capsys):
    # json.loads raises RecursionError, not ValueError, past its nesting limit.
    data, constraints = sample_paths
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000, encoding="utf-8")
    assert run_cli("check", "--data", str(data), "--constraints", str(deep)) == 1
    assert capsys.readouterr().err.startswith("error: invalid JSON: maximum recursion depth")
    code = run_cli(
        "evaluate", "--data", str(data), "--constraints", str(constraints), "--k", "3",
        "--weights", str(deep),
    )
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: invalid JSON in {deep}: maximum recursion")


def test_weights_whose_sum_overflows_are_input_error(sample_paths, tmp_path, capsys):
    # Each weight is finite but their sum is not, which made every score 0.0
    # (or NaN) in the report.
    data, constraints = sample_paths
    weights = tmp_path / "weights.json"
    weights.write_text('{"scalability": 1e308, "availability": 1e308}', encoding="utf-8")
    code = run_cli(
        "evaluate", "--data", str(data), "--constraints", str(constraints), "--k", "3",
        "--weights", str(weights),
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: {weights}: weights sum to more than the largest float\n"
    # As distance weights, a sum that ten candidates times overflows also
    # fails: it gave an infinite SSE and numpy overflow warnings.
    spec = tmp_path / "spec.json"
    for text, message in (
        ('{"scalability": 1e308, "availability": 1e308}', "weights sum to more than the largest float"),
        ('{"reusability": 1e308, "customizability": 7e307}', "weights times 10 candidates exceed the largest float"),
    ):
        weights.write_text(text, encoding="utf-8")
        spec.write_text('{"distance_weights": %s}' % text, encoding="utf-8")
        for argv, locator in (
            (("cluster", "--data", str(data), "--k", "3", "--seed", "1", "--weights", str(weights)), f"{weights}: "),
            (("evaluate", "--data", str(data), "--constraints", str(spec), "--k", "3"), "distance_weights: "),
            (("check", "--data", str(data), "--constraints", str(spec)), "distance_weights: "),
        ):
            assert run_cli(*argv) == 1
            assert capsys.readouterr() == ("", f"error: {locator}{message}\n")
    # Scoring weights keep the bound on their sum alone.
    code = run_cli(
        "evaluate", "--data", str(data), "--constraints", str(constraints), "--k", "3",
        "--weights", str(weights),
    )
    assert code == 0
    assert capsys.readouterr().err == ""


@NON_FINITE
@pytest.mark.parametrize("command", ["cluster", "evaluate"])
def test_weights_file_rejects_non_finite_numbers(sample_paths, tmp_path, capsys, literal, command):
    data, constraints = sample_paths
    weights = tmp_path / "weights.json"
    weights.write_text('{"scalability": 1, "reusability": %s}' % literal, encoding="utf-8")
    argv = ["--data", str(data), "--k", "3", "--weights", str(weights)]
    if command == "cluster":
        argv += ["--seed", "1"]
    else:
        argv += ["--constraints", str(constraints)]
    code = run_cli(command, *argv)
    err = capsys.readouterr().err
    assert code == 1
    assert f"{weights}:reusability: expected a finite number" in err


@pytest.mark.parametrize("flag", ["--data", "--constraints", "--weights"])
def test_non_utf8_input_is_input_error(sample_paths, tmp_path, capsys, flag):
    data, constraints = sample_paths
    paths = {"--data": data, "--constraints": constraints, "--weights": tmp_path / "weights.json"}
    paths["--weights"].write_text("{}", encoding="utf-8")
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b'{"reusability": 1, "caf\xe9": 2}')
    paths[flag] = bad
    argv = [part for name, path in paths.items() for part in (name, str(path))]
    code = run_cli("evaluate", *argv, "--k", "3")
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: cannot read {bad}: not UTF-8 (invalid continuation byte at byte offset 23)" in err


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
@pytest.mark.parametrize("command", ["cluster", "evaluate"])
def test_unwritable_out_is_input_error(sample_paths, tmp_path, capsys, command, target):
    data, constraints = sample_paths
    out = tmp_path / "no-such-dir" / "out.json" if target == "missing-dir" else tmp_path
    argv = ["--data", str(data), "--k", "3", "--seed", "1", "--out", str(out)]
    if command == "evaluate":
        argv += ["--constraints", str(constraints)]
    code = run_cli(command, *argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    reason = "No such file or directory" if target == "missing-dir" else "Is a directory"
    assert f"error: cannot write {out}: {reason}" in captured.err


def test_no_color_env(sample_paths, capsys, monkeypatch):
    monkeypatch.setenv("CBC_NO_COLOR", "1")
    data, _ = sample_paths
    code = run_cli("cluster", "--data", str(data), "--k", "11", "--seed", "1")
    err = capsys.readouterr().err
    assert code == 1
    assert "\x1b[" not in err


def test_help_per_command(capsys):
    for command in ("cluster", "evaluate", "check", "verify"):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--help")
        assert exc.value.code == 0
        assert command in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ("evaluate", "--data", "DATA"),
        ("cluster", "--data", "DATA", "--k", "x", "--seed", "1"),
        ("cluster", "--data", "DATA", "--k", "3", "--seed", "abc"),
        ("frobnicate",),
        (),
    ],
    ids=["missing-flag", "bad-k", "bad-seed", "unknown-command", "no-command"],
)
def test_usage_errors_exit_input_not_deadlock(sample_paths, capsys, argv):
    data, _ = sample_paths
    with pytest.raises(SystemExit) as exc:
        run_cli(*(str(data) if arg == "DATA" else arg for arg in argv))
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("usage: cbceval")
