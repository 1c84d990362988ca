"""Golden output bytes: sha256 of ``report_json`` at a fixed timestamp, and
of the ``cluster`` and ``check`` commands' JSON.

The report digests were recorded from the per-candidate implementation and
the command digests from the dict-based clustering record, so any change to
scoring, feasibility, refinement, clustering or serialization that moves a
single byte of output fails here.
"""

import hashlib
import json
import random

import pytest

from cbceval.cbc import CBCConfig, run_pipeline
from cbceval.cli import main
from cbceval.evaluate import rank, report_json
from cbceval.ingest import parse_dataset, serialize_dataset
from cbceval.kmeans import KMeansConfig
from cbceval.model import (
    AttributeSchema,
    CandidateDataset,
    ConstraintSpec,
    ExistentialRule,
    UserConstraintSpec,
)

from helpers import dataset_from_rows, random_dataset

TIMESTAMP = "2000-01-01T00:00:00Z"

ATTRIBUTES = (
    "reusability",
    "customizability",
    "scalability",
    "availability",
    "data_management",
    "pay_per_use",
    "budget_per_instance",
    "trial_period",
)

SCORING_WEIGHTS = {"reusability": 2.0, "scalability": 1.5, "pay_per_use": 0.5}


def report_sha256(dataset, spec, k, seed, weights=None) -> str:
    result = run_pipeline(dataset, spec, CBCConfig(kmeans=KMeansConfig(k=k, seed=seed)))
    text = report_json(rank(result, dataset, weights), timestamp=TIMESTAMP)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def seeded_dataset(n: int, seed: int) -> CandidateDataset:
    """Three archetypes over eight attributes, ratings to one decimal place
    so normalization and scoring see non-integer values."""
    rng = random.Random(seed)
    centres = [[rng.uniform(3.0, 8.0) for _ in ATTRIBUTES] for _ in range(3)]
    rows = []
    for i in range(n):
        centre = centres[rng.randrange(3)]
        ratings = tuple(
            min(10.0, max(1.0, round(rng.gauss(m, 2.0), 1))) for m in centre
        )
        rows.append((f"G{i:04d}", ratings, float(rng.randint(1, 10))))
    return dataset_from_rows(AttributeSchema(ATTRIBUTES), rows)


def screening_spec() -> ConstraintSpec:
    return ConstraintSpec(
        feasibility_threshold=5.0,
        distance_weights={"budget_per_instance": 0.5, "trial_period": 0.5, "reusability": 2.0},
        existential=(
            ExistentialRule("scalability", ">=", 9.0, 5),
            ExistentialRule("availability", ">", 7.0, 50),
            ExistentialRule("customizability", "<", 2.5, 1),
        ),
        user_spec=UserConstraintSpec(
            parallel_instances=4,
            max_instances=16,
            total_work=1000,
            min_workload_per_instance=10,
            budget_per_instance=7.5,
            deadline=30,
            budget_class="medium",
            trial_period=3.2,
        ),
    )


def test_golden_sample_report(sample_dataset, sample_spec):
    assert report_sha256(sample_dataset, sample_spec, k=3, seed=42) == (
        "cad85a05be417c25c47bf06652e12a636eae0086c214474a7aebd22a8d95146b"
    )


def test_golden_screening_report():
    dataset = seeded_dataset(2000, seed=20260)
    assert report_sha256(dataset, screening_spec(), k=5, seed=7, weights=SCORING_WEIGHTS) == (
        "46b237482c907a40ebf1ed65aa7f39432344b3adce6b14da8e00d77d7955bb24"
    )


def test_golden_linked_report():
    dataset = seeded_dataset(600, seed=91)
    rng = random.Random(92)
    ids = dataset.ids()
    must = [tuple(rng.sample(ids, 2)) for _ in range(60)]
    linked = {cid for pair in must for cid in pair}
    free = [cid for cid in ids if cid not in linked]
    cannot = [tuple(rng.sample(free, 2)) for _ in range(15)]
    spec = ConstraintSpec(
        must_link=must,
        cannot_link=cannot,
        max_cluster_size=160,
        feasibility_threshold=6.0,
    )
    assert report_sha256(dataset, spec, k=4, seed=3) == (
        "b402833bd4ec13f78bedf465655d3804016a69c4334bd96fe8cbe0ad6979550f"
    )


def test_golden_aborted_report(sample_dataset):
    # threshold 10 empties the feasible set: only meta and deadlock are written
    spec = ConstraintSpec(feasibility_threshold=10)
    assert report_sha256(sample_dataset, spec, k=3, seed=42) == (
        "7090aad5c64fcfa6f1a37ece9e0efdf1f7a93d65d1aedeb991d1d97b52933e01"
    )


#: Ids holding a quote, a backslash, an internal tab, a non-ASCII letter and a
#: non-BMP character, a non-ASCII attribute name, and two rows below the
#: default threshold so ``excluded`` is written too.
ESCAPED_CSV = (
    "id,réusabilité,scalability,constraints\n"
    '"say ""hi""",7,8,9\n'
    "back\\slash,3,4,2\n"
    "tab\tinside,6,5,7\n"
    "Zoë,9,2,8\n"
    "rocket\U0001F680,4,9,6\n"
    "plain,5,5,5\n"
)


def test_golden_escaped_ids_and_names_report():
    dataset = parse_dataset(ESCAPED_CSV)
    assert dataset.ids() == ('say "hi"', "back\\slash", "tab\tinside", "Zoë", "rocket\U0001F680", "plain")
    assert report_sha256(dataset, ConstraintSpec(), k=2, seed=5) == (
        "1182d9734a4d946f193f839b69cc90c6d3bcfe17931ce8d8daaea87377bd30fc"
    )


def command_sha256(capsys, *argv) -> tuple[int, str]:
    """Exit code and sha256 of a command's stdout."""
    code = main(list(argv))
    return code, hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


def test_golden_cluster_sample(sample_paths, capsys):
    data, _ = sample_paths
    assert command_sha256(
        capsys, "cluster", "--data", str(data), "--k", "3", "--seed", "42", "--restarts", "3"
    ) == (0, "4312cf9f546280ffd8dd0a18feffba3e20bc031ce3fd454aa72368267b243ccf")


def test_golden_cluster_random_dataset(tmp_path, capsys):
    data = tmp_path / "random.csv"
    data.write_text(serialize_dataset(random_dataset(random.Random(2000), 2000, d=4)), encoding="utf-8")
    assert command_sha256(
        capsys, "cluster", "--data", str(data), "--k", "5", "--seed", "11", "--restarts", "2"
    ) == (0, "ed5934839f9498585c96c73317c6e3489db19b14b7dc744a98e4e05d75e482be")


def test_golden_check_deadlock_witness(sample_paths, tmp_path, capsys):
    data, _ = sample_paths
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "must_link": [["T100", "T101"], ["T101", "T105"]],
                "cannot_link": [["T100", "T105"], ["T102", "T103"]],
                "max_cluster_size": 4,
                "existential": [{"attribute": "scalability", "op": ">=", "threshold": 6, "min_count": 1}],
                "feasibility_threshold": 6,
            }
        ),
        encoding="utf-8",
    )
    assert command_sha256(
        capsys, "check", "--data", str(data), "--constraints", str(spec), "--k", "2"
    ) == (2, "91e6719fad648d4c4fe3f0301fa1290b3251f681aee3f8d06112b0adff07008d")


def flat_csv(n: int) -> str:
    """``n`` rows ``rNN,5,9`` under the header ``id,a,constraints``."""
    return "id,a,constraints\n" + "".join(f"r{i:02d},5,9\n" for i in range(n))


def chain(first: int, last: int) -> list[list[str]]:
    """Pairs joining rows first..last one after another."""
    return [[f"r{i:02d}", f"r{i + 1:02d}"] for i in range(first, last)]


TRIANGLE = [["r00", "r01"], ["r01", "r02"], ["r00", "r02"]]
NOBODY_ABOVE_NINE = [{"attribute": "a", "op": ">", "threshold": 9, "min_count": 1}]

#: name -> (rows, spec, k, check digest); every case exits 2. Between them
#: they reach each outcome of the packing and coloring decision.
PACKING_CASES = {
    "six 3-row chains past max_cluster_size 5": (
        25,
        {"must_link": [p for c in range(0, 18, 3) for p in chain(c, c + 2)], "max_cluster_size": 5},
        5,
        "a643bdd2690e14b44641f42d1121abb825a0d688ac0fee41271b2f87a508b84c",
    ),
    "cannot-link triangle, k = 2": (
        10,
        {"cannot_link": TRIANGLE},
        2,
        "fc221cb1987ff4eafb63a2378bd9da59354ec15a3c489c10073a348084a3eef2",
    ),
    "thirteen 2-row components: packing not checked": (
        26,
        {
            "must_link": [[f"r{i:02d}", f"r{i + 1:02d}"] for i in range(0, 26, 2)],
            "max_cluster_size": 13,
            "existential": NOBODY_ABOVE_NINE,
        },
        2,
        "d24f65f59bc4d0edc92ab6f9f440475ffef3418e929081dc9bb9cca10ed7a292",
    ),
    "triangle and a 12-row chain: neither checked": (
        30,
        {
            "cannot_link": TRIANGLE + chain(3, 14),
            "max_cluster_size": 30,
            "existential": NOBODY_ABOVE_NINE,
        },
        2,
        "b7d9436e2a8aec0db6970bb3be7081a816ad4485963a0e44b195e0d8b2736b7c",
    ),
}


@pytest.mark.parametrize("name", list(PACKING_CASES))
def test_golden_check_packing_outcomes(name, tmp_path, capsys):
    rows, spec, k, digest = PACKING_CASES[name]
    data, constraints = tmp_path / "data.csv", tmp_path / "spec.json"
    data.write_text(flat_csv(rows), encoding="utf-8")
    constraints.write_text(json.dumps(spec), encoding="utf-8")
    assert command_sha256(
        capsys, "check", "--data", str(data), "--constraints", str(constraints), "--k", str(k)
    ) == (2, digest)


def test_golden_aborted_report_after_a_packed_chain():
    # The chain packs under max_cluster_size 10, so the bind-time abort for
    # the existential rule carries no packing warning.
    spec = ConstraintSpec(
        cannot_link=[tuple(pair) for pair in chain(0, 14)],
        max_cluster_size=10,
        existential=(ExistentialRule("a", ">", 9.0, 1),),
    )
    assert report_sha256(parse_dataset(flat_csv(20)), spec, k=2, seed=0) == (
        "2536cf2833abca3010e1a3c3e8024650c6c813d7303d75ce90465bc427a884ef"
    )
