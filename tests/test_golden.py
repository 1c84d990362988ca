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
