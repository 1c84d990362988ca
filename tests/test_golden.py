"""Golden report bytes: sha256 of ``report_json`` at a fixed timestamp.

The digests were recorded from the per-candidate implementation, so any
change to scoring, feasibility, refinement, clustering or serialization that
moves a single byte of a report fails here.
"""

import hashlib
import random

from cbceval.cbc import CBCConfig, run_pipeline
from cbceval.evaluate import rank, report_json
from cbceval.kmeans import KMeansConfig
from cbceval.model import (
    AttributeSchema,
    Candidate,
    CandidateDataset,
    ConstraintSpec,
    ExistentialRule,
    UserConstraintSpec,
)

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
    candidates = []
    for i in range(n):
        centre = centres[rng.randrange(3)]
        ratings = tuple(
            min(10.0, max(1.0, round(rng.gauss(m, 2.0), 1))) for m in centre
        )
        candidates.append(Candidate(f"G{i:04d}", ratings, float(rng.randint(1, 10))))
    return CandidateDataset(AttributeSchema(ATTRIBUTES), tuple(candidates))


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
