"""Scoring and ranked evaluation reports.

The composite score is a weighted mean of normalized ratings: linear,
monotone in every rating, and invariant in ordering under positive weight
rescaling. Reports serialize to JSON with numbers rounded to 12 significant
digits so byte-level diffs stay stable.
"""

import hashlib
import json
from datetime import datetime, timezone
from typing import Mapping

import numpy as np

from .cbc import CBCResult
from .ingest import constraint_spec_to_dict, serialize_dataset
from .kmeans import CONVERGENCE_TOL, MAX_ITERATIONS, weight_vector
from .model import (
    AttributeSchema,
    CandidateDataset,
    EvaluationReport,
    FEASIBLE,
    RankedCandidate,
)


def _weighted_means(
    X: np.ndarray, schema: AttributeSchema, weights: Mapping[str, float] | None
) -> np.ndarray:
    """Row scores of normalized ratings ``X``. The sum runs over the columns
    left to right, one rounding per term, so a row's score does not depend
    on the other rows (``X @ w`` and row sums may add in another order)."""
    w = weight_vector(schema, weights)
    s = np.zeros(len(X))
    for j in range(X.shape[1]):
        s = s + w[j] * X[:, j]
    return s / float(w.sum())


def round_floats(value):
    """Round floats to 12 significant digits, recursively, for diff-stable JSON."""
    if isinstance(value, float):
        return float(format(value, ".12g"))
    if isinstance(value, dict):
        return {k: round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_floats(v) for v in value]
    return value


def _digest(rounded) -> str:
    """sha256 of canonical JSON of a payload whose floats are already rounded
    (rounding is idempotent, so a rounded payload is hashed as is)."""
    canonical = json.dumps(rounded, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ``vars`` of a dataclass record is its fields in declaration order, the
# JSON key order; ``round_floats`` copies it before anything is changed.
def deadlock_to_dict(report) -> dict:
    return {
        "deadlocked": report.deadlocked,
        "stage": report.stage,
        "causes": [vars(c) for c in report.causes],
        "warnings": list(report.warnings),
    }


def rank(
    result: CBCResult,
    dataset: CandidateDataset,
    weights: Mapping[str, float] | None = None,
) -> EvaluationReport:
    """Build the evaluation report for a pipeline result.

    Feasible micro-cluster members are ranked by composite score descending
    (ties by ascending id); infeasible members land in the excluded section
    with their violations. A bind-aborted result yields a report carrying
    only metadata and the deadlock section.
    """
    kmeans = result.config.kmeans
    config_payload = {
        "spec": constraint_spec_to_dict(result.spec),
        # The iteration cap and tolerance are fixed, and links and refinement
        # always apply; the keys stay so config_digest is stable.
        "kmeans": {
            "k": kmeans.k,
            "seed": kmeans.seed,
            "max_iterations": MAX_ITERATIONS,
            "convergence_tol": CONVERGENCE_TOL,
            "restarts": kmeans.restarts,
        },
        "enforce_links": True,
        "refine": True,
        "weights": dict(sorted(weights.items())) if weights else None,
    }
    meta: dict[str, object] = {
        "seed": kmeans.seed,
        "k": result.spec.k if result.spec.k is not None else kmeans.k,
        "config_digest": _digest(round_floats(config_payload)),
        "dataset_digest": hashlib.sha256(
            serialize_dataset(dataset).encode("utf-8")
        ).hexdigest(),
        # the user constraint record rides along verbatim; confidence fields
        # are reported, never scored
        "user_constraints": config_payload["spec"].get("user_spec"),
        "stages": [{"stage": s.name, "summary": s.summary} for s in result.stage_log],
    }

    if result.micro is None:
        return EvaluationReport(
            meta=meta,
            deadlock=result.deadlock,
            micro=None,
            ranking=(),
            excluded=(),
        )

    result.clustering.label_array(dataset)  # rejects a result for other rows or order
    X = dataset.normalized
    scores = _weighted_means(X, dataset.schema, weights).tolist()
    ids = dataset.ids()
    violations = result.micro.violations
    names = dataset.schema.names
    ranking = tuple(
        RankedCandidate(id=ids[i], score=scores[i], per_attribute=dict(zip(names, X[i].tolist())))
        for i in sorted(
            (i for i, cid in enumerate(ids) if cid not in violations),
            key=lambda i: (-scores[i], ids[i]),
        )
    )
    excluded = tuple((cid, violations[cid]) for cid in ids if cid in violations)
    return EvaluationReport(
        meta=meta,
        deadlock=result.deadlock,
        micro=result.micro,
        ranking=ranking,
        excluded=excluded,
    )


def report_to_dict(report: EvaluationReport, *, timestamp: str | None = None) -> dict:
    """JSON-ready report dict. The timestamp (RFC 3339 UTC) is the only
    run-to-run varying field and stays excluded from the embedded digest."""
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    body: dict = {"meta": dict(report.meta), "deadlock": deadlock_to_dict(report.deadlock)}
    if report.micro is not None:
        scores = {r.id: r.score for r in report.ranking}
        body["micro_clusters"] = [
            {
                "parent": mc.parent,
                "label": mc.label,
                "members": [
                    {"id": cid, "score": scores[cid]}
                    if mc.label == FEASIBLE
                    else {"id": cid}
                    for cid in mc.members
                ],
            }
            for mc in report.micro.micro_clusters
        ]
        body["ranking"] = [
            {"id": r.id, "score": r.score, "per_attribute": r.per_attribute}
            for r in report.ranking
        ]
        body["excluded"] = [
            {"id": cid, "violations": [vars(v) for v in violations]}
            for cid, violations in report.excluded
        ]
    body = round_floats(body)
    body["meta"]["report_digest"] = _digest(body)
    body["meta"]["timestamp"] = timestamp
    return body


def report_json(report: EvaluationReport, *, timestamp: str | None = None) -> str:
    return json.dumps(report_to_dict(report, timestamp=timestamp), indent=2) + "\n"
