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
from .errors import DomainError
from .ingest import constraint_spec_to_dict, serialize_dataset
from .kmeans import weight_vector
from .model import (
    AttributeSchema,
    Candidate,
    CandidateDataset,
    EvaluationReport,
    FEASIBLE,
    RankedCandidate,
    Violation,
    normalize,
)


def _weighted_means(
    X: np.ndarray, schema: AttributeSchema, weights: Mapping[str, float] | None
) -> np.ndarray:
    """Row scores of normalized ratings ``X``. The sum runs over the columns
    left to right, one rounding per term, so a row's score does not depend
    on the other rows (``X @ w`` and row sums may add in another order)."""
    w = weight_vector(schema, weights)
    total = float(w.sum())
    if total <= 0:
        raise DomainError("weights need at least one positive entry")
    s = np.zeros(len(X))
    for j in range(X.shape[1]):
        s = s + w[j] * X[:, j]
    return s / total


def score_candidate(
    candidate: Candidate,
    schema: AttributeSchema,
    weights: Mapping[str, float] | None = None,
) -> float:
    """Weighted normalized mean of the candidate's ratings, in [0, 1].

    Weights are normalized to sum 1 at use time; the default weighs every
    attribute equally.
    """
    X = np.array([normalize(candidate.ratings, schema)], dtype=np.float64)
    return float(_weighted_means(X, schema, weights)[0])


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


def _violation_dict(v: Violation) -> dict:
    return {
        "rule": v.rule,
        "attribute": v.attribute,
        "op": v.op,
        "required": v.required,
        "observed": v.observed,
        "message": v.message,
    }


def deadlock_to_dict(report) -> dict:
    return {
        "deadlocked": report.deadlocked,
        "stage": report.stage,
        "causes": [
            {"kind": c.kind, "detail": c.detail, "witness": c.witness}
            for c in report.causes
        ],
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
    config = result.config
    seed = config.kmeans.seed if config is not None else 0
    k = result.spec.k if result.spec.k is not None else (
        config.kmeans.k if config is not None else None
    )
    config_payload = {
        "spec": constraint_spec_to_dict(result.spec),
        "kmeans": {
            "k": config.kmeans.k if config else None,
            "seed": seed,
            "max_iterations": config.kmeans.max_iterations if config else None,
            "convergence_tol": config.kmeans.convergence_tol if config else None,
            "restarts": config.kmeans.restarts if config else None,
        },
        # Links and refinement always apply; the keys stay so config_digest is stable.
        "enforce_links": True if config else None,
        "refine": True if config else None,
        "weights": dict(sorted(weights.items())) if weights else None,
    }
    meta: dict[str, object] = {
        "seed": seed,
        "k": k,
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

    X = dataset.normalized
    row_scores = _weighted_means(X, dataset.schema, weights).tolist()
    feasible_ids = result.micro.feasible_ids()
    scores = {cid: row_scores[dataset.row_of[cid]] for cid in feasible_ids}
    names = dataset.schema.names
    ranking = tuple(
        RankedCandidate(
            id=cid,
            score=scores[cid],
            per_attribute=dict(zip(names, X[dataset.row_of[cid]].tolist())),
        )
        for cid in sorted(feasible_ids, key=lambda cid: (-scores[cid], cid))
    )
    excluded = tuple(
        (cid, result.micro.violations[cid]) for cid in dataset.ids() if cid not in scores
    )
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
            {"id": cid, "violations": [_violation_dict(v) for v in violations]}
            for cid, violations in report.excluded
        ]
    body = round_floats(body)
    body["meta"]["report_digest"] = _digest(body)
    body["meta"]["timestamp"] = timestamp
    return body


def report_json(report: EvaluationReport, *, timestamp: str | None = None) -> str:
    return json.dumps(report_to_dict(report, timestamp=timestamp), indent=2) + "\n"
