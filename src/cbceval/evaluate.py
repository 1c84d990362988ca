"""Scoring and ranked evaluation reports.

The composite score is a weighted mean of normalized ratings: linear,
monotone in every rating, and invariant in ordering under positive weight
rescaling. ``rank`` builds a report once, as its JSON body, with numbers
rounded to 12 significant digits so byte-level diffs stay stable;
``report_json`` only adds the digest and timestamp and writes it out.
"""

import hashlib
import json
from datetime import datetime, timezone
from typing import Mapping

import numpy as np

from .cbc import CBCResult
from .ingest import constraint_spec_to_dict, serialize_dataset
from .kmeans import CONVERGENCE_TOL, MAX_ITERATIONS, weight_vector
from .model import FEASIBLE, AttributeSchema, CandidateDataset


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
# JSON key order. It is the frozen record's own ``__dict__``, so a body is
# passed through ``round_floats``, which copies it, before it is handed out.
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
) -> dict:
    """The evaluation report body for a pipeline result, every float rounded.

    Keys, in order: ``meta``, ``deadlock``, ``micro_clusters``, ``ranking``
    (feasible candidates as ``{id, score, per_attribute}``, by exact score
    descending, ties by ascending id) and ``excluded`` (infeasible candidates
    as ``{id, violations}``, in dataset order). A bind-aborted result yields
    ``meta`` and ``deadlock`` only. The body is a fresh copy: it shares no
    mutable object with ``result``.
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
    meta = {
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
    body = {"meta": meta, "deadlock": deadlock_to_dict(result.deadlock)}
    if result.micro is None:
        return round_floats(body)

    result.clustering.label_array(dataset)  # rejects a result for other rows or order
    X = dataset.normalized
    scores = _weighted_means(X, dataset.schema, weights).tolist()
    ids, row_of, names = dataset.ids(), dataset.row_of, dataset.schema.names
    violations = result.micro.violations
    body["micro_clusters"] = [
        {
            "parent": mc.parent,
            "label": mc.label,
            "members": [
                {"id": cid, "score": scores[row_of[cid]]} if mc.label == FEASIBLE else {"id": cid}
                for cid in mc.members
            ],
        }
        for mc in result.micro.micro_clusters
    ]
    body["ranking"] = [
        {"id": ids[i], "score": scores[i], "per_attribute": dict(zip(names, X[i].tolist()))}
        for i in sorted(
            (i for i, cid in enumerate(ids) if cid not in violations),
            key=lambda i: (-scores[i], ids[i]),
        )
    ]
    body["excluded"] = [
        {"id": cid, "violations": [vars(v) for v in violations[cid]]}
        for cid in ids if cid in violations
    ]
    return round_floats(body)


def report_json(body: dict, *, timestamp: str | None = None) -> str:
    """The report text of a ``rank`` body, with ``report_digest`` and the
    timestamp (RFC 3339 UTC) added to ``meta``. The timestamp is the only
    run-to-run varying field and stays out of the digest; ``body`` itself is
    left unchanged."""
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    meta = {**body["meta"], "report_digest": _digest(body), "timestamp": timestamp}
    return json.dumps({**body, "meta": meta}, indent=2) + "\n"
