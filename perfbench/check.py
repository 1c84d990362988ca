"""Independent checker for `cbceval evaluate` reports.

Recomputes what a correct report must say from the generated inputs alone,
without importing the package: the feasible/excluded split (threshold plus
the bridged user_spec rules), the scores, the ranking order, the link and
size constraints, the clustering objective and both digests. Used on every
operation of a run (the first report in full, the rest by bytes).
"""

import hashlib
import json
import re
from fractions import Fraction

import numpy as np

from inputs import SCALE_MAX, SCALE_MIN, Inputs

_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')
_SSE = re.compile(r"\bsse=(\S+)")
STAGES = ["bind", "deadlock", "cluster", "refine", "recheck"]


def without_timestamp(report_bytes: bytes) -> bytes:
    """Report bytes with the one field that may differ between runs blanked."""
    return _TIMESTAMP.sub(b'"timestamp": ""', report_bytes)


def normalized(inp: Inputs) -> np.ndarray:
    return (np.array(inp.ratings, dtype=np.float64) - SCALE_MIN) / (SCALE_MAX - SCALE_MIN)


def expected_violations(inp: Inputs) -> list[set[str]]:
    """Rules each candidate breaks, by the benchmark's own reading of the spec."""
    attrs = inp.workload.attributes
    threshold = inp.spec.get("feasibility_threshold", 5.5)
    user = inp.spec.get("user_spec", {})
    out = []
    for row, c in zip(inp.ratings, inp.constraints):
        broken = set()
        if c < threshold:
            broken.add("feasibility_threshold")
        for name, op in inp.workload.bridged.items():
            value, limit = row[attrs.index(name)], user[name]
            if not (value <= limit if op == "<=" else value >= limit):
                broken.add(f"user_spec.{name}")
        out.append(broken)
    return out


def expected_scores(inp: Inputs, weights: dict | None) -> np.ndarray:
    attrs = inp.workload.attributes
    w = np.array([(weights or {}).get(a, 1.0) for a in attrs], dtype=np.float64)
    return normalized(inp) @ w / w.sum()


def recomputed_sse(inp: Inputs, parent_of: dict[str, int]) -> float:
    """Objective of the reported partition: weighted squared distance of each
    candidate to the mean of its parent cluster, in normalized space."""
    attrs = inp.workload.attributes
    weights = inp.spec.get("distance_weights") or {}
    w = np.array([weights.get(a, 1.0) for a in attrs], dtype=np.float64)
    X = normalized(inp)
    labels = np.array([parent_of[cid] for cid in inp.ids])
    total = 0.0
    for label in np.unique(labels):
        members = X[labels == label]
        total += float((((members - members.mean(axis=0)) ** 2) * w).sum())
    return total


def report_digest(report: dict) -> str:
    body = json.loads(json.dumps(report))
    del body["meta"]["report_digest"], body["meta"]["timestamp"]
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def exact_key(inp: Inputs, weights: dict | None, i: int) -> Fraction:
    """Candidate i's score up to a positive common factor, in exact arithmetic."""
    row = inp.ratings[i]
    return sum(Fraction((weights or {}).get(a, 1.0)) * (r - SCALE_MIN) for a, r in zip(inp.workload.attributes, row))


def check_report(
    report: dict, inp: Inputs, k: int | None, weights: dict | None
) -> tuple[list[str], int]:
    """Every way ``report`` departs from a correct evaluation of ``inp``
    (empty when it is correct), and the number of adjacent ranking pairs
    whose exactly equal scores are not in id order.

    Those pairs are a known fault, not counted as a departure: the program
    sums float64 terms in attribute order, so two candidates with the same
    exact score can differ in the last bit and be ordered by that bit. ``k``
    is the cluster count asked for (None when the program picks it)."""
    problems: list[str] = []
    meta = report["meta"]
    ids = inp.ids
    n = len(ids)
    index = {cid: i for i, cid in enumerate(ids)}

    if report["deadlock"]["deadlocked"]:
        problems.append("deadlock: run reports a deadlock")
    if [s["stage"] for s in meta["stages"]] != STAGES:
        problems.append(f"stages: {[s['stage'] for s in meta['stages']]}")
    report_k = meta["k"]
    if k is not None and report_k != k:
        problems.append(f"k: report has k={report_k}, asked for {k}")
    if k is None and not 2 <= report_k <= min(8, n - 1):
        problems.append(f"k: picked k={report_k} outside the sweep range")

    # micro-clusters partition the candidates into <= k non-empty parents
    parent_of: dict[str, int] = {}
    label_of: dict[str, str] = {}
    micro_score: dict[str, float] = {}
    for mc in report["micro_clusters"]:
        if not 0 <= mc["parent"] < report_k:
            problems.append(f"partition: parent {mc['parent']} outside [0, {report_k})")
        if not mc["members"]:
            problems.append(f"partition: empty micro-cluster under parent {mc['parent']}")
        for member in mc["members"]:
            cid = member["id"]
            if cid in parent_of:
                problems.append(f"partition: {cid} in two micro-clusters")
            parent_of[cid] = mc["parent"]
            label_of[cid] = mc["label"]
            if "score" in member:
                micro_score[cid] = member["score"]
    if set(parent_of) != set(ids):
        problems.append("partition: micro-clusters do not cover exactly the candidates")
        return problems, 0

    # feasible and excluded sets, with the violated rules
    broken = expected_violations(inp)
    feasible = [cid for cid, b in zip(ids, broken) if not b]
    infeasible = [cid for cid, b in zip(ids, broken) if b]
    if {c for c, lab in label_of.items() if lab == "feasible"} != set(feasible):
        problems.append("feasibility: feasible micro-clusters differ from the expected set")
    if [e["id"] for e in report["excluded"]] != infeasible:
        problems.append("feasibility: excluded ids differ from the expected set or order")
    else:
        for entry in report["excluded"]:
            rules = {v["rule"] for v in entry["violations"]}
            if not rules or rules != broken[index[entry["id"]]]:
                problems.append(f"feasibility: {entry['id']} violations {sorted(rules)}")
                break
    ranked = [r["id"] for r in report["ranking"]]
    if set(ranked) != set(feasible) or len(ranked) != len(feasible):
        problems.append("ranking: ranked ids differ from the feasible set")
        return problems, 0

    # scores and order: score descending, then id ascending
    scores = expected_scores(inp, weights)
    norm = normalized(inp)
    attrs = inp.workload.attributes
    for r in report["ranking"]:
        i = index[r["id"]]
        if abs(r["score"] - scores[i]) > 1e-9 or micro_score.get(r["id"]) != r["score"]:
            problems.append(f"score: {r['id']} has {r['score']}, expected {scores[i]:.12g}")
            break
        if any(abs(r["per_attribute"][a] - norm[i, j]) > 1e-9 for j, a in enumerate(attrs)):
            problems.append(f"score: {r['id']} per-attribute values")
            break
    ties = 0
    for a, b in zip(report["ranking"], report["ranking"][1:]):
        if a["score"] > b["score"] or (a["score"] == b["score"] and a["id"] < b["id"]):
            continue
        if a["score"] == b["score"]:
            ea, eb = (exact_key(inp, weights, index[r["id"]]) for r in (a, b))
            if ea > eb:
                continue
            if ea == eb:
                ties += 1  # exact tie broken by float rounding, not by id
                continue
        problems.append(f"order: {a['id']} ranked before {b['id']}")
        break

    # link and size constraints
    for a, b in inp.spec.get("must_link", []):
        if parent_of[a] != parent_of[b]:
            problems.append(f"must_link: {a} and {b} in different clusters")
            break
    for a, b in inp.spec.get("cannot_link", []):
        if parent_of[a] == parent_of[b]:
            problems.append(f"cannot_link: {a} and {b} share cluster {parent_of[a]}")
            break
    sizes = np.bincount(list(parent_of.values()), minlength=report_k)
    max_size = inp.spec.get("max_cluster_size")
    if max_size is not None and sizes.max() > max_size:
        problems.append(f"size: a cluster holds {sizes.max()} > max_cluster_size {max_size}")
    min_size = inp.spec.get("min_cluster_size")
    if min_size is not None and sizes.min() < min_size:
        problems.append(f"size: a cluster holds {sizes.min()} < min_cluster_size {min_size}")

    # objective and digests
    match = _SSE.search(meta["stages"][2]["summary"])
    sse = recomputed_sse(inp, parent_of)
    if match is None or abs(sse - float(match.group(1))) > 1e-5 * max(1.0, sse):
        problems.append(f"sse: recomputed {sse:.6g}, report says {match and match.group(1)}")
    if meta["dataset_digest"] != hashlib.sha256(inp.csv_text().encode("utf-8")).hexdigest():
        problems.append("digest: dataset_digest does not match the input CSV")
    if meta["report_digest"] != report_digest(report):
        problems.append("digest: report_digest does not match the report body")
    return problems, ties


def sse_of(report: dict, inp: Inputs) -> float:
    parent_of = {m["id"]: mc["parent"] for mc in report["micro_clusters"] for m in mc["members"]}
    return recomputed_sse(inp, parent_of)
