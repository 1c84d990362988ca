"""Self-test of the report checker.

    python3 perfbench/selftest.py

Run from the repository root. Produces a known-good report by running
`cbceval evaluate` on a small linked input (must-link and cannot-link pairs,
a size bound, excluded candidates), requires the checker to pass it, then
corrupts it in five ways and requires each to be rejected by the check it
targets. The report digest is recomputed after each corruption, so the
digest check cannot be what catches it; a sixth case keeps the stale digest
to show that check works too. Exits 0 when every case behaves.
"""

import copy
import dataclasses
import json
import sys
import tempfile
from pathlib import Path

from check import check_report, report_digest
from inputs import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = dataclasses.replace(WORKLOADS["linked"], n=400, must_link=40, cannot_link=8, seeded_points=True)


def parents(report: dict) -> dict[str, int]:
    return {m["id"]: mc["parent"] for mc in report["micro_clusters"] for m in mc["members"]}


def move(report: dict, cid: str, parent: int):
    """Move one candidate to a micro-cluster of the same label under ``parent``."""
    source = next(mc for mc in report["micro_clusters"] if any(m["id"] == cid for m in mc["members"]))
    member = next(m for m in source["members"] if m["id"] == cid)
    source["members"].remove(member)
    target = next(
        (mc for mc in report["micro_clusters"] if mc["parent"] == parent and mc["label"] == source["label"]),
        None,
    )
    if target is None:
        target = {"parent": parent, "label": source["label"], "members": []}
        report["micro_clusters"].append(target)
    target["members"].append(member)


def swap_ranks(report: dict, inp):
    ranking = report["ranking"]
    i = next(i for i in range(len(ranking) - 1) if ranking[i]["score"] > ranking[i + 1]["score"])
    ranking[i], ranking[i + 1] = ranking[i + 1], ranking[i]


def split_must_link(report: dict, inp):
    a, b = inp.spec["must_link"][0]
    of = parents(report)
    move(report, b, (of[a] + 1) % report["meta"]["k"])


def overfill_cluster(report: dict, inp):
    of = parents(report)
    target = of[inp.ids[0]]
    others = [cid for cid in inp.ids if of[cid] != target]
    for cid in others[: inp.spec["max_cluster_size"] + 1 - list(of.values()).count(target)]:
        move(report, cid, target)


def excluded_into_ranking(report: dict, inp):
    entry = report["excluded"].pop(0)
    report["ranking"].append({"id": entry["id"], "score": 0.0, "per_attribute": {}})


def perturb_score(report: dict, inp):
    entry = report["ranking"][len(report["ranking"]) // 2]
    entry["score"] += 1e-6
    for mc in report["micro_clusters"]:
        for member in mc["members"]:
            if member["id"] == entry["id"]:
                member["score"] = entry["score"]


CASES = [
    ("swap two ranks", swap_ranks, "order"),
    ("split a must-link pair", split_must_link, "must_link"),
    ("overfill a cluster", overfill_cluster, "size"),
    ("move an excluded id into the ranking", excluded_into_ranking, "ranking"),
    ("perturb a score", perturb_score, "score"),
]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from cbceval.cli import main as cbceval_main

    inp = generate(WORKLOAD, 1)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        data, spec, out = (Path(tmp) / name for name in ("data.csv", "spec.json", "report.json"))
        data.write_text(inp.csv_text(), encoding="utf-8")
        spec.write_text(inp.spec_text(), encoding="utf-8")
        code = cbceval_main(["evaluate", "--data", str(data), "--constraints", str(spec),
                             "--k", str(WORKLOAD.k), "--seed", "0", "--out", str(out)])
        good = json.loads(out.read_text(encoding="utf-8")) if code == 0 else None
    if good is None:
        print(f"FAIL known-good report: evaluate exited {code}")
        return 1
    problems, _ = check_report(good, inp, WORKLOAD.k, None)
    if problems:
        print(f"FAIL known-good report rejected: {problems}")
        return 1
    print("ok   known-good report accepted")

    ok = True
    for name, corrupt, expected in CASES:
        report = copy.deepcopy(good)
        corrupt(report, inp)
        report["meta"]["report_digest"] = report_digest(report)
        problems, _ = check_report(report, inp, WORKLOAD.k, None)
        caught = [p for p in problems if p.startswith(expected)]
        ok &= bool(caught)
        print(f"{'ok  ' if caught else 'FAIL'} {name}: {caught[0] if caught else problems or 'accepted'}")

    report = copy.deepcopy(good)
    perturb_score(report, inp)
    problems, _ = check_report(report, inp, WORKLOAD.k, None)
    caught = [p for p in problems if p.startswith("digest")]
    ok &= bool(caught)
    print(f"{'ok  ' if caught else 'FAIL'} stale digest: {caught[0] if caught else problems or 'accepted'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
