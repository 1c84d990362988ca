"""Scoring and ranked evaluation reports.

The composite score is a weighted mean of normalized ratings: linear,
monotone in every rating, and invariant in ordering under positive weight
rescaling. ``rank`` builds a report once, as its JSON body, with numbers
rounded to 12 significant digits so byte-level diffs stay stable; each
distinct value is rounded once. ``report_json`` adds the digest and
timestamp and writes the text. ``meta`` and ``deadlock`` go through
``json.dumps``; the three bulk sections (``micro_clusters``, ``ranking``,
``excluded``) are written from fixed per-entry templates, because the
stdlib's indented encoder is pure Python and took most of a large report's
time. The excluded candidates of one failure pattern share one
``violations`` list in the body, and the writer formats each list once.
The templates give the same bytes as ``json.dumps(body, indent=2)``,
and the digest hashes the same text as the sorted compact dump; the tests
keep the stdlib form as the reference and compare byte for byte.
``evaluate --out`` writes the text in chunks (``_report_chunks``) after a
first pass that makes the digest, so no whole-report text is held.
"""

import hashlib
import json
from dataclasses import fields
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import Iterator, Mapping

import numpy as np

from .cbc import CBCResult
from .ingest import _OncePerValue, constraint_spec_to_dict, serialize_dataset
from .kmeans import CONVERGENCE_TOL, MAX_ITERATIONS, weight_vector
from .model import FEASIBLE, AttributeSchema, CandidateDataset, Violation


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


def _round12(value: float) -> float:
    return float(format(value, ".12g"))


def round_floats(value):
    """Round floats to 12 significant digits, recursively, for diff-stable JSON."""
    if isinstance(value, float):
        return _round12(value)
    if isinstance(value, dict):
        return {k: round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_floats(v) for v in value]
    return value


_COMPACT = {"sort_keys": True, "separators": (",", ":")}


def _digest(rounded) -> str:
    """sha256 of canonical JSON of a payload whose floats are already rounded
    (rounding is idempotent, so a rounded payload is hashed as is)."""
    canonical = json.dumps(rounded, **_COMPACT)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_VIOLATION_FLOATS = tuple(f.name for f in fields(Violation) if f.type is float)


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
    mutable object with ``result``. Within the body, the entries whose
    violations are one tuple of ``result`` (one failure pattern, see
    ``feasibility_partition``) share one list of records.
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
        "k": kmeans.k,
        "config_digest": _digest(round_floats(config_payload)),
        "dataset_digest": hashlib.sha256(
            serialize_dataset(dataset).encode("utf-8")
        ).hexdigest(),
        # the user constraint record rides along verbatim; confidence fields
        # are reported, never scored
        "user_constraints": config_payload["spec"].get("user_spec"),
        "stages": [{"stage": s.name, "summary": s.summary} for s in result.stage_log],
    }
    body = round_floats({"meta": meta, "deadlock": deadlock_to_dict(result.deadlock)})
    if result.micro is None:
        return body

    result.clustering.check_rows(dataset)
    X = dataset.normalized
    means = _weighted_means(X, dataset.schema, weights)
    exact = means.tolist()
    # The bulk floats are rounded where they are made: a report has few
    # distinct scores and ratings, so each is rounded once.
    rounded = _OncePerValue(_round12)
    scores = rounded.of_array(means)
    ids, row_of, names = dataset.ids(), dataset.row_of, dataset.schema.names
    violations = result.micro.violations

    def violation_dict(v: Violation) -> dict:
        record = vars(v).copy()
        for key in _VIOLATION_FLOATS:
            if isinstance(record[key], float):
                record[key] = rounded[record[key]]
        return record

    # One list per violations tuple, keyed by the tuple's identity: the rows
    # of one failure pattern share the tuple (``feasibility_partition``), and
    # ``violations`` keeps every key's tuple alive.
    lists: dict[int, list] = {}

    def violation_list(found: tuple) -> list:
        if id(found) not in lists:
            lists[id(found)] = [violation_dict(v) for v in found]
        return lists[id(found)]

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
    ranked = sorted((i for i, cid in enumerate(ids) if cid not in violations), key=ids.__getitem__)
    ranked.sort(key=exact.__getitem__, reverse=True)  # stable: ties stay in id order
    per_attribute = rounded.of_array(X[ranked])
    body["ranking"] = [
        {"id": ids[i], "score": scores[i], "per_attribute": dict(zip(names, values))}
        for i, values in zip(ranked, per_attribute)
    ]
    body["excluded"] = [
        {"id": cid, "violations": violation_list(violations[cid])}
        for cid in ids if cid in violations
    ]
    return body


# The report text. Each bulk entry is written twice from one tuple of value
# texts: indented as ``json.dumps(indent=2)`` writes it at its depth, and in
# the sorted compact form that ``report_digest`` hashes. A value's text is
# what ``json.dumps`` writes for it: strings go through the stdlib's own
# ``encode_basestring_ascii``, and each distinct float is written once, by
# ``json.dumps`` itself.


def _texts(values, floats: _OncePerValue) -> tuple[str, ...]:
    """The JSON text of each scalar in ``values``; ``floats`` memoises
    ``json.dumps`` of floats."""
    return tuple(
        [
            floats[x] if isinstance(x, float)
            else _quote(x) if isinstance(x, str)
            else json.dumps(x)
            for x in values
        ]
    )


def _key(name: str) -> str:
    """A JSON object key as %-template text."""
    return _quote(name).replace("%", "%%")


class _Object:
    """Templates of a JSON object with fixed keys at nesting ``depth``, filled
    with the texts of its values in key order."""

    def __init__(self, keys: tuple[str, ...], depth: int):
        inner = "\n" + "  " * (depth + 1)
        self.indented = (
            "{" + inner + ("," + inner).join(f"{_key(k)}: %s" for k in keys)
            + "\n" + "  " * depth + "}"
        )
        order = sorted(range(len(keys)), key=keys.__getitem__)
        self.compact = "{" + ",".join(f"{_key(keys[i])}:%s" for i in order) + "}"
        self._sorted = itemgetter(*order)

    def write(self, texts: tuple, compact_texts: tuple | None = None) -> tuple[str, str]:
        """(indented, compact) text; ``compact_texts`` replaces ``texts`` in
        the compact form where a value is itself a container."""
        return self.indented % texts, self.compact % self._sorted(compact_texts or texts)


def _arrays(written: list[tuple[str, str]], depth: int) -> tuple[str, str]:
    """The JSON array of ``written`` items: indented at nesting ``depth``,
    and compact."""
    if not written:
        return "[]", "[]"
    indented, compact = zip(*written)
    inner = "\n" + "  " * (depth + 1)
    return (
        "[" + inner + ("," + inner).join(indented) + "\n" + "  " * depth + "]",
        "[" + ",".join(compact) + "]",
    )


# Depths: the body is 0, a section 1, its entries 2, their arrays and
# objects 3.
_SCORED_MEMBER = _Object(("id", "score"), 4)
_MEMBER = _Object(("id",), 4)
_MICRO_CLUSTER = _Object(("parent", "label", "members"), 2)
_RANKED = _Object(("id", "score", "per_attribute"), 2)
_VIOLATION = _Object(tuple(f.name for f in fields(Violation)), 4)
_EXCLUDED = _Object(("id", "violations"), 2)


def _micro_clusters(section: list, floats: _OncePerValue) -> Iterator[tuple[str, str]]:
    # A member's keys are in sorted order, so both forms take its texts as they are.
    for mc in section:
        if mc["label"] == FEASIBLE:
            indented, compact = _SCORED_MEMBER.indented, _SCORED_MEMBER.compact
            texts = ((_quote(m["id"]), floats[m["score"]]) for m in mc["members"])
        else:
            indented, compact = _MEMBER.indented, _MEMBER.compact
            texts = (_quote(m["id"]) for m in mc["members"])
        members = [(indented % t, compact % t) for t in texts]
        head = _texts((mc["parent"], mc["label"]), floats)
        indented, compact = _arrays(members, 3)
        yield _MICRO_CLUSTER.write((*head, indented), (*head, compact))


def _ranking(section: list, floats: _OncePerValue) -> Iterator[tuple[str, str]]:
    """Each entry from one template per form, its ``per_attribute`` object
    written inline: the texts of id, score and the attribute values fill the
    indented form in that order and the compact form in sorted-key order."""
    if not section:
        return
    names = tuple(section[0]["per_attribute"])
    attributes = _Object(names, 3)
    indented = _RANKED.indented % ("%s", "%s", attributes.indented)
    # sorted keys: id, per_attribute, score
    compact = _RANKED.compact % ("%s", attributes.compact, "%s")
    compact_order = itemgetter(0, *(2 + i for i in sorted(range(len(names)), key=names.__getitem__)), 1)
    for entry in section:
        texts = (
            _quote(entry["id"]),
            floats[entry["score"]],
            *map(floats.__getitem__, entry["per_attribute"].values()),
        )
        yield indented % texts, compact % compact_order(texts)


def _excluded(section: list, floats: _OncePerValue) -> Iterator[tuple[str, str]]:
    """Each distinct ``violations`` list is written once, keyed by its
    identity: ``rank`` gives the entries of one failure pattern one list,
    and ``section`` keeps every list alive while it is read, so no key is
    reused. Equal lists that are distinct objects are each written."""
    arrays: dict[int, tuple[str, str]] = {}
    for entry in section:
        violations = entry["violations"]
        if id(violations) not in arrays:
            arrays[id(violations)] = _arrays(
                [_VIOLATION.write(_texts(v.values(), floats)) for v in violations], 3
            )
        indented, compact = arrays[id(violations)]
        cid = _quote(entry["id"])
        yield _EXCLUDED.write((cid, indented), (cid, compact))


_SECTIONS = {"micro_clusters": _micro_clusters, "ranking": _ranking, "excluded": _excluded}
# Bulk entries per written chunk.
_BATCH = 256


def _report_chunks(body: dict, timestamp: str | None = None) -> Iterator[str]:
    """``report_json``'s text as an iterator of chunks.

    ``meta`` comes first but holds the digest of the whole body, so the text
    is made in two passes. This call runs the first one: it walks the body
    in sorted-key order, feeds each bulk entry's compact text to the digest
    as it is made and keeps only its indented text, then writes ``meta`` and
    ``deadlock``. Everything that can fail has run when it returns. The
    iterator, the second pass, joins the held texts in file order, a batch
    of entries per chunk, and drops each section once it is written."""
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    floats = _OncePerValue(json.dumps)
    held = {}
    digest = hashlib.sha256(b"{")
    for i, key in enumerate(sorted(body)):
        digest.update(f'{"," if i else ""}{_quote(key)}:'.encode("utf-8"))
        if key not in _SECTIONS:
            digest.update(json.dumps(body[key], **_COMPACT).encode("utf-8"))
            continue
        entries = held[key] = []
        digest.update(b"[")
        for indented, compact in _SECTIONS[key](body[key], floats):
            digest.update(f'{"," if entries else ""}{compact}'.encode("utf-8"))
            entries.append(indented)
        digest.update(b"]")
    digest.update(b"}")
    meta = {**body["meta"], "report_digest": digest.hexdigest(), "timestamp": timestamp}
    texts = {
        # a nested value's stdlib text, moved one level in
        key: held[key] if key in held else json.dumps(value, indent=2).replace("\n", "\n  ")
        for key, value in {**body, "meta": meta}.items()
    }
    return _joined(texts)


def _joined(texts: dict) -> Iterator[str]:
    """The report text of its sections' ``texts`` (a section's indented
    text, or a bulk section's list of indented entries), in their order."""
    for i, key in enumerate(list(texts)):
        value = texts.pop(key)
        head = f'{"," if i else "{"}\n  {_quote(key)}: '
        if isinstance(value, str):
            yield head + value
        elif not value:
            yield head + "[]"
        else:
            for start in range(0, len(value), _BATCH):
                yield (head + "[" if start == 0 else ",") + "\n    " + ",\n    ".join(
                    value[start : start + _BATCH]
                )
            yield "\n  ]"
    yield "\n}\n"


def report_json(body: dict, *, timestamp: str | None = None) -> str:
    """The report text of a ``rank`` body, with ``report_digest`` and the
    timestamp (RFC 3339 UTC) added to ``meta``. The timestamp is the only
    run-to-run varying field and stays out of the digest; ``body`` itself is
    left unchanged.

    The text is ``json.dumps(report, indent=2)`` plus a newline, byte for
    byte, and ``report_digest`` is the sha256 of the body's
    ``json.dumps(sort_keys=True, separators=(",", ":"))``. Only ``meta`` and
    ``deadlock`` go through ``json.dumps`` whole: the bulk sections are
    written entry by entry from templates of the shape ``rank`` gives them,
    so a body passed here must keep that shape (the keys of its entries).
    It is the joined form of ``_report_chunks``, which writes ``--out``."""
    return "".join(_report_chunks(body, timestamp))
