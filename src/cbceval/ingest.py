"""Parsing and validation of dataset CSV and constraint-spec JSON files.

Datasets are CSV (first column ``id``, a ``constraints`` column, every other
column a rating attribute in header order). Constraint specs are JSON. All
parse failures raise :class:`ParseError` with a row/field locator; cross-file
consistency problems are collected into a :class:`ValidationReport` instead.
"""

import csv
import io
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from itertools import chain, compress, count, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ParseError, _cut, _shown
from .kmeans import _distance_weights
from .model import (
    AttributeSchema,
    CandidateDataset,
    ConstraintSpec,
    ExistentialRule,
    SCALE_MAX,
    SCALE_MIN,
    UserConstraintSpec,
    _first_invalid,
)

# The spec format is declared by the dataclasses: their fields, in order.
_SPEC_KEYS = tuple(f.name for f in fields(ConstraintSpec))
_USER_FIELDS = fields(UserConstraintSpec)
_USER_KEYS = tuple(f.name for f in _USER_FIELDS)
_USER_REQUIRED = tuple(f.name for f in _USER_FIELDS if f.default is MISSING)

_RULE_KEYS = ("attribute", "op", "threshold", "min_count")


@dataclass
class ValidationReport:
    """Bind-time findings; the input is accepted iff ``errors`` is empty."""

    errors: list[tuple[str, str]] = field(default_factory=list)
    warnings: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def error(self, locator: str, message: str):
        self.errors.append((locator, message))

    def warn(self, locator: str, message: str):
        self.warnings.append((locator, message))

    def summary(self) -> str:
        lines = [f"{loc}: {msg}" for loc, msg in self.errors]
        lines += [f"{loc}: warning: {msg}" for loc, msg in self.warnings]
        return "\n".join(lines) if lines else "ok"


class _Table(NamedTuple):
    """A dataset CSV read up to its data: the checked header and the data
    records, blank ones dropped, each with its row number in the file."""

    schema: AttributeSchema
    header: list[str]
    columns: list[int]  # the attribute columns in header order, then the constraints column
    numbers: list[int]
    records: list[list[str]]


def _header(cells: list[str]) -> tuple[AttributeSchema, list[str], list[int]]:
    """The checked header record: its schema, its stripped cells and its
    columns, the attribute columns in header order, then the constraints
    column."""
    header = [cell.strip() for cell in cells]
    if not header or header[0].lower() != "id":
        raise ParseError("first column must be 'id'", locator="header")
    constraints_cols = [i for i, name in enumerate(header) if name.lower() == "constraints"]
    if not constraints_cols:
        raise ParseError("missing 'constraints' column", locator="header")
    if len(constraints_cols) > 1:
        raise ParseError("duplicate 'constraints' column", locator="header")
    constraints_col = constraints_cols[0]
    attr_cols = [
        i for i in range(1, len(header)) if i != constraints_col
    ]
    if not attr_cols:
        raise ParseError("dataset needs at least one rating column", locator="header")
    names = []
    for i in attr_cols:
        name = header[i]
        if not name:
            raise ParseError(f"empty attribute name in column {i + 1}", locator="header")
        if name in names:
            raise ParseError(f"duplicate column {_shown(name)}", locator="header")
        names.append(name)

    try:
        schema = AttributeSchema(tuple(names))
    except DomainError as exc:
        raise ParseError(str(exc), locator="header") from exc
    return schema, header, [*attr_cols, constraints_col]


def _read_table(text: str) -> _Table:
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}") from exc
    # Records are numbered before blank ones are dropped, so a locator
    # ``row N`` names the file's N-th record.
    kept = list(map(str.strip, map("".join, rows)))
    numbers = list(compress(count(1), kept))
    records = list(compress(rows, kept))
    if not records:
        raise ParseError("missing header", locator="header")
    return _Table(*_header(records[0]), numbers[1:], records[1:])


def _split_columns(values: np.ndarray, n: int, columns: list[int]):
    """The ratings and constraints columns of the n rows of rating cells
    in ``values``, which are in file order."""
    values = values.reshape(n, len(columns))[:, [col - 1 for col in columns]]
    return values[:, :-1], values[:, -1]


def _read_plain(text: str) -> CandidateDataset | None:
    """The dataset in ``text`` if the text is plain and valid, else None.

    A text is plain when it has no quote, no NUL and no line longer than
    ``csv.field_size_limit()``: ``csv.reader`` then splits it on commas and
    line breaks alone, so one ``str.split`` finds the same cells without a
    list per record. Every line must have the header's width. A blank
    record has a blank id, which the constructor rejects, so none gets
    through.
    """
    if '"' in text or "\0" in text:
        return None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # the line break that ends the last record
    if not lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        schema, header, columns = _header(lines[0].split(","))
    except ParseError:
        return None
    width = len(header)
    if set(map(str.count, lines, repeat(","))) != {width - 1}:
        return None
    cells = ",".join(lines).split(",")
    ids = list(map(str.strip, cells[width::width]))
    del cells[::width]
    del cells[: width - 1]
    try:
        values = np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
        return CandidateDataset(schema, ids, *_split_columns(values, len(ids), columns))
    except (ValueError, DomainError):
        return None


def parse_dataset(csv_text: str) -> CandidateDataset:
    """Parse dataset CSV text into a validated :class:`CandidateDataset`.

    Accepts LF, CRLF or CR line endings and a leading BOM. Column order
    defines attribute order, so centroid vectors are reproducible from the
    file alone. Ratings lie on the fixed scale ``SCALE_MIN``..``SCALE_MAX``.

    A plain text, with no quote, no NUL and no line longer than
    ``csv.field_size_limit()``, is read with one ``str.split`` into cells.
    Every other text, and a plain one that is not a valid dataset, is read
    record by record with ``csv.reader``; that path alone raises, so every
    error text and locator comes from it.

    The parser checks only what needs the text: each record's cell count,
    and one ``float`` pass of the rating cells in which a cell that is not a
    number reads as NaN. :class:`CandidateDataset` makes the one validity
    pass over ids and ranges. Only on a failure does the parser ask that
    pass for the earliest bad row and column, to name them in its error.
    """
    text = csv_text.lstrip("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    dataset = _read_plain(text)
    if dataset is not None:
        return dataset
    table = _read_table(text)
    records, width = table.records, len(table.header)
    # Records from the first with a wrong cell count on are not read.
    wrong = list(map(width.__ne__, map(len, records)))
    n = wrong.index(True) if True in wrong else len(records)
    rows = records[:n]
    ids = list(map(str.strip, map(itemgetter(0), rows)))
    # float() skips the same surrounding whitespace as str.strip().
    cells = chain.from_iterable(map(itemgetter(slice(1, None)), rows))
    try:
        values = np.fromiter(map(float, cells), dtype=np.float64)
    except ValueError:
        values = np.array([_float_or_nan(cell) for row in rows for cell in row[1:]])
    ratings, constraints = _split_columns(values, n, table.columns)
    if n == len(records):
        try:
            return CandidateDataset(table.schema, ids, ratings, constraints)
        except DomainError:
            pass
    fault = _first_invalid(table.schema, ids, ratings, constraints)
    if fault is None:
        got = len(records[n])
        raise ParseError(f"expected {width} cells, got {got}", f"row {table.numbers[n]}")
    row, column, _ = fault
    if column is None:  # stripped ids can only be empty or repeated
        message = f"duplicate id {_cut(ids[row])}" if ids[row] else "empty id"
        raise ParseError(message, locator=f"row {table.numbers[row]}")
    col = table.columns[column]
    raw = rows[row][col].strip()
    locator = f"row {_cut(ids[row])}, column {_cut(table.header[col])}"
    try:
        float(raw)
    except ValueError:
        raise ParseError(f"not a number: {_shown(raw)}", locator=locator) from None
    raise ParseError(
        f"rating {_cut(raw)} out of range [{SCALE_MIN:g}, {SCALE_MAX:g}]", locator=locator
    )


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


class _OncePerValue(dict):
    """``fn`` of floats, memoised: ``memo[v]`` computes ``fn(v)`` once per
    distinct value. Only floats may be looked up, since ``1 == 1.0`` would
    share an entry. So would ``0.0 == -0.0``: zeros are kept under
    ``(value, sign)`` keys instead."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, value: float):
        if value:
            out = self[value] = self.fn(value)
            return out
        key = (value, math.copysign(1.0, value))
        if key not in self:
            self[key] = self.fn(value)
        return self[key]

    def of_array(self, values: np.ndarray) -> list:
        """``memo[v]`` for every float in ``values``, as nested lists of its
        shape. Each distinct bit pattern is looked up once and no float
        object is made per element."""
        values = np.ascontiguousarray(values, dtype=np.float64)
        bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
        out = np.array([self[v] for v in bits.view(np.float64).tolist()], dtype=object)
        return out[inverse.reshape(values.shape)].tolist()


def _rating_text(value: float) -> str:
    """12 significant digits where they read back exactly; repr always does."""
    text = format(value, ".12g")
    return text if float(text) == value else repr(value)


def serialize_dataset(dataset: CandidateDataset) -> str:
    """Canonical CSV for a dataset; ``parse_dataset`` round-trips it exactly.
    Ids and names holding a comma, quote or line break are quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", *dataset.schema.names, "constraints"])
    columns = np.vstack((dataset.ratings.T, dataset.constraints_ratings))
    writer.writerows(zip(dataset.ids(), *_OncePerValue(_rating_text).of_array(columns)))
    return out.getvalue()


def _reject_bool(value, locator: str):
    if isinstance(value, bool):
        raise ParseError("expected a number, got a boolean", locator=locator)


def _as_int(value, locator: str) -> int:
    _reject_bool(value, locator)
    if not isinstance(value, int):
        raise ParseError(f"expected an integer, got {_shown(value)}", locator=locator)
    return value


def _as_number(value, locator: str) -> float:
    """A finite JSON number as a float. Python's json accepts NaN and
    +-Infinity, and an integer too large for a float overflows to inf."""
    _reject_bool(value, locator)
    if not isinstance(value, (int, float)):
        raise ParseError(f"expected a number, got {_shown(value)}", locator=locator)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"expected a finite number, got {number!r}", locator=locator)
    return number


def _check_keys(raw: dict, known, required, locator: str | None = None):
    for key in raw:
        if key not in known:
            raise ParseError(f"unknown field {_shown(key)}", locator=locator)
    for key in required:
        if key not in raw:
            raise ParseError(f"required field {key!r} missing", locator=locator)


def _parse_pairs(raw, locator: str) -> list[tuple[str, str]]:
    if not isinstance(raw, list):
        raise ParseError("expected an array of id pairs", locator=locator)
    pairs = []
    for i, entry in enumerate(raw):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(x, str) and x for x in entry)
        ):
            raise ParseError(
                "each pair must be a 2-element array of ids", locator=f"{locator}[{i}]"
            )
        pairs.append((entry[0], entry[1]))
    return pairs


def _parse_rules(raw, locator: str) -> list[ExistentialRule]:
    if not isinstance(raw, list):
        raise ParseError("expected an array of rules", locator=locator)
    rules = []
    for i, entry in enumerate(raw):
        loc = f"{locator}[{i}]"
        if not isinstance(entry, dict):
            raise ParseError("expected a rule object", locator=loc)
        _check_keys(entry, _RULE_KEYS, _RULE_KEYS, loc)
        attribute = entry["attribute"]
        if not isinstance(attribute, str) or not attribute:
            raise ParseError("attribute must be a non-empty string", locator=loc)
        threshold = _as_number(entry["threshold"], f"{loc}.threshold")
        min_count = _as_int(entry["min_count"], f"{loc}.min_count")
        try:
            rules.append(ExistentialRule(attribute, entry["op"], threshold, min_count))
        except DomainError as exc:
            raise ParseError(str(exc), locator=loc) from exc
    return rules


def _parse_user_spec(raw, locator: str) -> UserConstraintSpec:
    if not isinstance(raw, dict):
        raise ParseError("expected an object", locator=locator)
    _check_keys(raw, _USER_KEYS, _USER_REQUIRED, locator)
    kwargs = {}
    # String fields are checked first, then numbers in declaration order.
    for f in sorted(_USER_FIELDS, key=lambda f: f.type is not str):
        if f.name not in raw:
            continue
        value, loc = raw[f.name], f"{locator}.{f.name}"
        if f.type is str:
            if not isinstance(value, str):
                raise ParseError(f"{f.name} must be a string", locator=loc)
            kwargs[f.name] = value
        else:
            kwargs[f.name] = (_as_int if f.type is int else _as_number)(value, loc)
    try:
        return UserConstraintSpec(**kwargs)
    except DomainError as exc:
        raise ParseError(str(exc), locator=locator) from exc


def parse_constraint_spec(json_text: str) -> ConstraintSpec:
    """Parse constraint-spec JSON into a :class:`ConstraintSpec`.

    Unknown fields are rejected. Omitted optional fields stay absent; the
    feasibility threshold alone defaults (to the scale midpoint 5.5).

    The parser checks JSON shape and types; the dataclasses check every
    domain rule, and their DomainError is raised as a ParseError located at
    its rule or ``user_spec``. ``bind_and_validate`` bounds k by n.
    """
    try:
        data = json.loads(json_text)
    except (ValueError, RecursionError) as exc:  # bad syntax, huge integer or deep nesting
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("top-level value must be an object")
    _check_keys(data, _SPEC_KEYS, ())

    kwargs: dict = {}
    if "must_link" in data:
        kwargs["must_link"] = _parse_pairs(data["must_link"], "must_link")
    if "cannot_link" in data:
        kwargs["cannot_link"] = _parse_pairs(data["cannot_link"], "cannot_link")
    if "distance_weights" in data:
        raw = data["distance_weights"]
        if not isinstance(raw, dict):
            raise ParseError("expected an object", locator="distance_weights")
        kwargs["distance_weights"] = {
            name: _as_number(v, f"distance_weights.{_cut(name)}") for name, v in raw.items()
        }
    for key in ("k", "min_cluster_size", "max_cluster_size"):
        if key in data:
            kwargs[key] = _as_int(data[key], key)
    if "existential" in data:
        kwargs["existential"] = tuple(_parse_rules(data["existential"], "existential"))
    if "feasibility_threshold" in data:
        kwargs["feasibility_threshold"] = _as_number(
            data["feasibility_threshold"], "feasibility_threshold"
        )
    if "user_spec" in data:
        kwargs["user_spec"] = _parse_user_spec(data["user_spec"], "user_spec")

    try:
        return ConstraintSpec(**kwargs)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


def constraint_spec_to_dict(spec: ConstraintSpec) -> dict:
    """JSON-ready dict mirroring the parse format (absent fields omitted)."""
    out: dict = {}
    if spec.must_link:
        out["must_link"] = [list(p) for p in spec.must_link]
    if spec.cannot_link:
        out["cannot_link"] = [list(p) for p in spec.cannot_link]
    if spec.distance_weights is not None:
        out["distance_weights"] = dict(sorted(spec.distance_weights.items()))
    for key in ("k", "min_cluster_size", "max_cluster_size"):
        value = getattr(spec, key)
        if value is not None:
            out[key] = value
    if spec.existential:
        out["existential"] = [
            {key: getattr(r, key) for key in _RULE_KEYS} for r in spec.existential
        ]
    out["feasibility_threshold"] = spec.feasibility_threshold
    if spec.user_spec is not None:
        out["user_spec"] = {
            key: value
            for key in _USER_KEYS
            if (value := getattr(spec.user_spec, key)) is not None
        }
    return out


def bind_and_validate(
    dataset: CandidateDataset, spec: ConstraintSpec, k: int | None = None
) -> ValidationReport:
    """Cross-check a parsed spec against a parsed dataset, and the run's
    cluster count ``k`` (the spec's when not given) against the candidate
    count: it must lie in [1, n].

    Collects every failure rather than stopping at the first.
    """
    report = ValidationReport()
    names = set(dataset.schema.names)

    for label in ("must_link", "cannot_link"):
        for i, (a, b) in enumerate(getattr(spec, label)):
            for cid in (a, b):
                if cid not in dataset.row_of:
                    report.error(f"{label}[{i}]", f"unknown id {_cut(cid)}")

    if spec.distance_weights is not None:
        unknown = [name for name in spec.distance_weights if name not in names]
        for name in unknown:
            report.error("distance_weights", f"unknown attribute {_shown(name)}")
        if not unknown:
            # Unlisted attributes weigh 1: only the full vector shows a zero or overflowing sum.
            try:
                _distance_weights(dataset, spec.distance_weights)
            except DomainError as exc:
                report.error("distance_weights", str(exc))

    for i, rule in enumerate(spec.existential):
        if rule.attribute not in names:
            report.error(f"existential[{i}]", f"unknown attribute {_shown(rule.attribute)}")
        if rule.min_count == 0:
            report.warn(f"existential[{i}]", "min_count 0 makes the rule vacuous")

    k = spec.k if k is None else k
    if k is not None and k < 1:
        report.error("k", f"k must be at least 1, got {k}")
    elif k is not None and k > len(dataset):
        report.error("k", "k exceeds candidate count")

    if not SCALE_MIN <= spec.feasibility_threshold <= SCALE_MAX:
        report.error(
            "feasibility_threshold",
            f"threshold {spec.feasibility_threshold:g} outside rating scale "
            f"[{SCALE_MIN:g}, {SCALE_MAX:g}]",
        )

    return report
