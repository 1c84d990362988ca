"""Command-line surface: cluster, evaluate, check, verify.

Exit codes: 0 success, 1 input error, 2 deadlock, 3 assignment deadlock,
4 oracle capacity exceeded, 5 consistency property violation. All randomness
flows from --seed; identical inputs and flags reproduce identical outputs
(the report timestamp is the sole isolated exception).
"""

import argparse
import json
import os
import sys
from typing import Iterable

from .cbc import CBCConfig, run_pipeline
from .constraints import detect_deadlock
from .errors import AssignmentDeadlockError, CapacityError, CBCError, DomainError, ParseError, _cut
from .evaluate import _report_chunks, deadlock_to_dict, rank, round_floats
from .ingest import _as_number, bind_and_validate, parse_constraint_spec, parse_dataset
from .kmeans import KMeansConfig, _distance_weights, choose_k, run_kmeans, sse, weight_vector
from .model import ConstraintSpec
from .oracle import brute_force_feasible_exists, brute_force_min_sse

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DEADLOCK = 2
EXIT_ASSIGNMENT = 3
EXIT_CAPACITY = 4
EXIT_PROPERTY = 5


def _use_color() -> bool:
    return os.environ.get("CBC_NO_COLOR") is None and sys.stderr.isatty()


def _style(text: str, code: str) -> str:
    return f"\x1b[{code}m{text}\x1b[0m" if _use_color() else text


def _fail(message: str) -> int:
    print(f"{_style('error', '31')}: {message}", file=sys.stderr)
    return EXIT_INPUT


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"cannot read {path}: not UTF-8 ({exc.reason} at byte offset {exc.start})"
        ) from exc


def _emit(chunks: Iterable[str], out: str | None):
    """Write the text ``chunks`` to ``out``, or to stdout."""
    if not out:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise CBCError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _emit_json(payload, out: str | None):
    _emit([json.dumps(round_floats(payload), indent=2) + "\n"], out)


def _load_weights(path: str | None, to_vector) -> dict | None:
    """The weights file at ``path``, refused before any run if ``to_vector`` refuses it."""
    if path is None:
        return None
    try:
        data = json.loads(_read(path))
    except (ValueError, RecursionError) as exc:  # bad syntax, huge integer or deep nesting
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: weights must be an object of attribute -> number")
    weights = {k: _as_number(v, f"{path}:{_cut(k)}") for k, v in data.items()}
    try:
        to_vector(weights)
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return weights


def _bound_inputs(args) -> tuple:
    """The bound dataset and spec, and the run's k: --k or the spec's, which must agree."""
    dataset = parse_dataset(_read(args.data))
    spec = (
        parse_constraint_spec(_read(args.constraints))
        if getattr(args, "constraints", None)
        else ConstraintSpec()
    )
    if args.k is not None and spec.k is not None and spec.k != args.k:
        raise ParseError(f"--k {args.k} conflicts with k={spec.k} in the constraint spec")
    k = spec.k if args.k is None else args.k
    report = bind_and_validate(dataset, spec, k)
    if not report.ok:
        raise ParseError(report.summary())
    for locator, message in report.warnings:
        print(f"{_style('warning', '33')}: {locator}: {message}", file=sys.stderr)
    return dataset, spec, k


def _cmd_cluster(args) -> int:
    dataset, _, k = _bound_inputs(args)
    weights = _load_weights(args.weights, lambda w: _distance_weights(dataset, w))
    config = KMeansConfig(k=k, seed=args.seed, restarts=args.restarts)
    clustering = run_kmeans(dataset, config, weights)
    _emit_json(
        {
            "k": clustering.k,
            "seed": clustering.seed,
            "iterations": clustering.iterations,
            "sse": clustering.sse,
            "attributes": list(dataset.schema.names),
            "assignment": clustering.assignment,
            "centroids": clustering.centroids.tolist(),
        },
        args.out,
    )
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    dataset, spec, k = _bound_inputs(args)
    weights = _load_weights(args.weights, lambda w: weight_vector(dataset.schema, w))
    if k is None:
        k = choose_k(dataset, args.seed)
    result = run_pipeline(dataset, spec, CBCConfig(kmeans=KMeansConfig(k=k, seed=args.seed)))
    report = rank(result, dataset, weights)
    _emit(_report_chunks(report), args.out)
    if result.aborted:
        print(_style("deadlock: run aborted at bind time", "33"), file=sys.stderr)
        return EXIT_DEADLOCK
    return EXIT_OK


def _cmd_check(args) -> int:
    dataset, spec, k = _bound_inputs(args)
    report = detect_deadlock(spec, dataset, k)
    _emit_json(deadlock_to_dict(report), None)
    return EXIT_DEADLOCK if report.deadlocked else EXIT_OK


def _cmd_verify(args) -> int:
    dataset, spec, k = _bound_inputs(args)
    # The oracle runs first, so an input over its capacity exits 4 before the engine runs.
    oracle_result = brute_force_min_sse(dataset, k, spec)
    oracle_sse = oracle_result[1] if oracle_result is not None else None

    checks: list[tuple[str, bool, str]] = []
    weights = spec.distance_weights
    config = KMeansConfig(k=k, seed=args.seed, restarts=args.restarts)
    engine_status = "bind-deadlock"
    if spec.has_assignment_constraints:
        try:
            clustering = run_pipeline(dataset, spec, CBCConfig(kmeans=config)).clustering
        except AssignmentDeadlockError:
            clustering = None
            engine_status = "assignment-deadlock"
    else:
        clustering = run_kmeans(dataset, config, weights)
    engine_sse = None
    if clustering is not None:
        engine_sse = clustering.sse
        recomputed_ok = abs(sse(dataset, clustering, weights) - engine_sse) <= 1e-9
        checks.append(("sse-recompute", recomputed_ok, f"stored {engine_sse:.12g}"))

    rows = [
        ("engine SSE", f"{engine_sse:.12g}" if engine_sse is not None else engine_status),
        ("oracle SSE", f"{oracle_sse:.12g}" if oracle_sse is not None else "infeasible"),
    ]
    if engine_sse is not None and oracle_sse is not None:
        # Engine and oracle add up SSE in other orders; n * sum(w) bounds both.
        slack = 1e-12 * len(dataset) * float(_distance_weights(dataset, weights).sum())
        checks.append(
            (
                "engine-not-below-oracle",
                engine_sse >= oracle_sse - slack,
                f"engine {engine_sse:.12g} vs oracle {oracle_sse:.12g}",
            )
        )
        gap = 0.0 if oracle_sse == 0 else (engine_sse - oracle_sse) / oracle_sse * 100
        rows.append(("gap", f"{gap:.2f}%"))
    if engine_sse is not None and oracle_sse is None:
        checks.append(
            (
                "engine-not-beyond-oracle",
                False,
                "engine produced a clustering but the oracle proves the spec infeasible",
            )
        )

    if args.constraints:
        deadlock = detect_deadlock(spec, dataset, k)
        exists, _, reason = brute_force_feasible_exists(spec, dataset, k)
        agree = deadlock.deadlocked == (not exists)
        checks.append(
            (
                "feasibility-agreement",
                agree,
                f"engine {'deadlock' if deadlock.deadlocked else 'feasible'}, "
                f"oracle {'feasible' if exists else 'infeasible'} ({reason})",
            )
        )
        rows.append(
            (
                "feasibility",
                f"engine={'no-deadlock' if not deadlock.deadlocked else 'deadlock'} "
                f"oracle={'feasible' if exists else 'infeasible'} "
                f"agree={'yes' if agree else 'no'}",
            )
        )
        if engine_status == "assignment-deadlock" and exists:
            rows.append(
                (
                    "note",
                    "greedy assignment found no slot though a solution exists "
                    "(known greedy limitation, not a violation)",
                )
            )

    width = max(len(label) for label, _ in rows) + 2
    for label, value in rows:
        print(f"{label + ':':<{width}} {value}")
    all_ok = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        mark = _style("PASS", "32") if ok else _style("FAIL", "31")
        print(f"{mark} {name}: {detail}")
    return EXIT_OK if all_ok else EXIT_PROPERTY


def _seed_type(value: str) -> int:
    seed = int(value)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return seed


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, an input error: argparse's own 2 means deadlock here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cbceval",
        description="Constraint-based clustering and evaluation of SaaS candidates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cluster = sub.add_parser("cluster", help="baseline seeded k-means, JSON output")
    cluster.add_argument("--data", required=True, help="dataset CSV path")
    cluster.add_argument("--k", required=True, type=int, help="cluster count")
    cluster.add_argument("--seed", required=True, type=_seed_type, help="RNG seed")
    cluster.add_argument("--restarts", type=int, default=1, help="best-of-N restarts")
    cluster.add_argument("--weights", help="distance weights JSON path")
    cluster.add_argument("--out", help="write JSON here instead of stdout")
    cluster.set_defaults(func=_cmd_cluster)

    evaluate = sub.add_parser(
        "evaluate", help="full pipeline plus ranked evaluation report"
    )
    evaluate.add_argument("--data", required=True, help="dataset CSV path")
    evaluate.add_argument("--constraints", required=True, help="constraint spec JSON path")
    evaluate.add_argument("--weights", help="scoring weights JSON path")
    evaluate.add_argument("--k", type=int, help="cluster count (default: spec k or silhouette pick)")
    evaluate.add_argument("--seed", type=_seed_type, default=0, help="RNG seed (default 0)")
    evaluate.add_argument("--out", help="write the report here instead of stdout")
    evaluate.set_defaults(func=_cmd_evaluate)

    check = sub.add_parser("check", help="bind inputs and detect deadlocks only")
    check.add_argument("--data", required=True, help="dataset CSV path")
    check.add_argument("--constraints", required=True, help="constraint spec JSON path")
    check.add_argument("--k", type=int, help="cluster count (default: spec k)")
    check.set_defaults(func=_cmd_check)

    verify = sub.add_parser("verify", help="engine vs exhaustive oracle comparison")
    verify.add_argument("--data", required=True, help="dataset CSV path")
    verify.add_argument("--constraints", help="constraint spec JSON path")
    verify.add_argument("--k", required=True, type=int, help="cluster count")
    verify.add_argument("--seed", type=_seed_type, default=0, help="RNG seed (default 0)")
    verify.add_argument("--restarts", type=int, default=50, help="engine restarts (default 50)")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        return _fail(str(exc))
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except AssignmentDeadlockError as exc:
        print(f"{_style('assignment deadlock', '33')}: {exc}", file=sys.stderr)
        return EXIT_ASSIGNMENT
    except CBCError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
