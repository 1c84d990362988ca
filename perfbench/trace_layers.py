"""Traced pass: where one `evaluate` operation spends its time, by layer.

Spans are recorded from outside the package, around calls into each
module's public functions; nothing inside src/ is instrumented. The pass
replays the evaluate path stage by stage (parse, bind, the silhouette sweep
when k is not given, deadlock check, k-means++ init, Lloyd or constrained
assignment, refine, re-check), runs one `run_pipeline` beside it and
requires both to give the same assignment and feasible set, then ranks and
serializes that result and requires the report to equal the untraced
operation's. Calls made inside `run_kmeans` (the sweep's restarts) are
counted by wrapping `kmeans.kmeans_pp_init`, `kmeans.lloyd` and
`kmeans.silhouette` in the module for the length of the replay.
"""

import json
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from check import without_timestamp

STARTUP_REPEATS = 3


class Tracer:
    """In-memory spans (name, start, end, parent index) and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self._stack.pop()][2] = time.perf_counter()

    def count(self, name: str, amount: int = 1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def seconds(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def wrap(self, module, attr: str, name: str, on_result=None):
        """Replace ``module.attr`` with a spanned, counted call until ``unwrap``."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            self.count(name + "_calls")
            if on_result is not None:
                on_result(result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unwrap(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def startup_seconds(src: Path, root: Path) -> float:
    """Median wall time of a fresh interpreter importing the package."""
    times = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r}); import cbceval"],
            cwd=root,
            check=True,
            timeout=60,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def traced_run(run, src: Path) -> dict:
    from cbceval import CBCConfig, KMeansConfig, cbc, constraints, evaluate, ingest, kmeans, run_pipeline
    from cbceval.rng import child_seed

    problems: list[str] = []
    startup = startup_seconds(src, src.parent)

    code, evaluate_s = run.evaluate()
    op_report = run.out.read_bytes() if code == 0 else b""
    problems += run.check(op_report) if code == 0 else [f"exit code {code}"]

    tracer = Tracer()
    tracer.wrap(kmeans, "kmeans_pp_init", "kmeans.init")
    tracer.wrap(kmeans, "lloyd", "kmeans.lloyd", lambda c: tracer.count("kmeans.lloyd_iterations", c.iterations))
    tracer.wrap(kmeans, "silhouette", "kmeans.silhouette")
    start = time.perf_counter()
    try:
        with tracer.span("ingest.parse_dataset"):
            dataset = ingest.parse_dataset(run.data.read_text(encoding="utf-8"))
        with tracer.span("ingest.parse_spec"):
            spec = ingest.parse_constraint_spec(run.spec.read_text(encoding="utf-8"))
        with tracer.span("ingest.bind"):
            if not ingest.bind_and_validate(dataset, spec).ok:
                problems.append("trace: generated inputs do not bind")
        n = len(dataset)

        k = run.workload.k
        if k is None:
            with tracer.span("kmeans.choose_k"):
                best = -float("inf")
                for candidate_k in range(2, min(8, n - 1) + 1):
                    config = KMeansConfig(k=candidate_k, seed=child_seed(0, candidate_k), restarts=10)
                    score = kmeans.silhouette(dataset, kmeans.run_kmeans(dataset, config, None))
                    if score > best:
                        k, best = candidate_k, score
        with tracer.span("constraints.deadlock"):
            deadlock = constraints.detect_deadlock(spec, dataset, k)
        if deadlock.deadlocked:
            problems.append("trace: bind-time deadlock")

        config = KMeansConfig(k=k, seed=0)
        init = kmeans.kmeans_pp_init(dataset, config, spec.distance_weights)
        if spec.has_assignment_constraints:
            with tracer.span("cbc.assign"):
                clustering = cbc.constrained_assign(dataset, init, spec, config)
            tracer.count("cbc.assign_iterations", clustering.iterations)
        else:
            clustering = kmeans.lloyd(dataset, init, config, spec.distance_weights)
        with tracer.span("cbc.refine"):
            micro = cbc.refine_micro_clusters(clustering, dataset, spec)
        with tracer.span("constraints.recheck"):
            constraints.detect_deadlock(
                spec, dataset, k, stage="post-refinement",
                population=list(micro.feasible_ids()), structural=False,
            )
        traced_s = time.perf_counter() - start
    finally:
        tracer.unwrap()

    result = run_pipeline(dataset, spec, CBCConfig(kmeans=KMeansConfig(k=k, seed=0)))
    if result.clustering.assignment != clustering.assignment:
        problems.append("trace: stage replay and run_pipeline assign differently")
    if result.micro.feasible_ids() != micro.feasible_ids():
        problems.append("trace: stage replay and run_pipeline differ on the feasible set")

    weights = {name: float(v) for name, v in run.workload.weights.items()} if run.workload.weights else None
    start = time.perf_counter()
    with tracer.span("evaluate.rank"):
        report = evaluate.rank(result, dataset, weights)
    with tracer.span("evaluate.report"):
        text = evaluate.report_json(report)
    with tracer.span("cli.emit"):
        run.out.write_text(text, encoding="utf-8")
    traced_s += time.perf_counter() - start
    if run.workload.k is None and op_report and json.loads(op_report)["meta"]["k"] != k:
        problems.append(f"trace: the silhouette sweep picks k={k}, the report has another")
    if without_timestamp(text.encode("utf-8")) != without_timestamp(op_report):
        problems.append("trace: replayed report differs from the operation's report")

    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)
    components = constraints.build_link_components(spec, dataset).components
    metrics = {
        "cli.startup_s": (startup, "s"),
        "ingest.parse_dataset_s": (tracer.seconds("ingest.parse_dataset"), "s"),
        "ingest.bind_s": (tracer.seconds("ingest.bind"), "s"),
        "constraints.deadlock_s": (tracer.seconds("constraints.deadlock"), "s"),
        "constraints.recheck_s": (tracer.seconds("constraints.recheck"), "s"),
        "constraints.components": (len(components), "count"),
        "kmeans.init_s": (tracer.seconds("kmeans.init"), "s"),
        "kmeans.lloyd_s": (tracer.seconds("kmeans.lloyd"), "s"),
        "kmeans.lloyd_iterations": (tracer.counts.get("kmeans.lloyd_iterations", 0), "count"),
        "kmeans.lloyd_calls": (tracer.counts.get("kmeans.lloyd_calls", 0), "count"),
        "kmeans.silhouette_s": (tracer.seconds("kmeans.silhouette"), "s"),
        "kmeans.choose_k_s": (tracer.seconds("kmeans.choose_k"), "s"),
        "cbc.assign_s": (tracer.seconds("cbc.assign"), "s"),
        "cbc.assign_iterations": (tracer.counts.get("cbc.assign_iterations", 0), "count"),
        "cbc.refine_s": (tracer.seconds("cbc.refine"), "s"),
        "evaluate.rank_s": (tracer.seconds("evaluate.rank"), "s"),
        "evaluate.report_s": (tracer.seconds("evaluate.report"), "s"),
        "evaluate.report_bytes": (len(text.encode("utf-8")), "bytes"),
        "trace.overhead_s": (traced_s - evaluate_s, "s"),
    }
    return {"correct": not problems, "attempted": 1, "failed": int(code != 0), "metrics": metrics}
