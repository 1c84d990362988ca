"""End-to-end benchmark of `cbceval evaluate`.

    python3 perfbench/run.py --workload screen --seed 1 --seconds 30 --trace 0

Run from the repository root. Generates the workload's inputs from --seed,
then runs a closed loop with one client in one process: each operation is one
`evaluate` command through `cbceval.cli.main(argv)` with --out to a scratch
file, and the next starts only when the previous has returned. With
--trace 0 it prints the end-to-end metrics; with --trace 1 it runs the
traced pass of trace_layers.py instead and prints the per-layer metrics. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

import os

# Hold BLAS/OpenMP pools to one thread before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_report, sse_of, without_timestamp
from inputs import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SECONDS_PER_OPERATION = 0.2
CHILD_TIMEOUT_S = 150

# A fresh interpreter that imports the package, runs one operation and
# reports its own peak resident set.
CHILD = """
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from cbceval.cli import main
code = main(sys.argv[2:])
print(json.dumps({"exit": code, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


class Run:
    """One workload's generated inputs, written to a scratch directory."""

    def __init__(self, workload_name: str, seed: int, work: Path):
        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.inputs = generate(self.workload, seed)
        self.work = work
        self.data = work / "data.csv"
        self.spec = work / "spec.json"
        self.out = work / "report.json"
        self.data.write_text(self.inputs.csv_text(), encoding="utf-8")
        self.spec.write_text(self.inputs.spec_text(), encoding="utf-8")
        self.argv = ["evaluate", "--data", str(self.data), "--constraints", str(self.spec), "--seed", "0"]
        if self.workload.k is not None:
            self.argv += ["--k", str(self.workload.k)]
        if self.workload.weights is not None:
            weights = work / "weights.json"
            weights.write_text(json.dumps(self.workload.weights), encoding="utf-8")
            self.argv += ["--weights", str(weights)]

    def evaluate(self) -> tuple[int, float]:
        """One operation; returns its exit code and wall time."""
        from cbceval.cli import main

        gc.collect()
        start = time.perf_counter()
        code = main([*self.argv, "--out", str(self.out)])
        return code, time.perf_counter() - start

    def check(self, report_bytes: bytes) -> list[str]:
        problems, ties = check_report(json.loads(report_bytes), self.inputs, self.workload.k, self.workload.weights)
        if ties:
            print(f"check: {ties} exact score ties ranked out of id order (known fault)", file=sys.stderr)
        return problems


def setup_times(run: Run, min_seconds: float) -> list[float]:
    """Times to read both input files, parse them and bind them, repeated
    until at least ``min_seconds`` have been spent (at least once)."""
    from cbceval import bind_and_validate, parse_constraint_spec, parse_dataset

    times: list[float] = []
    while not times or sum(times) < min_seconds:
        gc.collect()
        start = time.perf_counter()
        dataset = parse_dataset(run.data.read_text(encoding="utf-8"))
        spec = parse_constraint_spec(run.spec.read_text(encoding="utf-8"))
        if not bind_and_validate(dataset, spec).ok:
            raise SystemExit("generated inputs do not bind")
        times.append(time.perf_counter() - start)
    return times


def child_operation(run: Run) -> tuple[int, float, bytes]:
    """Run one operation in a fresh interpreter; exit code, peak RSS in MB
    and the report it wrote."""
    out = run.work / "child-report.json"
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC), *run.argv, "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return proc.returncode, 0.0, b""
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = out.read_bytes() if out.exists() else b""
    return result["exit"], result["maxrss_kb"] / 1024.0, report


def end_to_end(run: Run, seconds: float) -> dict:
    # The fresh-process operation's report is the reference: it is checked
    # in full, and every timed report must equal it apart from the timestamp.
    code, rss_mb, reference = child_operation(run)
    problems = run.check(reference) if code == 0 else [f"fresh-process operation exit code {code}"]
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)
    correct = not problems
    sse = sse_of(json.loads(reference), run.inputs) if correct else 0.0
    reference = without_timestamp(reference)

    # Set-up is timed between operations, so that its median covers the same
    # stretch of time as the operations' and host speed swings of 10 to 30 s
    # weigh on both alike.
    times: list[float] = []
    setup: list[float] = []
    attempted = failed = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        setup += setup_times(run, SETUP_SECONDS_PER_OPERATION)
        code, elapsed = run.evaluate()
        attempted += 1
        if code != 0:
            failed += 1
            continue
        times.append(elapsed)
        if without_timestamp(run.out.read_bytes()) != reference:
            print("check: report differs from the fresh-process operation's", file=sys.stderr)
            correct = False

    n = len(run.inputs.ids)
    metrics = {
        "evaluate_s": (statistics.median(times) if times else 0.0, "s"),
        "cand_per_s": (n * len(times) / sum(times) if times else 0.0, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "sse": (sse, "1"),
    }
    print(
        f"{run.workload.name} seed={run.seed}: {attempted} operations, "
        f"evaluate_s {' '.join(f'{t:.3f}' for t in times)}",
        file=sys.stderr,
    )
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "cbceval" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'cbceval'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args.workload, args.seed, work)
        if args.trace:
            from trace_layers import traced_run

            result = traced_run(run, SRC)
        else:
            result = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
