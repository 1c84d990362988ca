"""``evaluate`` writes its report in chunks, after a first pass that makes
the digest: the same bytes as ``report_json``, no whole-report text held,
and nothing written when the first pass fails."""

import tracemalloc

import numpy as np
import pytest

from cbceval import cli, evaluate, fixtures

from helpers import reference_report_json

TIMESTAMP = "2000-01-01T00:00:00Z"


@pytest.fixture(scope="module")
def large_inputs(tmp_path_factory):
    """A 4,000-candidate dataset whose report is over 1 MB, with the sample
    spec (threshold 6), so it ranks and excludes thousands of candidates."""
    rng = np.random.default_rng(3)
    header = fixtures.sample_dataset_text().splitlines()[0]
    rows = rng.integers(1, 11, size=(4000, header.count(",")))
    lines = [header, *(f"S{i:05d}," + ",".join(map(str, row)) for i, row in enumerate(rows.tolist()))]
    work = tmp_path_factory.mktemp("large")
    data = work / "data.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    constraints = work / "spec.json"
    constraints.write_text(fixtures.sample_constraints_text(), encoding="utf-8")
    return data, constraints


def evaluate_argv(paths, *extra):
    data, constraints = paths
    return ["evaluate", "--data", str(data), "--constraints", str(constraints), "--k", "8", *extra]


def test_report_writing_peak_stays_under_twice_the_report(large_inputs, tmp_path, monkeypatch):
    # Tracing starts once rank has built the body, so the peak is what
    # writing the report takes on top of it.
    def rank_then_trace(*args, **kwargs):
        body = evaluate.rank(*args, **kwargs)
        tracemalloc.start()
        return body

    monkeypatch.setattr(cli, "rank", rank_then_trace)
    out = tmp_path / "report.json"
    try:
        assert cli.main(evaluate_argv(large_inputs, "--out", str(out))) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size >= 1_000_000
    assert peak < 2 * size, f"peak {peak} bytes for a {size}-byte report"


@pytest.mark.parametrize("inputs", ["sample", "large", "aborted"])
def test_out_and_stdout_are_report_json(
    inputs, large_inputs, sample_paths, tmp_path, capsys, monkeypatch
):
    paths = large_inputs if inputs == "large" else sample_paths
    if inputs == "aborted":
        spec = tmp_path / "empty.json"
        spec.write_text('{"feasibility_threshold": 10}', encoding="utf-8")
        paths = (sample_paths[0], spec)
    bodies = []

    def kept_rank(*args, **kwargs):
        bodies.append(evaluate.rank(*args, **kwargs))
        return bodies[-1]

    monkeypatch.setattr(cli, "rank", kept_rank)
    monkeypatch.setattr(cli, "_report_chunks", lambda body: evaluate._report_chunks(body, TIMESTAMP))
    out = tmp_path / "report.json"
    code = 2 if inputs == "aborted" else 0
    assert cli.main(evaluate_argv(paths, "--out", str(out))) == code
    assert cli.main(evaluate_argv(paths)) == code
    stdout = capsys.readouterr().out
    assert bodies[0] == bodies[1]
    expected = evaluate.report_json(bodies[0], timestamp=TIMESTAMP)
    assert out.read_bytes() == expected.encode("utf-8")
    assert stdout == expected
    if inputs == "aborted":
        assert list(bodies[0]) == ["meta", "deadlock"]
    if inputs == "large":
        # every bulk section spans several chunks
        assert min(len(bodies[0][key]) for key in ("ranking", "excluded")) > evaluate._BATCH


@pytest.mark.parametrize("shared", [True, False])
def test_excluded_writes_each_violations_list_once(
    shared, large_inputs, tmp_path, monkeypatch
):
    bodies = []
    monkeypatch.setattr(cli, "rank", lambda *a, **kw: bodies.append(evaluate.rank(*a, **kw)) or bodies[-1])
    assert cli.main(evaluate_argv(large_inputs, "--out", str(tmp_path / "report.json"))) == 0
    body = bodies[0]
    if not shared:
        # equal lists as distinct objects, as a body built elsewhere may hold
        body["excluded"] = [
            {**entry, "violations": [dict(v) for v in entry["violations"]]}
            for entry in body["excluded"]
        ]
    lists = {id(entry["violations"]): entry["violations"] for entry in body["excluded"]}
    assert (len(lists) < len(body["excluded"])) is shared
    calls = []
    write = evaluate._VIOLATION.write
    monkeypatch.setattr(evaluate._VIOLATION, "write", lambda *texts: calls.append(1) or write(*texts))
    assert evaluate.report_json(body, timestamp=TIMESTAMP) == reference_report_json(body, TIMESTAMP)
    assert len(calls) == sum(map(len, lists.values()))


@pytest.mark.parametrize("batch", [1, 2, 3, 4])
def test_chunk_boundaries_do_not_change_the_text(batch, sample_dataset, sample_spec, monkeypatch):
    # The sample's sections hold 4 to 6 entries: batches of 1 to 4 end
    # within a section, on its last entry and past it.
    from cbceval.cbc import CBCConfig, run_pipeline
    from cbceval.kmeans import KMeansConfig

    result = run_pipeline(sample_dataset, sample_spec, CBCConfig(kmeans=KMeansConfig(k=3, seed=42)))
    body = evaluate.rank(result, sample_dataset)
    monkeypatch.setattr(evaluate, "_BATCH", batch)
    assert "".join(evaluate._report_chunks(body, TIMESTAMP)) == reference_report_json(body, TIMESTAMP)


@pytest.mark.parametrize("section", ["micro_clusters", "ranking", "excluded"])
def test_failing_section_writer_leaves_out_alone(section, sample_paths, tmp_path, monkeypatch):
    writer = evaluate._SECTIONS[section]

    def failing(entries, floats):
        yield from writer(entries[:1], floats)
        raise RuntimeError("section writer failed")

    monkeypatch.setitem(evaluate._SECTIONS, section, failing)
    out = tmp_path / "report.json"
    out.write_bytes(b"previous report\n")
    with pytest.raises(RuntimeError, match="section writer failed"):
        cli.main(evaluate_argv(sample_paths, "--out", str(out)))
    assert out.read_bytes() == b"previous report\n"
