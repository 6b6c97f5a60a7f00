"""Tests of the benchmark itself: generators, span arithmetic, metric names.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


# -- generators -----------------------------------------------------------


def test_generators_repeat_under_the_seed():
    assert np.array_equal(workloads.uniform_data(5, 100, 3),
                          workloads.uniform_data(5, 100, 3))
    a, wa = workloads.separable_data(5, 100, 4, 50.0)
    b, wb = workloads.separable_data(5, 100, 4, 50.0)
    assert np.array_equal(a, b) and np.array_equal(wa, wb)
    assert workloads.queries(5, 20, 10) == workloads.queries(5, 20, 10)


def test_generators_change_with_the_seed():
    assert not np.array_equal(workloads.uniform_data(5, 100, 3),
                              workloads.uniform_data(6, 100, 3))
    assert workloads.queries(5, 20, 10) != workloads.queries(6, 20, 10)


@pytest.mark.parametrize("name", ["query-small", "logreg"])
def test_setup_writes_identical_files_for_one_seed(tmp_path, name):
    setup, _ = workloads.WORKLOADS[name]
    sketches = []

    def fake_cli(argv):  # records the sketch commands instead of running them
        sketches.append(argv[3:])
        return 0

    contents = []
    for seed in (3, 3, 4):
        work = tmp_path / f"{seed}-{len(contents)}"
        work.mkdir()
        setup(seed, work, fake_cli)
        contents.append({p.name: p.read_bytes() for p in sorted(work.iterdir())})
    assert contents[0] == contents[1]
    assert contents[0] != contents[2]
    assert all("--map-seed" in argv and "--noise-seed" in argv for argv in sketches)


def test_generated_queries_parse_and_have_truths():
    data = workloads.uniform_data(1, 2000, 10)
    for line in workloads.queries(1, 20, 10):
        assert len(line.split(" and ")) == 3
        assert 0.0 < workloads.query_truth(line, data) < 1.0


def test_rank_auc_matches_pairwise_definition():
    rng = np.random.default_rng(0)
    scores, labels = rng.normal(size=200), rng.integers(0, 2, size=200)
    pos, neg = scores[labels == 1], scores[labels == 0]
    pairwise = (pos[:, None] > neg[None, :]).mean()
    assert workloads.rank_auc(scores, labels) == pytest.approx(pairwise)


# -- spans ----------------------------------------------------------------


def span(i, start, end, parent=None, **counts):
    return {"id": i, "name": f"s{i}", "start": start, "end": end,
            "parent": parent, **counts}


def test_self_time_subtracts_children_once():
    spans = [span(0, 0.0, 10.0), span(1, 1.0, 5.0, 0), span(2, 2.0, 3.0, 1),
             span(3, 6.0, 7.0, 0)]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 5.0, 1: 3.0, 2: 1.0, 3: 1.0})


def test_self_time_counts_overlapping_children_by_union_and_clips():
    spans = [span(0, 0.0, 10.0), span(1, 1.0, 3.0, 0), span(2, 2.0, 4.0, 0),
             span(3, 9.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 3.0 - 1.0)


def test_union_length():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_tracer_links_parents_and_counters():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x * 2, lambda args, r: {"rows": r})
    outer = tracer.wrap("outer", lambda: inner(3) + inner(4))
    assert outer() == 14
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append(s)
    (o,) = by_name["outer"]
    assert [s["parent"] for s in by_name["inner"]] == [o["id"], o["id"]]
    assert sum(s["rows"] for s in by_name["inner"]) == 14
    own = tracing.self_times(tracer.spans)
    # outer spans ticks 0..5, each inner call one tick
    assert own[o["id"]] == pytest.approx(5.0 - 2.0)


def test_tracer_marks_spans_that_raise():
    tracer = tracing.Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap("boom", boom)()
    assert tracer.spans[0]["error"] == "RuntimeError"
    assert tracer.spans[0]["end"] is not None


def test_span_table_sums_calls_total_and_self():
    spans = [span(0, 0.0, 10.0), span(1, 1.0, 5.0, 0), span(2, 6.0, 7.0, 0)]
    spans[2]["name"] = "s1"  # a second call of s1 under s0
    table = tracing.span_table([spans, spans])
    assert table["s0"] == pytest.approx([2, 20.0, 10.0])
    assert table["s1"] == pytest.approx([4, 10.0, 10.0])


def test_layer_metrics_sum_total_self_calls_and_counters():
    spans = [
        {"id": 0, "name": "estimator.solve", "start": 0.0, "end": 4.0, "parent": None},
        {"id": 1, "name": "estimator.cho_factor", "start": 1.0, "end": 2.0,
         "parent": 0, "flops": 10.0},
        {"id": 2, "name": "estimator.solve", "start": 5.0, "end": 6.0, "parent": None},
    ]
    m = tracing.layer_metrics([spans, spans])
    assert m["estimator.solves"] == 4
    assert m["estimator.solve_s"] == pytest.approx(2 * (3.0 + 1.0))
    assert m["estimator.factorize_s"] == pytest.approx(2.0)
    assert m["estimator.factorize_flops_computed"] == pytest.approx(20.0)
    assert m["feature_maps.gram_calls"] == 0


def test_traced_cli_records_layer_spans(tmp_path):
    data = workloads.uniform_data(2, 50, 3)
    workloads.write_csv(tmp_path / "d.csv", data)
    spans_path = tmp_path / "spans.json"
    src = HERE.parent / "src"
    proc = subprocess.run(
        [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), "--",
         "sketch", str(tmp_path / "d.csv"), "--out", str(tmp_path / "s.json"),
         "--map", "hist", "--bins", "5", *workloads.SEED_FLAGS],
        capture_output=True, env={"PYTHONPATH": str(src), "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    m = tracing.layer_metrics([json.loads(spans_path.read_text())])
    assert m["cli.commands"] == 1
    assert m["cli.rows_read"] == 50
    assert m["feature_maps.encode_rows"] == 50
    assert m["sketch.file_bytes"] == (tmp_path / "s.json").stat().st_size
    assert m["cli.import_s"] > 0 and m["cli.sketch.self_s"] > 0


# -- metric names -----------------------------------------------------------


def declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_end_to_end_metrics_match_benchmark_json():
    assert declared("end_to_end") == run.END_TO_END
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_per_layer_metrics_match_benchmark_json():
    emitted = {name: unit for name, (_, _, unit) in tracing.LAYER_METRICS.items()}
    emitted.update(run.TRACE_METRICS)
    assert declared("per_layer") == emitted


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for section in ("end_to_end", "per_layer")
             for m in BENCHMARK[section]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) and len(n) <= 64 for n in names)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
