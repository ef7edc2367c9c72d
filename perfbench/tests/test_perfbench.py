"""Tests of the benchmark's own code, at sizes far below the benchmark's.

    python3 -m pytest -q perfbench/tests
"""

import io
import itertools
import json
import os
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import maxentsum as mx  # noqa: E402
from maxentsum import cli, optimize, suites  # noqa: E402

import catalog  # noqa: E402
import instrument  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, layer_self_times, self_intervals  # noqa: E402


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(id, parent, name, start, end, thread=1):
    return Span(id, parent, name, start, end, thread)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(1, None, "cli.main", 0.0, 10.0),
        _span(2, 1, "optimize.a", 1.0, 3.0),
        _span(3, 1, "optimize.b", 2.0, 5.0, thread=2),  # overlaps its sibling
        _span(4, 1, "bounds.c", 7.0, 8.0),
        _span(5, 3, "pmf.d", 2.5, 4.0, thread=2),
    ]
    pieces = self_intervals(spans)
    assert pieces[1] == [(0.0, 1.0), (5.0, 7.0), (8.0, 10.0)]
    assert pieces[3] == [(2.0, 2.5), (4.0, 5.0)]
    times = layer_self_times(spans)
    assert times["cli"] == pytest.approx(5.0)
    assert times["bounds"] == pytest.approx(1.0)
    # [2, 2.5) is shared by a and b, [2.5, 3) by a and d: half of each to each.
    assert times["optimize"] == pytest.approx(1.0 + 0.5 + 0.25 + 1.0)
    assert times["pmf"] == pytest.approx(1.25)
    assert sum(times.values()) == pytest.approx(10.0)


def test_concurrent_jobs_share_wall_time():
    spans = [
        _span(1, None, "parallel.ordered_map", 0.0, 4.0),
        _span(2, 1, "suites.chunk", 0.0, 4.0, thread=1),
        _span(3, 1, "suites.chunk", 0.0, 2.0, thread=2),
        _span(4, 3, "ulc.margins", 0.0, 2.0, thread=2),
    ]
    times = layer_self_times(spans)
    assert times["suites"] == pytest.approx(3.0)
    assert times["ulc"] == pytest.approx(1.0)
    assert times.get("parallel", 0.0) == pytest.approx(0.0)
    assert sum(times.values()) <= 4.0 + 1e-12


def test_tracer_links_parents_across_worker_threads():
    module = types.SimpleNamespace(
        ordered_map=lambda fn, jobs: [t.result() for t in _threaded(fn, jobs)],
        inner=lambda x: x + 1,
    )

    def job(x):
        return module.inner(x)

    original = (module.ordered_map, module.inner)
    tracer = Tracer("test")
    tracer.wrap_ordered_map(module, "suites.chunk")
    tracer.wrap(module, "inner", "ulc.inner")
    try:
        assert tracer.call("bench.iteration", module.ordered_map, (job, [1, 2, 3])) == [2, 3, 4]
    finally:
        tracer.restore()
    assert (module.ordered_map, module.inner) == original
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["bench.iteration"]
    (omap,) = by_name["parallel.ordered_map"]
    assert omap.parent == root.id
    chunk_ids = {s.id for s in by_name["suites.chunk"]}
    assert all(s.parent == omap.id for s in by_name["suites.chunk"])
    assert all(s.parent in chunk_ids for s in by_name["ulc.inner"])
    out = io.StringIO()
    tracer.write_jsonl(out, {"pair": 0})
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    assert len(records) == 8 and {(r["run_id"], r["pair"]) for r in records} == {("test", 0)}


class _Future:
    def __init__(self, value):
        self.value = value

    def result(self):
        return self.value


def _threaded(fn, jobs):
    out = [None] * len(jobs)

    def work(k):
        out[k] = _Future(fn(jobs[k]))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    return out


SMALL_SWEEP = dict(n_max=2, r_max=2, starts=3, restricted=(3, 2, 2, 3))
SMALL_CERTIFY = dict(trials=2048, oracle_cells=((2, 2, 4),))
SMALL_OBJECTS = dict(trials=32, n_max=3, r_max=3)


def test_same_seed_gives_same_digest(tmp_path):
    a = workloads.sweep(5, 0, **SMALL_SWEEP)
    b = workloads.sweep(5, 0, **SMALL_SWEEP)
    assert a.digest == b.digest and a.failed == 0 and a.attempted == 5
    assert a.trials == 4 * 4 + 4
    for fn, kw in ((workloads.certify, SMALL_CERTIFY),
                   (workloads.objects, dict(SMALL_OBJECTS, tmpdir=str(tmp_path)))):
        first, second, other = fn(5, 0, **kw), fn(5, 0, **kw), fn(6, 0, **kw)
        assert first.digest == second.digest != other.digest
        assert first.failed == 0


def test_injected_failed_check_is_counted(monkeypatch, tmp_path):
    clean = workloads.certify(1, 0, **SMALL_CERTIFY)
    bad = mx.SuiteReport("sign", 7, 0, {}, violations=[{"trial": 0}])
    monkeypatch.setattr(mx, "sign_suite", lambda trials, seed: bad)
    broken = workloads.certify(1, 0, **SMALL_CERTIFY)
    assert (broken.attempted, broken.failed) == (clean.attempted, 1)

    real_read = mx.read_pmf

    def read_one_ulp_off(path):
        probs = real_read(path).probs.copy()
        probs[0] = np.nextafter(probs[0], 1.0)
        return mx.Pmf(probs)

    monkeypatch.setattr(mx, "read_pmf", read_one_ulp_off)
    outcome = workloads.objects(1, 0, tmpdir=str(tmp_path), **SMALL_OBJECTS)
    # 32 trials plus four checks in each of the 9 cells; every round trip fails.
    assert (outcome.attempted, outcome.failed) == (32 + 9 * 4, 9)


def test_traced_run_matches_untraced_and_covers_layers(tmp_path):
    names = ["main", "multistart_maximize", "entropy_lower_bound"]
    before = {n: getattr(cli, n) for n in names}
    before_map = (optimize.ordered_map, suites.ordered_map)
    plain = workloads.certify(2, 0, **SMALL_CERTIFY)
    tracer = Tracer("certify-test")
    instrument.install(tracer)
    try:
        outcome = tracer.call("bench.iteration", workloads.certify, (2, 0), SMALL_CERTIFY)
    finally:
        tracer.restore()
    assert {n: getattr(cli, n) for n in names} == before
    assert (optimize.ordered_map, suites.ordered_map) == before_map
    assert outcome.digest == plain.digest
    (root,) = [s for s in tracer.spans if s.name == "bench.iteration"]
    metrics = instrument.layer_metrics(tracer, root.duration)
    assert sum(v for k, v in metrics.items() if k.endswith(".self_s")) <= root.duration
    assert metrics["suites.ulc_suite.trials_per_s"] > 0
    assert metrics["optimize.grid_oracle.evals_per_s"] > 0
    expected = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_s"}
    expected -= {name for probe in catalog.PROBES for name in (probe, probe + "_iqr")}
    assert set(metrics) == expected


def test_probes_report_every_probe_metric():
    names = {name for probe in catalog.PROBES for name in (probe, probe + "_iqr")}
    values = probes.run(0)
    assert set(values) == names and all(v >= 0.0 for v in values.values())


def test_oracle_evaluation_count_matches_enumeration():
    # K = 2 on {0, 1, 2} gives C(4, 2) = 6 grid pmfs, scored as sorted pairs.
    pairs = list(itertools.combinations_with_replacement(range(6), 2))
    assert instrument.oracle_evaluations(2, 2, 2) == len(pairs) == 21


def test_every_benchmark_metric_has_a_catalog_entry():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert sorted(names) == sorted(catalog.NOTES)
    moves = {m for _, m in catalog.NOTES.values() if m is not None}
    workload_names = {w["name"] for w in SPEC["workloads"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for target in moves:
        workload, metric = target.split(".", 1)
        assert workload in workload_names and metric in end_to_end, target
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_untraced_run_reports_every_end_to_end_metric(monkeypatch, capsys):
    small = workloads.Workload(
        "certify", 2, lambda seed, iteration, workdir: workloads.certify(
            seed, iteration, **SMALL_CERTIFY),
    )
    monkeypatch.setitem(workloads.WORKLOADS, "certify", small)
    monkeypatch.setattr(run, "SETUP_RUNS", 2)
    saved = dict(os.environ)
    try:
        assert run.main(["--workload", "certify", "--seed", "3", "--seconds", "1"]) == 0
    finally:
        os.environ.clear()
        os.environ.update(saved)
    *_, info, last = capsys.readouterr().out.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]
    ]
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert len(json.loads(info)["setup_runs_s"]) == 2


def test_clock_pauses_between_jobs_and_restores_ordered_map():
    module = types.SimpleNamespace(ordered_map=lambda fn, jobs: [fn(job) for job in jobs])
    original = module.ordered_map

    def work():
        return module.ordered_map(lambda x: time.sleep(0.3) or x * 2, [1, 2, 3, 4])

    t0 = time.perf_counter()
    result, pieces = run._Clock().time(work, pause_at=(module,))
    assert result == [2, 4, 6, 8]
    assert module.ordered_map is original
    # A piece ends at the third job and at the return; the work waits between pieces.
    assert len(pieces) == 3
    assert all(a[1] < b[0] for a, b in zip(pieces, pieces[1:]))
    assert sum(end - start for start, end, _ in pieces) >= 1.2
    assert run._scaled_s(pieces) > 0.0
    # Only the parts of pieces inside the spans count.
    inside = run._scaled_s(pieces, [(t0, pieces[0][1]), (pieces[1][0], pieces[1][0] + 0.1)])
    assert inside == pytest.approx(
        (pieces[0][1] - pieces[0][0]) / pieces[0][2] + 0.1 / pieces[1][2])
    # Without pause points the work is one piece.
    assert len(run._Clock().time(work)[1]) == 1
