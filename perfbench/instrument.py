"""Which public functions a traced run wraps, and the layer metrics it derives.

Functions are wrapped where their caller looks them up: the CLI's and the
optimizer's module globals, the suites' module globals, and the package
namespace the benchmark itself calls through.  Nothing under ``src/`` changes,
and no underscore name is touched.
"""

from __future__ import annotations

import math
import statistics

import maxentsum as mx
from maxentsum import cli, optimize, suites

from catalog import LAYERS, SUITES
from spans import Tracer, layer_self_times

#: Starts ending this close to their call's best value count as hits.
HIT_TOL = 1e-9


def oracle_evaluations(n: int, r: int, resolution: int) -> int:
    """Sorted grid tuples the oracle scores: C(G + n - 1, n), G = C(K + r, r)."""
    grid = math.comb(resolution + r, r)
    return math.comb(grid + n - 1, n)


def _on_optimization(tracer: Tracer, args, kwargs, result) -> None:
    best = result.best_value
    records = result.per_start
    tracer.add("optimize.starts", len(records))
    tracer.add("optimize.outer_sweeps", sum(rec.sweeps for rec in records))
    tracer.add("optimize.hits", sum(rec.value >= best - HIT_TOL for rec in records))
    tracer.add("optimize.unconverged_starts", sum(not rec.converged for rec in records))
    tracer.maximum("optimize.max_abs_gap", abs(result.gap_to_bound))


def _on_oracle(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("optimize.grid_oracle.evals", oracle_evaluations(*args))


def _on_suite(suite: str):
    def hook(tracer: Tracer, args, kwargs, report) -> None:
        tracer.add(f"suites.{suite}.trials", report.trials)
        tracer.add("suites.violations", len(report.violations))

    return hook


def install(tracer: Tracer) -> None:
    """Wrap every traced call site; undo with ``tracer.restore()``."""
    for name in ("multistart_maximize", "restricted_maximize"):
        tracer.wrap(cli, name, f"optimize.{name}", _on_optimization)
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "entropy_lower_bound", "bounds.entropy_lower_bound")
    for name in ("entropy_lower_bound", "conjectured_inputs"):
        tracer.wrap(optimize, name, f"bounds.{name}")
    tracer.wrap_ordered_map(optimize, "optimize.start")

    tracer.wrap_ordered_map(suites, "suites.chunk")
    for name in ("convolve", "mixture", "residue_decompose"):
        tracer.wrap(suites, name, f"pmf.{name}")
    for name in ("ulc_order_margins", "ternary_sum_masses", "random_ulc_sequences"):
        tracer.wrap(suites, name, f"ulc.{name}")

    for suite in SUITES:
        tracer.wrap(mx, suite, f"suites.{suite}", _on_suite(suite))
    tracer.wrap(mx, "grid_oracle", "optimize.grid_oracle", _on_oracle)
    for name in ("closed_form_special", "conjectured_inputs", "entropy_lower_bound"):
        tracer.wrap(mx, name, f"bounds.{name}")
    for name in ("sum_distribution", "entropy", "residue_decompose", "write_pmf", "read_pmf"):
        tracer.wrap(mx, name, f"pmf.{name}")
    tracer.wrap(mx, "conditional_ulc_report", "ulc.conditional_ulc_report")


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration whose wall time is ``wall_s``."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    counters = tracer.counters

    def durations(name: str, caller: str | None = None) -> list[float]:
        return [
            s.duration for s in spans
            if s.name == name
            and (caller is None or (s.parent in by_id and by_id[s.parent].layer == caller))
        ]

    out: dict[str, float] = {}
    self_times = layer_self_times(spans)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_times.get(layer, 0.0)
    out["bench.self_s"] = self_times.get("bench", 0.0)
    out["trace.wall_s"] = wall_s

    cells = durations("optimize.multistart_maximize")
    out["optimize.multistart_maximize.s"] = sum(cells)
    out["optimize.multistart_maximize.count"] = len(cells)
    out["optimize.cell_s_p50"] = statistics.median(cells) if cells else 0.0
    out["optimize.cell_s_max"] = max(cells, default=0.0)
    out["optimize.restricted_maximize.s"] = sum(durations("optimize.restricted_maximize"))
    out["optimize.outer_sweeps"] = counters["optimize.outer_sweeps"]
    out["optimize.hit_rate"] = _ratio(counters["optimize.hits"], counters["optimize.starts"])
    out["optimize.unconverged_starts"] = counters["optimize.unconverged_starts"]
    out["optimize.max_abs_gap"] = counters["optimize.max_abs_gap"]
    oracle_s = sum(durations("optimize.grid_oracle"))
    out["optimize.grid_oracle.s"] = oracle_s
    out["optimize.grid_oracle.evals_per_s"] = _ratio(counters["optimize.grid_oracle.evals"], oracle_s)

    elb = durations("bounds.entropy_lower_bound")
    out["bounds.entropy_lower_bound.count"] = len(elb)
    out["bounds.entropy_lower_bound.s"] = sum(elb)
    out["bounds.conjectured_inputs.s"] = sum(durations("bounds.conjectured_inputs"))

    for layer, fns in (("pmf", ("residue_decompose", "mixture", "convolve")),
                       ("ulc", ("ulc_order_margins", "ternary_sum_masses"))):
        for fn in fns:
            calls = durations(f"{layer}.{fn}", caller="suites")
            out[f"{layer}.{fn}.s"] = sum(calls)
            out[f"{layer}.{fn}.count"] = len(calls)
    out["ulc.conditional_ulc_report.s"] = sum(durations("ulc.conditional_ulc_report"))

    for suite in SUITES:
        suite_s = sum(durations(f"suites.{suite}"))
        out[f"suites.{suite}.s"] = suite_s
        out[f"suites.{suite}.trials_per_s"] = _ratio(counters[f"suites.{suite}.trials"], suite_s)
    chunks = durations("suites.chunk")
    out["suites.chunks"] = len(chunks)
    out["suites.chunk_s_p50"] = statistics.median(chunks) if chunks else 0.0
    out["suites.chunk_s_p90"] = _percentile(chunks, 0.9)
    out["suites.violations"] = counters["suites.violations"]

    jobs = chunks + durations("optimize.start")
    map_s = sum(durations("parallel.ordered_map"))
    out["parallel.ordered_map.s"] = map_s
    out["parallel.jobs"] = len(jobs)
    out["parallel.job_busy_s"] = sum(jobs)
    out["parallel.overlap"] = _ratio(sum(jobs), map_s)
    return out
