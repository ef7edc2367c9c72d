"""What each benchmark metric means and which end-to-end metric it should move.

``BENCHMARK.json`` holds every metric's name, unit and better direction; this
file holds only what that file cannot.  ``NOTES`` maps each metric name to its
meaning and to the end-to-end metric and workload that a change in it should
move, written ``workload.metric`` (``None`` for metrics recorded only).
"""

from __future__ import annotations

#: The package modules whose self time a traced run reports.
LAYERS = ("cli", "optimize", "bounds", "pmf", "ulc", "suites", "parallel")
SUITES = ("ulc_suite", "identity_suite", "sign_suite", "preserve_suite", "decomposition_suite")
#: Layer probes; each also reports ``<probe>_iqr``.
PROBES = (
    "pmf.convolve_us",
    "pmf.entropy_us",
    "optimize.objective_gradient_us",
    "optimize.block_ascend_us",
    "ulc.ulc_order_margins_us",
)


def _notes() -> dict[str, tuple[str, str | None]]:
    notes = {
        # End to end, reported by untraced runs on every workload.  Times are
        # in reference-machine seconds; see run.py and README.md.
        "setup_s": ("process start through import and input generation to the first "
                    "timed call; median of fresh processes", None),
        "wall_s": ("median wall time of one iteration of the workload", None),
        "trials_per_s": ("random trials completed per second inside the timed package "
                         "calls: optimizer starts for sweep, Monte Carlo trials for certify "
                         "and objects; median over iterations", None),
        "peak_rss_mb": ("ru_maxrss at the end of the run", None),
    }
    layer_moves = {
        "cli": "sweep.wall_s", "optimize": "sweep.wall_s", "bounds": "objects.wall_s",
        "pmf": "objects.wall_s", "ulc": "certify.wall_s", "suites": "certify.wall_s",
        "parallel": "certify.wall_s",
    }
    for layer in LAYERS:
        notes[f"{layer}.self_s"] = (f"self time of {layer} spans in the traced iteration",
                                    layer_moves[layer])
    notes.update({
        "bench.self_s": ("benchmark code between package calls", None),
        "trace.wall_s": ("wall time of the traced iteration", None),
        "trace.overhead_s": ("median traced wall time minus median untraced wall time of "
                             "the same iteration", None),
        "optimize.multistart_maximize.s": ("time in multistart_maximize", "sweep.wall_s"),
        "optimize.multistart_maximize.count": ("multistart_maximize calls", "sweep.wall_s"),
        "optimize.cell_s_p50": ("median multistart_maximize call", "sweep.wall_s"),
        "optimize.cell_s_max": ("slowest multistart_maximize call", "sweep.wall_s"),
        "optimize.restricted_maximize.s": ("time in restricted_maximize", "sweep.wall_s"),
        "optimize.outer_sweeps": ("sum of StartRecord.sweeps over all starts", "sweep.wall_s"),
        "optimize.hit_rate": ("starts ending within 1e-9 of their call's best value, over "
                              "starts run", "sweep.wall_s"),
        "optimize.unconverged_starts": ("starts whose StartRecord.converged is false; "
                                        "recorded, not gated", None),
        "optimize.max_abs_gap": ("largest |gap_to_bound| of an optimizer call; recorded, "
                                 "not gated", None),
        "optimize.grid_oracle.s": ("time in grid_oracle", "certify.wall_s"),
        "optimize.grid_oracle.evals_per_s": ("computed grid evaluations C(G+n-1, n), "
                                             "G = C(K+r, r), per grid_oracle second",
                                             "certify.wall_s"),
        "bounds.entropy_lower_bound.count": ("entropy_lower_bound calls", "objects.wall_s"),
        "bounds.entropy_lower_bound.s": ("time in entropy_lower_bound", "objects.wall_s"),
        "bounds.conjectured_inputs.s": ("time in conjectured_inputs", "objects.wall_s"),
    })
    for layer, fn, moves in (("pmf", "residue_decompose", "objects.trials_per_s"),
                             ("pmf", "mixture", "objects.trials_per_s"),
                             ("pmf", "convolve", "objects.trials_per_s"),
                             ("ulc", "ulc_order_margins", "certify.trials_per_s"),
                             ("ulc", "ternary_sum_masses", "certify.trials_per_s")):
        notes[f"{layer}.{fn}.s"] = (f"time in {fn} called by suites", moves)
        notes[f"{layer}.{fn}.count"] = (f"{fn} calls made by suites", moves)
    notes["ulc.conditional_ulc_report.s"] = ("time in conditional_ulc_report",
                                             "objects.wall_s")
    for suite in SUITES:
        moves = "objects.trials_per_s" if suite == "decomposition_suite" else "certify.trials_per_s"
        notes[f"suites.{suite}.s"] = (f"time in {suite}", moves)
        notes[f"suites.{suite}.trials_per_s"] = (f"{suite} trials per second of {suite} time",
                                                 moves)
    notes.update({
        "suites.chunks": ("suite chunk jobs run", "certify.trials_per_s"),
        "suites.chunk_s_p50": ("median suite chunk job", "certify.trials_per_s"),
        "suites.chunk_s_p90": ("90th percentile suite chunk job", "certify.trials_per_s"),
        "suites.violations": ("violations in all suite reports", "certify.trials_per_s"),
        "parallel.ordered_map.s": ("time in ordered_map", "certify.trials_per_s"),
        "parallel.jobs": ("jobs run by ordered_map", "certify.trials_per_s"),
        "parallel.job_busy_s": ("sum of job durations", "certify.trials_per_s"),
        "parallel.overlap": ("job_busy_s / ordered_map.s; about 1.0 at one thread, "
                             "traced certify runs at two",
                             "certify.trials_per_s"),
    })
    probe_moves = {
        "pmf.convolve_us": "sweep.wall_s", "pmf.entropy_us": "sweep.wall_s",
        "optimize.objective_gradient_us": "sweep.wall_s",
        "optimize.block_ascend_us": "sweep.wall_s",
        "ulc.ulc_order_margins_us": "certify.trials_per_s",
    }
    for probe in PROBES:
        notes[probe] = ("median per-call time of the layer probe", probe_moves[probe])
        notes[f"{probe}_iqr"] = ("interquartile range of the probe", None)
    return notes


NOTES = _notes()
