"""Run one maxentsum benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from the ``src/`` directory next
to this one, never from an installed copy.  Every ``MAXENT_*`` variable is
cleared and ``MAXENT_THREADS`` is set per workload.  The workload runs in a
closed loop, one caller, for about ``--seconds`` seconds (at least
``MIN_ITERATIONS`` iterations).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the environment, the output digest and the
fail rate.

``--trace 0`` reports the end-to-end metrics.  Iteration times are scaled to
the reference machine's speed by calibration chunks timed around each
iteration (see ``_Clock``); the unscaled times and the slowdown factors are
on the info line.  ``--trace 1`` alternates an
untraced and a traced run of the same iteration, reports the per-layer
metrics of the median traced run plus the layer probes, and writes the spans
of every traced run to ``.perfbench-out/<run id>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

MIN_ITERATIONS = 4
#: Fresh processes timed for ``setup_s``.
SETUP_RUNS = 15
#: Cap on untraced/traced pairs in a traced run.
MAX_TRACE_PAIRS = 5
#: Calibration after each timed piece of work lasts this share of the piece.
CALIBRATION_SHARE = 0.1
#: Work between two calibrations, where the workload lets the clock pause it.
PIECE_S = 0.5
#: Median time of one calibration chunk on the reference machine.
REFERENCE_CHUNK_S = 0.02


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "certify", "objects"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and generate inputs, print the wall clock, exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")
    return args


def _pin_environment() -> None:
    """Clear ambient MAXENT_* settings and keep native math single-threaded."""
    for key in [k for k in os.environ if k.startswith("MAXENT_")]:
        del os.environ[key]
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"


def _import_package() -> bool:
    """Import maxentsum from ``SRC``; False when the source tree is missing."""
    if not (SRC / "maxentsum" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(SRC), str(HERE)]
    import maxentsum

    return Path(maxentsum.__file__).resolve().parent.parent == SRC


def _environment(threads: int) -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "MAXENT_THREADS": threads,
    }


def _chunk_s(budget_s: float) -> float:
    """Median time of fixed numpy and Python chunks that never call maxentsum."""
    import numpy as np

    a = np.full(9, 1.0 / 9.0)
    b = np.linspace(1.0, 2.0, 13)
    b /= b.sum()
    samples = []
    end = time.perf_counter() + budget_s
    while not samples or time.perf_counter() < end:
        t0 = time.perf_counter()
        for _ in range(3000):
            c = np.convolve(a, b)
            float(c @ np.log2(c))
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class _Clock:
    """Scales measured times to the reference machine's speed.

    The machine's speed drifts within seconds, so the work of an iteration is
    cut into pieces, each bracketed by calibration chunks: one just before it
    and one, lasting ``CALIBRATION_SHARE`` of the piece, just after it.  An
    iteration is one piece, unless its workload names modules whose
    ``ordered_map`` runs jobs one at a time (``Workload.pause_at``); then a
    piece ends at the first job boundary, or the first return of
    ``ordered_map``, after ``PIECE_S`` of work, and the clock calibrates there
    while the work waits.
    """

    def __init__(self):
        self._chunk = _chunk_s(0.1)

    def _slowdown(self, piece_s: float) -> float:
        before, self._chunk = self._chunk, _chunk_s(CALIBRATION_SHARE * piece_s)
        return (before + self._chunk) / 2.0 / REFERENCE_CHUNK_S

    def time(self, fn: Callable, pause_at=()):
        """Run ``fn()``; returns its result and the pieces of work as
        ``(start, end, slowdown)`` in ``time.perf_counter`` seconds."""
        pieces = []
        start = time.perf_counter()

        def checkpoint():
            nonlocal start
            now = time.perf_counter()
            if now - start >= PIECE_S:
                pieces.append((start, now, self._slowdown(now - start)))
                start = time.perf_counter()

        def pausing(original):
            def ordered_map(job_fn, jobs):
                def job(item):
                    checkpoint()
                    return job_fn(item)

                results = original(job, jobs)
                checkpoint()
                return results

            return ordered_map

        originals = [(module, module.ordered_map) for module in pause_at]
        for module, original in originals:
            module.ordered_map = pausing(original)
        try:
            result = fn()
        finally:
            for module, original in originals:
                module.ordered_map = original
        end = time.perf_counter()
        pieces.append((start, end, self._slowdown(end - start)))
        return result, pieces


def _scaled_s(pieces, spans=None) -> float:
    """Reference-machine seconds of ``pieces``, or of the parts of them that
    lie inside ``spans`` (``(start, end)`` pairs)."""
    total = 0.0
    for start, end, slowdown in pieces:
        inside = end - start if spans is None else sum(
            max(0.0, min(end, t1) - max(start, t0)) for t0, t1 in spans
        )
        total += inside / slowdown
    return total


class _Setup:
    """Times fresh processes from spawn to their first timed call (``setup_s``).

    The samples are spread over the run (see ``pace``), so that they see the
    same machine speeds as the iterations, and their median is scaled by the
    median slowdown factor of the iterations.  A calibration chunk run inside
    each fresh process tracked its import time worse than no scaling at all.
    """

    def __init__(self, args):
        self._cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
        ]
        self.times: list[float] = []

    def pace(self, share: float) -> int:
        """Take samples until ``share`` of ``SETUP_RUNS`` are done; returns how many."""
        target = min(SETUP_RUNS, math.ceil(share * SETUP_RUNS))
        taken = 0
        while len(self.times) < target:
            t0 = time.time()
            proc = subprocess.run(self._cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=60, check=True)
            self.times.append(float(proc.stdout.split()[-1]) - t0)
            taken += 1
        return taken


def _run_plain(workload, seed: int, seconds: int, workdir: str, setup: _Setup):
    """Iterations 0, 1, ... until the next one would overrun ``seconds``.

    Between iterations, ``setup`` takes its samples at the pace of the run.
    """
    walls, slowdowns, scaled_walls, scaled_rates, outcomes = [], [], [], [], []
    clock = _Clock()
    start = time.perf_counter()
    while True:
        iteration = len(outcomes)
        outcome, pieces = clock.time(
            lambda: workload.run(seed, iteration, workdir), workload.pause_at
        )
        outcomes.append(outcome)
        wall = sum(end - start for start, end, _ in pieces)
        scaled = _scaled_s(pieces)
        walls.append(wall)
        slowdowns.append(wall / scaled)
        scaled_walls.append(scaled)
        scaled_rates.append(outcome.trials / _scaled_s(pieces, outcome.trial_spans))
        share = min((time.perf_counter() - start) / seconds, len(outcomes) / MIN_ITERATIONS)
        if setup.pace(share):
            clock = _Clock()
        elapsed = time.perf_counter() - start
        if len(outcomes) >= MIN_ITERATIONS and elapsed + statistics.median(walls) > seconds:
            break
    setup.pace(1.0)
    metrics = {
        "wall_s": statistics.median(scaled_walls),
        "trials_per_s": statistics.median(scaled_rates),
        "iteration_s": walls,
        "iteration_slowdown": slowdowns,
        "unscaled_wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup.times) / statistics.median(slowdowns),
        "setup_runs_s": setup.times,
    }
    return metrics, outcomes, []


def _run_traced(workload, seed: int, seconds: int, workdir: str):
    """Pairs of untraced and traced runs of iteration 0."""
    import instrument
    import probes
    from spans import Tracer

    probe_metrics = probes.run(seed)
    run_id = f"{workload.name}-seed{seed}"
    plain_walls, traced, outcomes, harness = [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain = workload.run(seed, 0, workdir)
        plain_walls.append(time.perf_counter() - t0)
        tracer = Tracer(run_id)
        instrument.install(tracer)
        try:
            t0 = time.perf_counter()
            outcome = tracer.call("bench.iteration", workload.run, (seed, 0, workdir))
            wall = time.perf_counter() - t0
        finally:
            tracer.restore()
        harness.append(outcome.digest == plain.digest)
        traced.append((wall, tracer))
        outcomes += [plain, outcome]
        elapsed = time.perf_counter() - start
        pair_s = elapsed / len(traced)
        if len(traced) >= MAX_TRACE_PAIRS or elapsed + pair_s > seconds:
            break

    wall, tracer = sorted(traced, key=lambda t: t[0])[len(traced) // 2]
    metrics = instrument.layer_metrics(tracer, wall)
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total <= wall, (self_total, wall)
    metrics["trace.overhead_s"] = (
        statistics.median(w for w, _ in traced) - statistics.median(plain_walls)
    )
    metrics.update(probe_metrics)

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{run_id}.jsonl", "w", encoding="utf-8") as fh:
        for pair, (_, t) in enumerate(traced):
            t.write_jsonl(fh, {"pair": pair})
    return metrics, outcomes, harness


def main(argv=None) -> int:
    args = _parse_args(argv)
    _pin_environment()
    if not _import_package():
        print(f"error: no maxentsum source tree at {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    threads = (args.trace and workload.trace_threads) or workload.threads
    os.environ["MAXENT_THREADS"] = str(threads)
    if args.setup_only:
        workloads.derive_seeds(args.seed, 0, 8)
        print(repr(time.time()))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        if args.trace:
            measured, outcomes, harness = _run_traced(workload, args.seed, args.seconds, workdir)
        else:
            measured, outcomes, harness = _run_plain(
                workload, args.seed, args.seconds, workdir, _Setup(args)
            )

    attempted = sum(o.attempted for o in outcomes) + len(harness)
    failed = sum(o.failed for o in outcomes) + harness.count(False)
    if args.trace:
        reported = spec["per_layer"]
    else:
        reported = spec["end_to_end"]
        measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "iterations": len(outcomes),
        "iteration_s": measured.get("iteration_s"),
        "iteration_slowdown": measured.get("iteration_slowdown"),
        "unscaled_wall_s": measured.get("unscaled_wall_s"),
        "setup_runs_s": measured.get("setup_runs_s"),
        "digest": outcomes[0].digest,
        "fail_rate": failed / attempted,
        "env": _environment(threads),
    }
    print(json.dumps(info))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
