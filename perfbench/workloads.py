"""The three benchmark workloads, each one iteration of closed-loop batch work.

An iteration is a pure function of ``(seed, iteration)``: every random input
is a seed derived from that pair, and nothing is read from the environment
except ``MAXENT_THREADS``, which the runner pins per workload.  Calls go
through the public API looked up at call time (``mx.ulc_suite``,
``cli.main``), so a traced run can wrap them from outside the package.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import maxentsum as mx
from maxentsum import cli, optimize, suites

#: Gap allowed between a numeric maximum and the closed-form bound.
GAP_TOL = 1e-6
#: The sweep passes ``--tol`` explicitly; ``--tol`` also sets the optimizer's
#: outer tolerance, so it is pinned at that tolerance's default.
CLI_TOL = "1e-12"
ULC_CELLS = ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2))
#: (n, r, K) grid-oracle calls made by ``certify``.
ORACLE_CELLS = ((2, 3, 24), (3, 2, 12))


@dataclass
class Outcome:
    """What one iteration did and whether its outputs were correct."""

    attempted: int = 0
    failed: int = 0
    trials: int = 0
    #: ``(start, end)`` in ``time.perf_counter`` seconds of each timed package call.
    trial_spans: list = field(default_factory=list)
    digest: str = ""

    def check(self, ok: bool, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count


def derive_seeds(seed: int, iteration: int, count: int) -> list[int]:
    state = np.random.SeedSequence([seed, iteration]).generate_state(count)
    return [int(s) for s in state]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def sweep(seed: int, iteration: int, *, n_max: int = 3, r_max: int = 4, starts: int = 32,
          restricted: tuple[int, int, int, int] = (4, 3, 2, 16)) -> Outcome:
    """``maxentsum sweep`` over the (n, r) grid, then one restricted optimize run."""
    opt_seed = str(derive_seeds(seed, iteration, 1)[0])
    outcome = Outcome()
    t0 = time.perf_counter()
    code, body = _run_cli([
        "sweep", "--n-max", str(n_max), "--r-max", str(r_max), "--starts", str(starts),
        "--seed", opt_seed, "--tol", CLI_TOL, "--no-timing",
    ])
    n, r, ell, r_starts = restricted
    r_code, r_out = _run_cli([
        "optimize", "--n", str(n), "--r", str(r), "--ell", str(ell),
        "--starts", str(r_starts), "--seed", opt_seed, "--tol", CLI_TOL, "--json",
    ])
    outcome.trial_spans.append((t0, time.perf_counter()))

    lines = body.splitlines()
    rows = [dict(zip(cli.CSV_HEADER.split(","), line.split(","))) for line in lines[1:]]
    cells_ok = code == 0 and lines[:1] == [cli.CSV_HEADER] and len(rows) == n_max * r_max
    if cells_ok:
        for row in rows:
            outcome.check(abs(float(row["gap"])) <= GAP_TOL)
            outcome.trials += int(row["starts_used"])
    else:
        outcome.check(False, n_max * r_max)
    payload = json.loads(r_out) if r_code == 0 else {}
    outcome.check(r_code == 0 and abs(payload["gap_to_bound"]) <= GAP_TOL)
    outcome.trials += len(payload.get("per_start", ()))
    outcome.digest = _sha256(body)
    return outcome


def certify(seed: int, iteration: int, *, trials: int = 65536,
            oracle_cells=ORACLE_CELLS) -> Outcome:
    """The vectorized suites plus the grid oracle at the proven cells."""
    seeds = derive_seeds(seed, iteration, len(ULC_CELLS) + 3)
    outcome = Outcome()
    reports = []

    def run_suite(fn, *args):
        t0 = time.perf_counter()
        report = fn(*args)
        outcome.trial_spans.append((t0, time.perf_counter()))
        outcome.trials += report.trials
        reports.append(report)
        return report

    for (n, r), s in zip(ULC_CELLS, seeds):
        outcome.check(run_suite(mx.ulc_suite, n, r, trials, s).passed)
    identity = run_suite(mx.identity_suite, trials, seeds[-3])
    outcome.check(
        identity.passed
        and identity.stats["max_relative_gap"] <= 1e-12
        and identity.stats["min_even_expansion"] >= 0.0
    )
    outcome.check(run_suite(mx.sign_suite, trials, seeds[-2]).passed)
    outcome.check(run_suite(mx.preserve_suite, trials, seeds[-1]).passed)

    values = []
    for n, r, k in oracle_cells:
        value = mx.grid_oracle(n, r, k)
        values.append(value)
        outcome.check(value <= mx.closed_form_special(n, r) + 1e-12)
    dump = json.dumps([rep.as_dict() for rep in reports], sort_keys=True)
    outcome.digest = _sha256(dump + repr(values))
    return outcome


def _binomial_half(n: int) -> np.ndarray:
    return np.array([math.comb(n, k) for k in range(n + 1)], dtype=float) / 2.0**n


def objects(seed: int, iteration: int, *, trials: int = 2048, n_max: int = 6,
            r_max: int = 6, tmpdir: str) -> Outcome:
    """``decomposition_suite`` plus per-object construction checks over a grid."""
    outcome = Outcome()
    t0 = time.perf_counter()
    report = mx.decomposition_suite(trials, derive_seeds(seed, iteration, 1)[0])
    outcome.trial_spans.append((t0, time.perf_counter()))
    outcome.trials = report.trials
    bad_trials = {v["trial"] for v in report.violations}
    outcome.attempted += report.trials
    outcome.failed += len(bad_trials)

    path = os.path.join(tmpdir, "roundtrip.pmf")
    for n in range(1, n_max + 1):
        for r in range(1, r_max + 1):
            inputs = mx.conjectured_inputs(n, r)
            total = mx.sum_distribution(inputs)
            bound = mx.entropy_lower_bound(n, r).bound_bits
            outcome.check(abs(mx.entropy(total) - bound) <= 1e-10)

            dec = mx.residue_decompose(total, r)
            classes_ok = np.allclose(dec.conditionals[0].probs, _binomial_half(n), rtol=0, atol=1e-12)
            for j in range(1, r):
                classes_ok &= np.allclose(
                    dec.conditionals[j].probs, _binomial_half(n - 1), rtol=0, atol=1e-12
                )
            outcome.check(bool(classes_ok))

            outcome.check(mx.conditional_ulc_report(inputs, r).all_pass)

            exact = True
            for pmf in inputs + (total,):
                mx.write_pmf(pmf, path)
                exact &= np.array_equal(mx.read_pmf(path).probs, pmf.probs)
            outcome.check(bool(exact))
    outcome.digest = _sha256(json.dumps(report.as_dict(), sort_keys=True))
    return outcome


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    #: ``run(seed, iteration, workdir)``; ``workdir`` is a scratch directory.
    run: Callable[[int, int, str], Outcome]
    #: Modules whose ``ordered_map`` jobs the runner may pause between to
    #: calibrate its clock; only where the workload runs one thread.
    pause_at: tuple = ()
    #: ``MAXENT_THREADS`` of a traced run, when it differs from ``threads``.
    trace_threads: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", 1, lambda seed, iteration, workdir: sweep(seed, iteration),
                 pause_at=(optimize,)),
        Workload("certify", 1, lambda seed, iteration, workdir: certify(seed, iteration),
                 pause_at=(suites,), trace_threads=2),
        Workload("objects", 1,
                 lambda seed, iteration, workdir: objects(seed, iteration, tmpdir=workdir),
                 pause_at=(suites,)),
    )
}
