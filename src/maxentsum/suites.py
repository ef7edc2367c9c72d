"""Seeded Monte Carlo verification suites with full violation witnesses.

Every suite runs through one driver, which splits its trials into fixed-size
chunks, derives one child seed per chunk from (seed, chunk index), runs the
chunks in order on the calling thread and merges their results in that order,
so the verdict and the report depend only on the suite's arguments.  The
suites evaluate the certificate functions of ``ulc``.  A violation is never
dropped: each one is recorded with the random instance that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import check_count
from .kernels import conv_rows, fold_rows, ordered_map, seeded_rng
from .pmf import Pmf, _entropy_bits, convolve, mixture, residue_decompose
from .ulc import (
    STRICTNESS,
    certificate_sides,
    identity_sides,
    margin_verdicts,
    random_ulc_sequences,
    residue_classes,
    sign_lemma_rows,
    ternary_sum_masses,
    ulc_order_margins,
)

CHUNK_SIZE = 4096
#: ``preserve_suite`` draws its ULC orders from 1 to this.
PRESERVE_MAX_ORDER = 8


@dataclass
class SuiteReport:
    suite: str
    trials: int
    seed: int
    params: dict
    violations: list[dict] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "seed": self.seed,
            "params": self.params,
            "passed": self.passed,
            "violation_count": len(self.violations),
            "violations": self.violations,
            "stats": self.stats,
        }


def _run(suite: str, trials: int, seed: int, params: dict, work, merge: dict) -> SuiteReport:
    """Run ``work(rng, offset, size) -> (violations, stats)`` over seeded chunks.

    Chunk i covers trials [offset, offset + size) with generator
    ``seeded_rng(seed, i)``; violations are kept in chunk order and each stat
    is merged over the chunks with its function in ``merge`` (min, max or sum).
    """
    check_count("trials", trials, 1)
    plan = [(i, offset, min(CHUNK_SIZE, trials - offset))
            for i, offset in enumerate(range(0, trials, CHUNK_SIZE))]

    def run_chunk(job: tuple[int, int, int]):
        index, offset, size = job
        return work(seeded_rng(seed, index), offset, size)

    results = ordered_map(run_chunk, plan)
    report = SuiteReport(suite, int(trials), int(seed), params)
    for violations, _ in results:
        report.violations.extend(violations)
    for key, combine in merge.items():
        report.stats[key] = combine(stats[key] for _, stats in results)
    return report


def _witnesses(trials: np.ndarray, failing: np.ndarray, **fields) -> list[dict]:
    """One violation record per row flagged in ``failing``.

    ``trials`` holds each row's global trial number.  A field is an array with
    one entry per row, a list of such arrays (one per factor), or a value that
    every record shares; records hold plain JSON values.
    """
    records = []
    for t in np.flatnonzero(failing):
        record = {"trial": int(trials[t])}
        for key, value in fields.items():
            if isinstance(value, np.ndarray):
                value = value[t].tolist()
            elif isinstance(value, list):
                value = [part[t].tolist() for part in value]
            record[key] = value
        records.append(record)
    return records


def ulc_suite(n: int, r: int, trials: int, seed: int = 0) -> SuiteReport:
    """Conditional ultra-log-concavity of residue classes on random products.

    Draws n independent flat-Dirichlet pmfs on {0, ..., r} per trial, forms
    the sum distribution, and tests class 0 at order n and classes j != 0 at
    order n - 1.  ``min_margin`` is None when no class has an interior index.
    """
    check_count("n", n, 1)
    check_count("r", r, 1)
    n, r = int(n), int(r)

    def work(rng: np.random.Generator, offset: int, size: int):
        blocks = np.empty((size, n, r + 1), order="F")
        for b in range(n):
            blocks[:, b] = rng.dirichlet(np.ones(r + 1), size=size)
        sums = fold_rows(blocks)
        ids = offset + np.arange(size)
        violations: list[dict] = []
        worst = math.inf
        for j, (order, weighted, cond) in enumerate(residue_classes(sums, r, n)):
            if cond is None:
                continue
            least, passes, witness = margin_verdicts(ulc_order_margins(cond, order), cond)
            worst = min(worst, float(least[weighted].min(initial=math.inf)))
            violations += _witnesses(
                ids, weighted & ~passes, residue=j, order=order, margin=least, witness=witness,
                inputs=blocks, conditional=cond,
            )
        return violations, {"min_margin": worst}

    report = _run("ulc", trials, seed, {"n": n, "r": r}, work, {"min_margin": min})
    if report.stats["min_margin"] == math.inf:
        report.stats["min_margin"] = None
    return report


def identity_suite(trials: int, seed: int = 0) -> SuiteReport:
    """Agreement of both certificate expansions on random product triples.

    Per trial: three flat-Dirichlet ternary pmfs form the 27-entry product
    tensor; direct and expanded evaluations of the even and odd certificates
    must agree within 1e-12 relative to the squared mass scale, and the even
    expansion must be non-negative.
    """

    def work(rng: np.random.Generator, offset: int, size: int):
        factors = [np.asfortranarray(rng.dirichlet(np.ones(3), size=size)) for _ in range(3)]
        tensor = np.einsum("ti,tj,tk->tijk", *factors, order="F")
        masses = ternary_sum_masses(tensor)
        sides = identity_sides(tensor, masses)
        scale = masses.max(axis=1) ** 2
        tol = 1e-12 * scale
        ids = offset + np.arange(size)
        violations: list[dict] = []
        gaps = {kind: np.abs(lhs - rhs) for kind, (lhs, rhs) in sides.items()}
        for kind, (lhs, rhs) in sides.items():
            violations += _witnesses(
                ids, gaps[kind] > tol, kind=kind, lhs=lhs, rhs=rhs, factors=factors
            )
        rhs_even = sides["even"][1]
        violations += _witnesses(
            ids, rhs_even < 0.0, kind="even_negative", rhs=rhs_even, factors=factors
        )
        # Dividing by one positive scale keeps the order, so the maximum divides once.
        rel = np.maximum(*gaps.values()) / scale
        stats = {"max_relative_gap": float(rel.max()), "min_even_expansion": float(rhs_even.min())}
        return violations, stats

    merge = {"max_relative_gap": max, "min_even_expansion": min}
    return _run("identity", trials, seed, {}, work, merge)


def sign_suite(trials: int, seed: int = 0) -> SuiteReport:
    """Sign implication (and odd-certificate positivity) on positive products.

    Rows whose factor pmfs are not strictly positive beyond ``STRICTNESS``
    are redrawn; :func:`~maxentsum.ulc.sign_lemma_rows` decides the strict
    hypothesis and the implication.
    """

    def work(rng: np.random.Generator, offset: int, size: int):
        factors = []
        for _ in range(3):
            f = np.asfortranarray(rng.dirichlet(np.ones(3), size=size))
            while True:
                bad = np.flatnonzero(f.min(axis=1) <= STRICTNESS)
                if bad.size == 0:
                    break
                f[bad] = rng.dirichlet(np.ones(3), size=bad.size)
            factors.append(f)
        tensor = np.einsum("ti,tj,tk->tijk", *factors, order="F")
        differences, hypothesis, implied = sign_lemma_rows(tensor)
        _, lhs_odd = certificate_sides(ternary_sum_masses(tensor))
        ids = offset + np.arange(size)
        violations = _witnesses(
            ids, hypothesis & ~implied, kind="sign", differences=differences, factors=factors
        )
        violations += _witnesses(
            ids, hypothesis & (lhs_odd <= 0.0), kind="odd_not_positive", lhs=lhs_odd,
            factors=factors,
        )
        return violations, {"strict_hypothesis_count": int(hypothesis.sum())}

    params = {"strictness": STRICTNESS}
    return _run("sign", trials, seed, params, work, {"strict_hypothesis_count": sum})


def preserve_suite(trials: int, seed: int = 0) -> SuiteReport:
    """Bernoulli convolution preserves ultra-log-concavity, order bumped by one.

    Per trial: a random ULC(m) sequence with m drawn from 1..PRESERVE_MAX_ORDER
    and a random Bernoulli weight; the convolution must pass at order m + 1.
    """

    def work(rng: np.random.Generator, offset: int, size: int):
        orders = rng.integers(1, PRESERVE_MAX_ORDER + 1, size=size)
        weights = rng.uniform(0.0, 1.0, size=size)
        violations: list[dict] = []
        worst = math.inf
        for order in range(1, PRESERVE_MAX_ORDER + 1):
            rows = np.flatnonzero(orders == order)
            if rows.size == 0:
                continue
            seqs = random_ulc_sequences(order, rows.size, rng)
            q = weights[rows]
            conv = conv_rows(seqs, np.stack([1.0 - q, q], axis=1))
            least, passes, _ = margin_verdicts(ulc_order_margins(conv, order + 1), conv)
            worst = min(worst, float(least.min()))
            violations += _witnesses(
                offset + rows, ~passes, order=order, bernoulli_weight=q, sequence=seqs,
                convolution=conv, margin=least,
            )
        return violations, {"min_margin": worst}

    params = {"max_order": PRESERVE_MAX_ORDER}
    return _run("preserve", trials, seed, params, work, {"min_margin": min})


def decomposition_suite(trials: int, seed: int = 0, r: int | None = None) -> SuiteReport:
    """Residue decomposition identities on random pmfs.

    Per trial: reassembly and mixture round-trips entrywise within 1e-12, the
    entropy decomposition identity within 1e-10, and the residue splitting
    property of convolution by a multiple-of-r pmf within 1e-12.  Trials go
    one ``Pmf`` at a time, so the suite exercises the per-object API.
    """
    if r is not None:
        check_count("r", r, 1)

    def work(rng: np.random.Generator, offset: int, size: int):
        violations: list[dict] = []
        worst = {"reassembly": 0.0, "entropy": 0.0, "mixture": 0.0, "splitting": 0.0}

        def record(t: int, kind: str, error: float, probs: np.ndarray, modulus: int):
            worst[kind] = max(worst[kind], error)
            limit = 1e-10 if kind == "entropy" else 1e-12
            if error > limit:
                violations.append({"trial": int(offset + t), "kind": kind,
                                   "error": float(error), "r": int(modulus), "pmf": probs.tolist()})

        for t in range(size):
            modulus = int(r) if r is not None else int(rng.integers(1, 5))
            m = modulus * int(rng.integers(1, 5)) + int(rng.integers(0, modulus))
            probs = rng.dirichlet(np.ones(m + 1))
            pmf = Pmf(probs)
            dec = residue_decompose(pmf, modulus)

            rebuilt = dec.reassemble().probs
            record(t, "reassembly", float(np.maximum.reduce(np.abs(rebuilt - probs))), probs, modulus)

            direct = _entropy_bits(pmf.probs)
            split = _entropy_bits(dec.weights) + sum(
                w * _entropy_bits(cond.probs)
                for w, cond in zip(dec.weights.tolist(), dec.conditionals)
                if w > 0.0
            )
            record(t, "entropy", abs(direct - split), probs, modulus)

            mixed = mixture(dec.conditionals, dec.weights, modulus).probs
            record(t, "mixture", float(np.maximum.reduce(np.abs(mixed - probs))), probs, modulus)

            span = int(rng.integers(1, 4))
            coarse = rng.dirichlet(np.ones(span + 1))
            lifted = np.zeros(span * modulus + 1)
            lifted[::modulus] = coarse
            shifted = convolve(pmf, Pmf(lifted))
            dec2 = residue_decompose(shifted, modulus)
            err = 0.0
            for cond, moved in zip(dec.conditionals, dec2.conditionals):
                expected = np.convolve(cond.probs, coarse)
                err = max(err, float(np.maximum.reduce(np.abs(moved.probs - expected))))
            record(t, "splitting", err, probs, modulus)
        return violations, {f"max_{kind}_error": error for kind, error in worst.items()}

    merge = {f"max_{kind}_error": max for kind in ("reassembly", "entropy", "mixture", "splitting")}
    params = {"r": None if r is None else int(r)}
    return _run("decomposition", trials, seed, params, work, merge)
