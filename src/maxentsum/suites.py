"""Seeded Monte Carlo verification suites with full violation witnesses.

Every driver splits its trials into fixed-size chunks, derives one child seed
per chunk from (seed, chunk index), and merges results in chunk order, so the
verdict and the report are identical for any worker count.  A violation is
never dropped: each one is recorded with the random instance that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .kernels import fold_rows, seeded_rng
from .parallel import ordered_map
from .pmf import Pmf, _entropy_bits, convolve, mixture, residue_decompose
from .ulc import (
    SLACK_COEFF,
    _even_class_expansion,
    _odd_class_expansion,
    random_ulc_sequences,
    ternary_sum_masses,
    ulc_order_margins,
)

CHUNK_SIZE = 4096


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


def _chunks(trials: int) -> list[tuple[int, int, int]]:
    if trials < 1:
        raise DomainError("trials must be >= 1")
    plan = []
    offset = 0
    index = 0
    while offset < trials:
        size = min(CHUNK_SIZE, trials - offset)
        plan.append((index, offset, size))
        offset += size
        index += 1
    return plan


def ulc_suite(n: int, r: int, trials: int, seed: int = 0) -> SuiteReport:
    """Conditional ultra-log-concavity of residue classes on random products.

    Draws n independent flat-Dirichlet pmfs on {0, ..., r} per trial, forms
    the sum distribution, and tests class 0 at order n and classes j != 0 at
    order n - 1.
    """
    if n < 1 or r < 1:
        raise DomainError("need n >= 1 and r >= 1")

    def work(chunk: tuple[int, int, int]):
        index, offset, size = chunk
        rng = seeded_rng(seed, index)
        draws = [rng.dirichlet(np.ones(r + 1), size=size) for _ in range(n)]
        sums = fold_rows(np.stack(draws, axis=1))
        violations: list[dict] = []
        worst = math.inf
        for j in range(r):
            cls = sums[:, j::r]
            weights = cls.sum(axis=1)
            positive = weights > 0.0
            cond = np.zeros_like(cls)
            cond[positive] = cls[positive] / weights[positive, None]
            order = n if j == 0 else n - 1
            margins = ulc_order_margins(cond, order)
            if margins.size == 0:
                continue
            row_min = margins.min(axis=1)
            if positive.any():
                worst = min(worst, float(row_min[positive].min()))
            tol = SLACK_COEFF * cond.max(axis=1) ** 2
            bad = positive & (row_min < -tol)
            for t in np.flatnonzero(bad):
                violations.append(
                    {
                        "trial": int(offset + t),
                        "residue": int(j),
                        "order": int(order),
                        "margin": float(row_min[t]),
                        "witness": int(np.argmax(margins[t] < -tol[t])) + 1,
                        "inputs": [draws[b][t].tolist() for b in range(n)],
                        "conditional": cond[t].tolist(),
                    }
                )
        return violations, worst

    results = ordered_map(work, _chunks(trials))
    report = SuiteReport("ulc", trials, seed, {"n": int(n), "r": int(r)})
    for violations, worst in results:
        report.violations.extend(violations)
    report.stats["min_margin"] = min(worst for _, worst in results)
    return report


def identity_suite(trials: int, seed: int = 0) -> SuiteReport:
    """Agreement of both certificate expansions on random product triples.

    Per trial: three flat-Dirichlet ternary pmfs form the 27-entry product
    tensor; direct and expanded evaluations of the even and odd certificates
    must agree within 1e-12 relative to the squared mass scale, and the even
    expansion must be non-negative.
    """

    def work(chunk: tuple[int, int, int]):
        index, offset, size = chunk
        rng = seeded_rng(seed, index)
        factors = [rng.dirichlet(np.ones(3), size=size) for _ in range(3)]
        tensor = np.einsum("ti,tj,tk->tijk", *factors)
        masses = ternary_sum_masses(tensor)
        lhs_even = masses[:, 2] ** 2 - 3.0 * masses[:, 0] * masses[:, 4]
        rhs_even = _even_class_expansion(tensor)
        lhs_odd = masses[:, 3] ** 2 - 4.0 * masses[:, 1] * masses[:, 5]
        rhs_odd = _odd_class_expansion(tensor)
        scale = masses.max(axis=1) ** 2
        tol = 1e-12 * scale
        violations: list[dict] = []
        for kind, lhs, rhs in (("even", lhs_even, rhs_even), ("odd", lhs_odd, rhs_odd)):
            for t in np.flatnonzero(np.abs(lhs - rhs) > tol):
                violations.append(
                    {
                        "trial": int(offset + t),
                        "kind": kind,
                        "lhs": float(lhs[t]),
                        "rhs": float(rhs[t]),
                        "factors": [f[t].tolist() for f in factors],
                    }
                )
        for t in np.flatnonzero(rhs_even < 0.0):
            violations.append(
                {
                    "trial": int(offset + t),
                    "kind": "even_negative",
                    "rhs": float(rhs_even[t]),
                    "factors": [f[t].tolist() for f in factors],
                }
            )
        rel = np.maximum(
            np.abs(lhs_even - rhs_even) / scale, np.abs(lhs_odd - rhs_odd) / scale
        )
        return violations, float(rel.max()), float(rhs_even.min())

    results = ordered_map(work, _chunks(trials))
    report = SuiteReport("identity", trials, seed, {})
    for violations, _, _ in results:
        report.violations.extend(violations)
    report.stats["max_relative_gap"] = max(r[1] for r in results)
    report.stats["min_even_expansion"] = min(r[2] for r in results)
    return report


def sign_suite(trials: int, seed: int = 0, strictness: float = 1e-9) -> SuiteReport:
    """Sign implication (and odd-certificate positivity) on positive products.

    Rows whose factor pmfs are not strictly positive beyond ``strictness``
    are redrawn; the sign hypothesis uses a float-noise deadband so that only
    genuinely strict signs trigger the implication.
    """

    def work(chunk: tuple[int, int, int]):
        index, offset, size = chunk
        rng = seeded_rng(seed, index)
        factors = []
        for _ in range(3):
            f = rng.dirichlet(np.ones(3), size=size)
            while True:
                bad = np.flatnonzero(f.min(axis=1) <= strictness)
                if bad.size == 0:
                    break
                f[bad] = rng.dirichlet(np.ones(3), size=bad.size)
            factors.append(f)
        a, b, c = factors
        x201 = a[:, 2] * b[:, 0] * c[:, 1]
        x021 = a[:, 0] * b[:, 2] * c[:, 1]
        x120 = a[:, 1] * b[:, 2] * c[:, 0]
        x102 = a[:, 1] * b[:, 0] * c[:, 2]
        x210 = a[:, 2] * b[:, 1] * c[:, 0]
        x012 = a[:, 0] * b[:, 1] * c[:, 2]
        deadband = 1e-15 * (a.max(axis=1) * b.max(axis=1) * c.max(axis=1))
        first = x201 - x021
        second = x120 - x102
        conclusion = x210 - x012
        strict = (np.abs(first) > deadband) & (np.abs(second) > deadband)
        agree = (first > 0.0) == (second > 0.0)
        hypothesis = strict & agree
        sign = np.where(first > 0.0, 1.0, -1.0)
        implied = sign * conclusion > -deadband
        tensor = np.einsum("ti,tj,tk->tijk", a, b, c)
        masses = ternary_sum_masses(tensor)
        lhs_odd = masses[:, 3] ** 2 - 4.0 * masses[:, 1] * masses[:, 5]
        violations: list[dict] = []
        for t in np.flatnonzero(hypothesis & ~implied):
            violations.append(
                {
                    "trial": int(offset + t),
                    "kind": "sign",
                    "differences": [float(first[t]), float(second[t]), float(conclusion[t])],
                    "factors": [f[t].tolist() for f in factors],
                }
            )
        for t in np.flatnonzero(hypothesis & (lhs_odd <= 0.0)):
            violations.append(
                {
                    "trial": int(offset + t),
                    "kind": "odd_not_positive",
                    "lhs": float(lhs_odd[t]),
                    "factors": [f[t].tolist() for f in factors],
                }
            )
        return violations, int(hypothesis.sum())

    results = ordered_map(work, _chunks(trials))
    report = SuiteReport("sign", trials, seed, {"strictness": strictness})
    for violations, _ in results:
        report.violations.extend(violations)
    report.stats["strict_hypothesis_count"] = sum(r[1] for r in results)
    return report


def preserve_suite(trials: int, seed: int = 0, max_order: int = 8) -> SuiteReport:
    """Bernoulli convolution preserves ultra-log-concavity, order bumped by one.

    Per trial: a random ULC(m) sequence with m drawn from 1..max_order and a
    random Bernoulli weight; the convolution must pass at order m + 1.
    """
    if max_order < 1:
        raise DomainError("max_order must be >= 1")

    def work(chunk: tuple[int, int, int]):
        index, offset, size = chunk
        rng = seeded_rng(seed, index)
        orders = rng.integers(1, max_order + 1, size=size)
        weights = rng.uniform(0.0, 1.0, size=size)
        violations: list[dict] = []
        worst = math.inf
        for order in range(1, max_order + 1):
            rows = np.flatnonzero(orders == order)
            if rows.size == 0:
                continue
            seqs = random_ulc_sequences(order, rows.size, rng)
            q = weights[rows]
            conv = np.zeros((rows.size, order + 2))
            conv[:, :-1] += seqs * (1.0 - q)[:, None]
            conv[:, 1:] += seqs * q[:, None]
            margins = ulc_order_margins(conv, order + 1)
            row_min = margins.min(axis=1)
            worst = min(worst, float(row_min.min()))
            tol = SLACK_COEFF * conv.max(axis=1) ** 2
            for t in np.flatnonzero(row_min < -tol):
                violations.append(
                    {
                        "trial": int(offset + rows[t]),
                        "order": int(order),
                        "bernoulli_weight": float(q[t]),
                        "sequence": seqs[t].tolist(),
                        "convolution": conv[t].tolist(),
                        "margin": float(row_min[t]),
                    }
                )
        return violations, worst

    results = ordered_map(work, _chunks(trials))
    report = SuiteReport("preserve", trials, seed, {"max_order": max_order})
    for violations, _ in results:
        report.violations.extend(violations)
    report.stats["min_margin"] = min(r[1] for r in results)
    return report


def decomposition_suite(trials: int, seed: int = 0, r: int | None = None) -> SuiteReport:
    """Residue decomposition identities on random pmfs.

    Per trial: reassembly and mixture round-trips entrywise within 1e-12, the
    entropy decomposition identity within 1e-10, and the residue splitting
    property of convolution by a multiple-of-r pmf within 1e-12.
    """
    if r is not None and r < 1:
        raise DomainError("r must be >= 1")

    def work(chunk: tuple[int, int, int]):
        index, offset, size = chunk
        rng = seeded_rng(seed, index)
        violations: list[dict] = []
        worst = {"reassembly": 0.0, "entropy": 0.0, "mixture": 0.0, "splitting": 0.0}

        def record(t: int, kind: str, error: float, probs: np.ndarray, modulus: int):
            worst[kind] = max(worst[kind], error)
            limit = 1e-10 if kind == "entropy" else 1e-12
            if error > limit:
                violations.append(
                    {
                        "trial": int(offset + t),
                        "kind": kind,
                        "error": float(error),
                        "r": int(modulus),
                        "pmf": probs.tolist(),
                    }
                )

        for t in range(size):
            modulus = int(r) if r is not None else int(rng.integers(1, 5))
            m = modulus * int(rng.integers(1, 5)) + int(rng.integers(0, modulus))
            probs = rng.dirichlet(np.ones(m + 1))
            pmf = Pmf(probs)
            dec = residue_decompose(pmf, modulus)

            rebuilt = dec.reassemble().probs
            record(t, "reassembly", float(np.abs(rebuilt - pmf.probs).max()), probs, modulus)

            direct = _entropy_bits(pmf.probs)
            split = _entropy_bits(dec.weights) + sum(
                float(w) * _entropy_bits(cond.probs)
                for w, cond in zip(dec.weights, dec.conditionals)
                if w > 0.0
            )
            record(t, "entropy", abs(direct - split), probs, modulus)

            mixed = mixture(dec.conditionals, dec.weights, modulus).probs
            record(t, "mixture", float(np.abs(mixed - pmf.probs).max()), probs, modulus)

            span = int(rng.integers(1, 4))
            coarse = rng.dirichlet(np.ones(span + 1))
            lifted = np.zeros(span * modulus + 1)
            lifted[::modulus] = coarse
            shifted = convolve(pmf, Pmf(lifted))
            dec2 = residue_decompose(shifted, modulus)
            err = 0.0
            for j in range(modulus):
                expected = np.convolve(dec.conditionals[j].probs, coarse)
                err = max(err, float(np.abs(dec2.conditionals[j].probs - expected).max()))
            record(t, "splitting", err, probs, modulus)
        return violations, worst

    results = ordered_map(work, _chunks(trials))
    report = SuiteReport("decomposition", trials, seed, {"r": r})
    for violations, _ in results:
        report.violations.extend(violations)
    for key in ("reassembly", "entropy", "mixture", "splitting"):
        report.stats[f"max_{key}_error"] = max(r[1][key] for r in results)
    return report
