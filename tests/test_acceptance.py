"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a `[criterion NN] PASS` line with its runtime and asserts
the runtime budget on top of the numerical requirements, so a plain
``pytest -v tests/test_acceptance.py`` doubles as the acceptance report.
"""

import math
import time

import numpy as np
import pytest

from maxentsum import (
    BudgetExceededError,
    OptimizerConfig,
    Pmf,
    binomial_half_entropy,
    bound_value_at,
    closed_form_special,
    conjectured_inputs,
    conjectured_weight,
    entropy,
    entropy_lower_bound,
    grid_oracle,
    identity_suite,
    multistart_maximize,
    objective_gradient,
    preserve_suite,
    residue_decompose,
    restricted_maximize,
    sign_suite,
    sum_distribution,
    ulc_suite,
)
from maxentsum.cli import main


class _Clock:
    def __init__(self, number: int, description: str, budget_s: float):
        self.number = number
        self.description = description
        self.budget_s = budget_s
        self.start = time.perf_counter()

    def finish(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget_s, (
            f"criterion {self.number} exceeded its runtime budget: "
            f"{elapsed:.1f}s >= {self.budget_s:.0f}s"
        )
        print(
            f"[criterion {self.number:02d}] PASS in {elapsed:.2f}s "
            f"(budget {self.budget_s:.0f}s): {self.description}"
        )


def test_criterion_01_special_case_exactness():
    clock = _Clock(1, "bound reduces to log2(r+1) at n=1 and to H(B_n) at r=1", 1.0)
    for r in range(1, 17):
        assert abs(entropy_lower_bound(1, r).bound_bits - math.log2(r + 1)) <= 1e-12
    for n in range(1, 21):
        assert abs(entropy_lower_bound(n, 1).bound_bits - binomial_half_entropy(n)) <= 1e-12
    clock.finish()


def test_criterion_02_closed_form_consistency():
    clock = _Clock(2, "special-case closed forms agree with the general bound", 1.0)
    for r in range(1, 17):
        assert abs(closed_form_special(2, r) - entropy_lower_bound(2, r).bound_bits) <= 1e-12
    assert abs(closed_form_special(3, 2) - entropy_lower_bound(3, 2).bound_bits) <= 1e-12
    clock.finish()


def test_criterion_03_construction_realizes_bound():
    clock = _Clock(3, "construction attains the bound with binomial residue classes", 5.0)
    for n in range(1, 11):
        for r in range(1, 11):
            inputs = conjectured_inputs(n, r)
            achieved = entropy(sum_distribution(inputs))
            assert abs(achieved - entropy_lower_bound(n, r).bound_bits) <= 1e-10, (n, r)
            dec = residue_decompose(sum_distribution(inputs), r)
            class0 = np.array([math.comb(n, k) for k in range(n + 1)], float) / 2**n
            np.testing.assert_allclose(dec.conditionals[0].probs, class0, atol=1e-12)
            if r > 1:
                classj = (
                    np.array([math.comb(n - 1, k) for k in range(n)], float) / 2 ** (n - 1)
                )
                for j in range(1, r):
                    np.testing.assert_allclose(dec.conditionals[j].probs, classj, atol=1e-12)
    clock.finish()


def test_criterion_04_two_summand_equality():
    clock = _Clock(4, "n=2 maximum matches the closed form; grid never exceeds it", 120.0)
    for r in (2, 3, 4, 5):
        closed = closed_form_special(2, r)
        result = multistart_maximize(2, r, OptimizerConfig(starts=64, seed=24))
        assert abs(result.best_value - closed) <= 1e-6, (r, result.best_value, closed)
        assert result.best_value <= closed + 1e-9, (r, result.best_value, closed)
    # K = 24 keeps the ordered tuple count within the enumeration budget only
    # for r in {2, 3}; beyond that the oracle must refuse with the budget.
    for r in (2, 3):
        assert grid_oracle(2, r, 24) <= closed_form_special(2, r) + 1e-12
    # Coarser grids keep r in {4, 5} within the budget.
    for r, k in ((4, 16), (5, 10)):
        assert grid_oracle(2, r, k) <= closed_form_special(2, r) + 1e-12
    for r in (4, 5):
        with pytest.raises(BudgetExceededError, match="budget"):
            grid_oracle(2, r, 24)
    clock.finish()


def test_criterion_05_three_summand_ternary_equality():
    clock = _Clock(5, "n=3, r=2 maximum matches the ternary closed form", 60.0)
    closed = closed_form_special(3, 2)
    result = multistart_maximize(3, 2, OptimizerConfig(starts=64, seed=25))
    assert abs(result.best_value - closed) <= 1e-6
    assert result.best_value <= closed + 1e-9
    clock.finish()


def test_criterion_06_restricted_equality():
    clock = _Clock(6, "restricted two-free / three-free runs attain the bound", 180.0)
    cells = [(4, 3, 2), (5, 4, 2), (5, 2, 3), (4, 2, 3)]
    for n, r, ell in cells:
        result = restricted_maximize(n, r, ell, OptimizerConfig(starts=16, seed=26))
        bound = entropy_lower_bound(n, r).bound_bits
        assert abs(result.best_value - bound) <= 1e-6, (n, r, ell, result.best_value, bound)
    clock.finish()


def test_criterion_07_conditional_ulc_certificates():
    clock = _Clock(7, "10^5 random products per cell show zero conditional-ULC violations", 120.0)
    for n, r in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2)]:
        report = ulc_suite(n, r, trials=100_000, seed=1000 + 10 * n + r)
        assert report.passed, report.violations[:3]
    clock.finish()


def test_criterion_08_identity_and_sign_suites():
    clock = _Clock(8, "certificate identities and the sign lemma on 10^5 products", 60.0)
    identity_report = identity_suite(trials=100_000, seed=8)
    assert identity_report.passed, identity_report.violations[:3]
    assert identity_report.stats["max_relative_gap"] <= 1e-12
    assert identity_report.stats["min_even_expansion"] >= 0.0
    sign_report = sign_suite(trials=100_000, seed=8)
    assert sign_report.passed, sign_report.violations[:3]
    clock.finish()


def test_criterion_09_bernoulli_preservation():
    clock = _Clock(9, "10^4 ULC(m) sequences stay ULC(m+1) after Bernoulli convolution", 30.0)
    report = preserve_suite(trials=10_000, seed=9)
    assert report.passed, report.violations[:3]
    clock.finish()


def test_criterion_10_weight_stationarity():
    clock = _Clock(10, "central difference of the bound vanishes at the weight", 1.0)
    step = 1e-6
    for n in range(2, 9):
        for r in range(2, 9):
            w0 = conjectured_weight(n, r)
            derivative = (
                bound_value_at(w0 + step, n, r) - bound_value_at(w0 - step, n, r)
            ) / (2 * step)
            assert abs(derivative) < 1e-7, (n, r, derivative)
    clock.finish()


def test_criterion_11_gradient_check():
    clock = _Clock(11, "analytic gradient matches tangent finite differences", 60.0)
    step = 1e-6
    rng = np.random.default_rng(11)
    for n in range(1, 5):
        for r in range(1, 5):
            for _ in range(100):
                blocks = [rng.dirichlet(np.ones(r + 1)) for _ in range(n)]
                inputs = [Pmf(b) for b in blocks]
                i = int(rng.integers(0, n))
                grad = objective_gradient(inputs, i)
                for a in range(1, r + 1):
                    plus = [b.copy() for b in blocks]
                    minus = [b.copy() for b in blocks]
                    plus[i][a] += step
                    plus[i][0] -= step
                    minus[i][a] -= step
                    minus[i][0] += step

                    def h_bits(parts):
                        acc = parts[0]
                        for part in parts[1:]:
                            acc = np.convolve(acc, part)
                        positive = acc[acc > 0]
                        return float(-(positive @ np.log2(positive)))

                    fd = (h_bits(plus) - h_bits(minus)) / (2 * step)
                    analytic = grad[a] - grad[0]
                    assert abs(fd - analytic) <= 1e-6 * max(abs(fd), abs(analytic), 1.0), (
                        n, r, i, a, fd, analytic,
                    )
    clock.finish()


def test_criterion_12_conjecture_sweep_evidence():
    clock = _Clock(12, "64-start sweep over open cells keeps |gap| within 1e-6", 900.0)
    outcomes = []
    for n in range(3, 6):
        for r in range(2, 5):
            result = multistart_maximize(n, r, OptimizerConfig(starts=64, seed=12))
            outcomes.append((n, r, result.gap_to_bound))
    for n, r, gap in outcomes:
        print(f"    sweep cell (n={n}, r={r}): gap = {gap:+.3e}")
        if gap > 1e-6:
            pytest.fail(
                f"POTENTIAL COUNTEREXAMPLE at (n={n}, r={r}): "
                f"numeric maximum exceeds the bound by {gap:.3e}"
            )
        assert -1e-6 <= gap <= 1e-6, (n, r, gap)
    clock.finish()


def test_criterion_13_sweep_determinism(tmp_path, capsys):
    clock = _Clock(13, "repeated seeded sweeps produce byte-identical CSV bodies", 120.0)
    paths = [tmp_path / "sweep_a.csv", tmp_path / "sweep_b.csv"]
    for path in paths:
        code = main(
            [
                "sweep", "--n-max", "2", "--r-max", "2", "--seed", "42",
                "--starts", "6", "--no-timing", "--out", str(path),
            ]
        )
        assert code == 0
    capsys.readouterr()  # swallow the summary lines
    assert paths[0].read_bytes() == paths[1].read_bytes()
    clock.finish()
