"""Block-ascent maximizer, gradients, grid oracle, determinism."""

import math

import numpy as np
import pytest

from maxentsum import (
    BudgetExceededError,
    DomainError,
    OptimizerConfig,
    Pmf,
    binomial_half_entropy,
    block_ascend,
    closed_form_special,
    entropy,
    entropy_lower_bound,
    grid_oracle,
    multistart_maximize,
    objective_gradient,
    restricted_maximize,
    sum_distribution,
)
from maxentsum import optimize

LOG2E = math.log2(math.e)


def random_inputs(rng, n, r):
    return [Pmf(rng.dirichlet(np.ones(r + 1))) for _ in range(n)]


def tangent_directional_fd(inputs, i, a, b, h=1e-6):
    """Central difference of H(S_n) along e_a - e_b within block i."""

    def value(shift):
        blocks = [p.probs.astype(float).copy() for p in inputs]
        blocks[i][a] += shift
        blocks[i][b] -= shift
        acc = blocks[0]
        for blk in blocks[1:]:
            acc = np.convolve(acc, blk)
        positive = acc[acc > 0]
        return float(-(positive @ np.log2(positive)))

    return (value(h) - value(-h)) / (2 * h)


class TestOptimizerConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert cfg.starts == 64
        assert cfg.max_outer_sweeps == 10_000
        assert cfg.outer_tol == 1e-12
        assert cfg.include_conjectured_start

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"starts": 0},
            {"inner_tol": 0.0},
            {"outer_tol": -1.0},
            {"max_outer_sweeps": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            OptimizerConfig(**kwargs)


class TestObjectiveGradient:
    def test_single_block_formula(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            p = rng.dirichlet(np.ones(5))
            grad = objective_gradient([Pmf(p)], 0)
            expected = -(np.log2(p) + LOG2E)
            np.testing.assert_allclose(grad, expected, atol=1e-10)

    def test_symmetric_inputs_give_symmetric_gradient(self):
        r = 3
        edge = np.zeros(r + 1)
        edge[0] = edge[r] = 0.5
        inputs = [Pmf(edge)] * 3
        grad = objective_gradient(inputs, 1)
        np.testing.assert_allclose(grad, grad[::-1], atol=1e-9)

    def test_matches_tangent_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            inputs = random_inputs(rng, 3, 2)
            i = int(rng.integers(0, 3))
            grad = objective_gradient(inputs, i)
            for a in range(1, 3):
                fd = tangent_directional_fd(inputs, i, a, 0)
                analytic = grad[a] - grad[0]
                assert abs(fd - analytic) <= 1e-6 * max(abs(fd), abs(analytic), 1.0)

    def test_block_index_domain(self):
        with pytest.raises(DomainError):
            objective_gradient([Pmf.uniform(2)], 1)


class TestBlockAscend:
    def test_already_optimal_block_unchanged(self):
        p = Pmf.uniform(4)
        out = block_ascend([p], 0)
        np.testing.assert_allclose(out.probs, p.probs, atol=1e-10)

    def test_converges_to_uniform_bernoulli(self):
        rng = np.random.default_rng(42)
        start = Pmf(rng.dirichlet(np.ones(2)))
        out = block_ascend([Pmf.uniform(1), start], 1)
        np.testing.assert_allclose(out.probs, [0.5, 0.5], atol=1e-5)

    def test_never_decreases_objective(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n, r = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            inputs = random_inputs(rng, n, r)
            i = int(rng.integers(0, n))
            before = entropy(sum_distribution(inputs))
            updated = list(inputs)
            updated[i] = block_ascend(inputs, i)
            after = entropy(sum_distribution(updated))
            assert after >= before - 1e-12


class TestMultistart:
    def test_single_summand_reaches_uniform(self):
        cfg = OptimizerConfig(starts=8, seed=0)
        result = multistart_maximize(1, 4, cfg)
        assert result.best_value == pytest.approx(math.log2(5), abs=1e-8)
        np.testing.assert_allclose(result.best_inputs[0].probs, np.full(5, 0.2), atol=1e-8)

    def test_deterministic(self):
        cfg = OptimizerConfig(starts=6, seed=123)
        a = multistart_maximize(2, 2, cfg)
        b = multistart_maximize(2, 2, cfg)
        assert a.best_value == b.best_value
        assert a.gap_to_bound == b.gap_to_bound
        for ra, rb in zip(a.per_start, b.per_start):
            assert (ra.start_id, ra.value, ra.sweeps, ra.converged) == (
                rb.start_id,
                rb.value,
                rb.sweeps,
                rb.converged,
            )
        for pa, pb in zip(a.best_inputs, b.best_inputs):
            np.testing.assert_array_equal(pa.probs, pb.probs)

    def test_result_invariants(self):
        cfg = OptimizerConfig(starts=5, seed=9)
        result = multistart_maximize(2, 3, cfg)
        assert len(result.per_start) == 6  # starts + conjectured
        recomputed = entropy(sum_distribution(result.best_inputs))
        assert abs(recomputed - result.best_value) <= 1e-12
        assert result.best_value >= max(rec.value for rec in result.per_start) - 0.0

    def test_dominates_lower_bound(self):
        for n, r in [(1, 3), (2, 2), (3, 2), (2, 4)]:
            cfg = OptimizerConfig(starts=2, seed=1)
            result = multistart_maximize(n, r, cfg)
            assert result.gap_to_bound >= -1e-9

    def test_without_conjectured_start(self):
        cfg = OptimizerConfig(starts=4, seed=2, include_conjectured_start=False)
        result = multistart_maximize(2, 1, cfg)
        assert len(result.per_start) == 4
        assert result.best_value == pytest.approx(1.5, abs=1e-7)


class TestConvergenceFlag:
    def test_spent_inner_budget_is_not_converged(self, monkeypatch):
        monkeypatch.setattr(optimize, "_MAX_INNER", 2)
        result = multistart_maximize(2, 3, OptimizerConfig(starts=4, seed=0))
        assert result.converged_fraction() < 1
        assert "inner_budget" in {rec.reason for rec in result.per_start}

    def test_sweep_cap_is_not_converged(self):
        result = multistart_maximize(2, 2, OptimizerConfig(starts=3, seed=0, max_outer_sweeps=1))
        assert result.converged_fraction() == 0.0
        assert {rec.reason for rec in result.per_start} == {"max_outer_sweeps"}
        assert all(rec.sweeps == 1 for rec in result.per_start)

    def test_reason_matches_flag(self):
        result = multistart_maximize(3, 2, OptimizerConfig(starts=6, seed=3))
        for rec in result.per_start:
            assert rec.converged == (rec.reason == "stationary")
            assert rec.reason in optimize.REASONS
            assert math.isfinite(rec.gap)


class TestLockstepDeterminism:
    @pytest.mark.parametrize("n, r", [(2, 3), (3, 2)])
    def test_start_does_not_depend_on_its_batch(self, n, r):
        alone = multistart_maximize(n, r, OptimizerConfig(starts=1, include_conjectured_start=False))
        batched = multistart_maximize(n, r, OptimizerConfig(starts=8, include_conjectured_start=False))
        a, b = alone.per_start[0], batched.per_start[0]
        assert (a.value, a.sweeps, a.converged) == (b.value, b.sweeps, b.converged)

    def test_results_do_not_depend_on_chunks_or_workers(self, monkeypatch):
        cfg = OptimizerConfig(starts=8, seed=5)
        reference = multistart_maximize(2, 3, cfg).as_dict()
        monkeypatch.setattr(optimize, "_START_CHUNK", 3)  # three jobs for the pool
        for threads in ("1", "2"):
            monkeypatch.setenv("MAXENT_THREADS", threads)
            assert multistart_maximize(2, 3, cfg).as_dict() == reference

    def test_starts_are_dispatched_through_ordered_map(self, monkeypatch):
        jobs = []
        original = optimize.ordered_map

        def recording(fn, items):
            jobs.extend(items)
            return original(fn, items)

        monkeypatch.setattr(optimize, "ordered_map", recording)
        result = multistart_maximize(2, 2, OptimizerConfig(starts=5, seed=1))
        assert jobs == [list(range(6))]  # one job: five random starts, then the conjectured one
        assert [rec.start_id for rec in result.per_start] == list(range(6))


class TestRestricted:
    def test_full_ell_equals_binary_alphabet_result(self):
        cfg = OptimizerConfig(starts=6, seed=3)
        result = restricted_maximize(3, 1, 3, cfg)
        assert result.best_value == pytest.approx(binomial_half_entropy(3), abs=1e-6)

    def test_two_free_blocks_attain_bound(self):
        cfg = OptimizerConfig(starts=8, seed=4)
        result = restricted_maximize(3, 3, 2, cfg)
        assert result.best_value == pytest.approx(
            entropy_lower_bound(3, 3).bound_bits, abs=1e-6
        )

    def test_restricted_blocks_keep_two_point_support(self):
        cfg = OptimizerConfig(starts=4, seed=5)
        result = restricted_maximize(4, 3, 2, cfg)
        for p in result.best_inputs[2:]:
            assert np.all(p.probs[1:-1] == 0.0)

    def test_ell_domain(self):
        with pytest.raises(DomainError):
            restricted_maximize(3, 2, 0)
        with pytest.raises(DomainError):
            restricted_maximize(3, 2, 4)


class TestGridOracle:
    def test_fair_coin_on_grid(self):
        assert grid_oracle(1, 1, 2) == pytest.approx(1.0, abs=1e-15)

    def test_two_binary_summands(self):
        value = grid_oracle(2, 1, 64)
        assert abs(value - 1.5) < 5e-3
        assert value <= 1.5 + 1e-12

    def test_never_exceeds_closed_form(self):
        assert grid_oracle(2, 2, 12) <= closed_form_special(2, 2) + 1e-12

    def test_monotone_along_nested_refinements(self):
        values = [grid_oracle(2, 2, k) for k in (3, 6, 12, 24)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_three_summands_small(self):
        value = grid_oracle(3, 1, 8)
        assert value <= binomial_half_entropy(3) + 1e-12
        assert value > binomial_half_entropy(3) - 0.05

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError, match="budget"):
            grid_oracle(2, 4, 24)

    def test_resolution_domain(self):
        with pytest.raises(DomainError):
            grid_oracle(2, 2, 0)
