"""Block-ascent maximizer, gradients, grid oracle, determinism."""

import dataclasses
import hashlib
import itertools
import json
import math
import time

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
from maxentsum import kernels, optimize
from maxentsum.kernels import conv_rows
from maxentsum.pmf import ZERO_FLOOR

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
        assert [f.name for f in dataclasses.fields(cfg)] == ["starts", "seed", "outer_tol"]
        assert cfg.starts == 64
        assert cfg.outer_tol == 1e-12
        assert (optimize.INNER_TOL, optimize.MAX_OUTER_SWEEPS) == (1e-10, 10_000)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"starts": 0},
            {"outer_tol": 0.0},
            {"outer_tol": -1.0},
            {"outer_tol": math.inf},
            {"starts": 2.5},
            {"seed": -1},
            {"seed": 1.5},
            {"outer_tol": math.nan},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            OptimizerConfig(**kwargs)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan, True, "1e-3"])
    def test_outer_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(DomainError, match=r"^outer_tol must be a finite number > 0, got "):
            OptimizerConfig(outer_tol=tol)


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

    @pytest.mark.parametrize("call", [objective_gradient, block_ascend])
    def test_needs_blocks_on_one_alphabet(self, call):
        with pytest.raises(DomainError, match=rf"^{call.__name__} needs at least one summand"):
            call([], 0)
        with pytest.raises(DomainError, match="common alphabet"):
            call([Pmf.uniform(2), Pmf.uniform(3)], 0)


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

    def test_stiff_block_reaches_stationarity(self):
        # An exponent that doubles after every accepted step locks this block
        # into an eta = 2 <-> 4 cycle: it spends all 400 accepted steps and
        # ends with gap 1.7e-3.
        fixed = Pmf([0.29796, 0.04201, 0.32006, 0.04201, 0.29796])
        out = block_ascend([fixed, [0.28959, 0.2104, 1.8e-05, 0.2104, 0.289592]], 1)
        grad = objective_gradient([fixed, out], 1)
        assert grad.max() - grad @ out.probs <= optimize.INNER_TOL

    # The update never regrows an exact zero, so without the entry lift the
    # first block stays put with gap 996 bits (and a 0/0 step) and the second
    # stops at H 1.4690 with gap 2.54.
    @pytest.mark.parametrize("other, value", [
        pytest.param([1.0, 0.0, 0.0], math.log2(3), id="point-mass"),
        pytest.param([0.9, 0.1, 0.0], 1.7495, id="two-point"),
    ])
    def test_zero_mass_at_the_top_is_lifted(self, other, value):
        out = block_ascend([[0.5, 0.0, 0.5], other], 0)
        grad = objective_gradient([out, other], 0)
        assert grad.max() - grad @ out.probs <= optimize.INNER_TOL
        assert entropy(sum_distribution([out, Pmf(other)])) == pytest.approx(value, abs=1e-4)

    def test_candidate_whose_masses_all_underflow_is_rejected(self):
        # The gradient's top moves onto the zero mid mass, and a large exponent
        # underflows both masses of p exp(eta shift): the candidate sums to 0.
        # Under the repo's warnings-as-errors a 0/0 renormalization fails here.
        before = entropy(sum_distribution([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5]]))
        out = block_ascend([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5]], 0)
        assert np.isfinite(out.probs).all()
        assert entropy(sum_distribution([out, Pmf([0.5, 0.0, 0.5])])) >= before

    def test_block_whose_budget_runs_out_is_entered_again(self):
        # The last mass underflows to 0 and then becomes the gradient's top:
        # one entry spends its budget at [0.5, 0.5, 0], gap 497.3 bits, H 2.0.
        # The block maximum is (a, 1 - 2a, a), a = 1 - 1/sqrt(2).
        other = [0.5, 0.0, 0.5]
        out = block_ascend([[1.0, 0.0, 0.0], other], 0)
        grad = objective_gradient([out, other], 0)
        assert grad.max() - grad @ out.probs <= optimize.INNER_TOL
        assert entropy(sum_distribution([out, Pmf(other)])) == pytest.approx(2.2716, abs=1e-4)


class TestNewtonExponent:
    def test_is_slope_over_curvature_along_the_update_curve(self):
        # f'(0) / -f''(0) of H(S_n) along q(eta) ∝ p exp(eta c), c = g - g.p,
        # by central differences; a curve that is not concave gets _ETA_MAX.
        rng = np.random.default_rng(0)
        h = 1e-3
        checked = 0
        for _ in range(40):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            blocks = rng.dirichlet(np.ones(m), size=(1, n))
            i = int(rng.integers(0, n))
            p = blocks[0, i]
            newton = optimize._block_terms(blocks, np.array([i]), np.zeros((1, m)))[-1]
            inputs = [Pmf(b) for b in blocks[0]]
            g = objective_gradient(inputs, i)
            c = g - g @ p

            def value(eta):
                q = p * np.exp(eta * c)
                return entropy(sum_distribution(inputs[:i] + [q / q.sum()] + inputs[i + 1:]))

            lo, mid, hi = value(-h), value(0.0), value(h)
            slope, curvature = (hi - lo) / (2 * h), (hi - 2 * mid + lo) / h**2
            if newton[0] == kernels._ETA_MAX:
                assert curvature > -1e-6
            else:
                checked += 1
                assert newton[0] == pytest.approx(slope / -curvature, rel=2e-3)
        assert checked >= 10


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
        result = multistart_maximize(2, 1, OptimizerConfig(starts=4, seed=2))
        random_starts = result.per_start[:-1]
        assert [rec.start_id for rec in random_starts] == [0, 1, 2, 3]
        assert max(rec.value for rec in random_starts) == pytest.approx(1.5, abs=1e-7)

    @pytest.mark.parametrize("n, r", [(3, 4), (6, 6)])
    def test_conjectured_start_lands_on_the_bound(self, n, r):
        rec = multistart_maximize(n, r, OptimizerConfig(starts=1, seed=0)).per_start[-1]
        assert abs(rec.value - entropy_lower_bound(n, r).bound_bits) <= 1e-14

    def test_summand_count_domain(self):
        with pytest.raises(DomainError, match="summand count must be an integer >= 1, got 2.0"):
            multistart_maximize(2.0, 3)


class TestConvergenceFlag:
    def test_spent_inner_budget_is_not_converged(self, monkeypatch):
        monkeypatch.setattr(optimize, "_MAX_INNER", 2)
        result = multistart_maximize(2, 3, OptimizerConfig(starts=4, seed=0))
        assert result.converged_fraction() < 1
        assert "inner_budget" in {rec.reason for rec in result.per_start}

    def test_sweep_cap_is_not_converged(self, monkeypatch):
        monkeypatch.setattr(optimize, "MAX_OUTER_SWEEPS", 1)
        result = multistart_maximize(2, 2, OptimizerConfig(starts=3, seed=0))
        assert result.converged_fraction() == 0.0
        assert {rec.reason for rec in result.per_start} == {"max_outer_sweeps"}
        assert all(rec.sweeps == 1 for rec in result.per_start)

    def test_settling_on_the_last_allowed_sweep_is_converged(self, monkeypatch):
        free = multistart_maximize(2, 2, OptimizerConfig(starts=3, seed=0)).per_start[0]
        monkeypatch.setattr(optimize, "MAX_OUTER_SWEEPS", free.sweeps)
        capped = multistart_maximize(2, 2, OptimizerConfig(starts=3, seed=0)).per_start[0]
        assert free.converged and capped == free

    def test_reason_matches_flag(self):
        config = OptimizerConfig(starts=6, seed=3)
        result = multistart_maximize(3, 2, config)
        for rec in result.per_start:
            assert rec.converged == (rec.reason == "stationary")
            assert rec.reason in optimize.REASONS
            assert math.isfinite(rec.gap)
            assert not rec.converged or rec.gap <= optimize.INNER_TOL


#: Calls shared by the inexact-block tests: ``(n, r, ell, starts, seed)``.
CUT_CELLS = [(2, 4, None, 32, 1), (2, 4, None, 32, 2), (2, 4, None, 32, 3),
             (3, 3, None, 16, 1), (4, 3, 2, 16, 1)]


def _run_cell(n, r, ell, starts, seed):
    cfg = OptimizerConfig(starts=starts, seed=seed)
    return multistart_maximize(n, r, cfg) if ell is None else restricted_maximize(n, r, ell, cfg)


@pytest.fixture(scope="module")
def exact_runs():
    """The ``CUT_CELLS`` runs with every block solved to stationarity."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "_GAP_CUT", 0.0)
        return {cell: _run_cell(*cell) for cell in CUT_CELLS}


@pytest.fixture(scope="module")
def cut_runs():
    """The ``CUT_CELLS`` runs with the default ``_GAP_CUT``."""
    return {cell: _run_cell(*cell) for cell in CUT_CELLS}


class TestInexactBlocks:
    def _cut_short(self, monkeypatch):
        """Record per closed block whether it ended only at its cut gap."""
        flags = []
        original = optimize._Lockstep.close

        def close(run, idx):
            exact = run.gap[idx] <= optimize.INNER_TOL
            exact |= run.inner[idx] >= optimize._MAX_INNER
            flags.extend(~exact)
            return original(run, idx)

        monkeypatch.setattr(optimize._Lockstep, "close", close)
        return flags

    def test_zero_cut_solves_every_block(self, monkeypatch):
        flags = self._cut_short(monkeypatch)
        multistart_maximize(2, 3, OptimizerConfig(starts=8, seed=1))
        assert any(flags)
        flags.clear()
        monkeypatch.setattr(optimize, "_GAP_CUT", 0.0)
        multistart_maximize(2, 3, OptimizerConfig(starts=8, seed=1))
        assert flags and not any(flags)

    def test_block_ascend_ignores_the_cut(self, monkeypatch):
        inputs = random_inputs(np.random.default_rng(3), 3, 3)
        exact = block_ascend(inputs, 1)
        monkeypatch.setattr(optimize, "_GAP_CUT", 0.9)
        assert block_ascend(inputs, 1).probs.tolist() == exact.probs.tolist()

    def test_best_values_match_the_exact_solve(self, exact_runs, cut_runs):
        for cell, exact in exact_runs.items():
            assert abs(cut_runs[cell].best_value - exact.best_value) <= 1e-14, cell

    def test_cut_at_least_halves_the_steps(self, exact_runs, cut_runs):
        cells = [cell for cell in CUT_CELLS if cell[:2] == (2, 4)]
        exact = sum(rec.steps for cell in cells for rec in exact_runs[cell].per_start)
        cut = sum(rec.steps for cell in cells for rec in cut_runs[cell].per_start)
        assert 0 < 2 * cut <= exact

    def test_loose_cut_keeps_reasons_and_values(self, monkeypatch, exact_runs):
        monkeypatch.setattr(optimize, "_GAP_CUT", 0.9)
        for cell, exact in exact_runs.items():
            result = _run_cell(*cell)
            assert abs(result.best_value - exact.best_value) <= 1e-9, cell
            for rec in result.per_start:
                assert rec.reason in optimize.REASONS
                assert rec.converged == (rec.reason == "stationary")


#: Start 0 of this (2,4) call crawls along a ridge: 189 sweeps without sweep-end extrapolation.
RIDGE = dict(starts=1, seed=201)


def _plain_digest(result):
    """sha256 of ``as_dict()`` without ``jumps``, as ascent without sweep-end
    extrapolation reports it."""
    payload = result.as_dict()
    for rec in payload["per_start"]:
        del rec["jumps"]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class TestExtrapolation:
    def _jumped(self, monkeypatch):
        """Record, per accepted extrapolation, the blocks before and after it
        and the free mask."""
        jumped = []
        original = optimize._Lockstep._extrapolate

        def extrapolate(run, idx):
            before = run.blocks[idx].copy()
            original(run, idx)
            after = run.blocks[idx]
            for k in (after != before).any(axis=(1, 2)).nonzero()[0]:
                jumped.append((before[k], after[k].copy(), run.block_neg == 0.0))

        monkeypatch.setattr(optimize._Lockstep, "_extrapolate", extrapolate)
        return jumped

    # A free mass may be exactly 0 before a jump (block entry drops dominated
    # masses), so a jump keeps it at 0; it never zeroes a positive mass.
    def test_ridge_start_jumps_without_zeroing_a_free_mass(self, monkeypatch):
        jumped = self._jumped(monkeypatch)
        rec = multistart_maximize(2, 4, OptimizerConfig(**RIDGE)).per_start[0]
        assert rec.converged and rec.sweeps < 100
        assert rec.jumps == len(jumped) > 0
        for before, after, _ in jumped:
            assert (after[before > 0.0] > ZERO_FLOOR).all()

    def test_pinned_masses_stay_zero(self, monkeypatch):
        jumped = self._jumped(monkeypatch)
        result = restricted_maximize(3, 5, 2, OptimizerConfig(starts=8, seed=4))
        assert sum(rec.jumps for rec in result.per_start) == len(jumped) > 0
        for before, after, free in jumped:
            assert (after[~free] == 0.0).all() and (after[before > 0.0] > ZERO_FLOOR).all()

    def test_origin_is_the_sweep_start_from_the_first_sweep(self, monkeypatch):
        # Extrapolating from sweep 1 on reads the origin of every row's first
        # sweep, which must be its start blocks.
        origins = []
        original = optimize._Lockstep._extrapolate

        def extrapolate(run, rows):
            origins.extend(zip(run.ids[rows].tolist(), run.sweeps[rows].tolist(),
                               run.origin[rows].copy()))
            original(run, rows)

        monkeypatch.setattr(optimize._Lockstep, "_extrapolate", extrapolate)
        monkeypatch.setattr(optimize, "_XFROM", 1)
        config = OptimizerConfig(starts=8, seed=201)
        multistart_maximize(2, 4, config)
        assert origins
        for sid, sweeps, origin in origins:
            np.testing.assert_allclose(origin.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
            if sweeps == 1 and sid < config.starts:
                start = optimize._random_start(np.zeros((2, 5)), config.seed, sid)
                assert (origin == start).all()

    def test_ranking_never_lowers_a_value_and_keeps_a_losing_row(self, monkeypatch):
        rankings = []
        original = optimize._Lockstep._extrapolate

        def extrapolate(run, rows):
            fields = ("blocks", "value", "steps", "jumps")
            before = [getattr(run, name)[rows].copy() for name in fields]
            original(run, rows)
            rankings.append((*before, *(getattr(run, name)[rows].copy() for name in fields)))

        monkeypatch.setattr(optimize._Lockstep, "_extrapolate", extrapolate)
        multistart_maximize(2, 4, OptimizerConfig(starts=8, seed=201))
        restricted_maximize(3, 5, 2, OptimizerConfig(starts=8, seed=4))
        won = lost = 0
        for blocks, value, steps, jumps, new_blocks, new_value, new_steps, new_jumps in rankings:
            wins = new_jumps > jumps
            assert (new_value >= value).all() and (wins == (new_value > value)).all()
            assert (new_steps - steps == optimize._LEAPS.size).all()
            sums = kernels.fold_rows(new_blocks[wins])
            assert (kernels.entropy_rows(sums, kernels.log2_rows(sums)) == new_value[wins]).all()
            assert new_blocks[~wins].tobytes() == blocks[~wins].tobytes()
            won, lost = won + wins.sum(), lost + (~wins).sum()
        assert won and lost

    def test_steps_count_trials_and_are_pinned(self, cut_runs):
        cells = [cell for cell in CUT_CELLS if cell[:2] == (2, 4)]
        records = [rec for cell in cells for rec in cut_runs[cell].per_start]
        assert sum(rec.steps for rec in records) == 8_413  # 14,698 without sweep-end extrapolation
        assert sum(rec.jumps for rec in records) == 46

    # Each digest was recorded from the same call with ``_extrapolate`` a no-op.
    @pytest.mark.parametrize("n, r, config, digest", [
        pytest.param(3, 2, dict(starts=6, seed=3),
                     "989cc6fe0ce224f5100c02bf2b36cea417dd2f6e2729d5d454554c56b6498815", id="3-2"),
        pytest.param(2, 4, RIDGE,
                     "2a846c2dcfe81c86f8bacabaae410e3b4a09d4fbb995e73cb8c82867e13f4dbd", id="2-4-ridge"),
    ])
    def test_gate_past_the_sweep_cap_gives_plain_ascent(self, monkeypatch, n, r, config, digest):
        config = OptimizerConfig(**config)
        monkeypatch.setattr(optimize, "_XFROM", optimize.MAX_OUTER_SWEEPS + 1)
        result = multistart_maximize(n, r, config)
        assert all(rec.jumps == 0 for rec in result.per_start)
        assert _plain_digest(result) == digest


class TestEntryMove:
    @pytest.mark.parametrize("n, r, ell, seed", [
        pytest.param(3, 4, None, 401, id="3-4"),
        pytest.param(4, 3, 2, 5, id="restricted-4-3-2"),
    ])
    def test_never_lowers_the_block_value(self, monkeypatch, n, r, ell, seed):
        moved = []
        original = optimize._Lockstep.enter

        def enter(run, idx):
            before = run.blocks[idx, run.cur[idx]]
            cur = run.cur[idx]
            value = optimize._block_terms(run.blocks[idx], cur, run.block_neg[cur])[1]
            stationary = original(run, idx)
            assert (run.value[idx] >= value).all()
            moved.extend((run.p[idx] != before).any(axis=1))
            return stationary

        monkeypatch.setattr(optimize._Lockstep, "enter", enter)
        _run_cell(n, r, ell, 32, seed)
        assert any(moved)

    def test_slowest_stiff_start_is_pinned(self):
        # The (3,4) cell of benchmark ``sweep`` seed 410, iteration 0.  Without the
        # entry move or in-block extrapolation its dominated masses made this
        # start zig-zag for 1,216 steps.
        result = multistart_maximize(3, 4, OptimizerConfig(starts=32, seed=797609830))
        assert max(rec.steps for rec in result.per_start) == 157  # 595 without in-block extrapolation
        assert all(rec.converged for rec in result.per_start)


class TestInBlockExtrapolation:
    def _leaps(self, monkeypatch):
        """Record, per row whose extrapolated candidate wins its ranking, the
        block and value before the step and the block and value after it."""
        leaps, pending = [], []
        original_leap, original_step = optimize._Lockstep._leap, optimize._Lockstep.step

        def leap(run, q):
            won = original_leap(run, q)
            pending.append((won.copy(), run.p[won].copy(), run.value[won].copy()))
            return won

        def step(run):
            pending.clear()
            ended = original_step(run)
            if pending:
                won, before, value = pending[0]
                leaps.extend(zip(before, value, run.p[won].copy(), run.value[won].copy()))
            return ended

        monkeypatch.setattr(optimize._Lockstep, "_leap", leap)
        monkeypatch.setattr(optimize._Lockstep, "step", step)
        return leaps

    @staticmethod
    def _check(leaps):
        assert any((after != before).any() for before, _, after, _ in leaps)
        for before, value, after, new_value in leaps:
            assert new_value >= value
            assert (after[before > 0.0] > ZERO_FLOOR).all() and (after[before == 0.0] == 0.0).all()

    def test_block_ascend_never_lowers_the_value_or_zeroes_a_free_mass(self, monkeypatch):
        leaps = self._leaps(monkeypatch)
        rng = np.random.default_rng(11)
        for _ in range(40):
            n, r = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            inputs = random_inputs(rng, n, r)
            block_ascend(inputs, int(rng.integers(0, n)))
        self._check(leaps)

    @pytest.mark.parametrize("n, r, ell, seed", [
        pytest.param(2, 4, None, 3, id="2-4"),
        pytest.param(3, 5, None, 8, id="3-5"),
        pytest.param(3, 5, 2, 9, id="restricted-3-5-2"),
    ])
    def test_multistart_never_lowers_the_value_or_zeroes_a_free_mass(self, monkeypatch,
                                                                     n, r, ell, seed):
        leaps = self._leaps(monkeypatch)
        _run_cell(n, r, ell, 8, seed)
        self._check(leaps)

    @pytest.mark.parametrize("n, r, ell, seed", [
        pytest.param(3, 5, None, 8, id="3-5"),
        pytest.param(3, 5, 2, 9, id="restricted-3-5-2"),
    ])
    def test_winner_is_accepted_at_its_ranked_value(self, monkeypatch, n, r, ell, seed):
        # The ranking and ``block_rows`` form a candidate's sum law by one
        # einsum rule, so ``step`` reads a winner's value with the bits it was
        # ranked by, and accepts it.
        pending, checked = [], []
        original_leap, original_step = optimize._Lockstep._leap, optimize._Lockstep.step
        original_entropy_rows = optimize.entropy_rows

        def leap(run, q):
            ranks = run.active & (run.streak >= optimize._LEAP_FROM) & (run.streak % 2 == 1)
            values = []

            def entropy_rows(sums, logs):
                values.append(original_entropy_rows(sums, logs))
                return values[-1]

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(optimize, "entropy_rows", entropy_rows)
                won = original_leap(run, q)
            if values:  # the candidates' values, zeroing ones at -inf
                pending.append((won.nonzero()[0], values[0][won[ranks], 1:].max(axis=1)))
            return won

        def step(run):
            pending.clear()
            ended = original_step(run)
            for rows, ranked in pending:
                assert run.value[rows].tobytes() == ranked.tobytes()
                checked.extend(rows)
            return ended

        monkeypatch.setattr(optimize._Lockstep, "_leap", leap)
        monkeypatch.setattr(optimize._Lockstep, "step", step)
        _run_cell(n, r, ell, 8, seed)
        assert checked

    def test_rejected_extrapolation_takes_the_plain_step_next(self, monkeypatch):
        # Every candidate that wins the ranking is rejected by the value
        # ``block_rows`` returns.  A row that kept its history would rank and
        # lose the same candidates at the same point for ever.
        rejected, checked = {}, []
        original_leap, original_block_rows = optimize._Lockstep._leap, optimize.block_rows
        armed = []

        def leap(run, q):
            for row, sid in enumerate(run.ids.tolist()):
                if sid in rejected:
                    assert run.streak[row] == 0  # so this step ranks nothing
                    assert (run.p[row] == rejected.pop(sid)).all()
                    checked.append(sid)
            won = original_leap(run, q)
            rejected.update(zip(run.ids[won].tolist(), run.p[won].copy()))
            armed.append(won)
            return won

        def block_rows(toeplitz, p, neg):
            value, *rest = original_block_rows(toeplitz, p, neg)
            if armed:
                value = np.where(armed.pop(), -math.inf, value)
            return (value, *rest)

        monkeypatch.setattr(optimize._Lockstep, "_leap", leap)
        monkeypatch.setattr(optimize, "block_rows", block_rows)
        result = multistart_maximize(3, 3, OptimizerConfig(starts=8, seed=1))
        assert checked and all(rec.converged for rec in result.per_start)


class TestLockstepDeterminism:
    @pytest.mark.parametrize("n, r, seed", [
        pytest.param(2, 3, 0, id="2-3"),
        pytest.param(3, 2, 0, id="3-2"),
        pytest.param(2, 4, 54, id="2-4-seed54"),  # start 0 crawled under a doubling exponent
        pytest.param(2, 4, 201, id="2-4-seed201"),  # start 0 extrapolates along a ridge
    ])
    def test_start_does_not_depend_on_its_batch(self, n, r, seed):
        alone = multistart_maximize(n, r, OptimizerConfig(starts=1, seed=seed))
        batched = multistart_maximize(n, r, OptimizerConfig(starts=8, seed=seed))
        a, b = alone.per_start[0], batched.per_start[0]
        assert (a.value, a.sweeps, a.converged) == (b.value, b.sweeps, b.converged)
        assert (a.steps, a.jumps) == (b.steps, b.jumps)

    def test_records_do_not_depend_on_the_start_count(self):
        def records(starts):
            cfg = OptimizerConfig(starts=starts, seed=5)
            return multistart_maximize(2, 3, cfg).per_start[:-1]  # the random starts

        assert records(200)[:130] == records(130)

    def test_optimizer_does_not_read_the_thread_setting(self, monkeypatch):
        cfg = OptimizerConfig(starts=4, seed=5)
        monkeypatch.delenv("MAXENT_THREADS", raising=False)
        reference = multistart_maximize(2, 3, cfg).as_dict()
        monkeypatch.setenv("MAXENT_THREADS", "banana")  # accepted and not read
        assert multistart_maximize(2, 3, cfg).as_dict() == reference

    # The single ordered_map job is where perfbench pauses its clock between
    # optimizer calls (``Workload.pause_at``), so the call has to stay.
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


class TestPinnedOutput:
    # First 12 hex digits of the sha256 of the sorted-key ``as_dict()`` JSON:
    # the default path, with the gap cut, deferred block ends, the entry move
    # and both extrapolations, in-block and at sweep ends.
    @pytest.mark.parametrize("n, r, ell, starts, seed, digest", [
        pytest.param(2, 4, None, 32, 1, "0f8086a01813", id="2-4"),
        pytest.param(3, 4, None, 32, 401, "8cd131cefa1c", id="3-4"),
        pytest.param(4, 3, 2, 16, 5, "cfb6eb394fa3", id="restricted-4-3-2"),
    ])
    def test_default_path_is_pinned(self, n, r, ell, starts, seed, digest):
        payload = json.dumps(_run_cell(n, r, ell, starts, seed).as_dict(), sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest()[:12] == digest

    def test_every_per_row_array_is_compacted(self):
        # Compaction filters exactly the arrays in ``_FIELDS``; a per-row array
        # left out of it would silently fall out of step with the live rows.
        n, r, rows = 3, 4, 7
        neg = np.zeros((n, r + 1))
        blocks = np.array([optimize._random_start(neg, 0, sid) for sid in range(rows)])
        run = optimize._Lockstep(blocks, neg, 1e-12)
        per_row = {name for name, value in vars(run).items()
                   if isinstance(value, np.ndarray) and value.ndim and len(value) == rows}
        by_start_id = {"out_blocks"}
        assert per_row - by_start_id == set(optimize._Lockstep._FIELDS)
        assert len(set(optimize._Lockstep._FIELDS)) == len(optimize._Lockstep._FIELDS)

    def test_compaction_keeps_every_row_aligned(self):
        n, r, rows = 3, 4, 7
        neg = np.zeros((n, r + 1))
        blocks = np.array([optimize._random_start(neg, 0, sid) for sid in range(rows)])
        run = optimize._Lockstep(blocks, neg, 1e-12)
        run.steps[:] = np.arange(rows) * 10
        run.done[[1, 4]] = True
        run._compact()
        live = [0, 2, 3, 5, 6]
        for name in optimize._Lockstep._FIELDS:
            assert len(getattr(run, name)) == len(live), name
        assert run.ids.tolist() == live and run.steps.tolist() == [10 * i for i in live]
        np.testing.assert_array_equal(run.blocks, blocks[live])


def settle_each_iteration(run):
    """Reference ``_Lockstep.run``: every row whose block ends settles in the
    iteration in which it ended, without waiting for other rows."""
    run._settle(run.enter(run.ids))
    run._compact()
    while run.ids.size:
        ended = run.step()
        if ended.size:
            run._settle(ended)
            run._compact()
    return run


class TestDeferredBlockEnds:
    @pytest.mark.parametrize("n, r, ell, seed", [
        pytest.param(2, 4, None, 1, id="2-4"),
        pytest.param(3, 4, None, 1, id="3-4"),
        pytest.param(4, 3, 2, 7, id="restricted-4-3-2"),
    ])
    def test_waiting_rows_end_as_if_settled_at_once(self, monkeypatch, n, r, ell, seed):
        settles = []
        original = optimize._Lockstep._settle

        def settle(run, ended):
            settles.append(ended.size)
            original(run, ended)

        monkeypatch.setattr(optimize._Lockstep, "_settle", settle)
        deferred = json.dumps(_run_cell(n, r, ell, 32, seed).as_dict(), sort_keys=True)
        deferred_settles = len(settles)
        settles.clear()
        monkeypatch.setattr(optimize._Lockstep, "run", settle_each_iteration)
        assert json.dumps(_run_cell(n, r, ell, 32, seed).as_dict(), sort_keys=True) == deferred
        assert len(settles) > deferred_settles


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


def entropy_max(batch):
    """Largest row entropy in bits; +0.0, not -0.0, for a batch of point masses."""
    return float((-(batch * np.log2(np.maximum(batch, ZERO_FLOOR))).sum(axis=1)).max()) + 0.0


def sorted_heads(n, size):
    """The sorted heads (first n - 1 indices) in the bound pass's order."""
    heads = np.array(list(itertools.combinations_with_replacement(range(size), n - 1)))
    return heads[np.argsort(heads[:, -1], kind="stable")]


def head_law(rows, head):
    """The sum law of the pmfs ``rows[head]``, folded left by ``np.convolve``."""
    partial = rows[head[0]]
    for idx in head[1:]:
        partial = np.convolve(partial, rows[idx])
    return partial


def head_values(n, r, k):
    """The sorted heads, each with its float best over the tails from its last index on."""
    grid = optimize._grid_counts(k, r) / k
    heads = sorted_heads(n, len(grid))
    values = [entropy_max(conv_rows(head_law(grid, head)[None, :], grid[head[-1] :]))
              for head in heads]
    return heads, np.array(values)


def per_head_oracle(n, r, k):
    """The grid oracle evaluated in floating point at every sorted head."""
    if n == 1:
        return entropy_max(optimize._grid_counts(k, r) / k)
    return max(head_values(n, r, k)[1])


ORACLE_CELLS = [
    (1, 1, 2), (2, 1, 64), (2, 2, 3), (2, 2, 6), (2, 2, 12), (2, 2, 24), (2, 2, 48),
    (2, 3, 7), (2, 3, 24), (2, 4, 9), (2, 4, 12), (3, 1, 8), (3, 2, 6), (3, 2, 7), (3, 2, 12),
    (3, 3, 6), (4, 1, 10), (5, 1, 6),
]


def exact_scores(n, r, k):
    """The sorted heads, each with its least exact score sum C log2 C over all tails."""
    counts = optimize._grid_counts(k, r)
    heads = sorted_heads(n, len(counts))
    scores = []
    for head in heads:
        sums = conv_rows(head_law(counts, head)[None, :], counts)
        scores.append((sums * np.log2(np.maximum(sums, 1.0))).sum(axis=1).min())
    return heads, np.array(scores)


def bound_pass_incumbents(monkeypatch, n, r, k):
    """Each incumbent the bound pass computes at (n, r, k), in order."""
    incumbents = []

    def spy(probs, logs):
        out = kernels.entropy_rows(probs, logs)
        incumbents.append(out.max())
        return out

    monkeypatch.setattr(optimize, "entropy_rows", spy)
    optimize._near_best_heads(optimize._grid_counts(k, r), n, k)
    monkeypatch.undo()
    return incumbents


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

    @pytest.mark.parametrize("n,r,k", ORACLE_CELLS)
    def test_equals_per_head_evaluation(self, n, r, k):
        assert grid_oracle(n, r, k) == per_head_oracle(n, r, k)

    @pytest.mark.parametrize("n,r,k", [cell for cell in ORACLE_CELLS if cell[0] > 1])
    def test_bound_pass_keeps_the_unpruned_heads(self, n, r, k):
        # Every head that attains the oracle's value survives, and every dropped
        # head's exact best over all tails lies under the 1e-12-bit cut, up to
        # the bound's float error.
        value = grid_oracle(n, r, k)
        kept = {tuple(head) for head in optimize._near_best_heads(optimize._grid_counts(k, r), n, k)}
        heads, values = head_values(n, r, k)
        best = {tuple(head) for head in heads[values == value]}
        assert best and best <= kept
        _, scores = exact_scores(n, r, k)
        dropped = np.array([tuple(head) not in kept for head in heads])
        assert (n * math.log2(k) - scores[dropped] / k**n < value - 1e-12 + 1e-13).all()

    @pytest.mark.parametrize("n,r,k", [(2, 2, 24), (2, 3, 24), (3, 2, 12)])
    def test_head_bounds_cover_every_tail(self, monkeypatch, n, r, k):
        # Each evaluation of the bound pass bounds H(X * t) over every grid
        # tail t by its value plus its gap, X its head's sum law, with room to
        # spare under the 1e-12 bits a pruned bound must fall short by.
        counts = optimize._grid_counts(k, r)
        heads, scores = exact_scores(n, r, k)
        best = n * math.log2(k) - scores / k**n
        laws = kernels.fold_rows(counts[heads])
        index = {laws[h].tobytes(): h for h in range(len(heads))}
        seen = []

        def spy(toeplitz, p, neg):
            out = kernels.block_rows(toeplitz, p, neg)
            seen.append((toeplitz[:, : laws.shape[1], 0] * k ** (n - 1), out[0] + out[3]))
            return out

        monkeypatch.setattr(optimize, "block_rows", spy)
        optimize._near_best_heads(counts, n, k)
        assert len(seen) > 1
        for law, bound in seen:
            rows = [index[row.tobytes()] for row in np.rint(law)]
            assert (bound >= best[rows] - 1e-13).all()

    @pytest.mark.parametrize("n,r,k", [(2, 4, 16), (2, 5, 10), (2, 3, 7), (2, 4, 9), (3, 2, 7),
                                       (3, 2, 12), (3, 3, 10), (4, 2, 8), (2, 1, 64)])
    def test_incumbent_starts_at_the_construction(self, monkeypatch, n, r, k):
        # The bound pass's first incumbent is the best over all tails of the
        # construction's head, n - 1 blocks (ceil(K/2), 0, ..., 0, floor(K/2)) / K,
        # a real grid tuple's entropy: at most the oracle's value, up to float error.
        first = bound_pass_incumbents(monkeypatch, n, r, k)[0]
        counts = optimize._grid_counts(k, r)
        block = np.zeros(r + 1)
        block[0], block[-1] = k - k // 2, k // 2
        head = [np.flatnonzero((counts == block).all(axis=1))[0]] * (n - 1)
        grid = counts / k
        seeded = entropy_max(conv_rows(head_law(grid, head)[None, :], grid))
        assert first == pytest.approx(seeded, abs=1e-13)
        assert first <= grid_oracle(n, r, k) + 1e-13

    @pytest.mark.parametrize("n,r,k", [(2, 4, 16), (2, 5, 10)])
    def test_incumbent_is_rebuilt_only_when_a_head_beats_it(self, monkeypatch, n, r, k):
        # Recomputed at each rise of the best head value, the incumbent would
        # take 154 and 71 products over all tails here; recomputed only when a
        # head's value beats it, it takes a few.
        assert 1 <= len(bound_pass_incumbents(monkeypatch, n, r, k)) <= 5

    def test_one_head_per_chunk(self, monkeypatch):
        # At (2, 2, 48) the bound pass steps its one-head chunks before it drops them.
        cells = [(2, 2, 24), (3, 2, 12), (4, 1, 10), (2, 2, 48)]
        values = [grid_oracle(*cell) for cell in cells]
        monkeypatch.setattr(optimize, "_ORACLE_CHUNK", 1)
        assert [grid_oracle(*cell) for cell in cells] == values

    @pytest.mark.parametrize("n,r", [(1, 1), (2, 2)])
    def test_point_masses_give_positive_zero(self, n, r):
        assert math.copysign(1.0, grid_oracle(n, r, 1)) == 1.0

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError, match="ordered grid tuples, over the budget"):
            grid_oracle(2, 4, 24)

    def test_element_budget_guard(self):
        # C(10002, 2) = 50,015,001 grid pmfs pass the tuple budget at n = 1.
        started = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="masses, over the budget of"):
            grid_oracle(1, 2, 10000)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("cell,value", [
        ((2, 3, 24), 2.7715354233178195),
        ((3, 2, 12), 2.6585775391837685),
        ((1, 2, 1000), 1.584961058506293),
        ((2, 4, 16), 3.1289280318460246),
        ((2, 5, 10), 3.4219280948873623),
        ((3, 3, 10), 3.1954618442383214),
    ])
    def test_frozen_values(self, cell, value):
        assert grid_oracle(*cell) == value

    @pytest.mark.parametrize("k,r", [(0, 3), (1, 1), (1, 6), (3, 2), (6, 4), (12, 2), (24, 3)])
    def test_grid_counts_match_recursive_enumeration(self, k, r):
        rows = []

        def extend(prefix, remaining, slots):
            if slots == 1:
                rows.append(prefix + [remaining])
                return
            for v in range(remaining + 1):
                extend(prefix + [v], remaining - v, slots - 1)

        extend([], k, r + 1)
        assert optimize._grid_counts(k, r).tobytes() == np.asarray(rows, dtype=float).tobytes()

    def test_resolution_domain(self):
        for args in [(2, 2, 0), (2, 2, 24.0), (2, 2, True), (2.0, 2, 3)]:
            with pytest.raises(DomainError):
                grid_oracle(*args)
