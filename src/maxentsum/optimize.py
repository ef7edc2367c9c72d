"""Numerical maximization of H(S_n) over products of probability simplices.

The driver is cyclic block ascent: H(S_n) is concave in each block separately
(entropy is concave in the sum law, which is affine in any one block), so each
block is solved by a monotone exponentiated-gradient update with backtracking.
Each block subproblem is a channel-capacity problem, and the update is the
Blahut-Arimoto step with an adaptive exponent.  Multistart over seeded
Dirichlet initializations, plus the conjectured construction as an extra
start, probes the non-concave joint landscape.  A brute-force grid oracle
provides an independent lower estimate of the maximum.

All starts of a call run at once as rows of one array, in row-asynchronous
lockstep: one iteration evaluates one candidate step for every live row, and
a row that finishes its block moves on to its next block without waiting for
the others.  Every row keeps its own state and the kernels compute each row
independently, so a start's trajectory does not depend on its batch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import _check_nr, conjectured_inputs, entropy_lower_bound
from .errors import BudgetExceededError, DomainError, MaxentsumError
from .kernels import (
    conv_rows,
    entropy_rows,
    fold_rows,
    gradient_rows,
    log2_rows,
    seeded_rng,
    toeplitz_rows,
)
from .parallel import ordered_map
from .pmf import Pmf, _entropy_bits, _finalize, as_pmf

#: Hard cap on ordered grid tuples enumerated by the grid oracle.
GRID_BUDGET = 100_000_000

_MAX_INNER = 400
_ETA_MAX = 1e6
_ETA_MIN = 1e-14
#: Random starts per ``ordered_map`` job; the conjectured start joins the last job.
_START_CHUNK = 64

#: Why a start stopped (``StartRecord.reason``); only "stationary" is converged.
REASONS = ("stationary", "inner_budget", "step_underflow", "max_outer_sweeps")
_STATIONARY, _INNER_BUDGET, _STEP_UNDERFLOW, _MAX_SWEEPS = range(len(REASONS))


@dataclass(frozen=True)
class OptimizerConfig:
    starts: int = 64
    seed: int = 0
    max_outer_sweeps: int = 10_000
    inner_tol: float = 1e-10
    outer_tol: float = 1e-12
    include_conjectured_start: bool = True

    def __post_init__(self):
        if self.starts < 1:
            raise DomainError("need at least one start")
        if self.max_outer_sweeps < 1:
            raise DomainError("need at least one sweep")
        if not (self.inner_tol > 0.0 and self.outer_tol > 0.0):
            raise DomainError("tolerances must be positive")


@dataclass(frozen=True)
class StartRecord:
    """Outcome of one start.

    ``converged`` holds exactly when the start met the outer tolerance and
    every block ascent of its final sweep ended stationary (gap at most
    ``inner_tol``, or a step that no longer changed the value in floating
    point).  Otherwise ``reason`` names what stopped it.  ``gap`` is the
    largest stationarity gap ``max g - g.p`` that a block of the final sweep
    ended with.
    """

    start_id: int
    value: float
    sweeps: int
    converged: bool
    reason: str
    gap: float


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    best_inputs: tuple[Pmf, ...]
    best_value: float
    per_start: tuple[StartRecord, ...]
    gap_to_bound: float

    def __post_init__(self):
        blocks = np.array([[p.probs for p in self.best_inputs]])
        recomputed = _entropy_bits(fold_rows(blocks)[0])
        if abs(recomputed - self.best_value) > 1e-12:
            raise MaxentsumError("best_value is inconsistent with best_inputs")
        if any(rec.value > self.best_value for rec in self.per_start):
            raise MaxentsumError("a per-start value exceeds best_value")

    def converged_fraction(self) -> float:
        return sum(rec.converged for rec in self.per_start) / len(self.per_start)

    def distinct_local_values(self, tol: float = 1e-8) -> list[float]:
        """Cluster the per-start final values; exploratory landscape output."""
        distinct: list[float] = []
        for value in sorted(rec.value for rec in self.per_start):
            if not distinct or value - distinct[-1] > tol:
                distinct.append(value)
        return distinct

    def as_dict(self) -> dict:
        return {
            "best_inputs": [[float(x) for x in p.probs] for p in self.best_inputs],
            "best_value": float(self.best_value),
            "gap_to_bound": float(self.gap_to_bound),
            "per_start": [asdict(rec) for rec in self.per_start],
        }


def _others(n: int) -> np.ndarray:
    """Row i lists the block indices other than i, ascending."""
    return np.array([[j for j in range(n) if j != i] for i in range(n)], dtype=int).reshape(n, n - 1)


def _block_terms(blocks: np.ndarray, cur: np.ndarray, others: np.ndarray):
    """Toeplitz matrix of the rest-convolution, sum law and its logs, per row."""
    rows = np.arange(blocks.shape[0])
    rest = fold_rows(blocks[rows[:, None], others[cur]])
    toeplitz = toeplitz_rows(rest, blocks.shape[2])
    sums = np.matmul(toeplitz, blocks[rows, cur][:, :, None])[:, :, 0]
    return toeplitz, sums, log2_rows(sums)


def _shift_gap(grad: np.ndarray, neg: np.ndarray, p: np.ndarray):
    """Gradient shifted to a zero maximum over the free coordinates (``-inf``
    elsewhere), and the stationarity gap ``max g - g.p``."""
    masked = grad + neg
    top = np.maximum.reduce(masked, axis=1, keepdims=True)
    gap = top[:, 0] - np.add.reduce(grad * p, axis=1)
    return masked - top, gap


class _Lockstep:
    """Block ascent of many rows at once; each row is a start.

    Arrays hold one entry per live row and are compacted when rows finish.
    Between iterations every live row is inside a block with one candidate
    step pending; ``step`` evaluates it, ``close`` ends blocks and sweeps, and
    ``enter`` starts a row's next block.
    """

    _FIELDS = (
        "ids", "blocks", "cur", "neg", "toeplitz", "p", "shift", "value", "gap", "eta",
        "inner", "stalled", "sweeps", "prev", "sweep_gap", "sweep_reason", "done",
    )

    def __init__(self, blocks: np.ndarray, neg: np.ndarray, config: OptimizerConfig,
                 only_block: int | None = None):
        """``only_block`` ascends that one block of each row and stops;
        otherwise rows sweep all blocks from block 0 until their start ends."""
        count, n, m = blocks.shape
        self.config = config
        self.only_block = only_block
        self.block_neg = neg
        self.others = _others(n)
        self.ids = np.arange(count)
        self.blocks = blocks.copy()
        self.cur = np.full(count, only_block or 0)
        self.neg = np.zeros((count, m))
        self.toeplitz = np.zeros((count, n * (m - 1) + 1, m))
        self.p = np.zeros((count, m))
        self.shift = np.zeros((count, m))
        self.value = np.zeros(count)
        self.gap = np.zeros(count)
        self.eta = np.ones((count, 1))
        self.inner = np.zeros(count, dtype=int)
        self.stalled = np.zeros(count, dtype=bool)
        self.sweeps = np.zeros(count, dtype=int)
        self.prev = np.full(count, -math.inf)
        self.sweep_gap = np.full(count, -math.inf)
        self.sweep_reason = np.full(count, _STATIONARY)
        self.done = np.zeros(count, dtype=bool)
        self.out_blocks = np.empty_like(blocks)
        self.out_value = np.empty(count)
        self.out_sweeps = np.empty(count, dtype=int)
        self.out_reason = np.empty(count, dtype=int)
        self.out_gap = np.empty(count)

    def run(self) -> "_Lockstep":
        self._settle(self.enter(self.ids))
        self._compact()
        while self.ids.size:
            ended = self.step()
            if ended.size:
                self._settle(ended)
                self._compact()
        return self

    def step(self) -> np.ndarray:
        """Evaluate one candidate per row; return the rows whose block ended."""
        q = np.exp(self.eta * self.shift)
        q *= self.p
        q /= np.add.reduce(q, axis=1, keepdims=True)
        sums = np.matmul(self.toeplitz, q[:, :, None])[:, :, 0]
        logs = log2_rows(sums)
        value = entropy_rows(sums, logs)
        accepted = value >= self.value
        if not accepted.any():
            self.eta *= 0.5
            return (self.eta[:, 0] < _ETA_MIN).nonzero()[0]
        np.equal(value, self.value, out=self.stalled)  # accepted, below float resolution
        shift, gap = _shift_gap(gradient_rows(self.toeplitz, logs), self.neg, q)
        column = accepted[:, None]
        np.copyto(self.p, q, where=column)
        np.copyto(self.shift, shift, where=column)
        np.copyto(self.value, value, where=accepted)
        np.copyto(self.gap, gap, where=accepted)
        self.eta *= np.where(column, 2.0, 0.5)
        np.minimum(self.eta, _ETA_MAX, out=self.eta)
        self.inner += accepted
        ended = (
            self.stalled
            | (self.gap <= self.config.inner_tol)
            | (self.inner >= _MAX_INNER)
            | (self.eta[:, 0] < _ETA_MIN)
        )
        return ended.nonzero()[0]

    def enter(self, idx: np.ndarray) -> np.ndarray:
        """Start the current block of rows ``idx``; return those already stationary."""
        if not idx.size:
            return idx
        cur = self.cur[idx]
        blocks = self.blocks[idx]
        p = blocks[np.arange(idx.size), cur]
        toeplitz, sums, logs = _block_terms(blocks, cur, self.others)
        neg = self.block_neg[cur]
        shift, gap = _shift_gap(gradient_rows(toeplitz, logs), neg, p)
        self.toeplitz[idx] = toeplitz
        self.neg[idx] = neg
        self.p[idx] = p
        self.shift[idx] = shift
        self.value[idx] = entropy_rows(sums, logs)
        self.gap[idx] = gap
        self.eta[idx] = 2.0  # the unit exponent, doubled for the first step
        self.inner[idx] = 0
        self.stalled[idx] = False
        return idx[gap <= self.config.inner_tol]

    def close(self, idx: np.ndarray) -> np.ndarray:
        """End the current block of rows ``idx``; return the rows that go on
        to another block.  Rows whose start is finished are retired."""
        config = self.config
        cur = self.cur[idx]
        self.blocks[idx, cur] = self.p[idx]
        stationary = self.stalled[idx] | (self.gap[idx] <= config.inner_tol)
        reason = np.where(
            stationary,
            _STATIONARY,
            np.where(self.inner[idx] >= _MAX_INNER, _INNER_BUDGET, _STEP_UNDERFLOW),
        )
        first = self.sweep_reason[idx] == _STATIONARY
        self.sweep_reason[idx[first]] = reason[first]
        self.sweep_gap[idx] = np.maximum(self.sweep_gap[idx], self.gap[idx])
        if self.only_block is not None:
            self._retire(idx)
            return idx[:0]
        cur = cur + 1
        wrapped = cur == self.blocks.shape[1]
        self.cur[idx] = np.where(wrapped, 0, cur)
        ends = idx[wrapped]
        self.sweeps[ends] += 1
        settled = self.value[ends] - self.prev[ends] < config.outer_tol
        capped = ~settled & (self.sweeps[ends] >= config.max_outer_sweeps)
        self.sweep_reason[ends[capped]] = _MAX_SWEEPS
        self._retire(ends[settled | capped])
        again = ends[~(settled | capped)]
        self.prev[again] = self.value[again]
        self.sweep_gap[again] = -math.inf
        self.sweep_reason[again] = _STATIONARY
        return idx[~self.done[idx]]

    def _settle(self, ended: np.ndarray) -> None:
        while ended.size:
            ended = self.enter(self.close(ended))

    def _retire(self, idx: np.ndarray) -> None:
        ids = self.ids[idx]
        self.out_blocks[ids] = self.blocks[idx]
        self.out_value[ids] = self.value[idx]
        self.out_sweeps[ids] = self.sweeps[idx]
        self.out_reason[ids] = self.sweep_reason[idx]
        self.out_gap[ids] = self.sweep_gap[idx]
        self.done[idx] = True

    def _compact(self) -> None:
        if self.done.any():
            live = ~self.done
            for name in self._FIELDS:
                setattr(self, name, getattr(self, name)[live])


def _free_neg(supports, n: int, m: int) -> np.ndarray:
    """Per block: 0 on its free coordinates, ``-inf`` on the pinned ones."""
    neg = np.zeros((n, m))
    for i, support in enumerate(supports):
        if support is not None:
            neg[i] = -math.inf
            neg[i, support] = 0.0
    return neg


def _coerce_inputs(inputs) -> list[Pmf]:
    pmfs = [as_pmf(p) for p in inputs]
    if not pmfs:
        raise DomainError("need at least one input block")
    r = pmfs[0].m
    if any(p.m != r for p in pmfs):
        raise DomainError("input blocks must share a common alphabet")
    return pmfs


def _one_row(inputs, i: int) -> np.ndarray:
    pmfs = _coerce_inputs(inputs)
    if not 0 <= i < len(pmfs):
        raise DomainError(f"block index {i} out of range for {len(pmfs)} blocks")
    return np.array([[p.probs for p in pmfs]])


def objective_gradient(inputs, i: int) -> np.ndarray:
    """Gradient of H(S_n) with respect to the masses of block ``i``."""
    blocks = _one_row(inputs, i)
    toeplitz, _, logs = _block_terms(blocks, np.array([i]), _others(blocks.shape[1]))
    return gradient_rows(toeplitz, logs)[0]


def block_ascend(inputs, i: int, config: OptimizerConfig | None = None) -> Pmf:
    """Ascend block ``i`` with the other blocks held fixed.

    The returned block never lowers the objective and satisfies first-order
    simplex stationarity within ``config.inner_tol`` unless the inner budget
    runs out first.
    """
    config = config or OptimizerConfig()
    blocks = _one_row(inputs, i)
    n, m = blocks.shape[1:]
    run = _Lockstep(blocks, np.zeros((n, m)), config, only_block=i).run()
    return _finalize(run.out_blocks[0, i], "block_ascend")


def _random_start(n: int, r: int, supports, seed: int, start_id: int) -> list[np.ndarray]:
    rng = seeded_rng(seed, start_id)
    blocks = []
    for i in range(n):
        block = np.zeros(r + 1)
        free = np.arange(r + 1) if supports[i] is None else supports[i]
        block[free] = rng.dirichlet(np.ones(free.size))
        blocks.append(block)
    return blocks


def _conjectured_start(n: int, r: int, supports) -> list[np.ndarray]:
    base = [p.probs.copy() for p in conjectured_inputs(n, r)]
    # The mixture block carries interior mass, so it must sit on a
    # full-support slot; block 0 always is one.  The objective is symmetric
    # under block permutation, so the value is unchanged.
    base = [base[-1]] + base[:-1]
    for i, block in enumerate(base):
        free = np.arange(r + 1) if supports[i] is None else supports[i]
        block[free] += 1e-12  # lift boundary zeros so log terms stay finite
        block[free] /= block[free].sum()
    return base


def _maximize(n: int, r: int, supports, config: OptimizerConfig) -> OptimizationResult:
    start_ids = list(range(config.starts + config.include_conjectured_start))
    bounds = list(range(0, config.starts, _START_CHUNK)) + [len(start_ids)]
    chunks = [start_ids[a:b] for a, b in zip(bounds, bounds[1:])]
    neg = _free_neg(supports, n, r + 1)

    def run(chunk: list[int]) -> list[tuple[StartRecord, np.ndarray]]:
        blocks0 = np.array([
            _conjectured_start(n, r, supports) if sid == config.starts
            else _random_start(n, r, supports, config.seed, sid)
            for sid in chunk
        ])
        out = _Lockstep(blocks0, neg, config).run()
        outcomes = []
        for k, sid in enumerate(chunk):
            reason = int(out.out_reason[k])
            record = StartRecord(
                start_id=sid, value=float(out.out_value[k]), sweeps=int(out.out_sweeps[k]),
                converged=reason == _STATIONARY, reason=REASONS[reason], gap=float(out.out_gap[k]),
            )
            outcomes.append((record, out.out_blocks[k]))
        return outcomes

    outcomes = [o for part in ordered_map(run, chunks) for o in part]
    best, best_blocks = max(outcomes, key=lambda o: (o[0].value, -o[0].start_id))
    bound = entropy_lower_bound(n, r).bound_bits
    return OptimizationResult(
        best_inputs=tuple(_finalize(b, "optimizer block") for b in best_blocks),
        best_value=best.value,
        per_start=tuple(record for record, _ in outcomes),
        gap_to_bound=best.value - bound,
    )


def multistart_maximize(n: int, r: int, config: OptimizerConfig | None = None) -> OptimizationResult:
    """Maximize H(S_n) over all n-tuples of pmfs on {0, ..., r}.

    Deterministic given (config.seed, n, r): every start derives its own
    generator from the seed and its start index, runs as its own row of the
    lockstep arrays, and the reduction is ordered with ties broken toward the
    lowest start id.  Results do not depend on how starts are batched or on
    the worker count.
    """
    _check_nr(n, r)
    config = config or OptimizerConfig()
    return _maximize(n, r, [None] * n, config)


def restricted_maximize(
    n: int, r: int, ell: int, config: OptimizerConfig | None = None
) -> OptimizationResult:
    """Maximize H(S_n) with blocks ell+1, ..., n confined to the support {0, r}."""
    _check_nr(n, r)
    if int(ell) != ell or not 1 <= ell <= n:
        raise DomainError(f"need 1 <= ell <= n, got ell = {ell!r}")
    two_point = np.array([0, r])
    supports = [None if i < ell else two_point for i in range(n)]
    config = config or OptimizerConfig()
    return _maximize(n, r, supports, config)


def _grid_pmfs(resolution: int, r: int) -> np.ndarray:
    rows: list[list[int]] = []

    def extend(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 1:
            rows.append(prefix + [remaining])
            return
        for v in range(remaining + 1):
            extend(prefix + [v], remaining - v, slots - 1)

    extend([], resolution, r + 1)
    return np.asarray(rows, dtype=float) / resolution


def _batch_entropy_max(batch: np.ndarray) -> float:
    return float((-(batch * log2_rows(batch)).sum(axis=1)).max())


def grid_oracle(n: int, r: int, resolution: int) -> float:
    """Exhaustive maximum of H(S_n) over rational grid pmfs (masses = k/K).

    Always a lower estimate of the true maximum, and nondecreasing along
    refinements K -> c*K (whose grids are nested).  Raises
    :class:`BudgetExceededError` when the ordered tuple count C(K+r, r)^n
    would exceed ``GRID_BUDGET``.
    """
    _check_nr(n, r)
    if int(resolution) != resolution or resolution < 1:
        raise DomainError(f"resolution must be an integer >= 1, got {resolution!r}")
    grid_size = math.comb(resolution + r, r)
    total = grid_size**n
    if total > GRID_BUDGET:
        raise BudgetExceededError(
            f"grid oracle needs {grid_size}^{n} = {total} objective evaluations, "
            f"over the budget of {GRID_BUDGET}"
        )
    grid = _grid_pmfs(resolution, r)
    if n == 1:
        return _batch_entropy_max(grid)
    # The objective is permutation symmetric, so sorted index tuples suffice;
    # the last block is evaluated vectorized.
    best = -math.inf
    for head in itertools.combinations_with_replacement(range(grid_size), n - 1):
        partial = grid[head[0]]
        for idx in head[1:]:
            partial = np.convolve(partial, grid[idx])
        sums = conv_rows(partial[None, :], grid[head[-1] :])
        best = max(best, _batch_entropy_max(sums))
    return best
