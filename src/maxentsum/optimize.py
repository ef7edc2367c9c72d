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

Cyclic ascent can crawl: near the conjectured maximizer two blocks trade the
{0, r} role and the interior role over hundreds of sweeps, each sweep moving
the masses a little further the same way.  A start that has swept long enough
therefore extrapolates along its sweep move once two successive moves point
the same way, as SQUAREM and accelerated Blahut-Arimoto do for their
fixed-point maps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import _check_nr, conjectured_inputs, entropy_lower_bound
from .errors import BudgetExceededError, DomainError, MaxentsumError, check_count
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
from .pmf import ZERO_FLOOR, Pmf, _entropy_bits, _finalize, as_pmf

#: Hard cap on ordered grid tuples enumerated by the grid oracle.
GRID_BUDGET = 100_000_000
#: Hard cap on the grid masses the grid oracle holds at once: C(K+r, r) grid
#: pmfs of r + 1 entries each, 32 MiB of float64 at the cap.  At n = 1 the
#: tuple budget alone would admit arrays of gigabytes.
GRID_ELEMENTS = 1 << 22
#: The grid oracle's screen scores heads in chunks whose two work buffers
#: hold about this many elements each (more only when one head needs more).
_ORACLE_CHUNK = 1 << 16
#: Heads whose exact best entropy lies within this many bits of the grid
#: maximum are evaluated in floating point.
_ORACLE_SLACK = 1e-9

_MAX_INNER = 400
#: While rows cycle over all blocks, a block also ends once its stationarity
#: gap falls to this fraction of the gap it entered with.  Such a block is not
#: stationary, so its sweep cannot end the start; solving a block exactly while
#: the other blocks are still far from a fixed point is wasted work.
_GAP_CUT = 0.1
#: A start's sweep moves are measured from its sweep ``_XFROM`` on; at the end
#: of a later sweep whose move has cosine above ``_ALIGN`` with the move
#: before, the start extrapolates along it.  Few starts sweep that long, so
#: the others pay nothing.
_XFROM = 16
_ALIGN = 0.99
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
        check_count("starts", self.starts, 1)
        check_count("seed", self.seed, 0)
        check_count("max_outer_sweeps", self.max_outer_sweeps, 1)
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
    ended with.  ``steps`` counts the objective evaluations of the start:
    its candidate block steps, accepted and rejected, and its extrapolation
    trials.  ``jumps`` counts the extrapolations it accepted.
    """

    start_id: int
    value: float
    sweeps: int
    converged: bool
    reason: str
    gap: float
    steps: int
    jumps: int


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
    ``enter`` starts a row's next block.  A block ends stationary, on a spent
    inner budget, on step underflow or at its ``stop`` gap, which while rows
    cycle is the larger of ``inner_tol`` and ``_GAP_CUT`` times the entry gap.
    A sweep with a block cut short that way does not end its start.

    At the end of a sweep that does not end its start, ``_extrapolate`` may
    move the row along its last sweep move (see ``_XFROM``); the row then
    sweeps again from the new point, so a sweep that extrapolated never
    settles its start.  Every live row evaluates one candidate per iteration,
    so a row's step count is the iteration at which it retires plus its
    extrapolation trials.
    """

    _FIELDS = (
        "ids", "blocks", "cur", "neg", "toeplitz", "p", "shift", "value", "gap", "stop", "eta",
        "inner", "stalled", "sweeps", "prev", "sweep_gap", "sweep_reason",
        "sweep_cut", "done",
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
        self.stop = np.full(count, config.inner_tol)
        self.eta = np.ones((count, 1))
        self.inner = np.zeros(count, dtype=int)
        self.stalled = np.zeros(count, dtype=bool)
        self.sweeps = np.zeros(count, dtype=int)
        self.prev = np.full(count, -math.inf)
        self.sweep_gap = np.full(count, -math.inf)
        self.sweep_reason = np.full(count, _STATIONARY)
        self.sweep_cut = np.zeros(count, dtype=bool)
        self.done = np.zeros(count, dtype=bool)
        self.out_blocks = np.empty_like(blocks)
        self.out_value = np.empty(count)
        self.out_sweeps = np.empty(count, dtype=int)
        self.out_reason = np.empty(count, dtype=int)
        self.out_gap = np.empty(count)
        self.out_steps = np.zeros(count, dtype=int)  # extrapolation trials until retired
        self.out_jumps = np.zeros(count, dtype=int)
        # Extrapolation state, indexed by start id like the outputs, so that
        # compaction leaves it alone: the blocks at the start of the current
        # sweep and the last sweep move in log2 masses.
        self.origin = np.empty_like(blocks)
        self.move = np.zeros_like(blocks)
        self.iteration = 0

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
        self.iteration += 1
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
            | (self.gap <= self.stop)
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
        if self.only_block is None:
            self.stop[idx] = np.maximum(_GAP_CUT * gap, self.config.inner_tol)
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
        # A cut block's reason never surfaces: its sweep runs again or hits the cap.
        self.sweep_cut[idx] |= ~stationary & (self.gap[idx] <= self.stop[idx])
        self.sweep_gap[idx] = np.maximum(self.sweep_gap[idx], self.gap[idx])
        if self.only_block is not None:
            self._retire(idx)
            return idx[:0]
        cur = cur + 1
        wrapped = cur == self.blocks.shape[1]
        self.cur[idx] = np.where(wrapped, 0, cur)
        if wrapped.any():
            self._end_sweeps(idx[wrapped])
        return idx[~self.done[idx]]

    def _end_sweeps(self, ends: np.ndarray) -> None:
        """Retire the rows ``ends`` whose start settled or hit the sweep cap;
        the others may extrapolate, then begin their next sweep."""
        config = self.config
        self.sweeps[ends] += 1
        swept = self.sweeps[ends]
        settled = (self.value[ends] - self.prev[ends] < config.outer_tol) & ~self.sweep_cut[ends]
        capped = ~settled & (swept >= config.max_outer_sweeps)
        self.sweep_reason[ends[capped]] = _MAX_SWEEPS
        self._retire(ends[settled | capped])
        keep = ~(settled | capped)
        again = ends[keep]
        late = again[swept[keep] >= _XFROM - 1]
        if late.size:
            self._extrapolate(late)
        self.prev[again] = self.value[again]
        self.sweep_gap[again] = -math.inf
        self.sweep_reason[again] = _STATIONARY
        self.sweep_cut[again] = False

    def _settle(self, ended: np.ndarray) -> None:
        while ended.size:
            ended = self.enter(self.close(ended))

    def _extrapolate(self, idx: np.ndarray) -> None:
        """Extrapolate rows ``idx``, which end a sweep that does not end their
        start and have swept at least ``_XFROM - 1`` times.

        From sweep ``_XFROM`` on, a row's sweep move ``d`` is the change of
        its log2 masses over the sweep.  Where ``d`` has cosine above
        ``_ALIGN`` with the previous move, the row tries the blocks
        ``y * 2^(t d)``, renormalized per block, for t = 1, 2, 4, ... and
        keeps the best while H(S_n) rises.  A candidate with a free mass at
        or below ``ZERO_FLOOR`` is never better: zero is absorbing under the
        block update.  Pinned masses are 0 in ``y`` and stay 0."""
        ids = self.ids[idx]
        measured = self.sweeps[idx] >= _XFROM
        rows, mids = idx[measured], ids[measured]
        move = log2_rows(self.blocks[rows]) - log2_rows(self.origin[mids])
        last, self.move[mids] = self.move[mids], move
        shape = (rows.size, self.blocks[0].size)
        flat, flat_last = move.reshape(shape), last.reshape(shape)
        dot = np.add.reduce(flat * flat_last, axis=1)
        squares = np.add.reduce(flat * flat, axis=1) * np.add.reduce(flat_last * flat_last, axis=1)
        aligned = dot > _ALIGN * np.sqrt(squares)  # never on the first move, whose last is 0
        rows, mids, move = rows[aligned], mids[aligned], move[aligned]
        y = self.blocks[rows]
        best = self.value[rows]
        pinned = self.block_neg < 0.0
        live = np.arange(rows.size)
        t = 1.0
        while live.size:
            e = t * move[live]
            q = y[live] * np.exp2(e - np.maximum.reduce(e, axis=2, keepdims=True))
            q /= np.add.reduce(q, axis=2, keepdims=True)
            sums = fold_rows(q)
            value = entropy_rows(sums, log2_rows(sums))
            self.out_steps[mids[live]] += 1
            better = (value > best[live]) & ~((q <= ZERO_FLOOR) & ~pinned).any(axis=(1, 2))
            live = live[better]
            self.blocks[rows[live]] = q[better]
            best[live] = value[better]
            t *= 2.0
        self.out_jumps[mids] += best > self.value[rows]
        self.value[rows] = best
        self.origin[ids] = self.blocks[idx]

    def _retire(self, idx: np.ndarray) -> None:
        ids = self.ids[idx]
        self.out_blocks[ids] = self.blocks[idx]
        self.out_value[ids] = self.value[idx]
        self.out_sweeps[ids] = self.sweeps[idx]
        self.out_reason[ids] = self.sweep_reason[idx]
        self.out_gap[ids] = self.sweep_gap[idx]
        self.out_steps[ids] += self.iteration
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
    return _finalize(run.out_blocks[0, i].copy(), "block_ascend")


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
                steps=int(out.out_steps[k]), jumps=int(out.out_jumps[k]),
            )
            outcomes.append((record, out.out_blocks[k]))
        return outcomes

    outcomes = [o for part in ordered_map(run, chunks) for o in part]
    best, best_blocks = max(outcomes, key=lambda o: (o[0].value, -o[0].start_id))
    bound = entropy_lower_bound(n, r).bound_bits
    return OptimizationResult(
        best_inputs=tuple(_finalize(b.copy(), "optimizer block") for b in best_blocks),
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
    check_count("ell", ell, 1)
    if ell > n:
        raise DomainError(f"need 1 <= ell <= n, got ell = {ell!r}")
    two_point = np.array([0, r])
    supports = [None if i < ell else two_point for i in range(n)]
    config = config or OptimizerConfig()
    return _maximize(n, r, supports, config)


def _grid_counts(resolution: int, r: int) -> np.ndarray:
    """The compositions of ``resolution`` into r + 1 parts, one per row in
    lexicographic order, as floats."""
    out = np.empty((math.comb(resolution + r, r), r + 1))

    def fill(rows: np.ndarray, remaining: int) -> None:
        # ``rows`` receives every composition of ``remaining`` into its columns.
        parts = rows.shape[1]
        if parts == 2:
            rows[:, 0] = np.arange(remaining + 1)
            np.subtract(remaining, rows[:, 0], out=rows[:, 1])
            return
        a = 0
        for v in range(remaining + 1):
            b = a + math.comb(remaining - v + parts - 2, parts - 2)
            rows[a:b, 0] = v
            fill(rows[a:b, 1:], remaining - v)
            a = b

    fill(out, resolution)
    return out


def _batch_entropy_max(batch: np.ndarray) -> float:
    # Adding 0.0 turns the -0.0 of an all-point-mass batch into +0.0.
    return float((-(batch * log2_rows(batch)).sum(axis=1)).max()) + 0.0


def _near_best_heads(counts: np.ndarray, n: int, slack: float) -> np.ndarray:
    """The sorted heads (first n - 1 indices) whose best exact score is near the least.

    A head's pair with tail j >= its last index has the integer sum-law counts
    C (each at most K^n < 2^53, so exact in float64) and the score
    sum C log2 C, which is K^n (n log2 K - H).  A head is kept when its least
    score lies within ``slack`` of the least score of all heads.  Heads run in
    order of their last index, a chunk of them at a time against the tails
    from the chunk's least last index on, so that each of the two buffers
    that every chunk reuses holds about ``_ORACLE_CHUNK`` elements.
    """
    grid_size, m = counts.shape
    heads = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(grid_size), n - 1)
        ),
        dtype=np.intp,
    ).reshape(-1, n - 1)
    heads = heads[np.argsort(heads[:, -1], kind="stable")]
    tails = np.ascontiguousarray(counts.T)  # halves the matmul time against counts.T
    last = heads[:, -1]
    width = n * (m - 1) + 1
    # Fresh temporaries per chunk would cost page faults and grow the heap.
    buffers = np.empty((2, max(_ORACLE_CHUNK, grid_size * width)))
    head_scores = np.empty(len(heads))
    a = 0
    while a < len(heads):
        lo = last[a]
        b = min(len(heads), a + max(1, _ORACLE_CHUNK // ((grid_size - lo) * width)))
        shape = (b - a, width, grid_size - lo)
        sums, terms = (buffer[: math.prod(shape)].reshape(shape) for buffer in buffers)
        np.matmul(toeplitz_rows(fold_rows(counts[heads[a:b]]), m), tails[:, lo:], out=sums)
        np.maximum(sums, 1.0, out=terms)
        np.log2(terms, out=terms)
        terms *= sums
        scores = terms.sum(axis=1)
        scores[np.arange(lo, grid_size) < last[a:b, None]] = math.inf  # tails below the head
        head_scores[a:b] = scores.min(axis=1)
        a = b
    return heads[head_scores <= head_scores.min() + slack]


def grid_oracle(n: int, r: int, resolution: int) -> float:
    """Exhaustive maximum of H(S_n) over rational grid pmfs (masses = k/K).

    Always a lower estimate of the true maximum, and nondecreasing along
    refinements K -> c*K (whose grids are nested).  The objective is
    permutation symmetric, so only sorted index tuples are scored.  For
    n >= 2 a screen scores every sorted tuple from exact integer counts and
    keeps the heads (the first n - 1 indices) whose best exact entropy lies
    within ``_ORACLE_SLACK`` bits of the maximum; only those heads are
    evaluated in floating point, and the result is the largest of those
    values.  Raises :class:`BudgetExceededError`, before it allocates the
    grid, when the ordered tuple count C(K+r, r)^n would exceed
    ``GRID_BUDGET`` or the grid's C(K+r, r) * (r + 1) masses would exceed
    ``GRID_ELEMENTS``.
    """
    _check_nr(n, r)
    check_count("resolution", resolution, 1)
    grid_size = math.comb(resolution + r, r)
    total = grid_size**n
    if total > GRID_BUDGET:
        raise BudgetExceededError(
            f"grid oracle at K = {resolution} spans {grid_size}^{n} = {total} ordered "
            f"grid tuples, over the budget of {GRID_BUDGET}"
        )
    if grid_size * (r + 1) > GRID_ELEMENTS:
        raise BudgetExceededError(
            f"grid oracle at K = {resolution} holds {grid_size} grid pmfs of {r + 1} "
            f"masses, over the budget of {GRID_ELEMENTS} masses"
        )
    counts = _grid_counts(resolution, r)
    grid = counts / resolution
    if n == 1:
        return _batch_entropy_max(grid)
    # Float values lie within about 1e-14 bits of the exact entropies, far
    # inside the screen's slack, so the head that holds the float maximum over
    # all heads passes the screen, and the result is that maximum.
    best = -math.inf
    for head in _near_best_heads(counts, n, _ORACLE_SLACK * resolution**n):
        partial = grid[head[0]]
        for idx in head[1:]:
            partial = np.convolve(partial, grid[idx])
        sums = conv_rows(partial[None, :], grid[head[-1] :])
        best = max(best, _batch_entropy_max(sums))
    return best
