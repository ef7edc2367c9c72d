"""Numerical maximization of H(S_n) over products of probability simplices.

The driver is cyclic block ascent: H(S_n) is concave in each block separately
(entropy is concave in the sum law, which is affine in any one block), so each
block is solved by a monotone exponentiated-gradient update with backtracking.
Each block subproblem is a channel-capacity problem, and the update is the
Blahut-Arimoto step with an adaptive exponent: the Newton length of H(S_n)
along the update curve, at most twice the last accepted exponent, halved
after a rejected candidate (accelerated Blahut-Arimoto, as in Matz and
Duhamel 2004), and never below ln 2, where it is the plain Blahut-Arimoto
step, which never lowers H(S_n).  A block therefore ends only when its
stationarity gap is small or its inner budget is spent; the gap bounds, in
bits, what any change of that one block could still add (the Blahut-Arimoto
upper bound on capacity).  Multistart over seeded Dirichlet initializations,
plus the conjectured construction as an extra start, probes the non-concave
joint landscape.  A brute-force grid oracle provides an independent lower
estimate of the maximum.

The update only shrinks a mass geometrically and never regrows an exact zero,
while the conjectured maximizer puts every block on a face of its simplex.  So
each block entry makes an active-set move (Nocedal and Wright, ch. 16), kept
only where H(S_n) does not fall: a tiny mass whose gradient lies under ``g.p``
is set to exactly 0, and a zero mass whose gradient is the block's top is
lifted back into play.

All starts of a call run at once as rows of one array, in row-asynchronous
lockstep: one iteration evaluates one candidate step for every active row.  A
row that finishes its block waits, frozen, until the waiting rows are at least
half of the live rows; then all of them move on to their next blocks in one
batch, which costs about as much as moving one row.  Every row keeps its own
state and the kernels compute each row independently, so a start's trajectory
does not depend on its batch or on how long it waited.  A row counts its
objective evaluations as it goes, and its start's record is written once, when
the row retires.

Both loops can crawl.  Inside a block, near a face of its simplex, the
update zig-zags: two masses swap back and forth while the others drift a
little each step, so a block ranks, every other step, extrapolations along
its two-step move.  Across sweeps, near the conjectured maximizer, two blocks
trade the {0, r} role and the interior role over hundreds of sweeps, each
sweep moving the masses a little further the same way, so a start that has
swept long enough extrapolates along its sweep move at the end of each
sweep.  Both are the step-length extrapolation that SQUAREM and accelerated
Blahut-Arimoto apply to their fixed-point maps, and both rank one set of
multiples of their move in one batch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import _check_nr, conjectured_inputs, entropy_lower_bound
from .errors import BudgetExceededError, DomainError, MaxentsumError, check_count, is_real
from .kernels import (
    ZERO_FLOOR,
    block_rows,
    entropy_rows,
    fold_rows,
    log2_rows,
    ordered_map,
    seeded_rng,
    toeplitz_rows,
)
from .pmf import Pmf, _finalize, _summands

#: Hard cap on ordered grid tuples enumerated by the grid oracle.
GRID_BUDGET = 100_000_000
#: Hard cap on the grid masses the grid oracle holds at once: C(K+r, r) grid
#: pmfs of r + 1 entries each, 32 MiB of float64 at the cap.  At n = 1 the
#: tuple budget alone would admit arrays of gigabytes.
GRID_ELEMENTS = 1 << 22
#: The grid oracle works on chunks of heads whose arrays hold about this many
#: elements (more only when one head needs more).
_ORACLE_CHUNK = 1 << 16
#: Final start values closer than this count as one local value.
_DISTINCT_TOL = 1e-8

#: A start is ``converged`` when its last sweep raised H(S_n) by less than the
#: outer tolerance and every block of that sweep ended with stationarity gap
#: at most ``INNER_TOL`` bits.  A start that has not settled after
#: ``MAX_OUTER_SWEEPS`` sweeps stops there, unconverged.
INNER_TOL = 1e-10
MAX_OUTER_SWEEPS = 10_000
_MAX_INNER = 400
#: While rows cycle over all blocks, a block also ends once its stationarity
#: gap falls to this fraction of the gap it entered with.  Such a block is not
#: stationary, so its sweep cannot end the start; solving a block exactly while
#: the other blocks are still far from a fixed point is wasted work.
_GAP_CUT = 0.1
#: From its sweep ``_XFROM`` on, a start extrapolates along its sweep move at
#: the end of every sweep that does not settle it.  Few starts sweep that
#: long, so the others pay nothing.
_XFROM = 16
#: The multiples of a move that both extrapolations rank (:func:`_along`).  The
#: sweep-end jump needs the large ones: with 1, 3, 7 and 15 alone, benchmark
#: sweeps took 17% more lockstep iterations.
_LEAPS = 2.0 ** np.arange(8)
#: A row ranks them in a block at this accepted step of its history and every
#: other one after it.  A ranking costs about as much as a block step; from the
#: third step, rows ranked in half of all iterations and large cells ran slower.
_LEAP_FROM = 5
#: The least block exponent.  At ln 2 the update ``p * 2^shift`` is the
#: Blahut-Arimoto step, which never lowers H(S_n) in exact arithmetic, so a
#: candidate at this exponent is accepted without comparing rounded values.
_ETA_BA = math.log(2.0)
#: Block entry's active-set move (``_face_moves``) drops dominated masses below
#: ``_DROP`` and lifts zero masses at the gradient's top to ``_LIFT``.
_DROP = 1e-4
_LIFT = 1e-9

#: Why a start stopped (``StartRecord.reason``); only "stationary" is converged.
REASONS = ("stationary", "inner_budget", "max_outer_sweeps")
_STATIONARY, _INNER_BUDGET, _MAX_SWEEPS = range(len(REASONS))


@dataclass(frozen=True)
class OptimizerConfig:
    """``starts`` seeded random starts, run with the conjectured start; a start
    settles once a sweep raises H(S_n) by less than ``outer_tol`` bits."""

    starts: int = 64
    seed: int = 0
    outer_tol: float = 1e-12

    def __post_init__(self):
        check_count("starts", self.starts, 1)
        check_count("seed", self.seed, 0)
        if not (is_real(self.outer_tol) and math.isfinite(self.outer_tol) and self.outer_tol > 0.0):
            raise DomainError(f"outer_tol must be a finite number > 0, got {self.outer_tol!r}")


@dataclass(frozen=True)
class StartRecord:
    """Outcome of one start.

    ``converged`` holds exactly when the start met the outer tolerance and
    every block ascent of its final sweep ended stationary, with gap at most
    ``INNER_TOL``.  Otherwise ``reason`` names what stopped it.  ``gap`` is
    the largest stationarity gap ``max g - g.p`` that a block of the final
    sweep ended with; it bounds, in bits, what any change of one block alone
    could still add to H(S_n).  ``steps`` counts the objective evaluations
    of the start: its candidate block steps, accepted and rejected, its
    block-entry moves and the ``_LEAPS.size`` candidates of each sweep-end
    extrapolation.  The in-block extrapolations that a block step ranks do
    not count: the step counts once, whichever candidate it takes.
    ``jumps`` counts the sweep-end extrapolations it accepted.
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
        sums = fold_rows(np.array([[p.probs for p in self.best_inputs]]))
        recomputed = entropy_rows(sums, log2_rows(sums))[0]
        if abs(recomputed - self.best_value) > 1e-12:
            raise MaxentsumError("best_value is inconsistent with best_inputs")
        if any(rec.value > self.best_value for rec in self.per_start):
            raise MaxentsumError("a per-start value exceeds best_value")

    def converged_fraction(self) -> float:
        return sum(rec.converged for rec in self.per_start) / len(self.per_start)

    def distinct_local_values(self) -> list[float]:
        """Cluster the per-start final values; exploratory landscape output."""
        distinct: list[float] = []
        for value in sorted(rec.value for rec in self.per_start):
            if not distinct or value - distinct[-1] > _DISTINCT_TOL:
                distinct.append(value)
        return distinct

    def as_dict(self) -> dict:
        return {
            "best_inputs": [[float(x) for x in p.probs] for p in self.best_inputs],
            "best_value": float(self.best_value),
            "gap_to_bound": float(self.gap_to_bound),
            "per_start": [asdict(rec) for rec in self.per_start],
        }


def _block_terms(blocks: np.ndarray, cur: np.ndarray, neg: np.ndarray):
    """Toeplitz matrix of each row's rest (its blocks but ``cur``, folded in
    ascending order), then :func:`block_rows` of block ``cur`` under ``neg``."""
    rows = np.arange(blocks.shape[0])
    k = np.arange(blocks.shape[1] - 1)
    rest = fold_rows(blocks[rows[:, None], k + (k >= cur[:, None])])
    toeplitz = toeplitz_rows(rest, blocks.shape[2])
    return (toeplitz, *block_rows(toeplitz, blocks[rows, cur], neg))


def _along(y: np.ndarray, d: np.ndarray):
    """The blocks ``y * 2^(t d)``, renormalized over the last axis, for t in
    ``_LEAPS`` on a new axis 1, and which of them take a mass positive in
    ``y`` to ``ZERO_FLOOR`` or below.  A mass that is 0 in ``y`` stays 0."""
    e = _LEAPS.reshape(-1, *[1] * (d.ndim - 1)) * d[:, None]
    q = np.exp2(e - np.maximum.reduce(e, axis=-1, keepdims=True))
    q *= y[:, None]
    q /= np.add.reduce(q, axis=-1, keepdims=True)
    zeroed = (q <= ZERO_FLOOR) & (y[:, None] > 0.0)
    return q, zeroed.reshape(*q.shape[:2], -1).any(axis=2)


def _face_moves(p: np.ndarray, shift: np.ndarray, gap: np.ndarray):
    """The active-set move of each row of blocks ``p`` and whether it moves.

    With ``c = g - g.p = shift + gap``, the move sets to 0 every mass below
    ``_DROP`` with ``c < 0`` and lifts to ``_LIFT`` every zero mass at the
    top (``shift = 0``); pinned masses have ``shift = -inf`` and stay 0.
    """
    drop = (p > 0.0) & (p < _DROP) & (shift + gap[:, None] < 0.0)
    lift = (p == 0.0) & (shift == 0.0)
    q = np.where(drop, 0.0, np.where(lift, _LIFT, p))
    q /= np.add.reduce(q, axis=1, keepdims=True)
    return q, (drop | lift).any(axis=1)


class _Lockstep:
    """Block ascent of many rows at once; each row is a start.

    Arrays hold one entry per live row and are compacted when rows finish;
    a start's ``StartRecord`` is written once, when its row retires.
    Between iterations every live row is inside a block with one candidate
    step pending; ``step`` evaluates it, ``close`` ends blocks and sweeps, and
    ``enter`` makes the active-set move of a row's next block and starts it.
    A block ends only at its ``stop`` gap or on a spent inner budget.
    ``stop`` is the larger of ``INNER_TOL`` and ``_GAP_CUT`` times the entry
    gap; a sweep with a block cut short that way does not end its start.

    A row whose block ends becomes inactive and waits with its state frozen;
    ``run`` closes and enters the blocks of all waiting rows in one ``_settle``
    once they are at least half of the live rows.  Each block entry sets the
    exponent to the Newton exponent, at most 2; an accepted candidate sets it
    to the new point's Newton exponent, at most twice the old one, and a
    rejected one halves it.  The exponent never falls below ``_ETA_BA``, where
    a candidate is accepted without comparing values.  Every other accepted
    step, a row also ranks extrapolations of its block (``_leap``); one that
    wins takes the place of the plain candidate, is accepted only if H(S_n)
    does not fall, and begins the row's step history (``back``, ``streak``)
    anew.

    ``block_neg`` is the per-block mask of the call, 0 on a block's free
    coordinates and ``-inf`` on its pinned ones; ``step`` and ``enter`` index
    it by each row's current block.  ``origin`` holds each row's blocks at the
    start of its current sweep: its start blocks at first, then, at each
    sweep end, the blocks it sweeps again from.  At the end of a sweep that
    does not end its start, ``_extrapolate`` may move the row along its last
    sweep move (see ``_XFROM``); the row then sweeps again from the new
    point, so a sweep that extrapolated never settles its start.  ``steps``
    counts a row's objective evaluations: one per iteration in which it is
    active, one per entry move and ``_LEAPS.size`` per sweep-end ranking.
    """

    _FIELDS = (
        "ids", "blocks", "cur", "toeplitz", "p", "shift", "value", "gap", "stop", "eta",
        "inner", "sweeps", "prev", "sweep_gap", "sweep_cut", "done", "active", "steps",
        "origin", "jumps", "back", "streak",
    )

    def __init__(self, blocks: np.ndarray, neg: np.ndarray, outer_tol: float):
        count, n, m = blocks.shape
        self.outer_tol = outer_tol
        self.block_neg = neg
        self.ids = np.arange(count)
        self.blocks = blocks.copy()
        self.cur = np.zeros(count, dtype=int)
        self.toeplitz = np.zeros((count, n * (m - 1) + 1, m))
        self.p = np.zeros((count, m))
        self.shift = np.zeros((count, m))
        self.value = np.zeros(count)
        self.gap = np.zeros(count)
        self.stop = np.full(count, INNER_TOL)
        self.eta = np.ones((count, 1))
        self.inner = np.zeros(count, dtype=int)
        self.sweeps = np.zeros(count, dtype=int)
        self.prev = np.full(count, -math.inf)
        self.sweep_gap = np.full(count, -math.inf)
        self.sweep_cut = np.zeros(count, dtype=bool)
        self.done = np.zeros(count, dtype=bool)
        self.active = np.ones(count, dtype=bool)  # false while a row waits, frozen
        self.steps = np.zeros(count, dtype=int)
        self.origin = blocks.copy()
        self.jumps = np.zeros(count, dtype=int)
        # The row's blocks one and two accepted steps ago, and how many steps
        # it accepted since block entry or since an extrapolation last won.
        self.back = np.zeros((count, 2, m))
        self.streak = np.zeros(count, dtype=int)
        # Outputs, indexed by start id.
        self.out_blocks = np.empty_like(blocks)
        self.records: list[StartRecord | None] = [None] * count

    def run(self) -> "_Lockstep":
        self._settle(self.enter(self.ids))
        self._compact()
        while self.ids.size:
            self.active[self.step()] = False
            idx = (~self.active).nonzero()[0]
            if 2 * idx.size >= self.ids.size:
                self.active[idx] = True
                self._settle(idx)
                self._compact()
        return self

    def step(self) -> np.ndarray:
        """Evaluate one candidate per active row; return the active rows
        whose block ended.  Waiting rows compute a candidate too, which costs
        less than taking them out of the batch, but none of their state
        changes."""
        self.steps += self.active
        active = self.active[:, None]
        q = np.exp(self.eta * self.shift)
        q *= self.p
        total = np.add.reduce(q, axis=1, keepdims=True)
        np.divide(q, total, out=q, where=total > 0.0)  # every mass may underflow
        leap = self._leap(q)
        value, _, shift, gap, newton = block_rows(self.toeplitz, q, self.block_neg[self.cur])
        accepted = (value >= self.value) | ((self.eta[:, 0] <= _ETA_BA) & ~leap)
        accepted &= self.active & ((total[:, 0] > 0.0) | leap)
        column = accepted[:, None]
        np.copyto(self.back[:, 1], self.back[:, 0], where=column)
        np.copyto(self.back[:, 0], self.p, where=column)
        self.streak += accepted
        self.streak[leap] = 0
        np.copyto(self.p, q, where=column)
        np.copyto(self.shift, shift, where=column)
        np.copyto(self.value, value, where=accepted)
        np.copyto(self.gap, gap, where=accepted)
        eta = np.where(column, np.minimum(2.0 * self.eta, newton[:, None]), 0.5 * self.eta)
        np.maximum(eta, _ETA_BA, out=self.eta, where=active)
        self.inner += accepted
        ended = (self.gap <= self.stop) | (self.inner >= _MAX_INNER)
        ended &= self.active
        return ended.nonzero()[0]

    def _leap(self, q: np.ndarray) -> np.ndarray:
        """Replace the pending candidate ``q`` of each row that ranks
        extrapolations by its best one, where that one wins; return which
        rows' candidates were replaced.

        A row ranks after every other accepted step, from step
        ``_LEAP_FROM`` of its history, which begins at block entry and when an
        extrapolation wins: the candidates of :func:`_along` along its two-step
        move ``d = log2 p - log2 back[:, 1]``, which cancels the two-cycle of a
        stiff block and keeps its drift.  One that zeroes a positive mass never
        wins; the best wins if its entropy beats both ``q``'s and the row's value.
        ``step`` then accepts it only if :func:`block_rows` finds H(S_n) not
        lower, and a winner, accepted or not, begins the row's history anew."""
        leap = np.zeros(q.shape[0], dtype=bool)
        rows = (self.active & (self.streak >= _LEAP_FROM) & (self.streak % 2 == 1)).nonzero()[0]
        if not rows.size:
            return leap
        p = self.p[rows]
        tried, zeroed = _along(p, log2_rows(p) - log2_rows(self.back[rows, 1]))
        ranked = np.concatenate((q[rows, None], tried), axis=1)
        sums = np.einsum("rsa,rca->rcs", self.toeplitz[rows], ranked)
        value = entropy_rows(sums, log2_rows(sums))
        value[:, 1:][zeroed] = -math.inf
        best = 1 + np.argmax(value[:, 1:], axis=1)
        wins = value[np.arange(rows.size), best] > np.maximum(value[:, 0], self.value[rows])
        leap[rows[wins]] = True
        q[rows[wins]] = ranked[wins, best[wins]]
        return leap

    def enter(self, idx: np.ndarray) -> np.ndarray:
        """Start the current block of rows ``idx``; return those already stationary."""
        if not idx.size:
            return idx
        cur = self.cur[idx]
        neg = self.block_neg[cur]
        toeplitz, value, _, shift, gap, newton = _block_terms(self.blocks[idx], cur, neg)
        p = self.blocks[idx, cur]
        q, moves = _face_moves(p, shift, gap)
        if moves.any():
            rows = moves.nonzero()[0]
            self.steps[idx[rows]] += 1
            moved = block_rows(toeplitz[rows], q[rows], neg[rows])
            keep = moved[0] >= value[rows]
            rows = rows[keep]
            p[rows] = q[rows]
            value[rows], _, shift[rows], gap[rows], newton[rows] = (t[keep] for t in moved)
        self.toeplitz[idx] = toeplitz
        self.p[idx] = p
        self.shift[idx] = shift
        self.value[idx] = value
        self.gap[idx] = gap
        self.stop[idx] = np.maximum(_GAP_CUT * gap, INNER_TOL)
        self.eta[idx] = np.maximum(np.minimum(newton, 2.0), _ETA_BA)[:, None]
        self.inner[idx] = 0
        self.streak[idx] = 0
        return idx[gap <= INNER_TOL]

    def close(self, idx: np.ndarray) -> np.ndarray:
        """End the current block of rows ``idx``; return the rows that go on
        to another block.  Rows whose start is finished are retired."""
        cur = self.cur[idx]
        self.blocks[idx, cur] = self.p[idx]
        gap = self.gap[idx]
        self.sweep_cut[idx] |= (gap > INNER_TOL) & (gap <= self.stop[idx])
        self.sweep_gap[idx] = np.maximum(self.sweep_gap[idx], gap)
        cur = cur + 1
        wrapped = cur == self.blocks.shape[1]
        self.cur[idx] = np.where(wrapped, 0, cur)
        if wrapped.any():
            self._end_sweeps(idx[wrapped])
        return idx[~self.done[idx]]

    def _end_sweeps(self, ends: np.ndarray) -> None:
        """Retire the rows ``ends`` whose start settled or hit the sweep cap;
        the others may extrapolate, then begin their next sweep."""
        self.sweeps[ends] += 1
        swept = self.sweeps[ends]
        settled = (self.value[ends] - self.prev[ends] < self.outer_tol) & ~self.sweep_cut[ends]
        capped = ~settled & (swept >= MAX_OUTER_SWEEPS)
        keep = ~(settled | capped)
        if not keep.all():
            self._retire(ends[~keep], capped[~keep])
        again = ends[keep]
        late = again[swept[keep] >= _XFROM]
        if late.size:
            self._extrapolate(late)
        self.origin[again] = self.blocks[again]
        self.prev[again] = self.value[again]
        self.sweep_gap[again] = -math.inf
        self.sweep_cut[again] = False

    def _settle(self, ended: np.ndarray) -> None:
        while ended.size:
            ended = self.enter(self.close(ended))

    def _extrapolate(self, rows: np.ndarray) -> None:
        """Extrapolate rows ``rows``, which end their sweep ``_XFROM`` or a
        later one and sweep again.

        A row's sweep move ``d`` is the change of its log2 masses over the
        sweep, from ``origin`` to its blocks ``y``.  The row ranks the
        candidates of :func:`_along` in one batch and moves to the best one
        if it raises H(S_n); each candidate counts as a step.  A candidate
        that zeroes a mass positive in ``y`` never wins: only a block entry
        may zero a mass, where a dominated one is dropped on purpose."""
        y = self.blocks[rows]
        tried, zeroed = _along(y, log2_rows(y) - log2_rows(self.origin[rows]))
        sums = fold_rows(tried.reshape(-1, *y.shape[1:]))
        value = entropy_rows(sums, log2_rows(sums)).reshape(zeroed.shape)
        value[zeroed] = -math.inf
        best = np.arange(rows.size), np.argmax(value, axis=1)
        wins = value[best] > self.value[rows]
        self.steps[rows] += _LEAPS.size
        self.jumps[rows] += wins
        self.blocks[rows[wins]] = tried[best][wins]
        self.value[rows[wins]] = value[best][wins]

    def _retire(self, idx: np.ndarray, capped: np.ndarray) -> None:
        """Record the starts of rows ``idx``; ``capped`` marks those that hit
        the sweep cap without settling."""
        ids = self.ids[idx]
        self.out_blocks[ids] = self.blocks[idx]
        self.done[idx] = True
        gaps = self.sweep_gap[idx]
        reasons = np.where(capped, _MAX_SWEEPS,
                           np.where(gaps <= INNER_TOL, _STATIONARY, _INNER_BUDGET))
        for sid, value, sweeps, gap, steps, jumps, reason in zip(
            ids.tolist(), self.value[idx].tolist(), self.sweeps[idx].tolist(), gaps.tolist(),
            self.steps[idx].tolist(), self.jumps[idx].tolist(), reasons.tolist(),
        ):
            self.records[sid] = StartRecord(
                start_id=sid, value=value, sweeps=sweeps, converged=reason == _STATIONARY,
                reason=REASONS[reason], gap=gap, steps=steps, jumps=jumps,
            )

    def _compact(self) -> None:
        if self.done.any():
            live = ~self.done
            for name in self._FIELDS:
                setattr(self, name, getattr(self, name)[live])


def _one_row(inputs, i: int, caller: str) -> np.ndarray:
    pmfs = _summands(inputs, caller)
    check_count("block index", i, 0)
    if i >= len(pmfs):
        raise DomainError(f"block index {i} out of range for {len(pmfs)} blocks")
    return np.array([[p.probs for p in pmfs]])


def objective_gradient(inputs, i: int) -> np.ndarray:
    """Gradient of H(S_n) with respect to the masses of block ``i``."""
    blocks = _one_row(inputs, i, "objective_gradient")
    return _block_terms(blocks, np.array([i]), np.zeros((1, blocks.shape[2])))[2][0]


def block_ascend(inputs, i: int, config: OptimizerConfig | None = None) -> Pmf:
    """Ascend block ``i`` with the other blocks held fixed.

    The returned block does not lower the objective beyond float rounding
    and satisfies first-order simplex stationarity within ``INNER_TOL``
    unless the inner budget runs out first; its gap ``max g - g.p`` then
    bounds what any further change of block ``i`` could add.  A block whose
    budget runs out is entered once more: its entry move lifts a mass that
    underflowed to 0 and then became the gradient's top.  ``config`` is
    ignored, since none of its settings applies to one block; it is still
    accepted because the benchmark's layer probe passes one.
    """
    blocks = _one_row(inputs, i, "block_ascend")
    n, m = blocks.shape[1:]
    run = _Lockstep(blocks, np.zeros((n, m)), OptimizerConfig.outer_tol)  # ends no sweep
    run.cur[0] = i
    for _ in range(2):
        if run.enter(run.ids).size:
            break
        run.stop[0] = INNER_TOL
        while not run.step().size:
            pass
        if run.gap[0] <= INNER_TOL:
            break
        run.blocks[0, i] = run.p[0]
    return _finalize(run.p[0].copy(), "block_ascend")


def _random_start(neg: np.ndarray, seed: int, start_id: int) -> np.ndarray:
    """Flat-Dirichlet masses on each block's free coordinates (``neg == 0``)
    and exact zeros on its pinned ones."""
    rng = seeded_rng(seed, start_id)
    blocks = np.zeros(neg.shape)
    for block, free in zip(blocks, neg == 0.0):
        block[free] = rng.dirichlet(np.ones(np.count_nonzero(free)))
    return blocks


def _conjectured_start(n: int, r: int) -> list[np.ndarray]:
    base = [p.probs for p in conjectured_inputs(n, r)]
    # The mixture block carries interior mass, so it must sit on a
    # full-support slot; block 0 always is one.  The objective is symmetric
    # under block permutation, so the value is unchanged.  Its exact zeros
    # need no lift: block entry lifts a zero mass at the gradient's top.
    return [base[-1]] + base[:-1]


def _maximize(n: int, r: int, neg: np.ndarray,
              config: OptimizerConfig | None) -> OptimizationResult:
    """Run every start of a call; ``neg`` is the per-block mask, 0 on each
    block's free coordinates and ``-inf`` on its pinned ones."""
    config = config or OptimizerConfig()

    def run(start_ids: list[int]) -> _Lockstep:
        blocks0 = np.array([
            _conjectured_start(n, r) if sid == config.starts
            else _random_start(neg, config.seed, sid)
            for sid in start_ids
        ])
        return _Lockstep(blocks0, neg, config.outer_tol).run()

    # All starts are rows of one lockstep, so there is one job, run on the
    # calling thread; the call stays only as the place where a benchmark may
    # pause its clock between optimizer calls.
    (out,) = ordered_map(run, [list(range(config.starts + 1))])
    per_start = tuple(out.records)
    best = int(np.argmax([rec.value for rec in per_start]))  # ties go to the lowest start id
    return OptimizationResult(
        best_inputs=tuple(_finalize(b.copy(), "optimizer block") for b in out.out_blocks[best]),
        best_value=per_start[best].value,
        per_start=per_start,
        gap_to_bound=per_start[best].value - entropy_lower_bound(n, r).bound_bits,
    )


def multistart_maximize(n: int, r: int, config: OptimizerConfig | None = None) -> OptimizationResult:
    """Maximize H(S_n) over all n-tuples of pmfs on {0, ..., r}.

    Runs ``config.starts`` seeded random starts and, as start id
    ``config.starts``, the conjectured construction.
    Deterministic given (config.seed, n, r): every start derives its own
    generator from the seed and its start index, runs as its own row of the
    lockstep arrays, and ties for the best value go to the lowest start id.
    A start's record does not depend on which other starts share the call.
    """
    _check_nr(n, r)
    return _maximize(n, r, np.zeros((n, r + 1)), config)


def restricted_maximize(
    n: int, r: int, ell: int, config: OptimizerConfig | None = None
) -> OptimizationResult:
    """Maximize H(S_n) with blocks ell+1, ..., n confined to the support {0, r}."""
    _check_nr(n, r)
    check_count("ell", ell, 1)
    if ell > n:
        raise DomainError(f"need 1 <= ell <= n, got ell = {ell!r}")
    neg = np.zeros((n, r + 1))
    neg[ell:, 1:r] = -math.inf
    return _maximize(n, r, neg, config)


def _grid_counts(resolution: int, r: int) -> np.ndarray:
    """The compositions of ``resolution`` into r + 1 parts, one per row in
    lexicographic order, as floats.

    Stars and bars: the r bars take sorted places among resolution + r slots,
    and the parts are the gaps between them.
    """
    slots = resolution + r
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), r)),
        dtype=float, count=math.comb(slots, r) * r,
    ).reshape(-1, r)
    return np.diff(bars, axis=1, prepend=-1.0, append=float(slots)) - 1.0


def _near_best_heads(counts: np.ndarray, n: int, resolution: int) -> np.ndarray:
    """The sorted heads (first n - 1 indices) that may hold the grid maximum,
    in order of their last index.

    H(X * t) is concave in the tail t, X a head's sum law, so at any y > 0 the
    value plus the gap of :func:`block_rows` bounds it over every tail.  Chunks
    of heads step from uniform y by Blahut-Arimoto (``_Lockstep.step`` at
    ``_ETA_BA``).  The incumbent, a real grid tuple's entropy, starts as the
    best over all tails of the construction's head, n - 1 blocks
    (ceil(K/2), 0, ..., 0, floor(K/2)) / K, uniform on {0, r} at even K.  It
    rises to the best over all tails of a chunk's best head only when that
    head's value beats it.  A head whose bound falls more than 1e-12 bits
    under it is dropped.  A chunk steps while it has heads undecided and its
    steps have read fewer elements than the evaluation of those heads would.
    """
    grid_size, m = counts.shape
    grid = counts / resolution
    heads = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(grid_size), n - 1)
        ),
        dtype=np.intp,
    ).reshape(-1, n - 1)
    heads = heads[np.argsort(heads[:, -1], kind="stable")]
    last = heads[:, -1]
    width = n * (m - 1) + 1
    bound = np.full(len(heads), math.inf)

    def incumbent(toeplitz):
        sums = np.einsum("sa,ga->gs", toeplitz, grid)
        return entropy_rows(sums, log2_rows(sums)).max()

    half = resolution // 2
    seed = np.argmax((counts[:, 0] == resolution - half) & (counts[:, -1] == half))
    best = incumbent(toeplitz_rows(fold_rows(grid[[seed] * (n - 1)][None]), m)[0])
    # With block_rows's temporaries a head's bound takes about 4 Toeplitz matrices.
    rows = max(1, _ORACLE_CHUNK // (4 * width * m))
    for a in range(0, len(heads), rows):
        live = np.arange(a, min(a + rows, len(heads)))
        toeplitz = toeplitz_rows(fold_rows(grid[heads[live]]), m)
        y = np.full((live.size, m), 1.0 / m)
        spent = 0
        while live.size:
            value, _, shift, gap, _ = block_rows(toeplitz, y, np.zeros(y.shape))
            # X's positive masses are at least K^(1-n): no mass of X * y is clamped.
            exact = y.min(axis=1) > ZERO_FLOOR * resolution**n
            bound[live] = np.minimum(bound[live], np.where(exact, value + gap, math.inf))
            top = value.argmax()
            if value[top] > best:
                best = max(best, incumbent(toeplitz[top]))
            cut = best - 1e-12
            undecided = (bound[live] >= cut) & (value < cut)
            spent += toeplitz.size
            if ((grid_size - last[live[undecided]]) * width).sum() <= spent:
                break
            live, toeplitz, shift, y = (t[undecided] for t in (live, toeplitz, shift, y))
            y *= np.exp2(shift)
            y /= np.add.reduce(y, axis=1, keepdims=True)
    return heads[bound >= cut]


def grid_oracle(n: int, r: int, resolution: int) -> float:
    """Exhaustive maximum of H(S_n) over rational grid pmfs (masses = k/K).

    Always a lower estimate of the true maximum, and nondecreasing along
    refinements K -> c*K (whose grids are nested).  The objective is
    permutation symmetric, so only sorted index tuples are scored.  For
    n >= 2 a bound pass (:func:`_near_best_heads`) keeps the heads (the first
    n - 1 indices) whose upper bound reaches within 1e-12 bits of a grid
    tuple's entropy; only those heads are evaluated in floating point, each
    against the tails from its last index on, and the result is the largest
    of those values.  Raises :class:`BudgetExceededError`, before it
    allocates the grid, when the ordered tuple count C(K+r, r)^n would exceed
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
        return float(entropy_rows(grid, log2_rows(grid)).max())
    # Float values lie within about 1e-14 bits of the exact entropies, far
    # inside the bound pass's 1e-12-bit margin, so the head that holds the
    # float maximum over all heads survives, and the result is that maximum.
    heads = _near_best_heads(counts, n, resolution)
    width = n * r + 1
    best = -math.inf
    a = 0
    while a < len(heads):
        tails = np.arange(heads[a, -1], grid_size)
        b = a + max(1, _ORACLE_CHUNK // (tails.size * width))
        head, tail = np.nonzero(tails >= heads[a:b, -1:])
        sums = fold_rows(grid[np.column_stack((heads[a:b][head], tails[tail]))])
        best = max(best, float(entropy_rows(sums, log2_rows(sums)).max()))
        a = b
    return best
