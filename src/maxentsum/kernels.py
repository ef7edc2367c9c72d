"""Row-batched numerical kernels shared by the optimizer and the suites, with
the seeded generator and the in-order job map through which both run.

Every kernel treats the leading axis as independent rows and computes each
row with the same operations, in the same order, whatever the number of rows.
So a row's result does not depend on which other rows share its batch, which
is what keeps multistart runs and suite chunks deterministic.  Toeplitz
products run through ``np.einsum`` without ``optimize=``, in numpy's own
loops: no BLAS core sets their bits.

Batches are stored coordinate-major (Fortran order), so a column slice or a
reduction over coordinates runs one loop over all rows.  Elementwise
operations, ``min`` and ``max`` round alike in any layout.  numpy adds fewer
than 8 entries in order in any layout, but a contiguous row of 8 or more
pairwise, so :func:`sum_rows` sums short rows in place and long ones from a
row-major copy: a row's sum has the same bytes whatever the layout.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import check_count

#: Masses at or below this floor contribute 0 * log 0 = 0 to entropies.
ZERO_FLOOR = 1e-300

LOG2E = math.log2(math.e)
#: Cap of the block update's Newton exponent (:func:`block_rows`).
_ETA_MAX = 1e6


def seeded_rng(seed: int, index: int) -> np.random.Generator:
    """The generator of job ``index`` (a start or a chunk) of a seeded run.

    Raises :class:`DomainError` unless ``seed`` is an integer >= 0.
    """
    check_count("seed", seed, 0)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def ordered_map(fn, jobs) -> list:
    """``fn`` of each job, in job order, on the calling thread.

    The suites' chunks and the optimizer's single job run through here; it is
    the seam where a benchmark pauses its clock between jobs.
    """
    return [fn(job) for job in jobs]


def conv_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise convolution of ``a`` (rows, na) with ``b`` (rows, nb).

    Either operand may have a single row, which is broadcast.  Output entry s
    accumulates ``a[:, k] * b[:, s - k]`` over ascending k.  The loop walks
    the columns of ``b``, last to first, so pass the shorter operand second.
    """
    na = a.shape[1]
    out = np.zeros((max(a.shape[0], b.shape[0]), na + b.shape[1] - 1), order="F")
    for j in range(b.shape[1] - 1, -1, -1):
        out[:, j : j + na] += b[:, j : j + 1] * a
    return out


def fold_rows(blocks: np.ndarray) -> np.ndarray:
    """Row-wise convolution of all blocks of ``blocks`` (rows, count, m),
    folded left by :func:`conv_rows` into a fresh coordinate-major array; each
    block is the short second operand, so the fold walks it once.

    With no blocks the result is the unit sequence ``[1.0]`` of each row.
    """
    if blocks.shape[1] == 0:
        return np.ones((blocks.shape[0], 1))
    acc = blocks[:, 0].copy(order="F")
    for j in range(1, blocks.shape[1]):
        acc = conv_rows(acc, blocks[:, j])
    return acc


def toeplitz_rows(rest: np.ndarray, m: int) -> np.ndarray:
    """Matrices T (rows, len + m - 1, m) with ``T[:, s, a] = rest[:, s - a]``.

    ``T·p`` is the convolution of ``rest`` with a length-m block ``p``, and
    ``v·T`` correlates ``v`` with ``rest``.
    """
    rows, length = rest.shape
    toeplitz = np.zeros((rows, length + m - 1, m))  # row-major: einsum's bits depend on layout
    for a in range(m):
        toeplitz[:, a : a + length, a] = rest
    return toeplitz


def log2_rows(probs: np.ndarray) -> np.ndarray:
    """``log2`` clamped at the zero floor; shared by the entropy and the gradient."""
    return np.log2(np.maximum(probs, ZERO_FLOOR))


def sum_rows(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis, with the bytes of a row-major sum in any layout.

    Fewer than 8 entries are added in order in place; 8 or more are summed
    from a row-major copy, as numpy sums a contiguous row of them pairwise.
    """
    if terms.shape[-1] >= 8:
        terms = np.ascontiguousarray(terms)
    return np.add.reduce(terms, axis=-1)


def entropy_rows(probs: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row; masses at or below the zero floor add 0."""
    # In the input's layout, so that short rows are summed in place.
    terms = np.zeros(probs.shape, order="F" if probs.flags.f_contiguous else "C")
    np.multiply(probs, logs, out=terms, where=probs > ZERO_FLOOR)
    # 0.0 - s is +0.0 for a zero sum, so no SIMD path can return -0.0.
    return np.maximum(0.0 - sum_rows(terms), 0.0)


def block_rows(toeplitz: np.ndarray, p: np.ndarray, neg: np.ndarray):
    """A block's calculus at each row's block ``p`` (rows, m), with ``T`` its
    rest's Toeplitz matrix and ``neg`` 0 on free coordinates, ``-inf`` on
    pinned ones: the entropy in bits of the sum law ``S = T·p``, the
    gradient ``g``, ``g`` shifted to a zero maximum over the free coordinates
    (``-inf`` elsewhere), the stationarity gap ``max g - g.p`` and the Newton
    exponent of the block update.

    ``d H / d p_a = -sum_s rest[s - a] (log2 S_s + log2 e)``, with the logs
    clamped at the zero floor, which feasible directions never probe from
    interior points.  Along the update curve ``q(eta) ∝ p exp(eta g)``, with
    ``c = g - g.p`` and ``d = p c``, the entropy has slope ``f'(0) = sum p c^2``
    and curvature ``-f''(0) = (1/ln 2) sum_s (T d)_s^2 / S_s - sum p c^3``.
    The Newton exponent is ``f'(0) / -f''(0)``, capped at ``_ETA_MAX``; it is
    ``_ETA_MAX`` where the curve is flat or not concave.
    """
    sums = np.einsum("rsa,ra->rs", toeplitz, p)
    floored = np.maximum(sums, ZERO_FLOOR)  # clamped once, for the logs and the curvature
    logs = np.log2(floored)
    # Negate the terms rather than the product: one pass fewer, same bits.
    grad = np.einsum("rs,rsa->ra", -LOG2E - logs, toeplitz)
    masked = grad + neg
    top = np.maximum.reduce(masked, axis=1, keepdims=True)
    mean = np.add.reduce(grad * p, axis=1, keepdims=True)
    c = grad - mean
    d = p * c
    dc = d * c
    slope = np.add.reduce(dc, axis=1)
    td = np.einsum("rsa,ra->rs", toeplitz, d)
    td *= td
    td /= floored
    curv = np.add.reduce(td, axis=1)
    curv *= LOG2E  # 1 / ln 2
    curv -= np.add.reduce(dc * c, axis=1)
    newton = np.full_like(slope, _ETA_MAX)
    np.divide(slope, curv, out=newton, where=(curv * _ETA_MAX > slope) & (slope > 0.0))
    return entropy_rows(sums, logs), grad, masked - top, top[:, 0] - mean[:, 0], newton
