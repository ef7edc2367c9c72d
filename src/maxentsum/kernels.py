"""Row-batched numerical kernels shared by the optimizer and the suites.

Every kernel treats the leading axis as independent rows and computes each
row with the same operations, in the same order, whatever the number of rows.
So a row's result does not depend on which other rows share its batch, which
is what keeps multistart runs and suite chunks deterministic.
"""

from __future__ import annotations

import numpy as np

from .pmf import LOG2E, ZERO_FLOOR


def seeded_rng(seed: int, index: int) -> np.random.Generator:
    """The generator of job ``index`` (a start or a chunk) of a seeded run."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def conv_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise convolution of ``a`` (rows, na) with ``b`` (rows, nb).

    Either operand may have a single row, which is broadcast.  Output entry s
    accumulates ``a[:, k] * b[:, s - k]`` over ascending k.
    """
    out = np.zeros((max(a.shape[0], b.shape[0]), a.shape[1] + b.shape[1] - 1))
    for k in range(a.shape[1]):
        out[:, k : k + b.shape[1]] += a[:, k : k + 1] * b
    return out


def fold_rows(blocks: np.ndarray) -> np.ndarray:
    """Row-wise convolution of all blocks of ``blocks`` (rows, count, m).

    With no blocks the result is the unit sequence ``[1.0]`` of each row.
    """
    if blocks.shape[1] == 0:
        return np.ones((blocks.shape[0], 1))
    acc = blocks[:, 0]
    for j in range(1, blocks.shape[1]):
        acc = conv_rows(acc, blocks[:, j])
    return acc


def toeplitz_rows(rest: np.ndarray, m: int) -> np.ndarray:
    """Matrices T (rows, len + m - 1, m) with ``T[:, s, a] = rest[:, s - a]``.

    ``T @ p`` is the convolution of ``rest`` with a length-m block ``p``, and
    ``v @ T`` correlates ``v`` with ``rest``.
    """
    rows, length = rest.shape
    padded = np.zeros((rows, length + 2 * (m - 1)))
    padded[:, m - 1 : m - 1 + length] = rest
    index = np.arange(length + m - 1)[:, None] - np.arange(m) + (m - 1)
    return np.ascontiguousarray(padded[:, index])  # matmul rounding depends on layout


def log2_rows(probs: np.ndarray) -> np.ndarray:
    """``log2`` clamped at the zero floor; shared by the entropy and the gradient."""
    return np.log2(np.maximum(probs, ZERO_FLOOR))


def entropy_rows(probs: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row; masses at or below the zero floor add 0."""
    terms = np.where(probs > ZERO_FLOOR, probs * logs, 0.0)
    return np.maximum(-np.add.reduce(terms, axis=-1), 0.0)


def gradient_rows(toeplitz: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """Gradient of the sum entropy with respect to each row's block.

    ``d H / d p_a = -sum_s rest[s - a] (log2 P(s) + log2 e)``, with the logs
    clamped at the zero floor, which feasible directions never probe from
    interior points.
    """
    # Negate the terms rather than the product: one pass fewer, same bits.
    terms = (-LOG2E - logs)[:, None, :]
    return np.matmul(terms, toeplitz)[:, 0, :]
