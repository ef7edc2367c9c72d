"""Row-batched kernels against their one-row references."""

import numpy as np
import pytest

from maxentsum.kernels import (
    conv_rows,
    entropy_rows,
    fold_rows,
    gradient_rows,
    log2_rows,
    seeded_rng,
    toeplitz_rows,
)
from maxentsum.pmf import _entropy_bits


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_conv_rows_matches_np_convolve(rng):
    a = rng.dirichlet(np.ones(4), size=6)
    b = rng.dirichlet(np.ones(3), size=6)
    out = conv_rows(a, b)
    for t in range(6):
        np.testing.assert_allclose(out[t], np.convolve(a[t], b[t]), rtol=0, atol=1e-16)


def test_conv_rows_broadcasts_a_single_row(rng):
    a = rng.dirichlet(np.ones(3))
    b = rng.dirichlet(np.ones(5), size=4)
    out = conv_rows(a[None, :], b)
    assert out.shape == (4, 7)
    for t in range(4):
        np.testing.assert_allclose(out[t], np.convolve(a, b[t]), rtol=0, atol=1e-16)


def test_fold_rows(rng):
    blocks = rng.dirichlet(np.ones(3), size=(2, 3))
    expected = np.convolve(np.convolve(blocks[1, 0], blocks[1, 1]), blocks[1, 2])
    np.testing.assert_allclose(fold_rows(blocks)[1], expected, rtol=0, atol=1e-16)
    np.testing.assert_array_equal(fold_rows(blocks[:, :0]), np.ones((2, 1)))


def test_toeplitz_product_is_convolution(rng):
    rest = rng.dirichlet(np.ones(7), size=3)
    p = rng.dirichlet(np.ones(4), size=3)
    toeplitz = toeplitz_rows(rest, 4)
    assert toeplitz.shape == (3, 10, 4)
    sums = np.matmul(toeplitz, p[:, :, None])[:, :, 0]
    for t in range(3):
        np.testing.assert_allclose(sums[t], np.convolve(rest[t], p[t]), rtol=0, atol=1e-16)


def test_entropy_rows_matches_entropy_bits(rng):
    probs = rng.dirichlet(np.ones(9), size=5)
    probs[0, 3] = 0.0
    values = entropy_rows(probs, log2_rows(probs))
    for t in range(5):
        assert values[t] == pytest.approx(_entropy_bits(probs[t]), abs=1e-14)


def test_entropy_rows_zero_floor_convention():
    probs = np.array([[1.0, 1e-301, 0.0]])
    assert entropy_rows(probs, log2_rows(probs))[0] == 0.0 == _entropy_bits(probs[0])


def test_gradient_rows_is_correlation_with_the_rest(rng):
    rest = rng.dirichlet(np.ones(5), size=2)
    p = rng.dirichlet(np.ones(3), size=2)
    toeplitz = toeplitz_rows(rest, 3)
    sums = np.matmul(toeplitz, p[:, :, None])[:, :, 0]
    grad = gradient_rows(toeplitz, log2_rows(sums))
    for t in range(2):
        terms = np.log2(sums[t]) + np.log2(np.e)
        expected = -np.correlate(terms, rest[t], mode="valid")
        np.testing.assert_allclose(grad[t], expected, rtol=1e-14)


def test_seeded_rng_streams():
    a = seeded_rng(5, 2).random(4)
    np.testing.assert_array_equal(a, seeded_rng(5, 2).random(4))
    assert not np.array_equal(a, seeded_rng(5, 3).random(4))
