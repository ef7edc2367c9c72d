"""Row-batched kernels against their one-row references."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import maxentsum.kernels as kernels
from maxentsum.kernels import (
    block_rows,
    conv_rows,
    entropy_rows,
    fold_rows,
    log2_rows,
    seeded_rng,
    sum_rows,
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


def ascending_reference(a, b):
    """Pure-Python convolution: entry s adds ``a[k] * b[s - k]`` over ascending k."""
    out = [0.0] * (len(a) + len(b) - 1)
    for s in range(len(out)):
        for k in range(max(0, s - len(b) + 1), min(len(a), s + 1)):
            out[s] += a[k] * b[s - k]
    return np.array(out)


@pytest.mark.parametrize("rows_a, na, rows_b, nb", [
    pytest.param(5, 9, 5, 3, id="a-longer"),
    pytest.param(5, 3, 5, 9, id="a-shorter"),
    pytest.param(5, 6, 5, 6, id="equal"),
    pytest.param(1, 7, 5, 4, id="broadcast-a"),
    pytest.param(5, 7, 1, 4, id="broadcast-b"),
])
def test_conv_rows_adds_in_ascending_order(rng, rows_a, na, rows_b, nb):
    # Outputs are coordinate-major whatever the operands' layout.
    for order in ("C", "F"):
        a = np.asarray(rng.dirichlet(np.ones(na), size=rows_a), order=order)
        b = np.asarray(rng.dirichlet(np.ones(nb), size=rows_b), order=order)
        out = conv_rows(a, b)
        assert out.shape == (5, na + nb - 1)
        assert out.flags.f_contiguous
        for t in range(5):
            expected = ascending_reference(a[t % rows_a], b[t % rows_b])
            assert out[t].tobytes() == expected.tobytes()
        blocks = np.asarray(rng.dirichlet(np.ones(nb), size=(5, 3)), order=order)
        folded = fold_rows(blocks)
        assert folded.flags.f_contiguous
        for t in range(5):
            expected = ascending_reference(blocks[t, 0], blocks[t, 1])
            expected = ascending_reference(expected, blocks[t, 2])
            assert folded[t].tobytes() == expected.tobytes()
        # The fold is a left fold: a head's law convolved with a tail has the
        # bytes of the whole tuple's fold, also one law row against many tails.
        head = fold_rows(blocks[:, :-1])
        assert conv_rows(head, blocks[:, -1]).tobytes() == folded.tobytes()
        shared = np.concatenate([np.repeat(blocks[:1, :-1], 5, axis=0), blocks[:, -1:]], axis=1)
        assert conv_rows(head[:1], blocks[:, -1]).tobytes() == fold_rows(shared).tobytes()


def test_fold_rows(rng):
    blocks = rng.dirichlet(np.ones(3), size=(2, 3))
    expected = np.convolve(np.convolve(blocks[1, 0], blocks[1, 1]), blocks[1, 2])
    np.testing.assert_allclose(fold_rows(blocks)[1], expected, rtol=0, atol=1e-16)
    np.testing.assert_array_equal(fold_rows(blocks[:, :0]), np.ones((2, 1)))


def test_fold_rows_returns_a_fresh_array(rng):
    blocks = rng.dirichlet(np.ones(3), size=(2, 1))
    out = fold_rows(blocks)
    np.testing.assert_array_equal(out, blocks[:, 0])
    assert not np.shares_memory(out, blocks)


def test_kernels_import_no_other_package_module_but_errors():
    # The sum law and its rounding live here; ``pmf`` builds on them, not
    # the other way round.
    tree = ast.parse(Path(kernels.__file__).read_text(encoding="utf-8"))
    local = {node.module for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level}
    assert local == {"errors"}


def test_toeplitz_product_is_convolution(rng):
    rest = rng.dirichlet(np.ones(7), size=3)
    p = rng.dirichlet(np.ones(4), size=3)
    toeplitz = toeplitz_rows(rest, 4)
    assert toeplitz.shape == (3, 10, 4)
    sums = np.einsum("rsa,ra->rs", toeplitz, p)
    for t in range(3):
        np.testing.assert_allclose(sums[t], np.convolve(rest[t], p[t]), rtol=0, atol=1e-16)


def test_block_rows_value_is_the_entropy_of_the_block_sum_law(rng):
    rest = rng.dirichlet(np.ones(6), size=3)
    p = rng.dirichlet(np.ones(4), size=3)
    p[1, 2] = 0.0
    toeplitz = toeplitz_rows(rest, 4)
    values = block_rows(toeplitz, p, np.zeros((3, 4)))[0]
    sums = np.einsum("rsa,ra->rs", toeplitz, p)
    for t in range(3):
        np.testing.assert_allclose(sums[t], np.convolve(rest[t], p[t]), rtol=0, atol=1e-16)
    np.testing.assert_array_equal(values, entropy_rows(sums, log2_rows(sums)))


def test_entropy_rows_matches_entropy_bits(rng):
    probs = rng.dirichlet(np.ones(9), size=5)
    probs[0, 3] = 0.0
    values = entropy_rows(probs, log2_rows(probs))
    for t in range(5):
        assert values[t] == pytest.approx(_entropy_bits(probs[t]), abs=1e-14)


@pytest.mark.parametrize("width", range(1, 13))
def test_sum_rows_has_the_bytes_of_a_row_major_sum(rng, width):
    # 7 entries are added in order in any layout, 8 pairwise in a contiguous row.
    terms = rng.dirichlet(np.ones(width), size=4096) * rng.lognormal(size=(4096, 1))
    expected = terms.sum(axis=-1).tobytes()
    assert sum_rows(terms).tobytes() == expected
    assert sum_rows(np.asfortranarray(terms)).tobytes() == expected
    wide = np.asfortranarray(np.repeat(terms, 3, axis=1))
    assert sum_rows(wide[:, ::3]).tobytes() == expected  # a strided class slice


@pytest.mark.parametrize("width", [3, 7, 8, 13, 40])
def test_entropy_rows_bytes_do_not_depend_on_layout(rng, width):
    # numpy sums a contiguous row of 8+ entries pairwise and a column in order.
    probs = rng.dirichlet(np.ones(width), size=4096)
    probs[::7, 1] = 0.0
    values = entropy_rows(probs, log2_rows(probs))
    fortran = np.asfortranarray(probs)
    assert entropy_rows(fortran, log2_rows(fortran)).tobytes() == values.tobytes()


def test_entropy_rows_zero_floor_convention():
    probs = np.array([[1.0, 1e-301, 0.0]])
    value = entropy_rows(probs, log2_rows(probs))[0]
    assert value == 0.0 == _entropy_bits(probs[0])
    assert math.copysign(1.0, value) == 1.0  # +0.0, whatever SIMD path numpy takes


def test_block_rows_gradient_is_correlation_with_the_rest(rng):
    rest = rng.dirichlet(np.ones(5), size=2)
    p = rng.dirichlet(np.ones(3), size=2)
    toeplitz = toeplitz_rows(rest, 3)
    sums = np.einsum("rsa,ra->rs", toeplitz, p)
    grad = block_rows(toeplitz, p, np.zeros((2, 3)))[1]
    for t in range(2):
        terms = np.log2(sums[t]) + np.log2(np.e)
        expected = -np.correlate(terms, rest[t], mode="valid")
        np.testing.assert_allclose(grad[t], expected, rtol=1e-14)


@pytest.mark.parametrize("m", range(2, 12))
def test_block_rows_computes_each_row_alone(rng, m):
    # A row's five outputs have the same bytes in a batch of 65 as alone, so a
    # start's trajectory does not depend on which starts share its lockstep.
    for n in range(1, 11):
        toeplitz = toeplitz_rows(fold_rows(rng.dirichlet(np.ones(m), size=(65, n - 1))), m)
        p = rng.dirichlet(np.ones(m), size=65)
        neg = np.zeros((65, m))
        neg[::3, 1:-1] = -np.inf  # rows with pinned inner coordinates
        p[::3, 1:-1] = 0.0
        p[1::4, 0] = 0.0
        p /= p.sum(axis=1, keepdims=True)
        batch = block_rows(toeplitz, p, neg)
        for t in range(65):
            alone = block_rows(toeplitz[t : t + 1], p[t : t + 1], neg[t : t + 1])
            assert [out[t].tobytes() for out in batch] == [out[0].tobytes() for out in alone]


def test_seeded_rng_streams():
    a = seeded_rng(5, 2).random(4)
    np.testing.assert_array_equal(a, seeded_rng(5, 2).random(4))
    assert not np.array_equal(a, seeded_rng(5, 3).random(4))
