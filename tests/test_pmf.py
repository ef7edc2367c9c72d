"""Core pmf arithmetic: entropy, convolution, residue decomposition, text I/O."""

import io
import math

import numpy as np
import pytest

from maxentsum import (
    DomainError,
    OptimizerConfig,
    Pmf,
    ResidueDecomposition,
    ValidationError,
    binary_entropy,
    binomial_half_entropy,
    block_ascend,
    convolve,
    entropy,
    mixture,
    multistart_maximize,
    random_ulc_sequences,
    read_pmf,
    residue_decompose,
    restricted_maximize,
    sum_distribution,
    write_pmf,
)
from maxentsum.bounds import conjectured_inputs, conjectured_weight
from maxentsum.pmf import NORMALIZATION_TOL, RENORMALIZE_DRIFT
from maxentsum.ulc import ulc_order_margins


def random_pmf(rng, m):
    return Pmf(rng.dirichlet(np.ones(m + 1)))


class TestPmfValidation:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValidationError):
            Pmf([0.5, -0.1, 0.6])

    def test_rejects_bad_normalization(self):
        with pytest.raises(ValidationError):
            Pmf([0.5, 0.5 + 1e-9])

    def test_accepts_tiny_drift(self):
        Pmf([0.5, 0.5 + 1e-13])

    def test_rejects_empty_and_multidim(self):
        with pytest.raises(ValidationError):
            Pmf([])
        with pytest.raises(ValidationError):
            Pmf([[0.5, 0.5]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            Pmf([0.5, float("nan")])

    def test_immutable(self):
        p = Pmf.uniform(3)
        with pytest.raises(ValueError):
            p.probs[0] = 1.0

    def test_constructors(self):
        assert Pmf.uniform(4).probs == pytest.approx([0.2] * 5)
        pm = Pmf.point_mass(2, m=4)
        assert pm.probs.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]
        with pytest.raises(DomainError):
            Pmf.point_mass(5, m=3)


class TestEntropy:
    @pytest.mark.parametrize("r", range(1, 17))
    def test_uniform_attains_log_alphabet(self, r):
        assert entropy(Pmf.uniform(r)) == pytest.approx(math.log2(r + 1), abs=1e-12)

    def test_point_mass_is_zero(self):
        assert entropy(Pmf.point_mass(0, m=6)) == 0.0

    def test_quartic_binomial_value(self):
        # Exact-fraction expansion: H = 2*(1/8)*3 + 2*(3/8)*(3 - log2 3)
        #                             = 3 - (3/4) log2 3 = 1.8112781244591329
        expected = 3.0 - 0.75 * math.log2(3.0)
        assert entropy([1 / 8, 3 / 8, 3 / 8, 1 / 8]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.811278, abs=1e-6)

    def test_validates_raw_sequences(self):
        with pytest.raises(ValidationError):
            entropy([0.9, 0.2])

    def test_range(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            m = int(rng.integers(1, 12))
            h = entropy(random_pmf(rng, m))
            assert 0.0 <= h <= math.log2(m + 1) + 1e-12


class TestBinaryEntropy:
    def test_half_is_one(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(42)
        for p in rng.uniform(0, 1, size=200):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-14)

    def test_maximum_at_half(self):
        for p in np.linspace(0.01, 0.99, 99):
            assert binary_entropy(p) <= 1.0

    def test_two_summand_weight_value(self):
        # Direct evaluation of the definition at sqrt(2)/(1 + sqrt(2)):
        # 0.9786600843501594 (frozen).
        w = math.sqrt(2) / (1 + math.sqrt(2))
        assert binary_entropy(w) == pytest.approx(0.9786600843501594, abs=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            binary_entropy(bad)


class TestConvolve:
    def test_two_fair_coins(self):
        out = convolve(Pmf.uniform(1), Pmf.uniform(1))
        assert out.probs == pytest.approx([0.25, 0.5, 0.25], abs=0)

    def test_point_mass_is_identity(self):
        rng = np.random.default_rng(42)
        p = random_pmf(rng, 5)
        out = convolve(p, Pmf.point_mass(0))
        np.testing.assert_allclose(out.probs, p.probs, atol=1e-15)

    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    def test_threefold_two_point_self_convolution(self, r):
        # Three variables uniform on {0, r} sum to a Binomial(3, 1/2) law
        # living on multiples of r, with zeros everywhere else.
        edge = np.zeros(r + 1)
        edge[0] = edge[r] = 0.5
        out = convolve(convolve(edge, edge), edge)
        expected = np.zeros(3 * r + 1)
        for k in range(4):
            expected[k * r] = math.comb(3, k) / 8.0
        np.testing.assert_allclose(out.probs, expected, atol=1e-15)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = random_pmf(rng, 2)
            q = random_pmf(rng, 2)
            expected = np.zeros(5)
            for a in range(3):
                for b in range(3):
                    expected[a + b] += p.probs[a] * q.probs[b]
            np.testing.assert_allclose(convolve(p, q).probs, expected, atol=1e-15)

    def test_commutative_associative(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p, q, s = (random_pmf(rng, int(rng.integers(1, 6))) for _ in range(3))
            np.testing.assert_allclose(
                convolve(p, q).probs, convolve(q, p).probs, atol=1e-12
            )
            left = convolve(convolve(p, q), s).probs
            right = convolve(p, convolve(q, s)).probs
            np.testing.assert_allclose(left, right, atol=1e-12)


class TestSumDistribution:
    def test_single_point_mass(self):
        out = sum_distribution([Pmf.point_mass(3)])
        assert out.probs.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            sum_distribution([])

    def test_mismatched_alphabets_rejected(self):
        with pytest.raises(DomainError):
            sum_distribution([Pmf.uniform(2), Pmf.uniform(3)])

    def test_conjectured_sum_structure_n4_r3(self):
        # With three inputs uniform on {0, 3} plus the mixture input, the sum
        # carries w0 * C(4, k) / 16 at multiples of 3 and
        # (1 - w0) / 2 * C(3, k) / 8 at the other points.
        w0 = conjectured_weight(4, 3)
        out = sum_distribution(conjectured_inputs(4, 3))
        expected = np.zeros(13)
        for k in range(5):
            expected[3 * k] = w0 * math.comb(4, k) / 16.0
        for k in range(4):
            for j in (1, 2):
                expected[3 * k + j] = (1 - w0) / 2.0 * math.comb(3, k) / 8.0
        np.testing.assert_allclose(out.probs, expected, atol=1e-15)

    def test_entropy_subadditive(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            r = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            inputs = [random_pmf(rng, r) for _ in range(n)]
            total = entropy(sum_distribution(inputs))
            parts = sum(entropy(p) for p in inputs)
            assert total <= parts + 1e-10


class TestResidueDecompose:
    def test_modulus_one_is_trivial(self):
        rng = np.random.default_rng(42)
        p = random_pmf(rng, 6)
        dec = residue_decompose(p, 1)
        assert dec.weights.tolist() == pytest.approx([1.0])
        np.testing.assert_allclose(dec.conditionals[0].probs, p.probs, atol=1e-15)

    def test_uniform_six_by_three(self):
        dec = residue_decompose(Pmf.uniform(5), 3)
        np.testing.assert_allclose(dec.weights, [1 / 3] * 3, atol=1e-15)
        for cond in dec.conditionals:
            np.testing.assert_allclose(cond.probs, [0.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize("r", [2, 3, 4, 7])
    def test_two_summand_construction_classes(self, r):
        dec = residue_decompose(sum_distribution(conjectured_inputs(2, r)), r)
        np.testing.assert_allclose(dec.conditionals[0].probs, [0.25, 0.5, 0.25], atol=1e-12)
        for j in range(1, r):
            np.testing.assert_allclose(dec.conditionals[j].probs, [0.5, 0.5], atol=1e-12)

    def test_zero_weight_class_is_degenerate(self):
        dec = residue_decompose(Pmf.point_mass(0, m=4), 2)
        assert dec.weights.tolist() == [1.0, 0.0]
        assert dec.degenerate == (False, True)
        assert not dec.conditionals[1].probs.any()
        np.testing.assert_allclose(dec.reassemble().probs, Pmf.point_mass(0, m=4).probs)

    def test_reassembly_roundtrip(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            r = int(rng.integers(1, 6))
            m = int(rng.integers(r, 4 * r + 2))
            p = random_pmf(rng, m)
            dec = residue_decompose(p, r)
            assert abs(float(dec.weights.sum()) - 1.0) < 1e-12
            np.testing.assert_allclose(dec.reassemble().probs, p.probs, atol=1e-12)

    def test_bad_modulus(self):
        with pytest.raises(DomainError):
            residue_decompose(Pmf.uniform(3), 0)


class TestMixture:
    def test_single_class_reindexes(self):
        rng = np.random.default_rng(42)
        p = random_pmf(rng, 4)
        out = mixture([p], [1.0], 1)
        np.testing.assert_allclose(out.probs, p.probs, atol=1e-15)

    @pytest.mark.parametrize("n,r", [(2, 3), (3, 2), (4, 5)])
    def test_construction_components_assemble_the_sum(self, n, r):
        # Class 0 Binomial(n, 1/2), classes j != 0 Binomial(n-1, 1/2), with
        # weights (w0, (1-w0)/(r-1), ...), must reassemble the construction sum.
        w0 = conjectured_weight(n, r)
        class0 = np.array([math.comb(n, k) for k in range(n + 1)], float) / 2**n
        classj = np.array([math.comb(n - 1, k) for k in range(n)], float) / 2 ** (n - 1)
        conds = [Pmf(class0)] + [Pmf(classj)] * (r - 1)
        weights = [w0] + [(1 - w0) / (r - 1)] * (r - 1)
        out = mixture(conds, weights, r)
        expected = sum_distribution(conjectured_inputs(n, r))
        np.testing.assert_allclose(out.probs, expected.probs, atol=1e-12)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_roundtrip_random(self, r):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            m = r * int(rng.integers(1, 4)) + int(rng.integers(0, r))
            p = random_pmf(rng, m)
            dec = residue_decompose(p, r)
            out = mixture(dec.conditionals, dec.weights, r)
            worst = max(worst, float(np.abs(out.probs - p.probs).max()))
        assert worst < 1e-12

    def test_count_mismatch(self):
        with pytest.raises(DomainError):
            mixture([Pmf.uniform(1)], [0.5, 0.5], 2)

    def test_incompatible_lengths(self):
        with pytest.raises(DomainError):
            mixture([Pmf.uniform(4), Pmf.uniform(1)], [0.5, 0.5], 2)

    def test_invalid_weights(self):
        with pytest.raises(ValidationError):
            mixture([Pmf.uniform(1), Pmf.uniform(1)], [0.9, 0.3], 2)


class TestEntropyDecompositionIdentity:
    def test_identity_holds(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            r = int(rng.integers(1, 6))
            m = int(rng.integers(r, 5 * r))
            p = random_pmf(rng, m)
            dec = residue_decompose(p, r)
            split = entropy(Pmf(np.asarray(dec.weights))) + sum(
                float(w) * entropy(c) for w, c in zip(dec.weights, dec.conditionals) if w > 0
            )
            assert entropy(p) == pytest.approx(split, abs=1e-10)


class TestSplittingInvariant:
    def test_convolution_by_multiple_of_r_acts_classwise(self):
        # Convolving with a pmf supported on multiples of r leaves the class
        # weights alone and convolves each conditional by the coarse pmf.
        rng = np.random.default_rng(42)
        for _ in range(100):
            r = int(rng.integers(1, 5))
            ell = int(rng.integers(1, 4))
            span = int(rng.integers(1, 4))
            p = random_pmf(rng, ell * r)
            coarse = rng.dirichlet(np.ones(span + 1))
            lifted = np.zeros(span * r + 1)
            lifted[::r] = coarse
            dec_before = residue_decompose(p, r)
            dec_after = residue_decompose(convolve(p, Pmf(lifted)), r)
            np.testing.assert_allclose(dec_after.weights, dec_before.weights, atol=1e-12)
            for j in range(r):
                expected = np.convolve(dec_before.conditionals[j].probs, coarse)
                np.testing.assert_allclose(
                    dec_after.conditionals[j].probs, expected, atol=1e-12
                )


class TestTextFormat:
    def test_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(42)
        for i in range(20):
            p = random_pmf(rng, int(rng.integers(1, 9)))
            path = tmp_path / f"pmf_{i}.pmf"
            write_pmf(p, path)
            back = read_pmf(path)
            assert back.probs.tolist() == p.probs.tolist()

    def test_file_object_roundtrip(self):
        buffer = io.StringIO()
        write_pmf(Pmf.uniform(2), buffer)
        buffer.seek(0)
        assert read_pmf(buffer).probs.tolist() == Pmf.uniform(2).probs.tolist()

    def test_comments_and_blanks(self):
        text = "# header\n\n0.25  # inline note\n0.5\n\n0.25\n"
        p = read_pmf(io.StringIO(text))
        assert p.probs.tolist() == [0.25, 0.5, 0.25]

    def test_parse_errors(self):
        with pytest.raises(ValidationError):
            read_pmf(io.StringIO("0.5\nnot-a-number\n"))
        with pytest.raises(ValidationError):
            read_pmf(io.StringIO("# only comments\n"))

    def test_seventeen_digit_precision_survives(self):
        value = 1.0 / 3.0
        p = Pmf([value, 1.0 - value])
        buffer = io.StringIO()
        write_pmf(p, buffer)
        buffer.seek(0)
        assert read_pmf(buffer).probs.tolist() == [value, 1.0 - value]


class TestValidationMessages:
    @pytest.mark.parametrize("values,message", [
        ([math.inf, 0.0], "invalid mass inf at index 0"),
        ([0.5, math.nan, 0.5], "invalid mass nan at index 1"),
        ([0.5, -0.1, 0.6], "invalid mass -0.1 at index 1"),
        ([1e308, 1e308], "masses sum to inf, expected 1 within 1e-12"),
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered in reduce:RuntimeWarning")
    def test_names_the_first_bad_entry(self, values, message):
        with pytest.raises(ValidationError) as info:
            Pmf(values)
        assert str(info.value) == message


class TestNonFiniteWeights:
    def test_decomposition_rejects_nan_weight(self):
        q = Pmf.uniform(1)
        with pytest.raises(ValidationError, match="invalid class weight nan at index 0"):
            ResidueDecomposition(
                r=2, weights=[math.nan, 1.0], conditionals=(q, q), degenerate=(False, False)
            )

    def test_mixture_rejects_nan_weight(self):
        q = Pmf.uniform(1)
        with pytest.raises(ValidationError, match="invalid weight nan at index 0"):
            mixture([q, q], [math.nan, 1.0], 2)

    def test_mixture_rejects_lone_nan_weight(self):
        with pytest.raises(ValidationError, match="invalid weight nan at index 0"):
            mixture([Pmf.uniform(2)], [math.nan], 1)


_P3 = Pmf.uniform(3)


def _integer_case(name, call, value, least):
    message = f"{name} must be an integer >= {least}, got {value!r}"
    return pytest.param(call, value, message, id=f"{call.__name__}-{value!r}")


def _decomposition(r):
    return ResidueDecomposition(r=r, weights=[1.0], conditionals=(_P3,), degenerate=(False,))


def _mixture(r):
    return mixture([_P3], [1.0], r)


def _restricted(ell):
    return restricted_maximize(3, 2, ell, OptimizerConfig(starts=1))


def _margins(order):
    return ulc_order_margins([0.5, 0.5] if order is True else [0.25, 0.5, 0.25], order)


def _ulc_order(order):
    return random_ulc_sequences(order, 4, np.random.default_rng(0))


def _ulc_count(count):
    return random_ulc_sequences(2, count, np.random.default_rng(0))


def _decompose(r):
    return residue_decompose(_P3, r)


@pytest.mark.parametrize("call,value,message", [
    _integer_case("modulus", _decompose, True, 1),
    _integer_case("modulus", _decompose, 2.0, 1),
    _integer_case("modulus", _mixture, True, 1),
    _integer_case("modulus", _mixture, 1.0, 1),
    _integer_case("modulus", _decomposition, True, 1),
    _integer_case("modulus", _decomposition, 0, 1),
    _integer_case("ell", _restricted, True, 1),
    _integer_case("ell", _restricted, 2.0, 1),
    _integer_case("n", binomial_half_entropy, True, 0),
    _integer_case("n", binomial_half_entropy, 2.0, 0),
    _integer_case("order", _margins, True, 0),
    _integer_case("order", _margins, 2.0, 0),
    _integer_case("order", _ulc_order, True, 1),
    _integer_case("order", _ulc_order, 2.0, 1),
    _integer_case("count", _ulc_count, True, 1),
])
def test_integer_arguments_are_checked(call, value, message):
    # Each of these values ran before integer arguments went through
    # errors.check_count (0 already raised, with another message).
    with pytest.raises(DomainError) as info:
        call(value)
    assert str(info.value) == message


# Test-only copies of the validation and reassembly code before the one-pass
# validator; the current code must reproduce their arrays byte for byte and
# reject what they rejected with the same exception type.


def reference_pmf(values):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"probability vector must be 1-d, got shape {arr.shape}")
    arr = arr.copy()
    if arr.size < 1:
        raise ValidationError("a pmf needs at least one entry")
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        k = int(np.argmin(np.nan_to_num(arr, nan=-np.inf)))
        raise ValidationError(f"invalid mass {arr[k]!r} at index {k}")
    total = float(arr.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValidationError(f"masses sum to {total!r}, expected 1 within {NORMALIZATION_TOL}")
    return arr


def reference_finalize(raw):
    total = float(raw.sum())
    if abs(total - 1.0) > RENORMALIZE_DRIFT:
        raw = raw / total
    return reference_pmf(raw)


def reference_reassemble(dec):
    m = max((len(c) - 1) * dec.r + j for j, c in enumerate(dec.conditionals) if len(c) > 0)
    out = np.zeros(m + 1)
    for j, (wj, cond) in enumerate(zip(dec.weights, dec.conditionals)):
        if wj > 0.0:
            out[j + dec.r * np.arange(len(cond))] = wj * cond.probs
    return reference_finalize(out)


def reference_mixture(conditionals, weights, r):
    if int(r) != r or r < 1:
        raise DomainError(f"modulus must be an integer >= 1, got {r!r}")
    r = int(r)
    conds = list(conditionals)
    w = np.asarray(weights, dtype=float)
    if len(conds) != r or w.size != r:
        raise DomainError(f"expected exactly {r} weights and {r} conditionals")
    if np.any(w < 0.0):
        raise ValidationError("weights must be non-negative")
    if abs(float(w.sum()) - 1.0) > NORMALIZATION_TOL:
        raise ValidationError("weights must sum to 1")
    arrays = {j: reference_pmf(conds[j].probs) for j in range(r) if w[j] > 0.0}
    m = max((arr.size - 1) * r + j for j, arr in arrays.items())
    out = np.zeros(m + 1)
    for j, arr in arrays.items():
        out[j + r * np.arange(arr.size)] = w[j] * arr
    return reference_finalize(out)


def outcome(call, *args):
    """The bytes of a call's array, or the type of the exception it raised."""
    try:
        result = call(*args)
    except Exception as exc:  # noqa: BLE001 - the type itself is compared
        return type(exc)
    return (result if isinstance(result, np.ndarray) else result.probs).tobytes()


def random_case(rng):
    """A pmf with some classes mod r emptied and a drift below the tolerance,
    one time in eight with an invalid entry or sum."""
    r = int(rng.integers(1, 6))
    probs = rng.dirichlet(np.ones(int(rng.integers(1, 5 * r + 1))))
    if rng.random() < 0.4:
        for j in rng.permutation(r)[: int(rng.integers(1, r + 1)) - 1]:
            probs[j::r] = 0.0
        probs[0] += probs.sum() == 0.0  # short pmfs may have lost every class
        probs /= probs.sum()
    probs *= 1.0 + rng.choice([0.0, 3e-15, 4e-14, 6e-13])
    if rng.random() < 0.125:
        probs[int(rng.integers(probs.size))] = rng.choice(
            [math.nan, math.inf, -math.inf, -1e-3, 1e308, 1e-9 + probs[0]]
        )
    return r, probs


class TestMatchesReference:
    def test_random_inputs_byte_for_byte(self):
        rng = np.random.default_rng(8)
        rejected = degenerate = 0
        for _ in range(2000):
            r, probs = random_case(rng)
            expected = outcome(reference_pmf, probs)
            assert outcome(Pmf, probs) == expected
            if not isinstance(expected, bytes):
                rejected += 1
                continue
            dec = residue_decompose(probs, r)
            degenerate += any(dec.degenerate)
            assert outcome(dec.reassemble) == outcome(reference_reassemble, dec)
            args = (dec.conditionals, dec.weights, r)
            assert outcome(mixture, *args) == outcome(reference_mixture, *args)
            other = rng.dirichlet(np.ones(int(rng.integers(1, 5))))
            assert outcome(convolve, probs, other) == outcome(
                reference_finalize, np.convolve(reference_pmf(probs), other)
            )
        assert rejected > 100 and degenerate > 100

    @pytest.mark.parametrize("values", [
        [], [[0.5, 0.5]], 0.5, [0.5, 0.5 + 1e-9], [math.nan], [-math.inf, 1.0], ["x"],
    ])
    def test_rejections_keep_their_type(self, values):
        assert outcome(Pmf, values) == outcome(reference_pmf, values)


class TestOutputsAreFrozenCopies:
    """Every Pmf an operation returns is read-only and owns its own buffer."""

    @staticmethod
    def check(pmf, *others):
        assert not pmf.probs.flags.writeable
        assert pmf.probs.flags.owndata
        for other in others:
            assert not np.shares_memory(pmf.probs, other)

    def test_pmf_operations(self):
        rng = np.random.default_rng(3)
        a, b = rng.dirichlet(np.ones(7)), rng.dirichlet(np.ones(7))
        self.check(Pmf(a), a)
        self.check(convolve(a, b), a, b)
        single = Pmf(a)
        self.check(sum_distribution([single]), a, single.probs)
        self.check(sum_distribution([a, b]), a, b)
        a[2::3] = 0.0  # class 2 mod 3 becomes degenerate
        a /= a.sum()
        dec = residue_decompose(a, 3)
        assert dec.degenerate == (False, False, True)
        assert not dec.weights.flags.writeable
        for cond in dec.conditionals:
            self.check(cond, a)
        self.check(dec.reassemble(), a)
        weights = np.array(dec.weights)
        self.check(mixture(dec.conditionals, weights, 3), a, weights)
        self.check(read_pmf(io.StringIO("0.25\n0.75\n")))

    def test_optimizer_outputs(self):
        rng = np.random.default_rng(4)
        inputs = [rng.dirichlet(np.ones(4)) for _ in range(3)]
        first, second = block_ascend(inputs, 1), block_ascend(inputs, 1)
        self.check(first, *inputs, second.probs)
        config = OptimizerConfig(starts=3, seed=2)
        one = multistart_maximize(2, 3, config).best_inputs
        two = multistart_maximize(2, 3, config).best_inputs
        for k, block in enumerate(one):
            self.check(block, *(p.probs for p in two), *(p.probs for p in one[k + 1 :]))
