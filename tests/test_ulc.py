"""Log-concavity checkers, the conditional report, identities, and the sign lemma."""

import json
import math

import numpy as np
import pytest

from maxentsum import (
    DomainError,
    Pmf,
    PreconditionError,
    TernaryTriple,
    binomial_half_entropy,
    conditional_ulc_report,
    conjectured_inputs,
    convolve_bernoulli_preserves,
    entropy,
    has_internal_zeros,
    identity_gap,
    is_log_concave,
    is_ulc_infinite,
    is_ulc_order,
    random_ulc_sequences,
    sign_lemma_check,
    sum_distribution,
    ternary_sum_masses,
    ulc_suite,
)


def binomial_masses(n, p=0.5):
    k = np.arange(n + 1)
    coeffs = np.array([math.comb(n, i) for i in k], float)
    return coeffs * p**k * (1 - p) ** (n - k)


class TestIsLogConcave:
    def test_simple_cases(self):
        assert is_log_concave([1.0, 2.0, 1.0])
        assert not is_log_concave([1.0, 0.0, 1.0])  # 0 < 1 at the middle index

    def test_binomial_five(self):
        assert is_log_concave(binomial_masses(5))

    def test_short_sequences_vacuous(self):
        assert is_log_concave([0.3])
        assert is_log_concave([0.3, 0.7])

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            is_log_concave([0.5, -0.5, 1.0])

    def test_internal_zero_diagnostic(self):
        # Two adjacent internal zeros make every inequality 0 >= 0, so the
        # literal check passes vacuously; the diagnostic tells the difference.
        assert is_log_concave([0.5, 0.0, 0.0, 0.5])
        assert has_internal_zeros([0.5, 0.0, 0.0, 0.5])
        assert has_internal_zeros([0.0, 0.2, 0.0, 0.8])
        assert not has_internal_zeros([0.0, 0.5, 0.5, 0.0])
        assert not has_internal_zeros([1.0])
        assert not has_internal_zeros([0.5, 0.5])


class TestIsUlcInfinite:
    def test_poisson_prefix_sits_on_equality(self):
        lam = 0.7
        u = np.array([lam**k / math.factorial(k) for k in range(7)])
        assert is_ulc_infinite(u)
        i = np.arange(1, 6)
        margins = i * u[1:-1] ** 2 - (i + 1) * u[:-2] * u[2:]
        assert np.abs(margins).max() < 1e-15

    def test_flat_sequence_fails(self):
        assert not is_ulc_infinite([1.0, 1.0, 1.0])  # at i=1: 1 < 2

    def test_implied_by_finite_order(self):
        rng = np.random.default_rng(42)
        for order in range(2, 9):
            seqs = random_ulc_sequences(order, 1250, rng)
            for u in seqs:
                assert is_ulc_infinite(u)


class TestIsUlcOrder:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_binomial_on_equality_boundary(self, n):
        rng = np.random.default_rng(n)
        for p in rng.uniform(0.05, 0.95, size=5):
            u = binomial_masses(n, p)
            assert is_ulc_order(u, n)
            i = np.arange(1, n)
            lhs = i * (n - i) * u[1:-1] ** 2
            rhs = (i + 1) * (n - i + 1) * u[:-2] * u[2:]
            assert np.abs(lhs - rhs).max() < 1e-12 * u.max() ** 2 * n * n

    def test_order_two_reduces_to_four_mass_inequality(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            u = rng.uniform(0, 1, size=3)
            assert is_ulc_order(u, 2) == (u[1] ** 2 >= 4 * u[0] * u[2] - 1e-12 * u.max() ** 2)

    def test_near_equality_failure(self):
        assert not is_ulc_order([1.0, 2.0, 1.01], 2)  # 4 < 4.04

    def test_length_domain_error(self):
        with pytest.raises(DomainError):
            is_ulc_order([0.2, 0.3, 0.3, 0.2], 2)

    def test_padded_shorter_sequence_allowed(self):
        assert is_ulc_order([0.5, 0.5], 5)


class TestClassHierarchy:
    def test_order_implies_infinite_implies_log_concave(self):
        rng = np.random.default_rng(42)
        checked = 0
        for order in range(2, 9):
            for u in random_ulc_sequences(order, 1500, rng):
                assert is_ulc_order(u, order)
                assert is_ulc_infinite(u)
                assert is_log_concave(u)
                checked += 1
        assert checked >= 10_000

    def test_binomial_is_entropy_maximizer_within_class(self):
        # Among order-n ultra-log-concave laws, Binomial(n, 1/2) has the
        # largest entropy; random members must never beat it.
        rng = np.random.default_rng(42)
        for order in range(2, 9):
            cap = binomial_half_entropy(order)
            for u in random_ulc_sequences(order, 1250, rng):
                assert entropy(u / u.sum()) <= cap + 1e-12


class TestConditionalUlcReport:
    def test_construction_three_summands_ternary(self):
        report = conditional_ulc_report(conjectured_inputs(3, 2), 2)
        assert report.all_pass
        for cls in report.per_class:
            assert cls.order == (3 if cls.residue == 0 else 2)
            assert cls.witness is None
            assert abs(cls.margin) < 1e-12  # binomial classes sit on equality

    @pytest.mark.parametrize("r", range(1, 6))
    def test_random_product_pairs(self, r):
        rng = np.random.default_rng(r)
        for _ in range(400):
            inputs = [Pmf(rng.dirichlet(np.ones(r + 1))) for _ in range(2)]
            assert conditional_ulc_report(inputs, r).all_pass

    def test_random_product_triples_ternary(self):
        rng = np.random.default_rng(42)
        for _ in range(400):
            inputs = [Pmf(rng.dirichlet(np.ones(3))) for _ in range(3)]
            assert conditional_ulc_report(inputs, 2).all_pass

    def test_degenerate_class_is_vacuous_pass(self):
        report = conditional_ulc_report([Pmf.point_mass(0, m=2)] * 2, 2)
        assert report.all_pass
        assert report.per_class[1].margin is None

    def test_as_dict(self):
        report = conditional_ulc_report([Pmf.point_mass(0, m=2)] * 2, 2)
        assert report.as_dict() == {
            "r": 2,
            "per_class": [
                {"residue": 0, "order": 2, "passed": True, "witness": None, "margin": 0.0},
                {"residue": 1, "order": 1, "passed": True, "witness": None, "margin": None},
            ],
        }

    def test_reproduces_a_violation_the_suite_records(self):
        # Three summands on {0, ..., 3} do break conditional ULC; the report on a
        # recorded instance fails the same class at the same index.
        record = ulc_suite(3, 3, trials=2000, seed=1).violations[0]
        report = conditional_ulc_report(record["inputs"], 3)
        failed = report.per_class[record["residue"]]
        assert not report.all_pass and not failed.passed
        assert failed.witness == record["witness"]
        assert failed.margin == pytest.approx(record["margin"], rel=1e-9)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["per_class"][record["residue"]]["witness"] == record["witness"]

    def test_two_summand_certificate_inequality(self):
        # The even-class certificate for two summands dominates the square of
        # the antisymmetric edge term.
        rng = np.random.default_rng(42)
        for _ in range(2000):
            r = int(rng.integers(1, 6))
            p1 = rng.dirichlet(np.ones(r + 1))
            p2 = rng.dirichlet(np.ones(r + 1))
            s = np.convolve(p1, p2)
            lhs = s[r] ** 2 - 4 * s[0] * s[2 * r]
            edge = (p1[0] * p2[r] - p1[r] * p2[0]) ** 2
            assert lhs >= edge - 1e-12 * s.max() ** 2


class TestTernaryTriple:
    def test_product_values_match_outer_product(self):
        rng = np.random.default_rng(42)
        p1, p2, p3 = (rng.dirichlet(np.ones(3)) for _ in range(3))
        triple = TernaryTriple.from_product(p1, p2, p3)
        for i, j, k in np.ndindex(3, 3, 3):
            assert triple.values[i, j, k] == pytest.approx(p1[i] * p2[j] * p3[k], abs=1e-16)

    def test_sum_masses_match_convolution(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            pmfs = [Pmf(rng.dirichlet(np.ones(3))) for _ in range(3)]
            triple = TernaryTriple.from_product(*pmfs)
            np.testing.assert_allclose(
                triple.sum_masses(), sum_distribution(pmfs).probs, atol=1e-15
            )

    def test_from_values_shapes(self):
        flat = np.arange(27.0)
        assert TernaryTriple.from_values(flat).values[2, 2, 2] == 26.0
        with pytest.raises(DomainError):
            TernaryTriple.from_values(np.ones(26))

    def test_rejects_negative_entries(self):
        bad = np.zeros((3, 3, 3))
        bad[0, 0, 0] = -1.0
        with pytest.raises(DomainError):
            TernaryTriple.from_values(bad)

    def test_product_factors_must_be_ternary(self):
        with pytest.raises(DomainError):
            TernaryTriple.from_product([0.5, 0.5], [1 / 3] * 3, [1 / 3] * 3)

    def test_batched_sum_masses_agree_with_scalar(self):
        rng = np.random.default_rng(42)
        tensors = rng.uniform(0, 1, size=(10, 3, 3, 3))
        batched = ternary_sum_masses(tensors)
        for t in range(10):
            np.testing.assert_allclose(
                batched[t], TernaryTriple.from_values(tensors[t]).sum_masses(), atol=0
            )


class TestIdentityGap:
    def test_all_zero_tensor(self):
        zero = TernaryTriple.from_values(np.zeros((3, 3, 3)))
        for which in ("even", "odd"):
            gap = identity_gap(which, zero)
            assert gap.lhs == gap.rhs == 0.0

    def test_agreement_on_random_products(self):
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            triple = TernaryTriple.from_product(*(rng.dirichlet(np.ones(3)) for _ in range(3)))
            scale = triple.sum_masses().max() ** 2
            even = identity_gap("even", triple)
            odd = identity_gap("odd", triple)
            assert abs(even.gap) <= 1e-12 * scale
            assert abs(odd.gap) <= 1e-12 * scale
            assert even.rhs >= 0.0

    def test_free_tensor_sides_can_differ(self):
        values = np.zeros((3, 3, 3))
        values[0, 0, 0] = 1.0  # sum mass at 0
        values[2, 2, 0] = 1.0  # sum mass at 4
        gap = identity_gap("even", TernaryTriple.from_values(values))
        assert gap.lhs == -3.0
        assert gap.rhs == 0.0

    def test_odd_certificate_positive_under_agreeing_signs(self):
        rng = np.random.default_rng(42)
        found = 0
        for _ in range(2000):
            triple = TernaryTriple.from_product(*(rng.dirichlet(np.ones(3)) for _ in range(3)))
            v = triple.values
            first = v[2, 0, 1] - v[0, 2, 1]
            second = v[1, 2, 0] - v[1, 0, 2]
            if first * second > 1e-12:
                assert identity_gap("odd", triple).lhs > 0.0
                found += 1
        assert found > 100

    def test_unknown_identity_name(self):
        with pytest.raises(DomainError):
            identity_gap("both", TernaryTriple.from_values(np.zeros((3, 3, 3))))


class TestSignLemma:
    def test_uniform_factors_are_vacuous(self):
        uniform = [np.full(3, 1 / 3)] * 3
        assert sign_lemma_check(TernaryTriple.from_product(*uniform))

    def test_hand_case(self):
        triple = TernaryTriple.from_product([0.2, 0.3, 0.5], [0.3, 0.4, 0.3], [0.5, 0.3, 0.2])
        v = triple.values
        # Hypothesis differences are strictly positive here by direct arithmetic.
        assert v[2, 0, 1] - v[0, 2, 1] == pytest.approx(0.027, abs=1e-15)
        assert v[1, 2, 0] - v[1, 0, 2] == pytest.approx(0.027, abs=1e-15)
        assert v[2, 1, 0] - v[0, 1, 2] == pytest.approx(0.084, abs=1e-15)
        assert sign_lemma_check(triple)

    def test_monte_carlo(self):
        rng = np.random.default_rng(42)
        for _ in range(20_000):
            factors = []
            for _ in range(3):
                f = rng.dirichlet(np.ones(3))
                while f.min() <= 1e-9:
                    f = rng.dirichlet(np.ones(3))
                factors.append(f)
            assert sign_lemma_check(TernaryTriple.from_product(*factors))

    def test_requires_product_form(self):
        with pytest.raises(PreconditionError):
            sign_lemma_check(TernaryTriple.from_values(np.full(27, 1 / 27)))

    def test_requires_strict_positivity(self):
        with pytest.raises(PreconditionError):
            sign_lemma_check(TernaryTriple.from_product([0.5, 0.0, 0.5], [1 / 3] * 3, [1 / 3] * 3))


class TestConvolveBernoulliPreserves:
    def test_binomial_stays_binomial(self):
        for m in range(1, 9):
            assert convolve_bernoulli_preserves(binomial_masses(m), m, 0.5)

    def test_degenerate_bernoulli_pads(self):
        u = binomial_masses(4, 0.3)
        assert convolve_bernoulli_preserves(u, 4, 0.0)
        assert convolve_bernoulli_preserves(u, 4, 1.0)

    def test_random_trials(self):
        rng = np.random.default_rng(42)
        for order in range(1, 9):
            seqs = random_ulc_sequences(order, 250, rng)
            for u in seqs:
                assert convolve_bernoulli_preserves(u, order, float(rng.uniform()))

    def test_precondition_rejected(self):
        with pytest.raises(PreconditionError):
            convolve_bernoulli_preserves([1.0, 1.0, 1.0], 2, 0.5)

    def test_bad_weight(self):
        with pytest.raises(DomainError):
            convolve_bernoulli_preserves(binomial_masses(3), 3, 1.5)


@pytest.mark.parametrize("check, args", [
    pytest.param(check, args, id=check.__name__) for check, args in (
        (is_log_concave, ()),
        (is_ulc_infinite, ()),
        (is_ulc_order, (1,)),
        (has_internal_zeros, ()),
        (convolve_bernoulli_preserves, (1, 0.5)),
    )
])
def test_single_sequence_checks_name_themselves(check, args):
    with pytest.raises(DomainError, match=rf"^{check.__name__} takes a single sequence$"):
        check([[0.5, 0.5]], *args)


class TestRandomUlcSequences:
    def test_outputs_are_valid(self):
        rng = np.random.default_rng(42)
        for order in range(1, 9):
            seqs = random_ulc_sequences(order, 300, rng)
            assert seqs.shape == (300, order + 1)
            np.testing.assert_allclose(seqs.sum(axis=1), 1.0, atol=1e-12)
            for u in seqs:
                assert is_ulc_order(u, order)

    def test_deterministic_given_seed(self):
        a = random_ulc_sequences(5, 100, np.random.default_rng(7))
        b = random_ulc_sequences(5, 100, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_domain(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            random_ulc_sequences(0, 10, rng)
        with pytest.raises(DomainError):
            random_ulc_sequences(3, 0, rng)
