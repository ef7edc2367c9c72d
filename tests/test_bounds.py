"""Closed-form bound machinery: binomial entropies, the weight, special cases."""

import math
import time

import numpy as np
import pytest

from maxentsum import (
    DomainError,
    NotASpecialCaseError,
    Pmf,
    binomial_half_entropy,
    bound_value_at,
    closed_form_special,
    conjectured_inputs,
    conjectured_weight,
    entropy,
    entropy_lower_bound,
    residue_decompose,
    sum_distribution,
)
from maxentsum.kernels import entropy_rows

# Frozen reference values, each computed by two independent routes (see the
# individual tests): optimal weight and bound for three ternary summands, and
# the two-summand bound at r = 2.
W0_3_2 = 0.5537321007147962
BOUND_3_2 = 2.6640180597688796
BOUND_2_2 = 2.271553303163612


def golden_section_argmax(fn, lo, hi, bracket_width=1e-5):
    """Derivative-free maximizer on [lo, hi]; the independent argmax oracle.

    Golden-section narrowing to ``bracket_width`` followed by one parabolic
    vertex fit (values are too flat near the peak for section steps alone to
    localize it past the sqrt(eps) floor).
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > bracket_width:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    x1, x2, x3 = a, (a + b) / 2.0, b
    f1, f2, f3 = fn(x1), fn(x2), fn(x3)
    num = (x2 - x1) ** 2 * (f2 - f3) - (x2 - x3) ** 2 * (f2 - f1)
    den = (x2 - x1) * (f2 - f3) - (x2 - x3) * (f2 - f1)
    if den == 0.0:
        return x2
    return min(max(x2 - 0.5 * num / den, a), b)


class TestBinomialHalfEntropy:
    def test_small_exact_values(self):
        assert binomial_half_entropy(0) == 0.0
        assert binomial_half_entropy(1) == 1.0
        assert binomial_half_entropy(2) == 1.5

    def test_three_summands(self):
        assert binomial_half_entropy(3) == pytest.approx(3 - 0.75 * math.log2(3), abs=1e-14)

    def test_matches_direct_pmf_entropy(self):
        for n in range(0, 25):
            masses = np.array([math.comb(n, k) for k in range(n + 1)], float) / 2**n
            assert binomial_half_entropy(n) == pytest.approx(entropy(Pmf(masses)), abs=1e-12)

    def test_lgamma_branch_agrees_with_exact_oracle(self):
        # These n lie above 60, where an lgamma path once ran (hence the
        # name).  The oracle takes each exact integer coefficient from
        # math.comb, not the library's recurrence (math.log2 accepts
        # arbitrary-precision ints).
        for n in (61, 80, 200):
            coeffs = [math.comb(n, k) for k in range(n + 1)]
            probs = [c * 2.0**-n for c in coeffs]
            oracle = -sum(p * (math.log2(c) - n) for p, c in zip(probs, coeffs))
            assert binomial_half_entropy(n) == pytest.approx(oracle, abs=1e-9)

    def test_bit_identical_to_the_former_exact_formula(self):
        # The formula used up to n = 60 before the exact path covered every n:
        # both round C(n, k) * 2**-n correctly and sum by the kernels' entropy
        # rule, so the bits must not move.
        for n in range(0, 61):
            coeffs = [math.comb(n, k) for k in range(n + 1)]
            log2c = np.array([math.log2(c) for c in coeffs])
            probs = np.array([float(c) for c in coeffs]) * 2.0 ** -n
            reference = float(entropy_rows(probs, log2c - n)) if n else 0.0
            assert binomial_half_entropy(n).hex() == reference.hex()

    def test_large_n_stays_fast(self):
        # Guards against building each coefficient by its own math.comb call,
        # which takes seconds at this n.
        start = time.perf_counter()
        entropy_lower_bound(10_000, 3)
        assert time.perf_counter() - start < 2.0

    def test_monotone_in_n(self):
        values = [binomial_half_entropy(n) for n in range(0, 40)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            binomial_half_entropy(-1)


class TestConjecturedWeight:
    @pytest.mark.parametrize("r", range(1, 17))
    def test_single_summand(self, r):
        assert conjectured_weight(1, r) == pytest.approx(2.0 / (r + 1), abs=1e-15)

    @pytest.mark.parametrize("r", range(1, 17))
    def test_two_summands(self, r):
        expected = math.sqrt(2.0) / (r - 1 + math.sqrt(2.0))
        assert conjectured_weight(2, r) == pytest.approx(expected, abs=1e-14)

    def test_three_summands_ternary(self):
        gain = (4.0 / 3.0) ** 0.75
        assert conjectured_weight(3, 2) == pytest.approx(gain / (1 + gain), abs=1e-15)
        assert conjectured_weight(3, 2) == pytest.approx(W0_3_2, abs=1e-15)

    def test_binary_alphabet_weight_is_one(self):
        for n in range(1, 10):
            assert conjectured_weight(n, 1) == 1.0

    def test_weight_in_unit_interval(self):
        for n in range(1, 11):
            for r in range(1, 11):
                w0 = conjectured_weight(n, r)
                assert 0.0 < w0 <= 1.0
                assert (w0 == 1.0) == (r == 1)

    @pytest.mark.parametrize("n,r", [(0, 2), (2, 0), (-1, 3), (2.0, 3), (2, 3.0), (True, 2)])
    def test_domain(self, n, r):
        with pytest.raises(DomainError):
            conjectured_weight(n, r)
        with pytest.raises(DomainError):
            conjectured_inputs(n, r)


class TestBoundValueAt:
    def test_binary_alphabet_reduces_to_binomial_entropy(self):
        for n in range(1, 12):
            assert bound_value_at(1.0, n, 1) == binomial_half_entropy(n)

    @pytest.mark.parametrize("r", range(1, 9))
    def test_optimum_matches_two_summand_closed_form(self, r):
        w0 = conjectured_weight(2, r)
        assert bound_value_at(w0, 2, r) == pytest.approx(closed_form_special(2, r), abs=1e-12)

    @pytest.mark.parametrize("n,r", [(2, 3), (3, 2), (4, 5)])
    def test_stationary_at_conjectured_weight(self, n, r):
        w0 = conjectured_weight(n, r)
        h = 1e-6
        derivative = (bound_value_at(w0 + h, n, r) - bound_value_at(w0 - h, n, r)) / (2 * h)
        assert abs(derivative) < 1e-7

    def test_domain(self):
        with pytest.raises(DomainError):
            bound_value_at(0.0, 2, 3)
        with pytest.raises(DomainError):
            bound_value_at(1.1, 2, 3)
        with pytest.raises(DomainError):
            bound_value_at(0.5, 2, 1)  # r = 1 admits only w = 1
        for bad in (True, "0.5"):  # a bool or a string is no weight
            with pytest.raises(DomainError, match=r"^weight must lie in \(0, 1\], got "):
                bound_value_at(bad, 2, 3)
            with pytest.raises(DomainError, match="^r = 1 admits only the weight w = 1$"):
                bound_value_at(bad, 2, 1)


class TestEntropyLowerBound:
    @pytest.mark.parametrize("r", range(1, 17))
    def test_single_summand_reduces_to_log(self, r):
        assert entropy_lower_bound(1, r).bound_bits == pytest.approx(
            math.log2(r + 1), abs=1e-12
        )

    @pytest.mark.parametrize("n", range(1, 21))
    def test_binary_alphabet_reduces_to_binomial(self, n):
        assert entropy_lower_bound(n, 1).bound_bits == pytest.approx(
            binomial_half_entropy(n), abs=1e-12
        )

    def test_two_summand_ternary_frozen_value(self):
        assert entropy_lower_bound(2, 2).bound_bits == pytest.approx(BOUND_2_2, abs=1e-12)

    def test_terms_sum_to_bound(self):
        for n in range(1, 11):
            for r in range(1, 11):
                report = entropy_lower_bound(n, r)
                total = (
                    report.terms.binomial_term
                    + report.terms.shifted_term
                    + report.terms.weight_entropy
                )
                assert total == report.bound_bits

    def test_same_code_path_as_bound_value_at(self):
        for n in range(1, 11):
            for r in range(1, 11):
                report = entropy_lower_bound(n, r)
                assert bound_value_at(report.w0, n, r) == report.bound_bits

    def test_each_binomial_entropy_is_computed_once(self, monkeypatch):
        import maxentsum.bounds as bounds

        calls, checks = [], []
        binomial, check = bounds.binomial_half_entropy, bounds._check_nr
        monkeypatch.setattr(bounds, "binomial_half_entropy", lambda n: calls.append(n) or binomial(n))
        monkeypatch.setattr(bounds, "_check_nr", lambda n, r: checks.append((n, r)) or check(n, r))
        entropy_lower_bound(10, 3)
        assert calls == [10, 9] and checks == [(10, 3)]

    def test_special_case_tags(self):
        assert entropy_lower_bound(1, 5).special_case == "n1"
        assert entropy_lower_bound(1, 1).special_case == "n1"
        assert entropy_lower_bound(4, 1).special_case == "r1"
        assert entropy_lower_bound(2, 9).special_case == "n2"
        assert entropy_lower_bound(3, 2).special_case == "n3r2"
        assert entropy_lower_bound(4, 3).special_case == "general"

    def test_monotone_in_n_and_r(self):
        grid = {(n, r): entropy_lower_bound(n, r).bound_bits
                for n in range(1, 11) for r in range(1, 11)}
        for n in range(1, 11):
            for r in range(1, 11):
                if n > 1:
                    assert grid[(n, r)] >= grid[(n - 1, r)] - 1e-12
                if r > 1:
                    assert grid[(n, r)] >= grid[(n, r - 1)] - 1e-12

    def test_as_dict_is_json_friendly(self):
        import json

        payload = entropy_lower_bound(3, 2).as_dict()
        parsed = json.loads(json.dumps(payload))
        assert parsed["special_case"] == "n3r2"
        assert parsed["w0"] == pytest.approx(W0_3_2)


class TestConjecturedInputs:
    def test_binary_alphabet_gives_uniform_bernoullis(self):
        inputs = conjectured_inputs(4, 1)
        assert len(inputs) == 4
        for p in inputs:
            np.testing.assert_allclose(p.probs, [0.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize("r", range(1, 9))
    def test_single_summand_gives_uniform(self, r):
        (p,) = conjectured_inputs(1, r)
        np.testing.assert_allclose(p.probs, np.full(r + 1, 1 / (r + 1)), atol=1e-14)

    def test_leading_inputs_are_two_point(self):
        inputs = conjectured_inputs(5, 4)
        for p in inputs[:-1]:
            expected = np.zeros(5)
            expected[0] = expected[4] = 0.5
            np.testing.assert_allclose(p.probs, expected, atol=1e-15)
        last = inputs[-1]
        w0 = conjectured_weight(5, 4)
        assert last[0] == pytest.approx(w0 / 2, abs=1e-15)
        assert last[4] == pytest.approx(w0 / 2, abs=1e-15)
        assert last[2] == pytest.approx((1 - w0) / 3, abs=1e-15)

    def test_construction_attains_bound_on_grid(self):
        for n in range(1, 11):
            for r in range(1, 11):
                achieved = entropy(sum_distribution(conjectured_inputs(n, r)))
                assert achieved == pytest.approx(
                    entropy_lower_bound(n, r).bound_bits, abs=1e-10
                )

    @pytest.mark.parametrize("n", [1000, 2000])
    def test_construction_attains_bound_at_large_n(self, n):
        achieved = entropy(sum_distribution(conjectured_inputs(n, 3)))
        assert abs(achieved - entropy_lower_bound(n, 3).bound_bits) <= 1e-12

    @pytest.mark.parametrize("n,r", [(2, 2), (4, 3), (6, 5)])
    def test_residue_classes_are_binomial(self, n, r):
        dec = residue_decompose(sum_distribution(conjectured_inputs(n, r)), r)
        class0 = np.array([math.comb(n, k) for k in range(n + 1)], float) / 2**n
        classj = np.array([math.comb(n - 1, k) for k in range(n)], float) / 2 ** (n - 1)
        np.testing.assert_allclose(dec.conditionals[0].probs, class0, atol=1e-12)
        for j in range(1, r):
            np.testing.assert_allclose(dec.conditionals[j].probs, classj, atol=1e-12)


class TestClosedFormSpecial:
    def test_two_summands_binary(self):
        assert closed_form_special(2, 1) == pytest.approx(1.5, abs=1e-14)

    def test_three_summands_ternary_frozen_value(self):
        assert closed_form_special(3, 2) == pytest.approx(BOUND_3_2, abs=1e-12)

    def test_two_summands_r3_formula(self):
        w0 = math.sqrt(2.0) / (2.0 + math.sqrt(2.0))
        h = -w0 * math.log2(w0) - (1 - w0) * math.log2(1 - w0)
        expected = 1.0 + w0 / 2.0 + (1 - w0) * math.log2(2.0) + h
        assert closed_form_special(2, 3) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("r", range(1, 17))
    def test_single_summand(self, r):
        assert closed_form_special(1, r) == pytest.approx(math.log2(r + 1), abs=1e-14)

    @pytest.mark.parametrize("r", range(1, 17))
    def test_agreement_with_general_bound_two_summands(self, r):
        assert abs(closed_form_special(2, r) - entropy_lower_bound(2, r).bound_bits) <= 1e-12

    @pytest.mark.parametrize("n,r", [(3, 3), (4, 2), (5, 5)])
    def test_not_a_special_case(self, n, r):
        with pytest.raises(NotASpecialCaseError):
            closed_form_special(n, r)

    def test_refuses_exactly_the_general_cells(self):
        for n in range(1, 9):
            for r in range(1, 9):
                general = entropy_lower_bound(n, r).special_case == "general"
                try:
                    closed_form_special(n, r)
                except NotASpecialCaseError:
                    assert general, (n, r)
                else:
                    assert not general, (n, r)


class TestArgmaxProperty:
    def test_conjectured_weight_is_the_argmax(self):
        # Golden-section search over (0, 1) is the independent maximizer; the
        # closed-form weight must agree with it within 1e-8 on the whole grid.
        for n in range(2, 9):
            for r in range(2, 9):
                found = golden_section_argmax(
                    lambda w: bound_value_at(w, n, r), 1e-9, 1.0 - 1e-9
                )
                assert found == pytest.approx(conjectured_weight(n, r), abs=1e-8)
