"""Monte Carlo suite drivers: determinism, partitioning, witness structure."""

import hashlib
import json
import math
import threading

import numpy as np
import pytest

from maxentsum import (
    DomainError,
    Pmf,
    conditional_ulc_report,
    decomposition_suite,
    grid_oracle,
    identity_suite,
    preserve_suite,
    sign_suite,
    ulc_suite,
)
from maxentsum.kernels import seeded_rng
from maxentsum import suites, ulc
from maxentsum.suites import CHUNK_SIZE, SuiteReport
from maxentsum.ulc import sign_lemma_rows


class TestSuitesPass:
    def test_ulc(self):
        report = ulc_suite(2, 3, trials=5000, seed=11)
        assert report.passed
        assert report.stats["min_margin"] > -1e-15

    def test_identity(self):
        report = identity_suite(trials=5000, seed=11)
        assert report.passed
        assert report.stats["max_relative_gap"] <= 1e-12
        assert report.stats["min_even_expansion"] >= 0.0

    def test_sign(self):
        report = sign_suite(trials=5000, seed=11)
        assert report.passed
        assert 0 < report.stats["strict_hypothesis_count"] <= 5000

    def test_preserve(self):
        report = preserve_suite(trials=3000, seed=11)
        assert report.passed
        assert report.params == {"max_order": 8}
        assert report.stats["min_margin"] > -1e-15

    def test_preserve_chunk_where_some_orders_draw_no_rows(self, monkeypatch):
        drawn = []

        def spy(order, count, rng):
            drawn.append(order)
            return ulc.random_ulc_sequences(order, count, rng)

        monkeypatch.setattr(suites, "random_ulc_sequences", spy)
        report = preserve_suite(trials=3, seed=11)
        assert report.passed
        assert 1 <= len(drawn) <= 3

    def test_sign_redraws_factors_at_or_below_strictness(self, monkeypatch):
        monkeypatch.setattr(suites, "STRICTNESS", 0.1)
        seen = []

        def spy(tensors):
            seen.append(tensors)
            return sign_lemma_rows(tensors)

        monkeypatch.setattr(suites, "sign_lemma_rows", spy)
        report = sign_suite(trials=2000, seed=11)
        assert report.passed
        assert report.params == {"strictness": 0.1}
        tensors = np.concatenate(seen)
        for axes in [(2, 3), (1, 3), (1, 2)]:  # each factor is its marginal
            assert tensors.sum(axis=axes).min() > 0.1 * (1 - 1e-12)

    def test_decomposition_random_moduli(self):
        report = decomposition_suite(trials=400, seed=11)
        assert report.passed
        assert report.stats["max_entropy_error"] <= 1e-10

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_decomposition_fixed_modulus(self, r):
        report = decomposition_suite(trials=200, seed=11, r=r)
        assert report.passed

    @pytest.mark.parametrize(
        "suite",
        [
            lambda trials: ulc_suite(2, 2, trials=trials),
            identity_suite,
            sign_suite,
            preserve_suite,
            decomposition_suite,
        ],
        ids=["ulc", "identity", "sign", "preserve", "decomposition"],
    )
    def test_trials_domain(self, suite):
        with pytest.raises(DomainError, match="trials"):
            suite(trials=0)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: decomposition_suite(4, 0, r=True), "r"),
            (lambda: decomposition_suite(4, 0, r=2.0), "r"),
            (lambda: ulc_suite(True, 2, 10), "n"),
            (lambda: ulc_suite(2, 2.0, 10), "r"),
            (lambda: identity_suite(10.0), "trials"),
            (lambda: sign_suite(True), "trials"),
            (lambda: Pmf.uniform(True), "m"),
            (lambda: Pmf.uniform(2.0), "m"),
            (lambda: Pmf.point_mass(True), "value"),
            (lambda: Pmf.point_mass(1, m=1.0), "m"),
        ],
        ids=[
            "decomposition-r-bool", "decomposition-r-float", "ulc-n-bool", "ulc-r-float",
            "identity-trials-float", "sign-trials-bool",
            "uniform-bool", "uniform-float", "point_mass-bool", "point_mass-m-float",
        ],
    )
    def test_counts_must_be_integers(self, call, name):
        with pytest.raises(DomainError, match=rf"^{name} must be an integer >= "):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda i: ulc_suite(i(3), i(1), i(40), i(3)),
            lambda i: identity_suite(i(40), i(3)),
            lambda i: sign_suite(i(40), i(3)),
            lambda i: preserve_suite(i(40), i(3)),
            lambda i: decomposition_suite(i(40), i(3), r=i(2)),
        ],
        ids=["ulc", "identity", "sign", "preserve", "decomposition"],
    )
    def test_numpy_integer_arguments_give_the_same_json(self, call):
        plain = json.dumps(call(int).as_dict(), sort_keys=True)
        assert json.dumps(call(np.int64).as_dict(), sort_keys=True) == plain


class TestUlcSuiteClasses:
    """Only classes of 3 or more masses are tested, but every mass is checked."""

    def test_only_classes_with_an_interior_index_are_scored(self, monkeypatch):
        # At (2, 5) class 0 holds 3 masses and classes 1 to 4 hold 2 each.
        monkeypatch.setattr(suites, "CHUNK_SIZE", 64)
        real = suites.ulc_order_margins
        lengths = []

        def counting(u, order):
            lengths.append(u.shape[-1])
            return real(u, order)

        monkeypatch.setattr(suites, "ulc_order_margins", counting)
        report = ulc_suite(2, 5, trials=150, seed=1)
        assert report.passed and report.stats["min_margin"] is not None
        assert lengths == [3, 3, 3]  # one call per chunk of 64 trials

    @pytest.mark.parametrize("bad", ["nan", "negative"])
    def test_bad_mass_in_an_unbuilt_class_raises(self, monkeypatch, bad):
        # Class 1 at (2, 3) holds masses 1 and 4 only, so it is never built.
        real = suites.fold_rows

        def corrupt(blocks):
            sums = real(blocks)
            sums[0, 1] = math.nan if bad == "nan" else -sums[0, 1]
            return sums

        monkeypatch.setattr(suites, "fold_rows", corrupt)
        with pytest.raises(DomainError, match="finite and non-negative"):
            ulc_suite(2, 3, trials=50, seed=1)


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = ulc_suite(2, 2, trials=3000, seed=5).as_dict()
        b = ulc_suite(2, 2, trials=3000, seed=5).as_dict()
        assert a == b

    def test_partitioning_spans_chunks(self):
        # More trials than one chunk: per-chunk seeding must keep the verdict
        # and stats identical to a fresh run.
        trials = CHUNK_SIZE + 500
        a = identity_suite(trials=trials, seed=3).as_dict()
        b = identity_suite(trials=trials, seed=3).as_dict()
        assert a == b

    def test_witness_trials_are_offset_by_chunk(self, monkeypatch):
        # Make every strict hypothesis a sign violation: the witnesses must
        # carry global trial indices, in order, across the chunk boundary.
        def always_fails(tensors):
            differences, hypothesis, implied = sign_lemma_rows(tensors)
            return differences, hypothesis, np.zeros_like(implied)

        monkeypatch.setattr(suites, "sign_lemma_rows", always_fails)
        report = sign_suite(trials=CHUNK_SIZE + 500, seed=4)
        trials = [v["trial"] for v in report.violations if v["kind"] == "sign"]
        assert len(trials) == report.stats["strict_hypothesis_count"]
        assert all(a < b for a, b in zip(trials, trials[1:]))
        assert max(trials) >= CHUNK_SIZE

    def test_chunks_run_in_order_on_the_calling_thread(self, monkeypatch):
        trials = 2 * CHUNK_SIZE + 100
        monkeypatch.delenv("MAXENT_THREADS", raising=False)
        unset = sign_suite(trials=trials, seed=9).as_dict()
        calls = []

        def recording(tensors):
            calls.append((threading.get_ident(), len(tensors)))
            return sign_lemma_rows(tensors)

        monkeypatch.setattr(suites, "sign_lemma_rows", recording)
        monkeypatch.setenv("MAXENT_THREADS", "4")  # accepted and not read
        assert sign_suite(trials=trials, seed=9).as_dict() == unset
        caller = threading.get_ident()
        assert calls == [(caller, CHUNK_SIZE), (caller, CHUNK_SIZE), (caller, 100)]


class TestViolationRecords:
    """Injected failures: each one is recorded with its global trial number."""

    TRIALS = 150  # three chunks of 64 trials

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(suites, "CHUNK_SIZE", 64)

    def test_ulc(self, monkeypatch):
        real = suites.ulc_order_margins
        monkeypatch.setattr(suites, "ulc_order_margins", lambda u, order: real(u, order) - 10.0)
        report = ulc_suite(3, 2, trials=self.TRIALS, seed=1)
        keys = {"trial", "residue", "order", "margin", "witness", "inputs", "conditional"}
        assert all(set(v) == keys for v in report.violations)
        for residue, order in ((0, 3), (1, 2)):
            records = [v for v in report.violations if v["residue"] == residue]
            assert [v["trial"] for v in records] == list(range(self.TRIALS))
            assert all(v["order"] == order and v["witness"] == 1 for v in records)
            assert all(v["margin"] < -5.0 for v in records)
        # Trial 70 is row 6 of chunk 1; its record holds that row's draws.
        rng = seeded_rng(1, 1)
        draws = [rng.dirichlet(np.ones(3), size=64) for _ in range(3)]
        record = next(v for v in report.violations if v["trial"] == 70)
        assert record["inputs"] == [d[6].tolist() for d in draws]
        total = np.convolve(np.convolve(draws[0][6], draws[1][6]), draws[2][6])
        np.testing.assert_allclose(record["conditional"], total[0::2] / total[0::2].sum())

    def test_identity(self, monkeypatch):
        real = ulc._even_class_expansion
        monkeypatch.setattr(ulc, "_even_class_expansion", lambda v: real(v) - 1.0)
        report = identity_suite(trials=self.TRIALS, seed=1)
        even = [v for v in report.violations if v["kind"] == "even"]
        negative = [v for v in report.violations if v["kind"] == "even_negative"]
        assert len(even) + len(negative) == len(report.violations)
        assert all(set(v) == {"trial", "kind", "lhs", "rhs", "factors"} for v in even)
        assert all(set(v) == {"trial", "kind", "rhs", "factors"} for v in negative)
        for records in (even, negative):
            assert [v["trial"] for v in records] == list(range(self.TRIALS))
        assert all(len(v["factors"]) == 3 and v["rhs"] < 0.0 for v in negative)

    def test_preserve(self, monkeypatch):
        real = suites.ulc_order_margins
        monkeypatch.setattr(suites, "ulc_order_margins", lambda u, order: real(u, order) - 10.0)
        report = preserve_suite(trials=self.TRIALS, seed=1)
        keys = {"trial", "order", "bernoulli_weight", "sequence", "convolution", "margin"}
        assert all(set(v) == keys for v in report.violations)
        assert sorted(v["trial"] for v in report.violations) == list(range(self.TRIALS))
        for v in report.violations:
            q = v["bernoulli_weight"]
            assert len(v["sequence"]) == v["order"] + 1
            expected = np.convolve(v["sequence"], [1.0 - q, q])
            np.testing.assert_allclose(v["convolution"], expected, atol=1e-15)

    def test_decomposition(self, monkeypatch):
        real = suites._entropy_bits
        monkeypatch.setattr(suites, "_entropy_bits", lambda arr: real(arr) + 1e-6)
        report = decomposition_suite(trials=self.TRIALS, seed=1)
        assert all(set(v) == {"trial", "kind", "error", "r", "pmf"} for v in report.violations)
        assert all(v["kind"] == "entropy" for v in report.violations)
        assert [v["trial"] for v in report.violations] == list(range(self.TRIALS))
        assert all(v["error"] == pytest.approx(1e-6) for v in report.violations)


#: sha256 of the sorted-key ``as_dict()`` JSON of each suite call at two chunks.
GOLDEN_REPORTS = {
    (ulc_suite, 2, 2): "203f2bb302824bd034a28e3598073de670fd80c979ac1b8b0f3e6dc26d01bdff",
    (ulc_suite, 2, 3): "ed7df73a2846b5d9b8cb6fb7841b34ad24bef605a0b572388d59140df61038a9",
    (ulc_suite, 2, 4): "77d11f77cdb497ec1111338678da1fbd64cc3221bdbe1475bbcb431600d44287",
    (ulc_suite, 2, 5): "6fc45e4ff8071c046f786614b12078d6b915f69d9edda7e6699092b4f3a5f599",
    (ulc_suite, 3, 2): "9e6a2114d2b116e6f52c56cd2806750407bc6518265deb8928d7757801b0b1d4",
    # Class 0 has 8 masses, the first width summed row-major.
    (ulc_suite, 7, 1): "e830bfc5b1ed0699c1a306f475c09f37df4be912796c5fa67803b1db8bec3dff",
    (identity_suite,): "1937ba8359af85a658077b30b3410e3033fe96167a5b081960dfe8e23104052e",
    (sign_suite,): "3046df6c8ed095d03ea2adc9514d3401cb4d1944f4acfc385a9dc29c0520d853",
    # Moved when ULC sequences came to be built from lognormal ratios alone.
    (preserve_suite,): "96677bfeb77b3ad43516e4ec6c1414ead97dd445e605ba4e7f789363560fe85a",
}


class TestGoldenBytes:
    """Seeded reports stay byte for byte what they were when the suite chunks
    went coordinate-major; a change of layout or of summation order shows here."""

    @pytest.mark.parametrize("call", GOLDEN_REPORTS, ids=lambda call: "-".join(
        str(part) for part in (call[0].__name__, *call[1:])))
    def test_report_digest(self, call):
        suite, *cell = call
        seed = 100 * cell[0] + cell[1] if cell else 28
        report = suite(*cell, 2 * CHUNK_SIZE, seed)
        text = json.dumps(report.as_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORTS[call]

    def test_grid_oracle_values(self):
        assert repr(grid_oracle(2, 3, 24)) == "2.7715354233178195"
        assert repr(grid_oracle(3, 2, 12)) == "2.6585775391837685"


class TestUlcSuiteMatchesReportOperation:
    def test_batch_verdicts_agree_with_per_instance_reports(self):
        # Rebuild the suite's chunk-0 draws and push each instance through the
        # per-instance report; both routes must agree that nothing fails.
        n, r, trials, seed = 2, 3, 150, 17
        report = ulc_suite(n, r, trials=trials, seed=seed)
        rng = seeded_rng(seed, 0)
        draws = [rng.dirichlet(np.ones(r + 1), size=trials) for _ in range(n)]
        failing = {v["trial"] for v in report.violations}
        for t in range(trials):
            inputs = [Pmf(draws[b][t]) for b in range(n)]
            assert conditional_ulc_report(inputs, r).all_pass == (t not in failing)


class TestReportShape:
    def test_as_dict_fields(self):
        report = SuiteReport(
            suite="demo",
            trials=3,
            seed=1,
            params={"n": 2},
            violations=[{"trial": 0, "kind": "x"}],
            stats={"min_margin": -1.0},
        )
        payload = report.as_dict()
        assert payload["passed"] is False
        assert payload["violation_count"] == 1
        assert payload["violations"][0]["kind"] == "x"
        assert not SuiteReport("demo", 1, 0, {}).violations
