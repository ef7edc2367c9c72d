"""Monte Carlo suite drivers: determinism, partitioning, witness structure."""

import numpy as np
import pytest

from maxentsum import (
    DomainError,
    Pmf,
    conditional_ulc_report,
    decomposition_suite,
    identity_suite,
    preserve_suite,
    sign_suite,
    ulc_suite,
)
from maxentsum.kernels import seeded_rng
from maxentsum.suites import CHUNK_SIZE, SuiteReport


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
        assert report.stats["min_margin"] > -1e-15

    def test_decomposition_random_moduli(self):
        report = decomposition_suite(trials=400, seed=11)
        assert report.passed
        assert report.stats["max_entropy_error"] <= 1e-10

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_decomposition_fixed_modulus(self, r):
        report = decomposition_suite(trials=200, seed=11, r=r)
        assert report.passed

    def test_trials_domain(self):
        with pytest.raises(DomainError):
            ulc_suite(2, 2, trials=0)


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

    def test_worker_count_does_not_change_results(self, monkeypatch):
        trials = 2 * CHUNK_SIZE + 100
        monkeypatch.delenv("MAXENT_THREADS", raising=False)
        serial = sign_suite(trials=trials, seed=9).as_dict()
        monkeypatch.setenv("MAXENT_THREADS", "4")
        threaded = sign_suite(trials=trials, seed=9).as_dict()
        assert serial == threaded


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
