"""Transform quadrature and identity-verification tests."""

import math
import re

import mpmath as mp
import numpy as np
import pytest

import solowfrac.special
import solowfrac.transforms
from solowfrac.model import REFERENCE_PARAMS
from solowfrac.oracles import _leggauss
from solowfrac.special import MLParams
from solowfrac.transforms import (
    IDENTITY_TOL,
    QUAD_NODES,
    _de_nodes,
    VerificationReport,
    run_all_verifications,
    sumudu_monomial,
    sumudu_numeric,
    verify_convolution,
    verify_derivative_rule,
    verify_ml_identities,
)


class TestSumuduNumeric:
    def test_unit_preservation(self):
        for u in (0.05, 0.1, 0.5, 1.0, 2.0):
            assert sumudu_numeric(lambda t: 1.0, u) == pytest.approx(1.0, abs=1e-12)

    def test_linearity_in_t(self):
        # S[t](u) = u
        for u in (0.1, 0.7, 1.5):
            assert sumudu_numeric(lambda t: t, u) == pytest.approx(u, rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.6, 2.0, 3.0])
    def test_monomials_match_closed_form(self, gamma):
        for u in (0.1, 0.5, 1.0):
            got = sumudu_numeric(lambda t: t ** gamma, u)
            want = sumudu_monomial(gamma, u)
            assert got == pytest.approx(want, rel=1e-10)

    def test_exponential(self):
        # S[exp(-a t)](u) = 1 / (1 + a u)
        for a, u in ((1.0, 0.5), (2.0, 0.3), (0.5, 1.0)):
            got = sumudu_numeric(lambda t: math.exp(-a * t), u)
            assert got == pytest.approx(1.0 / (1.0 + a * u), abs=1e-12)

    def test_rejects_nonpositive_u(self):
        with pytest.raises(ValueError):
            sumudu_numeric(lambda t: 1.0, 0.0)
        with pytest.raises(ValueError):
            sumudu_numeric(lambda t: 1.0, -1.0)

    def test_warns_on_refinement_disagreement(self):
        # a function the rule cannot resolve: rapid oscillation
        with pytest.warns(UserWarning):
            sumudu_numeric(lambda t: math.sin(500.0 * t), 1.0)

    def test_one_evaluation_per_node(self):
        points = []
        sumudu_numeric(lambda t: points.append(t) or 1.0, 0.5)
        assert len(points) == QUAD_NODES == 401

    def test_every_second_node_is_the_coarse_rule(self):
        fine_t, fine_w = _de_nodes(QUAD_NODES)
        coarse_t, coarse_w = _de_nodes((QUAD_NODES + 1) // 2)
        assert fine_t[::2] == coarse_t
        for fine, coarse in zip(fine_w[::2], coarse_w):
            assert 2.0 * fine == pytest.approx(coarse, rel=1e-15, abs=1e-300)

    def test_linearity_property(self):
        u = 0.4
        f = lambda t: t ** 1.5
        g = lambda t: math.exp(-t)
        left = sumudu_numeric(lambda t: 2.0 * f(t) + 3.0 * g(t), u)
        right = 2.0 * sumudu_numeric(f, u) + 3.0 * sumudu_numeric(g, u)
        assert left == pytest.approx(right, rel=1e-12)


class TestGaussLegendre:
    def test_nodes_and_weights_match_references(self):
        n = 64
        x, w = _leggauss(n)
        np_x, np_w = np.polynomial.legendre.leggauss(n)
        assert max(abs(a - b) for a, b in zip(x, np_x)) <= 1e-15
        # numpy's weights are up to 2.3e-15 off the 30-digit values below
        assert max(abs(a - b) for a, b in zip(w, np_w)) <= 3e-15
        with mp.workdps(30):
            for xi, wi in zip(x, w):
                root = mp.findroot(lambda t: mp.legendre(n, t), mp.mpf(xi))
                dp = n * (root * mp.legendre(n, root) - mp.legendre(n - 1, root)) / (root ** 2 - 1)
                assert abs(xi - root) <= 1e-15
                assert abs(wi - 2 / ((1 - root ** 2) * dp ** 2)) <= 1e-15

    def test_exact_for_degree_below_128(self):
        x, w = _leggauss(64)
        for k in range(128):
            got = math.fsum(wi * xi ** k for wi, xi in zip(w, x))
            assert got == pytest.approx(2.0 / (k + 1) if k % 2 == 0 else 0.0, abs=1e-15)

    def test_odd_count_has_a_center_node(self):
        x, w = _leggauss(5)
        assert x[2] == 0.0
        assert w[2] == pytest.approx(128.0 / 225.0, rel=1e-15)
        assert x == tuple(-xi for xi in reversed(x))


class TestSumuduMonomial:
    def test_constant(self):
        assert sumudu_monomial(0.0, 0.7) == 1.0

    def test_integer_cases(self):
        # S[t^n](u) = n! u^n
        assert sumudu_monomial(2.0, 0.5) == pytest.approx(2.0 * 0.25, rel=1e-13)
        assert sumudu_monomial(3.0, 2.0) == pytest.approx(6.0 * 8.0, rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            sumudu_monomial(-0.5, 1.0)
        with pytest.raises(ValueError):
            sumudu_monomial(1.0, 0.0)


class TestVerificationReport:
    def test_empty_passes(self):
        rep = VerificationReport(name="x", tol=1e-5)
        assert rep.passed
        assert rep.max_deviation == 0.0

    def test_failing_rows(self):
        rep = VerificationReport(name="x", tol=1e-5)
        rep.add("good", 1e-7)
        rep.add("bad", 3e-4)
        assert not rep.passed
        assert rep.failing_rows() == [("bad", 3e-4)]
        assert "FAIL" in rep.render()

    def test_add_takes_magnitude(self):
        rep = VerificationReport(name="x", tol=1e-5)
        rep.add("signed", -2e-3)
        assert rep.max_deviation == 2e-3

    def test_as_dict(self):
        rep = VerificationReport(name="x", tol=1e-5)
        rep.add("good", 1e-7)
        rep.add("bad", -3e-4)
        assert rep.as_dict() == {"name": "x", "tol": 1e-5, "passed": False,
                                 "max_deviation": 3e-4,
                                 "rows": [("good", 1e-7), ("bad", 3e-4)]}


class TestIdentities:
    def test_ml_pair_classical(self):
        rep = verify_ml_identities(alpha=1.0, a=1.0, u_grid=(0.1, 0.5, 1.0))
        assert rep.passed

    def test_ml_pair_half(self):
        rep = verify_ml_identities(alpha=0.5, a=1.0, u_grid=(0.1, 0.5, 1.0))
        assert rep.passed

    def test_ml_pair_invalid_rate(self):
        with pytest.raises(ValueError):
            verify_ml_identities(alpha=0.8, a=0.0, u_grid=(0.5,))

    @pytest.mark.parametrize("alpha, a, message", [
        (0.0, 1.0, "Mittag-Leffler order must be positive, got 0.0"),
        (-0.5, 1.0, "Mittag-Leffler order must be positive, got -0.5"),
        (math.nan, 1.0, "Mittag-Leffler order must be positive, got nan"),
        (2.5, 1.0, "Mittag-Leffler order outside supported (0, 2], got 2.5"),
        (1.5, 1.0, "cancels below double precision"),
        (0.8, -1.0, "relaxation rate must be positive, got -1.0"),
        (0.8, math.nan, "relaxation rate must be positive, got nan"),
        (0.8, math.inf, "Mittag-Leffler argument must be finite, got -inf"),
    ])
    def test_ml_pair_rejects_bad_order_or_rate(self, alpha, a, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            verify_ml_identities(alpha=alpha, a=a, u_grid=(0.5,))

    def test_derivative_rules(self):
        rep = verify_derivative_rule(REFERENCE_PARAMS.with_(alpha=0.8), (0.1, 0.5, 1.0))
        assert rep.passed

    def test_derivative_rule_rejects_low_exponent(self):
        with pytest.raises(ValueError):
            verify_derivative_rule(
                REFERENCE_PARAMS.with_(alpha=0.8), (0.5,), monomial_exponent=0.5
            )

    def test_convolution_rule(self):
        rep = verify_convolution(lambda t: math.exp(-t), lambda t: t, 0.3)
        assert rep.passed

    def test_full_suite_passes(self):
        reports = run_all_verifications()
        assert len(reports) == 9
        for rep in reports:
            assert rep.passed, rep.render()
        assert all(rep.tol == IDENTITY_TOL for rep in reports)


class TestVerifyShape:
    """What one cold `verify` run at alpha = 0.8 builds and calls."""

    def test_one_record_per_ml_report_and_bounded_ln_gamma(self, monkeypatch):
        for cache in (solowfrac.special._ml_eval, solowfrac.special._ml_contour_table,
                      solowfrac.special._ml_taylor_table):
            cache.cache_clear()
        calls = {"MLParams": 0, "ln_gamma": 0}
        validate, ln_gamma = MLParams._validate, solowfrac.special.ln_gamma

        def counting_validate(self):
            calls["MLParams"] += 1
            validate(self)

        def counting_ln_gamma(x):
            calls["ln_gamma"] += 1
            return ln_gamma(x)

        monkeypatch.setattr(MLParams, "_validate", counting_validate)
        for module in (solowfrac.special, solowfrac.transforms):
            monkeypatch.setattr(module, "ln_gamma", counting_ln_gamma)
        reports = run_all_verifications(REFERENCE_PARAMS.with_(alpha=0.8))
        ml_reports = [rep for rep in reports if rep.name.startswith("mittag-leffler")]
        assert len(ml_reports) == 3
        # one record per report, not one per quadrature node (7,218 before)
        assert calls["MLParams"] <= len(ml_reports)
        # the per-alpha gamma-ratio tables, not one call per Taylor term
        # (10,999 before; 62 measured)
        assert calls["ln_gamma"] <= 131
