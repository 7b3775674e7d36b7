"""Transform quadrature and identity-verification tests."""

import math
import re

import mpmath as mp
import numpy as np
import pytest

import solowfrac.transforms
from solowfrac.model import REFERENCE_PARAMS
from solowfrac.oracles import _leggauss, exact_classical_value
from solowfrac.transforms import (
    IDENTITY_TOL,
    QUAD_NODES,
    _convolve,
    _de_nodes,
    VerificationReport,
    mittag_leffler,
    run_all_verifications,
    sumudu_monomial,
    sumudu_numeric,
    verify_convolution,
    verify_derivative_rule,
    verify_ml_identities,
)

U_GRID = (0.1, 0.5, 1.0)
# The suite's convolution pairs (psi, zeta, u), as run by `run_all_verifications`.
CONVOLUTION_PAIRS = (
    (lambda t: 1.0, lambda t: 1.0, 0.5),
    (lambda t: t, lambda t: 1.0, 0.5),
    (lambda t: math.exp(-t), lambda t: t, 0.3),
)


def ml_identities_reference(alpha: float, a: float, u_grid) -> list[tuple[str, float]]:
    """Rows of `verify_ml_identities` with each identity quadratured through a
    callable, so identity (ii) evaluates E_alpha at every node again."""
    report = VerificationReport(name="reference", tol=IDENTITY_TOL)

    def profile(t):
        return mittag_leffler(alpha, -a * t ** alpha)

    for u in u_grid:
        closed_i = 1.0 / (1.0 + a * u ** alpha)
        report.add(f"(i)  u={u:g}", sumudu_numeric(profile, u) - closed_i)
        closed_ii = a * u ** alpha / (1.0 + a * u ** alpha)
        report.add(f"(ii) u={u:g}", sumudu_numeric(lambda t: 1.0 - profile(t), u) - closed_ii)
    return report.rows


def first_derivative_reference(params, u_grid) -> list[tuple[str, float]]:
    """First-derivative rows of `verify_derivative_rule`, with k' = rhs(k(t))
    recomputing the exact k(t) at every node."""
    report = VerificationReport(name="reference", tol=IDENTITY_TOL)
    classical = params.with_(alpha=1.0)

    def k_of_t(t):
        return exact_classical_value(classical, t)

    for u in u_grid:
        lhs = sumudu_numeric(lambda t: classical.rhs(k_of_t(t)), u)
        rhs = (sumudu_numeric(k_of_t, u) - classical.k0) / u
        report.add(f"first-derivative u={u:g}", lhs - rhs)
    return report.rows


def convolve_reference(psi, zeta, t: float, nodes: int) -> float:
    """(psi * zeta)(t) by an n-node Gauss-Legendre rule on [0, t], summed as
    `_convolve` sums it."""
    x, w = _leggauss(nodes)
    half = 0.5 * t
    pts = [half * (xi + 1.0) for xi in x]
    return half * sum(wi * psi(t - si) * zeta(si) for wi, si in zip(w, pts))


def t_plus_expm1(t: float) -> float:
    """(exp(-t) * t)(t) = t + expm1(-t); below t = 1e-2, where that form
    cancels, the series sum over k >= 2 of (-t)**k / k!."""
    if t >= 1e-2:
        return t + math.expm1(-t)
    total, term, k = 0.0, -t, 1
    while True:
        k += 1
        term *= -t / k
        total += term
        if abs(term) <= 1e-17 * total:
            return total


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
        assert len(points) == QUAD_NODES == 201

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
        (0.0, 1.0, "Mittag-Leffler order outside supported (0, 1], got 0.0"),
        (-0.5, 1.0, "Mittag-Leffler order outside supported (0, 1], got -0.5"),
        (math.nan, 1.0, "Mittag-Leffler order outside supported (0, 1], got nan"),
        (2.5, 1.0, "Mittag-Leffler order outside supported (0, 1], got 2.5"),
        (1.5, 1.0, "Mittag-Leffler order outside supported (0, 1], got 1.5"),
        (0.8, -1.0, "relaxation rate must be positive, got -1.0"),
        (0.8, math.nan, "relaxation rate must be positive, got nan"),
        (0.8, math.inf, "relaxation rate must be finite, got inf"),
    ])
    def test_ml_pair_rejects_bad_order_or_rate(self, monkeypatch, alpha, a, message):
        def no_sum(values, u):
            raise AssertionError("a quadrature sum ran before the check")

        monkeypatch.setattr(solowfrac.transforms, "_de_sum", no_sum)
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

    @pytest.mark.parametrize("alpha", [1e-4, 0.3, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("a", [1.0, 2.0])
    def test_ml_rows_bit_identical_to_callable_route(self, alpha, a):
        rep = verify_ml_identities(alpha=alpha, a=a, u_grid=U_GRID)
        assert rep.rows == ml_identities_reference(alpha, a, U_GRID)

    @pytest.mark.parametrize("alpha", [1e-4, 0.3, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("q", [REFERENCE_PARAMS.q, 2.0 * REFERENCE_PARAMS.q])
    def test_first_derivative_rows_bit_identical_to_callable_route(self, alpha, q):
        params = REFERENCE_PARAMS.with_(alpha=alpha, q=q)
        rows = verify_derivative_rule(params, U_GRID).rows
        assert rows[:len(U_GRID)] == first_derivative_reference(params, U_GRID)

    def test_full_suite_passes(self):
        reports = run_all_verifications()
        assert len(reports) == 9
        for rep in reports:
            assert rep.passed, rep.as_dict()
        assert all(rep.tol == IDENTITY_TOL for rep in reports)


# Orders across (0, 1], the small ones where E_alpha's contour is hardest.
ALPHAS = (1e-4, 1e-3, 0.01, 0.05, *(i / 20 for i in range(2, 21)))


class TestRuleAccuracy:
    """The double-exponential rule against closed forms, at QUAD_NODES and at its
    every-second-node sub-rule.  The sub-rule passing too is what shows that
    QUAD_NODES resolves these integrands."""

    @pytest.fixture(params=[QUAD_NODES, (QUAD_NODES + 1) // 2], ids=["rule", "sub-rule"])
    def nodes(self, request, monkeypatch):
        monkeypatch.setattr(solowfrac.transforms, "QUAD_NODES", request.param)

    @pytest.mark.filterwarnings("error")
    def test_monomials_match_50_digits(self, nodes):
        worst = 0.0
        with mp.workdps(50):
            for g in (0.0, 0.05, 0.5, 1.0, 1.6, 2.0, 3.0, 8.0, 16.0, 24.0):
                for u in (0.1, 0.5, 1.0):
                    want = mp.gamma(g + 1) * mp.mpf(u) ** g
                    got = sumudu_numeric(lambda t: t ** g, u)
                    worst = max(worst, float(abs((got - want) / want)))
        assert worst <= 4e-15  # measured 7.8e-16 at 201 nodes, 9.5e-16 at 101

    @pytest.mark.filterwarnings("error")
    def test_ml_pair_within_the_contour_error(self, nodes):
        # absolute, as E_alpha's contour error (3e-13) is; measured 1.5e-13
        for alpha in ALPHAS:
            for a in (0.5, 1.0, 2.0, 4.0):
                rep = verify_ml_identities(alpha, a, (0.1, 0.25, 0.5, 0.75, 1.0))
                assert rep.max_deviation <= 2e-13, (alpha, a)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_suite_passes_without_refinement_warning(self, alpha):
        reports = run_all_verifications(REFERENCE_PARAMS.with_(alpha=alpha))
        assert all(rep.passed for rep in reports)


class TestConvolutionRule:
    """The CONV_NODES-node inner rule on the suite's three convolution pairs."""

    CLOSED_FORMS = (lambda t: t, lambda t: 0.5 * t * t, t_plus_expm1)

    def test_inner_rule_matches_closed_forms_at_every_node(self):
        t_nodes, weights = _de_nodes(QUAD_NODES)
        for (psi, zeta, u), exact in zip(CONVOLUTION_PAIRS, self.CLOSED_FORMS):
            worst = 0.0
            for ti, wi in zip(t_nodes, weights):
                if wi >= 1e-30:
                    want = exact(ti * u)
                    worst = max(worst, abs(_convolve(psi, zeta, ti * u) - want) / want)
            assert worst <= 1e-13

    def test_rows_match_a_64_node_rule(self):
        for psi, zeta, u in CONVOLUTION_PAIRS:
            row = verify_convolution(psi, zeta, u).rows[0][1]
            lhs = sumudu_numeric(lambda t: convolve_reference(psi, zeta, t, 64), u)
            row_64 = abs(lhs - u * sumudu_numeric(psi, u) * sumudu_numeric(zeta, u))
            assert abs(row - row_64) <= 1e-15


class TestVerifyShape:
    """What one cold `verify` run at alpha = 0.8 builds and calls."""

    def test_bounded_ln_gamma(self, monkeypatch):
        solowfrac.transforms._ml_contour_table.cache_clear()
        solowfrac.transforms._ml_taylor_table.cache_clear()
        calls = {"ln_gamma": 0}
        ln_gamma = solowfrac.transforms.ln_gamma

        def counting_ln_gamma(x):
            calls["ln_gamma"] += 1
            return ln_gamma(x)

        monkeypatch.setattr(solowfrac.transforms, "ln_gamma", counting_ln_gamma)
        reports = run_all_verifications(REFERENCE_PARAMS.with_(alpha=0.8))
        assert len([rep for rep in reports if rep.name.startswith("mittag-leffler")]) == 3
        # the per-alpha gamma-ratio tables, not one call per Taylor term
        # (10,999 before; 62 measured)
        assert calls["ln_gamma"] <= 131

    def test_one_ml_eval_per_node(self, monkeypatch):
        calls = []

        def counting_ml(alpha, z):
            calls.append(z)
            return mittag_leffler(alpha, z)

        monkeypatch.setattr(solowfrac.transforms, "mittag_leffler", counting_ml)
        run_all_verifications(REFERENCE_PARAMS.with_(alpha=0.8))
        # 3 reports x 3 u values x 201 nodes; identity (ii) reuses (i)'s values
        assert len(calls) == 3 * 3 * QUAD_NODES == 1809

    def test_convolution_evaluates_each_integrand_once_per_node(self):
        calls = {"psi": 0, "zeta": 0}

        def psi(t):
            calls["psi"] += 1
            return math.exp(-t)

        def zeta(t):
            calls["zeta"] += 1
            return t

        verify_convolution(psi, zeta, 0.3)
        # 16 per convolution node plus one per node of S[psi] or S[zeta]:
        # 201 * 16 + 201 (201 * 64 + 201 = 13,065 with the 64-node rule)
        assert calls == {"psi": 3417, "zeta": 3417}
