"""Equilibrium analysis tests."""

import math

import pytest

from reference_helpers import balanced_growth_capital
from solowfrac.equilibrium import STABLE, UNSTABLE, find_equilibria
from solowfrac.model import ModelParams, REFERENCE_PARAMS
from solowfrac.oracles import exact_classical_value, solve_abm_fractional


class TestFindEquilibria:
    def test_equal_rates_give_unit_equilibrium(self):
        for mu in (0.2, 0.5, 0.8):
            report = find_equilibria(ModelParams(p=0.3, q=0.3, mu=mu))
            assert report["k_star"] == pytest.approx(1.0, rel=1e-14)

    def test_reference_value(self):
        report = find_equilibria(REFERENCE_PARAMS)
        assert report["k_star"] == pytest.approx(2.5 ** 1.5, rel=1e-12)
        # the growth rate vanishes at the fixed point
        assert abs(REFERENCE_PARAMS.rhs(report["k_star"])) <= 1e-12

    def test_stability_classification(self):
        report = find_equilibria(REFERENCE_PARAMS)
        assert report["k_zero_stability"] == UNSTABLE
        assert report["k_star_stability"] == STABLE

    def test_derivative_at_star(self):
        params = REFERENCE_PARAMS
        report = find_equilibria(params)
        assert report["derivative_at_star"] == pytest.approx(
            params.q * (params.mu - 1.0), rel=1e-10
        )
        assert report["derivative_at_star"] < 0

    def test_derivative_at_star_when_k_star_underflows(self):
        # k_star = (1e-292)**100 is 0.0; p*mu*k**(mu-1) - q at k = 0.0 raised ZeroDivisionError
        params = ModelParams(p=1e8, q=1e300, mu=0.99)
        report = find_equilibria(params)
        assert report["k_star"] == 0.0
        assert report["derivative_at_star"] == params.q * (params.mu - 1.0)
        assert report["k_star_stability"] == STABLE

    def test_inflection_candidate_below_equilibrium(self):
        params = REFERENCE_PARAMS
        report = find_equilibria(params)
        expected = (params.p * params.mu / params.q) ** (1.0 / (1.0 - params.mu))
        assert report["inflection_candidate"] == pytest.approx(expected, rel=1e-12)
        assert report["inflection_candidate"] < report["k_star"]

    def test_scale_equivariance(self):
        base = find_equilibria(REFERENCE_PARAMS)["k_star"]
        scaled = find_equilibria(REFERENCE_PARAMS.with_(p=3 * 0.5, q=3 * 0.2))["k_star"]
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_doubling_p(self):
        params = REFERENCE_PARAMS
        base = find_equilibria(params)["k_star"]
        doubled = find_equilibria(params.with_(p=2 * params.p))["k_star"]
        assert doubled == pytest.approx(base * 2.0 ** (1.0 / (1.0 - params.mu)), rel=1e-12)


class TestConvergenceToEquilibrium:
    def test_classical_trajectory_converges(self):
        params = REFERENCE_PARAMS
        # horizon where the linear decay factor has dropped below 1e-4
        T = -math.log(1e-4) / (params.q * (1.0 - params.mu))
        k_T = exact_classical_value(params, T)
        assert abs(k_T - params.k_star) / params.k_star <= 1e-3

    def test_fractional_trajectory_converges_loosely(self):
        # algebraic (t^-alpha) relaxation: looser tolerance, long horizon
        # the algebraic tail decays like t**(-alpha): 200**(-0.8) ~ 1.4e-2
        params = REFERENCE_PARAMS.with_(alpha=0.8)
        values = solve_abm_fractional(params, t_end=200.0, steps=2048)
        assert abs(values[-1] - params.k_star) / params.k_star <= 3e-2
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_zero_equilibrium_unstable(self):
        params = REFERENCE_PARAMS
        eps = 1e-6 * params.k_star
        tiny = params.with_(k0=eps)
        assert tiny.rhs(eps) > 0
        assert exact_classical_value(tiny, 1.0) > eps


class TestBalancedGrowth:
    def test_zero_growth_rate(self):
        params = REFERENCE_PARAMS.with_(k0=REFERENCE_PARAMS.k_star)
        K = balanced_growth_capital(params, L0=7.0, psi=0.0, t=0.0)
        assert K == pytest.approx(params.k_star * 7.0, rel=1e-12)

    def test_unit_labour_at_origin(self):
        params = REFERENCE_PARAMS.with_(k0=REFERENCE_PARAMS.k_star)
        K = balanced_growth_capital(params, L0=1.0, psi=0.02, t=0.0)
        assert K == pytest.approx(params.k_star, rel=1e-12)

    def test_reference_values(self):
        params = REFERENCE_PARAMS.with_(k0=REFERENCE_PARAMS.k_star)
        K = balanced_growth_capital(params, L0=100.0, psi=0.02, t=50.0)
        assert K == pytest.approx(params.k_star * 100.0 * math.e, rel=1e-12)

    def test_warns_far_from_equilibrium(self):
        with pytest.warns(UserWarning):
            balanced_growth_capital(REFERENCE_PARAMS, L0=1.0, psi=0.02, t=0.0)

    def test_rejects_nonpositive_labour(self):
        with pytest.raises(ValueError):
            balanced_growth_capital(REFERENCE_PARAMS, L0=0.0, psi=0.0, t=0.0)
