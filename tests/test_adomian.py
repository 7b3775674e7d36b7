"""Adomian coefficient tests: Miller recurrence vs closed forms and the
finite-difference brute-force oracle."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from adomian_fd_oracle import adomian_bruteforce_oracle, adomian_power_coeffs


def closed_form_a1(mu, c0, c1):
    return mu * c1 * c0 ** (mu - 1.0)


def closed_form_a2(mu, c0, c1, c2):
    return mu * c2 * c0 ** (mu - 1.0) + 0.5 * mu * (mu - 1.0) * c1 ** 2 * c0 ** (mu - 2.0)


def closed_form_a3(mu, c0, c1, c2, c3):
    # a3 = c3 f'(c0) + c1 c2 f''(c0) + c1^3/6 f'''(c0) for f(k) = k^mu
    f1 = mu * c0 ** (mu - 1.0)
    f2 = mu * (mu - 1.0) * c0 ** (mu - 2.0)
    f3 = mu * (mu - 1.0) * (mu - 2.0) * c0 ** (mu - 3.0)
    return c3 * f1 + c1 * c2 * f2 + c1 ** 3 / 6.0 * f3


class TestMillerRecurrence:
    def test_constant_series(self):
        assert adomian_power_coeffs(0.5, [1.0]) == [1.0]

    def test_a0_is_power(self):
        rng = random.Random(7)
        for _ in range(20):
            c0 = rng.uniform(0.1, 10.0)
            mu = rng.uniform(0.05, 0.95)
            a = adomian_power_coeffs(mu, [c0])
            assert a[0] == pytest.approx(c0 ** mu, rel=1e-14)

    def test_a1_closed_form(self):
        for mu, c0, c1 in [(0.3, 2.0, 1.0), (0.5, 4.0, -2.0), (0.9, 0.7, 3.0)]:
            a = adomian_power_coeffs(mu, [c0, c1])
            assert a[1] == pytest.approx(closed_form_a1(mu, c0, c1), rel=1e-13)

    def test_a2_closed_form(self):
        rng = random.Random(11)
        for _ in range(30):
            mu = rng.uniform(0.05, 0.95)
            c0 = rng.uniform(0.5, 4.0)
            c1, c2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
            a = adomian_power_coeffs(mu, [c0, c1, c2])
            assert a[2] == pytest.approx(closed_form_a2(mu, c0, c1, c2), rel=1e-12, abs=1e-15)

    def test_a3_closed_form(self):
        a = adomian_power_coeffs(0.3, [2.0, 1.0, 0.5, -0.2])
        assert a[3] == pytest.approx(closed_form_a3(0.3, 2.0, 1.0, 0.5, -0.2), rel=1e-12)

    def test_derived_reference_values(self):
        # high-precision differentiation of (2 + x + 0.5 x^2 - 0.2 x^3)**0.3 at 0
        a = adomian_power_coeffs(0.3, [2.0, 1.0, 0.5, -0.2])
        expected = [
            1.231144413344916284499393069167743109876,
            0.1846716620017374426749089603751614664814,
            0.06001829015056466886934541212192747660646,
            -0.06009523667639872613712662418875046055083,
        ]
        for got, want in zip(a, expected):
            assert got == pytest.approx(want, rel=1e-12)

    def test_mu_one_is_identity(self):
        c = [1.7, -0.3, 0.9, 0.01, -2.0]
        assert adomian_power_coeffs(1.0, c) == pytest.approx(c, rel=1e-13)

    def test_rejects_nonpositive_leading(self):
        with pytest.raises(ValueError):
            adomian_power_coeffs(0.5, [0.0, 1.0])
        with pytest.raises(ValueError):
            adomian_power_coeffs(0.5, [])

    @given(
        mu=st.sampled_from([0.2, 0.33, 0.5, 0.8]),
        c0=st.floats(min_value=0.5, max_value=4.0),
        rest=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=5),
    )
    @settings(max_examples=80, deadline=None)
    def test_against_bruteforce(self, mu, c0, rest):
        c = [c0] + rest
        a = adomian_power_coeffs(mu, c)
        for n in range(min(len(c), 6)):
            oracle = adomian_bruteforce_oracle(mu, c, n)
            assert a[n] == pytest.approx(oracle, rel=1e-6, abs=1e-9)

    @given(
        mu=st.floats(min_value=0.01, max_value=0.99),
        c0=st.floats(min_value=0.05, max_value=10.0),
        rest=st.lists(st.floats(min_value=-5.0, max_value=5.0), max_size=24),
    )
    @settings(max_examples=60, deadline=None)
    def test_prefix_of_c_fixes_prefix_of_a(self, mu, c0, rest):
        # series.build_series grows c and a one term at a time on this invariant
        c = [c0] + rest
        full = adomian_power_coeffs(mu, c)
        for m in range(1, len(c) + 1):
            assert adomian_power_coeffs(mu, c[:m]) == full[:m]


class TestBruteForceOracle:
    def test_identity_nonlinearity(self):
        c = [2.0, -0.5, 1.25, 0.3]
        for n in range(4):
            assert adomian_bruteforce_oracle(1.0, c, n) == pytest.approx(c[n], abs=1e-10)

    def test_square(self):
        # (1 + x)^2 has x^2 coefficient 1
        assert adomian_bruteforce_oracle(2.0, [1.0, 1.0], 2) == pytest.approx(1.0, rel=1e-8)

    def test_sqrt_slope(self):
        # d/dx sqrt(4 + 2x) at 0 = 2 / (2*2) = 0.5
        assert adomian_bruteforce_oracle(0.5, [4.0, 2.0], 1) == pytest.approx(0.5, rel=1e-9)

    def test_warns_past_accuracy_limit(self):
        with pytest.warns(UserWarning):
            adomian_bruteforce_oracle(0.5, [1.0] * 9, 7)

    def test_scaling_property(self):
        # a0 scales as lambda^mu under uniform coefficient scaling
        mu = 0.4
        base = adomian_power_coeffs(mu, [2.0])[0]
        scaled = adomian_power_coeffs(mu, [6.0])[0]
        assert scaled == pytest.approx(base * 3.0 ** mu, rel=1e-13)
