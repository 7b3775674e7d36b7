"""Series engine tests: coefficient fidelity, trust guard, oracle agreement."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from reference_helpers import gamma_ratio
from series_closed_forms import classical_taylor_check, fractional_low_order_coeffs, rhs_derivative
from solowfrac.model import ModelParams, REFERENCE_PARAMS
from solowfrac.oracles import exact_classical_value, solve_abm_fractional
import solowfrac.series
import solowfrac.special
from solowfrac.series import MAX_ORDER, SeriesSolution, build_series, check_order, eval_series
from solowfrac.special import ln_gamma


def random_params(rng, alpha=1.0):
    return ModelParams(
        p=rng.uniform(0.1, 2.0),
        q=rng.uniform(0.05, 1.0),
        mu=rng.uniform(0.1, 0.9),
        alpha=alpha,
        k0=rng.uniform(0.2, 5.0),
    )


def _series_reference(params, order):
    """The O(order^3) build: the whole Miller prefix is rebuilt at every
    order and each gamma ratio takes two ln_gamma calls.  Kept verbatim, with
    the recurrence inlined, as the bit-for-bit reference of build_series."""
    check_order(order)
    alpha = params.alpha
    c = [params.k0]
    rate0 = 0.0 if params.at_equilibrium() else params.rhs(params.k0)
    for n in range(order):
        if n == 0:
            rate = rate0
        else:
            a = [c[0] ** params.mu]
            for m in range(1, len(c)):
                s = 0.0
                for j in range(1, m + 1):
                    s += (j * params.mu - (m - j)) * c[j] * a[m - j]
                a.append(s / (m * c[0]))
            rate = params.p * a[n] - params.q * c[n]
        c.append(rate * gamma_ratio(n * alpha + 1.0, (n + 1) * alpha + 1.0))
        if not math.isfinite(c[-1]):
            raise ArithmeticError(f"series coefficient at order {n + 1} is {c[-1]}: "
                                  "the series overflows double precision")
    return tuple(c)


def _outcome(build, params, order):
    """Coefficients, or the type and message of the error the build raises."""
    try:
        return tuple(build(params, order))
    except ArithmeticError as exc:
        return type(exc), str(exc)


def _assert_matches_reference(params):
    """build_series == _series_reference at every order 1..MAX_ORDER.

    The reference is built once at MAX_ORDER (and once below the order that
    overflows), since each of its orders is the prefix of the next.
    """
    full = _outcome(_series_reference, params, MAX_ORDER)
    failed_at = MAX_ORDER + 1
    if isinstance(full[0], type):
        message = full[1]
        if message.startswith("series coefficient at order "):
            failed_at = int(message.split()[4])
        else:
            failed_at = 1  # the build fails before any order
        if failed_at > 1:
            full = _series_reference(params, failed_at - 1)
    for order in range(1, MAX_ORDER + 1):
        got = _outcome(lambda p, n: build_series(p, n).coeffs, params, order)
        want = full[:order + 1] if order < failed_at else _outcome(_series_reference,
                                                                   params, order)
        assert got == want, (params, order)


def _admissible_draw(rng):
    """One point of the admissible box, alpha = 1 and tiny alpha included."""
    alpha = rng.choice([1.0, rng.uniform(0.01, 1.0), 10 ** rng.uniform(-3.0, 0.0)])
    return ModelParams(p=10 ** rng.uniform(-2.0, 2.0), q=10 ** rng.uniform(-2.0, 1.0),
                       mu=rng.uniform(0.01, 0.99), alpha=alpha,
                       k0=10 ** rng.uniform(-2.0, 2.0))


class TestSeriesReference:
    def test_bit_identical_on_admissible_draws(self):
        rng = random.Random(1515)
        for _ in range(60):
            _assert_matches_reference(_admissible_draw(rng))

    def test_bit_identical_where_the_series_overflows(self):
        rng = random.Random(1516)
        failures = 0
        for _ in range(20):
            params = _admissible_draw(rng).with_(p=10 ** rng.uniform(5.0, 60.0), q=1.0)
            _assert_matches_reference(params)
            try:
                build_series(params, MAX_ORDER)
            except ArithmeticError:
                failures += 1
        assert failures >= 10

    def test_overflow_message_names_the_order(self):
        params = REFERENCE_PARAMS.with_(p=1e50, alpha=0.8)
        with pytest.raises(ArithmeticError) as exc:
            build_series(params, 8)
        assert str(exc.value) == ("series coefficient at order 7 is -inf: "
                                  "the series overflows double precision")
        assert _outcome(_series_reference, params, 8) == (ArithmeticError, str(exc.value))
        assert build_series(params, 6).coeffs == _series_reference(params, 6)

    @pytest.mark.parametrize("alpha", [1.0, 0.7, 0.05, 1e-3])
    def test_equilibrium_start_matches_reference(self, alpha):
        params = REFERENCE_PARAMS.with_(alpha=alpha)
        params = params.with_(k0=params.k_star)
        _assert_matches_reference(params)
        assert build_series(params, MAX_ORDER).coeffs[1:] == (0.0,) * MAX_ORDER

    @pytest.mark.parametrize("order", [1, 2, 5, 32, MAX_ORDER])
    def test_one_ln_gamma_and_one_miller_step_per_order(self, monkeypatch, order):
        calls = {"ln_gamma": 0, "miller_step": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for module, name in [(solowfrac.series, "ln_gamma"), (solowfrac.special, "ln_gamma"),
                             (solowfrac.series, "miller_step")]:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        build_series(REFERENCE_PARAMS.with_(alpha=0.6), order)
        assert calls == {"ln_gamma": order + 1, "miller_step": order - 1}


class TestBuildSeries:
    def test_first_coefficient_formula(self):
        rng = random.Random(3)
        for _ in range(10):
            params = random_params(rng, alpha=rng.choice([0.5, 0.75, 1.0]))
            sol = build_series(params, 3)
            b = params.p * params.k0 ** params.mu - params.q * params.k0
            expected = b / math.exp(ln_gamma(params.alpha + 1.0))
            assert sol.coeffs[1] == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_equilibrium_start_is_exactly_constant(self):
        params = REFERENCE_PARAMS.with_(alpha=0.7)
        params = params.with_(k0=params.k_star)
        sol = build_series(params, 10)
        assert all(c == 0.0 for c in sol.coeffs[1:])

    def test_known_classical_solution(self):
        # p=2, q=1, mu=1/2: k(t) = (2 - exp(-t/2))^2 = 1 + t + 0*t^2 - t^3/12 + ...
        params = ModelParams(p=2.0, q=1.0, mu=0.5, alpha=1.0, k0=1.0)
        sol = build_series(params, 4)
        assert sol.coeffs[1] == pytest.approx(1.0, rel=1e-13)
        assert sol.coeffs[2] == pytest.approx(0.0, abs=1e-14)
        assert sol.coeffs[3] == pytest.approx(-1.0 / 12.0, rel=1e-12)

    def test_reduces_to_classical_taylor(self):
        rng = random.Random(17)
        for _ in range(50):
            params = random_params(rng)
            series = build_series(params, 3).coeffs
            closed = classical_taylor_check(params, 3)
            for got, want in zip(series, closed):
                assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_fractional_low_orders_match_closed_forms(self):
        rng = random.Random(23)
        for _ in range(50):
            params = random_params(rng, alpha=rng.uniform(0.3, 1.0))
            series = build_series(params, 3).coeffs
            closed = fractional_low_order_coeffs(params)
            for got, want in zip(series, closed):
                assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_fractional_w3_factor_structure(self):
        # the curvature contribution inside c3 carries the exact factor
        # Gamma(2a+1)/Gamma(a+1)^2, which equals 2 at a=1 (classical Taylor)
        params = REFERENCE_PARAMS.with_(alpha=0.6)
        c3 = build_series(params, 3).coeffs[3]
        p, q, mu, k0 = params.p, params.q, params.mu, params.k0
        b = p * k0 ** mu - q * k0
        d = p * mu * k0 ** (mu - 1.0) - q
        g = math.gamma
        r = g(2 * 0.6 + 1) / g(0.6 + 1) ** 2
        expected = b * (d * d + 0.5 * p * mu * (mu - 1.0) * k0 ** (mu - 2.0) * b * r) / g(3 * 0.6 + 1)
        assert c3 == pytest.approx(expected, rel=1e-12)
        # without the factor (r -> 1) the value is measurably different
        wrong = b * (d * d + 0.5 * p * mu * (mu - 1.0) * k0 ** (mu - 2.0) * b) / g(3 * 0.6 + 1)
        assert abs(c3 - wrong) > 1e-6 * abs(c3)

    def test_sign_structure_around_equilibrium(self):
        params = REFERENCE_PARAMS
        below = build_series(params.with_(k0=0.5 * params.k_star), 2)
        above = build_series(params.with_(k0=2.0 * params.k_star), 2)
        assert below.coeffs[1] > 0
        assert above.coeffs[1] < 0

    def test_order_validation(self):
        with pytest.raises(ValueError):
            build_series(REFERENCE_PARAMS, 0)
        with pytest.raises(ValueError):
            build_series(REFERENCE_PARAMS, 65)

    def test_high_order_stays_finite(self):
        sol = build_series(REFERENCE_PARAMS.with_(alpha=0.6), 64)
        assert all(math.isfinite(c) for c in sol.coeffs)


class TestEvalSeries:
    def test_at_zero(self):
        sol = build_series(REFERENCE_PARAMS, 5)
        value, trusted = eval_series(sol, 0.0)
        assert value == REFERENCE_PARAMS.k0
        assert trusted

    def test_equilibrium_constant_and_trusted(self):
        params = REFERENCE_PARAMS.with_(k0=REFERENCE_PARAMS.k_star)
        sol = build_series(params, 6)
        for t in (0.0, 0.5, 2.0, 10.0):
            value, trusted = eval_series(sol, t)
            assert value == params.k0
            assert trusted

    def test_against_exact_classical(self):
        params = ModelParams(p=2.0, q=1.0, mu=0.5, alpha=1.0, k0=1.0)
        sol = build_series(params, 5)
        value, trusted = eval_series(sol, 0.5)
        exact = (2.0 - math.exp(-0.25)) ** 2
        assert trusted
        assert value == pytest.approx(exact, abs=1e-3)

    def test_untrusted_far_out(self):
        sol = build_series(REFERENCE_PARAMS, 5)
        _, trusted = eval_series(sol, 50.0)
        assert not trusted

    def test_trusted_points_within_one_percent_on_figure_box(self):
        # TRUST_TOL is set from this box: the presets' axes at alpha = 1 and
        # order 5.  A last-term tolerance of 0.05 fails it (2.6e-2 here).
        rng = random.Random(10)
        worst = 0.0
        for _ in range(2000):
            params = ModelParams(
                p=rng.uniform(0.2, 1.0), q=rng.uniform(0.1, 0.4),
                mu=rng.uniform(0.1, 0.9), alpha=1.0, k0=rng.uniform(0.5, 2.0),
            )
            sol = build_series(params, 5)
            for _ in range(20):
                t = rng.uniform(0.0, 2.0)
                value, trusted = eval_series(sol, t)
                if trusted:
                    exact = exact_classical_value(params, t)
                    worst = max(worst, abs(value - exact) / exact)
        assert worst <= 1e-2

    def test_rejects_negative_time(self):
        sol = build_series(REFERENCE_PARAMS, 5)
        with pytest.raises(ValueError):
            eval_series(sol, -0.1)

    def test_oracle_agreement_classical(self):
        sol = build_series(REFERENCE_PARAMS, 8)
        worst = 0.0
        for i in range(101):
            t = i / 100.0
            value, _ = eval_series(sol, t)
            exact = exact_classical_value(REFERENCE_PARAMS, t)
            worst = max(worst, abs(value - exact) / exact)
        assert worst <= 1e-4

    @pytest.mark.parametrize("alpha", [0.6, 0.8])
    def test_oracle_agreement_fractional(self, alpha):
        params = REFERENCE_PARAMS.with_(alpha=alpha)
        sol = build_series(params, 8)
        values = solve_abm_fractional(params, t_end=0.5, steps=1024)
        worst = 0.0
        for i, k in enumerate(values):
            value, _ = eval_series(sol, i * (0.5 / 1024))
            worst = max(worst, abs(value - k) / k)
        assert worst <= 1e-2

    def test_continuity_in_alpha_near_one(self):
        t = 0.4
        classical, _ = eval_series(build_series(REFERENCE_PARAMS, 8), t)
        nearly, _ = eval_series(build_series(REFERENCE_PARAMS.with_(alpha=1.0 - 1e-3), 8), t)
        assert abs(nearly - classical) <= 1e-3


class TestClassicalTaylorCheck:
    def test_rejects_fractional(self):
        with pytest.raises(ValueError):
            classical_taylor_check(REFERENCE_PARAMS.with_(alpha=0.9))

    def test_equilibrium_all_zero(self):
        params = REFERENCE_PARAMS.with_(k0=REFERENCE_PARAMS.k_star)
        assert classical_taylor_check(params)[1:] == [0.0, 0.0, 0.0]

    def test_c2_formula(self):
        params = REFERENCE_PARAMS
        b = params.rhs(params.k0)
        d = rhs_derivative(params, params.k0)
        assert classical_taylor_check(params)[2] == pytest.approx(b * d / 2.0, rel=1e-14)


class TestSeriesSolutionType:
    def test_coefficient_count_enforced(self):
        with pytest.raises(ValueError):
            SeriesSolution(params=REFERENCE_PARAMS, order=3, coeffs=(1.0, 2.0))

    @given(st.floats(min_value=0.0, max_value=0.3))
    @settings(max_examples=30, deadline=None)
    def test_eval_monotone_below_equilibrium_small_t(self, t):
        # below equilibrium the capital stock rises on the trusted region
        sol = build_series(REFERENCE_PARAMS, 8)
        v0, _ = eval_series(sol, t)
        v1, _ = eval_series(sol, t + 0.05)
        assert v1 > v0
