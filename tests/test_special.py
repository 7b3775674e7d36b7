"""Gamma-family and Mittag-Leffler function tests."""

import cmath
import math
import random
import re
import sys
import threading

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from reference_helpers import gamma_ratio
from solowfrac.series import MAX_ORDER
from solowfrac.transforms import (
    _ML_CONTOUR,
    _ML_TABLE_ALPHAS,
    _ml_contour,
    _ml_contour_table,
    _ml_taylor_double,
    _ml_taylor_table,
    mittag_leffler,
)

# Reference values computed with 40-digit arbitrary-precision arithmetic.
GAMMA_RATIO_18_26 = 0.6514883681927939973752724226147581459083
ML_HALF_MINUS_ONE = 0.4275835761558070044107503444905151808202

ML_GRID_ALPHAS = (1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.88,
                  0.9, 0.95, 0.98, 0.999)
ML_GRID_Z = (-0.01, -0.1, -0.5, -0.51, -1.0, -3.0, -10.0, -50.0, -100.0,
             -300.0, -1000.0)

GAMMA_ALPHAS = (1e-300, 1e-4, 0.05, 0.3, 0.5, 0.8, 1.0 - 1e-9, 1.0)
GAMMA_TOL = 4e-15  # measured: 1.2e-15 for the series ratio, 5.4e-16 for the others


def gamma_alphas() -> tuple[float, ...]:
    """GAMMA_ALPHAS and 40 seeded draws from (0, 1]."""
    rng = random.Random(34)
    return GAMMA_ALPHAS + tuple(1.0 - rng.random() for _ in range(40))


def mp_gamma_ratio(a: float, b: float):
    """Gamma(a) / Gamma(b) at the doubles a and b, to 40 digits."""
    with mp.workdps(40):
        return mp.gamma(mp.mpf(a)) / mp.gamma(mp.mpf(b))


def relative_error(got: float, want) -> float:
    with mp.workdps(40):
        return float(abs(mp.mpf(got) - want) / abs(want))


def ml_negative_reference(alpha: float, x: float) -> float:
    """E_alpha(-x) for 0 < alpha < 1 and x > 0 from its spectral integral, 20 digits.

    E_alpha(-x) = integral_0^inf exp(-r x**(1/alpha)) K(r) dr with
    K(r) = sin(alpha pi) r**(alpha-1) / (pi (r**(2 alpha) + 2 r**alpha cos(alpha pi) + 1)).
    Substituting w = x r**alpha removes the r**(alpha-1) endpoint singularity:

        E_alpha(-x) = sin(alpha pi) / (alpha pi)
                      * integral_0^inf exp(-w**(1/alpha)) x / (w**2 + 2 w x cos(alpha pi) + x**2) dw.

    Break points: the peak at w = x (sharp as alpha -> 1), the cut-off at
    w = 1 and the start of its boundary layer (sharp as alpha -> 0), and
    w = 60**alpha, past which exp(-w**(1/alpha)) < e**-60 is dropped.
    """
    with mp.workdps(20):
        a = mp.mpf(alpha)
        x = mp.mpf(x)
        cos = mp.cos(a * mp.pi)
        top = mp.mpf(60) ** a
        points = {mp.mpf(0), mp.mpf(1), max(mp.mpf(0), 1 - 30 * a), top}
        if x < top:
            points.add(x)
        integral = mp.quad(lambda w: mp.exp(-w ** (1 / a)) * x / (w * w + 2 * w * x * cos + x * x),
                           sorted(points))
        return float(mp.sin(a * mp.pi) / (a * mp.pi) * integral)


def ml_taylor_reference(alpha: float, z: float) -> tuple[float, int]:
    """The compensated Taylor sum with two math.gamma calls a term, and the
    number of terms it took."""
    total = 1.0
    comp = 0.0
    term = 1.0
    n = 0
    while True:
        n += 1
        term = term * z * (math.gamma(alpha * (n - 1) + 1.0) / math.gamma(alpha * n + 1.0))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) <= 1e-16 * max(1.0, abs(total)) and n * alpha > abs(z) ** (1.0 / alpha):
            break
        if n > 100000:
            break
    return total, n


def ml_contour_reference(alpha: float, z: float) -> float:
    """The contour rule with s**alpha formed at every node for every z."""
    total = 0.0
    for log_s, weight in _ML_CONTOUR:
        s_alpha = cmath.exp(alpha * log_s)
        total += (weight * s_alpha / (s_alpha - z)).real
    return total


def interleaved_alphas(rng: random.Random, count: int) -> list[float]:
    """`count` orders drawn from more distinct values than the per-alpha table
    caches hold, in random order, so tables are both evicted and reused."""
    pool = [1e-4, 0.05, 1.0 - 1e-9] + [rng.uniform(1e-6, 1.0) for _ in range(2 * _ML_TABLE_ALPHAS)]
    return [rng.choice(pool) for _ in range(count)]


def run_threads(target, count):
    """`count` threads released together at a 1 us switch interval; each
    thread's return value, or a missing entry if it raised."""
    results = {}
    start = threading.Barrier(count)

    def worker(i):
        start.wait()
        results[i] = target(i)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return [results.get(i) for i in range(count)]


def assert_evicted_and_reused(cache, alphas):
    info = cache.cache_info()
    assert info.hits > 0
    assert info.misses > len(set(alphas))  # some order's table was built twice


class TestGammaAccuracy:
    """Every Gamma quantity the package forms with math.gamma, against
    40-digit mpmath at the same double arguments."""

    def test_series_ratio(self):
        # build_series's Gamma(n alpha + 1) / Gamma((n+1) alpha + 1); measured 1.2e-15
        worst = 0.0
        for alpha in gamma_alphas():
            for n in range(MAX_ORDER):
                a, b = n * alpha + 1.0, (n + 1) * alpha + 1.0
                got = math.gamma(a) / math.gamma(b)
                worst = max(worst, relative_error(got, mp_gamma_ratio(a, b)))
        assert worst <= GAMMA_TOL

    def test_abm_weight(self):
        # the 1 / Gamma(alpha + 2) of the ABM corrector's c = h^alpha / Gamma(alpha + 2)
        for alpha in gamma_alphas():
            want = mp_gamma_ratio(1.0, alpha + 2.0)
            assert relative_error(1.0 / math.gamma(alpha + 2.0), want) <= GAMMA_TOL, alpha

    def test_caputo_scale(self):
        # verify's Gamma(beta + 1) / Gamma(beta + 1 - alpha) at beta = 1.5
        for alpha in gamma_alphas():
            got = math.gamma(2.5) / math.gamma(2.5 - alpha)
            assert relative_error(got, mp_gamma_ratio(2.5, 2.5 - alpha)) <= GAMMA_TOL, alpha

    def test_classical_ratio_is_exact(self):
        # n! is an exact double up to 22!, so at alpha = 1 the ratio is the
        # correctly rounded 1/(n+1) for n <= 21
        assert [math.gamma(n + 1.0) / math.gamma(n + 2.0) for n in range(22)] == [
            1.0 / (n + 1) for n in range(22)]
        table = _ml_taylor_table(1.0)
        assert table == tuple(1.0 / n for n in range(1, len(table) + 1))


class TestGammaRatio:
    def test_factorials(self):
        assert gamma_ratio(2.0, 3.0) == pytest.approx(0.5, rel=1e-13)

    def test_identity(self):
        assert gamma_ratio(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_noninteger(self):
        assert gamma_ratio(1.8, 2.6) == pytest.approx(GAMMA_RATIO_18_26, rel=1e-12)

    def test_large_arguments_no_overflow(self):
        # Gamma(300) alone overflows; the ratio must not
        r = gamma_ratio(300.0, 301.0)
        assert r == pytest.approx(1.0 / 300.0, rel=1e-12)

    @given(st.floats(min_value=1e-2, max_value=100.0))
    def test_equal_arguments(self, a):
        assert gamma_ratio(a, a) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gamma_ratio(-1.0, 2.0)
        with pytest.raises(ValueError):
            gamma_ratio(2.0, 0.0)


class TestMittagLeffler:
    def test_alpha_one_is_exp(self):
        assert mittag_leffler(1.0, -1.0) == pytest.approx(1.0 / math.e, abs=1e-10)

    def test_zero_argument_exact(self):
        for alpha in (1e-4, 0.3, 0.7, 1.0):
            assert mittag_leffler(alpha, 0.0) == 1.0

    def test_half_minus_one(self):
        assert mittag_leffler(0.5, -1.0) == pytest.approx(
            ML_HALF_MINUS_ONE, abs=1e-10
        )

    def test_half_negative_is_scaled_erfc(self):
        # E_{1/2}(-x) = exp(x^2) * erfc(x), an independent closed form
        for x in (0.5, 2.0, 5.0, 9.0, 30.0, 100.0, 300.0, 1000.0):
            expected = float(mp.exp(mp.mpf(x) ** 2) * mp.erfc(x))
            assert mittag_leffler(0.5, -x) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("alpha", ML_GRID_ALPHAS)
    def test_negative_axis_against_spectral_integral(self, alpha):
        for z in ML_GRID_Z:
            expected = ml_negative_reference(alpha, -z)
            assert abs(mittag_leffler(alpha, z) - expected) <= 1e-12, z

    @pytest.mark.parametrize("z", [-100.0, -30.0, -10.0, -6.5, -3.0, -1.0, -0.5, 0.0])
    def test_alpha_one_matches_exp_on_interval(self, z):
        assert abs(mittag_leffler(1.0, z) - math.exp(z)) <= 1e-10

    def test_monotone_in_argument(self):
        for alpha in (0.5, 0.8, 1.0):
            grid = [-9.5 + i * 0.5 for i in range(20)]
            vals = [mittag_leffler(alpha, z) for z in grid]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_taylor_sum_bit_identical_to_gamma_ratio_loop(self):
        rng = random.Random(14)
        cases = [(rng.uniform(0.05, 1.0), rng.uniform(-0.5, 0.0)) for _ in range(200)]
        cases += [(alpha, -0.5) for alpha in (1e-300, 1e-4, 1.0 - 1e-9)]
        for alpha, z in cases:
            expected, terms = ml_taylor_reference(alpha, z)
            assert _ml_taylor_double(alpha, z) == expected, (alpha, z)
            # the stop rule fires within the table, not at its end by running out
            assert terms <= len(_ml_taylor_table(alpha)), (alpha, z)

    def test_taylor_partial_sums_stay_in_unit_interval(self):
        # `_ml_taylor_double` stops at |term| <= 1e-16, not relative to the
        # total, because every partial sum lies in (0.43, 1] on its route: the
        # terms alternate in sign and shrink by a factor of at most 0.57, so each
        # sum is within [1 - |z| / Gamma(1 + alpha), 1] with Gamma(1 + alpha) >= 0.8856.
        rng = random.Random(39)
        alphas = [1e-300, 1.0 - 1e-9]
        alphas += [10.0 ** rng.uniform(-300.0, 0.0) for _ in range(300)]
        alphas += [rng.uniform(1e-300, 1.0 - 1e-9) for _ in range(300)]
        alphas = [min(alpha, 1.0 - 1e-9) for alpha in alphas]
        cases = [(alpha, z) for alpha in alphas for z in (-0.5, 0.0, rng.uniform(-0.5, 0.0))]
        for alpha, z in cases:
            total, comp, term = 1.0, 0.0, 1.0
            for ratio in _ml_taylor_table(alpha):  # the whole table, past the stop
                term = term * z * ratio
                y = term - comp
                t = total + y
                comp = (t - total) - y
                total = t
                assert 0.43 < total <= 1.0, (alpha, z, total)

    def test_contour_bit_identical_to_per_node_formula(self):
        _ml_contour_table.cache_clear()
        rng = random.Random(1801)
        alphas = interleaved_alphas(rng, 3000)
        for alpha in alphas:
            z = -1000.0 + 999.5 * rng.random()  # [-1000, -0.5)
            assert _ml_contour(alpha, z) == ml_contour_reference(alpha, z), (alpha, z)
        assert_evicted_and_reused(_ml_contour_table, alphas)

    def test_taylor_sum_bit_identical_through_evicted_and_reused_tables(self):
        _ml_taylor_table.cache_clear()
        rng = random.Random(1802)
        alphas = interleaved_alphas(rng, 600)
        for alpha in alphas:
            z = rng.uniform(-0.5, 0.0)
            assert _ml_taylor_double(alpha, z) == ml_taylor_reference(alpha, z)[0], (alpha, z)
        assert_evicted_and_reused(_ml_taylor_table, alphas)

    def test_four_threads_on_fresh_tables_match_a_serial_run(self):
        rng = random.Random(1803)
        contour_alpha, taylor_alpha = rng.uniform(0.4, 0.9), rng.uniform(0.4, 0.9)
        # distinct z per thread, so the threads build and read the same two
        # tables at the same time
        cases = [[(-1000.0 + 999.5 * rng.random(), rng.uniform(-0.5, 0.0)) for _ in range(40)]
                 for _ in range(4)]

        def run(share):
            return [(_ml_contour(contour_alpha, zc), _ml_taylor_double(taylor_alpha, zt))
                    for zc, zt in share]

        _ml_contour_table.cache_clear()
        _ml_taylor_table.cache_clear()
        serial = [run(share) for share in cases]
        assert all(math.isfinite(v) for share in serial for pair in share for v in pair)
        _ml_contour_table.cache_clear()
        _ml_taylor_table.cache_clear()
        assert run_threads(lambda i: run(cases[i]), 4) == serial

    @pytest.mark.parametrize("alpha, z, named", [
        (1.0 + 2.0 ** -52, -0.1, "order"),
        (1.5, -30.0, "order"),
        (2.5, 1.0, "order"),
        (2.0, 4.0, "order"),
        (0.0, -1.0, "order"),
        (-0.5, -1.0, "order"),
        (math.nan, -1.0, "order"),
        (0.5, 5e-324, "argument"),
        (0.5, 51.0, "argument"),
        (0.4, 40.0, "argument"),
        (1e-4, 3.0, "argument"),
        (1.0, 0.5, "argument"),
        (0.5, math.nan, "argument"),
        (1.0, math.nan, "argument"),
    ])
    def test_outside_the_domain_raises_before_any_arithmetic(self, alpha, z, named):
        _ml_contour_table.cache_clear()
        _ml_taylor_table.cache_clear()
        value = alpha if named == "order" else z
        with pytest.raises(ValueError, match=re.escape(f"{named} outside supported")
                           + ".*" + re.escape(f"got {value}")):
            mittag_leffler(alpha, z)
        # refused before any per-alpha table was built
        assert _ml_contour_table.cache_info().misses == 0
        assert _ml_taylor_table.cache_info().misses == 0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            mittag_leffler(-0.5, 1.0)
        with pytest.raises(ValueError):
            mittag_leffler(0.5, math.inf)

    @given(
        alpha=st.floats(min_value=1e-4, max_value=1.0),
        z=st.floats(min_value=-1000.0, max_value=0.0),
    )
    @example(alpha=1.0, z=-746.0)
    @settings(max_examples=60, deadline=None)
    def test_bounded_and_positive_on_negative_axis(self, alpha, z):
        # completely monotone on the negative axis for alpha <= 1.  At alpha = 1
        # the value is exp(z), which underflows to the correctly rounded 0.0
        # below z ~ -745.1; for alpha < 1 it stays positive down to z = -1000.
        value = mittag_leffler(alpha, z)
        if alpha == 1.0:
            assert value == math.exp(z)
        else:
            assert 0.0 < value <= 1.0
