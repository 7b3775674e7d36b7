"""Sweep grids: determinism, CSV round trips, preset structure."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from reference_helpers import parse_csv
from solowfrac.model import ModelParams, REFERENCE_PARAMS
from solowfrac.oracles import exact_classical_value
from solowfrac.sweep import (
    CSV_HEADER,
    PRESETS,
    SweepConfig,
    evaluate,
    gnuplot_script,
    rows_to_csv,
    run_solve,
    run_sweep,
    sidecar_metadata,
    time_grid,
)


def small_config(**overrides):
    defaults = dict(
        base=REFERENCE_PARAMS,
        axis="q",
        axis_range=(0.1, 0.4, 4),
        t_range=(1.0, 5),
        order=5,
        method="series",
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


class TestSweepConfig:
    def test_axis_values_endpoints(self):
        cfg = small_config()
        vals = cfg.axis_values()
        assert vals[0] == pytest.approx(0.1)
        assert vals[-1] == pytest.approx(0.4)
        assert len(vals) == 4

    @settings(max_examples=300, deadline=None)
    @given(lo=st.floats(1e-3, 0.999), width=st.floats(1e-12, 1.0), count=st.integers(2, 200))
    def test_axis_values_stay_in_range(self, lo, width, count):
        # lo + (count - 1) * step could round one ulp past hi (0.1 to 1.0 in 8)
        hi = min(lo + width, 1.0)
        if not hi > lo:
            return
        vals = small_config(axis="alpha", axis_range=(lo, hi, count)).axis_values()
        assert len(vals) == count and vals[0] == lo and vals[-1] == hi
        assert all(lo <= v <= hi for v in vals)

    def test_times_start_at_zero(self):
        cfg = small_config()
        assert cfg.times()[0] == 0.0
        assert cfg.times()[-1] == pytest.approx(1.0)

    def test_methods_both_classical(self):
        cfg = small_config(method="both")
        assert cfg.methods() == ["series", "exact"]

    def test_methods_both_fractional(self):
        cfg = small_config(base=REFERENCE_PARAMS.with_(alpha=0.8), method="both")
        assert cfg.methods() == ["series", "abm"]

    def test_methods_both_alpha_axis(self):
        cfg = small_config(axis="alpha", axis_range=(0.5, 1.0, 3), method="both")
        assert cfg.methods() == ["series", "abm"]

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(axis="banana")
        with pytest.raises(ValueError):
            small_config(axis_range=(0.4, 0.1, 4))
        with pytest.raises(ValueError):
            small_config(axis_range=(0.1, 0.4, 1))
        with pytest.raises(ValueError):
            small_config(method="rk4")
        with pytest.raises(ValueError, match="t_max must be finite, got inf"):
            small_config(t_range=(math.inf, 5))
        with pytest.raises(ValueError, match="t_max must be positive, got nan"):
            small_config(t_range=(math.nan, 5))
        with pytest.raises(ValueError):
            # axis range leaves the valid parameter domain (mu must stay < 1)
            small_config(axis="mu", axis_range=(0.5, 1.5, 3))
        for method in ("series", "exact", "abm", "both"):
            for order in (0, 65):
                with pytest.raises(ValueError, match="order must lie in"):
                    small_config(method=method, order=order)


class TestPresets:
    def test_all_presets_valid(self):
        assert set(PRESETS) == {
            "fig-ktq", "fig-ktp", "fig-ktmu", "fig-ktq-frac", "fig-ktalpha",
        }
        for cfg in PRESETS.values():
            assert len(cfg.axis_values()) == 21
            assert len(cfg.times()) == 41
            assert cfg.times()[-1] == pytest.approx(2.0)

    def test_fractional_presets_alpha(self):
        assert PRESETS["fig-ktq-frac"].base.alpha == 0.8
        assert PRESETS["fig-ktalpha"].axis == "alpha"

    def test_preset_q_monotonicity(self):
        # higher depreciation q must depress capital at fixed positive t
        cfg = PRESETS["fig-ktq"]
        grid = run_sweep(cfg)
        t_last = cfg.times()[-1]
        ks = [r[2] for r in grid.rows if r[0] == t_last]
        assert len(ks) == 21
        assert all(b < a for a, b in zip(ks, ks[1:]))

    def test_preset_p_monotonicity(self):
        cfg = PRESETS["fig-ktp"]
        grid = run_sweep(cfg)
        t_last = cfg.times()[-1]
        ks = [r[2] for r in grid.rows if r[0] == t_last]
        assert all(b > a for a, b in zip(ks, ks[1:]))


class TestRunSweep:
    def test_row_count_and_order(self):
        cfg = small_config()
        grid = run_sweep(cfg)
        assert len(grid.rows) == 5 * 4  # times x axis values, one method
        # t-major ordering: first 4 rows share t = 0
        assert all(r[0] == 0.0 for r in grid.rows[:4])
        assert [r[1] for r in grid.rows[:4]] == pytest.approx(cfg.axis_values())

    def test_series_matches_exact_on_grid(self):
        cfg = small_config(method="both", order=8)
        grid = run_sweep(cfg)
        by_key = {}
        for t, axis, k, trusted, method in grid.rows:
            by_key.setdefault((t, axis), {})[method] = (k, trusted)
        for (t, axis), methods in by_key.items():
            k_series, trusted = methods["series"]
            k_exact, _ = methods["exact"]
            if trusted:
                assert k_series == pytest.approx(k_exact, rel=1e-3)

    def test_repeat_run_byte_identical(self):
        cfg = small_config()
        assert rows_to_csv(run_sweep(cfg).rows) == rows_to_csv(run_sweep(cfg).rows)

    def test_exact_method_with_fractional_axis_value_yields_nan(self):
        # alpha axis crossing below 1 cannot be solved by the closed form;
        # those cells must degrade to untrusted NaNs, not crash
        cfg = small_config(
            base=REFERENCE_PARAMS, axis="alpha", axis_range=(0.5, 1.0, 3),
            method="exact",
        )
        grid = run_sweep(cfg)
        frac_rows = [r for r in grid.rows if r[1] < 1.0]
        assert frac_rows
        assert all(math.isnan(r[2]) and not r[3] for r in frac_rows)
        exact_rows = [r for r in grid.rows if r[1] == 1.0]
        assert all(math.isfinite(r[2]) and r[3] for r in exact_rows)


class TestRunSolve:
    def test_series_rows(self):
        rows = run_solve(REFERENCE_PARAMS, t_max=1.0, samples=5, method="series")
        assert len(rows) == 5
        assert rows[0][2] == REFERENCE_PARAMS.k0
        assert all(r[4] == "series" for r in rows)

    def test_both_interleaves(self):
        rows = run_solve(REFERENCE_PARAMS, t_max=1.0, samples=3, method="both")
        assert [r[4] for r in rows] == ["series", "exact"] * 3

    def test_exact_matches_oracle(self):
        rows = run_solve(REFERENCE_PARAMS, t_max=1.0, samples=5, method="exact")
        for t, _, k, trusted, _ in rows:
            assert trusted
            assert k == pytest.approx(exact_classical_value(REFERENCE_PARAMS, t), rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_solve(REFERENCE_PARAMS, t_max=1.0, samples=1, method="series")
        with pytest.raises(ValueError):
            run_solve(REFERENCE_PARAMS, t_max=0.0, samples=5, method="series")
        with pytest.raises(ValueError, match="t_max must be finite, got inf"):
            run_solve(REFERENCE_PARAMS, t_max=math.inf, samples=5, method="series")
        with pytest.raises(ValueError):
            run_solve(REFERENCE_PARAMS.with_(alpha=0.8), t_max=1.0, samples=5, method="exact")
        with pytest.raises(ValueError):
            run_solve(REFERENCE_PARAMS, t_max=1.0, samples=5, method="rk4")
        for method in ("series", "exact", "abm", "both"):
            for order in (0, 65):
                with pytest.raises(ValueError, match="order must lie in"):
                    run_solve(REFERENCE_PARAMS, t_max=1.0, samples=5, method=method,
                              order=order)

    @pytest.mark.parametrize("t_max, samples", [(1e308, 3), (1e307, 41), (2e306, 101)])
    def test_overflowing_grid_rejected(self, t_max, samples):
        # i * t_max reaches inf before the division: rows at t = inf
        with pytest.raises(ValueError, match=r"t_max \* \(samples - 1\) overflows"):
            time_grid(t_max, samples)

    def test_largest_grid_is_finite(self):
        t_max = 1.7976931348623157e308 / 40
        times = time_grid(t_max, 41)
        assert times[-1] == t_max and all(math.isfinite(t) for t in times)

    @pytest.mark.parametrize("alpha", [1.0, 0.8])
    def test_both_raises_the_series_reason_first(self, alpha):
        # The oracle fails here too, with a reason of its own ("exact k(t) ...
        # overflows" at alpha = 1, "non-finite capital" from the ABM below).
        params = REFERENCE_PARAMS.with_(p=1e300, q=1e-300, alpha=alpha)
        with pytest.raises(ValueError) as exc:
            run_solve(params, t_max=2.0, samples=41, method="both")
        assert str(exc.value) == ("k_star = (p/q)**(1/(1-mu)) overflows double precision at "
                                  "p=1e+300, q=1e-300, mu=0.3333333333333333")

    def test_both_raises_the_abm_reason_when_only_the_abm_fails(self):
        params = REFERENCE_PARAMS.with_(alpha=0.8, q=1000.0)
        assert evaluate(params, time_grid(1.0, 41), "series")[2] is None
        with pytest.raises(ValueError, match=r"no positive capital .*: stiffness c\*q = 6\.57$"):
            run_solve(params, t_max=1.0, samples=41, method="both")

    def test_solver_failure_raises(self):
        # A sweep turns this cell into NaN rows; a single solve must refuse it.
        stiff = REFERENCE_PARAMS.with_(q=1000.0)
        with pytest.raises(ValueError, match="no positive capital"):
            run_solve(stiff, t_max=1.0, samples=5, method="abm")
        cfg = small_config(base=stiff, axis="p", axis_range=(0.4, 0.6, 2), method="abm")
        assert all(math.isnan(r[2]) and not r[3] for r in run_sweep(cfg).rows)


class TestEvaluate:
    def test_single_methods_only(self):
        with pytest.raises(ValueError, match="unknown method"):
            evaluate(REFERENCE_PARAMS, [0.0, 0.5, 1.0], "both")

    def test_failure_gives_reason_and_nan(self):
        values, trusted, reason = evaluate(
            REFERENCE_PARAMS.with_(alpha=0.8), [0.0, 0.5, 1.0], "exact")
        assert "alpha = 1" in reason
        assert all(math.isnan(k) for k in values)
        assert trusted == [False] * 3

    def test_non_finite_abm_capital_gives_reason(self):
        values, trusted, reason = evaluate(
            REFERENCE_PARAMS.with_(alpha=0.8, p=1e300), [0.0, 1.0, 2.0], "abm")
        assert reason == "ABM corrector produced non-finite capital inf at t=0.0078125"
        assert all(math.isnan(k) for k in values)
        assert trusted == [False] * 3

    def test_success_has_no_reason(self):
        for method in ("series", "exact", "abm"):
            values, trusted, reason = evaluate(REFERENCE_PARAMS, [0.0, 0.5, 1.0], method)
            assert reason is None
            assert values[0] == REFERENCE_PARAMS.k0
            assert len(trusted) == 3


class TestCsv:
    def test_header(self):
        grid = run_sweep(small_config())
        text = rows_to_csv(grid.rows)
        assert text.splitlines()[0] == CSV_HEADER
        assert text.endswith("\n")
        assert "\r" not in text

    def test_round_trip_byte_identity(self):
        grid = run_sweep(small_config(method="both"))
        text = rows_to_csv(grid.rows)
        header, rows = parse_csv(text)
        assert header == CSV_HEADER
        assert rows_to_csv(rows) == text

    def test_parse_rejects_wrong_header(self):
        with pytest.raises(ValueError):
            parse_csv("a,b,c\n1,2,3\n")

    def test_seventeen_digit_precision(self):
        grid = run_sweep(small_config())
        _, rows = parse_csv(rows_to_csv(grid.rows))
        assert [tuple(r) for r in rows] == [tuple(r) for r in grid.rows]

    def test_solve_csv_header(self):
        rows = run_solve(REFERENCE_PARAMS, t_max=1.0, samples=3, method="series")
        text = rows_to_csv(rows, axis=False)
        assert text.splitlines()[0] == "t,k,trusted,method"


class TestSidecarAndPlot:
    def test_metadata_deterministic_and_complete(self):
        grid = run_sweep(small_config())
        meta1 = sidecar_metadata(grid)
        meta2 = sidecar_metadata(run_sweep(small_config()))
        assert meta1 == meta2
        assert '"row_count": 20' in meta1
        assert '"axis": "q"' in meta1

    def test_gnuplot_script_mentions_axis(self):
        cfg = small_config()
        script = gnuplot_script("out.csv", cfg)
        assert "out.csv" in script
        assert "'q'" in script

    def test_gnuplot_grid_follows_config(self):
        # t along x (t_count points), the axis along y (axis_count values)
        script = gnuplot_script("out.csv", small_config(axis_range=(0.1, 0.4, 7),
                                                        t_range=(1.0, 13)))
        assert "set dgrid3d 13,7\n" in script

    def test_gnuplot_one_surface_per_method(self):
        script = gnuplot_script("out.csv", small_config(method="both"))
        splot = [line for line in script.splitlines() if line.startswith("splot ")]
        assert len(splot) == 1
        assert splot[0].count("'out.csv'") == 2
        assert "strcol(5) eq 'series' ? $3 : 1/0" in splot[0]
        assert "strcol(5) eq 'exact' ? $3 : 1/0" in splot[0]
        single = gnuplot_script("out.csv", small_config())
        assert single.count("'out.csv'") == 1
        assert "'exact'" not in single

    def test_gnuplot_doubles_a_quote_in_the_path(self):
        # inside a single-quoted gnuplot string, '' stands for '
        script = gnuplot_script("it's.csv", small_config(method="both"))
        assert script.count("'it''s.csv' every ::1 using") == 2
        assert "'it's" not in script
