"""End-to-end CLI tests: subcommands, config files, exit codes, artifacts."""

import contextlib
import importlib.util
import io
import json
import math
import re
from os.path import realpath
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reference_helpers import build_parser, parse_csv
from solowfrac.cli import COMMAND_KEYS, FLAG_KINDS, SUMMARY, choices, main, parse_args
from solowfrac.model import REFERENCE_PARAMS
from solowfrac.sweep import CSV_HEADER, PRESETS, SweepConfig
from solowfrac.transforms import _report, run_all_verifications


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_default_solve_to_stdout(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--samples", "5", "--t-max", "1.0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,k,trusted,method"
        assert len(lines) == 6

    def test_solve_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "run.csv"
        code, out, _ = run_cli(
            capsys, "solve", "--samples", "5", "--t-max", "1.0", "--out", str(out_path)
        )
        assert code == 0
        assert out == ""
        assert out_path.read_text().splitlines()[0] == "t,k,trusted,method"

    def test_both_methods(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--samples", "3", "--t-max", "0.5", "--method", "both"
        )
        assert code == 0
        methods = [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]]
        assert methods == ["series", "exact"] * 3

    def test_infinite_series_value_is_untrusted(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--t-max", "1e160", "--order", "2",
                               "--samples", "3")
        assert code == 0
        assert out.splitlines()[2:] == ["5e+159,-inf,false,series", "1e+160,-inf,false,series"]

    def test_exact_with_fractional_alpha_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "solve", "--alpha", "0.8", "--method", "exact", "--samples", "5"
        )
        assert code == 2
        assert "error:" in err
        assert "requires alpha = 1" in err
        assert out == ""

    def test_invalid_parameter_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--mu", "1.5")
        assert code == 2
        assert "error:" in err

    def test_non_finite_abm_capital_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--p", "1e300", "--alpha", "0.8",
                                 "--method", "abm", "--samples", "3")
        assert code == 2
        assert out == ""
        assert err == "error: ABM corrector produced non-finite capital inf at t=0.0078125\n"

    @pytest.mark.parametrize("alpha", ["0.99999999999999", repr(1.0 - 2.0 ** -52)])
    def test_abm_alpha_next_to_1_runs(self, capsys, alpha):
        # The Gauss-Jacobi node next to -1 rounds to -1 here; it divided by 1 - x^2 = 0.
        code, out, err = run_cli(capsys, "solve", "--method", "abm", "--alpha", alpha,
                                 "--samples", "2", "--t-max", "1")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 3

    @pytest.mark.parametrize("command", ["solve", "equilibria"])
    def test_k_star_overflow_is_named(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--p", "1e300")
        assert code == 2
        assert out == ""
        assert err == ("error: k_star = (p/q)**(1/(1-mu)) overflows double precision "
                       "at p=1e+300, q=0.2, mu=0.3333333333333333\n")

    def test_exact_overflow_is_named(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--p", "1e300", "--method", "exact")
        assert code == 2
        assert out == ""
        assert err == ("error: exact k(t) = v**(1/(1-mu)) overflows double precision "
                       "at p=1e+300, q=0.2, mu=0.3333333333333333\n")

    def test_series_overflow_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--p", "1e50", "--alpha", "0.8",
                                 "--samples", "3", "--t-max", "0.5", "--order", "8")
        assert code == 2
        assert out == ""
        assert err == ("error: series coefficient at order 7 is -inf: "
                       "the series overflows double precision\n")


# One request per subcommand that would otherwise run to completion.
SUBCOMMANDS = {
    "solve": ["solve", "--alpha", "0.8", "--method", "abm", "--samples", "3"],
    "sweep": ["sweep", "--preset", "fig-ktq-frac", "--method", "both"],
    "equilibria": ["equilibria", "--json"],
    "verify": ["verify"],
    "compare": ["compare", "--alpha", "0.8"],
}


class TestNonFiniteInput:
    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    @pytest.mark.parametrize("flag", ["--p", "--q", "--k0"])
    def test_parameter_is_usage_error(self, capsys, command, flag):
        code, out, err = run_cli(capsys, *SUBCOMMANDS[command], flag, "inf")
        assert code == 2
        assert out == ""
        assert err == f"error: {flag[2:]} must be finite, got inf\n"

    @pytest.mark.parametrize("argv", [
        SUBCOMMANDS["solve"],
        ["solve", "--method", "series"],
        SUBCOMMANDS["sweep"],
        SUBCOMMANDS["compare"],
    ])
    def test_t_max_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--t-max", "inf")
        assert code == 2
        assert out == ""
        assert err == "error: t_max must be finite, got inf\n"

    def test_config_file_value_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k0 = inf\n")
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert err == "error: k0 must be finite, got inf\n"


class TestConfigFile:
    def test_config_supplies_values(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# model setup\np = 2.0\nq = 1.0\nmu = 0.5\nsamples = 3\nt_max = 1.0\n")
        code, out, _ = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = 3\nt_max = 1.0\n")
        code, out, _ = run_cli(capsys, "solve", "--config", str(cfg), "--samples", "5")
        assert code == 0
        assert len(out.splitlines()) == 6

    def test_unknown_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("ssamples = 3\n")
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert "unknown key" in err

    def test_malformed_line_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 2

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "solve", "--config", str(tmp_path / "nope.cfg"))
        assert code == 2

    @pytest.mark.parametrize("line, key", [("p = abc", "p"), ("samples = 2.5", "samples")])
    def test_unconvertible_value_names_its_line(self, capsys, tmp_path, line, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# header\n{line}\n")
        code, out, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {cfg}:2: ")
        assert repr(key) in err

    @pytest.mark.parametrize("command, line", [
        ("solve", "axis = p"), ("sweep", "samples = 3"),
        ("compare", "axis_min = 0.2"), ("verify", "order = 8"),
    ])
    def test_key_the_command_does_not_read_is_usage_error(self, capsys, tmp_path, command, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"p = 0.5\n{line}\n")
        argv = ["--preset", "fig-ktq"] if command == "sweep" else []
        code, out, err = run_cli(capsys, command, *argv, "--config", str(cfg))
        assert code == 2
        assert out == ""
        key = line.split()[0]
        assert err == f"error: {cfg}:2: {command!r} does not read key {key!r}\n"

    @pytest.mark.parametrize("command, key, value", [
        ("solve", "method", "zz"), ("sweep", "preset", "nope"), ("sweep", "axis", "k0")])
    def test_choice_outside_its_list_names_the_line(self, capsys, tmp_path, command, key, value):
        # a flag's choice check, with the config file's path:lineno: prefix
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# choices\n{key} = {value}\n")
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == (f"error: {cfg}:2: bad value for {key!r}: invalid choice {value!r}; "
                       f"choose from {', '.join(choices(key))}\n")


# A small run of each subcommand, and a value for every key of the settings
# table that differs from its default.
BASE_SETTINGS = {
    "solve": {"samples": "3"},
    "sweep": {"axis": "p", "axis_min": "0.3", "axis_max": "0.9", "axis_count": "2",
              "t_count": "3"},
    "equilibria": {"json": None},
    "verify": {"json": None},
    "compare": {"samples": "3"},
}
VALUES = {
    "p": "0.6", "q": "0.25", "mu": "0.4", "alpha": "0.9", "k0": "1.5", "order": "6",
    "t_max": "1.0", "samples": "4", "method": "both", "preset": "fig-ktq-frac", "axis": "q",
    "axis_min": "0.2", "axis_max": "0.8", "axis_count": "3", "t_count": "4", "tol": "1e-2",
}
# Settings whose value the output does not show: the base sweep runs along p,
# and the fixed points depend on neither alpha nor k0.
UNSEEN = {("sweep", "p"), ("equilibria", "alpha"), ("equilibria", "k0")}


def _flags(settings):
    argv = []
    for key, value in settings.items():
        argv += ["--" + key.replace("_", "-")] + ([] if value is None else [value])
    return argv


class TestSettingsTable:
    @pytest.mark.parametrize("command, key", [
        (command, key) for command, keys in COMMAND_KEYS.items() for key in keys])
    def test_config_line_acts_like_the_flag(self, capsys, tmp_path, command, key):
        base = {k: v for k, v in BASE_SETTINGS[command].items() if k != key}
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {VALUES[key]}\n")
        by_flag = run_cli(capsys, command, *_flags(base), *_flags({key: VALUES[key]}))
        by_config = run_cli(capsys, command, *_flags(base), "--config", str(cfg))
        assert by_flag[0] in (0, 1)
        assert by_config == by_flag
        unset = run_cli(capsys, command, *_flags(base))
        assert (by_flag == unset) == ((command, key) in UNSEEN)

    def test_precedence_flag_config_preset(self, capsys, tmp_path):
        # The config file names the preset and overrides one of its fields and
        # one parameter of its base; flags override two of the config values.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = fig-ktq-frac\nalpha = 0.9\nmu = 0.4\n"
                       "axis_count = 2\nt_count = 5\n")
        layered = tmp_path / "layered.csv"
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--alpha", "0.95",
                                 "--t-count", "3", "--out", str(layered))
        assert (code, out, err) == (0, "", "")
        preset = PRESETS["fig-ktq-frac"]
        expected = SweepConfig(base=preset.base.with_(alpha=0.95, mu=0.4), axis="q",
                               axis_range=(0.1, 0.4, 2), t_range=(2.0, 3))
        meta = json.loads((tmp_path / "layered.csv.meta.json").read_text())
        assert meta["config"] == expected.as_dict()


class TestSweep:
    def test_preset_to_file_with_sidecar(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--preset", "fig-ktq", "--axis-count", "3",
            "--t-count", "5", "--out", str(out_path),
        )
        assert code == 0
        header, rows = parse_csv(out_path.read_text())
        assert header == CSV_HEADER
        assert len(rows) == 3 * 5
        meta = json.loads((tmp_path / "grid.csv.meta.json").read_text())
        assert meta["row_count"] == 15
        assert meta["config"]["axis"] == "q"
        assert "timestamp" not in json.dumps(meta).lower()

    def test_explicit_axis(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "p", "--axis-min", "0.2", "--axis-max", "1.0",
            "--axis-count", "3", "--t-count", "3", "--t-max", "1.0",
        )
        assert code == 0
        assert out.splitlines()[0] == CSV_HEADER
        assert len(out.splitlines()) == 1 + 9

    def test_axis_ends_at_axis_max(self, capsys):
        # lo + 7 * step is 1.0000000000000002 here, outside alpha's (0, 1]
        code, out, err = run_cli(
            capsys, "sweep", "--axis", "alpha", "--axis-min", "0.1", "--axis-max", "1.0",
            "--axis-count", "8", "--t-count", "3",
        )
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert rows[-1][1] == 1.0

    def test_gnuplot_companion(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        plot_path = tmp_path / "grid.gp"
        code, _, _ = run_cli(
            capsys, "sweep", "--preset", "fig-ktp", "--axis-count", "3",
            "--t-count", "3", "--out", str(out_path),
            "--gnuplot-script", str(plot_path),
        )
        assert code == 0
        assert str(out_path) in plot_path.read_text()

    def test_gnuplot_script_without_out_is_usage_error(self, capsys, tmp_path):
        plot_path = tmp_path / "grid.gp"
        code, out, err = run_cli(capsys, "sweep", "--preset", "fig-ktq",
                                 "--gnuplot-script", str(plot_path))
        assert code == 2
        assert out == ""  # refused before the sweep wrote its CSV to stdout
        assert "--gnuplot-script requires --out" in err
        assert not plot_path.exists()

    def test_missing_axis_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--t-count", "3")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("order", ["0", "65"])
    @pytest.mark.parametrize("command", ["sweep", "solve"])
    def test_order_out_of_range_is_usage_error(self, capsys, command, order):
        argv = ["--preset", "fig-ktq"] if command == "sweep" else []
        code, out, err = run_cli(capsys, command, *argv, "--order", order)
        assert code == 2
        assert out == ""
        assert "order must lie in [1, 64]" in err

    def test_unknown_preset_in_config_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = fig-nope\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert err.startswith(f"error: {cfg}:1: bad value for 'preset': invalid choice 'fig-nope'")

    def test_sidecar_records_failed_cells(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--q", "1000", "--axis", "p", "--axis-min", "0.4",
            "--axis-max", "0.6", "--method", "abm", "--out", str(out_path),
        )
        assert code == 0
        _, rows = parse_csv(out_path.read_text())
        assert all(math.isnan(k) and not trusted for _, _, k, trusted, _ in rows)
        meta = json.loads((tmp_path / "grid.csv.meta.json").read_text())
        assert [f["axis"] for f in meta["failures"]] == sorted({a for _, a, *_ in rows})
        for failure in meta["failures"]:
            assert failure["method"] == "abm"
            assert failure["reason"].startswith("ABM corrector found no positive capital")

    def test_sidecar_records_non_finite_abm_cells(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--alpha", "0.8", "--axis", "p", "--axis-min", "1e299",
            "--axis-max", "1e300", "--axis-count", "2", "--method", "abm",
            "--out", str(out_path),
        )
        assert code == 0
        _, rows = parse_csv(out_path.read_text())
        assert all(math.isnan(k) and not trusted for _, _, k, trusted, _ in rows)
        meta = json.loads((tmp_path / "grid.csv.meta.json").read_text())
        assert [f["axis"] for f in meta["failures"]] == [1e299, 1e300]
        for failure in meta["failures"]:
            assert failure["reason"].startswith("ABM corrector produced non-finite capital")

    def test_sidecar_records_exact_overflow(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--axis", "p", "--axis-min", "1e299", "--axis-max", "1e300",
            "--axis-count", "2", "--method", "exact", "--out", str(out_path),
        )
        assert code == 0
        _, rows = parse_csv(out_path.read_text())
        assert all(math.isnan(k) and not trusted for _, _, k, trusted, _ in rows)
        meta = json.loads((tmp_path / "grid.csv.meta.json").read_text())
        assert meta["failures"] == [
            {"axis": p, "method": "exact",
             "reason": f"exact k(t) = v**(1/(1-mu)) overflows double precision "
                       f"at p={p}, q=0.2, mu=0.3333333333333333"}
            for p in (1e299, 1e300)
        ]

    def test_sidecar_records_series_overflow(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--alpha", "0.8", "--axis", "p", "--axis-min", "1e49",
            "--axis-max", "1e50", "--axis-count", "2", "--t-count", "3", "--t-max", "0.5",
            "--order", "8", "--out", str(out_path),
        )
        assert code == 0
        _, rows = parse_csv(out_path.read_text())
        assert all(math.isnan(k) and not trusted for _, _, k, trusted, _ in rows)
        meta = json.loads((tmp_path / "grid.csv.meta.json").read_text())
        assert [f["axis"] for f in meta["failures"]] == [1e49, 1e50]
        for failure in meta["failures"]:
            assert failure["method"] == "series"
            assert failure["reason"].startswith("series coefficient at order 7 is -inf")

    def test_sidecar_without_failures_has_no_failure_list(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run_cli(capsys, "sweep", "--preset", "fig-ktq-frac", "--axis-count", "2",
                             "--method", "both", "--out", str(out_path))
        assert code == 0
        assert "failures" not in json.loads((tmp_path / "grid.csv.meta.json").read_text())

    def test_make_figures_matches_cli(self, capsys, tmp_path):
        path = Path(__file__).resolve().parents[1] / "scripts" / "make_figures.py"
        spec = importlib.util.spec_from_file_location("make_figures", path)
        make_figures = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(make_figures)
        assert make_figures.main(["--preset", "fig-ktq", "--outdir", str(tmp_path / "figs")]) == 0
        code, _, _ = run_cli(capsys, "sweep", "--preset", "fig-ktq",
                             "--out", str(tmp_path / "cli.csv"))
        assert code == 0
        for suffix in (".csv", ".csv.meta.json"):
            script_bytes = (tmp_path / "figs" / f"fig-ktq{suffix}").read_bytes()
            assert script_bytes == (tmp_path / f"cli{suffix}").read_bytes()


class TestEquilibria:
    def test_table_output(self, capsys):
        code, out, _ = run_cli(capsys, "equilibria")
        assert code == 0
        assert "k*" in out
        assert "unstable" in out
        assert "asymptotically stable" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "equilibria", "--json", "--p", "0.5", "--q", "0.2")
        assert code == 0
        data = json.loads(out)
        assert data["k_star"] == pytest.approx(2.5 ** 1.5, rel=1e-12)

    def test_underflowing_k_star_reports(self, capsys):
        # exited 2 with "0.0 cannot be raised to a negative power"
        code, out, err = run_cli(capsys, "equilibria", "--p", "1e8", "--q", "1e300",
                                 "--mu", "0.99", "--json")
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["k_star"] == 0.0
        assert data["derivative_at_star"] == 1e300 * (0.99 - 1.0)

    def test_json_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "eq.json"
        code, _, _ = run_cli(capsys, "equilibria", "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())["k_star"] > 0


class TestVerify:
    def test_verify_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 9
        assert all(l.startswith("PASS") for l in lines)

    def test_model_flags_apply_without_alpha(self, capsys, monkeypatch):
        # verify defaults to alpha = 0.8; the other flags go on top of that
        code, shifted, _ = run_cli(capsys, "verify", "--p", "0.7")
        _, explicit, _ = run_cli(capsys, "verify", "--p", "0.7", "--alpha", "0.8")
        assert code == 0
        assert shifted == explicit
        received = []
        monkeypatch.setattr("solowfrac.transforms.run_all_verifications",
                            lambda params: received.append(params) or [])
        assert run_cli(capsys, "verify", "--p", "0.7") == (0, "", "")
        assert received == [REFERENCE_PARAMS.with_(p=0.7, alpha=0.8)]


    def test_json_names_the_parameters_and_every_row(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--json", "--p", "0.7")
        assert code == 0
        params = REFERENCE_PARAMS.with_(p=0.7, alpha=0.8)
        assert json.loads(out) == {
            "params": {"p": 0.7, "q": params.q, "mu": params.mu, "alpha": 0.8, "k0": params.k0},
            "passed": True,
            "reports": [{**rep, "rows": [[label, dev] for label, dev in rep["rows"]]}
                        for rep in run_all_verifications(params)],
        }
        _, bare, _ = run_cli(capsys, "verify", "--json")
        assert json.loads(bare)["params"]["p"] == REFERENCE_PARAMS.p != 0.7

    # One passing and one failing report; only the failing one's rows above tol are listed.
    MIXED = (("fine", [("u=0.1", 1e-7)]),
             ("broken", [("u=0.1", 2e-6), ("u=0.5", -1.0), ("u=1", 3e-5)]))

    def _mixed(self, monkeypatch):
        monkeypatch.setattr("solowfrac.transforms.run_all_verifications",
                            lambda params: [_report(name, rows) for name, rows in self.MIXED])

    def test_text_failure_lists_failing_rows_and_exits_1(self, capsys, monkeypatch):
        self._mixed(monkeypatch)
        code, out, err = run_cli(capsys, "verify")
        assert (code, err) == (1, "")
        assert out == (f"PASS  {'fine':<42s} max deviation 1.000e-07 (tol 1.0e-05)\n"
                       f"FAIL  {'broken':<42s} max deviation 1.000e+00 (tol 1.0e-05)\n"
                       "failing identities:\n"
                       "  broken: u=0.5 deviation 1.000e+00\n"
                       "  broken: u=1 deviation 3.000e-05\n")

    def test_json_failure_exits_1(self, capsys, monkeypatch):
        self._mixed(monkeypatch)
        code, out, _ = run_cli(capsys, "verify", "--json")
        assert code == 1
        data = json.loads(out)
        assert data["passed"] is False
        assert data["reports"] == [
            {"name": "fine", "tol": 1e-5, "passed": True, "max_deviation": 1e-7,
             "rows": [["u=0.1", 1e-7]]},
            {"name": "broken", "tol": 1e-5, "passed": False, "max_deviation": 1.0,
             "rows": [["u=0.1", 2e-6], ["u=0.5", 1.0], ["u=1", 3e-5]]},
        ]

    @pytest.mark.parametrize("flag, value", [("--p", "1e8"), ("--k0", "1e300")])
    def test_first_derivative_rows_are_relative_at_large_magnitudes(self, capsys, flag, value):
        # both sides of S[k'](u) = (S[k](u) - k0)/u scale with k: absolute rows
        # failed here with 1.465e-03 and 2.561e+287
        code, out, err = run_cli(capsys, "verify", flag, value)
        assert (code, err) == (0, "")
        assert all(line.startswith("PASS") for line in out.splitlines())

    @pytest.mark.parametrize("q", ["1e10", "1e300"])
    def test_first_derivative_rows_follow_a_fast_k(self, capsys, q):
        # k relaxes on the time scale 1/(q (1 - mu)), which the nodes at a fixed
        # u missed: deviations up to 1.5e-4 at q = 1e10, and 1.0 at 1e300
        code, out, err = run_cli(capsys, "verify", "--q", q)
        assert (code, err) == (0, "")
        assert all(line.startswith("PASS") for line in out.splitlines())
        code, out, _ = run_cli(capsys, "verify", "--q", q, "--json")
        reports = json.loads(out)["reports"]
        rows = [rep for rep in reports if rep["name"] == "derivative rules"][0]["rows"]
        u_scale = 1.0 / (float(q) * (1.0 - REFERENCE_PARAMS.mu))
        assert [label for label, _ in rows[:3]] == [f"first-derivative u={u * u_scale:g}"
                                                    for u in (0.1, 0.5, 1.0)]

    def test_nan_row_fails_wherever_it_stands(self):
        for rows in ([("a", 1e-7), ("b", math.nan)], [("b", math.nan), ("a", 1e-7)]):
            report = _report("x", rows)
            assert report["passed"] is False and math.isnan(report["max_deviation"])

    def test_overflowing_rate_still_fails(self, capsys):
        # q k0 overflows, so S[k'] is -inf and each first-derivative row NaN
        code, out, _ = run_cli(capsys, "verify", "--p", "1e8", "--k0", "1e300", "--q", "1e10")
        assert code == 1
        assert "FAIL  derivative rules" in out
        assert "derivative rules: first-derivative u=1.5e-11 deviation nan\n" in out


class TestCompare:
    def test_classical_compare_passes(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--t-max", "0.5", "--tol", "1e-3")
        assert code == 0
        assert "exact-classical" in out

    def test_fractional_compare_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--alpha", "0.8", "--t-max", "0.5", "--tol", "1e-2"
        )
        assert code == 0
        assert "abm-fractional" in out

    def test_small_rate_oracle_is_not_zero(self, capsys):
        # the exact oracle cancelled to 0.0 here: "float division by zero", exit 2
        code, out, err = run_cli(capsys, "compare", "--alpha", "1", "--p", "1", "--q", "1e-200",
                                 "--mu", "0.01", "--k0", "1e8")
        assert (code, err) == (0, "")
        assert "21/21 trusted points" in out

    def test_no_trusted_point_past_zero_fails(self, capsys):
        # t = 0 is always trusted; this passed on it alone, comparing nothing
        code, out, err = run_cli(capsys, "compare", "--p", "1e-300", "--q", "1", "--mu", "0.5",
                                 "--k0", "1e-300", "--t-max", "50")
        assert (code, err) == (1, "")
        assert out == ("series (order 8) vs exact-classical: 1/21 trusted points, "
                       "max relative gap 0.000e+00 (tol 1.0e-03)\n")

    def test_oracle_underflow_names_the_time(self, capsys):
        # the exact k(t) underflows to 0.0 here: "float division by zero", exit 2
        code, out, err = run_cli(capsys, "compare", "--p", "1e-300", "--q", "1", "--mu", "0.5",
                                 "--k0", "5e-324", "--t-max", "2")
        assert (code, out) == (2, "")
        assert err == "error: oracle k(t) underflows to 0.0 at t=0.7: no relative gap\n"

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--t-max", "2.0", "--tol", "1e-16")
        assert code == 1

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tolerance_is_usage_error(self, capsys, tol):
        code, out, err = run_cli(capsys, "compare", "--alpha", "0.8", "--tol", tol)
        assert code == 2
        assert out == ""
        assert err == f"error: tol must be nonnegative and finite, got {float(tol)}\n"

    @pytest.mark.parametrize("tol, exit_code", [("1e-2", 0), ("1e-16", 1)])
    def test_tol_from_config_file_acts_like_the_flag(self, capsys, tmp_path, tol, exit_code):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"tol = {tol}\n")
        by_config = run_cli(capsys, "compare", "--t-max", "2.0", "--config", str(cfg))
        assert by_config == run_cli(capsys, "compare", "--t-max", "2.0", "--tol", tol)
        assert by_config[0] == exit_code

    def test_bad_tolerance_in_config_file_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol = -1\n")
        code, out, err = run_cli(capsys, "compare", "--alpha", "0.8", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == "error: tol must be nonnegative and finite, got -1.0\n"

    @pytest.mark.parametrize("command", ["compare", "solve"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--samples", "0", "samples must be at least 2, got 0"),
        ("--samples", "1", "samples must be at least 2, got 1"),
        ("--t-max", "0", "t_max must be positive, got 0.0"),
    ])
    def test_degenerate_grid_is_usage_error(self, capsys, command, flag, value, message):
        code, out, err = run_cli(capsys, command, "--alpha", "0.8", flag, value)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    # A finite t_max whose last grid time overflows: rows at t = inf, marked
    # trusted by the exact method, until the grid refused it.
    @pytest.mark.parametrize("argv, samples", [
        (["solve", "--t-max", "1e308"], 41),
        (["solve", "--t-max", "1e307", "--method", "exact"], 41),
        (["compare", "--alpha", "0.8", "--t-max", "1e307"], 21),
        (["sweep", "--preset", "fig-ktq", "--t-max", "1e308"], 41),
    ])
    def test_overflowing_grid_is_usage_error(self, capsys, argv, samples):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        t_max = float(argv[argv.index("--t-max") + 1])
        assert err == f"error: t_max * (samples - 1) overflows: t_max={t_max}, samples={samples}\n"


class TestOutputPaths:
    """An output path that is a directory, or whose directory does not exist,
    is refused before any work."""

    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "--preset", "fig-ktq", "--out", "{missing}/x.csv"], "--out"),
        (["equilibria", "--out", "{missing}/r.json"], "--out"),
        (["solve", "--out", "{missing}/s.csv"], "--out"),
        (["sweep", "--preset", "fig-ktq", "--out", "{tmp}/ok.csv",
          "--gnuplot-script", "{missing}/g.gp"], "--gnuplot-script"),
        (["sweep", "--preset", "fig-ktq", "--out", "{tmp}/ok.csv",
          "--gnuplot-script", "{tmp}"], "--gnuplot-script"),
        (["equilibria", "--out", "{tmp}"], "--out"),
    ])
    def test_unwritable_path_exits_2_and_writes_nothing(self, capsys, tmp_path, monkeypatch,
                                                         argv, flag):
        def no_work(*args, **kwargs):
            raise AssertionError("the command ran")

        for name in ("run_sweep", "run_solve"):
            monkeypatch.setattr(f"solowfrac.sweep.{name}", no_work)
        monkeypatch.setattr("solowfrac.equilibrium.find_equilibria", no_work)
        missing = tmp_path / "missing"
        argv = [arg.format(missing=missing, tmp=tmp_path) for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        path = argv[argv.index(flag) + 1]
        problem = "is a directory" if path == str(tmp_path) else "does not exist"
        assert err.startswith(f"error: {flag}: ") and repr(path) in err and problem in err
        assert list(tmp_path.iterdir()) == []

    # The script replaced the CSV (and then plotted itself) or the sidecar, exit 0.
    @pytest.mark.parametrize("script", ["a.csv", "./a.csv", "{tmp}/a.csv", "a.csv.meta.json",
                                        "./a.csv.meta.json"])
    def test_script_over_the_csv_or_sidecar_exits_2(self, capsys, tmp_path, monkeypatch, script):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("solowfrac.sweep.run_sweep", lambda *args: pytest.fail("the sweep ran"))
        script = script.format(tmp=tmp_path)
        code, out, err = run_cli(capsys, "sweep", "--preset", "fig-ktq", "--out", "a.csv",
                                 "--gnuplot-script", script)
        assert (code, out) == (2, "")
        assert err == f"error: --gnuplot-script: {script!r} is the --out CSV or its sidecar\n"
        assert list(tmp_path.iterdir()) == []


class TestEmptyPaths:
    """An empty path is refused before any work, with the flag named; it was
    read as no path (the CSV went to stdout, no config file was read)."""

    @pytest.mark.parametrize("argv, flag", [
        (["solve", "--samples", "2", "--out", ""], "--out"),
        (["solve", "--samples", "2", "--out="], "--out"),
        (["solve", "--samples", "2", "--config", ""], "--config"),
        (["equilibria", "--out", ""], "--out"),
        (["verify", "--config="], "--config"),
        (["sweep", "--preset", "fig-ktq", "--out", "", "--gnuplot-script", "g.gp"], "--out"),
        (["sweep", "--preset", "fig-ktq", "--out", "{tmp}/g.csv", "--gnuplot-script", ""],
         "--gnuplot-script"),
    ])
    def test_empty_path_exits_2_and_writes_nothing(self, capsys, tmp_path, argv, flag):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert run_cli(capsys, *argv) == (2, "", f"error: {flag}: empty path\n")
        assert list(tmp_path.iterdir()) == []


class TestTinyAlpha:
    @pytest.mark.parametrize("argv", [
        ["solve", "--method", "abm", "--alpha", "1e-300", "--samples", "3"],
        ["compare", "--alpha", "1e-300"],
        ["solve", "--method", "abm", "--alpha", "1e-308", "--samples", "2", "--t-max", "1"],
    ])
    def test_alpha_near_zero_runs(self, capsys, argv):
        # a Lanczos ln Gamma(alpha) divided by zero for alpha below ~1.1e-16
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert err == ""

    @pytest.mark.parametrize("command", [["solve", "--method", "abm"], ["compare"]])
    def test_abm_step_weight_overflow_is_named(self, capsys, command):
        # A predictor's step weight h**alpha / alpha overflowed below alpha ~ 5.6e-309
        # and was named as an error.  The solved corrector has no such weight, so no
        # overflow is left to name: both commands run, every point trusted.
        code, out, err = run_cli(capsys, *command, "--alpha", "1e-310", "--samples", "2", "--t-max", "1")
        assert (code, err) == (0, "")
        if command[0] == "compare":
            assert out.startswith("series (order 8) vs abm-fractional: 2/2 trusted points")
        else:
            assert [line.split(",")[2] for line in out.splitlines()[1:]] == ["true", "true"]

    def test_abm_at_alpha_1e_310_solves_the_alpha_0_limit(self, capsys):
        # As alpha -> 0 the corrector's factor h^alpha / Gamma(alpha + 2) -> 1 and
        # every memory weight -> 0, so each k_n (n >= 1) is the root of
        # k - k0 = f(k).  A predictor's step weight h^alpha / alpha overflowed here.
        code, out, err = run_cli(capsys, "solve", "--method", "abm", "--alpha", "1e-310",
                                 "--samples", "5", "--t-max", "1")
        assert (code, err) == (0, "")
        p, q, mu, k0 = (REFERENCE_PARAMS.p, REFERENCE_PARAMS.q, REFERENCE_PARAMS.mu,
                        REFERENCE_PARAMS.k0)
        with mp.workdps(30):
            root = float(mp.findroot(lambda k: k - k0 - (p * k ** mp.mpf(mu) - q * k), k0))
        values = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert values[0] == k0
        for k in values[1:]:  # measured: 1.5e-16
            assert abs(k - root) <= 4e-16 * root


ALL_FLAGS = sorted({"--" + key.replace("_", "-") for kinds in FLAG_KINDS.values() for key in kinds})
# Values each kind takes, among them negative numbers argparse reads as values.
GOOD = {float: ["0.5", "2", "1e-3", "nan", "inf", "-5", "-.5", " 7 ", "1_000"],
        int: ["3", "65", "0", "-5", " 7 ", "1_000"], str: ["o.csv", "", "-", "-5", "x y"]}
# Values of every kind, valid or not: among them negative numbers argparse refuses
# (-1e-3, -5.), choices, and flags in value position.
ANY_VALUES = ["0.5", "2", "abc", "2.5", "", "-", "-5", "-.5", "-2.5", "-1e-3", "-5.", "-inf", "-x",
          "--p", "--t", "-h", "series", "abm", "alpha", "fig-ktq", "fig", "o.csv"]
HELP_TOKENS = ["-h", "--help", "--he"]
PATH_KEYS = ["config", "out", "gnuplot_script"]


@st.composite
def command_lines(draw):
    """Command lines near valid ones: flags of the subcommand with values of their
    kind, unknown flags, prefixes, the = form, missing and stray values, help."""
    command = draw(st.sampled_from([*SUMMARY, *SUMMARY, "bogus", "solv", "-h", "--he", "--p"]))
    argv = [] if draw(st.integers(0, 15)) == 0 else [command]
    kinds = FLAG_KINDS.get(command, {})
    for _ in range(draw(st.integers(0, 5))):
        if kinds and draw(st.integers(0, 2)):  # a flag of this subcommand and a value of its kind
            key = draw(st.sampled_from(sorted(kinds)))
            flag = "--" + key.replace("_", "-")
            if key in PATH_KEYS and draw(st.integers(0, 3)) == 0:  # the empty-path branch
                value = ""
            else:
                value = draw(st.sampled_from(choices(key) or GOOD.get(kinds[key], [""])))
            forms = [[flag], [flag]] if kinds[key] is bool else [[flag, value], [f"{flag}={value}"]]
        else:
            flag = draw(st.sampled_from(ALL_FLAGS + ["--bogus", "--", "-x"]))
            value = draw(st.sampled_from(ANY_VALUES))
            forms = [[flag, value], [f"{flag}={value}"], [flag], [value],
                     [draw(st.sampled_from(HELP_TOKENS + ["-hx", "--help=1"]))]]
        if draw(st.integers(0, 3)) == 0:  # a prefix, unique or not
            cut = draw(st.integers(3, max(3, len(flag))))
            forms = [[part[:cut] if part == flag else part.replace(flag, flag[:cut], 1)
                      for part in form] for form in forms]
        argv += draw(st.sampled_from(forms))
    return argv


def reference_parse(argv):
    """argparse's reading of a command line: its settings, or its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            namespace = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code
    values = {key: value for key, value in vars(namespace).items()
              if key != "command" and value is not None and value is not False}
    return namespace.command, values


def readable(parsed):
    command, values = parsed
    return command, {key: repr(value) for key, value in values.items()}  # repr: nan == nan


class TestParser:
    """`cli.parse_args` against the argparse parser it replaced (`build_parser`)."""

    @settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(command_lines())
    def test_same_settings_or_usage_error_as_argparse(self, argv):
        expected = reference_parse(argv)
        if expected == 2:
            with pytest.raises(ValueError):
                parse_args(argv)
            with contextlib.redirect_stderr(io.StringIO()) as err:
                assert main(argv) == 2
            assert err.getvalue().startswith("error: ")
            return
        if expected != 0 and "" in map(expected[1].get, PATH_KEYS):
            # Deliberate difference: an empty path is refused; argparse took it.
            with pytest.raises(ValueError, match=r"^--[a-z-]+: empty path$"):
                parse_args(argv)
            return
        out, script = map((expected[1] if expected != 0 else {}).get, ("out", "gnuplot_script"))
        if out and script and realpath(script) in (realpath(out), realpath(out + ".meta.json")):
            # Deliberate difference: a script path that would overwrite the CSV
            # or its sidecar is refused; argparse took it.
            with pytest.raises(ValueError, match=r"^--gnuplot-script: .* is the --out CSV"):
                parse_args(argv)
            return
        try:
            command, values = parse_args(argv)
        except ValueError:
            # Deliberate difference: help is shown only for a line that parses
            # without it; argparse stopped at the first -h.
            assert expected == 0
            with pytest.raises(ValueError):
                parse_args([arg for arg in argv if arg not in HELP_TOKENS])
            return
        if values.get("help"):
            assert expected == 0
        else:
            assert readable((command, values)) == readable(expected)

    @pytest.mark.parametrize("argv, expected", [
        (["sweep", "--axis", "q", "--axis-c", "3", "--axis-min=0.1", "--axis-max", "0.4"],
         ("sweep", {"axis": "q", "axis_count": 3, "axis_min": 0.1, "axis_max": 0.4})),
        (["solve", "--p", "-5", "--q=-.5", "--p", "0.7", "--meth", "both"],
         ("solve", {"p": 0.7, "q": -0.5, "method": "both"})),
        (["equilibria", "--j", "--json", "--o", "r.json"],
         ("equilibria", {"json": True, "out": "r.json"})),
        (["verify", "-h"], ("verify", {"help": True})),
        (["--he"], (None, {"help": True})),
    ])
    def test_examples(self, argv, expected):
        assert parse_args(argv) == expected

    @pytest.mark.parametrize("argv, message", [
        ([], "missing subcommand; choose from solve, sweep, equilibria, verify, compare"),
        (["solv"], "unknown subcommand 'solv'; choose from solve, sweep, equilibria, verify, "
                   "compare"),
        (["sweep", "--t", "1"], "ambiguous flag --t: could match --t-max, --t-count"),
        (["solve", "--bogus", "1"], "solve: unrecognized argument '--bogus'"),
        (["solve", "--p"], "--p expects a value"),
        (["solve", "--p", "-1e-3"], "--p expects a value"),
        (["solve", "--samples", "2.5"], "--samples: invalid int value '2.5'"),
        (["solve", "--meth", "x"], "--method: invalid choice 'x'; choose from series, abm, "
                                   "exact, both"),
        (["verify", "--json=1"], "--json takes no value, got '--json=1'"),
        (["compare", "0.5"], "compare: unrecognized argument '0.5'"),
    ])
    def test_usage_error_names_the_flag(self, capsys, argv, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            parse_args(argv)
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", SUMMARY)
    def test_help_lists_every_flag(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--help")
        assert (code, err) == (0, "")
        listed = {word.rstrip(",") for line in out.splitlines() for word in line.split()[:2]}
        subparser = build_parser()._subparsers._group_actions[0].choices[command]
        flags = {"--" + key.replace("_", "-") for key in FLAG_KINDS[command]}
        assert flags == set(subparser._option_string_actions) - {"-h", "--help"}
        assert flags | {"-h", "--help"} <= listed
        assert run_cli(capsys, command, "-h") == (0, out, "")

    def test_program_help(self, capsys):
        code, out, err = run_cli(capsys, "--help")
        assert (code, err) == (0, "")
        assert all(command in out for command in SUMMARY)
        assert run_cli(capsys, "-h") == (0, out, "")
