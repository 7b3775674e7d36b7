"""Tests of the benchmark itself: `python -m pytest clibench -q`."""

import itertools
import json
import math
from pathlib import Path

import pytest

import bench_check
import bench_trace
import bench_workloads
import run


def _take(workload, seed, count=3):
    return list(itertools.islice(bench_workloads.rounds(workload, seed), count))


@pytest.mark.parametrize("workload", bench_workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    assert _take(workload, 7) == _take(workload, 7)
    assert _take(workload, 7) != _take(workload, 8)


def test_verify_alpha_spans_the_admissible_range():
    alphas = [float(r["argv"][r["argv"].index("--alpha") + 1])
              for rnd in _take("verify", 1, 100) for r in rnd]
    assert all(0 < a <= 1 for a in alphas)
    assert min(alphas) < 0.02 and max(alphas) > 0.98


def test_no_request_passes_jobs():
    for workload in bench_workloads.WORKLOADS:
        for rnd in _take(workload, 1):
            assert all("--jobs" not in r["argv"] for r in rnd)


def _write_sweep(tmp_path, rows, row_count=None):
    lines = [bench_check.SWEEP_HEADER] + [
        ",".join(["%.17g" % t, "%.17g" % a, "%.17g" % k, "true", m]) for t, a, k, m in rows]
    (tmp_path / "out.csv").write_text("\n".join(lines) + "\n")
    meta = {"row_count": len(rows) if row_count is None else row_count}
    (tmp_path / "out.csv.meta.json").write_text(json.dumps(meta))
    (tmp_path / "out.gp").write_text("splot 'out.csv'\n")


@pytest.fixture
def custom_sweep(tmp_path):
    """A correct classical q-sweep CSV written by the closed form."""
    base = {"p": 0.5, "q": 0.2, "mu": 1.0 / 3.0, "alpha": 1.0, "k0": 1.0}
    req = bench_workloads._custom_sweep(base, "q", (0.1, 0.4, 3), (2.0, 5), "series")
    rows = []
    for t in [i * 2.0 / 4 for i in range(5)]:
        for a in [0.1, 0.25, 0.4]:
            rows.append((t, a, bench_check.bernoulli_k(0.5, a, 1.0 / 3.0, 1.0, t), "series"))
    _write_sweep(tmp_path, rows)
    return req, rows


def test_checker_accepts_correct_sweep(custom_sweep, tmp_path):
    req, _ = custom_sweep
    assert bench_check.check(req, 0, "", "", tmp_path).ok


def test_checker_rejects_perturbed_k(custom_sweep, tmp_path):
    req, rows = custom_sweep
    t, a, k, m = rows[7]
    rows[7] = (t, a, k * 1.05, m)
    _write_sweep(tmp_path, rows)
    verdict = bench_check.check(req, 0, "", "", tmp_path)
    assert not verdict.ok and verdict.known_defect is None
    assert "trusted series rows off the oracle" in verdict.problems[0]


def test_checker_counts_late_trust_misses_as_the_known_defect(custom_sweep, tmp_path):
    req, rows = custom_sweep
    t, a, k, m = rows[-1]  # t = t_max
    rows[-1] = (t, a, k * 1.05, m)
    _write_sweep(tmp_path, rows)
    verdict = bench_check.check(req, 0, "", "", tmp_path)
    assert not verdict.ok and verdict.known_defect == "trusted-off-oracle"


def test_checker_rejects_dropped_row(custom_sweep, tmp_path):
    req, rows = custom_sweep
    _write_sweep(tmp_path, rows[:-1])
    verdict = bench_check.check(req, 0, "", "", tmp_path)
    assert not verdict.ok and verdict.known_defect is None


def test_checker_rejects_sidecar_mismatch(custom_sweep, tmp_path):
    req, rows = custom_sweep
    _write_sweep(tmp_path, rows, row_count=len(rows) + 1)
    assert not bench_check.check(req, 0, "", "", tmp_path).ok


def test_checker_rejects_nonzero_exit(custom_sweep, tmp_path):
    req, _ = custom_sweep
    verdict = bench_check.check(req, 1, "", "Traceback ...\nKeyError: 'x'\n", tmp_path)
    assert not verdict.ok and verdict.known_defect is None
    assert not bench_check.check(req, None, "", "", tmp_path).ok


def _verify_exit(alpha, message):
    req = {"cmd": "verify", "argv": ["verify", "--alpha", repr(alpha)], "expect": {}}
    return bench_check.check(req, 2, "", f"error: {message}\n", Path("."))


def test_checker_classifies_ml_domain_exit_as_known():
    below = "argument -104.6 below supported minimum -100.0"
    alpha_min = "negative arguments require alpha >= 0.3, got alpha=0.1"
    for alpha, message in ((0.9, below), (0.1, alpha_min)):
        verdict = _verify_exit(alpha, message)
        assert not verdict.ok and verdict.known_defect == "verify-ml-domain"


def test_checker_rejects_ml_domain_exit_outside_the_recorded_range():
    below = "argument -104.6 below supported minimum -100.0"
    for alpha, message in ((0.5, below), (0.5, "negative arguments require alpha >= 0.3")):
        verdict = _verify_exit(alpha, message)
        assert not verdict.ok and verdict.known_defect is None


def test_known_defects_are_kept_apart_from_failures():
    tally = run.Tally()
    known = bench_check.Verdict(["exit code 2"], "verify-ml-domain")
    new = bench_check.Verdict(["exit code 1"])
    for verdict in (bench_check.Verdict(), known, new):
        tally.add({"argv": ["verify"]}, {"scaled": 1.0, "wall": 1.0, "rss": 1.0}, verdict)
    assert (tally.attempted, tally.failed, tally.ok) == (3, 1, 1)
    assert tally.known == {"verify-ml-domain": 1}


def test_checker_both_compares_series_with_abm(tmp_path):
    base = {"p": 0.5, "q": 0.2, "mu": 1.0 / 3.0, "alpha": 0.8, "k0": 1.0}
    req = bench_workloads._custom_sweep(base, "q", (0.1, 0.4, 2), (1.0, 2), "both")
    rows = [(t, a, 1.0 + t, m) for t in (0.0, 1.0) for a in (0.1, 0.4)
            for m in ("series", "abm")]
    _write_sweep(tmp_path, rows)
    assert bench_check.check(req, 0, "", "", tmp_path).ok
    rows[-2] = (1.0, 0.4, 2.5, "series")
    _write_sweep(tmp_path, rows)
    assert not bench_check.check(req, 0, "", "", tmp_path).ok


def test_self_time_on_synthetic_tree():
    spans = [
        (0, 100, -1),  # root: children cover 10-40 and 50-70 -> self 50
        (10, 40, 0),   # child with its own child 20-30 -> self 20
        (20, 30, 1),
        (50, 70, 0),
        (60, 65, 0),   # overlaps its sibling: counted once
    ]
    assert bench_trace.self_times(spans) == [50, 20, 10, 20, 5]


def test_tail_percentile_leaves_ten_samples_beyond():
    values = list(range(1, 41))
    value, pct, n = run.tail(values)
    assert n == 40 and value == 30 and pct == 75.0
    assert sum(v > value for v in values) == 10


def test_bernoulli_closed_form_solves_the_ode():
    p, q, mu, k0, t, h = 0.7, 0.3, 0.4, 1.5, 1.2, 1e-5
    k = bench_check.bernoulli_k(p, q, mu, k0, t)
    slope = (bench_check.bernoulli_k(p, q, mu, k0, t + h)
             - bench_check.bernoulli_k(p, q, mu, k0, t - h)) / (2 * h)
    assert math.isclose(slope, p * k ** mu - q * k, rel_tol=1e-8)
    assert bench_check.bernoulli_k(p, q, mu, k0, 0.0) == pytest.approx(k0, rel=1e-15)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench_workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == bench_workloads.WHY
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, *_rest) in run.PER_LAYER.items()}
    assert {m["name"]: m["better"] for m in spec["per_layer"]} == {
        name: better for name, (_unit, better, *_rest) in run.PER_LAYER.items()}
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {name: unit for name, (unit, _better) in run.END_TO_END.items()}
