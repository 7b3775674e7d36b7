"""Output checks for one benchmark request.

The checker shares no code with the program: the grids, the method order
and the classical closed form are written out here from the CLI's
documented behaviour.  `check` returns a `Verdict`; every problem makes the
request's output wrong.  `known_defect` names a wrong output that matches one
of the two defects recorded for the baseline, so a run can tell them from new
ones: the run reports the known ones apart (in `ok_frac` and its notes) and
counts only the others as failed.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

SWEEP_HEADER = "t,axis,k,trusted,method"
SOLVE_HEADER = "t,k,trusted,method"
REL_TOL = 1e-2  # the acceptance gate's relative tolerance
GRID_TOL = 1e-12
# A trust-flag failure counts as the known defect (ROADMAP Open item 4: the
# last-term rule trusts points past the series' reach) while every offending
# row lies in the last quarter of the time grid, where truncation error
# peaks.  Offending rows earlier than that mean the series values moved.
KNOWN_TRUST_FROM = 0.75
# A verify exit counts as the known Mittag-Leffler domain defect only with
# its message and in the alpha range where the baseline shows it: below
# ML_ALPHA_MIN_NEG = 0.3, negative arguments are refused; in [0.85, 1) the
# argument falls below -ML_Z_MAX_NEG (seen at 0.88-0.98).  The same exit at
# any other alpha is a new failure.
_ML_DOMAIN = (
    (re.compile(r"negative arguments require alpha"), 0.0, 0.3),
    (re.compile(r"below supported minimum"), 0.85, 1.0),
)


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    known_defect: str | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def bernoulli_k(p: float, q: float, mu: float, k0: float, t: float) -> float:
    """Classical (alpha = 1) solution through v = k**(1 - mu)."""
    e = 1.0 - mu
    v = p / q + (k0 ** e - p / q) * math.exp(-q * e * t)
    return v ** (1.0 / e)


def _grid(t_max: float, count: int) -> list[float]:
    return [i * t_max / (count - 1) for i in range(count)]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= GRID_TOL * max(1.0, abs(b))


def _second_method(alpha: float, axis: str | None) -> str:
    return "exact" if alpha == 1.0 and axis != "alpha" else "abm"


def _parse_rows(text: str, header: str) -> list[list[str]]:
    lines = text.rstrip("\n").split("\n")
    if lines[0] != header:
        raise ValueError(f"header {lines[0]!r}, expected {header!r}")
    width = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != width for r in rows):
        raise ValueError("row with the wrong number of fields")
    return rows


def _accuracy(verdict: Verdict, rows: list[tuple], params_of) -> None:
    """Trusted series rows against the closed form (alpha = 1) or ABM rows.

    `rows` are (t, axis, k, trusted, method); `params_of(axis)` gives the
    model parameters of a row.
    """
    abm = {(t, a): k for t, a, k, _, m in rows if m == "abm"}
    t_max = max(t for t, *_ in rows)
    trusted = off = early = 0
    worst = 0.0
    for t, a, k, ok, m in rows:
        if m != "series" or not ok:
            continue
        prm = params_of(a)
        if prm["alpha"] == 1.0:
            ref = bernoulli_k(prm["p"], prm["q"], prm["mu"], prm["k0"], t)
        elif (t, a) in abm:
            ref = abm[(t, a)]
        else:
            continue
        trusted += 1
        err = abs(k - ref) / abs(ref) if math.isfinite(k) else math.inf
        if not err <= REL_TOL:
            off += 1
            early += t < KNOWN_TRUST_FROM * t_max
            worst = max(worst, err)
    if off:
        verdict.problems.append(
            f"{off}/{trusted} trusted series rows off the oracle by more than "
            f"{REL_TOL:g} (worst {worst:.3e})")
        if not early and len(verdict.problems) == 1:
            verdict.known_defect = "trusted-off-oracle"


def _check_sweep(verdict: Verdict, exp: dict, workdir: Path) -> None:
    csv_path = workdir / "out.csv"
    rows = _parse_rows(csv_path.read_text(), SWEEP_HEADER)
    base, axis = exp["base"], exp["axis"]
    lo, hi, count = exp["axis_range"]
    step = (hi - lo) / (count - 1)
    axis_values = [lo + i * step for i in range(count)]
    times = _grid(*exp["t_range"])
    methods = ["series"] if exp["method"] == "series" else (
        ["series", _second_method(base["alpha"], axis)])
    want = [(t, a, m) for t in times for a in axis_values for m in methods]
    if len(rows) != len(want):
        verdict.problems.append(f"{len(rows)} rows, expected {len(want)}")
        return
    parsed = []
    for r, (t, a, m) in zip(rows, want):
        row = (float(r[0]), float(r[1]), float(r[2]), r[3] == "true", r[4])
        if not (_close(row[0], t) and _close(row[1], a) and row[4] == m):
            verdict.problems.append(f"row {r} does not match t={t!r} axis={a!r} method={m}")
            return
        parsed.append((t, a) + row[2:])
    meta = json.loads((workdir / "out.csv.meta.json").read_text())
    if meta.get("row_count") != len(rows):
        verdict.problems.append(f"sidecar row_count {meta.get('row_count')} != {len(rows)}")
    if not (workdir / "out.gp").stat().st_size:
        verdict.problems.append("empty gnuplot script")
    _accuracy(verdict, parsed, lambda a: {**base, axis: a})


def _check_solve(verdict: Verdict, exp: dict, workdir: Path) -> None:
    rows = _parse_rows((workdir / "out.csv").read_text(), SOLVE_HEADER)
    params = exp["params"]
    times = _grid(exp["t_max"], exp["samples"])
    methods = [exp["method"]] if exp["method"] != "both" else (
        ["series", _second_method(params["alpha"], None)])
    want = [(t, m) for t in times for m in methods]
    if len(rows) != len(want):
        verdict.problems.append(f"{len(rows)} rows, expected {len(want)}")
        return
    parsed = []
    for r, (t, m) in zip(rows, want):
        if not (_close(float(r[0]), t) and r[3] == m):
            verdict.problems.append(f"row {r} does not match t={t!r} method={m}")
            return
        parsed.append((t, 0.0, float(r[1]), r[2] == "true", m))
    _accuracy(verdict, parsed, lambda _a: params)


def _check_equilibria(verdict: Verdict, exp: dict, stdout: str) -> None:
    prm = exp["params"]
    report = json.loads(stdout)
    k_star = (prm["p"] / prm["q"]) ** (1.0 / (1.0 - prm["mu"]))
    if not abs(report["k_star"] - k_star) <= 1e-9 * k_star:
        verdict.problems.append(f"k_star {report['k_star']!r}, expected {k_star!r}")


def check(req: dict, returncode: int | None, stdout: str, stderr: str,
          workdir: Path) -> Verdict:
    """Verdict on one finished request; `returncode` None means it timed out."""
    verdict = Verdict()
    if returncode is None:
        verdict.problems.append("timed out")
        return verdict
    if returncode != 0:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        verdict.problems.append(f"exit code {returncode}: {last}")
        if req["cmd"] == "verify" and returncode == 2:
            alpha = float(req["argv"][req["argv"].index("--alpha") + 1])
            if any(pattern.search(stderr) and lo <= alpha < hi
                   for pattern, lo, hi in _ML_DOMAIN):
                verdict.known_defect = "verify-ml-domain"
        return verdict
    try:
        if req["cmd"] == "sweep":
            _check_sweep(verdict, req["expect"], workdir)
        elif req["cmd"] == "solve":
            _check_solve(verdict, req["expect"], workdir)
        elif req["cmd"] == "equilibria":
            _check_equilibria(verdict, req["expect"], stdout)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        verdict.problems.append(f"unreadable output: {exc!r}")
        verdict.known_defect = None
    return verdict
