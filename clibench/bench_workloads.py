"""Seeded request generators for the CLI benchmark.

Each workload is an endless sequence of rounds.  A round is a fixed mix of
requests (say, one per preset); the runner always finishes the round it is
in, so a run is a whole number of rounds.  The costliest kind of request in
a mix (custom sweeps in `figures`, 2048-step solves in `oracle-check`) makes
up about a fifth of it, so that the tail percentile of a run, which leaves
ten samples above it, falls inside that kind's spread, not at its edge.

Every drawn parameter follows its own golden-ratio (Weyl) sequence over its
range, started at a point drawn from `random.Random(seed)`.  Any run of
consecutive requests then covers each range evenly, so the mix of cheap and
costly requests, and of requests that hit a known defect, changes little
from seed to seed, while no range is narrowed.

A request is a plain dict: `cmd`, the `argv` handed to the program, and the
`expect` fields the checker needs.  Output paths in `argv` are relative; the
program runs with the benchmark's work directory as its cwd.  No request
passes `--jobs`.
"""

from __future__ import annotations

import random

# The CLI's figure presets, as the checker must see them: reference base
# (p=0.5, q=0.2, mu=1/3, k0=1), t in [0, 2] with 41 points, 21 axis values,
# order 5.
_REF = {"p": 0.5, "q": 0.2, "mu": 1.0 / 3.0, "alpha": 1.0, "k0": 1.0}
PRESETS = {
    "fig-ktq": ({**_REF}, "q", (0.1, 0.4, 21)),
    "fig-ktp": ({**_REF}, "p", (0.2, 1.0, 21)),
    "fig-ktmu": ({**_REF}, "mu", (0.1, 0.9, 21)),
    "fig-ktq-frac": ({**_REF, "alpha": 0.8}, "q", (0.1, 0.4, 21)),
    "fig-ktalpha": ({**_REF, "alpha": 0.8}, "alpha", (0.3, 1.0, 21)),
}
PRESET_T_RANGE = (2.0, 41)
AXIS_RANGES = {"p": (0.2, 1.0), "q": (0.1, 0.4), "mu": (0.1, 0.9), "alpha": (0.3, 1.0)}

WHY = {
    "figures": "the paper's headline output: five fig-* series sweeps at order 5 plus custom "
               "sweeps, solves and equilibria; start-up bound, so import and emission show",
    "oracle-check": "ABM-dominated: both-method sweeps and compare at alpha<1 (~280 steps) "
                    "mixed with long 2048-step ABM solves, so a change must win at both lengths",
    "verify": "transform-identity suite over the whole alpha range (0, 1]: quadrature, "
              "Mittag-Leffler and gamma calls with a cold cache in every process",
    "high-order": "series sweeps and compare at order 32-64, where the O(N^3) Miller prefix "
                  "dominates; the same series layer as figures with costly builds",
}

# The box every workload draws its model parameters from.
PARAM_BOX = {"p": (0.3, 0.8), "q": (0.1, 0.3), "mu": (0.2, 0.5), "k0": (0.5, 2.0)}
# What else each workload draws, and the fixed mix of one round.
BOXES = {
    "figures": {
        **PARAM_BOX, "solve alpha": "1 or (0.5, 1), alternating by the sequence",
        "t_max": (1.0, 2.0), "custom sweep axis": "p, q, mu or alpha over AXIS_RANGES",
        "axis_count": (11, 31), "t_count": (21, 61), "solve samples": (21, 81),
        "round": "5 presets, 2 custom series sweeps, 2 series solves, 1 equilibria --json",
    },
    "oracle-check": {
        **PARAM_BOX, "alpha": (0.5, 0.95), "compare t_max": (0.3, 1.0),
        "round": "fig-ktq-frac and fig-ktalpha --method both, 1 custom both sweep on q, "
                 "2 compare --tol 1e-2, 2 solve --method abm --samples 2049 --t-max 2",
    },
    "verify": {
        **PARAM_BOX, "alpha": "(0, 1], one in each eighth per round",
        "round": "8 verify requests",
    },
    "high-order": {
        **PARAM_BOX, "order": (32, 64), "compare alpha": "1 for one, (0.5, 0.95) for the other",
        "round": "5 presets as series sweeps at drawn orders, 2 compare --tol 1e-2 --t-max 0.5",
    },
}

WORKLOADS = tuple(WHY)
_GOLDEN = (5 ** 0.5 - 1) / 2


def _fmt(x: float) -> str:
    return f"{x:.4f}"


class _Draws:
    """One golden-ratio sequence per named parameter, each from a seeded start."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.state = {}

    def unit(self, key: str) -> float:
        x = self.state.get(key)
        x = self.rng.random() if x is None else (x + _GOLDEN) % 1.0
        self.state[key] = x
        return x

    def uniform(self, key: str, lo: float, hi: float) -> float:
        """Value in [lo, hi], rounded to the 4 decimals that reach the program."""
        return float(_fmt(lo + (hi - lo) * self.unit(key)))

    def integer(self, key: str, lo: int, hi: int) -> int:
        return lo + int(self.unit(key) * (hi - lo + 1))

    def params(self, alpha: float = 1.0) -> dict:
        out = {key: self.uniform(key, *PARAM_BOX[key]) for key in ("p", "q", "mu", "k0")}
        out["alpha"] = alpha
        return out


def _param_argv(params: dict) -> list[str]:
    argv = []
    for key in ("p", "q", "mu", "alpha", "k0"):
        argv += [f"--{key}", repr(params[key])]
    return argv


def _preset_sweep(name: str, order: int | None, method: str = "series") -> dict:
    base, axis, axis_range = PRESETS[name]
    argv = ["sweep", "--preset", name, "--out", "out.csv", "--gnuplot-script", "out.gp"]
    if order is not None:
        argv += ["--order", str(order)]
    if method != "series":
        argv += ["--method", method]
    return {"cmd": "sweep", "argv": argv, "expect": {
        "base": base, "axis": axis, "axis_range": list(axis_range),
        "t_range": list(PRESET_T_RANGE), "method": method}}


def _custom_sweep(base: dict, axis: str, axis_range, t_range, method: str) -> dict:
    lo, hi, count = axis_range
    t_max, t_count = t_range
    argv = ["sweep", *_param_argv(base), "--axis", axis, "--axis-min", repr(lo),
            "--axis-max", repr(hi), "--axis-count", str(count), "--t-max", repr(t_max),
            "--t-count", str(t_count), "--method", method,
            "--out", "out.csv", "--gnuplot-script", "out.gp"]
    return {"cmd": "sweep", "argv": argv, "expect": {
        "base": base, "axis": axis, "axis_range": [lo, hi, count],
        "t_range": [t_max, t_count], "method": method}}


def _solve(params: dict, t_max: float, samples: int, method: str) -> dict:
    argv = ["solve", *_param_argv(params), "--t-max", repr(t_max),
            "--samples", str(samples), "--method", method, "--out", "out.csv"]
    return {"cmd": "solve", "argv": argv, "expect": {
        "params": params, "t_max": t_max, "samples": samples, "method": method}}


def _compare(params: dict, t_max: float, order: int | None = None) -> dict:
    argv = ["compare", *_param_argv(params), "--t-max", repr(t_max), "--tol", "1e-2"]
    if order is not None:
        argv += ["--order", str(order)]
    return {"cmd": "compare", "argv": argv, "expect": {}}


def _figures(d: _Draws):
    box = BOXES["figures"]
    while True:
        reqs = [_preset_sweep(name, None) for name in PRESETS]
        for _ in range(2):
            axis = tuple(AXIS_RANGES)[d.integer("axis", 0, 3)]
            lo, hi = AXIS_RANGES[axis]
            reqs.append(_custom_sweep(
                d.params(), axis, (lo, hi, d.integer("axis_count", *box["axis_count"])),
                (d.uniform("t_max", *box["t_max"]), d.integer("t_count", *box["t_count"])),
                "series"))
        for _ in range(2):
            alpha = 1.0 if d.unit("solve kind") < 0.5 else d.uniform("alpha", 0.5, 0.9999)
            reqs.append(_solve(d.params(alpha), d.uniform("t_max", *box["t_max"]),
                               d.integer("samples", *box["solve samples"]), "series"))
        params = d.params()
        reqs.append({"cmd": "equilibria", "argv": ["equilibria", *_param_argv(params), "--json"],
                     "expect": {"params": params}})
        yield reqs


def _oracle_check(d: _Draws):
    box = BOXES["oracle-check"]
    while True:
        reqs = [_preset_sweep("fig-ktq-frac", None, "both"),
                _preset_sweep("fig-ktalpha", None, "both"),
                _custom_sweep(d.params(d.uniform("alpha", *box["alpha"])), "q",
                              (0.1, 0.4, 21), PRESET_T_RANGE, "both")]
        for _ in range(2):
            reqs.append(_compare(d.params(d.uniform("alpha", *box["alpha"])),
                                 d.uniform("t_max", *box["compare t_max"])))
        for _ in range(2):
            reqs.append(_solve(d.params(d.uniform("alpha", *box["alpha"])), 2.0, 2049, "abm"))
        yield reqs


def _verify(d: _Draws):
    strata = 8
    while True:
        # One alpha in each eighth of (0, 1], at an offset that moves from
        # round to round, so every round has the same mix of cheap failing
        # and costly passing alphas.  1 - x maps [0, 1) onto (0, 1]; four
        # decimals must not round to 0.
        offset = d.unit("alpha")
        yield [{"cmd": "verify", "argv": ["verify", *_param_argv(
                    d.params(max(float(_fmt(1.0 - (j + offset) / strata)), 1e-4)))],
                "expect": {}} for j in range(strata)]


def _high_order(d: _Draws):
    lo, hi = BOXES["high-order"]["order"]
    while True:
        reqs = [_preset_sweep(name, d.integer(f"order {name}", lo, hi)) for name in PRESETS]
        reqs.append(_compare(d.params(), 0.5, d.integer("order compare", lo, hi)))
        reqs.append(_compare(d.params(d.uniform("alpha", 0.5, 0.95)), 0.5,
                             d.integer("order compare frac", lo, hi)))
        yield reqs


_GENERATORS = {"figures": _figures, "oracle-check": _oracle_check, "verify": _verify,
               "high-order": _high_order}


def rounds(workload: str, seed: int):
    """Endless deterministic sequence of rounds (lists of requests) for one workload."""
    return _GENERATORS[workload](_Draws(random.Random(f"{workload}:{seed}")))
