"""`solowfrac equilibria`: fixed points and their stability, as a table or JSON."""

import sys

from .cli import _params, _write


def _render_equilibria_table(report, params) -> str:
    rows = [
        ("fixed point k = 0", "0", report["k_zero_stability"]),
        ("fixed point k* = (p/q)^(1/(1-mu))", "%.12g" % report["k_star"],
         report["k_star_stability"]),
        ("RHS derivative at k*", "%.12g" % report["derivative_at_star"], ""),
        ("inflection candidate (pmu/q)^(1/(1-mu))", "%.12g" % report["inflection_candidate"], ""),
    ]
    width = max(len(r[0]) for r in rows)
    lines = [f"equilibria for p={params.p:g} q={params.q:g} mu={params.mu:g}"]
    for name, val, note in rows:
        lines.append(f"  {name:<{width}s}  {val:>16s}  {note}")
    return "\n".join(lines)


def run(flags, s) -> int:
    from .equilibrium import find_equilibria

    params = _params(s)
    report = find_equilibria(params)
    out = flags.get("out")
    if flags.get("json") or out:
        from .jsontext import dumps

        text = dumps(report) + "\n"
    sys.stdout.write(text if flags.get("json") else _render_equilibria_table(report, params) + "\n")
    if out:
        _write(out, text)
    return 0
