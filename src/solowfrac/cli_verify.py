"""`solowfrac verify`: the transform identity checks, as text or JSON."""

import sys

from .cli import _params


def run(flags, s) -> int:
    params = _params(s)
    from .transforms import run_all_verifications

    reports = run_all_verifications(params)
    passed = all(rep["passed"] for rep in reports)
    if flags.get("json"):
        from .jsontext import dumps

        sys.stdout.write(dumps({"params": params.as_dict(), "passed": passed,
                                "reports": reports}) + "\n")
        return 0 if passed else 1
    for rep in reports:
        sys.stdout.write(f"{'PASS' if rep['passed'] else 'FAIL'}  {rep['name']:<42s} "
                         f"max deviation {rep['max_deviation']:.3e} (tol {rep['tol']:.1e})\n")
    if passed:
        return 0
    sys.stdout.write("failing identities:\n")
    for rep in reports:
        for label, dev in rep["rows"]:
            if not dev <= rep["tol"]:  # NaN rows fail too
                sys.stdout.write(f"  {rep['name']}: {label} deviation {dev:.3e}\n")
    return 1
