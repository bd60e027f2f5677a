"""Output-correctness gate for the benchmark's CLI operations.

Every threshold comes from the library itself: verify residual thresholds
from ``liepoisson.tolerances``, the midpoint drift bound from the
integrator's own Newton tolerance.  ``check`` returns ``None`` for a good
output and a one-line reason otherwise.
"""

from __future__ import annotations

import io
import json

import numpy as np

from liepoisson import tolerances
from liepoisson.integrators import IntegratorConfig

# The threshold each verify check must meet; the benchmark's configs name
# no thresholds, so these are the ones the CLI applies.
VERIFY_THRESHOLDS = {
    "structure": tolerances.VERIFICATION_TOL,
    "compatibility": tolerances.COMPATIBILITY_PASS,
    "predual_closure": tolerances.VERIFICATION_TOL,
    "exactness": tolerances.SUBSPACE_TOL,
    "dual_map": tolerances.VERIFICATION_TOL,
    "wstar_split": tolerances.CONSTRUCTION_TOL,
}


def drift_bound(method: str, steps: int) -> float:
    """Largest allowed relative drift of H and of each Casimir.

    midpoint conserves quadratic invariants up to the Newton tolerance
    per step; RK4 does not conserve them, and is allowed the verification
    tolerance per step.
    """
    if method == "midpoint":
        return steps * IntegratorConfig().newton_tol
    return steps * tolerances.VERIFICATION_TOL


def check_verify(text: str, code: int) -> str | None:
    if code != 0:
        return f"exit code {code}"
    report = json.loads(text)
    if report.get("passed") is not True or not report.get("checks"):
        return "report not passed"
    for chk in report["checks"]:
        limit = VERIFY_THRESHOLDS[chk["name"]]
        for key, value in chk["residuals"].items():
            if not abs(value) < limit:
                return f"{chk['name']}.{key} = {value:.3e} not under {limit:.1e}"
    return None


def check_bracket_table(text: str, code: int) -> str | None:
    if code != 0:
        return f"exit code {code}"
    table = json.loads(text)
    verdict = table.get("compatibility", {}).get("verdict")
    if verdict != "pass":
        return f"compatibility verdict {verdict!r}"
    if not table.get("dim"):
        return "empty table"
    return None


def check_simulate(text: str, code: int, steps: int, method: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    header, _, body = text.partition("\n")
    cols = header.split(",")
    rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if rows.shape != (steps + 1, len(cols)):
        return f"CSV shape {rows.shape}, expected {(steps + 1, len(cols))}"
    if not np.all(np.isfinite(rows)):
        return "non-finite CSV entry"
    bound = drift_bound(method, steps)
    for k in range(cols.index("H"), len(cols)):
        s = rows[:, k]
        drift = float(np.max(np.abs(s - s[0]))) / max(1.0, abs(float(s[0])))
        if not drift <= bound:
            return f"{cols[k]} drifted {drift:.3e} > {bound:.1e}"
    return None


def check(command: str, text: str, code: int, steps: int = 0, method: str = "") -> str | None:
    try:
        if command == "verify":
            return check_verify(text, code)
        if command == "bracket-table":
            return check_bracket_table(text, code)
        return check_simulate(text, code, steps, method)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
