"""Checks of osclab's output files against references computed here.

Nothing in this module imports osclab: the limit constant, the slope
constants and the gradient energy of the plateau bump are derived below
from their definitions, so a defect in the program's own constants or
quadrature cannot hide itself.

Every check returns a (name, passed, detail) triple; the driver counts each
one as an operation.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# c'_d, the mean of |x_1| over the unit ball of R^d
SLOPE_CONSTANT = {1: 0.5, 2: 4.0 / (3.0 * math.pi)}

# largest share of inconclusive verify cases (acceptance criterion 6)
MAX_INCONCLUSIVE_SHARE = 0.05

# Battery cases whose verdict depends on the seed: the sample maximum of
# the domination ratio moves by more than its 10 % tolerance when the
# sample grows on some seeds (README.md).  Their failures are reported but
# not counted, and so is the exit code 1 they cause.
SEED_DEPENDENT_CASES = {"ratio_stability_under_doubling"}


def taper_prime(s):
    """S'(s) = 30 s^2 (1 - s)^2 of the quintic taper S on [0, 1]."""
    return 30.0 * s * s * (1.0 - s) ** 2


def plateau_gradient_energy(d: int, amplitude: float, inner: float,
                            outer: float, p: int = 2) -> float:
    """Integral over R^d of |grad f|^p for the quintic plateau bump.

    |grad f| = |A| S'((rho - ri) / w) / w on the shell ri < rho < ro, so
    the integral is |S^(d-1)| w int_0^1 (|A| S'(s) / w)^p (ri + w s)^(d-1)
    ds.  The integrand is a polynomial of degree 4p + d - 1 in s, which a
    Gauss-Legendre rule of n nodes integrates exactly once 2n - 1 reaches
    that degree.
    """
    if int(p) != p or p < 1:
        raise ValueError("the exact rule needs an integer p >= 1")
    w = outer - inner
    n = (4 * int(p) + d - 1) // 2 + 1
    t, wt = np.polynomial.legendre.leggauss(n)
    s = 0.5 * (t + 1.0)
    integrand = ((abs(amplitude) * taper_prime(s) / w) ** p
                 * (inner + w * s) ** (d - 1))
    sphere = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    return sphere * w * 0.5 * float(wt @ integrand)


def limit_reference(d: int, p: int, amplitude: float, inner: float,
                    outer: float) -> float:
    """c_(d,p) * ||grad f||_p^p with c_(d,p) = (c'_d)^p / p."""
    c_dp = SLOPE_CONSTANT[d] ** p / p
    return c_dp * plateau_gradient_energy(d, amplitude, inner, outer, p)


def self_check() -> None:
    """The d = 1 reference in closed form: c_(1,2) * 40/7 = 5/7."""
    energy = plateau_gradient_energy(1, 1.0, 0.5, 1.0, 2)
    value = limit_reference(1, 2, 1.0, 0.5, 1.0)
    if abs(energy - 40.0 / 7.0) > 1e-12 or abs(value - 5.0 / 7.0) > 1e-12:
        raise AssertionError(
            f"reference self-check failed: energy {energy!r}, "
            f"limit {value!r}")


# ---------------------------------------------------------------------------
# curve outputs
# ---------------------------------------------------------------------------

def read_curve_csv(path: Path) -> dict:
    """Columns of curve.csv as float lists, keyed by header name."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    return {name: [float(r[i]) for r in body]
            for i, name in enumerate(header)}


def _finite_nonneg(values) -> bool:
    return bool(values) and all(math.isfinite(v) and v >= 0.0
                                for v in values)


def check_curve(out_dir: Path, dim: int, p: float, limit_tol: float,
                require_limit_ok: bool, plateau: dict) -> list:
    try:
        cols = read_curve_csv(out_dir / "curve.csv")
        summary = json.loads((out_dir / "curve.json").read_text())["summary"]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [("curve_outputs_readable", False, repr(exc))]

    ref = limit_reference(dim, int(p), plateau["amplitude"],
                          plateau["inner"], plateau["outer"])
    out = [("curve_outputs_readable", True, "")]

    lim = summary.get("limit_estimate")
    ok = isinstance(lim, float) and abs(lim - ref) <= limit_tol * ref
    rel = f"{lim / ref - 1.0:+.4f}" if isinstance(lim, float) else "none"
    out.append(("limit_within_tolerance", ok,
                f"limit {lim!r} against {ref!r}, relative error {rel} "
                f"(tolerance {limit_tol:g}), limit_ok "
                f"{summary.get('limit_ok')}"))

    if require_limit_ok:
        out.append(("limit_ok", summary.get("limit_ok") is True,
                    f"notes {summary.get('limit_notes')}"))

    theirs = summary.get("reference_value")
    ok = isinstance(theirs, float) and abs(theirs - ref) <= 1e-9 * ref
    out.append(("reference_matches", ok, f"{theirs!r} against {ref!r}"))

    kappa, nu = cols["kappa"], cols["nu"]
    ok = (len(kappa) >= 2
          and all(k1 < k0 for k0, k1 in zip(kappa, kappa[1:]))
          and all(n1 >= n0 for n0, n1 in zip(nu, nu[1:])))
    out.append(("nu_nondecreasing_as_kappa_falls", ok, ""))

    ok = all(math.isclose(s, k ** p * n, rel_tol=1e-12, abs_tol=1e-300)
             for k, n, s in zip(kappa, nu, cols["kappa_p_nu"]))
    out.append(("scaled_column_consistent", ok, "kappa_p_nu = kappa^p nu"))

    out.append(("nu_stderr_finite_nonnegative",
                _finite_nonneg(cols["nu_stderr"]), ""))
    out.append(("tail_bound_finite_nonnegative",
                _finite_nonneg(cols["tail_bound"]), ""))
    return out


# ---------------------------------------------------------------------------
# verify outputs
# ---------------------------------------------------------------------------

def _suite_dim(suite_name: str):
    for part in suite_name.replace("[", ":").replace("]", ":").split(":"):
        if part.startswith("d="):
            return int(part[2:])
    return None


def check_verify(out_dir: Path, exit_code: int) -> list:
    try:
        report = json.loads((out_dir / "verify.json").read_text())["report"]
        suites = report["reports"]
    except (OSError, ValueError, KeyError) as exc:
        return [("verify_output_readable", False, repr(exc))]
    out = [("verify_output_readable", True, "")]

    problems, tolerated = [], []
    for s in suites:
        fails = [c["name"] for c in s["cases"] if c["verdict"] == "fail"]
        if s["passed"] is not (not s["error"] and not fails):
            problems.append(f"{s['suite_name']}: passed flag disagrees")
        for name in fails:
            (tolerated if name in SEED_DEPENDENT_CASES
             else problems).append(f"{s['suite_name']}: {name}")
    every = all(s["passed"] is True for s in suites)
    if report["passed"] is not every or exit_code != (0 if every else 1):
        problems.append(f"report passed {report['passed']!r}, exit "
                        f"{exit_code}, suites passed {every}")
    out.append(("battery_cases_pass", not problems,
                f"{problems}; seed-dependent failures {tolerated}"))

    bad = [s["suite_name"] for s in suites if s["error"] or not s["cases"]]
    out.append(("suites_without_error_and_nonempty", bool(suites) and not bad,
                f"{bad}"))

    total = sum(len(s["cases"]) for s in suites)
    inconclusive = sum(1 for s in suites for c in s["cases"]
                       if c["verdict"] == "inconclusive")
    out.append(("inconclusive_share",
                total > 0 and inconclusive <= MAX_INCONCLUSIVE_SHARE * total,
                f"{inconclusive} of {total}"))

    seen = set()
    wrong = []
    for s in suites:
        for c in s["cases"]:
            if c["name"] != "slope_constant_identity":
                continue
            d = _suite_dim(s["suite_name"])
            claimed = c["inputs"]["claimed"]
            seen.add(d)
            if d not in SLOPE_CONSTANT or not (
                    abs(claimed - SLOPE_CONSTANT[d]) <= 1e-12):
                wrong.append((s["suite_name"], claimed))
    out.append(("slope_constants_match",
                seen >= set(SLOPE_CONSTANT) and not wrong,
                f"dimensions {sorted(seen)}, mismatches {wrong}"))
    return out
