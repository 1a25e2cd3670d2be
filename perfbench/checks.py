"""Correctness checks on the reports of each workload's invocation.

Each check reads the report files in a CLI output directory and returns a
list of problems; an empty list means the reports are right.  They compare
against closed forms or properties the method must have, never against a
stored copy of earlier output.
"""

import csv
import json
import math

# Closed forms below hold in these reports to roundoff and geometric
# quadrature accuracy (largest deviation seen: 3e-8 relative, on the
# Richardson-extrapolated radii gap).  1e-6 admits any reformulation of the
# same numerics and rejects a wrong measure, point or gauge.
CLOSED_FORM_RTOL = 1e-6
# Slack band of ``serrinlab check-bounds``: bounds may fail by discretization
# error, not by more.
SLACK_BAND = 1e-3

ELLIPSE = (2.0, 1.0)
SWEEP_AMPLITUDES = (0.0125, 0.025, 0.05, 0.1)
SWEEP_SLOPE = (0.85, 1.3)
SWEEP_R2_MIN = 0.98
CONVERGENCE_H = (0.1, 0.05, 0.025)
POINTWISE_DIMS = (2, 3, 4, 5)
POINTWISE_DEGREE = 4
POINTWISE_CASES = 20


def _number(value):
    """value as a finite float, or None (non-finite values are written as strings)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value) if math.isfinite(value) else None


def _close(problems, label, value, expected):
    got = _number(value)
    if got is None or abs(got - expected) > CLOSED_FORM_RTOL * abs(expected):
        problems.append(f"{label} = {value!r}, expected {expected!r}")


def _read_json(out, name, problems):
    try:
        with open(out / name) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"cannot read {name}: {exc}")
        return None


def _read_csv(out, name, problems):
    try:
        with open(out / name, newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError as exc:
        problems.append(f"cannot read {name}: {exc}")
        return None


def check_bounds_ellipse(out):
    """check-bounds on the ellipse x^2/a^2 + y^2/b^2 < 1, minimum point 0."""
    problems = []
    data = _read_json(out, "bounds.json", problems)
    if data is None:
        return problems
    a, b = ELLIPSE
    try:
        geo, osc, l2 = data["geometric"], data["oscillation"], data["l2_bound"]
        # smallest radius of curvature of the ellipse
        _close(problems, "geometric.r_i", geo["r_i"], b * b / a)
        # distance from the centre to the boundary
        _close(problems, "geometric.delta_z", geo["delta_z"], b)
        # (rho_e + rho_i) - sqrt(|Omega| / pi) about the centre
        _close(problems, "oscillation.radii_slack", osc["radii_slack"],
               (a + b) - math.sqrt(a * b))
        # mean of |x|^2/2 over the ellipse; u has zero mean in this gauge
        _close(problems, "l2_bound.h_mean_volume", l2["h_mean_volume"],
               (a * a + b * b) / 8.0)
        slacks = {
            "geometric.quadratic_slack_min": geo["quadratic_slack_min"],
            "geometric.linear_slack_min": geo["linear_slack_min"],
            "geometric.remark_slack": geo["remark_slack"],
            "oscillation.radii_slack": osc["radii_slack"],
            "l2_bound.slack": l2["slack"],
        }
    except (KeyError, TypeError) as exc:
        return problems + [f"bounds.json lacks {exc}"]
    for label, value in slacks.items():
        got = _number(value)
        if got is None or got < -SLACK_BAND:
            problems.append(f"{label} = {value!r} < -{SLACK_BAND}")
    return problems


def check_sweep_mode2(out):
    """sweep over r = 1 + eps cos 2theta: the minimum point is the centre by
    symmetry, so rho_i = 1 - eps, rho_e = 1 + eps and delta_z = 1 - eps."""
    problems = []
    rows = _read_csv(out, "sweep_records.csv", problems)
    fits = _read_json(out, "exponent_fits.json", problems)
    if rows is None or fits is None:
        return problems
    try:
        eps = [float(r["epsilon"]) for r in rows]
        if eps != list(SWEEP_AMPLITUDES):
            return [f"epsilon column {eps}, expected {list(SWEEP_AMPLITUDES)}"]
        for r, e in zip(rows, eps):
            _close(problems, f"rho_gap at eps={e}", float(r["rho_gap"]), 2.0 * e)
            _close(problems, f"delta_z at eps={e}", float(r["delta_z"]), 1.0 - e)
    except (KeyError, TypeError, ValueError) as exc:
        return problems + [f"sweep_records.csv: {exc!r}"]
    fit = fits.get("uniform") if isinstance(fits, dict) else None
    if not isinstance(fit, dict):
        return problems + ["exponent_fits.json has no uniform fit"]
    slope, r2 = _number(fit.get("slope")), _number(fit.get("r_squared"))
    if slope is None or not SWEEP_SLOPE[0] <= slope <= SWEEP_SLOPE[1]:
        problems.append(f"uniform slope {fit.get('slope')!r} outside {SWEEP_SLOPE}")
    if r2 is None or r2 < SWEEP_R2_MIN:
        problems.append(f"uniform r_squared {fit.get('r_squared')!r} < {SWEEP_R2_MIN}")
    if fit.get("n_points") != len(SWEEP_AMPLITUDES):
        problems.append(f"uniform fit over {fit.get('n_points')!r} points")
    return problems


def sweep_cells_numeric(out):
    """Every cell of the numeric columns (all but ``flags``) of
    sweep_records.csv parses as a number."""
    problems = []
    rows = _read_csv(out, "sweep_records.csv", problems)
    for i, row in enumerate(rows or []):
        for key, cell in row.items():
            if key == "flags":
                continue
            try:
                float(cell)
            except (TypeError, ValueError):
                problems.append(f"row {i} {key} = {cell!r} is not a number")
    return problems


def check_identity_pdisk(out):
    """Identity (1.9) converges: residuals fall at every level, order >= 1."""
    problems = []
    data = _read_json(out, "convergence.json", problems)
    if data is None:
        return problems
    try:
        levels = data["levels"]
        hs = [lv["h"] for lv in levels]
        res = [_number(lv["rel_residual"]) for lv in levels]
        order, flag = data["fitted_order"], data["flag"]
    except (KeyError, TypeError) as exc:
        return problems + [f"convergence.json lacks {exc}"]
    if hs != list(CONVERGENCE_H):
        problems.append(f"levels at h = {hs}, expected {list(CONVERGENCE_H)}")
    if None in res or any(r <= 0 for r in res):
        problems.append(f"rel_residual not all positive numbers: {res}")
    elif any(fine >= coarse for coarse, fine in zip(res, res[1:])):
        problems.append(f"rel_residual does not strictly decrease: {res}")
    if flag is not None:
        problems.append(f"flag = {flag!r}; the perturbed disk is neither rigid nor exact")
    if _number(order) is None or order < 1.0:
        problems.append(f"fitted_order = {order!r} < 1")
    return problems


def check_pointwise_poly(out, seed):
    """Every symbolic case of every dimension has an exactly zero residual."""
    problems = []
    rows = _read_csv(out, "pointwise_identity.csv", problems)
    if rows is None:
        return problems
    expected = [
        (str(n), str(POINTWISE_DEGREE), str(seed + c))
        for n in POINTWISE_DIMS for c in range(POINTWISE_CASES)
    ]
    got = [(r.get("N"), r.get("degree"), r.get("seed")) for r in rows]
    if got != expected:
        problems.append(f"{len(rows)} rows do not cover N x cases = {len(expected)}")
    for r in rows:
        if r.get("residual_is_zero") != "True" or r.get("spot_residual") != "0":
            problems.append(f"nonzero residual in row {r}")
    return problems
