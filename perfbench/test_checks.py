"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest perfbench/test_checks.py -q

Each check accepts a report that satisfies its closed forms and rejects one
deliberately wrong report.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402


def _write_json(out, name, data):
    (out / name).write_text(json.dumps(data))


def _write_csv(out, name, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in r) for r in rows]
    (out / name).write_text("\n".join(lines) + "\n")


# -- bounds-ellipse ------------------------------------------------------------

def _bounds_report(**change):
    report = {
        "geometric": {"quadratic_slack_min": 0.0, "linear_slack_min": 0.0,
                      "remark_slack": 1.4, "delta_z": 1.0, "grad_sup": 1.4,
                      "r_i": 0.5},
        "oscillation": {"radii_slack": 3.0 - math.sqrt(2.0), "osc_h": 0.8},
        "l2_bound": {"slack": 2.9, "h_mean_volume": 0.625},
    }
    for path, value in change.items():
        section, key = path.split("__")
        report[section][key] = value
    return report


def test_bounds_ellipse_accepts_closed_forms(tmp_path):
    _write_json(tmp_path, "bounds.json", _bounds_report())
    assert checks.check_bounds_ellipse(tmp_path) == []


@pytest.mark.parametrize("change", [
    {"geometric__r_i": 0.25},                 # 1/kappa_max of the wrong axis
    {"geometric__delta_z": 0.999},            # minimum point off the centre
    {"oscillation__radii_slack": 1.5},
    {"l2_bound__h_mean_volume": 0.6},         # wrong gauge of u
    {"l2_bound__slack": -0.01},
    {"geometric__remark_slack": "nan"},       # non-finite values are strings
])
def test_bounds_ellipse_rejects_wrong_report(tmp_path, change):
    _write_json(tmp_path, "bounds.json", _bounds_report(**change))
    assert checks.check_bounds_ellipse(tmp_path)


def test_missing_report_is_rejected(tmp_path):
    assert checks.check_bounds_ellipse(tmp_path)
    assert checks.check_identity_pdisk(tmp_path)
    assert checks.check_sweep_mode2(tmp_path)
    assert checks.check_pointwise_poly(tmp_path, 0)


# -- sweep-mode2 ---------------------------------------------------------------

SWEEP_HEADER = ["epsilon", "rho_gap", "z_x", "z_y", "delta_z", "flags"]


def _sweep(tmp_path, gap=lambda e: 2 * e, z=repr(0.0), slope=1.0, r2=0.9999):
    rows = [[e, gap(e), z, z, 1 - e, ""] for e in checks.SWEEP_AMPLITUDES]
    _write_csv(tmp_path, "sweep_records.csv", SWEEP_HEADER, rows)
    _write_json(tmp_path, "exponent_fits.json",
                {"uniform": {"slope": slope, "intercept": 0.0, "r_squared": r2,
                             "n_points": 4}})


def test_sweep_accepts_closed_forms(tmp_path):
    _sweep(tmp_path)
    assert checks.check_sweep_mode2(tmp_path) == []
    assert checks.sweep_cells_numeric(tmp_path) == []


@pytest.mark.parametrize("kw", [
    {"gap": lambda e: 2 * e + 1e-4},
    {"slope": 1.5},
    {"r2": 0.9},
])
def test_sweep_rejects_wrong_report(tmp_path, kw):
    _sweep(tmp_path, **kw)
    assert checks.check_sweep_mode2(tmp_path)


def test_sweep_cells_reject_numpy_repr(tmp_path):
    _sweep(tmp_path, z="np.float64(0.0)")
    assert checks.check_sweep_mode2(tmp_path) == []
    assert len(checks.sweep_cells_numeric(tmp_path)) == 2 * len(checks.SWEEP_AMPLITUDES)


# -- identity-pdisk ------------------------------------------------------------

def _convergence(tmp_path, residuals=(9e-4, 2e-4, 5e-5), order=2.0, flag=None):
    levels = [{"h": h, "rel_residual": r, "abs_residual": -r, "scale": 1.0}
              for h, r in zip(checks.CONVERGENCE_H, residuals)]
    _write_json(tmp_path, "convergence.json",
                {"levels": levels, "fitted_order": order, "flag": flag})


def test_identity_accepts_converging_residuals(tmp_path):
    _convergence(tmp_path)
    assert checks.check_identity_pdisk(tmp_path) == []


@pytest.mark.parametrize("kw", [
    {"residuals": (9e-4, 2e-4, 2e-4)},
    {"order": 0.9},
    {"order": None},
    {"flag": "converged"},
])
def test_identity_rejects_wrong_report(tmp_path, kw):
    _convergence(tmp_path, **kw)
    assert checks.check_identity_pdisk(tmp_path)


# -- pointwise-poly ------------------------------------------------------------

POINTWISE_HEADER = ["N", "degree", "seed", "residual_is_zero", "spot_residual"]


def _pointwise_rows(seed):
    return [[n, checks.POINTWISE_DEGREE, seed + c, True, 0]
            for n in checks.POINTWISE_DIMS for c in range(checks.POINTWISE_CASES)]


def test_pointwise_accepts_zero_residuals(tmp_path):
    _write_csv(tmp_path, "pointwise_identity.csv", POINTWISE_HEADER, _pointwise_rows(7))
    assert checks.check_pointwise_poly(tmp_path, 7) == []


def test_pointwise_rejects_wrong_report(tmp_path):
    rows = _pointwise_rows(7)
    rows[41][3:] = [False, "1/3"]
    _write_csv(tmp_path, "pointwise_identity.csv", POINTWISE_HEADER, rows)
    assert checks.check_pointwise_poly(tmp_path, 7)
    _write_csv(tmp_path, "pointwise_identity.csv", POINTWISE_HEADER, _pointwise_rows(7)[:79])
    assert checks.check_pointwise_poly(tmp_path, 7)


# -- tracer --------------------------------------------------------------------

def test_self_time_subtracts_children():
    spans = [
        ["serrinlab.stability:geometric_bounds_check", 0.0, 10.0, -1],
        ["serrinlab.stability:argmin_point", 1.0, 4.0, 0],
        ["serrinlab.geometry:distances_to_boundary", 2.0, 3.0, 1],
        ["serrinlab.cli:Run.write_json", 11.0, 11.5, -1],
    ]
    m = tracer.layer_metrics(spans, {"polycheck.cases": 0}, wall_s=12.0)
    assert m["stability.bounds_s"] == 7.0
    assert m["stability.argmin_s"] == 2.0
    assert m["geometry.distance_s"] == 1.0
    assert m["cli.report_s"] == 0.5
    assert m[tracer.UNATTRIBUTED] == 1.5


def test_tracer_wraps_every_binding():
    import serrinlab.cli  # noqa: F401  (binds the CLI's names too)
    import serrinlab.geometry as geometry
    import serrinlab.stability as stability

    t = tracer.Tracer()
    assert t.install() == []
    try:
        domain = geometry.build_domain(1.0, [(2, 0.05, 0.0)])
        stability.distances_to_boundary(domain, [[0.0, 0.0], [0.1, 0.0]])
        geometry.measures(domain)
        geometry.measures(domain)
    finally:
        for name in list(sys.modules):   # drop the wrapped modules
            if name.startswith("serrinlab"):
                del sys.modules[name]
    names = [s[0] for s in t.spans]
    assert names.count("serrinlab.geometry:distances_to_boundary") == 1
    assert t.counts["geometry.distance_points"] == 2
    assert t.counts["geometry.measures_calls"] == 1
