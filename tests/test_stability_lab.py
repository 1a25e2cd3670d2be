import numpy as np
import pytest

from serrinlab.errors import GradientNotZeroAtZ, InvalidVariant
from serrinlab.geometry import build_domain, distances_to_boundary, radii_about
from serrinlab.meshfem import generate_mesh, solve_torsion_neumann
from serrinlab.stability import (
    argmin_point,
    deviations,
    geometric_bounds_check,
    loglog_fit,
    oscillation_bound_check,
    psi,
    stability_sweep,
    strong_deviation_pipeline,
    sweep_member,
)


# -- profile -------------------------------------------------------------------


def test_psi_values():
    assert psi(0.1, 2) == 0.1
    assert abs(psi(0.1, 3) - 0.1 * np.log(10.0)) < 1e-12
    assert abs(psi(0.01, 4, "improved") - 0.01**0.8) < 1e-12
    assert abs(psi(0.04, 5) - 0.04**0.5) < 1e-12


def test_psi_monotone():
    ts = np.linspace(1e-4, 0.99, 200)
    for N in (2, 3, 4, 6):
        vals = [psi(t, N) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))
    vals = [psi(t, 5, "improved") for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_psi_invalid_variant():
    with pytest.raises(InvalidVariant):
        psi(0.1, 2, "improved")
    with pytest.raises(InvalidVariant):
        psi(0.1, 3, "improved")


# -- minimum point ----------------------------------------------------------------


def test_argmin_disk(disk_neumann):
    res = argmin_point(disk_neumann)
    assert np.linalg.norm(res.z) < 1e-6


def test_argmin_perturbed_symmetric(pdisk_neumann):
    res = argmin_point(pdisk_neumann)
    assert np.linalg.norm(res.z) < 1e-3


def test_argmin_once_per_field_with_boundary_distance(pdisk_neumann):
    res = argmin_point(pdisk_neumann)
    assert argmin_point(pdisk_neumann) is res
    domain = pdisk_neumann.mesh.domain
    assert res.delta == distances_to_boundary(domain, res.z[None])[0]


def test_argmin_translated_disk():
    dom = build_domain(1.0, [], center=(1.0, 1.0))
    u = solve_torsion_neumann(generate_mesh(dom, 0.05))
    res = argmin_point(u)
    assert np.linalg.norm(res.z - np.array([1.0, 1.0])) < 1e-6


# -- deviations --------------------------------------------------------------------


def test_deviations_disk_rigid(disk_neumann):
    dev = deviations(disk_neumann)
    for v in dev.as_dict().values():
        assert v <= 1e-6


def test_deviations_dyadic_scaling():
    oscs = {}
    for eps in (0.025, 0.05):
        dom = build_domain(1.0, [(2, eps, 0.0)])
        u = solve_torsion_neumann(generate_mesh(dom, 0.1))
        oscs[eps] = deviations(u).osc_gamma_u
    ratio = oscs[0.05] / oscs[0.025]
    assert 1.7 <= ratio <= 2.3


def test_deviation_norm_ordering(pdisk_neumann):
    dev = deviations(pdisk_neumann)
    perim = pdisk_neumann.mesh.domain.measures.perimeter
    assert dev.grad_l2 <= np.sqrt(perim) * dev.grad_inf + 1e-12


def test_translation_equivariance():
    devs, gaps = [], []
    for center in ((0.0, 0.0), (1.0, 1.0)):
        dom = build_domain(1.0, [(2, 0.05, 0.0)], center=center)
        u = solve_torsion_neumann(generate_mesh(dom, 0.1))
        res = argmin_point(u)
        rho_i, rho_e = radii_about(dom, res.z)
        gaps.append(rho_e - rho_i)
        devs.append(deviations(u))
    assert abs(gaps[0] - gaps[1]) <= 1e-10
    for k, v in devs[0].as_dict().items():
        assert abs(v - devs[1].as_dict()[k]) <= 1e-10


# -- geometric bounds -----------------------------------------------------------------


def test_geometric_bounds_disk_dirichlet(disk_dirichlet):
    rep = geometric_bounds_check(disk_dirichlet)
    # the ball saturates both bounds (equality at the center)
    assert rep.quadratic_slack_min >= -1e-4
    assert abs(rep.quadratic_slack_min) <= 1e-4
    assert rep.linear_slack_min >= -1e-4
    assert rep.remark_slack >= -1e-6


def test_geometric_bounds_ellipse(ellipse_dirichlet):
    rep = geometric_bounds_check(ellipse_dirichlet)
    assert rep.quadratic_slack_min >= -1e-4
    assert rep.linear_slack_min >= -1e-4


def test_geometric_bounds_perturbed_neumann(pdisk_neumann):
    rep = geometric_bounds_check(pdisk_neumann)
    assert rep.quadratic_slack_min >= -1e-4
    assert rep.linear_slack_min >= -1e-4
    assert rep.remark_slack >= -1e-6


# -- oscillation bound diagnostics ------------------------------------------------------


def test_oscillation_bound_disk(disk_neumann):
    rep = oscillation_bound_check(disk_neumann)
    assert rep.osc_h <= 1e-6
    assert rep.weighted_hessian <= 1e-6
    assert rep.volume_term <= 1e-8
    assert rep.radii_slack >= 0.99  # 2 - sqrt(1) for the unit disk


def test_oscillation_bound_ellipse_slack():
    # factored radii inequality about the center: 3 >= sqrt(2)
    from serrinlab.geometry import EllipseDomain, measures

    m = measures(EllipseDomain(2.0, 1.0))
    rho_i, rho_e = radii_about(EllipseDomain(2.0, 1.0), (0.0, 0.0))
    slack = (rho_e + rho_i) - np.sqrt(m.area / np.pi)
    assert abs(slack - (3.0 - np.sqrt(2.0))) < 1e-6


def test_oscillation_bound_wrong_z(pdisk_neumann):
    with pytest.raises(GradientNotZeroAtZ):
        oscillation_bound_check(pdisk_neumann, z=(0.4, 0.1))


def test_oscillation_bound_perturbed(pdisk_neumann):
    rep = oscillation_bound_check(pdisk_neumann)
    assert rep.volume_term > 0
    assert rep.lemma53_ratio > 0
    assert rep.radii_slack >= 0
    assert rep.in_smallness_regime


# -- sweeps ------------------------------------------------------------------------------


def test_sweep_member_rigid_flag():
    rec = sweep_member(2, 0.0, 1.0, 0.1)
    assert "rigid" in rec.flags
    assert rec.rho_gap <= 1e-10


def test_stability_sweep_mode2_coarse():
    result = stability_sweep(2, (0.0125, 0.025, 0.05, 0.1), h_target=0.1)
    fit = result.fits["uniform"]
    assert 0.85 <= fit.slope <= 1.3
    assert fit.r_squared >= 0.98
    assert fit.n_points == 4
    # one-sided profile bound with the single fitted constant
    for rec in result.records:
        dev = rec.deviations.uniform()
        assert rec.rho_gap <= result.c_fit * psi(dev, 2) * (1 + 1e-12)
    # gap grows with amplitude
    gaps = [r.rho_gap for r in result.records]
    assert all(b > a for a, b in zip(gaps, gaps[1:]))


def test_sweep_reproducible():
    a = stability_sweep(2, (0.025, 0.05), h_target=0.1)
    b = stability_sweep(2, (0.025, 0.05), h_target=0.1)
    for ra, rb in zip(a.records, b.records):
        assert ra.rho_gap == rb.rho_gap
        assert ra.deviations.as_dict() == rb.deviations.as_dict()


def test_mode3_sweep_slope():
    result = stability_sweep(3, (0.025, 0.05, 0.075, 0.1), h_target=0.1)
    fit = result.fits["uniform"]
    assert 0.85 <= fit.slope <= 1.3


# -- strong-deviation pipeline -----------------------------------------------------------


def test_strong_deviation_disk(disk_neumann):
    rep = strong_deviation_pipeline(disk_neumann)
    assert rep.trace_residual <= 1e-10
    assert rep.laplacian_residual <= 0.5
    assert rep.flux_deviation_l2 <= 1e-5


def test_strong_deviation_perturbed_scaling():
    vals = []
    eps_grid = (0.025, 0.05, 0.1)
    for eps in eps_grid:
        dom = build_domain(1.0, [(2, eps, 0.0)])
        u = solve_torsion_neumann(generate_mesh(dom, 0.1))
        vals.append(strong_deviation_pipeline(u).flux_deviation_l2)
    slope, _, _ = loglog_fit(eps_grid, vals)
    assert abs(slope - 1.0) <= 0.2


def test_lemma53_ratio_bounded_across_sweep():
    ratios = []
    for eps in (0.0125, 0.025, 0.05, 0.1):
        dom = build_domain(1.0, [(2, eps, 0.0)])
        u = solve_torsion_neumann(generate_mesh(dom, 0.1))
        rep = oscillation_bound_check(u)
        assert np.isfinite(rep.lemma53_ratio) and rep.lemma53_ratio > 0
        ratios.append(rep.lemma53_ratio)
    assert max(ratios) / min(ratios) <= 5.0


def test_sweep_workers_match_serial():
    serial = stability_sweep(2, (0.05, 0.1), h_target=0.1, workers=1)
    parallel = stability_sweep(2, (0.05, 0.1), h_target=0.1, workers=2)
    for a, b in zip(serial.records, parallel.records):
        assert a.rho_gap == b.rho_gap
        assert a.deviations.as_dict() == b.deviations.as_dict()


def test_asymmetric_domain_pipeline():
    # sin modes break all reflection symmetry: the minimum sits away from
    # the center and every report stays consistent
    dom = build_domain(1.0, [(2, 0.03, 0.04), (3, 0.02, -0.02)])
    u = solve_torsion_neumann(generate_mesh(dom, 0.1))
    res = argmin_point(u)
    rho_i, rho_e = radii_about(dom, res.z)
    assert rho_e > rho_i > 0
    dev = deviations(u)
    assert dev.osc_gamma_u > 0
    gb = geometric_bounds_check(u)
    assert gb.quadratic_slack_min >= -1e-4
    ob = oscillation_bound_check(u)
    assert ob.radii_slack >= 0
