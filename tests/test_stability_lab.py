import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import serrinlab
from serrinlab import stability
from serrinlab.errors import BoundaryMinimum, GradientNotZeroAtZ, InvalidSpec, NotTorsion
from serrinlab.geometry import build_domain, radii_about
from serrinlab.meshfem import FemField, generate_mesh, solve_torsion_neumann
from serrinlab.stability import (
    argmin_point,
    deviations,
    family_domain,
    geometric_bounds_check,
    oscillation_bound_check,
    stability_sweep,
    strong_deviation_pipeline,
    sweep_member,
)


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
    assert (res.rho_i, res.rho_e) == radii_about(domain, res.z)


def test_argmin_translated_disk():
    dom = build_domain(1.0, [], center=(1.0, 1.0))
    u = solve_torsion_neumann(generate_mesh(dom, 0.05))
    res = argmin_point(u)
    assert np.linalg.norm(res.z - np.array([1.0, 1.0])) < 1e-6


def test_argmin_rejects_boundary_minimum(pdisk_neumann):
    # -u is lowest on the boundary
    with pytest.raises(BoundaryMinimum):
        argmin_point(FemField(pdisk_neumann.mesh, -pdisk_neumann.coeffs))


def test_argmin_rejects_flat_field(pdisk_mesh):
    # a constant has a zero Hessian: no Newton step, no minimum point
    with pytest.raises(NotTorsion):
        argmin_point(FemField(pdisk_mesh, np.ones(pdisk_mesh.n_nodes)))


_ELLIPSE_Z = (
    "from serrinlab.geometry import EllipseDomain; "
    "from serrinlab.meshfem import generate_mesh, solve_torsion_neumann; "
    "from serrinlab.stability import argmin_point; "
    "u = solve_torsion_neumann(generate_mesh(EllipseDomain(2.0, 1.0), 0.05)); "
    "print(*argmin_point(u).z.tolist())"
)


def test_argmin_independent_of_blas_threads():
    # the threads reorder rounding in u; z must follow u continuously
    src = str(Path(serrinlab.__file__).resolve().parents[1])
    zs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", _ELLIPSE_Z], env=env,
                             capture_output=True, text=True, check=True)
        zs.append(np.array([float(t) for t in out.stdout.split()]))
    assert np.abs(zs[0] - zs[1]).max() <= 1e-12, zs


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
    from serrinlab.geometry import EllipseDomain

    m = EllipseDomain(2.0, 1.0).measures
    rho_i, rho_e = radii_about(EllipseDomain(2.0, 1.0), (0.0, 0.0))
    slack = (rho_e + rho_i) - np.sqrt(m.area / np.pi)
    assert abs(slack - (3.0 - np.sqrt(2.0))) < 1e-6


def test_oscillation_bound_gradient_check(pdisk_neumann, monkeypatch):
    # the Newton step lands on the critical point of the recovered
    # derivatives, where grad u_h is O(h^2), not zero: a zero tolerance
    # must trip the check
    monkeypatch.setattr(stability, "GRAD_TOL", 0.0)
    with pytest.raises(GradientNotZeroAtZ):
        oscillation_bound_check(pdisk_neumann)


def test_oscillation_bound_perturbed(pdisk_neumann):
    rep = oscillation_bound_check(pdisk_neumann)
    assert rep.volume_term > 0
    assert rep.lemma53_ratio > 0
    assert rep.radii_slack >= 0
    assert rep.in_smallness_regime


# -- sweeps ------------------------------------------------------------------------------


def test_sweep_member_rigid_flag():
    rec = sweep_member(2, 0.0, 0.1)
    assert "rigid" in rec.flags
    assert rec.rho_gap <= 1e-10


def test_sweep_member_solves_once(monkeypatch):
    meshes, solves = [], []

    def meshing(domain, h):
        meshes.append(h)
        return generate_mesh(domain, h)

    def solving(mesh):
        solves.append(mesh)
        return solve_torsion_neumann(mesh)

    monkeypatch.setattr(stability, "generate_mesh", meshing)
    monkeypatch.setattr(stability, "solve_torsion_neumann", solving)
    rec = sweep_member(2, 0.05, 0.2)
    assert meshes == [0.1]
    assert len(solves) == 1
    assert rec.mesh_h == solves[0].h_max


def first_order(k, eps):
    """Closed forms to first order in eps for r = 1 + eps cos(k theta): the
    Neumann solution is r^2/2 - (eps/k) r^k cos(k theta) + O(eps^2), so its
    trace is 1/2 + eps (1 - 1/k) cos(k theta) and its tangential gradient
    -eps (k - 1) sin(k theta) on the boundary."""
    osc, grad_inf = 2 * eps * (1 - 1 / k), eps * (k - 1)
    # [sin(k s)]_alpha on the unit circle: |sin(k s) - sin(k t)| peaks at
    # 2 |sin(k d / 2)| over the pairs of arclength separation d <= pi
    d = np.linspace(1e-4, math.pi, 200_001)
    holder = float((2 * np.abs(np.sin(k * d / 2)) / d**stability.HOLDER_ALPHA).max())
    return {
        "rho_gap": 2 * eps,
        "delta_z": 1 - eps,
        "osc_gamma_u": osc,
        "grad_inf": grad_inf,
        "grad_l2": grad_inf * math.sqrt(math.pi),
        "tangential_norm": eps * math.sqrt(math.pi)
        * math.sqrt(3 * (1 - 1 / k) ** 2 + (k - 1) ** 2),
        "c1alpha_norm": osc + grad_inf + grad_inf * holder,
    }


@pytest.mark.parametrize("k", [2, 3, 4])
def test_sweep_member_matches_first_order_oracle(k):
    rel_err = {}
    for eps in (0.01, 0.005):
        rec = sweep_member(k, eps, 0.1)
        # each member is symmetric under y -> -y and a rotation by 2 pi / k,
        # so its minimum point is the centre
        assert np.linalg.norm(rec.z) <= 1e-12, (k, eps, rec.z)
        assert abs(rec.delta_z - (1 - eps)) <= 1e-12, (k, eps, rec.delta_z)
        measured = {"rho_gap": rec.rho_gap, "delta_z": rec.delta_z,
                    **rec.deviations.as_dict()}
        rel_err[eps] = {q: abs(measured[q] / v - 1)
                        for q, v in first_order(k, eps).items()}
        # the perturbation stretches the arclength of the Hoelder quotient by
        # O(eps), so that kind's first-order remainder is O(eps) relative
        tol = {"c1alpha_norm": eps}
        for q, err in rel_err[eps].items():
            assert err <= tol.get(q, 5e-3), (k, eps, q, err)
    # the remainder shrinks with eps; rho_gap and delta_z already sit at the
    # discretization floor (rho_gap stalls near 4e-7 at k = 4)
    for q in ("osc_gamma_u", "grad_inf", "grad_l2", "tangential_norm", "c1alpha_norm"):
        assert rel_err[0.005][q] < rel_err[0.01][q], (k, q)


def test_stability_sweep_mode2_coarse():
    result = stability_sweep(2, (0.0125, 0.025, 0.05, 0.1), h_target=0.1)
    fit = result.fits["uniform"]
    assert 0.85 <= fit.slope <= 1.3
    assert fit.r_squared >= 0.98
    assert fit.n_points == 4
    # one-sided linear bound with the single fitted constant
    for rec in result.records:
        assert rec.rho_gap <= result.c_fit * rec.deviations.uniform() * (1 + 1e-12)
    # gap grows with amplitude
    gaps = [r.rho_gap for r in result.records]
    assert all(b > a for a, b in zip(gaps, gaps[1:]))


def test_sweep_reproducible():
    # four amplitudes: the fewest a sweep accepts
    a = stability_sweep(2, (0.025, 0.05, 0.075, 0.1), h_target=0.1)
    b = stability_sweep(2, (0.025, 0.05, 0.075, 0.1), h_target=0.1)
    for ra, rb in zip(a.records, b.records):
        assert ra.rho_gap == rb.rho_gap
        assert ra.deviations.as_dict() == rb.deviations.as_dict()


@pytest.mark.parametrize(
    "mode, amplitudes",
    [
        (2, (0.0, 0.025, 0.05, 0.1)),
        (2, (-0.0125, -0.025, -0.05, -0.1)),
        (2, (0.025, 0.05, 0.05, 0.1)),
    ],
)
def test_sweep_rejects_unfittable_family(mode, amplitudes, monkeypatch):
    # rejected before any meshing; the CLI cases cover the mode and the count
    monkeypatch.setattr(stability, "generate_mesh", None)
    with pytest.raises(InvalidSpec):
        stability_sweep(mode, amplitudes, h_target=0.1)


def test_mode3_sweep_slope():
    result = stability_sweep(3, (0.025, 0.05, 0.075, 0.1), h_target=0.1)
    fit = result.fits["uniform"]
    assert 0.85 <= fit.slope <= 1.3


# -- strong-deviation pipeline -----------------------------------------------------------


def test_strong_deviation_disk(disk_mesh):
    rep = strong_deviation_pipeline(disk_mesh)
    assert rep.laplacian_residual <= 0.5
    assert rep.flux_deviation_l2 <= 1e-5


def test_strong_deviation_perturbed_scaling():
    # first-order oracle on r = 1 + eps cos(k theta): the flux deviation is
    # eps (k - 1) cos(k theta) + O(eps^2), so its L2 norm is eps (k - 1) sqrt(pi);
    # mode 1 translates the disk to first order, so there it is O(eps^2)
    amplitudes = (0.02, 0.01)
    for k in (1, 2, 3, 4):
        flux = [
            strong_deviation_pipeline(
                generate_mesh(family_domain(k, eps), 0.1)
            ).flux_deviation_l2
            for eps in amplitudes
        ]
        if k == 1:
            per_eps = [f / eps for f, eps in zip(flux, amplitudes)]
            assert per_eps[1] / per_eps[0] == pytest.approx(0.5, rel=0.01)
            continue
        err = [
            abs(f / (eps * (k - 1) * math.sqrt(math.pi)) - 1)
            for f, eps in zip(flux, amplitudes)
        ]
        assert err[0] <= 0.01 and err[1] < err[0]


def test_lemma53_ratio_bounded_across_sweep():
    ratios = []
    for eps in (0.0125, 0.025, 0.05, 0.1):
        dom = build_domain(1.0, [(2, eps, 0.0)])
        u = solve_torsion_neumann(generate_mesh(dom, 0.1))
        rep = oscillation_bound_check(u)
        assert np.isfinite(rep.lemma53_ratio) and rep.lemma53_ratio > 0
        ratios.append(rep.lemma53_ratio)
    assert max(ratios) / min(ratios) <= 5.0


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
