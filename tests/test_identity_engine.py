import numpy as np
import pytest
from hypothesis import given, settings

from conftest import ExactParaboloid, delta_p, domain_or_reject, domain_specs, shifted
from serrinlab.errors import NotDirichlet, NotNeumann, NotTorsion
from serrinlab.geometry import build_domain, radii_about
from serrinlab.identities import (
    RIGIDITY_TOL,
    eval_classical_identity,
    eval_general_identity,
    eval_mother_identity,
    eval_neumann_identity,
)
from serrinlab.meshfem import (
    _check_residual,
    assemble_stiffness,
    boundary_load_vector,
    generate_mesh,
    lumped_mass,
    neumann_flux,
    solve_harmonic_dirichlet,
    solve_torsion_dirichlet,
    solve_torsion_neumann,
)

ELLIPSE_LHS = 0.72 * 4 * np.pi / 5  # 18/25 * volume moment of the torsion field


# -- P function ---------------------------------------------------------------


def test_p_function_disk(disk_dirichlet, disk_neumann):
    for f in (disk_dirichlet, disk_neumann):
        dP = delta_p(f)
        interior = np.linalg.norm(f.mesh.nodes, axis=1) < 0.8
        assert np.abs(dP[interior]).max() <= 1e-6


def test_p_function_ellipse(ellipse_dirichlet):
    dP = delta_p(ellipse_dirichlet)
    nodes = ellipse_dirichlet.mesh.nodes
    interior = (nodes[:, 0] / 2) ** 2 + nodes[:, 1] ** 2 < 0.7
    assert np.abs(dP[interior] - 0.72).max() < 1e-3


def test_p_function_positivity_interior(pdisk_neumann):
    dP = delta_p(pdisk_neumann)
    nodes = pdisk_neumann.mesh.nodes
    interior = np.linalg.norm(nodes, axis=1) < 0.8 * pdisk_neumann.mesh.domain.radius(
        np.arctan2(nodes[:, 1], nodes[:, 0])
    )
    assert dP[interior].min() >= -1e-6


# -- general identity -------------------------------------------------------------


def test_general_disk_rigid_terms(disk_dirichlet):
    rep = eval_general_identity(disk_dirichlet, disk_dirichlet)
    t = rep.terms
    for name in ("volume_p", "volume_cross", "surface_hessian_flux",
                 "surface_flux", "surface_compat"):
        assert abs(t[name]) <= 1e-6, name
    assert abs(t["surface_energy"] + t["surface_mixed"]) <= 1e-6
    assert abs(rep.abs_residual) <= 1e-6


def test_general_cross_solutions_ellipse(ellipse_mesh, ellipse_dirichlet):
    v = solve_torsion_neumann(ellipse_mesh)
    rep = eval_general_identity(ellipse_dirichlet, v)
    assert rep.rel_residual <= 5e-3


def test_general_perturbed_neumann(pdisk_neumann):
    rep = eval_general_identity(
        pdisk_neumann, ExactParaboloid(pdisk_neumann.mesh, (0.0, 0.0))
    )
    assert rep.rel_residual <= 5e-3


def test_general_rejects_harmonic(disk_mesh, disk_dirichlet):
    w = solve_harmonic_dirichlet(
        disk_mesh, disk_mesh.nodes[disk_mesh.boundary_idx, 0]
    )
    with pytest.raises(NotTorsion):
        eval_general_identity(disk_dirichlet, w)


# -- mother identity -----------------------------------------------------------------


def test_mother_disk_rigid(disk_dirichlet):
    rep_a, rep_b = eval_mother_identity(disk_dirichlet, (0.0, 0.0))
    for name, val in rep_b.terms.items():
        assert abs(val) <= 1e-6, name
    assert abs(rep_a.abs_residual) <= 1e-6


def test_mother_forms_agree(ellipse_dirichlet, pdisk_neumann):
    for f, z in ((ellipse_dirichlet, (0.0, 0.0)), (pdisk_neumann, (0.1, -0.05))):
        rep_a, rep_b = eval_mother_identity(f, z)
        assert abs(rep_a.abs_residual - rep_b.abs_residual) <= 1e-10
        assert rep_a.lhs == rep_b.lhs


def test_mother_ellipse_oracle(ellipse_dirichlet):
    rep_a, _ = eval_mother_identity(ellipse_dirichlet, (0.0, 0.0))
    assert abs(rep_a.lhs - ELLIPSE_LHS) <= 5e-3 * ELLIPSE_LHS
    assert rep_a.rel_residual <= 5e-3


def test_general_specializes_to_mother(ellipse_dirichlet, pdisk_neumann):
    for f, z in ((ellipse_dirichlet, (0.0, 0.0)), (pdisk_neumann, (0.05, 0.02))):
        rep_a, _ = eval_mother_identity(f, z)
        rep_g = eval_general_identity(f, ExactParaboloid(f.mesh, z))
        assert abs(rep_g.lhs - rep_a.lhs) <= 1e-10
        assert abs(rep_g.rhs - rep_a.rhs) <= 1e-10
        assert abs(rep_g.abs_residual - rep_a.abs_residual) <= 1e-10


# -- constant-flux identity --------------------------------------------------------------


def test_neumann_disk_rigid(disk_neumann):
    rep = eval_neumann_identity(disk_neumann, (0.0, 0.0))
    for name, val in rep.terms.items():
        assert abs(val) <= 1e-6, name


def test_neumann_perturbed(pdisk_neumann):
    rep = eval_neumann_identity(pdisk_neumann, (0.0, 0.0))
    assert rep.rel_residual <= 1e-2
    assert rep.extras["osc_u_nu"] < 1e-2


def test_neumann_term_hierarchy(pdisk_neumann):
    # with u nearly constant on the curve, the curvature-flux term dominates;
    # the |grad_G u|^2 terms are an O(eps) relative correction
    rep = eval_neumann_identity(pdisk_neumann, (0.0, 0.0))
    t = rep.terms
    small = abs(t["surface_tangential_flux"]) + abs(t["surface_curvature_tangential"])
    assert small <= 0.15 * abs(rep.rhs)


def test_neumann_rejects_dirichlet(ellipse_dirichlet):
    with pytest.raises(NotNeumann):
        eval_neumann_identity(ellipse_dirichlet, (0.0, 0.0))


def test_neumann_gauge_shift(pdisk_neumann):
    rep = eval_neumann_identity(pdisk_neumann, (0.0, 0.0))
    moved = shifted(pdisk_neumann, 17.3)
    rep2 = eval_neumann_identity(moved, (0.0, 0.0))
    assert abs(rep.abs_residual - rep2.abs_residual) <= 1e-12
    for k in rep.terms:
        assert abs(rep.terms[k] - rep2.terms[k]) <= 1e-12


# -- constant-trace identity ----------------------------------------------------------------


def test_classical_disk_rigid(disk_dirichlet):
    rep = eval_classical_identity(disk_dirichlet, (0.0, 0.0))
    assert abs(rep.lhs) <= 1e-6
    assert abs(rep.rhs) <= 1e-6


def test_classical_ellipse_oracle(ellipse_dirichlet):
    rep = eval_classical_identity(ellipse_dirichlet, (0.0, 0.0))
    assert abs(rep.lhs - ELLIPSE_LHS) <= 0.01 * ELLIPSE_LHS
    assert rep.rel_residual <= 5e-3


def test_classical_translation_symmetry(ellipse_dirichlet):
    # on the centered ellipse the flux defect is even in both coordinates, so
    # shifting z along either axis leaves the right-hand side unchanged
    base = eval_classical_identity(ellipse_dirichlet, (0.0, 0.0))
    for z in ((0.3, 0.0), (0.0, 0.2)):
        rep = eval_classical_identity(ellipse_dirichlet, z)
        assert abs(rep.rhs - base.rhs) <= 1e-8


def test_classical_rejects_neumann(pdisk_neumann):
    with pytest.raises(NotDirichlet):
        eval_classical_identity(pdisk_neumann, (0.0, 0.0))


def test_classical_reduction_chain(ellipse_dirichlet):
    # residual(general, v=q) == residual(classical) - R^2/2 * flux_balance
    rep_c = eval_classical_identity(ellipse_dirichlet, (0.0, 0.0))
    rep_g = eval_general_identity(
        ellipse_dirichlet, ExactParaboloid(ellipse_dirichlet.mesh, (0.0, 0.0))
    )
    R = neumann_flux(ellipse_dirichlet.mesh)
    bridged = rep_c.abs_residual - 0.5 * R**2 * rep_c.terms["flux_balance"]
    assert abs(rep_g.abs_residual - bridged) <= 1e-10
    assert rep_c.extras["R"] == R


def test_flux_datum_converges_to_continuum_R(disk_mesh, pdisk_mesh, ellipse_mesh):
    # R_h = 2|Omega_h| / |Gamma_h| against the continuum 2|Omega| / |Gamma|:
    # within 1e-10 at h = 0.1, falling at least 8x when h halves
    for fine in (disk_mesh, pdisk_mesh, ellipse_mesh):
        R = fine.domain.measures.R
        coarse = generate_mesh(fine.domain, 0.1)
        err_coarse = abs(neumann_flux(coarse) - R) / R
        err_fine = abs(neumann_flux(fine) - R) / R
        assert err_coarse <= 1e-10
        assert err_fine <= err_coarse / 8


# -- rigidity ----------------------------------------------------------------------------------


def _sphere_deviation(field, z):
    rho_i, rho_e = radii_about(field.mesh.domain, z)
    return rho_e - rho_i


def test_rigidity_disk(disk_neumann):
    rep = eval_neumann_identity(disk_neumann, (0.0, 0.0))
    assert abs(rep.rhs) <= 1e-6
    assert rep.lhs <= RIGIDITY_TOL
    assert _sphere_deviation(disk_neumann, (0.0, 0.0)) <= 1e-10
    assert rep.extras["rigidity_holds"] is True


def test_rigidity_perturbed(pdisk_neumann):
    rep = eval_neumann_identity(pdisk_neumann, (0.0, 0.0))
    assert rep.rhs > 0
    assert rep.lhs > 0
    assert abs(_sphere_deviation(pdisk_neumann, (0.0, 0.0)) - 0.1) < 1e-3
    assert rep.extras["rigidity_holds"] is True


def test_rigidity_volume_monotone_in_amplitude(disk):
    vols = []
    for eps in (0.0125, 0.025, 0.05, 0.1):
        dom = build_domain(1.0, [(2, eps, 0.0)])
        u = solve_torsion_neumann(generate_mesh(dom, 0.1))
        vols.append(eval_neumann_identity(u, (0.0, 0.0)).lhs)
    assert all(b > a for a, b in zip(vols, vols[1:]))


# -- solver and identity invariants over random domains ----------------------------------


@settings(max_examples=20)
@given(spec=domain_specs)
def test_solver_and_identity_invariants(spec):
    dom = domain_or_reject(spec)
    mesh = generate_mesh(dom, 0.25 * dom.rho0)
    m, g = lumped_mass(mesh), boundary_load_vector(mesh)
    K = assemble_stiffness(mesh)
    # identity terms grow like rho0^4; |Omega_h| rho0^2 stays away from 0 on a disk
    scale = m.sum() * dom.rho0**2

    un = solve_torsion_neumann(mesh)
    R = neumann_flux(mesh)
    assert abs(R * g.sum() - 2.0 * m.sum()) <= 1e-14 * m.sum()
    assert abs(m @ un.coeffs) <= 1e-14 * scale
    assert _check_residual(K, un.coeffs, R * g - 2.0 * m, "neumann") <= 1e-12

    ud = solve_torsion_dirichlet(mesh)
    assert not ud.trace_values().any()
    free = ~mesh.boundary_mask
    rel = _check_residual(K[free][:, free], ud.coeffs[free], -2.0 * m[free], "dirichlet")
    assert rel <= 1e-12

    z = dom.center
    for u in (un, ud):
        rep_a, rep_b = eval_mother_identity(u, z)
        assert rep_a.lhs == rep_b.lhs
        assert abs(rep_a.rhs - rep_b.rhs) <= 1e-13 * scale
        rep_g = eval_general_identity(u, ExactParaboloid(mesh, z))
        assert abs(rep_g.lhs - rep_a.lhs) <= 1e-13 * scale
        assert abs(rep_g.rhs - rep_a.rhs) <= 1e-13 * scale

    base = eval_neumann_identity(un, z)
    moved = eval_neumann_identity(shifted(un, 17.3), z)
    for k in base.terms:
        assert abs(base.terms[k] - moved.terms[k]) <= 1e-13 * scale
