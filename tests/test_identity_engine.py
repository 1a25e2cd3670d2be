import numpy as np
import pytest

from serrinlab.errors import NotDirichlet, NotNeumann, NotTorsion
from serrinlab.identities import (
    eval_classical_identity,
    eval_general_identity,
    eval_mother_identity,
    eval_neumann_identity,
    p_function,
    paraboloid_field,
    rigidity_test,
)
from serrinlab.meshfem import (
    generate_mesh,
    solve_harmonic_dirichlet,
    solve_torsion_dirichlet,
    solve_torsion_neumann,
)

ELLIPSE_LHS = 0.72 * 4 * np.pi / 5  # 18/25 * volume moment of the torsion field


# -- P function ---------------------------------------------------------------


def test_p_function_disk(disk_dirichlet, disk_neumann):
    for f in (disk_dirichlet, disk_neumann):
        _, dP = p_function(f)
        interior = np.linalg.norm(f.mesh.nodes, axis=1) < 0.8
        assert np.abs(dP.coeffs[interior]).max() <= 1e-6


def test_p_function_ellipse(ellipse_dirichlet):
    _, dP = p_function(ellipse_dirichlet)
    nodes = ellipse_dirichlet.mesh.nodes
    interior = (nodes[:, 0] / 2) ** 2 + nodes[:, 1] ** 2 < 0.7
    assert np.abs(dP.coeffs[interior] - 0.72).max() < 1e-3


def test_p_function_positivity_interior(pdisk_neumann):
    _, dP = p_function(pdisk_neumann)
    nodes = pdisk_neumann.mesh.nodes
    interior = np.linalg.norm(nodes, axis=1) < 0.8 * pdisk_neumann.mesh.domain.radius(
        np.arctan2(nodes[:, 1], nodes[:, 0])
    )
    assert dP.coeffs[interior].min() >= -1e-6


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
        pdisk_neumann, paraboloid_field(pdisk_neumann.mesh, (0.0, 0.0))
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


def test_mother_offset_invariance(ellipse_dirichlet):
    rep_a, _ = eval_mother_identity(ellipse_dirichlet, (0.0, 0.0), a=0.0)
    rep_c, _ = eval_mother_identity(ellipse_dirichlet, (0.0, 0.0), a=-3.7)
    for k in rep_a.terms:
        assert abs(rep_a.terms[k] - rep_c.terms[k]) <= 1e-12


def test_general_specializes_to_mother(ellipse_dirichlet, pdisk_neumann):
    for f, z in ((ellipse_dirichlet, (0.0, 0.0)), (pdisk_neumann, (0.05, 0.02))):
        rep_a, _ = eval_mother_identity(f, z)
        rep_g = eval_general_identity(f, paraboloid_field(f.mesh, z))
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
    shifted = pdisk_neumann.shifted(17.3)
    assert shifted.R_disc == pdisk_neumann.R_disc
    rep2 = eval_neumann_identity(shifted, (0.0, 0.0))
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
        ellipse_dirichlet, paraboloid_field(ellipse_dirichlet.mesh, (0.0, 0.0))
    )
    R = ellipse_dirichlet.mesh.domain.measures.R
    bridged = rep_c.abs_residual - 0.5 * R**2 * rep_c.terms["flux_balance"]
    assert abs(rep_g.abs_residual - bridged) <= 1e-10


# -- rigidity ----------------------------------------------------------------------------------


def test_rigidity_disk(disk_neumann):
    v = rigidity_test(disk_neumann, (0.0, 0.0))
    assert abs(v.rhs_value) <= 1e-6
    assert v.v_small
    assert v.sphere_deviation <= 1e-10
    assert v.implication_ok


def test_rigidity_perturbed(pdisk_neumann):
    v = rigidity_test(pdisk_neumann, (0.0, 0.0))
    assert v.rhs_value > 0
    assert v.volume_value > 0
    assert abs(v.sphere_deviation - 0.1) < 1e-3
    assert v.implication_ok


def test_rigidity_volume_monotone_in_amplitude(disk):
    from serrinlab.geometry import build_domain

    vols = []
    for eps in (0.0125, 0.025, 0.05, 0.1):
        dom = build_domain(1.0, [(2, eps, 0.0)])
        u = solve_torsion_neumann(generate_mesh(dom, 0.1))
        vols.append(rigidity_test(u, (0.0, 0.0)).volume_value)
    assert all(b > a for a, b in zip(vols, vols[1:]))
