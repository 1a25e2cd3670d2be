import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import fit_order, h1_seminorm_error, l2_error
from serrinlab.errors import MeshTooFine
from serrinlab.geometry import build_domain
from serrinlab.meshfem import (
    FemField,
    assemble_mass,
    assemble_stiffness,
    boundary_load_vector,
    generate_mesh,
    solve_harmonic_dirichlet,
    solve_torsion_dirichlet,
    solve_torsion_neumann,
    volume_integral,
)


# -- mesh audits -------------------------------------------------------------


def test_mesh_audit_disk_coarse(disk):
    mesh = generate_mesh(disk, 0.1)
    assert mesh.h_max <= 0.15
    assert mesh.qualities().min() >= 0.3


def test_mesh_quality_other_domains(ellipse, pdisk):
    for dom in (ellipse, pdisk):
        mesh = generate_mesh(dom, 0.1)
        assert mesh.h_max <= 0.15
        assert mesh.qualities().min() >= 0.3


def test_mesh_too_fine(disk):
    with pytest.raises(MeshTooFine):
        generate_mesh(disk, 1e-5)


def test_mesh_too_fine_fails_before_schedule(disk):
    # the ring schedule takes O(1/h) steps; a closed-form lower bound on
    # the dof count rejects h = 1e-9 before it runs
    start = time.process_time()
    with pytest.raises(MeshTooFine):
        generate_mesh(disk, 1e-9)
    assert time.process_time() - start < 1.0


def test_boundary_nodes_on_curve(pdisk):
    mesh = generate_mesh(pdisk, 0.1)
    pts = mesh.nodes[mesh.boundary_idx]
    r_node = np.linalg.norm(pts - pdisk.center, axis=1)
    assert np.abs(r_node - pdisk.radius(mesh.boundary_theta)).max() <= 1e-12
    assert (np.diff(mesh.boundary_theta) > 0).all()


def test_center_is_node_zero(disk_mesh):
    assert np.allclose(disk_mesh.nodes[0], [0.0, 0.0])


# -- Dirichlet torsion ---------------------------------------------------------


def test_disk_dirichlet_center_value(disk_dirichlet):
    assert abs(disk_dirichlet.coeffs[0] - (-0.5)) < 1e-6


def test_disk_dirichlet_matches_closed_form(disk_dirichlet):
    err = l2_error(disk_dirichlet, lambda p: 0.5 * ((p**2).sum(1) - 1.0))
    assert err < 1e-7


def test_ellipse_dirichlet_center_value(ellipse_dirichlet):
    assert abs(ellipse_dirichlet.coeffs[0] - (-0.8)) < 1e-5


def test_maximum_principle(disk_dirichlet, ellipse_dirichlet, pdisk_mesh):
    fields = [disk_dirichlet, ellipse_dirichlet, solve_torsion_dirichlet(pdisk_mesh)]
    for f in fields:
        interior = ~f.mesh.boundary_mask
        assert np.abs(f.trace_values()).max() == 0.0
        assert f.coeffs[interior].max() < 0.0


# -- Neumann torsion ------------------------------------------------------------


def test_disk_neumann_paraboloid(disk_neumann):
    u = disk_neumann.coeffs
    r2 = (disk_neumann.mesh.nodes**2).sum(1)
    assert np.abs((u - u[0]) - 0.5 * r2).max() < 1e-6


def test_disk_neumann_flat_trace(disk_neumann):
    tv = disk_neumann.trace_values()
    assert tv.max() - tv.min() <= 1e-6


def test_neumann_discrete_compatibility(disk_neumann, pdisk_neumann):
    for f in (disk_neumann, pdisk_neumann):
        g = boundary_load_vector(f.mesh)
        assert abs(f.R_disc * g.sum() - 2.0 * f.area_h) <= 1e-10


def test_neumann_zero_mean_gauge(pdisk_neumann):
    mean = volume_integral(pdisk_neumann.mesh, pdisk_neumann)
    assert abs(mean) < 1e-10


def test_neumann_matches_bordered_system(pdisk):
    # reference: the zero-mean gauge as a Lagrange multiplier,
    # [[K, m], [m^T, 0]] [u; lam] = [b; 0]
    mesh = generate_mesh(pdisk, 0.2)
    f = solve_torsion_neumann(mesh)
    K = assemble_stiffness(mesh)
    m = np.asarray(assemble_mass(mesh).sum(axis=1)).ravel()
    b = f.R_disc * boundary_load_vector(mesh) - 2.0 * m
    A = sp.bmat([[K, m[:, None]], [m[None, :], None]], format="csc")
    ref = spla.spsolve(A, np.concatenate([b, [0.0]]))[:-1]
    assert np.abs(f.coeffs - ref).max() <= 1e-12 * np.abs(ref).max()


def test_neumann_oscillation_scales_linearly():
    oscs = []
    for eps in (0.0125, 0.025, 0.05):
        dom = build_domain(1.0, [(2, eps, 0.0)])
        osc = []
        for h in (0.1, 0.05):
            f = solve_torsion_neumann(generate_mesh(dom, h))
            tv = f.trace_values()
            osc.append(tv.max() - tv.min())
        # Richardson with rate 2 over the two levels
        oscs.append(osc[1] + (osc[1] - osc[0]) / 3.0)
    slope = fit_order([0.0125, 0.025, 0.05], oscs)
    assert abs(slope - 1.0) <= 0.15
    assert oscs[0] > 0


# -- harmonic Dirichlet -----------------------------------------------------------


def test_harmonic_constant(disk_mesh):
    w = solve_harmonic_dirichlet(disk_mesh, np.ones(len(disk_mesh.boundary_idx)))
    assert np.abs(w.coeffs - 1.0).max() < 1e-12


def test_harmonic_linear(disk_mesh):
    g = disk_mesh.nodes[disk_mesh.boundary_idx, 0]
    w = solve_harmonic_dirichlet(disk_mesh, g)
    assert np.abs(w.coeffs - disk_mesh.nodes[:, 0]).max() < 1e-10


# -- recovery -------------------------------------------------------------------


def test_recover_quadratic_exact(disk_mesh):
    f = FemField(disk_mesh, 0.5 * (disk_mesh.nodes**2).sum(1))
    H = f.recovered.hessian
    interior = np.linalg.norm(disk_mesh.nodes, axis=1) < 0.8
    err = np.abs(H[interior] - np.array([1.0, 1.0, 0.0]))
    assert err.max() < 1e-9


def test_recover_gradient_quadratic(disk_mesh):
    f = FemField(disk_mesh, 0.5 * (disk_mesh.nodes**2).sum(1))
    g = f.recovered.gradient
    interior = np.linalg.norm(disk_mesh.nodes, axis=1) < 0.8
    assert np.abs(g[interior] - disk_mesh.nodes[interior]).max() < 1e-9


def test_recover_ellipse_torsion_hessian(ellipse_dirichlet):
    H = ellipse_dirichlet.recovered.hessian
    nodes = ellipse_dirichlet.mesh.nodes
    interior = (nodes[:, 0] / 2) ** 2 + nodes[:, 1] ** 2 < 0.7
    err = np.abs(H[interior] - np.array([0.4, 1.6, 0.0]))
    assert err.max() < 1e-4


# -- integration ------------------------------------------------------------------


def test_volume_of_disk(disk_mesh):
    assert abs(volume_integral(disk_mesh, lambda p: np.ones(len(p))) - np.pi) < 1e-7


def test_odd_integrand_vanishes(disk_mesh):
    assert abs(volume_integral(disk_mesh, lambda p: p[:, 0])) < 1e-12


# -- convergence -------------------------------------------------------------------


def test_convergence_torsion_disk(disk):
    hs = [0.1, 0.05, 0.025]
    l2, h1 = [], []
    for h in hs:
        f = solve_torsion_dirichlet(generate_mesh(disk, h))
        l2.append(l2_error(f, lambda p: 0.5 * ((p**2).sum(1) - 1.0)))
        h1.append(h1_seminorm_error(f, lambda p: p))
    # quadratic torsion fields are captured to geometry accuracy, so the
    # fitted orders sit at or above the nominal P2 rates
    assert fit_order(hs, l2) >= 2.7
    assert fit_order(hs, h1) >= 1.7
    assert l2[-1] < l2[0] and h1[-1] < h1[0]


def test_convergence_harmonic_cubic(disk):
    hs = [0.1, 0.05, 0.025]
    exact = lambda p: p[:, 0] ** 3 - 3 * p[:, 0] * p[:, 1] ** 2
    egrad = lambda p: np.stack(
        [3 * p[:, 0] ** 2 - 3 * p[:, 1] ** 2, -6 * p[:, 0] * p[:, 1]], axis=1
    )
    l2, h1 = [], []
    for h in hs:
        mesh = generate_mesh(disk, h)
        g = exact(mesh.nodes[mesh.boundary_idx])
        w = solve_harmonic_dirichlet(mesh, g)
        l2.append(l2_error(w, exact))
        h1.append(h1_seminorm_error(w, egrad))
    assert abs(fit_order(hs, l2) - 3.0) <= 0.3
    assert abs(fit_order(hs, h1) - 2.0) <= 0.3


def test_hessian_trace_converges(pdisk):
    sups = []
    for h in (0.1, 0.05):
        u = solve_torsion_dirichlet(generate_mesh(pdisk, h))
        H = u.recovered.hessian
        nodes = u.mesh.nodes
        r = np.linalg.norm(nodes, axis=1) / pdisk.radius(
            np.arctan2(nodes[:, 1], nodes[:, 0])
        )
        interior = r < 0.8
        sups.append(np.abs(H[interior, 0] + H[interior, 1] - 2.0).max())
    assert sups[1] < sups[0]
    assert sups[1] < 1e-2


def test_harmonic_strong_form_audit(pdisk_neumann):
    w = solve_harmonic_dirichlet(pdisk_neumann.mesh, pdisk_neumann.trace_values())
    H = w.recovered.hessian
    assert np.abs(H[:, 0] + H[:, 1]).mean() < 1e-2


def test_ball_rigidity_volume_integral(disk_dirichlet):
    # h = q - u is constant on the ball, so the weighted Hessian integral
    # sits at the recovery noise floor
    from serrinlab.identities import hess_h_sq_quad
    from serrinlab.meshfem import quad_integral

    mesh = disk_dirichlet.mesh
    hess_h_sq = hess_h_sq_quad(disk_dirichlet)
    ubar = float(disk_dirichlet.trace_values().max())
    V = quad_integral(mesh, (ubar - disk_dirichlet.values_at_quad()) * hess_h_sq)
    assert 0.0 <= V <= 1e-8
