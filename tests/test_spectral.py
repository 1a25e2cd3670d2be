import numpy as np
import scipy.sparse.linalg as spla
from scipy.special import jnp_zeros

from serrinlab.geometry import build_domain
from serrinlab.meshfem import (
    assemble_mass,
    generate_mesh,
    solve_torsion_neumann,
)
from serrinlab.spectral import (
    check_l2_oscillation_bound,
    eigenvalues,
    neumann_eigenvalue_2,
    steklov_eigenvalue_2,
)

NU2_DISK = float(jnp_zeros(1, 1)[0] ** 2)  # square of the first zero of J1'


def test_neumann_eigenvalue_disk(disk):
    mesh = generate_mesh(disk, 0.025)
    res = neumann_eigenvalue_2(mesh)
    assert abs(res.value - NU2_DISK) <= 1e-3 * NU2_DISK
    assert res.rayleigh_residual <= 1e-8
    # orthogonality to constants in the volume pairing
    M = assemble_mass(mesh)
    f = res.eigenfunction.coeffs
    assert abs(np.ones_like(f) @ (M @ f)) <= 1e-10 * np.sqrt(float(f @ (M @ f)))


def test_steklov_eigenvalue_disk(disk):
    mesh = generate_mesh(disk, 0.025)
    res = steklov_eigenvalue_2(mesh)
    assert abs(res.value - 1.0) <= 1e-3
    assert res.rayleigh_residual <= 1e-8


def test_neumann_solve_and_eigenproblems_share_one_factor(pdisk, monkeypatch):
    calls = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    mesh = generate_mesh(pdisk, 0.2)
    solve_torsion_neumann(mesh)
    nu, sig = eigenvalues(mesh)
    assert len(calls) == 1
    assert nu.rayleigh_residual <= 1e-8 and sig.rayleigh_residual <= 1e-8


def test_eigenvalue_scaling_laws(disk):
    big = build_domain(2.0, [])
    nu_1 = neumann_eigenvalue_2(generate_mesh(disk, 0.05))
    nu_2 = neumann_eigenvalue_2(generate_mesh(big, 0.1))
    assert abs(nu_2.value - nu_1.value / 4.0) <= 1e-3 * nu_1.value / 4.0
    sig_1 = steklov_eigenvalue_2(generate_mesh(disk, 0.05))
    sig_2 = steklov_eigenvalue_2(generate_mesh(big, 0.1))
    assert abs(sig_2.value - sig_1.value / 2.0) <= 1e-3 * sig_1.value / 2.0


def test_ellipse_steklov_between_mesh_levels(ellipse):
    vals = [
        steklov_eigenvalue_2(generate_mesh(ellipse, h)).value for h in (0.1, 0.05)
    ]
    assert 0.0 < vals[1] < 1.0
    assert abs(vals[0] - vals[1]) <= 1e-3 * vals[1]


def test_perturbed_disk_eigen_continuity(pdisk_mesh, disk_mesh):
    # the mode-2 perturbation splits the degenerate pair by ~1.8*eps each
    # way; the shifted value and the preserved pair mean are both checked
    # (ARPACK cross-check gives 3.08708 and 3.70920 at eps = 0.05)
    nu_p = neumann_eigenvalue_2(pdisk_mesh).value
    nu_d = neumann_eigenvalue_2(disk_mesh).value
    assert abs(nu_p - nu_d) <= 0.10 * nu_d
    assert abs(nu_p - 3.08708) <= 2e-3


def test_spectral_lower_bound_over_sweep():
    # across the perturbation family the second eigenvalues stay above
    # half the disk values
    disk_mesh = generate_mesh(build_domain(1.0, []), 0.1)
    nu_d = neumann_eigenvalue_2(disk_mesh).value
    sig_d = steklov_eigenvalue_2(disk_mesh).value
    for eps in (0.025, 0.05, 0.1):
        mesh = generate_mesh(build_domain(1.0, [(2, eps, 0.0)]), 0.1)
        assert neumann_eigenvalue_2(mesh).value >= 0.5 * nu_d
        assert steklov_eigenvalue_2(mesh).value >= 0.5 * sig_d


def test_oscillation_bound_disk_center(disk_neumann):
    rep = check_l2_oscillation_bound(disk_neumann, (0.0, 0.0))
    assert rep.lhs <= 1e-5
    assert rep.rhs <= 1e-4
    assert rep.slack >= -1e-6


def test_oscillation_bound_disk_offcenter(disk_neumann):
    rep = check_l2_oscillation_bound(disk_neumann, (0.3, 0.0))
    # closed form: ||R - q_nu||^2 = 0.09 pi for q centered at (0.3, 0)
    assert abs(rep.flux_deviation_l2**2 - 0.09 * np.pi) <= 1e-6
    assert rep.lhs > 0
    assert rep.slack >= 0


def test_oscillation_bound_perturbed_levels(pdisk):
    for h in (0.1, 0.05):
        u = solve_torsion_neumann(generate_mesh(pdisk, h))
        rep = check_l2_oscillation_bound(u, (0.0, 0.0))
        assert rep.slack >= -1e-6
        assert abs(rep.h_mean_volume - rep.h_mean_boundary) < 0.1
