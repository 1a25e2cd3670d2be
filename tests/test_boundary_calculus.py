import numpy as np
import pytest

from conftest import fit_order
from serrinlab import boundary
from serrinlab.boundary import (
    BoundaryFunction,
    boundary_curvatures,
    boundary_normals,
    boundary_tangents,
    check_integration_by_parts,
    holder_seminorm,
    laplace_beltrami,
    lemma21_residual,
    normal_derivative,
    normal_tangential,
    spectral_tangential_derivative,
    surface_integral,
    tangential_gradient,
    trace,
)
from serrinlab.errors import NotDirichlet, NotNeumann
from serrinlab.identities import eval_neumann_identity
from serrinlab.meshfem import FemField, generate_mesh, solve_torsion_neumann


# -- trace -------------------------------------------------------------------


def test_trace_dirichlet_zero(disk_dirichlet):
    assert np.abs(trace(disk_dirichlet).values).max() <= 1e-12


def test_trace_coordinate(disk_mesh):
    f = FemField(disk_mesh, disk_mesh.nodes[:, 0])
    tv = trace(f)
    assert np.abs(tv.values - np.cos(tv.theta)).max() < 1e-12


def test_trace_neumann_constant(disk_neumann):
    assert trace(disk_neumann).osc() <= 1e-6


# -- normal derivative ----------------------------------------------------------


def test_disk_dirichlet_normal_derivative(disk_dirichlet):
    unu = normal_derivative(disk_dirichlet)
    assert np.abs(unu.values - 1.0).max() < 1e-5


def test_ellipse_normal_derivative_vertices(ellipse_dirichlet):
    unu = normal_derivative(ellipse_dirichlet)
    theta = ellipse_dirichlet.mesh.boundary_theta
    i_major = np.argmin(np.abs(theta - 0.0))
    i_minor = np.argmin(np.abs(theta - np.pi / 2))
    assert abs(unu.values[i_major] - 0.8) < 1e-3
    assert abs(unu.values[i_minor] - 1.6) < 1e-3


def test_neumann_flux_converges(pdisk):
    errs = []
    hs = [0.1, 0.05, 0.025]
    for h in hs:
        f = solve_torsion_neumann(generate_mesh(pdisk, h))
        unu = normal_derivative(f)
        errs.append(np.abs(unu.values - f.R_disc).max())
    assert errs[-1] < errs[0]
    assert fit_order(hs, errs) >= 1.5


# -- tangential gradient -----------------------------------------------------------


def test_tangential_gradient_dirichlet_small(disk_dirichlet):
    gt = tangential_gradient(disk_dirichlet)
    assert np.abs(gt.values).max() <= 1e-6


def test_tangential_gradient_coordinate(disk_mesh):
    f = FemField(disk_mesh, disk_mesh.nodes[:, 0])
    gt = tangential_gradient(f)
    assert np.abs(gt.values - (-np.sin(gt.theta))).max() < 1e-8
    assert gt.fd_discrepancy < 1e-5


def test_decomposition_exactness(pdisk_neumann):
    g = pdisk_neumann.recovered.gradient[pdisk_neumann.mesh.boundary_idx]
    unu = normal_derivative(pdisk_neumann).values
    gt = tangential_gradient(pdisk_neumann).values
    assert np.abs((g**2).sum(1) - (unu**2 + gt**2)).max() < 1e-10


# -- Laplace-Beltrami ----------------------------------------------------------------


def test_laplace_beltrami_constant(disk_mesh):
    b = BoundaryFunction(disk_mesh, np.ones(len(disk_mesh.boundary_idx)))
    assert np.abs(laplace_beltrami(b).values).max() <= 1e-12


def test_laplace_beltrami_cosine(disk):
    # roundoff in the theta samples is amplified by k^2, so test at the
    # coarser grid where the spectral error floor sits below 1e-10
    mesh = generate_mesh(disk, 0.1)
    b = BoundaryFunction(mesh, np.cos(mesh.boundary_theta))
    lb = laplace_beltrami(b)
    assert np.abs(lb.values + np.cos(mesh.boundary_theta)).max() < 1e-10


def test_reilly_identity_for_paraboloid(ellipse_mesh):
    # Lap_G q = 1 - kappa * q_nu for q = |x - z|^2 / 2 on the curve
    z = np.array([0.2, -0.1])
    pts = ellipse_mesh.nodes[ellipse_mesh.boundary_idx]
    q = 0.5 * ((pts - z) ** 2).sum(1)
    bq = BoundaryFunction(ellipse_mesh, q)
    lhs = laplace_beltrami(bq).values
    nu = boundary_normals(ellipse_mesh)
    kappa = boundary_curvatures(ellipse_mesh)
    q_nu = np.einsum("ij,ij->i", pts - z, nu)
    assert np.abs(lhs - (1.0 - kappa * q_nu)).max() < 1e-8


# -- surface integrals ------------------------------------------------------------------


def test_surface_integral_circle(disk_mesh):
    one = BoundaryFunction(disk_mesh, np.ones(len(disk_mesh.boundary_idx)))
    assert abs(surface_integral(one) - 2 * np.pi) < 1e-10


def test_laplace_beltrami_integrates_to_zero(pdisk_mesh):
    rng = np.random.default_rng(3)
    theta = pdisk_mesh.boundary_theta
    vals = sum(
        rng.normal() * np.cos(k * theta) + rng.normal() * np.sin(k * theta)
        for k in range(1, 6)
    )
    b = BoundaryFunction(pdisk_mesh, vals)
    assert abs(surface_integral(laplace_beltrami(b))) < 1e-9


def test_support_integral_ellipse(ellipse_mesh):
    pts = ellipse_mesh.nodes[ellipse_mesh.boundary_idx]
    nu = boundary_normals(ellipse_mesh)
    for z in (np.zeros(2), np.array([0.4, 0.2])):
        vals = np.einsum("ij,ij->i", pts - z, nu)
        b = BoundaryFunction(ellipse_mesh, vals)
        assert abs(surface_integral(b) - 4 * np.pi) < 1e-8


def test_weights_sum_to_perimeter(ellipse_mesh):
    one = BoundaryFunction(ellipse_mesh, np.ones(len(ellipse_mesh.boundary_idx)))
    assert abs(one.total_length - ellipse_mesh.domain.measures.perimeter) < 1e-8


# -- integration by parts -----------------------------------------------------------------


def test_parts_coordinate_field(disk_mesh):
    f = FemField(disk_mesh, disk_mesh.nodes[:, 0])
    abs_res, rel = check_integration_by_parts(f, f)
    # both sides equal pi on the unit circle
    dv = spectral_tangential_derivative(trace(f))
    lhs = surface_integral(dv, dv.values**2)
    assert abs(lhs - np.pi) < 1e-8
    assert abs_res <= 1e-8


def test_parts_constant(disk_mesh):
    c = BoundaryFunction(disk_mesh, np.full(len(disk_mesh.boundary_idx), 2.5))
    f = FemField(disk_mesh, disk_mesh.nodes[:, 1])
    abs_res, _ = check_integration_by_parts(c, trace(f))
    assert abs_res <= 1e-10


def test_parts_random_fourier(pdisk_mesh):
    rng = np.random.default_rng(11)
    theta = pdisk_mesh.boundary_theta

    def smooth():
        return sum(
            rng.normal(scale=1.0 / k**2)
            * np.cos(k * theta + rng.uniform(0, 2 * np.pi))
            for k in range(1, 8)
        )

    v = BoundaryFunction(pdisk_mesh, smooth())
    w = BoundaryFunction(pdisk_mesh, smooth())
    _, rel = check_integration_by_parts(v, w)
    assert rel <= 1e-6


# -- flux-Hessian boundary identities ---------------------------------------------------------


def test_lemma21_disk_dirichlet(disk_dirichlet):
    res = lemma21_residual(disk_dirichlet, "dirichlet")
    assert np.abs(res.values).max() <= 1e-4


def test_lemma21_ellipse_dirichlet(ellipse_dirichlet):
    res = lemma21_residual(ellipse_dirichlet, "dirichlet")
    # closed form: at (2,0) both sides equal 0.8 * (2 - 2*0.8) = 0.32
    unu = normal_derivative(ellipse_dirichlet)
    kappa = boundary_curvatures(ellipse_dirichlet.mesh)
    i = np.argmin(np.abs(ellipse_dirichlet.mesh.boundary_theta))
    rhs = unu.values[i] * (2 - kappa[i] * unu.values[i])
    assert abs(rhs - 0.32) < 1e-3
    assert np.abs(res.values).max() < 1e-3


def test_lemma21_neumann_converges(pdisk):
    errs = []
    hs = [0.1, 0.05]
    for h in hs:
        f = solve_torsion_neumann(generate_mesh(pdisk, h))
        errs.append(np.abs(lemma21_residual(f, "neumann").values).max())
    assert errs[1] < errs[0]
    assert fit_order(hs, errs) > 0.5


def test_lemma21_kind_audits(ellipse_dirichlet, pdisk_neumann):
    with pytest.raises(NotNeumann):
        lemma21_residual(ellipse_dirichlet, "neumann")
    with pytest.raises(NotDirichlet):
        lemma21_residual(pdisk_neumann, "dirichlet", audit_tol=1e-6)


# -- Hoelder seminorm ---------------------------------------------------------------------------


def test_holder_seminorm_linear_profile(disk_mesh):
    b = BoundaryFunction(disk_mesh, np.cos(disk_mesh.boundary_theta))
    # |cos s_i - cos s_j| <= |s_i - s_j|, so the alpha=1 quotient is <= 1
    val = holder_seminorm(b.values, b.arclengths, b.total_length, 1.0, 0.05)
    assert 0.5 < val <= 1.0 + 1e-9


def test_holder_seminorm_constant_zero(disk_mesh):
    b = BoundaryFunction(disk_mesh, np.ones(len(disk_mesh.boundary_idx)))
    assert holder_seminorm(b.values, b.arclengths, b.total_length, 0.5, 0.05) == 0.0


def test_boundary_function_csv_export(tmp_path, disk_mesh):
    b = BoundaryFunction(disk_mesh, np.cos(disk_mesh.boundary_theta))
    path = tmp_path / "trace.csv"
    b.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "theta,arclength,value"
    assert len(lines) == 1 + len(disk_mesh.boundary_idx)
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0 and abs(first[2] - 1.0) < 1e-12


# -- boundary record and normal/tangential split -----------------------------------------


def test_boundary_record_built_once_per_mesh(pdisk, monkeypatch):
    calls = []
    original = boundary.fft_antiderivative

    def counting(values):
        calls.append(len(values))
        return original(values)

    monkeypatch.setattr(boundary, "fft_antiderivative", counting)
    u = solve_torsion_neumann(generate_mesh(pdisk, 0.2))
    trace(u)
    normal_derivative(u)
    tangential_gradient(u)
    eval_neumann_identity(u, (0.0, 0.0))
    assert calls == [len(u.mesh.boundary_idx)]


def test_normal_tangential_reconstructs_vectors(ellipse_mesh):
    rng = np.random.default_rng(3)
    v = rng.uniform(-1.0, 1.0, (len(ellipse_mesh.boundary_idx), 2))
    v_nu, v_tau = normal_tangential(ellipse_mesh, v)
    back = (v_nu[:, None] * boundary_normals(ellipse_mesh)
            + v_tau[:, None] * boundary_tangents(ellipse_mesh))
    assert np.abs(back - v).max() <= 1e-15
