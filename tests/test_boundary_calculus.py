import numpy as np
import pytest

from conftest import fit_order
from serrinlab import boundary
from serrinlab.boundary import (
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
from serrinlab.errors import NotDirichlet, NotNeumann, NotTorsion
from serrinlab.identities import eval_classical_identity, eval_neumann_identity
from serrinlab.meshfem import FemField, generate_mesh, solve_torsion_neumann


# -- trace -------------------------------------------------------------------


def test_trace_dirichlet_zero(disk_dirichlet):
    assert np.abs(trace(disk_dirichlet)).max() <= 1e-12


def test_trace_coordinate(disk_mesh):
    f = FemField(disk_mesh, disk_mesh.nodes[:, 0])
    tv = trace(f)
    assert np.abs(tv - np.cos(disk_mesh.boundary_theta)).max() < 1e-12


def test_trace_neumann_constant(disk_neumann):
    assert np.ptp(trace(disk_neumann)) <= 1e-6


# -- normal derivative ----------------------------------------------------------


def test_disk_dirichlet_normal_derivative(disk_dirichlet):
    unu = normal_derivative(disk_dirichlet)
    assert np.abs(unu - 1.0).max() < 1e-5


def test_ellipse_normal_derivative_vertices(ellipse_dirichlet):
    unu = normal_derivative(ellipse_dirichlet)
    theta = ellipse_dirichlet.mesh.boundary_theta
    i_major = np.argmin(np.abs(theta - 0.0))
    i_minor = np.argmin(np.abs(theta - np.pi / 2))
    assert abs(unu[i_major] - 0.8) < 1e-3
    assert abs(unu[i_minor] - 1.6) < 1e-3


def test_neumann_flux_converges(pdisk):
    errs = []
    hs = [0.1, 0.05, 0.025]
    for h in hs:
        f = solve_torsion_neumann(generate_mesh(pdisk, h))
        unu = normal_derivative(f)
        errs.append(np.abs(unu - f.R_disc).max())
    assert errs[-1] < errs[0]
    assert fit_order(hs, errs) >= 1.5


# -- tangential gradient -----------------------------------------------------------


def test_tangential_gradient_dirichlet_small(disk_dirichlet):
    gt = tangential_gradient(disk_dirichlet)
    assert np.abs(gt).max() <= 1e-6


def _fd4_arclength_derivative(mesh, values):
    """4th-order central finite difference in theta, divided by the metric."""
    dtheta = 2.0 * np.pi / values.size
    vp1, vm1 = np.roll(values, -1), np.roll(values, 1)
    vp2, vm2 = np.roll(values, -2), np.roll(values, 2)
    d = (8.0 * (vp1 - vm1) - (vp2 - vm2)) / (12.0 * dtheta)
    return d / boundary._frames(mesh).metric


def test_tangential_gradient_coordinate(disk_mesh):
    f = FemField(disk_mesh, disk_mesh.nodes[:, 0])
    gt = tangential_gradient(f)
    assert np.abs(gt - (-np.sin(disk_mesh.boundary_theta))).max() < 1e-8
    fd = _fd4_arclength_derivative(disk_mesh, trace(f))
    assert np.abs(gt - fd).max() < 1e-5


def test_decomposition_exactness(pdisk_neumann):
    g = pdisk_neumann.recovered.gradient[pdisk_neumann.mesh.boundary_idx]
    unu = normal_derivative(pdisk_neumann)
    gt = tangential_gradient(pdisk_neumann)
    assert np.abs((g**2).sum(1) - (unu**2 + gt**2)).max() < 1e-10


# -- Laplace-Beltrami ----------------------------------------------------------------


def test_laplace_beltrami_constant(disk_mesh):
    b = np.ones(len(disk_mesh.boundary_idx))
    assert np.abs(laplace_beltrami(disk_mesh, b)).max() <= 1e-12


def test_laplace_beltrami_cosine(disk):
    # roundoff in the theta samples is amplified by k^2, so test at the
    # coarser grid where the spectral error floor sits below 1e-10
    mesh = generate_mesh(disk, 0.1)
    lb = laplace_beltrami(mesh, np.cos(mesh.boundary_theta))
    assert np.abs(lb + np.cos(mesh.boundary_theta)).max() < 1e-10


def test_reilly_identity_for_paraboloid(ellipse_mesh):
    # Lap_G q = 1 - kappa * q_nu for q = |x - z|^2 / 2 on the curve
    z = np.array([0.2, -0.1])
    pts = ellipse_mesh.nodes[ellipse_mesh.boundary_idx]
    q = 0.5 * ((pts - z) ** 2).sum(1)
    lhs = laplace_beltrami(ellipse_mesh, q)
    nu = boundary_normals(ellipse_mesh)
    kappa = boundary_curvatures(ellipse_mesh)
    q_nu = np.einsum("ij,ij->i", pts - z, nu)
    assert np.abs(lhs - (1.0 - kappa * q_nu)).max() < 1e-8


# -- surface integrals ------------------------------------------------------------------


def test_surface_integral_circle(disk_mesh):
    one = np.ones(len(disk_mesh.boundary_idx))
    assert abs(surface_integral(disk_mesh, one) - 2 * np.pi) < 1e-10


def test_laplace_beltrami_integrates_to_zero(pdisk_mesh):
    rng = np.random.default_rng(3)
    theta = pdisk_mesh.boundary_theta
    vals = sum(
        rng.normal() * np.cos(k * theta) + rng.normal() * np.sin(k * theta)
        for k in range(1, 6)
    )
    lb = laplace_beltrami(pdisk_mesh, vals)
    assert abs(surface_integral(pdisk_mesh, lb)) < 1e-9


def test_support_integral_ellipse(ellipse_mesh):
    pts = ellipse_mesh.nodes[ellipse_mesh.boundary_idx]
    nu = boundary_normals(ellipse_mesh)
    for z in (np.zeros(2), np.array([0.4, 0.2])):
        vals = np.einsum("ij,ij->i", pts - z, nu)
        assert abs(surface_integral(ellipse_mesh, vals) - 4 * np.pi) < 1e-8


def test_weights_sum_to_perimeter(ellipse_mesh):
    length = boundary._frames(ellipse_mesh).length
    assert abs(length - ellipse_mesh.domain.measures.perimeter) < 1e-8


# -- integration by parts -----------------------------------------------------------------


def test_parts_coordinate_field(disk_mesh):
    f = FemField(disk_mesh, disk_mesh.nodes[:, 0])
    abs_res, rel = check_integration_by_parts(disk_mesh, trace(f), trace(f))
    # both sides equal pi on the unit circle
    dv = spectral_tangential_derivative(disk_mesh, trace(f))
    lhs = surface_integral(disk_mesh, dv**2)
    assert abs(lhs - np.pi) < 1e-8
    assert abs_res <= 1e-8


def test_parts_constant(disk_mesh):
    c = np.full(len(disk_mesh.boundary_idx), 2.5)
    f = FemField(disk_mesh, disk_mesh.nodes[:, 1])
    abs_res, _ = check_integration_by_parts(disk_mesh, c, trace(f))
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

    _, rel = check_integration_by_parts(pdisk_mesh, smooth(), smooth())
    assert rel <= 1e-6


# -- flux-Hessian boundary identities ---------------------------------------------------------


def test_lemma21_disk_dirichlet(disk_dirichlet):
    res = lemma21_residual(disk_dirichlet, "dirichlet")
    assert np.abs(res).max() <= 1e-4


def test_lemma21_ellipse_dirichlet(ellipse_dirichlet):
    res = lemma21_residual(ellipse_dirichlet, "dirichlet")
    # closed form: at (2,0) both sides equal 0.8 * (2 - 2*0.8) = 0.32
    unu = normal_derivative(ellipse_dirichlet)
    kappa = boundary_curvatures(ellipse_dirichlet.mesh)
    i = np.argmin(np.abs(ellipse_dirichlet.mesh.boundary_theta))
    rhs = unu[i] * (2 - kappa[i] * unu[i])
    assert abs(rhs - 0.32) < 1e-3
    assert np.abs(res).max() < 1e-3


def test_lemma21_neumann_converges(pdisk):
    errs = []
    hs = [0.1, 0.05]
    for h in hs:
        f = solve_torsion_neumann(generate_mesh(pdisk, h))
        errs.append(np.abs(lemma21_residual(f, "neumann")).max())
    assert errs[1] < errs[0]
    assert fit_order(hs, errs) > 0.5


def test_lemma21_kind_audits(ellipse_dirichlet, pdisk_neumann):
    with pytest.raises(NotNeumann):
        lemma21_residual(ellipse_dirichlet, "neumann")
    with pytest.raises(NotDirichlet):
        lemma21_residual(pdisk_neumann, "dirichlet")


@pytest.fixture(scope="module")
def harmonic_field(disk_mesh):
    return FemField(disk_mesh, disk_mesh.nodes[:, 0])


@pytest.mark.parametrize(
    "kind, fixture, evaluator, error",
    [
        ("dirichlet", "pdisk_neumann", eval_classical_identity, NotDirichlet),
        ("neumann", "ellipse_dirichlet", eval_neumann_identity, NotNeumann),
        ("dirichlet", "harmonic_field", eval_classical_identity, NotTorsion),
        ("neumann", "harmonic_field", eval_neumann_identity, NotTorsion),
    ],
)
def test_lemma21_audits_match_identity_audits(request, kind, fixture, evaluator, error):
    # the Lemma 2.1 residual and the identity of the same kind share one audit
    u = request.getfixturevalue(fixture)
    with pytest.raises(error):
        lemma21_residual(u, kind)
    with pytest.raises(error):
        evaluator(u, (0.0, 0.0))


# -- Hoelder seminorm ---------------------------------------------------------------------------


def test_holder_seminorm_linear_profile(disk_mesh):
    # |cos s_i - cos s_j| <= |s_i - s_j|, so the alpha=1 quotient is <= 1
    val = holder_seminorm(disk_mesh, np.cos(disk_mesh.boundary_theta), 1.0)
    assert 0.5 < val <= 1.0 + 1e-9


def test_holder_seminorm_constant_zero(disk_mesh):
    b = np.ones(len(disk_mesh.boundary_idx))
    assert holder_seminorm(disk_mesh, b, 0.5) == 0.0


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
