import numpy as np
import pytest

from conftest import fit_order
from serrinlab import boundary
from serrinlab.boundary import (
    audit_dirichlet,
    audit_neumann,
    hessian_flux,
    holder_seminorm,
    normal_derivative,
    normal_tangential,
    spectral_tangential_derivative,
    surface_integral,
    tangential_gradient,
)
from serrinlab.errors import InvalidSpec, NotDirichlet, NotNeumann, NotTorsion
from serrinlab.identities import eval_classical_identity, eval_neumann_identity
from serrinlab.meshfem import FemField, generate_mesh, neumann_flux, solve_torsion_neumann


# -- trace -------------------------------------------------------------------


def test_trace_dirichlet_zero(disk_dirichlet):
    assert np.abs(disk_dirichlet.trace_values()).max() <= 1e-12


def test_trace_coordinate(disk_mesh):
    f = FemField(disk_mesh, disk_mesh.nodes[:, 0])
    tv = f.trace_values()
    assert np.abs(tv - np.cos(disk_mesh.boundary_theta)).max() < 1e-12


def test_trace_neumann_constant(disk_neumann):
    assert np.ptp(disk_neumann.trace_values()) <= 1e-6


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
        errs.append(np.abs(unu - neumann_flux(f.mesh)).max())
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
    fd = _fd4_arclength_derivative(disk_mesh, f.trace_values())
    assert np.abs(gt - fd).max() < 1e-5


def test_decomposition_exactness(pdisk_neumann):
    g = pdisk_neumann.recovered.gradient[pdisk_neumann.mesh.boundary_idx]
    unu = normal_derivative(pdisk_neumann)
    gt = tangential_gradient(pdisk_neumann)
    assert np.abs((g**2).sum(1) - (unu**2 + gt**2)).max() < 1e-10


# -- Laplace-Beltrami ----------------------------------------------------------------


def laplace_beltrami(mesh, values):
    """Second arclength derivative d^2/ds^2 (the curve Laplace-Beltrami)."""
    return spectral_tangential_derivative(
        mesh, spectral_tangential_derivative(mesh, values)
    )


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
    nu = boundary._frames(ellipse_mesh).nu
    kappa = boundary._frames(ellipse_mesh).kappa
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
    nu = boundary._frames(ellipse_mesh).nu
    for z in (np.zeros(2), np.array([0.4, 0.2])):
        vals = np.einsum("ij,ij->i", pts - z, nu)
        assert abs(surface_integral(ellipse_mesh, vals) - 4 * np.pi) < 1e-8


def test_weights_sum_to_perimeter(ellipse_mesh):
    length = boundary._frames(ellipse_mesh).length
    assert abs(length - ellipse_mesh.domain.measures.perimeter) < 1e-8


# -- integration by parts -----------------------------------------------------------------


def check_integration_by_parts(mesh, v, w):
    """Residual of the closed-curve identity
    integral <grad_G v, grad_G w> dS = - integral v (Lap_G w) dS
    for boundary values v, w.

    Both derivatives are taken spectrally, so the residual measures the
    self-consistency of the boundary calculus; returns (abs_residual,
    rel_residual).
    """
    dv = spectral_tangential_derivative(mesh, v)
    dw = spectral_tangential_derivative(mesh, w)
    lhs = surface_integral(mesh, dv * dw)
    rhs = surface_integral(mesh, v * laplace_beltrami(mesh, w))
    abs_res = abs(lhs + rhs)
    rel = abs_res / max(abs(lhs), abs(rhs), 1e-14)
    return abs_res, rel


def test_parts_coordinate_field(disk_mesh):
    tv = FemField(disk_mesh, disk_mesh.nodes[:, 0]).trace_values()
    abs_res, rel = check_integration_by_parts(disk_mesh, tv, tv)
    # both sides equal pi on the unit circle
    dv = spectral_tangential_derivative(disk_mesh, tv)
    lhs = surface_integral(disk_mesh, dv**2)
    assert abs(lhs - np.pi) < 1e-8
    assert abs_res <= 1e-8


def test_parts_constant(disk_mesh):
    c = np.full(len(disk_mesh.boundary_idx), 2.5)
    f = FemField(disk_mesh, disk_mesh.nodes[:, 1])
    abs_res, _ = check_integration_by_parts(disk_mesh, c, f.trace_values())
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


def lemma21_residual(u_field, kind):
    """Pointwise boundary residual of the flux-Hessian identities of Lemma 2.1.

    For a torsion field with constant trace (kind="dirichlet"):
        <H u_rec grad u, nu> = u_nu (2 - kappa u_nu).
    For a torsion field with constant normal derivative (kind="neumann"):
        <H u_rec grad u, nu> = -kappa |grad_G u|^2
                               + u_nu (2 - Lap_G u - kappa u_nu).
    Uses recovered Hessians and the planar reduction of the normal-field
    Jacobian (<(grad nu) t, t> = kappa |t|^2 for tangential t).  The field
    must pass the audit of its kind.
    """
    (audit_dirichlet if kind == "dirichlet" else audit_neumann)(u_field)
    mesh = u_field.mesh
    idx = mesh.boundary_idx
    rec = u_field.recovered
    frames = boundary._frames(mesh)
    kappa = frames.kappa
    unu = normal_derivative(u_field)
    lhs = hessian_flux(rec.hessian[idx], rec.gradient[idx], frames.nu)
    if kind == "dirichlet":
        rhs = unu * (2.0 - kappa * unu)
    else:
        gt = tangential_gradient(u_field)
        lap_u = laplace_beltrami(mesh, u_field.trace_values())
        rhs = -kappa * gt**2 + unu * (2.0 - lap_u - kappa * unu)
    return lhs - rhs


def test_lemma21_disk_dirichlet(disk_dirichlet):
    res = lemma21_residual(disk_dirichlet, "dirichlet")
    assert np.abs(res).max() <= 1e-4


def test_lemma21_ellipse_dirichlet(ellipse_dirichlet):
    res = lemma21_residual(ellipse_dirichlet, "dirichlet")
    # closed form: at (2,0) both sides equal 0.8 * (2 - 2*0.8) = 0.32
    unu = normal_derivative(ellipse_dirichlet)
    kappa = boundary._frames(ellipse_dirichlet.mesh).kappa
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
    normal_derivative(u)
    tangential_gradient(u)
    eval_neumann_identity(u, (0.0, 0.0))
    assert calls == [len(u.mesh.boundary_idx)]


def test_normal_tangential_reconstructs_vectors(ellipse_mesh):
    rng = np.random.default_rng(3)
    v = rng.uniform(-1.0, 1.0, (len(ellipse_mesh.boundary_idx), 2))
    v_nu, v_tau = normal_tangential(ellipse_mesh, v)
    nu = boundary._frames(ellipse_mesh).nu
    tau = np.stack([-nu[:, 1], nu[:, 0]], axis=1)   # counter-clockwise unit tangent
    back = v_nu[:, None] * nu + v_tau[:, None] * tau
    assert np.abs(back - v).max() <= 1e-15


def _holder_full_scan(mesh, values, alpha):
    """The unpruned O(m^2) scan: every row block against every node."""
    frames = boundary._frames(mesh)
    values = np.asarray(values, dtype=float)
    s = frames.arclengths
    best = 0.0
    n = len(values)
    for i0 in range(0, n, 256):
        block = slice(i0, min(i0 + 256, n))
        d = np.abs(s[block, None] - s[None, :])
        d = np.minimum(d, frames.length - d)
        df = np.abs(values[block, None] - values[None, :])
        ok = d >= mesh.h_max
        if ok.any():
            q = np.where(ok, df / np.where(ok, d, 1.0) ** alpha, 0.0)
            best = max(best, float(q.max()))
    return best


@pytest.mark.parametrize("alpha", [1.0, 0.5, 0.3])
@pytest.mark.parametrize("mesh_name", ["disk_mesh", "ellipse_mesh", "pdisk_mesh"])
def test_holder_seminorm_matches_full_scan(request, mesh_name, alpha):
    mesh = request.getfixturevalue(mesh_name)
    theta = mesh.boundary_theta
    rng = np.random.default_rng(11)
    for _ in range(2):
        k = rng.integers(1, 9)
        smooth = rng.normal() * np.cos(k * theta + rng.uniform(0, 2 * np.pi))
        for values in (smooth, smooth + 1e-3 * rng.normal(size=theta.size),
                       rng.normal(size=theta.size)):
            assert holder_seminorm(mesh, values, alpha) == _holder_full_scan(
                mesh, values, alpha
            )


def test_holder_seminorm_rejects_bad_values(disk_mesh):
    values = np.cos(disk_mesh.boundary_theta)
    values[3] = np.nan
    with pytest.raises(InvalidSpec):
        holder_seminorm(disk_mesh, values, 0.5)
    with pytest.raises(InvalidSpec):
        holder_seminorm(disk_mesh, values[:-1], 0.5)
