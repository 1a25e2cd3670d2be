"""Boundary data, their differential operators and integrals, and the
strong-form audits.

Boundary data are plain arrays in boundary-node (theta) order, read against
the mesh's boundary record `_frames`, built once per mesh.  Boundary nodes
sit on a uniform theta grid, so traces support spectral (FFT)
differentiation with the analytic metric |gamma'(theta)|; surface integrals
use the periodic trapezoid weights w_i = dtheta * |gamma'(theta_i)|,
spectrally accurate for smooth integrands.  Every boundary vector is split
into its normal and tangential parts by one function, `normal_tangential`.

Two tangential derivatives are in use.  The deviation measures and the
Lemma 2.1 residual take the recovered volume gradient dotted with tau
(`tangential_gradient`); the integral identities take the spectral
arclength derivative of the trace (`spectral_tangential_derivative`).

Each audit is defined here once: a field must solve the constant-source
problem (`audit_torsion`) with the claimed boundary data (`audit_dirichlet`,
`audit_neumann`) before an identity or bound is evaluated on it.
"""

from types import SimpleNamespace

import numpy as np

from ._quadrature import fft_antiderivative, fft_derivative
from .errors import InvalidSpec, NotDirichlet, NotNeumann, NotTorsion
from .meshfem import SOURCE, _memo

TORSION_AUDIT_TOL = 0.5      # mean |trace of recovered Hessian - 2|
NEUMANN_AUDIT_TOL = 0.05     # oscillation of the recovered normal derivative
                             # (flux is only approximate at coarse h)
DIRICHLET_AUDIT_TOL = 1e-3   # oscillation of the trace (imposed exactly)


@_memo
def _frames(mesh):
    """The mesh's boundary record: normals nu, tangents tau = (-nu_y, nu_x),
    curvature kappa, metric |gamma'|, trapezoid weights, cumulative
    arclength (the theta-antiderivative of the metric) at the boundary nodes,
    and the total length."""
    _, nu, kappa, speed = mesh.domain.frame_arrays(mesh.boundary_theta)
    weights = (2.0 * np.pi / speed.size) * speed
    return SimpleNamespace(
        nu=nu,
        tau=np.stack([-nu[:, 1], nu[:, 0]], axis=1),
        kappa=kappa,
        metric=speed,
        weights=weights,
        arclengths=fft_antiderivative(speed),
        length=float(weights.sum()),
    )


def boundary_normals(mesh):
    return _frames(mesh).nu


def boundary_tangents(mesh):
    """Counter-clockwise unit tangents tau = (-nu_y, nu_x) at the boundary nodes."""
    return _frames(mesh).tau


def boundary_curvatures(mesh):
    return _frames(mesh).kappa


def normal_tangential(mesh, vectors):
    """(v . nu, v . tau) of vectors v (m,2) given at the boundary nodes."""
    frames = _frames(mesh)
    return (np.einsum("ij,ij->i", vectors, frames.nu),
            np.einsum("ij,ij->i", vectors, frames.tau))


def hessian_flux(H, g, nu):
    """<H g, nu> per node, for H (m,3) as xx, yy, xy and vectors g, nu (m,2)."""
    Hg = np.stack(
        [H[:, 0] * g[:, 0] + H[:, 2] * g[:, 1], H[:, 2] * g[:, 0] + H[:, 1] * g[:, 1]],
        axis=1,
    )
    return np.einsum("ij,ij->i", Hg, nu)


def trace(field):
    """Boundary nodal values of a field, in theta order."""
    return field.trace_values()


def normal_derivative(field):
    """v_nu = <recovered gradient, nu> at the boundary nodes."""
    mesh = field.mesh
    return normal_tangential(mesh, field.recovered.gradient[mesh.boundary_idx])[0]


def tangential_gradient(field):
    """Signed tangential component <recovered gradient, tau> at the boundary nodes."""
    mesh = field.mesh
    return normal_tangential(mesh, field.recovered.gradient[mesh.boundary_idx])[1]


def spectral_tangential_derivative(mesh, values):
    """d/ds of boundary values by FFT in theta with the analytic metric."""
    return fft_derivative(values) / _frames(mesh).metric


def laplace_beltrami(mesh, values):
    """Second arclength derivative d^2/ds^2 (the curve Laplace-Beltrami)."""
    return spectral_tangential_derivative(
        mesh, spectral_tangential_derivative(mesh, values)
    )


def surface_integral(mesh, values) -> float:
    """Weighted boundary sum; spectrally accurate for smooth integrands."""
    return float(np.dot(np.asarray(values, dtype=float), _frames(mesh).weights))


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


# -- audits -------------------------------------------------------------------

def audit_torsion(field):
    """Strong-form check: trace of the recovered Hessian must sit near 2."""
    H = field.recovered.hessian
    dev = float(np.mean(np.abs(H[:, 0] + H[:, 1] - SOURCE)))
    if dev > TORSION_AUDIT_TOL:
        raise NotTorsion(
            f"mean |Laplacian - 2| = {dev:.3g} exceeds {TORSION_AUDIT_TOL}; "
            f"field kind={field.kind!r} is not a constant-source solution"
        )
    return dev


def audit_neumann(field):
    audit_torsion(field)
    osc = float(np.ptp(normal_derivative(field)))
    if osc > NEUMANN_AUDIT_TOL:
        raise NotNeumann(
            f"normal derivative oscillates by {osc:.3g} (> {NEUMANN_AUDIT_TOL}); "
            "not a constant-flux solution"
        )
    return osc


def audit_dirichlet(field):
    audit_torsion(field)
    osc = float(np.ptp(trace(field)))
    if osc > DIRICHLET_AUDIT_TOL:
        raise NotDirichlet(
            f"trace oscillates by {osc:.3g} (> {DIRICHLET_AUDIT_TOL}); "
            "not a constant-trace solution"
        )
    return osc


def lemma21_residual(u_field, kind):
    """Pointwise boundary residual of the flux-Hessian identities.

    For a torsion field with constant trace (kind="dirichlet"):
        <H u_rec grad u, nu> = u_nu (2 - kappa u_nu).
    For a torsion field with constant normal derivative (kind="neumann"):
        <H u_rec grad u, nu> = -kappa |grad_G u|^2
                               + u_nu (2 - Lap_G u - kappa u_nu).
    Uses recovered Hessians and the planar reduction of the normal-field
    Jacobian (<(grad nu) t, t> = kappa |t|^2 for tangential t).  The field
    must pass the audit of its kind.
    """
    if kind not in ("dirichlet", "neumann"):
        raise ValueError(f"unknown kind {kind!r}")
    (audit_dirichlet if kind == "dirichlet" else audit_neumann)(u_field)
    mesh = u_field.mesh
    idx = mesh.boundary_idx
    rec = u_field.recovered
    kappa = boundary_curvatures(mesh)
    unu = normal_derivative(u_field)
    lhs = hessian_flux(rec.hessian[idx], rec.gradient[idx], boundary_normals(mesh))
    if kind == "dirichlet":
        rhs = unu * (2.0 - kappa * unu)
    else:
        gt = tangential_gradient(u_field)
        lap_u = laplace_beltrami(mesh, trace(u_field))
        rhs = -kappa * gt**2 + unu * (2.0 - lap_u - kappa * unu)
    return lhs - rhs


def holder_seminorm(mesh, values, alpha):
    """Discrete Hoelder seminorm of boundary values: max |f_i - f_j| / d_ij^alpha
    over node pairs whose periodic arclength separation d_ij is at least
    mesh.h_max; 0 < alpha <= 1."""
    if not 0.0 < alpha <= 1.0:
        raise InvalidSpec(f"Hoelder exponent must lie in (0, 1], got {alpha}")
    frames = _frames(mesh)
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
