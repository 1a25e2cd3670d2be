"""Differential operators and integrals on the discretized boundary curve.

Boundary nodes sit on a uniform theta grid, so trace data supports spectral
(FFT) differentiation with the analytic metric |gamma'(theta)|.  Surface
integrals use the periodic trapezoid weights w_i = dtheta * |gamma'(theta_i)|,
spectrally accurate for smooth integrands.  Pointwise normal and tangential
derivative data comes from the patch-recovered volume gradient; the
tangential component is cross-checked against a 4th-order finite-difference
arclength derivative of the trace.
"""

import numpy as np

from ._quadrature import fft_antiderivative, fft_derivative
from .errors import NotDirichlet, NotNeumann

KIND_AUDIT_TOL = 0.05   # oscillation tolerance for boundary-data audits


class BoundaryFunction:
    """Nodal values on the closed boundary curve, ordered by theta.

    Carries the quadrature weights (periodic trapezoid with the analytic
    arclength density), cumulative arclength, and optionally tangential
    derivative values.
    """

    def __init__(self, mesh, values, d_ds=None):
        self.mesh = mesh
        self.values = np.asarray(values, dtype=float)
        self.theta = mesh.boundary_theta
        if self.values.shape != self.theta.shape:
            raise ValueError("value count does not match boundary node count")
        _, _, _, speed = _frames(mesh)
        m = self.theta.size
        self.metric = speed
        self.weights = (2.0 * np.pi / m) * speed
        self.arclengths = fft_antiderivative(speed)  # theta-antiderivative of |gamma'|
        self.d_ds = None if d_ds is None else np.asarray(d_ds, dtype=float)

    @property
    def total_length(self):
        return float(self.weights.sum())

    def osc(self):
        return float(self.values.max() - self.values.min())

    def to_csv(self, path):
        data = np.column_stack([self.theta, self.arclengths, self.values])
        header = "theta,arclength,value"
        np.savetxt(path, data, delimiter=",", header=header, comments="")


def _frames(mesh):
    """Cached (point, nu, kappa, speed) at the boundary nodes."""
    if "bframes" not in mesh._cache:
        mesh._cache["bframes"] = mesh.domain.frame_arrays(mesh.boundary_theta)
    return mesh._cache["bframes"]


def boundary_normals(mesh):
    return _frames(mesh)[1]


def boundary_tangents(mesh):
    """Counter-clockwise unit tangents tau = (-nu_y, nu_x) at the boundary nodes."""
    nu = boundary_normals(mesh)
    return np.stack([-nu[:, 1], nu[:, 0]], axis=1)


def boundary_curvatures(mesh):
    return _frames(mesh)[2]


def hessian_flux(H, g, nu):
    """<H g, nu> per node, for H (m,3) as xx, yy, xy and vectors g, nu (m,2)."""
    Hg = np.stack(
        [H[:, 0] * g[:, 0] + H[:, 2] * g[:, 1], H[:, 2] * g[:, 0] + H[:, 1] * g[:, 1]],
        axis=1,
    )
    return np.einsum("ij,ij->i", Hg, nu)


def trace(field) -> BoundaryFunction:
    """Boundary nodal values of a field, in theta order."""
    return BoundaryFunction(field.mesh, field.trace_values())


def normal_derivative(field) -> BoundaryFunction:
    """v_nu = <recovered gradient, nu> at the boundary nodes."""
    mesh = field.mesh
    g = field.recovered.gradient[mesh.boundary_idx]
    nu = boundary_normals(mesh)
    return BoundaryFunction(mesh, np.einsum("ij,ij->i", g, nu))


def tangential_gradient(field) -> BoundaryFunction:
    """Signed tangential component of the recovered gradient.

    The result carries ``fd_discrepancy``: the max deviation from the
    4th-order finite-difference arclength derivative of the trace.
    """
    mesh = field.mesh
    g = field.recovered.gradient[mesh.boundary_idx]
    vals = np.einsum("ij,ij->i", g, boundary_tangents(mesh))
    out = BoundaryFunction(mesh, vals)
    fd = _fd4_derivative(field.trace_values(), mesh.boundary_theta) / out.metric
    out.fd_discrepancy = float(np.abs(vals - fd).max())
    return out


def _fd4_derivative(values, theta):
    dtheta = 2.0 * np.pi / theta.size
    vp1, vm1 = np.roll(values, -1), np.roll(values, 1)
    vp2, vm2 = np.roll(values, -2), np.roll(values, 2)
    return (8.0 * (vp1 - vm1) - (vp2 - vm2)) / (12.0 * dtheta)


def spectral_tangential_derivative(bfun) -> BoundaryFunction:
    """d/ds of a boundary function by FFT in theta with the analytic metric."""
    d = fft_derivative(bfun.values) / bfun.metric
    return BoundaryFunction(bfun.mesh, d)


def laplace_beltrami(bfun) -> BoundaryFunction:
    """Second arclength derivative d^2/ds^2 (the curve Laplace-Beltrami)."""
    first = fft_derivative(bfun.values) / bfun.metric
    second = fft_derivative(first) / bfun.metric
    return BoundaryFunction(bfun.mesh, second)


def surface_integral(bfun, values=None) -> float:
    """Weighted boundary sum; spectrally accurate for smooth integrands."""
    if values is None:
        values = bfun.values
    return float(np.dot(np.asarray(values, dtype=float), bfun.weights))


def check_integration_by_parts(v, w):
    """Residual of the closed-curve identity
    integral <grad_G v, grad_G w> dS = - integral v (Lap_G w) dS.

    Both derivatives are taken spectrally from the traces, so the residual
    measures the self-consistency of the boundary calculus.  Accepts
    FemFields or BoundaryFunctions; returns (abs_residual, rel_residual).
    """
    bv = v if isinstance(v, BoundaryFunction) else trace(v)
    bw = w if isinstance(w, BoundaryFunction) else trace(w)
    dv = spectral_tangential_derivative(bv)
    lw = laplace_beltrami(bw)
    dw = spectral_tangential_derivative(bw)
    lhs = surface_integral(dv, dv.values * dw.values)
    rhs = surface_integral(bv, bv.values * lw.values)
    abs_res = abs(lhs + rhs)
    rel = abs_res / max(abs(lhs), abs(rhs), 1e-14)
    return abs_res, rel


def lemma21_residual(u_field, kind, audit_tol=KIND_AUDIT_TOL) -> BoundaryFunction:
    """Pointwise boundary residual of the flux-Hessian identities.

    For a torsion field with constant trace (kind="dirichlet"):
        <H u_rec grad u, nu> = u_nu (2 - kappa u_nu).
    For a torsion field with constant normal derivative (kind="neumann"):
        <H u_rec grad u, nu> = -kappa |grad_G u|^2
                               + u_nu (2 - Lap_G u - kappa u_nu).
    Uses recovered Hessians and the planar reduction of the normal-field
    Jacobian (<(grad nu) t, t> = kappa |t|^2 for tangential t).
    """
    mesh = u_field.mesh
    if kind not in ("dirichlet", "neumann"):
        raise ValueError(f"unknown kind {kind!r}")
    tr = trace(u_field)
    unu = normal_derivative(u_field)
    if kind == "dirichlet" and tr.osc() > audit_tol:
        raise NotDirichlet(f"trace oscillation {tr.osc():.3g} exceeds {audit_tol}")
    if kind == "neumann" and unu.osc() > audit_tol:
        raise NotNeumann(
            f"normal-derivative oscillation {unu.osc():.3g} exceeds {audit_tol}"
        )

    idx = mesh.boundary_idx
    rec = u_field.recovered
    _, nu, kappa, _ = _frames(mesh)
    lhs = hessian_flux(rec.hessian[idx], rec.gradient[idx], nu)
    if kind == "dirichlet":
        rhs = unu.values * (2.0 - kappa * unu.values)
    else:
        gt = tangential_gradient(u_field)
        lap_u = laplace_beltrami(tr)
        rhs = -kappa * gt.values**2 + unu.values * (
            2.0 - lap_u.values - kappa * unu.values
        )
    return BoundaryFunction(mesh, lhs - rhs)


def holder_seminorm(values, arclengths, total_length, alpha, min_sep):
    """Discrete Hoelder seminorm: max |f_i - f_j| / d_ij^alpha over node
    pairs with periodic arclength separation d_ij >= min_sep."""
    values = np.asarray(values, dtype=float)
    s = np.asarray(arclengths, dtype=float)
    best = 0.0
    n = len(values)
    for i0 in range(0, n, 256):
        block = slice(i0, min(i0 + 256, n))
        d = np.abs(s[block, None] - s[None, :])
        d = np.minimum(d, total_length - d)
        df = np.abs(values[block, None] - values[None, :])
        ok = d >= min_sep
        if ok.any():
            q = np.where(ok, df / np.where(ok, d, 1.0) ** alpha, 0.0)
            best = max(best, float(q.max()))
    return best
