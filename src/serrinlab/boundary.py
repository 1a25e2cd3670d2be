"""Boundary data, their differential operators and integrals, and the
strong-form audits.

Boundary data are plain arrays in boundary-node (theta) order, read against
the mesh's boundary record `_frames`, built once per mesh.  Boundary nodes
sit on a uniform theta grid, so traces support spectral (FFT)
differentiation with the analytic metric |gamma'(theta)|; surface integrals
use the periodic trapezoid weights w_i = dtheta * |gamma'(theta_i)|,
spectrally accurate for smooth integrands.  Every boundary vector is split
into its normal and tangential parts by one function, `normal_tangential`.

Two tangential derivatives are in use.  The deviation measures take the
recovered volume gradient dotted with tau (`tangential_gradient`); the
integral identities take the spectral arclength derivative of the trace
(`spectral_tangential_derivative`).  Neither rule serves both: the
identities need u_tau of a constant trace to be exactly 0 (the recovered
rule leaves 5.9e-7 in the classical reduction chain, against 1e-10), and on
the disk at h = 0.05 the spectral rule leaves sup |u_tau| = 1.8e-6 where
the deviations are held to 1e-6.

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
HOLDER_BLOCK = 64            # nodes per block of the Hoelder seminorm search


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


def surface_integral(mesh, values) -> float:
    """Weighted boundary sum; spectrally accurate for smooth integrands."""
    return float(np.dot(np.asarray(values, dtype=float), _frames(mesh).weights))


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
    osc = float(np.ptp(field.trace_values()))
    if osc > DIRICHLET_AUDIT_TOL:
        raise NotDirichlet(
            f"trace oscillates by {osc:.3g} (> {DIRICHLET_AUDIT_TOL}); "
            "not a constant-trace solution"
        )
    return osc


def holder_seminorm(mesh, values, alpha):
    """Discrete Hoelder seminorm of boundary values: max |f_i - f_j| / d_ij^alpha
    over node pairs whose periodic arclength separation d_ij is at least
    mesh.h_max; 0 < alpha <= 1.

    Exact branch and bound over blocks of HOLDER_BLOCK consecutive nodes:
    block pairs are scanned in decreasing order of an upper bound of their
    quotients, osc / d_min^alpha, until no bound left can beat the running
    maximum, so the value is the one the full O(m^2) scan returns.
    """
    if not 0.0 < alpha <= 1.0:
        raise InvalidSpec(f"Hoelder exponent must lie in (0, 1], got {alpha}")
    frames = _frames(mesh)
    values = np.asarray(values, dtype=float)
    s, length = frames.arclengths, frames.length
    if values.shape != s.shape or not np.isfinite(values).all():
        raise InvalidSpec("Hoelder seminorm needs one finite value per boundary node")
    starts = np.arange(0, s.size, HOLDER_BLOCK)
    fmax = np.maximum.reduceat(values, starts)
    fmin = np.minimum.reduceat(values, starts)
    smax = np.maximum.reduceat(s, starts)
    smin = np.minimum.reduceat(s, starts)
    # for i in block I and j in block J, |f_i - f_j| <= osc[I, J] and
    # lo[I, J] <= |s_i - s_j| <= hi[I, J]; rounding is monotone, so the
    # bounds also hold for the computed quotients
    osc = np.maximum(fmax[None, :] - fmin[:, None], fmax[:, None] - fmin[None, :])
    lo = np.maximum(smin[None, :] - smax[:, None], smin[:, None] - smax[None, :])
    hi = np.maximum(smax[None, :] - smin[:, None], smax[:, None] - smin[None, :])
    d_min = np.maximum(np.minimum(lo, length - hi), mesh.h_max)
    rows, cols = np.triu_indices(starts.size)
    bound = (osc / d_min**alpha)[rows, cols]
    best = 0.0
    for k in np.argsort(-bound, kind="stable"):
        if bound[k] * (1.0 + 1e-12) <= best:   # margin for the rounding of pow
            break
        bi = slice(starts[rows[k]], starts[rows[k]] + HOLDER_BLOCK)
        bj = slice(starts[cols[k]], starts[cols[k]] + HOLDER_BLOCK)
        d = np.abs(s[bi, None] - s[None, bj])
        d = np.minimum(d, length - d)
        df = np.abs(values[bi, None] - values[None, bj])
        ok = d >= mesh.h_max
        if ok.any():
            q = np.where(ok, df / np.where(ok, d, 1.0) ** alpha, 0.0)
            best = max(best, float(q.max()))
    return best
