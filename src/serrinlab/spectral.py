"""Second Neumann and Steklov eigenvalues and the oscillation bound.

Both eigenproblems share the stiffness matrix; the Neumann problem pairs it
with the consistent volume mass matrix, the Steklov problem with a diagonal
boundary mass carrying the spectral arclength weights.  The smallest
nonzero eigenvalue comes from inverse iteration with the constant mode
deflated in the defining inner product, so every right-hand side is
compatible and each iteration calls the zero-mean solve of ``meshfem``,
whose one factor per mesh is shared with the Neumann torsion solve.
"""

from dataclasses import dataclass

import numpy as np

from .boundary import _frames, audit_neumann, surface_integral
from .errors import ConvergenceFailure
from .identities import flux_constant, paraboloid_boundary, paraboloid_field
from .meshfem import (
    FemField,
    _memo,
    assemble_mass,
    assemble_stiffness,
    nodal_to_quad,
    quad_integral,
    solve_zero_mean,
    volume_integral,
)

MAX_ITERATIONS = 500
RAYLEIGH_TOL = 1e-9


@dataclass
class EigenResult:
    which: str
    value: float
    eigenfunction: FemField
    rayleigh_residual: float
    iterations: int


def _inverse_iteration(mesh, apply_b, which):
    K = assemble_stiffness(mesh)
    ones = np.ones(mesh.n_nodes)
    b_ones = apply_b(ones)
    ones_sq = float(ones @ b_ones)

    def deflate(vec):
        return vec - (float(vec @ b_ones) / ones_sq) * ones

    x = deflate(mesh.nodes[:, 0].copy())
    x /= np.sqrt(float(x @ apply_b(x)))
    value = None
    for it in range(1, MAX_ITERATIONS + 1):
        y = deflate(solve_zero_mean(mesh, apply_b(x)))
        by = apply_b(y)
        norm = np.sqrt(float(y @ by))
        if norm == 0.0:
            raise ConvergenceFailure(f"{which}: iteration collapsed to zero")
        x = y / norm
        bx = apply_b(x)
        kx = K @ x
        value = float(x @ kx) / float(x @ bx)
        residual = np.linalg.norm(kx - value * bx) / np.linalg.norm(kx)
        if residual <= RAYLEIGH_TOL:
            return value, x, residual, it
    raise ConvergenceFailure(
        f"{which}: no convergence after {MAX_ITERATIONS} iterations "
        f"(residual {residual:.3e})"
    )


def neumann_eigenvalue_2(mesh) -> EigenResult:
    """Smallest nonzero eigenvalue of the free-membrane Laplacian."""
    M = assemble_mass(mesh)
    value, x, res, it = _inverse_iteration(mesh, lambda v: M @ v, "neumann")
    return EigenResult("neumann", value, FemField(mesh, x), res, it)


@_memo
def _boundary_mass_diagonal(mesh):
    diag = np.zeros(mesh.n_nodes)
    diag[mesh.boundary_idx] = _frames(mesh).weights
    return diag


def steklov_eigenvalue_2(mesh) -> EigenResult:
    """Smallest nonzero eigenvalue of the Dirichlet-to-Neumann map."""
    diag = _boundary_mass_diagonal(mesh)
    value, x, res, it = _inverse_iteration(mesh, lambda v: diag * v, "steklov")
    return EigenResult("steklov", value, FemField(mesh, x), res, it)


@_memo
def eigenvalues(mesh):
    """Cached (nu2, sigma2) pair for a mesh."""
    return neumann_eigenvalue_2(mesh), steklov_eigenvalue_2(mesh)


@dataclass
class OscillationL2Report:
    lhs: float
    rhs: float
    slack: float
    nu2: float
    sigma2: float
    flux_deviation_l2: float
    h_mean_volume: float
    h_mean_boundary: float


def check_l2_oscillation_bound(u_field, z, a=0.0) -> OscillationL2Report:
    """Volume-L2 bound on h = q - u by its flux deviation:

        || h - mean(h) ||_{2, Omega} <= 2 || R - q_nu ||_{2, Gamma}
                                        / sqrt(nu2 * sigma2).

    Both the volume mean (used in the bound) and the boundary mean are
    reported.  The slack rhs - lhs must not drop below the discretization
    band; it is reported, never clamped.
    """
    audit_neumann(u_field)
    mesh = u_field.mesh
    h = paraboloid_field(mesh, z, a).coeffs - u_field.coeffs
    area = volume_integral(mesh, lambda p: np.ones(len(p)))
    h_mean = volume_integral(mesh, h) / area
    dev = h - h_mean
    lhs = float(np.sqrt(quad_integral(mesh, nodal_to_quad(mesh, dev) ** 2)))

    q_nu, _ = paraboloid_boundary(mesh, z)
    flux_sq = (flux_constant(u_field) - q_nu) ** 2
    flux_dev = float(np.sqrt(surface_integral(mesh, flux_sq)))
    h_mean_boundary = surface_integral(mesh, h[mesh.boundary_idx]) / _frames(mesh).length

    nu_res, sig_res = eigenvalues(mesh)
    rhs = 2.0 * flux_dev / np.sqrt(nu_res.value * sig_res.value)
    return OscillationL2Report(
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        nu2=nu_res.value,
        sigma2=sig_res.value,
        flux_deviation_l2=flux_dev,
        h_mean_volume=float(h_mean),
        h_mean_boundary=h_mean_boundary,
    )
