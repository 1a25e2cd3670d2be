"""Integral identities for pairs of constant-source Poisson fields.

Every evaluator assembles the named integrals of one identity from mesh and
boundary primitives and reports the two sides with absolute and relative
residuals.  Boundary ingredients share one construction: for every field
the normal derivative comes from the recovered volume gradient, the
tangential derivative from the spectral arclength derivative of the trace,
and all squared gradients and dot products are built from that
decomposition, so the algebraic rearrangements between identity forms hold
to roundoff independently of FEM error.  Every identity reads the one flux
datum R_h = `neumann_flux(mesh)`, every (ubar - u)-weighted volume term
comes from `weighted_volume`, and `ANCHORS` is the one registry of identity
ids with their equations in the paper.

Strong-form audits (defined in `boundary`) gate every evaluation: the
identities hold only for fields that actually solve the constant-source
problem with the claimed boundary data, so contract violations raise
instead of producing meaningless residuals.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .boundary import (
    _frames,
    audit_dirichlet,
    audit_neumann,
    audit_torsion,
    hessian_flux,
    normal_derivative,
    normal_tangential,
    spectral_tangential_derivative,
    surface_integral,
)
from .meshfem import SOURCE, FemField, neumann_flux, quad_integral, recovered_hessian_at_quad

RESIDUAL_FLOOR = 1e-14
RIGIDITY_TOL = 1e-6   # an identity side at most this times identity_scale counts as <= 0

# every identity id, with the equation of the paper it checks
ANCHORS = {
    "classical_1_2": "Eq. (1.2)",
    "general_1_9": "Eq. (1.9)",
    "mother_3_2": "Eq. (3.2)",
    "mother_3_3": "Eq. (3.3)",
    "neumann_1_11": "Eq. (1.11)",
}


@dataclass
class IdentityReport:
    """One identity evaluation; its fields are the keys of its JSON report."""
    identity: str
    terms: dict
    lhs: float
    rhs: float
    abs_residual: float
    rel_residual: float
    h: float
    domain: str
    extras: dict = dc_field(default_factory=dict)


def domain_fingerprint(mesh):
    payload = json.dumps(mesh.domain.spec_dict(), sort_keys=True)
    digest = hashlib.sha256(f"{payload}|h={mesh.h_target}".encode()).hexdigest()
    return digest[:12]


def identity_scale(domain):
    """(|Omega| / pi)^2, the size of an identity side on the domain: u
    scales as length^2, dx as length^2 and ds as length, so both sides of
    every identity scale as length^4.  1 on the unit disk."""
    return (domain.area / math.pi) ** 2


def _report(identity_id, terms, lhs, rhs, mesh, extras=None):
    abs_res = lhs - rhs
    rel = abs(abs_res) / max(abs(lhs), abs(rhs), RESIDUAL_FLOOR)
    return IdentityReport(
        identity=identity_id,
        terms=terms,
        lhs=lhs,
        rhs=rhs,
        abs_residual=abs_res,
        rel_residual=rel,
        h=mesh.h_max,
        domain=domain_fingerprint(mesh),
        extras=extras or {},
    )


# -- shared ingredients ----------------------------------------------------------

class _BoundaryData:
    """Decomposition-consistent boundary ingredients of one field."""

    def __init__(self, field):
        mesh = self.mesh = field.mesh
        frames = _frames(mesh)
        tr = field.trace_values()
        self.f = float(tr.max()) - tr                        # (ubar - u) on the curve
        self.u_nu = normal_derivative(field)
        self.u_tau = spectral_tangential_derivative(mesh, tr)
        self.grad_sq = self.u_nu**2 + self.u_tau**2
        self.kappa = frames.kappa
        # <H grad u, nu> with the decomposition-consistent gradient vector
        gvec = self.u_nu[:, None] * frames.nu + self.u_tau[:, None] * frames.tau
        self.hess_flux = hessian_flux(
            field.recovered.hessian[mesh.boundary_idx], gvec, frames.nu
        )

    def integrate(self, values):
        return surface_integral(self.mesh, values)


def paraboloid_boundary(mesh, z):
    """Analytic q_nu and q_tau for q = |x - z|^2 / 2 on the boundary."""
    rel = mesh.nodes[mesh.boundary_idx] - np.asarray(z, dtype=float)
    return normal_tangential(mesh, rel)


def paraboloid_field(mesh, z) -> FemField:
    """The P2 interpolant of the paraboloid q(x) = |x - z|^2 / 2."""
    rel = mesh.nodes - np.asarray(z, dtype=float)
    return FemField(mesh, 0.5 * (rel**2).sum(1))


def _delta_p_quad(field):
    """|H_rec|^2 - 2 at volume quadrature points (components interpolated)."""
    hxx, hyy, hxy = recovered_hessian_at_quad(field)
    return hxx**2 + hyy**2 + 2.0 * hxy**2 - SOURCE


def hess_h_sq_quad(field):
    """|I - H_rec|^2 at volume quadrature points: |D^2 h|^2 for h = q - u."""
    hxx, hyy, hxy = recovered_hessian_at_quad(field)
    return (1.0 - hxx) ** 2 + (1.0 - hyy) ** 2 + 2.0 * hxy**2


def weighted_volume(field, values):
    """int (ubar - u) X over the domain, for X given as values (T, Q) at the
    volume quadrature points."""
    ubar = float(field.trace_values().max())
    return quad_integral(field.mesh, (ubar - field.values_at_quad()) * values)


# -- identity evaluators -------------------------------------------------------------

def eval_general_identity(u_field, v_field) -> IdentityReport:
    """Two-solution identity: for fields u, v with Laplacian 2,

      int (ubar-u) dP + int <(I - H(v)) grad u, grad u>
        = int_G (ubar-u) <H(u) grad u, nu>
        + 1/2 int_G |grad u|^2 (u_nu + v_nu)
        - int_G <grad v, grad u> u_nu
        - int_G (ubar-u) u_nu
        + 2 int_G (ubar-u) (u_nu - v_nu).
    """
    audit_torsion(u_field)
    audit_torsion(v_field)
    mesh = u_field.mesh
    if v_field.mesh is not mesh:
        raise ValueError("fields must share one mesh")
    bu = _BoundaryData(u_field)
    bv = _BoundaryData(v_field)

    volume_p = weighted_volume(u_field, _delta_p_quad(u_field))

    gu = u_field.gradient_at_quad()
    hxx, hyy, hxy = recovered_hessian_at_quad(v_field)
    cross = (
        (1.0 - hxx) * gu[..., 0] ** 2
        + (1.0 - hyy) * gu[..., 1] ** 2
        - 2.0 * hxy * gu[..., 0] * gu[..., 1]
    )
    volume_cross = quad_integral(mesh, cross)

    dot_uv = bu.u_nu * bv.u_nu + bu.u_tau * bv.u_tau
    s1 = bu.integrate(bu.f * bu.hess_flux)
    s2 = 0.5 * bu.integrate(bu.grad_sq * (bu.u_nu + bv.u_nu))
    s3 = -bu.integrate(dot_uv * bu.u_nu)
    s4 = -bu.integrate(bu.f * bu.u_nu)
    s5 = SOURCE * bu.integrate(bu.f * (bu.u_nu - bv.u_nu))

    terms = {
        "volume_p": volume_p,
        "volume_cross": volume_cross,
        "surface_hessian_flux": s1,
        "surface_energy": s2,
        "surface_mixed": s3,
        "surface_flux": s4,
        "surface_compat": s5,
    }
    lhs = volume_p + volume_cross
    rhs = s1 + s2 + s3 + s4 + s5
    return _report("general_1_9", terms, lhs, rhs, mesh)


def eval_mother_identity(u_field, z):
    """Both forms of the paraboloid specialization (v = q), as a pair.

    The two forms differ by the exact gradient decomposition, so their
    residuals agree to roundoff.
    """
    audit_torsion(u_field)
    mesh = u_field.mesh
    bu = _BoundaryData(u_field)
    q_nu, q_tau = paraboloid_boundary(mesh, z)

    volume_p = weighted_volume(u_field, _delta_p_quad(u_field))

    s_hess = bu.integrate(bu.f * bu.hess_flux)
    s_datum = bu.integrate(bu.f * (bu.u_nu - SOURCE * q_nu))
    extras = {"z": list(np.asarray(z, dtype=float))}

    # first form: squared full gradients against (u_nu + q_nu)
    m_energy = 0.5 * bu.integrate(bu.grad_sq * (bu.u_nu + q_nu))
    m_mixed = -bu.integrate((q_nu * bu.u_nu + q_tau * bu.u_tau) * bu.u_nu)
    terms_a = {
        "volume_p": volume_p,
        "surface_energy": m_energy,
        "surface_mixed": m_mixed,
        "surface_hessian_flux": s_hess,
        "surface_datum": s_datum,
    }
    rhs_a = m_energy + m_mixed + s_hess + s_datum
    rep_a = _report("mother_3_2", terms_a, volume_p, rhs_a, mesh, dict(extras))

    # second form: normal/tangential split
    n_flux = 0.5 * bu.integrate(bu.u_nu**2 * (bu.u_nu - q_nu))
    n_tangential = 0.5 * bu.integrate(bu.u_tau**2 * (bu.u_nu + q_nu))
    n_mixed = -bu.integrate(q_tau * bu.u_tau * bu.u_nu)
    terms_b = {
        "volume_p": volume_p,
        "surface_flux_cubic": n_flux,
        "surface_tangential": n_tangential,
        "surface_mixed_tangential": n_mixed,
        "surface_hessian_flux": s_hess,
        "surface_datum": s_datum,
    }
    rhs_b = n_flux + n_tangential + n_mixed + s_hess + s_datum
    rep_b = _report("mother_3_3", terms_b, volume_p, rhs_b, mesh, dict(extras))
    return rep_a, rep_b


def eval_neumann_identity(u_field, z) -> IdentityReport:
    """Constant-flux identity with h = q - u:

      int (ubar-u) |H h|^2 = 1/2 int_G |grad_G u|^2 h_nu
                           + int_G (ubar-u) (R kappa - 2) h_nu
                           - int_G (ubar-u) kappa |grad_G u|^2.

    The volume term is non-negative, so a non-positive right-hand side
    forces h affine and the domain a disk; extras["rigidity_holds"] records
    that implication with both sides read at the tolerance
    RIGIDITY_TOL * identity_scale.
    """
    osc_unu = audit_neumann(u_field)
    mesh = u_field.mesh
    bu = _BoundaryData(u_field)
    q_nu, _ = paraboloid_boundary(mesh, z)
    R = neumann_flux(mesh)
    h_nu = q_nu - bu.u_nu

    volume = weighted_volume(u_field, hess_h_sq_quad(u_field))

    t1 = 0.5 * bu.integrate(bu.u_tau**2 * h_nu)
    t2 = bu.integrate(bu.f * (R * bu.kappa - SOURCE) * h_nu)
    t3 = -bu.integrate(bu.f * bu.kappa * bu.u_tau**2)

    terms = {
        "volume_hessian": volume,
        "surface_tangential_flux": t1,
        "surface_curvature_flux": t2,
        "surface_curvature_tangential": t3,
    }
    rhs = t1 + t2 + t3
    tol = RIGIDITY_TOL * identity_scale(mesh.domain)
    extras = {
        "z": list(np.asarray(z, dtype=float)),
        "R": float(R),
        "osc_u_nu": float(osc_unu),
        "rigidity_holds": bool(rhs > tol or volume <= tol),
    }
    return _report("neumann_1_11", terms, volume, rhs, mesh, extras)


def eval_classical_identity(u_field, z) -> IdentityReport:
    """Constant-trace identity:

      int (ubar-u) dP = 1/2 int_G (u_nu^2 - R^2)(u_nu - q_nu).

    The report also carries flux_balance = int_G (u_nu - q_nu) dS, whose
    continuum value is zero; it is the exact bridge between this form and
    the paraboloid-specialized general identity.
    """
    osc_trace = audit_dirichlet(u_field)
    mesh = u_field.mesh
    bu = _BoundaryData(u_field)
    q_nu, _ = paraboloid_boundary(mesh, z)
    R = neumann_flux(mesh)

    volume_p = weighted_volume(u_field, _delta_p_quad(u_field))
    rhs = 0.5 * bu.integrate((bu.u_nu**2 - R**2) * (bu.u_nu - q_nu))
    flux_balance = bu.integrate(bu.u_nu - q_nu)

    terms = {"volume_p": volume_p, "surface_flux_defect": rhs,
             "flux_balance": flux_balance}
    extras = {
        "z": list(np.asarray(z, dtype=float)),
        "R": float(R),
        "osc_trace": float(osc_trace),
    }
    return _report("classical_1_2", terms, volume_p, rhs, mesh, extras)
