"""Integral identities for pairs of constant-source Poisson fields.

Every evaluator assembles the named integrals of one identity from mesh and
boundary primitives and reports the two sides with absolute and relative
residuals.  Boundary ingredients share one construction: the normal
derivative comes from the recovered volume gradient, the tangential
derivative from the spectral arclength derivative of the trace, and all
squared gradients and dot products are built from that decomposition, so
the algebraic rearrangements between identity forms hold to roundoff
independently of FEM error.

Strong-form audits (defined in `boundary`) gate every evaluation: the
identities hold only for fields that actually solve the constant-source
problem with the claimed boundary data, so contract violations raise
instead of producing meaningless residuals.
"""

import hashlib
import json
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
from .geometry import radii_about
from .meshfem import SOURCE, FemField, quad_integral, recovered_hessian_at_quad

RESIDUAL_FLOOR = 1e-14


@dataclass
class IdentityReport:
    identity_id: str
    terms: dict
    lhs: float
    rhs: float
    abs_residual: float
    rel_residual: float
    mesh_h: float
    domain_fingerprint: str
    extras: dict = dc_field(default_factory=dict)

    def to_dict(self):
        return {
            "identity": self.identity_id,
            "terms": self.terms,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_residual": self.abs_residual,
            "rel_residual": self.rel_residual,
            "h": self.mesh_h,
            "domain": self.domain_fingerprint,
            "extras": self.extras,
        }


def domain_fingerprint(mesh):
    payload = json.dumps(mesh.domain.spec_dict(), sort_keys=True)
    digest = hashlib.sha256(f"{payload}|h={mesh.h_target}".encode()).hexdigest()
    return digest[:12]


def _report(identity_id, terms, lhs, rhs, mesh, extras=None):
    abs_res = lhs - rhs
    rel = abs(abs_res) / max(abs(lhs), abs(rhs), RESIDUAL_FLOOR)
    return IdentityReport(
        identity_id=identity_id,
        terms=terms,
        lhs=lhs,
        rhs=rhs,
        abs_residual=abs_res,
        rel_residual=rel,
        mesh_h=mesh.h_max,
        domain_fingerprint=domain_fingerprint(mesh),
        extras=extras or {},
    )


# -- shared ingredients ----------------------------------------------------------

class _BoundaryData:
    """Decomposition-consistent boundary ingredients of one field."""

    def __init__(self, field):
        mesh = self.mesh = field.mesh
        frames = _frames(mesh)
        tr = field.trace_values()
        self.ubar = float(tr.max())
        self.f = self.ubar - tr                              # (ubar - u) on the curve
        self.u_nu = normal_derivative(field)
        if field.analytic_gradient is not None:
            g = field.analytic_gradient(mesh.nodes[mesh.boundary_idx])
            _, self.u_tau = normal_tangential(mesh, g)
        else:
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


def flux_constant(field):
    """R_disc of a constant-flux solve, else the domain's R = 2|Omega|/|Gamma|."""
    R = getattr(field, "R_disc", None)
    return field.mesh.domain.measures.R if R is None else R


def paraboloid_field(mesh, z, a=0.0) -> FemField:
    """The paraboloid q(x) = |x - z|^2 / 2 + a as a field.

    Nodal coefficients are the interpolant; derivative queries use the
    closed forms (gradient x - z, unit Hessian), so identity evaluations
    with v = q specialize exactly to the dedicated paraboloid forms.
    """
    z = np.asarray(z, dtype=float)
    rel = mesh.nodes - z
    f = FemField(mesh, 0.5 * (rel**2).sum(1) + a, kind="generic")
    f.analytic_gradient = lambda pts: np.asarray(pts) - z
    f.analytic_hessian = lambda pts: np.broadcast_to(
        np.array([1.0, 1.0, 0.0]), (len(pts), 3)
    ).copy()
    return f


def _delta_p_quad(field):
    """|H_rec|^2 - 2 at volume quadrature points (components interpolated)."""
    hxx, hyy, hxy = recovered_hessian_at_quad(field)
    return hxx**2 + hyy**2 + 2.0 * hxy**2 - SOURCE


def hess_h_sq_quad(field):
    """|I - H_rec|^2 at volume quadrature points: |D^2 h|^2 for h = q - u."""
    hxx, hyy, hxy = recovered_hessian_at_quad(field)
    return (1.0 - hxx) ** 2 + (1.0 - hyy) ** 2 + 2.0 * hxy**2


def _ubar_minus_u_quad(field, ubar):
    return ubar - field.values_at_quad()


def p_function(u_field):
    """P = |grad u|^2 / 2 + (ubar - u) and its distributed Laplacian.

    The Laplacian field is |H_rec|^2 - 2 clamped at zero where it dips
    negative by less than the recovery-noise tolerance; the clamp count is
    attached to the returned field.
    """
    audit_torsion(u_field)
    mesh = u_field.mesh
    rec = u_field.recovered
    ubar = float(u_field.trace_values().max())
    P = 0.5 * (rec.gradient**2).sum(1) + (ubar - u_field.coeffs)
    dP = rec.hessian[:, 0] ** 2 + rec.hessian[:, 1] ** 2 + 2 * rec.hessian[:, 2] ** 2
    dP = dP - SOURCE
    clamp_tol = 1e-6
    small_neg = (dP < 0) & (dP >= -clamp_tol)
    clamped = dP.copy()
    clamped[small_neg] = 0.0
    p_field = FemField(mesh, P, kind="generic")
    dp_field = FemField(mesh, clamped, kind="generic")
    dp_field.clamp_count = int(small_neg.sum())
    dp_field.min_before_clamp = float(dP.min())
    return p_field, dp_field


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

    f_quad = _ubar_minus_u_quad(u_field, bu.ubar)
    volume_p = quad_integral(mesh, f_quad * _delta_p_quad(u_field))

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


def eval_mother_identity(u_field, z, a=0.0):
    """Both forms of the paraboloid specialization (v = q), as a pair.

    The offset a enters only through the additive constant of q, which no
    term consumes; reports record it for provenance.  The two forms differ
    by the exact gradient decomposition, so their residuals agree to
    roundoff.
    """
    audit_torsion(u_field)
    mesh = u_field.mesh
    bu = _BoundaryData(u_field)
    q_nu, q_tau = paraboloid_boundary(mesh, z)

    f_quad = _ubar_minus_u_quad(u_field, bu.ubar)
    volume_p = quad_integral(mesh, f_quad * _delta_p_quad(u_field))

    s_hess = bu.integrate(bu.f * bu.hess_flux)
    s_datum = bu.integrate(bu.f * (bu.u_nu - SOURCE * q_nu))
    extras = {"z": list(np.asarray(z, dtype=float)), "a": float(a)}

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
    """
    osc_unu = audit_neumann(u_field)
    mesh = u_field.mesh
    bu = _BoundaryData(u_field)
    q_nu, _ = paraboloid_boundary(mesh, z)
    R = flux_constant(u_field)
    h_nu = q_nu - bu.u_nu

    f_quad = _ubar_minus_u_quad(u_field, bu.ubar)
    volume = quad_integral(mesh, f_quad * hess_h_sq_quad(u_field))

    t1 = 0.5 * bu.integrate(bu.u_tau**2 * h_nu)
    t2 = bu.integrate(bu.f * (R * bu.kappa - SOURCE) * h_nu)
    t3 = -bu.integrate(bu.f * bu.kappa * bu.u_tau**2)

    terms = {
        "volume_hessian": volume,
        "surface_tangential_flux": t1,
        "surface_curvature_flux": t2,
        "surface_curvature_tangential": t3,
    }
    extras = {
        "z": list(np.asarray(z, dtype=float)),
        "R": float(R),
        "osc_u_nu": float(osc_unu),
    }
    return _report("neumann_1_11", terms, volume, t1 + t2 + t3, mesh, extras)


def eval_classical_identity(u_field, z, a=0.0) -> IdentityReport:
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
    R = mesh.domain.measures.R

    f_quad = _ubar_minus_u_quad(u_field, bu.ubar)
    volume_p = quad_integral(mesh, f_quad * _delta_p_quad(u_field))
    rhs = 0.5 * bu.integrate((bu.u_nu**2 - R**2) * (bu.u_nu - q_nu))
    flux_balance = bu.integrate(bu.u_nu - q_nu)

    terms = {"volume_p": volume_p, "surface_flux_defect": rhs,
             "flux_balance": flux_balance}
    extras = {
        "z": list(np.asarray(z, dtype=float)),
        "a": float(a),
        "R": float(R),
        "osc_trace": float(osc_trace),
    }
    return _report("classical_1_2", terms, volume_p, rhs, mesh, extras)


@dataclass
class RigidityVerdict:
    rhs_value: float
    volume_value: float
    rhs_nonpositive: bool
    v_small: bool
    sphere_deviation: float
    tol: float
    implication_ok: bool


def rigidity_test(u_field, z, tol=1e-6) -> RigidityVerdict:
    """Spherical-rigidity verdict from the constant-flux identity.

    A non-positive right-hand side forces the volume term to vanish, which
    forces h = q - u affine and the domain a disk; the verdict records both
    sides and the measured sphere deviation rho_e - rho_i about z.
    """
    rep = eval_neumann_identity(u_field, z)
    s = rep.rhs
    V = rep.lhs
    rho_i, rho_e = radii_about(u_field.mesh.domain, z)
    rhs_nonpositive = s <= tol
    v_small = V <= tol
    return RigidityVerdict(
        rhs_value=s,
        volume_value=V,
        rhs_nonpositive=rhs_nonpositive,
        v_small=v_small,
        sphere_deviation=rho_e - rho_i,
        tol=tol,
        implication_ok=(not rhs_nonpositive) or v_small,
    )
