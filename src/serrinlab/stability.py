"""Quantitative symmetry measurements for the constant-flux problem.

For each domain the lab measures how far the solution is from the rigid
(disk) configuration: boundary deviations of the trace and its tangential
gradient, the sphere-radii gap rho_e - rho_i about the minimum point, and
the weighted Hessian integrals.  Parameterized perturbation sweeps solve
each member once, fit empirical exponents of the gap against each
deviation and report the single constant of the one-sided linear bound
gap <= c_fit * (uniform deviation), with the uniform deviation
osc_Gamma u + sup |grad_Gamma u|; the uniform fit has a fixed contract.
The integral identities are dispatched here too: which solutions and which
point each identity uses, and the convergence of its residual over mesh
levels.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .boundary import (
    audit_neumann,
    audit_torsion,
    holder_seminorm,
    normal_derivative,
    surface_integral,
    tangential_gradient,
)
from .errors import BoundaryMinimum, GradientNotZeroAtZ, InvalidSpec, NotTorsion
from .geometry import build_domain, distances_to_boundary, radii_about
from .identities import (
    ANCHORS,
    eval_classical_identity,
    eval_general_identity,
    eval_mother_identity,
    eval_neumann_identity,
    hess_h_sq_quad,
    paraboloid_field,
    weighted_volume,
)
from .meshfem import (
    _memo,
    eval_gradient,
    generate_mesh,
    neumann_flux,
    quad_integral,
    solve_torsion_dirichlet,
    solve_torsion_neumann,
)

HOLDER_ALPHA = 0.5   # the Hoelder exponent of every C^{0,alpha} deviation
IDENTITY_TOL = 1e-2  # verify-identity passes when rel_residual <= IDENTITY_TOL
RIGID_GAP_FLOOR = 1e-10
NOISE_FLOOR = 1e-8   # identity terms below this are rigid-case noise
REL_FLOOR = 1e-6     # relative residuals below this are converged noise
GRAD_TOL = 1e-3      # largest |grad h| accepted at the minimum point
SWEEP_FIT_MIN = 4    # non-rigid records an exponent fit needs
SWEEP_SLOPE_MIN = 0.85   # the sweep contract: the uniform slope lies in
SWEEP_SLOPE_MAX = 1.3    # [SWEEP_SLOPE_MIN, SWEEP_SLOPE_MAX] with r^2 at
SWEEP_R2_MIN = 0.98      # least SWEEP_R2_MIN


# -- minimum point ---------------------------------------------------------------

@dataclass
class ArgminResult:
    """The minimum point z, the lowest node, from which one Newton step
    reaches z, and the radii about z: rho_i is the distance of z to the
    boundary."""
    z: np.ndarray
    node: int
    rho_i: float
    rho_e: float


@_memo
def argmin_point(u_field) -> ArgminResult:
    """Minimum point z of a constant-source field, computed once per field.

    One Newton step from the lowest node n on its patch-recovered gradient
    g_n and Hessian H_n: z = x_n - H_n^{-1} g_n.  z moves continuously with
    the coefficients while the lowest node stays the same, and on a mesh
    symmetric about that node it is the node to roundoff.  The radii about
    z come from one `radii_about` call.  Raises BoundaryMinimum when n or z
    lies on the boundary, PointNotInterior when z lies outside, and
    NotTorsion when H_n is not positive definite (at the minimum of a
    constant-source field H is positive definite with trace 2).
    """
    mesh = u_field.mesh
    n = int(np.argmin(u_field.coeffs))
    if mesh.boundary_mask[n]:
        raise BoundaryMinimum(
            f"lowest node {n} lies on the boundary; "
            "inconsistent with a positive constant flux"
        )
    hxx, hyy, hxy = u_field.recovered.hessian[n]
    if not (hxx > 0 and hxx * hyy - hxy**2 > 0):
        raise NotTorsion(
            f"recovered Hessian (xx, yy, xy) = {(hxx, hyy, hxy)} at the lowest "
            "node is not positive definite"
        )
    H = np.array([[hxx, hxy], [hxy, hyy]])
    z = mesh.nodes[n] - np.linalg.solve(H, u_field.recovered.gradient[n])
    rho_i, rho_e = radii_about(mesh.domain, z)
    if rho_i < 1e-8:
        raise BoundaryMinimum(
            f"minimum point {z} sits on the boundary; "
            "inconsistent with a positive constant flux"
        )
    return ArgminResult(z=z, node=n, rho_i=rho_i, rho_e=rho_e)


# -- deviation measures ------------------------------------------------------------

@dataclass
class DeviationSet:
    osc_gamma_u: float
    grad_inf: float
    grad_l2: float
    tangential_norm: float
    c1alpha_norm: float

    def as_dict(self):
        """The five measures by name."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def kinds(self):
        """The seven deviation kinds by name: the measures, uniform and weak."""
        return {**self.as_dict(), "uniform": self.uniform(), "weak": self.weak()}

    def uniform(self):
        return self.osc_gamma_u + self.grad_inf

    def weak(self):
        return self.osc_gamma_u + self.grad_l2


def deviations(u_field) -> DeviationSet:
    """All boundary deviation measures of a constant-flux field."""
    audit_neumann(u_field)
    mesh = u_field.mesh
    tr = u_field.trace_values()
    gt = tangential_gradient(u_field)
    ubar = float(tr.max())
    f = ubar - tr
    osc = float(f.max())
    grad_inf = float(np.abs(gt).max())
    grad_l2 = math.sqrt(surface_integral(mesh, gt**2))
    f_l2 = math.sqrt(surface_integral(mesh, f**2))
    tangential_norm = math.hypot(f_l2, grad_l2)
    hol = holder_seminorm(mesh, -gt, HOLDER_ALPHA)
    c1 = osc + grad_inf + hol
    return DeviationSet(osc, grad_inf, grad_l2, tangential_norm, c1)


# -- pointwise geometric bounds -------------------------------------------------------

@dataclass
class GeometricBoundsReport:
    quadratic_slack_min: float
    linear_slack_min: float
    remark_slack: float
    delta_z: float
    grad_sup: float
    r_i: float


def geometric_bounds_check(u_field) -> GeometricBoundsReport:
    """Lower bounds of (ubar - u) by the boundary distance, plus the
    interiority bound for the minimum point.

    quadratic:  ubar - u >= delta^2 / 2       (any constant-source field)
    linear:     ubar - u >= r_i * delta / 2   (interior sphere radius r_i)
    remark:     delta(z) >= (r_i^2 - 2 osc) / (2 sup |grad u|)
    """
    audit_torsion(u_field)
    mesh = u_field.mesh
    ubar = float(u_field.trace_values().max())
    f = ubar - u_field.coeffs
    delta = _node_distances(mesh)
    m = mesh.domain.measures
    quad_slack = float((f - 0.5 * delta**2).min())
    lin_slack = float((f - 0.5 * m.r_i * delta).min())
    delta_z = argmin_point(u_field).rho_i
    grad_sup = float(np.linalg.norm(u_field.recovered.gradient, axis=1).max())
    osc = float(ubar - u_field.trace_values().min())
    remark_rhs = (m.r_i**2 - 2.0 * osc) / (2.0 * grad_sup)
    return GeometricBoundsReport(
        quadratic_slack_min=quad_slack,
        linear_slack_min=lin_slack,
        remark_slack=delta_z - remark_rhs,
        delta_z=delta_z,
        grad_sup=grad_sup,
        r_i=m.r_i,
    )


@_memo
def _node_distances(mesh):
    return distances_to_boundary(mesh.domain, mesh.nodes)


@_memo
def _quad_distances(mesh):
    qp = mesh.element_ops()["qp"]
    return distances_to_boundary(mesh.domain, qp.reshape(-1, 2)).reshape(qp.shape[:2])


# -- oscillation bound diagnostics ------------------------------------------------------

@dataclass
class OscillationBoundReport:
    osc_h: float
    weighted_hessian: float      # || sqrt(delta) H h ||_{2, Omega}
    volume_term: float           # int (ubar - u) |H h|^2
    lemma51_ratio: float
    lemma53_ratio: float
    radii_slack: float           # (rho_e + rho_i) - sqrt(|Omega| / pi)
    in_smallness_regime: bool
    rigid: bool


def oscillation_bound_check(u_field) -> OscillationBoundReport:
    """Oscillation-of-h diagnostics about the minimum point z.

    Requires grad h(z) ~ 0 (z a joint critical point of u and the
    paraboloid); raises GradientNotZeroAtZ when |grad u(z)| exceeds
    GRAD_TOL.  Ratios are reported raw; sweeps assert their boundedness,
    not paper constants.
    """
    dev = deviations(u_field)   # audits the constant flux first
    mesh = u_field.mesh
    res = argmin_point(u_field)
    z = res.z
    gu = eval_gradient(u_field, z, mesh.node_elements[res.node].indices)
    if np.linalg.norm(gu) > GRAD_TOL:
        raise GradientNotZeroAtZ(
            f"|grad h(z)| = {np.linalg.norm(gu):.3g} exceeds {GRAD_TOL}"
        )

    h_trace = paraboloid_field(mesh, z).trace_values() - u_field.trace_values()
    osc_h = float(np.ptp(h_trace))

    hess_sq = hess_h_sq_quad(u_field)
    W = float(np.sqrt(quad_integral(mesh, _quad_distances(mesh) * hess_sq)))
    V = weighted_volume(u_field, hess_sq)

    rigid = W <= 1e-8 or dev.tangential_norm <= 1e-10
    lemma51 = 0.0 if rigid else osc_h / W
    lemma53 = 0.0 if rigid else V / (
        (1.0 + dev.osc_gamma_u) * dev.tangential_norm**2
    )
    m = mesh.domain.measures
    radii_slack = (res.rho_e + res.rho_i) - math.sqrt(m.area / math.pi)
    sigma = min(1.0, m.r_i**2 / 4.0)
    return OscillationBoundReport(
        osc_h=osc_h,
        weighted_hessian=W,
        volume_term=V,
        lemma51_ratio=lemma51,
        lemma53_ratio=lemma53,
        radii_slack=radii_slack,
        in_smallness_regime=dev.uniform() < sigma,
        rigid=rigid,
    )


# -- sweeps -------------------------------------------------------------------------

@dataclass
class StabilityRecord:
    epsilon: float
    rho_gap: float
    deviations: DeviationSet
    z: tuple
    delta_z: float
    mesh_h: float
    in_smallness_regime: bool
    flags: list


@dataclass
class ExponentFit:
    deviation_kind: str
    slope: float
    intercept: float
    r_squared: float
    n_points: int


@dataclass
class SweepResult:
    records: list
    fits: dict
    c_fit: float            # max rho_gap / uniform deviation
    c_fit_first_order: float | None
    dropped: list


def loglog_fit(x, y):
    x = np.log(np.asarray(x, dtype=float))
    y = np.log(np.asarray(y, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def family_domain(mode, epsilon):
    """Member r = 1 + epsilon cos(mode theta) of the unit-disk perturbation family."""
    return build_domain(1.0, [(mode, epsilon, 0.0)] if epsilon else [])


def check_family(mode, amplitudes, n_fit):
    """Raise InvalidSpec for a perturbation family that cannot be fitted: a
    mode below 1, an amplitude that is not positive, or fewer than n_fit
    distinct amplitudes.  Callers run it before any meshing."""
    if mode < 1:
        raise InvalidSpec(f"perturbation mode must be at least 1, got {mode}")
    bad = [e for e in amplitudes if not e > 0]
    if bad:
        raise InvalidSpec(f"amplitudes must be positive, got {bad}")
    if len(set(amplitudes)) < n_fit:
        raise InvalidSpec(f"the fit needs {n_fit} distinct amplitudes, got {amplitudes}")


def sweep_member(mode, epsilon, h_target):
    """One sweep record from one Neumann solve on a mesh at h_target / 2."""
    domain = family_domain(mode, epsilon)
    u = solve_torsion_neumann(generate_mesh(domain, 0.5 * h_target))
    res = argmin_point(u)
    dev = deviations(u)
    rho_gap = float(res.rho_e - res.rho_i)
    sigma = min(1.0, domain.measures.r_i**2 / 4.0)
    return StabilityRecord(
        epsilon=epsilon,
        rho_gap=rho_gap,
        deviations=dev,
        z=tuple(res.z),
        delta_z=res.rho_i,
        mesh_h=u.mesh.h_max,
        in_smallness_regime=dev.uniform() < sigma,
        flags=["rigid"] if rho_gap <= RIGID_GAP_FLOOR else [],
    )


def stability_sweep(mode, amplitudes, h_target=0.05) -> SweepResult:
    """Perturbation-family sweep of the unit disk with empirical exponent fits.

    One record per amplitude (`sweep_member`, one solve at h_target / 2);
    log-log fits of rho_gap against each deviation kind over the non-rigid
    records; c_fit, the largest rho_gap / (uniform deviation) over them, is
    the single constant of the one-sided linear bound
    rho_gap <= c_fit * (uniform deviation), so every non-rigid record meets it;
    c_fit_first_order is its limit as the amplitudes go to 0.
    """
    check_family(mode, amplitudes, SWEEP_FIT_MIN)
    records = [sweep_member(mode, float(e), h_target) for e in amplitudes]
    records.sort(key=lambda r: r.epsilon)

    usable = [r for r in records if "rigid" not in r.flags]
    dropped = [r.epsilon for r in records if "rigid" in r.flags]
    fits = {}
    if len(usable) >= SWEEP_FIT_MIN:
        gaps = [r.rho_gap for r in usable]
        kinds = [r.deviations.kinds() for r in usable]
        for kind in kinds[0]:
            slope, intercept, r2 = loglog_fit([k[kind] for k in kinds], gaps)
            fits[kind] = ExponentFit(kind, slope, intercept, r2, len(usable))
    c_fit = max((r.rho_gap / r.deviations.uniform() for r in usable), default=0.0)
    # the limit of c_fit as the amplitudes go to 0, from the first-order
    # solution; mode 1 only translates the disk to first order, where both
    # rho_gap and the uniform deviation vanish, so it has no such limit
    first_order = 2 * mode / ((mode - 1) * (mode + 2)) if mode > 1 else None
    return SweepResult(records=records, fits=fits, c_fit=c_fit,
                       c_fit_first_order=first_order, dropped=dropped)


# -- integral identities over mesh levels ------------------------------------------------

def identity_reports(mesh, identity_id):
    """Reports of one integral identity on a mesh.

    general_1_9 pairs the Dirichlet and the Neumann solution and takes no
    point.  neumann_1_11 is evaluated at the minimum point of the Neumann
    solution; classical_1_2 and the mother forms use the Dirichlet solution
    at the domain centre.  Either mother form yields both.
    """
    if identity_id not in ANCHORS:
        raise InvalidSpec(f"unknown identity {identity_id!r}")
    if identity_id == "general_1_9":
        u = solve_torsion_dirichlet(mesh)
        return [eval_general_identity(u, solve_torsion_neumann(mesh))]
    if identity_id == "neumann_1_11":
        u = solve_torsion_neumann(mesh)
        return [eval_neumann_identity(u, argmin_point(u).z)]
    u = solve_torsion_dirichlet(mesh)
    z = mesh.domain.center
    if identity_id == "classical_1_2":
        return [eval_classical_identity(u, z)]
    return list(eval_mother_identity(u, z))


def convergence_study(domain, identity_id, h_list):
    """Identity residuals over mesh levels with a fitted order.

    Returns (rows, fitted_order, flag); flag is "rigid" when every identity
    term sits at the ball-case noise floor, "converged" when the relative
    residual is already below the noise band at all levels (closed-form
    oracle domains), and None otherwise, in which case the order is fitted
    and must be positive.
    """
    if len(set(h_list)) < 3:
        raise InvalidSpec(f"need at least 3 distinct mesh levels, got {h_list}")
    if not all(h > 0 for h in h_list):
        raise InvalidSpec(f"mesh levels must be positive, got {h_list}")
    rows = []
    for h in h_list:
        reports = identity_reports(generate_mesh(domain, h), identity_id)
        rep = next(r for r in reports if r.identity == identity_id)
        rows.append(
            {
                "h": h,
                "rel_residual": rep.rel_residual,
                "abs_residual": rep.abs_residual,
                "scale": max(abs(rep.lhs), abs(rep.rhs)),
            }
        )
    if all(r["scale"] <= NOISE_FLOOR for r in rows):
        return rows, None, "rigid"
    if all(r["rel_residual"] <= REL_FLOOR for r in rows):
        return rows, None, "converged"
    slope, _, _ = loglog_fit(
        [r["h"] for r in rows], [r["rel_residual"] for r in rows]
    )
    return rows, slope, None


# -- strong-deviation pipeline -----------------------------------------------------------

@dataclass
class StrongDeviationReport:
    flux_deviation_l2: float
    flux_deviation_c0alpha: float
    trace_deviation_c1alpha: float
    ratio: float
    laplacian_residual: float


def strong_deviation_pipeline(mesh) -> StrongDeviationReport:
    """Flux deviation of the Dirichlet solution f against the strong
    (C^{1,alpha}) boundary deviation of the Neumann solution u on one mesh.

    f is u minus the harmonic extension of the trace of u; on the mesh both
    fields solve the same interior rows, so f is the zero-trace solve.  Its
    flux deviation R - f_nu is controlled by the C^{1,alpha} deviation of u,
    and the reported ratio must stay bounded across a perturbation sweep.
    """
    f = solve_torsion_dirichlet(mesh)
    lap_res = audit_torsion(f)
    dev = neumann_flux(mesh) - normal_derivative(f)
    flux_l2 = math.sqrt(surface_integral(mesh, dev**2))
    hol = holder_seminorm(mesh, dev, HOLDER_ALPHA)
    flux_c0 = float(np.abs(dev).max()) + hol
    u_c1 = deviations(solve_torsion_neumann(mesh)).c1alpha_norm
    ratio = flux_c0 / u_c1 if u_c1 > 0 else float("inf")
    return StrongDeviationReport(
        flux_deviation_l2=flux_l2,
        flux_deviation_c0alpha=flux_c0,
        trace_deviation_c1alpha=u_c1,
        ratio=ratio,
        laplacian_residual=lap_res,
    )
