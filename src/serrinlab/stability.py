"""Quantitative symmetry measurements for the constant-flux problem.

For each domain the lab measures how far the solution is from the rigid
(disk) configuration: boundary deviations of the trace and its tangential
gradient, the sphere-radii gap rho_e - rho_i about the minimum point, the
weighted Hessian integrals, and the dimensionally calibrated profile psi
that the stability bounds use.  Parameterized perturbation sweeps fit
empirical exponents of the gap against each deviation and check the
one-sided bound gap <= c * psi(deviation) with a single fitted constant.
The integral identities are dispatched here too: which solutions and which
point each identity uses, and the convergence of its residual over mesh
levels.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from .boundary import (
    audit_neumann,
    audit_torsion,
    holder_seminorm,
    normal_derivative,
    surface_integral,
    tangential_gradient,
    trace,
)
from .errors import BoundaryMinimum, GradientNotZeroAtZ, InvalidSpec, InvalidVariant
from .geometry import build_domain, distances_to_boundary, radii_about
from .identities import (
    eval_classical_identity,
    eval_general_identity,
    eval_mother_identity,
    eval_neumann_identity,
    flux_constant,
    hess_h_sq_quad,
    paraboloid_field,
)
from .meshfem import (
    _P2_D2,
    FemField,
    _memo,
    eval_gradient,
    generate_mesh,
    locate_point,
    p2_dshape,
    p2_shape,
    quad_integral,
    quad_points,
    solve_harmonic_dirichlet,
    solve_torsion_dirichlet,
    solve_torsion_neumann,
)

DEFAULT_ALPHA = 0.5
RIGID_GAP_FLOOR = 1e-10
NOISE_FLOOR = 1e-8   # identity terms below this are rigid-case noise
REL_FLOOR = 1e-6     # relative residuals below this are converged noise
ARGMIN_TIE_TOL = 1e-11


# -- the stability profile ----------------------------------------------------

def psi(t, N=2, variant="standard"):
    """Dimension-dependent stability modulus.

    standard: t for N = 2; t * max(log(1/t), 1) for N = 3; t^{2/(N-1)} for
    N >= 4.  improved (N >= 4 only): t^{4/(N+1)}.
    """
    if t <= 0:
        raise ValueError(f"profile argument must be positive, got {t}")
    if variant == "improved":
        if N <= 3:
            raise InvalidVariant("improved profile is defined only for N >= 4")
        return t ** (4.0 / (N + 1))
    if variant != "standard":
        raise InvalidVariant(f"unknown profile variant {variant!r}")
    if N == 2:
        return float(t)
    if N == 3:
        return t * max(math.log(1.0 / t), 1.0)
    return t ** (2.0 / (N - 1))


# -- minimum point ---------------------------------------------------------------

@dataclass
class ArgminResult:
    z: np.ndarray
    value: float
    element: int
    ref: np.ndarray
    n_tied: int
    delta: float     # distance of z to the boundary


def _element_min(coeffs6):
    """Exact minimum of the quadratic on the reference triangle."""
    ref0 = np.zeros((1, 2))
    b = (coeffs6 @ p2_dshape(ref0)[0]).astype(float)       # gradient at origin
    h = coeffs6 @ _P2_D2                                   # (xx, yy, xy)
    A = np.array([[h[0], h[2]], [h[2], h[1]]])
    cands = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if det > 0 and A[0, 0] > 0:
        x = np.linalg.solve(A, -b)
        if x[0] >= 0 and x[1] >= 0 and x.sum() <= 1:
            cands.append(x)
    for edge in ("xi", "eta", "hyp"):
        if edge == "xi":
            p0, d = np.array([0.0, 0.0]), np.array([1.0, 0.0])
        elif edge == "eta":
            p0, d = np.array([0.0, 0.0]), np.array([0.0, 1.0])
        else:
            p0, d = np.array([1.0, 0.0]), np.array([-1.0, 1.0])
        quad = float(d @ A @ d)
        lin = float(d @ (A @ p0 + b))
        if quad > 0:
            t = min(1.0, max(0.0, -lin / quad))
            cands.append(p0 + t * d)
    vals = [float(p2_shape(c[None, :])[0] @ coeffs6) for c in cands]
    k = int(np.argmin(vals))
    return vals[k], cands[k]


@_memo
def argmin_point(u_field) -> ArgminResult:
    """Minimizer of a quadratic-element field, computed once per field.

    Best node, refined by exact per-element quadratic minimization over the
    elements incident to it.  Refined candidates tied within ARGMIN_TIE_TOL
    are averaged; on symmetric meshes this pins the degenerate flat minimum
    of the rigid case to the symmetry center.
    """
    mesh = u_field.mesh
    best_node = int(np.argmin(u_field.coeffs))
    cands = []
    for e in mesh.node_elements[best_node].indices.tolist():
        c6 = u_field.coeffs[mesh.triangles[e]]
        val, ref = _element_min(c6)
        phys = p2_shape(ref[None, :])[0] @ mesh.nodes[mesh.triangles[e]]
        cands.append((val, phys, e, ref))
    vmin = min(c[0] for c in cands)
    tied = [c for c in cands if c[0] <= vmin + ARGMIN_TIE_TOL * (1.0 + abs(vmin))]
    z = np.mean([c[1] for c in tied], axis=0)
    best = min(tied, key=lambda c: c[0])
    dist = float(distances_to_boundary(mesh.domain, z[None, :])[0])
    if dist < 1e-8:
        raise BoundaryMinimum(
            f"refined minimizer {z} sits on the boundary; "
            "inconsistent with a positive constant flux"
        )
    return ArgminResult(z=z, value=vmin, element=best[2], ref=best[3],
                        n_tied=len(tied), delta=dist)


# -- deviation measures ------------------------------------------------------------

@dataclass
class DeviationSet:
    osc_gamma_u: float
    grad_inf: float
    grad_l2: float
    tangential_norm: float
    c1alpha_norm: float
    alpha: float

    def as_dict(self):
        """The five measures by name."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "alpha"}

    def kinds(self):
        """The seven deviation kinds by name: the measures, uniform and weak."""
        return {**self.as_dict(), "uniform": self.uniform(), "weak": self.weak()}

    def uniform(self):
        return self.osc_gamma_u + self.grad_inf

    def weak(self):
        return self.osc_gamma_u + self.grad_l2


def deviations(u_field, alpha=DEFAULT_ALPHA) -> DeviationSet:
    """All boundary deviation measures of a constant-flux field."""
    audit_neumann(u_field)
    mesh = u_field.mesh
    tr = trace(u_field)
    gt = tangential_gradient(u_field)
    ubar = float(tr.max())
    f = ubar - tr
    osc = float(f.max())
    grad_inf = float(np.abs(gt).max())
    grad_l2 = math.sqrt(surface_integral(mesh, gt**2))
    f_l2 = math.sqrt(surface_integral(mesh, f**2))
    tangential_norm = math.hypot(f_l2, grad_l2)
    hol = holder_seminorm(mesh, -gt, alpha)
    c1 = osc + grad_inf + hol
    return DeviationSet(osc, grad_inf, grad_l2, tangential_norm, c1, alpha)


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
    delta_z = argmin_point(u_field).delta
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
    qp = quad_points(mesh)
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


def oscillation_bound_check(u_field, z=None, alpha=DEFAULT_ALPHA,
                            grad_tol=1e-3) -> OscillationBoundReport:
    """Oscillation-of-h diagnostics about the minimum point z.

    Requires grad h(z) ~ 0 (z a joint critical point of u and the
    paraboloid); raises GradientNotZeroAtZ otherwise.  Ratios are reported
    raw; sweeps assert their boundedness, not paper constants.
    """
    audit_neumann(u_field)
    mesh = u_field.mesh
    if z is None:
        res = argmin_point(u_field)
        z, elem, ref = res.z, res.element, res.ref
    else:
        z = np.asarray(z, dtype=float)
        elem, ref = locate_point(mesh, z)
    gu = eval_gradient(u_field, elem, ref)
    if np.linalg.norm(gu) > grad_tol:
        raise GradientNotZeroAtZ(
            f"|grad h(z)| = {np.linalg.norm(gu):.3g} exceeds {grad_tol}"
        )

    tr = trace(u_field)
    h_trace = paraboloid_field(mesh, z).trace_values() - tr
    osc_h = float(np.ptp(h_trace))

    hess_sq = hess_h_sq_quad(u_field)
    W = float(np.sqrt(quad_integral(mesh, _quad_distances(mesh) * hess_sq)))
    ubar = float(tr.max())
    V = float(quad_integral(mesh, (ubar - u_field.values_at_quad()) * hess_sq))

    dev = deviations(u_field, alpha)
    rigid = W <= 1e-8 or dev.tangential_norm <= 1e-10
    lemma51 = 0.0 if rigid else osc_h / W
    lemma53 = 0.0 if rigid else V / (
        (1.0 + dev.osc_gamma_u) * dev.tangential_norm**2
    )
    rho_i, rho_e = radii_about(mesh.domain, z)
    m = mesh.domain.measures
    radii_slack = (rho_e + rho_i) - math.sqrt(m.area / math.pi)
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
    psi_values: dict
    z: tuple
    delta_z: float
    mesh_h: float
    in_smallness_regime: bool
    flags: list = dc_field(default_factory=list)


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
    c_fit: float            # max rho_gap / psi(uniform deviation)
    dropped: list


def loglog_fit(x, y):
    x = np.log(np.asarray(x, dtype=float))
    y = np.log(np.asarray(y, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def _richardson(fine, coarse, p=2):
    return fine + (fine - coarse) / (2.0**p - 1.0)


def sweep_member(mode, epsilon, rho0, h_target, alpha=DEFAULT_ALPHA):
    """One sweep record: solve at two mesh levels, Richardson-extrapolate."""
    flags = []
    per_level = []
    domain = build_domain(rho0, [(mode, epsilon, 0.0)] if epsilon else [])
    for h in (h_target, 0.5 * h_target):
        u = solve_torsion_neumann(generate_mesh(domain, h))
        res = argmin_point(u)
        rho_i, rho_e = radii_about(domain, res.z)
        dev = deviations(u, alpha)
        per_level.append(
            {
                "rho_gap": rho_e - rho_i,
                "dev": dev,
                "z": res.z,
                "delta_z": res.delta,
                "h": u.mesh.h_max,
                "sigma": min(1.0, domain.measures.r_i**2 / 4.0),
            }
        )
    coarse, fine = per_level
    rho_gap = _richardson(fine["rho_gap"], coarse["rho_gap"])
    fd, cd = fine["dev"].as_dict(), coarse["dev"].as_dict()
    dev = DeviationSet(alpha=alpha, **{k: _richardson(fd[k], cd[k]) for k in fd})
    psi_values = {k: (psi(v, 2) if v > 0 else 0.0) for k, v in dev.kinds().items()}
    if rho_gap <= RIGID_GAP_FLOOR:
        flags.append("rigid")
    return StabilityRecord(
        epsilon=epsilon,
        rho_gap=float(rho_gap),
        deviations=dev,
        psi_values=psi_values,
        z=tuple(fine["z"]),
        delta_z=fine["delta_z"],
        mesh_h=fine["h"],
        in_smallness_regime=dev.uniform() < fine["sigma"],
        flags=flags,
    )


def _sweep_worker(args):
    mode, eps, rho0, h_target, alpha = args
    return sweep_member(mode, eps, rho0, h_target, alpha)


def stability_sweep(mode, amplitudes, rho0=1.0, h_target=0.05,
                    alpha=DEFAULT_ALPHA, workers=1) -> SweepResult:
    """Perturbation-family sweep with empirical exponent fits.

    One record per amplitude (Richardson over two mesh levels); log-log
    fits of rho_gap against each deviation kind over the non-rigid records;
    c_fit is the single constant of the one-sided profile bound
    rho_gap <= c_fit * psi(uniform deviation).
    """
    jobs = [(mode, float(e), rho0, h_target, alpha) for e in amplitudes]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_sweep_worker, jobs))
    else:
        records = [_sweep_worker(j) for j in jobs]
    records.sort(key=lambda r: r.epsilon)

    usable = [r for r in records if "rigid" not in r.flags]
    dropped = [r.epsilon for r in records if "rigid" in r.flags]
    fits = {}
    if len(usable) >= 4:
        gaps = [r.rho_gap for r in usable]
        kinds = [r.deviations.kinds() for r in usable]
        for kind in kinds[0]:
            slope, intercept, r2 = loglog_fit([k[kind] for k in kinds], gaps)
            fits[kind] = ExponentFit(kind, slope, intercept, r2, len(usable))
    c_fit = max(
        (r.rho_gap / psi(r.deviations.uniform(), 2) for r in usable),
        default=0.0,
    )
    return SweepResult(records=records, fits=fits, c_fit=c_fit, dropped=dropped)


# -- integral identities over mesh levels ------------------------------------------------

def identity_reports(mesh, identity_id, z=None):
    """Reports of one integral identity on a mesh; z None means the default point.

    general_1_9 pairs the Dirichlet and the Neumann solution and takes no
    point.  neumann_1_11 defaults z to the minimum point of the Neumann
    solution; classical_1_2 and the mother forms use the Dirichlet solution
    and default z to the domain centre.  Either mother form yields both.
    """
    if identity_id == "general_1_9":
        u = solve_torsion_dirichlet(mesh)
        return [eval_general_identity(u, solve_torsion_neumann(mesh))]
    if identity_id == "neumann_1_11":
        u = solve_torsion_neumann(mesh)
        return [eval_neumann_identity(u, argmin_point(u).z if z is None else z)]
    if identity_id not in ("classical_1_2", "mother_3_2", "mother_3_3"):
        raise InvalidSpec(f"unknown identity {identity_id!r}")
    u = solve_torsion_dirichlet(mesh)
    if z is None:
        z = mesh.domain.center
    if identity_id == "classical_1_2":
        return [eval_classical_identity(u, z)]
    return list(eval_mother_identity(u, z))


def convergence_study(domain, identity_id, h_list, dof_cap=None):
    """Identity residuals over mesh levels with a fitted order.

    Returns (rows, fitted_order, flag); flag is "rigid" when every identity
    term sits at the ball-case noise floor, "converged" when the relative
    residual is already below the noise band at all levels (closed-form
    oracle domains), and None otherwise, in which case the order is fitted
    and must be positive.
    """
    if len(set(h_list)) < 3:
        raise InvalidSpec(f"need at least 3 distinct mesh levels, got {h_list}")
    rows = []
    for h in h_list:
        reports = identity_reports(generate_mesh(domain, h, dof_cap=dof_cap), identity_id)
        rep = next(r for r in reports if r.identity_id == identity_id)
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
    trace_residual: float
    laplacian_residual: float


def strong_deviation_pipeline(u_field, alpha=DEFAULT_ALPHA) -> StrongDeviationReport:
    """Auxiliary constant-trace field f = u - w and its flux deviation.

    w is the harmonic extension of the trace of u, so f solves the
    constant-source problem with zero trace; the flux deviation R - f_nu is
    controlled by the strong (C^{1,alpha}) boundary deviation of u, and the
    reported ratio must stay bounded across a perturbation sweep.
    """
    audit_neumann(u_field)
    mesh = u_field.mesh
    w = solve_harmonic_dirichlet(mesh, u_field.trace_values())
    f = FemField(mesh, u_field.coeffs - w.coeffs, kind="generic")
    trace_res = float(np.abs(f.trace_values()).max())
    lap_res = audit_torsion(f)
    dev = flux_constant(u_field) - normal_derivative(f)
    flux_l2 = math.sqrt(surface_integral(mesh, dev**2))
    hol = holder_seminorm(mesh, dev, alpha)
    flux_c0 = float(np.abs(dev).max()) + hol
    u_c1 = deviations(u_field, alpha).c1alpha_norm
    ratio = flux_c0 / u_c1 if u_c1 > 0 else float("inf")
    return StrongDeviationReport(
        flux_deviation_l2=flux_l2,
        flux_deviation_c0alpha=flux_c0,
        trace_deviation_c1alpha=u_c1,
        ratio=ratio,
        trace_residual=trace_res,
        laplacian_residual=lap_res,
    )
