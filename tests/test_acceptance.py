"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria run at their stated mesh sizes and tolerances; shared solves are
module-scoped fixtures so the suite stays inside the runtime budgets.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from serrinlab.boundary import normal_derivative
from serrinlab.geometry import EllipseDomain, build_domain, radii_about
from serrinlab.identities import (
    eval_classical_identity,
    eval_general_identity,
    eval_mother_identity,
    eval_neumann_identity,
    p_function,
    paraboloid_field,
)
from serrinlab.meshfem import (
    generate_mesh,
    solve_torsion_dirichlet,
    solve_torsion_neumann,
)
from serrinlab.polycheck import identity_case_table
from serrinlab.spectral import (
    check_l2_oscillation_bound,
    neumann_eigenvalue_2,
    steklov_eigenvalue_2,
)
from serrinlab.stability import (
    argmin_point,
    convergence_study,
    deviations,
    geometric_bounds_check,
    loglog_fit,
    oscillation_bound_check,
    psi,
    stability_sweep,
    strong_deviation_pipeline,
)

BAND = 1e-3  # discretization band for the inequality suite


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"[PASS] criterion {number}: {description} ({elapsed:.1f}s)")
    assert elapsed <= budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.1f}s"
    )


# -- shared solves -------------------------------------------------------------

@pytest.fixture(scope="module")
def disk_fields():
    mesh = generate_mesh(build_domain(1.0, []), 0.05)
    return solve_torsion_dirichlet(mesh), solve_torsion_neumann(mesh)




def test_criterion_1_symbolic_identities():
    with criterion(1, "symbolic identity suite, N in {2,3,4,5}", 60):
        rows = identity_case_table((2, 3, 4, 5), 4, 20)
        assert len(rows) == 80
        assert all(r["residual_is_zero"] for r in rows)


def test_criterion_2_rigid_case(disk_fields):
    with criterion(2, "rigid-case suite on the disk at h=0.05", 30):
        ud, un = disk_fields
        z = np.zeros(2)

        rep = eval_classical_identity(ud, z)
        assert all(abs(v) <= 1e-6 for v in rep.terms.values())

        _, rep33 = eval_mother_identity(ud, z)
        assert all(abs(v) <= 1e-6 for v in rep33.terms.values())

        gen = eval_general_identity(ud, ud)
        t = gen.terms
        for name in ("volume_p", "volume_cross", "surface_hessian_flux",
                     "surface_flux", "surface_compat"):
            assert abs(t[name]) <= 1e-6, name
        assert abs(t["surface_energy"] + t["surface_mixed"]) <= 1e-6
        assert abs(gen.abs_residual) <= 1e-6

        neu = eval_neumann_identity(un, z)
        assert all(abs(v) <= 1e-6 for v in neu.terms.values())

        res = argmin_point(un)
        rho_i, rho_e = radii_about(un.mesh.domain, res.z)
        assert rho_e - rho_i <= 1e-8

        dev = deviations(un)
        assert all(v <= 1e-6 for v in dev.as_dict().values())


def test_criterion_3_ellipse_closed_form():
    with criterion(3, "closed-form ellipse oracle suite at h=0.025", 120):
        mesh = generate_mesh(EllipseDomain(2.0, 1.0), 0.025)
        u = solve_torsion_dirichlet(mesh)
        assert abs(u.coeffs[0] - (-0.8)) <= 1e-4

        unu = normal_derivative(u)
        theta = mesh.boundary_theta
        assert abs(unu[np.argmin(np.abs(theta))] - 0.8) <= 1e-3
        assert abs(unu[np.argmin(np.abs(theta - np.pi / 2))] - 1.6) <= 1e-3

        _, dP = p_function(u)
        nodes = mesh.nodes
        interior = (nodes[:, 0] / 2) ** 2 + nodes[:, 1] ** 2 < 0.7
        assert np.abs(dP.coeffs[interior] - 0.72).max() <= 1e-2

        oracle = 0.72 * 4 * np.pi / 5
        rep = eval_classical_identity(u, (0.0, 0.0))
        assert abs(rep.lhs - oracle) <= 0.01 * oracle
        assert rep.rel_residual <= 0.01


def test_criterion_4_identity_convergence():
    with criterion(4, "identity convergence on the perturbed disk", 300):
        pd = build_domain(1.0, [(2, 0.05, 0.0)])
        for ident in ("general_1_9", "neumann_1_11"):
            rows, order, flag = convergence_study(pd, ident, [0.1, 0.05, 0.025])
            rel = [r["rel_residual"] for r in rows]
            assert rel[0] > rel[1] > rel[2], ident
            assert flag is None and order >= 1.0, ident


def test_criterion_5_inequality_suite(disk_fields):
    with criterion(5, "inequality suite and spectral oracles", 300):
        _, un_disk = disk_fields
        fields = [un_disk]
        for dom in (
            EllipseDomain(2.0, 1.0),
            build_domain(1.0, [(2, 0.05, 0.0)]),
            build_domain(1.0, [(3, 0.05, 0.0)]),
            build_domain(1.0, [(2, 0.1, 0.0)]),
        ):
            fields.append(solve_torsion_neumann(generate_mesh(dom, 0.05)))
        for u in fields:
            gb = geometric_bounds_check(u)
            assert gb.quadratic_slack_min >= -BAND
            assert gb.linear_slack_min >= -BAND
            assert gb.remark_slack >= -BAND
            ob = oscillation_bound_check(u)
            assert ob.radii_slack >= -BAND
            l2 = check_l2_oscillation_bound(u, argmin_point(u).z)
            assert l2.slack >= -BAND

        from scipy.special import jnp_zeros

        mesh = generate_mesh(build_domain(1.0, []), 0.025)
        nu2 = neumann_eigenvalue_2(mesh).value
        sig2 = steklov_eigenvalue_2(mesh).value
        oracle_nu = float(jnp_zeros(1, 1)[0] ** 2)
        assert abs(nu2 - oracle_nu) <= 0.005 * oracle_nu
        assert abs(sig2 - 1.0) <= 0.005


def test_criterion_6_stability_sweep():
    with criterion(6, "mode-2 stability sweep, linear profile", 600):
        sweep_result = stability_sweep(2, (0.0125, 0.025, 0.05, 0.1), h_target=0.05)
        fit = sweep_result.fits["uniform"]
        assert 0.85 <= fit.slope <= 1.3
        assert fit.r_squared >= 0.98
        assert fit.n_points == 4
        assert np.isfinite(sweep_result.c_fit)
        for rec in sweep_result.records:
            bound = sweep_result.c_fit * psi(rec.deviations.uniform(), 2)
            assert rec.rho_gap <= bound * (1 + 1e-12)


def test_criterion_7_strong_deviation_pipeline():
    with criterion(7, "harmonic-split pipeline over the sweep", 300):
        eps_grid = (0.0125, 0.025, 0.05, 0.1)
        flux, ratios = [], []
        for eps in eps_grid:
            dom = build_domain(1.0, [(2, eps, 0.0)])
            u = solve_torsion_neumann(generate_mesh(dom, 0.05))
            rep = strong_deviation_pipeline(u)
            assert rep.trace_residual <= 1e-10
            flux.append(rep.flux_deviation_l2)
            ratios.append(rep.ratio)
        slope, _, _ = loglog_fit(eps_grid, flux)
        assert abs(slope - 1.0) <= 0.2
        assert max(ratios) / min(ratios) <= 5.0


def test_criterion_8_equivalence_audits(disk_fields):
    with criterion(8, "algebraic equivalence and gauge audits", 120):
        mesh = generate_mesh(build_domain(1.0, [(2, 0.05, 0.0)]), 0.05)
        u = solve_torsion_neumann(mesh)
        z = argmin_point(u).z

        rep_a, rep_b = eval_mother_identity(u, z)
        assert abs(rep_a.abs_residual - rep_b.abs_residual) <= 1e-10

        rep_g = eval_general_identity(u, paraboloid_field(mesh, z))
        assert abs(rep_g.lhs - rep_a.lhs) <= 1e-10
        assert abs(rep_g.rhs - rep_a.rhs) <= 1e-10
        assert abs(rep_g.abs_residual - rep_a.abs_residual) <= 1e-10

        base = eval_neumann_identity(u, z)
        shifted = u.shifted(17.3)
        moved = eval_neumann_identity(shifted, z)
        assert abs(base.abs_residual - moved.abs_residual) <= 1e-12
        for k in base.terms:
            assert abs(base.terms[k] - moved.terms[k]) <= 1e-12

        ud, _ = disk_fields
        rep_c = eval_classical_identity(ud, (0.0, 0.0))
        rep_gd = eval_general_identity(ud, paraboloid_field(ud.mesh, (0.0, 0.0)))
        R = ud.mesh.domain.measures.R
        bridged = rep_c.abs_residual - 0.5 * R**2 * rep_c.terms["flux_balance"]
        assert abs(rep_gd.abs_residual - bridged) <= 1e-10
