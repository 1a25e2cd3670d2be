"""Command-line entry point: run solves, identity checks, spectral
computations, and stability sweeps, persisting machine-readable reports.

Every run writes its artifacts plus a manifest (command, canonical config
hash, domain spec, seeds, version, timestamp, artifact list) into the
output directory.  Exit codes: 0 when all asserted contracts pass, 2 on a
contract violation, 1 on an operational error; once the output directory
exists, a failed run's manifest records the error text.
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidSpec, SerrinLabError
from .geometry import domain_from_spec
from .meshfem import (
    generate_mesh,
    solve_harmonic_dirichlet,
    solve_torsion_dirichlet,
    solve_torsion_neumann,
)
from .boundary import trace
from .polycheck import identity_case_table
from .spectral import check_l2_oscillation_bound, eigenvalues
from .stability import (
    NOISE_FLOOR,
    argmin_point,
    convergence_study,
    geometric_bounds_check,
    identity_reports,
    loglog_fit,
    oscillation_bound_check,
    psi,
    stability_sweep,
    strong_deviation_pipeline,
)

ANCHORS = {
    "classical_1_2": "Eq. (1.2)",
    "general_1_9": "Eq. (1.9)",
    "mother_3_2": "Eq. (3.2)",
    "mother_3_3": "Eq. (3.3)",
    "neumann_1_11": "Eq. (1.11)",
}

PASS, CONTRACT_FAIL, ERROR = 0, 2, 1


def _sanitize(obj):
    """JSON-ready copy: numpy values become Python values, non-finite floats strings."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return str(obj)
    return obj


class Run:
    """Creates the output directory, collects artifacts and writes the
    manifest at the end (with the error text of a failed run)."""

    def __init__(self, args):
        self.command = args.command
        self.out = Path(args.out)
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InvalidSpec(f"--out {args.out!r}: cannot create directory ({exc})")
        config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
        self.config = config
        payload = json.dumps(config, sort_keys=True, default=str)
        self.config_hash = hashlib.sha256(payload.encode()).hexdigest()[:16]
        self.artifacts = []
        self.error = None

    def write_json(self, name, data):
        path = self.out / name
        with open(path, "w") as fh:
            json.dump(_sanitize(data), fh, indent=2)
            fh.write("\n")
        self.artifacts.append(str(path))
        return path

    def write_npz(self, name, **arrays):
        path = self.out / name
        np.savez(path, **arrays)
        self.artifacts.append(str(path))
        return path

    def write_csv(self, name, header, rows):
        path = self.out / name
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        self.artifacts.append(str(path))
        return path

    def finish(self, status):
        manifest = {
            "command": self.command,
            "config": {k: str(v) for k, v in self.config.items()},
            "config_hash": self.config_hash,
            "version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "status": status,
            "artifacts": sorted(self.artifacts),
        }
        if self.error is not None:
            manifest["error"] = self.error
        with open(self.out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
        return status


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _numbers(text, flag, kind):
    """Comma-separated finite numbers of a CLI flag, as a list of `kind`."""
    try:
        values = [kind(t) for t in text.split(",")]
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        raise InvalidSpec(f"{flag} needs comma-separated finite numbers, got {text!r}")
    return values


def _finite_float(text):
    """argparse type of a float flag: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"needs a finite number, got {text!r}")
    return value


def _load_domain(args):
    with open(args.domain) as fh:
        return domain_from_spec(json.load(fh))


# -- subcommands ------------------------------------------------------------------

def cmd_solve(args, run):
    domain = _load_domain(args)
    mesh = generate_mesh(domain, args.h_target, dof_cap=args.dof_cap)
    if args.problem == "torsion-dirichlet":
        field = solve_torsion_dirichlet(mesh)
    else:
        field = solve_torsion_neumann(mesh)
        if args.problem == "harmonic":
            field = solve_harmonic_dirichlet(mesh, field.trace_values())
    run.write_npz(
        "field.npz",
        nodes=mesh.nodes,
        triangles=mesh.triangles,
        boundary_idx=mesh.boundary_idx,
        boundary_theta=mesh.boundary_theta,
        coeffs=field.coeffs,
    )
    tr = trace(field)
    report = {
        "problem": args.problem,
        "dof": mesh.n_nodes,
        "h_max": mesh.h_max,
        "min_value": float(field.coeffs.min()),
        "center_value": float(field.coeffs[0]),
        "trace_oscillation": float(np.ptp(tr)),
    }
    if hasattr(field, "R_disc"):
        report["R_disc"] = field.R_disc
    report["domain"] = domain.spec_dict()
    run.write_json("solve_report.json", report)
    return run.finish(PASS)


def cmd_verify_identity(args, run):
    z = None
    if args.z != "auto":
        z = np.array(_numbers(args.z, "--z", float))
        if z.shape != (2,):
            raise InvalidSpec(f"--z needs 'auto' or two numbers x,y, got {args.z!r}")
    domain = _load_domain(args)
    mesh = generate_mesh(domain, args.h_target, dof_cap=args.dof_cap)
    reports = identity_reports(mesh, args.identity, z)
    status = PASS
    for rep in reports:
        data = rep.to_dict()
        data["anchor"] = ANCHORS[rep.identity_id]
        run.write_json(f"identity_{rep.identity_id}.json", data)
        rigid = max(abs(rep.lhs), abs(rep.rhs)) <= NOISE_FLOOR
        if rep.rel_residual > args.tol and not rigid:
            status = CONTRACT_FAIL
    return run.finish(status)


def cmd_pointwise_identity(args, run):
    dims = _numbers(args.N, "--N", int)
    rows = identity_case_table(dims, args.degree, args.cases, args.seed)
    header = ["N", "degree", "seed", "residual_is_zero", "spot_residual"]
    run.write_csv(
        "pointwise_identity.csv",
        header,
        [[r[h] for h in header] for r in rows],
    )
    all_ok = all(r["residual_is_zero"] for r in rows)
    for r in rows:
        print(
            f"N={r['N']} degree={r['degree']} seed={r['seed']} "
            f"zero_residual={r['residual_is_zero']}"
        )
    return run.finish(PASS if all_ok else CONTRACT_FAIL)


def cmd_spectral(args, run):
    domain = _load_domain(args)
    mesh = generate_mesh(domain, args.h_target, dof_cap=args.dof_cap)
    nu, sig = eigenvalues(mesh)
    data = {
        "nu2": nu.value,
        "sigma2": sig.value,
        "residuals": {
            "neumann": nu.rayleigh_residual,
            "steklov": sig.rayleigh_residual,
        },
        "iterations": {"neumann": nu.iterations, "steklov": sig.iterations},
    }
    run.write_json("spectral.json", data)
    ok = max(nu.rayleigh_residual, sig.rayleigh_residual) <= 1e-8
    return run.finish(PASS if ok else CONTRACT_FAIL)


def cmd_sweep(args, run):
    amplitudes = _numbers(args.amplitudes, "--amplitudes", float)
    result = stability_sweep(
        args.mode,
        amplitudes,
        h_target=args.h_target,
        alpha=args.alpha,
        workers=args.workers,
    )
    header = [
        "epsilon", "rho_gap", "osc_gamma_u", "grad_inf", "grad_l2",
        "tangential_norm", "c1alpha_norm", "psi_uniform", "psi_weak",
        "z_x", "z_y", "delta_z", "mesh_h", "in_smallness_regime", "flags",
    ]
    rows = []
    for r in result.records:
        d = r.deviations
        rows.append(
            [
                r.epsilon, r.rho_gap, d.osc_gamma_u, d.grad_inf, d.grad_l2,
                d.tangential_norm, d.c1alpha_norm,
                r.psi_values.get("uniform", 0.0), r.psi_values.get("weak", 0.0),
                r.z[0], r.z[1], r.delta_z, r.mesh_h,
                int(r.in_smallness_regime), "|".join(r.flags),
            ]
        )
    run.write_csv("sweep_records.csv", header, rows)
    fit_data = {
        k: {
            "slope": f.slope,
            "intercept": f.intercept,
            "r_squared": f.r_squared,
            "n_points": f.n_points,
        }
        for k, f in result.fits.items()
    }
    fit_data["c_fit_uniform"] = result.c_fit
    fit_data["dropped_rigid"] = result.dropped
    run.write_json("exponent_fits.json", fit_data)

    status = PASS
    fit = result.fits.get("uniform")
    if fit is None or not (args.slope_min <= fit.slope <= args.slope_max):
        status = CONTRACT_FAIL
    elif fit.r_squared < args.r2_min:
        status = CONTRACT_FAIL
    else:
        for rec in result.records:
            if "rigid" in rec.flags:
                continue
            bound = result.c_fit * psi(rec.deviations.uniform(), 2)
            if rec.rho_gap > bound * (1 + 1e-12):
                status = CONTRACT_FAIL
    return run.finish(status)


def cmd_check_bounds(args, run):
    domain = _load_domain(args)
    mesh = generate_mesh(domain, args.h_target, dof_cap=args.dof_cap)
    u = solve_torsion_neumann(mesh)
    gb = geometric_bounds_check(u)
    ob = oscillation_bound_check(u, alpha=args.alpha)
    l2 = check_l2_oscillation_bound(u, argmin_point(u).z)
    data = {
        "geometric": vars(gb),
        "oscillation": vars(ob),
        "l2_bound": vars(l2),
    }
    run.write_json("bounds.json", data)
    band = 1e-3
    ok = (
        gb.quadratic_slack_min >= -band
        and gb.linear_slack_min >= -band
        and gb.remark_slack >= -band
        and ob.radii_slack >= -band
        and l2.slack >= -band
    )
    return run.finish(PASS if ok else CONTRACT_FAIL)


def cmd_strong_deviation(args, run):
    if args.amplitudes:
        cases = [
            (eps, domain_from_spec({"rho0": 1.0, "modes": [[args.mode, eps, 0.0]]}))
            for eps in _numbers(args.amplitudes, "--amplitudes", float)
        ]
    elif args.domain is not None:
        cases = [(0.0, _load_domain(args))]
    else:
        raise InvalidSpec("strong-deviation needs --amplitudes or --domain")
    rows = []
    for eps, domain in cases:
        mesh = generate_mesh(domain, args.h_target, dof_cap=args.dof_cap)
        rep = strong_deviation_pipeline(solve_torsion_neumann(mesh), alpha=args.alpha)
        rows.append((eps, rep))
    header = [
        "epsilon", "flux_deviation_l2", "flux_deviation_c0alpha",
        "trace_deviation_c1alpha", "ratio",
    ]
    run.write_csv(
        "strong_deviation.csv",
        header,
        [
            [e, r.flux_deviation_l2, r.flux_deviation_c0alpha,
             r.trace_deviation_c1alpha, r.ratio]
            for e, r in rows
        ],
    )
    status = PASS
    if len(rows) >= 3:
        slope, _, _ = loglog_fit(
            [e for e, _ in rows], [r.flux_deviation_l2 for _, r in rows]
        )
        ratios = [r.ratio for _, r in rows if np.isfinite(r.ratio)]
        spread = max(ratios) / min(ratios) if ratios else float("inf")
        run.write_json(
            "strong_deviation_summary.json",
            {"flux_slope": slope, "ratio_spread": spread},
        )
        if abs(slope - 1.0) > 0.2 or spread > 5.0:
            status = CONTRACT_FAIL
    return run.finish(status)


def cmd_convergence(args, run):
    domain = _load_domain(args)
    h_list = _numbers(args.h_list, "--h-list", float)
    rows, order, flag = convergence_study(
        domain, args.identity, h_list, dof_cap=args.dof_cap
    )
    data = {
        "identity": args.identity,
        "anchor": ANCHORS[args.identity],
        "levels": rows,
        "fitted_order": order,
        "flag": flag,
    }
    run.write_json("convergence.json", data)
    ok = flag in ("rigid", "converged") or (order is not None and order >= 1.0)
    return run.finish(PASS if ok else CONTRACT_FAIL)


# -- parser -----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A malformed command line is an operational error (exit 1), not argparse's 2."""

    def error(self, message):
        raise InvalidSpec(f"{self.prog}: {message}")


def build_parser():
    p = _Parser(
        prog="serrinlab",
        description="Torsion-problem identity verification and stability lab",
    )
    p.add_argument("--out", default="serrinlab-out", help="output directory")
    p.add_argument("--seed", type=int, default=0)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, domain=True, alpha=False):
        if domain:
            sp.add_argument("--domain", required=True, help="domain spec JSON path")
        sp.add_argument("--h-target", dest="h_target", type=_finite_float, default=0.05)
        sp.add_argument("--dof-cap", dest="dof_cap", type=int, default=None)
        if alpha:
            sp.add_argument("--alpha", type=_finite_float, default=0.5)

    sp = sub.add_parser("solve", help="solve one boundary value problem")
    common(sp)
    sp.add_argument(
        "--problem",
        choices=["torsion-dirichlet", "torsion-neumann", "harmonic"],
        default="torsion-dirichlet",
    )
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("verify-identity", help="evaluate one integral identity")
    common(sp)
    sp.add_argument("--identity", required=True, choices=sorted(ANCHORS))
    sp.add_argument(
        "--z", default="auto",
        help="'auto' or 'x,y'; general_1_9 takes no point and ignores it",
    )
    sp.add_argument("--tol", type=_finite_float, default=1e-2)
    sp.set_defaults(func=cmd_verify_identity)

    sp = sub.add_parser("pointwise-identity", help="exact polynomial checks")
    sp.add_argument("--N", default="2,3,4,5", help="comma-separated dimensions")
    sp.add_argument("--degree", type=int, default=4)
    sp.add_argument("--cases", type=int, default=20)
    sp.set_defaults(func=cmd_pointwise_identity)

    sp = sub.add_parser("spectral", help="second Neumann/Steklov eigenvalues")
    common(sp)
    sp.set_defaults(func=cmd_spectral)

    sp = sub.add_parser("sweep", help="perturbation-family stability sweep")
    common(sp, domain=False, alpha=True)
    sp.add_argument("--mode", type=int, default=2)
    sp.add_argument("--amplitudes", default="0.0125,0.025,0.05,0.1")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--slope-min", dest="slope_min", type=_finite_float, default=0.85)
    sp.add_argument("--slope-max", dest="slope_max", type=_finite_float, default=1.3)
    sp.add_argument("--r2-min", dest="r2_min", type=_finite_float, default=0.98)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("check-bounds", help="pointwise and spectral bounds")
    common(sp, alpha=True)
    sp.set_defaults(func=cmd_check_bounds)

    sp = sub.add_parser("strong-deviation", help="harmonic-split pipeline")
    common(sp, domain=False, alpha=True)
    sp.add_argument("--domain", help="domain spec JSON (single-domain mode)")
    sp.add_argument("--mode", type=int, default=2)
    sp.add_argument("--amplitudes", default="")
    sp.set_defaults(func=cmd_strong_deviation)

    sp = sub.add_parser("convergence", help="identity residual vs mesh level")
    common(sp)
    sp.add_argument("--identity", required=True, choices=sorted(ANCHORS))
    sp.add_argument("--h-list", dest="h_list", default="0.1,0.05,0.025")
    sp.set_defaults(func=cmd_convergence)

    return p


def main(argv=None):
    run = None
    try:
        args = build_parser().parse_args(argv)
        run = Run(args)
        return args.func(args, run)
    except (SerrinLabError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if run is not None:
            run.error = str(exc)
            run.finish(ERROR)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
