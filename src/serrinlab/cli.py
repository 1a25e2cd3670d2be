"""Command-line entry point: run solves, identity checks, spectral
computations, and stability sweeps, persisting machine-readable reports.

Every run writes its artifacts plus a manifest (command, the values it
reads with their canonical hash, version, timestamp, artifact list) into
the output directory.  Exit codes: 0 when all asserted contracts pass, 2 on a
contract violation, 1 on an operational error; once the output directory
exists, a failed run's manifest records the error text.
"""

import argparse
import contextlib
import ctypes
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidSpec, SerrinLabError
from .geometry import domain_from_spec
from .identities import ANCHORS
from .meshfem import (
    generate_mesh,
    neumann_flux,
    solve_harmonic_dirichlet,
    solve_torsion_dirichlet,
    solve_torsion_neumann,
)
from .polycheck import identity_case_table
from .spectral import check_l2_oscillation_bound, eigenvalues
from .stability import (
    IDENTITY_TOL,
    SWEEP_R2_MIN,
    SWEEP_SLOPE_MAX,
    SWEEP_SLOPE_MIN,
    argmin_point,
    check_family,
    convergence_study,
    family_domain,
    geometric_bounds_check,
    identity_reports,
    is_rigid,
    loglog_fit,
    oscillation_bound_check,
    stability_sweep,
    strong_deviation_pipeline,
)

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


# the subcommands that read the global --seed
SEEDED = {"pointwise-identity"}


class Run:
    """Creates the output directory, collects artifacts and writes the
    manifest at the end (with the error text of a failed run).

    The manifest's config, and its hash, hold the subcommand and the values
    it reads: not --out, which only says where the reports go, and --seed
    only where the subcommand reads it."""

    def __init__(self, args):
        self.command = args.command
        self.out = Path(args.out)
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InvalidSpec(f"--out {args.out!r}: cannot create directory ({exc})")
        unread = {"func", "out"} | (set() if args.command in SEEDED else {"seed"})
        config = {k: v for k, v in sorted(vars(args).items()) if k not in unread}
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
    # ValueError: not a number; OverflowError: an int beyond the float range
    with contextlib.suppress(ValueError, OverflowError):
        values = [kind(t) for t in text.split(",")]
        if np.isfinite(np.array(values, dtype=float)).all():
            return values
    raise InvalidSpec(f"{flag} needs comma-separated finite numbers, got {text!r}")


def _positive_float(text):
    """argparse type of --h-target: a finite number above 0."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"needs a finite number above 0, got {text!r}")
    return value


def _load_domain(args):
    """The domain of --domain; an unreadable or non-JSON file is an InvalidSpec."""
    try:
        with open(args.domain) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidSpec(f"--domain {args.domain!r}: cannot read a JSON spec ({exc})")
    return domain_from_spec(spec)


# -- subcommands ------------------------------------------------------------------

def cmd_solve(args, run):
    domain = _load_domain(args)
    mesh = generate_mesh(domain, args.h_target)
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
    tr = field.trace_values()
    report = {
        "problem": args.problem,
        "dof": mesh.n_nodes,
        "h_max": mesh.h_max,
        "min_value": float(field.coeffs.min()),
        "center_value": float(field.coeffs[0]),
        "trace_oscillation": float(np.ptp(tr)),
    }
    if args.problem == "torsion-neumann":
        report["R_disc"] = neumann_flux(mesh)
    report["domain"] = domain.spec_dict()
    run.write_json("solve_report.json", report)
    return run.finish(PASS)


def cmd_verify_identity(args, run):
    domain = _load_domain(args)
    mesh = generate_mesh(domain, args.h_target)
    reports = identity_reports(mesh, args.identity)
    status = PASS
    for rep in reports:
        data = {**vars(rep), "anchor": ANCHORS[rep.identity]}
        run.write_json(f"identity_{rep.identity}.json", data)
        if rep.rel_residual > IDENTITY_TOL and not is_rigid(rep, domain):
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
    mesh = generate_mesh(domain, args.h_target)
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
    result = stability_sweep(args.mode, amplitudes, h_target=args.h_target)
    header = [
        "epsilon", "rho_gap", *result.records[0].deviations.kinds(),
        "z_x", "z_y", "delta_z", "mesh_h", "in_smallness_regime", "flags",
    ]
    rows = [
        [
            r.epsilon, r.rho_gap, *r.deviations.kinds().values(),
            r.z[0], r.z[1], r.delta_z, r.mesh_h,
            int(r.in_smallness_regime), "|".join(r.flags),
        ]
        for r in result.records
    ]
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
    fit_data["c_fit_first_order"] = result.c_fit_first_order
    fit_data["dropped_rigid"] = result.dropped
    run.write_json("exponent_fits.json", fit_data)

    fit = result.fits.get("uniform")
    ok = (
        fit is not None
        and SWEEP_SLOPE_MIN <= fit.slope <= SWEEP_SLOPE_MAX
        and fit.r_squared >= SWEEP_R2_MIN
    )
    return run.finish(PASS if ok else CONTRACT_FAIL)


def cmd_check_bounds(args, run):
    domain = _load_domain(args)
    mesh = generate_mesh(domain, args.h_target)
    u = solve_torsion_neumann(mesh)
    gb = geometric_bounds_check(u)
    ob = oscillation_bound_check(u)
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
    amplitudes = _numbers(args.amplitudes, "--amplitudes", float)
    check_family(args.mode, amplitudes, 3)   # the flux slope is fitted over 3+ points
    rows = []
    for eps in amplitudes:
        mesh = generate_mesh(family_domain(args.mode, eps), args.h_target)
        rows.append((eps, strong_deviation_pipeline(mesh)))
    header = [
        "epsilon", "flux_deviation_l2", "flux_deviation_c0alpha",
        "trace_deviation_c1alpha", "ratio",
    ]
    run.write_csv(
        "strong_deviation.csv",
        header,
        [[e, *(getattr(r, name) for name in header[1:])] for e, r in rows],
    )
    slope, _, _ = loglog_fit(amplitudes, [r.flux_deviation_l2 for _, r in rows])
    ratios = [r.ratio for _, r in rows if np.isfinite(r.ratio)]
    spread = max(ratios) / min(ratios) if ratios else float("inf")
    run.write_json(
        "strong_deviation_summary.json",
        {"flux_slope": slope, "ratio_spread": spread},
    )
    ok = abs(slope - 1.0) <= 0.2 and spread <= 5.0
    return run.finish(PASS if ok else CONTRACT_FAIL)


def cmd_convergence(args, run):
    domain = _load_domain(args)
    h_list = _numbers(args.h_list, "--h-list", float)
    rows, order, flag = convergence_study(domain, args.identity, h_list)
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

    def common(sp, domain=True):
        if domain:
            sp.add_argument("--domain", required=True, help="domain spec JSON path")
        sp.add_argument("--h-target", dest="h_target", type=_positive_float, default=0.05)

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
    common(sp, domain=False)
    sp.add_argument("--mode", type=int, default=2)
    sp.add_argument("--amplitudes", default="0.0125,0.025,0.05,0.1")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("check-bounds", help="pointwise and spectral bounds")
    common(sp)
    sp.set_defaults(func=cmd_check_bounds)

    sp = sub.add_parser("strong-deviation", help="flux deviation of u_D against "
                        "the C^{1,alpha} trace deviation of u_N")
    common(sp, domain=False)
    sp.add_argument("--mode", type=int, default=2)
    sp.add_argument("--amplitudes", required=True)
    sp.set_defaults(func=cmd_strong_deviation)

    sp = sub.add_parser("convergence", help="identity residual vs mesh level")
    sp.add_argument("--domain", required=True, help="domain spec JSON path")
    sp.add_argument("--identity", required=True, choices=sorted(ANCHORS))
    sp.add_argument("--h-list", dest="h_list", default="0.1,0.05,0.025")
    sp.set_defaults(func=cmd_convergence)

    return p


def main(argv=None):
    # freeing a mapped block raises glibc's mmap threshold, and whether the
    # large arrays then put on the heap stay resident after use depends on
    # its randomized layout (one sweep peaked at 140, 151 or 158 MB); pinned
    # at 4 MiB (M_MMAP_THRESHOLD = -3), that peak held at 131-139 MB
    with contextlib.suppress(AttributeError, OSError, TypeError):   # not glibc
        ctypes.CDLL(None).mallopt(-3, 4 << 20)
    run = None
    try:
        args = build_parser().parse_args(argv)
        run = Run(args)
        return args.func(args, run)
    except SerrinLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if run is not None:
            run.error = str(exc)
            run.finish(ERROR)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
