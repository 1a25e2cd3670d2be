"""Span recorder for the traced run.

The recorder wraps functions of the serrinlab modules from the outside, so
the program's source is untouched.  A wrapped function is replaced under
every name that binds it: in the module that defines it and in each module
that re-binds it with ``from .x import y``.  Spans (name, start, end,
parent) are kept in memory and written out once, when the run ends.

A layer is a module; each time metric is the self time of the spans
mapped to it, that is, each span's duration minus the part its child spans
cover.  Counts are taken from the arguments or results of the same calls.
"""

import functools
import sys
import time

# metric -> targets "module:attr" whose spans it collects.  attr may be
# "Class.member" for a method or property.  A private name appears only
# where the public entry point reaches the work through it: the cached
# ``measures`` property computes through ``_compute_measures`` and the
# cached ``FemField.recovered`` property through ``_recover``.
TIME_LAYERS = {
    "geometry.distance_s": [
        "serrinlab.geometry:distances_to_boundary",
        "serrinlab.geometry:distance_to_boundary",
    ],
    "geometry.measures_s": ["serrinlab.geometry:_compute_measures"],
    "geometry.radii_s": ["serrinlab.geometry:radii_about"],
    "meshfem.mesh_s": [
        "serrinlab.meshfem:generate_mesh",
        "serrinlab.meshfem:Mesh.node_elements",
    ],
    "meshfem.assembly_s": [
        "serrinlab.meshfem:assemble_stiffness",
        "serrinlab.meshfem:assemble_mass",
        "serrinlab.meshfem:boundary_load_vector",
        "serrinlab.meshfem:Mesh.element_ops",
    ],
    "meshfem.factor_s": ["scipy.sparse.linalg:splu"],
    "meshfem.solve_s": [
        "serrinlab.meshfem:solve_torsion_dirichlet",
        "serrinlab.meshfem:solve_torsion_neumann",
        "serrinlab.meshfem:solve_harmonic_dirichlet",
    ],
    "meshfem.recovery_s": [
        "serrinlab.meshfem:_recover",
        "serrinlab.meshfem:recover_hessian",
    ],
    "spectral.eigen_s": [
        "serrinlab.spectral:eigenvalues",
        "serrinlab.spectral:neumann_eigenvalue_2",
        "serrinlab.spectral:steklov_eigenvalue_2",
    ],
    "spectral.l2_bound_s": ["serrinlab.spectral:check_l2_oscillation_bound"],
    "boundary.holder_s": ["serrinlab.boundary:holder_seminorm"],
    "boundary.calculus_s": [
        "serrinlab.boundary:trace",
        "serrinlab.boundary:normal_derivative",
        "serrinlab.boundary:tangential_gradient",
        "serrinlab.boundary:spectral_tangential_derivative",
        "serrinlab.boundary:laplace_beltrami",
        "serrinlab.boundary:surface_integral",
        "serrinlab.boundary:check_integration_by_parts",
        "serrinlab.boundary:lemma21_residual",
        "serrinlab.boundary:boundary_normals",
        "serrinlab.boundary:boundary_curvatures",
    ],
    "identities.eval_s": [
        "serrinlab.identities:eval_general_identity",
        "serrinlab.identities:eval_mother_identity",
        "serrinlab.identities:eval_neumann_identity",
        "serrinlab.identities:eval_classical_identity",
        "serrinlab.identities:paraboloid_field",
        "serrinlab.identities:p_function",
        "serrinlab.identities:rigidity_test",
    ],
    "identities.audit_s": [
        "serrinlab.identities:audit_torsion",
        "serrinlab.identities:audit_neumann",
        "serrinlab.identities:audit_dirichlet",
    ],
    "stability.argmin_s": ["serrinlab.stability:argmin_point"],
    "stability.deviations_s": ["serrinlab.stability:deviations"],
    "stability.bounds_s": [
        "serrinlab.stability:geometric_bounds_check",
        "serrinlab.stability:oscillation_bound_check",
    ],
    "stability.sweep_s": [
        "serrinlab.stability:stability_sweep",
        "serrinlab.stability:sweep_member",
    ],
    "polycheck.random_poly_s": ["serrinlab.polycheck:random_torsion_polynomial"],
    "polycheck.identity_check_s": [
        "serrinlab.polycheck:check_differential_identity",
        "serrinlab.polycheck:identity_case_table",
    ],
    "polycheck.pfunction_check_s": ["serrinlab.polycheck:check_pfunction_identity"],
    "cli.report_s": [
        "serrinlab.cli:Run.write_json",
        "serrinlab.cli:Run.write_csv",
        "serrinlab.cli:Run.finish",
    ],
}

# count metric -> (target, function of (args, result) giving the increment)
COUNTS = {
    "geometry.distance_points": [
        ("serrinlab.geometry:distances_to_boundary", lambda a, r: len(a[1])),
        ("serrinlab.geometry:distance_to_boundary", lambda a, r: 1),
    ],
    "geometry.measures_calls": [
        ("serrinlab.geometry:_compute_measures", lambda a, r: 1),
    ],
    "meshfem.factorizations": [("scipy.sparse.linalg:splu", lambda a, r: 1)],
    "meshfem.lu_nnz": [("scipy.sparse.linalg:splu", lambda a, r: r.nnz)],
    "meshfem.nodes": [("serrinlab.meshfem:generate_mesh", lambda a, r: r.n_nodes)],
    "meshfem.recovery_flagged": [
        ("serrinlab.meshfem:_recover", lambda a, r: len(r.flagged)),
    ],
    "spectral.neumann_iterations": [
        ("serrinlab.spectral:neumann_eigenvalue_2", lambda a, r: r.iterations),
    ],
    "spectral.steklov_iterations": [
        ("serrinlab.spectral:steklov_eigenvalue_2", lambda a, r: r.iterations),
    ],
    "polycheck.cases": [("serrinlab.polycheck:identity_case_table", lambda a, r: len(r))],
}

# Reported with the layer metrics, computed by the runner and below.
OVERHEAD = "trace.overhead_s"
UNATTRIBUTED = "trace.unattributed_s"

TIME_METRICS = list(TIME_LAYERS) + [OVERHEAD, UNATTRIBUTED]
COUNT_METRICS = list(COUNTS)


class Tracer:
    """Keeps spans [name, start, end, parent] and count increments in memory."""

    def __init__(self):
        self.spans = []
        self.counts = {name: 0 for name in COUNTS}
        self._stack = []
        self._count_hooks = {}
        for metric, hooks in COUNTS.items():
            for target, fn in hooks:
                self._count_hooks.setdefault(target, []).append((metric, fn))

    def wrap(self, target, fn):
        hooks = self._count_hooks.get(target, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [target, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            for metric, count in hooks:
                self.counts[metric] += count(args, result)
            return result

        return traced

    def install(self):
        """Wrap every target under every name bound to it.

        Returns the targets that do not resolve, so that a renamed function
        shows up as a missing target rather than as a silent zero.
        """
        targets = {t for ts in TIME_LAYERS.values() for t in ts}
        targets.update(t for hooks in COUNTS.values() for t, _ in hooks)
        missing = []
        for target in sorted(targets):
            if not self._install_one(target):
                missing.append(target)
        return missing

    def _install_one(self, target):
        modname, _, attr = target.partition(":")
        module = sys.modules.get(modname)
        if module is None:
            return False
        owner_name, _, member = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            orig = None if owner is None else owner.__dict__.get(member)
            if orig is None:
                return False
            if isinstance(orig, property):
                setattr(owner, member, property(self.wrap(target, orig.fget)))
            else:
                setattr(owner, member, self.wrap(target, orig))
            return True
        orig = getattr(module, member, None)
        if orig is None:
            return False
        wrapped = self.wrap(target, orig)
        binders = [module] + [
            m for name, m in list(sys.modules.items())
            if name.startswith("serrinlab") and m is not None
        ]
        for m in binders:
            for name, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, name, wrapped)
        return True

    def dump(self):
        return {"spans": self.spans, "counts": self.counts}


def layer_metrics(spans, counts, wall_s):
    """Self time per layer, counts, and the part of wall_s no span covers."""
    metric_of = {t: m for m, ts in TIME_LAYERS.items() for t in ts}
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {m: 0.0 for m in TIME_LAYERS}
    covered = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        out[metric_of[name]] += (end - start) - child_time[i]
        if parent < 0:
            covered += end - start
    out[UNATTRIBUTED] = wall_s - covered
    out.update(counts)
    return out
