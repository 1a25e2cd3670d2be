"""serrinlab: numerical laboratory for torsion-type Poisson problems on
star-shaped planar domains - identity verification, spectral bounds, and
symmetry-stability measurements."""

__version__ = "0.1.0"

from .geometry import (
    DomainMeasures,
    EllipseDomain,
    StarDomain,
    build_domain,
    distance_to_boundary,
    domain_from_spec,
    measures,
    radii_about,
)
from .meshfem import (
    FemField,
    Mesh,
    generate_mesh,
    solve_harmonic_dirichlet,
    solve_torsion_dirichlet,
    solve_torsion_neumann,
)
from .boundary import (
    check_integration_by_parts,
    laplace_beltrami,
    lemma21_residual,
    normal_derivative,
    surface_integral,
    tangential_gradient,
    trace,
)
from .identities import (
    IdentityReport,
    eval_classical_identity,
    eval_general_identity,
    eval_mother_identity,
    eval_neumann_identity,
    p_function,
    paraboloid_field,
    rigidity_test,
)
from .polycheck import (
    Polynomial,
    check_differential_identity,
    check_pfunction_identity,
    random_torsion_polynomial,
)
from .spectral import (
    EigenResult,
    check_l2_oscillation_bound,
    neumann_eigenvalue_2,
    steklov_eigenvalue_2,
)
from .stability import (
    DeviationSet,
    ExponentFit,
    StabilityRecord,
    argmin_point,
    deviations,
    geometric_bounds_check,
    oscillation_bound_check,
    stability_sweep,
    strong_deviation_pipeline,
)
