import numpy as np
import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

from serrinlab.boundary import audit_torsion
from serrinlab.errors import NonPositiveRadius, NotStarShaped
from serrinlab.geometry import EllipseDomain, build_domain, domain_from_spec
from serrinlab.identities import paraboloid_field
from serrinlab.meshfem import (
    SOURCE,
    FemField,
    RecoveredDerivatives,
    _quad_ops,
    generate_mesh,
    solve_torsion_dirichlet,
    solve_torsion_neumann,
)

# Property tests draw the same examples on every run: no example database,
# no per-example deadline.  Each test sets only its max_examples.
settings.register_profile("serrinlab", derandomize=True, deadline=None, database=None)
settings.load_profile("serrinlab")

# Domain specs for property tests: star domains with up to 3 modes about a
# random centre, and ellipses.
domain_specs = st.one_of(
    st.fixed_dictionaries({
        "rho0": st.floats(1.0, 1.5),
        "modes": st.lists(
            st.tuples(
                st.integers(1, 6), st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)
            ),
            max_size=3,
        ),
        "center": st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    }),
    st.fixed_dictionaries({
        "ellipse": st.tuples(st.floats(1.0, 2.0), st.floats(1.0, 2.0)),
        "center": st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    }),
)


def domain_or_reject(spec):
    """The domain of a drawn spec; specs that are not star-shaped are dropped."""
    try:
        return domain_from_spec(spec)
    except (NotStarShaped, NonPositiveRadius):
        assume(False)


@pytest.fixture(scope="session")
def disk():
    return build_domain(1.0, [])


@pytest.fixture(scope="session")
def ellipse():
    return EllipseDomain(2.0, 1.0)


@pytest.fixture(scope="session")
def pdisk():
    return build_domain(1.0, [(2, 0.05, 0.0)])


@pytest.fixture(scope="session")
def disk_mesh(disk):
    return generate_mesh(disk, 0.05)


@pytest.fixture(scope="session")
def disk_dirichlet(disk_mesh):
    return solve_torsion_dirichlet(disk_mesh)


@pytest.fixture(scope="session")
def disk_neumann(disk_mesh):
    return solve_torsion_neumann(disk_mesh)


@pytest.fixture(scope="session")
def ellipse_mesh(ellipse):
    return generate_mesh(ellipse, 0.05)


@pytest.fixture(scope="session")
def ellipse_dirichlet(ellipse_mesh):
    return solve_torsion_dirichlet(ellipse_mesh)


@pytest.fixture(scope="session")
def pdisk_mesh(pdisk):
    return generate_mesh(pdisk, 0.05)


@pytest.fixture(scope="session")
def pdisk_neumann(pdisk_mesh):
    return solve_torsion_neumann(pdisk_mesh)


def degree8_ops(mesh):
    """Whole-mesh operators of the degree-8 rule: a reference the library
    builds only for the curved elements."""
    return _quad_ops(mesh.nodes[mesh.triangles], 8)


def l2_error(field, exact):
    """L2 norm of field - exact(x) by degree-8 quadrature."""
    ops = degree8_ops(field.mesh)
    T, Q, _ = ops["qp"].shape
    vals = field.coeffs[field.mesh.triangles] @ ops["N"].T
    vals -= exact(ops["qp"].reshape(-1, 2)).reshape(T, Q)
    return float(
        np.sqrt(0.5 * np.einsum("q,tq,tq->", ops["w"], ops["detJ"], vals**2))
    )


def h1_seminorm_error(field, exact_grad):
    ops = degree8_ops(field.mesh)
    T, Q, _ = ops["qp"].shape
    g = np.einsum("tqnk,tn->tqk", ops["grad"], field.coeffs[field.mesh.triangles])
    g -= exact_grad(ops["qp"].reshape(-1, 2)).reshape(T, Q, 2)
    return float(
        np.sqrt(0.5 * np.einsum("q,tq,tqk->", ops["w"], ops["detJ"], g**2))
    )


def shifted(field, c):
    """The field plus the constant c."""
    return FemField(field.mesh, field.coeffs + c, field.kind)


class ExactParaboloid(FemField):
    """The interpolant of q(x) = |x - z|^2 / 2 whose recovered derivatives
    are the closed forms (gradient x - z, unit Hessian), so identity
    evaluations with v = q specialize to the paraboloid forms to roundoff."""

    def __init__(self, mesh, z):
        super().__init__(mesh, paraboloid_field(mesh, z).coeffs)
        rel = mesh.nodes - np.asarray(z, dtype=float)
        self._exact = RecoveredDerivatives(rel, np.tile([1.0, 1.0, 0.0], (len(rel), 1)), [])

    @property
    def recovered(self):
        return self._exact


def delta_p(field):
    """Laplacian of P = |grad u|^2 / 2 + (ubar - u) at the nodes of a
    constant-source field u: |H_rec|^2 - 2, after the torsion audit."""
    audit_torsion(field)
    hxx, hyy, hxy = field.recovered.hessian.T
    return hxx**2 + hyy**2 + 2.0 * hxy**2 - SOURCE


def fit_order(hs, errs):
    """Least-squares slope of log(err) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
