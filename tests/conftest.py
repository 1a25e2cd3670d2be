import numpy as np
import pytest
from hypothesis import settings

from serrinlab.geometry import EllipseDomain, build_domain
from serrinlab.meshfem import (
    FemField,
    generate_mesh,
    solve_torsion_dirichlet,
    solve_torsion_neumann,
)

# Property tests draw the same examples on every run: no example database,
# no per-example deadline.  Each test sets only its max_examples.
settings.register_profile("serrinlab", derandomize=True, deadline=None, database=None)
settings.load_profile("serrinlab")


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


def l2_error(field, exact):
    """L2 norm of field - exact(x) by degree-8 quadrature."""
    ops = field.mesh.element_ops(8)
    T, Q, _ = ops["qp"].shape
    vals = field.values_at_quad(8) - exact(ops["qp"].reshape(-1, 2)).reshape(T, Q)
    return float(
        np.sqrt(0.5 * np.einsum("q,tq,tq->", ops["w"], ops["detJ"], vals**2))
    )


def h1_seminorm_error(field, exact_grad):
    ops = field.mesh.element_ops(8)
    T, Q, _ = ops["qp"].shape
    g = field.gradient_at_quad(8) - exact_grad(ops["qp"].reshape(-1, 2)).reshape(
        T, Q, 2
    )
    return float(
        np.sqrt(0.5 * np.einsum("q,tq,tqk->", ops["w"], ops["detJ"], g**2))
    )


def shifted(field, c):
    """The Neumann field plus c, keeping the discrete flux data of its solve."""
    out = FemField(field.mesh, field.coeffs + c, field.kind)
    out.R_disc, out.area_h = field.R_disc, field.area_h
    return out


def fit_order(hs, errs):
    """Least-squares slope of log(err) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
