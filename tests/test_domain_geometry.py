import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from serrinlab.errors import (
    InvalidSpec,
    NonPositiveRadius,
    NotStarShaped,
    OutsideDomain,
    PointNotInterior,
)
from serrinlab.geometry import (
    EllipseDomain,
    build_domain,
    distance_to_boundary,
    domain_from_spec,
    distances_to_boundary,
    measures,
    radii_about,
)
from serrinlab._quadrature import periodic_integral


def unit_disk():
    return build_domain(1.0, [])


def perturbed_disk(eps=0.05, mode=2):
    return build_domain(1.0, [(mode, eps, 0.0)])


# -- construction ----------------------------------------------------------


def test_build_unit_disk():
    d = unit_disk()
    assert np.allclose(d.radius(np.linspace(0, 7, 11)), 1.0)


def test_build_perturbed_disk():
    d = perturbed_disk()
    theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    assert np.allclose(d.radius(theta), 1 + 0.05 * np.cos(2 * theta))


def test_mode_one_large_amplitude_rejected():
    with pytest.raises(NotStarShaped):
        build_domain(1.0, [(1, 0.9, 0.0)])


def test_truncation_condition_rejected():
    with pytest.raises(NotStarShaped):
        build_domain(1.0, [(5, 0.05, 0.0)])  # 25 * 0.05 = 1.25 >= 1


def test_nonpositive_rho0_rejected():
    with pytest.raises(NonPositiveRadius):
        build_domain(-1.0, [])


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_domain(1.0, [(2, np.nan, 0.0)]),
        lambda: build_domain(1.0, [(2, 0.05, np.inf)]),
        lambda: build_domain(np.nan, []),
        lambda: build_domain(1.0, [], center=(np.nan, 0.0)),
        lambda: EllipseDomain(np.nan, 1.0),
        lambda: EllipseDomain(2.0, 1.0, center=(0.0, np.inf)),
    ],
)
def test_non_finite_spec_rejected(make):
    # comparisons with NaN are all false, so without this check the domain
    # is accepted and meshing it never terminates; only the constructors run
    with pytest.raises(InvalidSpec):
        make()


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_domain(1.0, [(2, 0.05)]),
        lambda: build_domain(1.0, [2, 0.05, 0.0]),
        lambda: build_domain([1.0], []),
        lambda: build_domain(1.0, [], center=(0.0,)),
        lambda: domain_from_spec({"rho0": 1.0, "modes": [[2, 0.05]]}),
        lambda: domain_from_spec({"ellipse": [2.0]}),
        lambda: domain_from_spec({"ellipse": 2.0}),
        lambda: domain_from_spec([1.0]),
        lambda: build_domain(1.0, [(2.5, 0.05, 0.0)]),
        lambda: domain_from_spec({"rho0": 1.0, "modes": [[2.5, 0.05, 0]]}),
    ],
)
def test_wrong_shape_spec_rejected(make):
    # a short mode row or a single semi-axis used to fail in tuple unpacking,
    # a one-entry center broadcast silently and a mode number 2.5 became 2
    with pytest.raises(InvalidSpec):
        make()


# -- boundary frames -------------------------------------------------------


def test_disk_frame():
    point, nu, kappa, speed = unit_disk().frame_arrays(0.0)
    assert np.allclose(point, [1.0, 0.0])
    assert np.allclose(nu, [1.0, 0.0])
    assert abs(kappa - 1.0) < 1e-14
    assert abs(speed - 1.0) < 1e-14


def test_ellipse_vertex_curvatures():
    # oracle: parametric ellipse curvature kappa = ab/(a^2 sin^2 t + b^2 cos^2 t)^{3/2}
    ell = EllipseDomain(2.0, 1.0)
    assert abs(ell.frame_arrays(0.0)[2] - 2.0) < 1e-12  # a/b^2
    assert abs(ell.frame_arrays(np.pi / 2)[2] - 0.25) < 1e-12  # b/a^2


def test_ellipse_frame_matches_parametric_oracle():
    a, b = 2.0, 1.0
    ell = EllipseDomain(a, b)
    for t in np.linspace(0.1, 2 * np.pi, 9):
        p = np.array([a * np.cos(t), b * np.sin(t)])
        theta = np.arctan2(p[1], p[0])
        point, nu, kappa, _ = ell.frame_arrays(theta)
        assert np.allclose(point, p, atol=1e-12)
        kap = a * b / (a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2) ** 1.5
        assert abs(kappa - kap) < 1e-10
        grad = np.array([p[0] / a**2, p[1] / b**2])
        assert np.allclose(nu, grad / np.linalg.norm(grad), atol=1e-12)


def test_normal_orthogonal_to_tangent():
    d = perturbed_disk(0.08, 3)
    theta = np.linspace(0, 2 * np.pi, 257)
    _, nu, _, _ = d.frame_arrays(theta)
    r = d.radius(theta)
    r1 = d.radius_d1(theta)
    c, s = np.cos(theta), np.sin(theta)
    tang = np.stack([r1 * c - r * s, r1 * s + r * c], -1)
    assert np.abs(np.einsum("ij,ij->i", nu, tang)).max() < 1e-12


# -- measures ---------------------------------------------------------------


def test_disk_measures():
    m = measures(unit_disk())
    assert abs(m.area - np.pi) < 1e-10
    assert abs(m.perimeter - 2 * np.pi) < 1e-10
    assert abs(m.R - 1.0) < 1e-10
    assert abs(m.r_i - 1.0) < 1e-3
    assert abs(m.d_Omega - 2.0) < 1e-3


def test_ellipse_measures_against_quadrature_oracle():
    a, b = 2.0, 1.0
    m = measures(EllipseDomain(a, b))
    # independent oracle: arclength of the parametric curve by scipy.quad
    speed = lambda t: np.sqrt(a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2)
    per, _ = quad(speed, 0, 2 * np.pi, limit=200)
    assert abs(m.area - 2 * np.pi) < 1e-10
    assert abs(m.perimeter - per) < 1e-8
    assert abs(m.perimeter - 9.68845) < 1e-4
    assert abs(m.R - 2 * (2 * np.pi) / per) < 1e-8  # = 1.2970468 from the oracle
    assert abs(m.r_i - 0.5) < 5e-3


def test_perturbed_R_close_to_one():
    m = measures(perturbed_disk(0.05, 2))
    assert abs(m.R - 1.0) <= 0.01


def test_isoperimetric_inequality():
    for dom in [unit_disk(), perturbed_disk(0.1, 3), EllipseDomain(2, 1)]:
        m = measures(dom)
        assert m.perimeter >= 2 * np.sqrt(np.pi * m.area) - 1e-10


def test_gauss_bonnet():
    for dom in [unit_disk(), perturbed_disk(0.1, 2), EllipseDomain(2, 1)]:
        def integrand(t, dom=dom):
            _, _, kappa, speed = dom.frame_arrays(t)
            return kappa * speed

        total = periodic_integral(integrand)
        assert abs(total - 2 * np.pi) < 1e-8 * 2 * np.pi


def test_divergence_theorem_support_integral():
    # closed-curve identity: integral of <x - z, nu> ds = 2 |Omega| for any z
    for dom in [perturbed_disk(0.07, 2), EllipseDomain(2, 1)]:
        m = measures(dom)
        for z in [np.array([0.0, 0.0]), np.array([0.2, -0.1])]:
            def integrand(t, dom=dom, z=z):
                p, nu, _, speed = dom.frame_arrays(t)
                return np.einsum("ij,ij->i", p - z, nu) * speed

            val = periodic_integral(integrand)
            assert abs(val - 2 * m.area) < 1e-8 * 2 * m.area


# -- distances and radii ----------------------------------------------------


def test_distance_disk():
    d = unit_disk()
    assert abs(distance_to_boundary(d, (0.0, 0.0)) - 1.0) < 1e-10
    assert abs(distance_to_boundary(d, (0.5, 0.0)) - 0.5) < 1e-10


def test_distance_perturbed_center():
    d = perturbed_disk(0.05, 2)
    assert abs(distance_to_boundary(d, (0.0, 0.0)) - 0.95) < 1e-10


def test_distance_outside_raises():
    with pytest.raises(OutsideDomain):
        distance_to_boundary(unit_disk(), (1.5, 0.0))


def test_distances_vectorized_matches_scalar():
    d = perturbed_disk(0.08, 3)
    pts = np.array([[0.0, 0.0], [0.3, 0.2], [-0.5, 0.1], [0.0, 0.6]])
    vec = distances_to_boundary(d, pts)
    for p, v in zip(pts, vec):
        assert abs(v - distance_to_boundary(d, p)) < 1e-8


def test_distances_ellipse_axis_closed_form():
    # inside the evolute (|x0| < (a^2 - b^2)/a = 1.5) the nearest boundary
    # points of (x0, 0) are off the axis: delta = b sqrt(1 - x0^2/(a^2 - b^2))
    ell = EllipseDomain(2.0, 1.0)
    x0 = np.linspace(-1.4, 1.4, 57)
    exact = np.sqrt(1.0 - x0**2 / 3.0)
    pts = np.stack([x0, np.zeros_like(x0)], axis=1)
    assert np.abs(distances_to_boundary(ell, pts) - exact).max() < 1e-12
    for p, delta in zip(pts, exact):
        assert abs(distance_to_boundary(ell, p) - delta) < 1e-12
    rho_i, rho_e = radii_about(ell, (0.0, 0.0))
    assert abs(rho_i - 1.0) < 1e-12 and abs(rho_e - 2.0) < 1e-12


_modes = st.lists(
    st.tuples(
        st.integers(1, 6),
        st.floats(-0.05, 0.05, allow_nan=False),
        st.floats(-0.05, 0.05, allow_nan=False),
    ),
    max_size=3,
)
_coord = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=25)
@given(
    rho0=st.floats(0.5, 2.0),
    modes=_modes,
    center=st.tuples(_coord, _coord),
    angle=st.floats(0.0, 2 * np.pi),
    depth=st.floats(0.0, 0.95),
)
def test_distance_kernel_property(rho0, modes, center, angle, depth):
    # the vector and scalar distances agree, and no dense boundary sample
    # is closer than either
    try:
        dom = build_domain(rho0, modes, center)
    except (NotStarShaped, NonPositiveRadius):
        assume(False)
    e = np.array([np.cos(angle), np.sin(angle)])
    x = dom.center + depth * float(dom.radius(angle)) * e
    vec = float(distances_to_boundary(dom, x[None, :])[0])
    scalar = distance_to_boundary(dom, x)
    assert abs(vec - scalar) < 1e-10
    theta = np.linspace(0.0, 2 * np.pi, 8192, endpoint=False)
    sampled = np.sqrt(((dom.boundary_point(theta) - x) ** 2).sum(-1)).min()
    assert max(vec, scalar) <= sampled + 1e-14


def test_radii_disk():
    assert np.allclose(radii_about(unit_disk(), (0.0, 0.0)), (1.0, 1.0))
    ri, re = radii_about(unit_disk(), (0.3, 0.0))
    assert abs(ri - 0.7) < 1e-10
    assert abs(re - 1.3) < 1e-10


def test_radii_perturbed_center():
    ri, re = radii_about(perturbed_disk(0.05, 2), (0.0, 0.0))
    assert abs(ri - 0.95) < 1e-10
    assert abs(re - 1.05) < 1e-10


def test_radii_not_interior_raises():
    with pytest.raises(PointNotInterior):
        radii_about(unit_disk(), (1.0, 0.0))


def test_remark_curvature_bounds():
    # -1/r_e <= kappa <= 1/r_i at all sampled boundary points
    for dom in [unit_disk(), perturbed_disk(0.1, 3), EllipseDomain(2, 1)]:
        m = measures(dom)
        theta = np.linspace(0, 2 * np.pi, 1024, endpoint=False)
        _, _, kappa, _ = dom.frame_arrays(theta)
        upper = np.inf if m.r_i == 0 else 1.0 / m.r_i
        lower = 0.0 if np.isinf(m.r_e) else -1.0 / m.r_e
        assert kappa.max() <= upper * (1 + 1e-6) + 1e-12
        assert kappa.min() >= lower * (1 + 1e-6) - 1e-12


def test_nonpositive_radius_rejected():
    # mode-1 amplitude above 1 drives r(theta) through zero before the
    # truncation condition gets a say
    with pytest.raises(NonPositiveRadius):
        build_domain(1.0, [(1, 1.2, 0.0)])


def test_mixed_mode_domain_geometry():
    dom = build_domain(1.0, [(2, 0.04, 0.03), (3, 0.0, 0.02), (5, 0.004, 0.0)])
    theta = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    _, nu, kappa, speed = dom.frame_arrays(theta)
    assert np.abs((nu**2).sum(1) - 1.0).max() < 1e-14
    assert speed.min() > 0
    total = periodic_integral(
        lambda t: dom.frame_arrays(t)[2] * dom.frame_arrays(t)[3]
    )
    assert abs(total - 2 * np.pi) < 1e-7
