"""Analytic star-shaped planar domains and their boundary geometry.

Domains are radial graphs r(theta) about a center point, either a truncated
Fourier series (StarDomain) or the exact polar form of an ellipse
(EllipseDomain, used as an independent oracle).  A domain provides one
method, `radius_jet(theta) -> (r, r', r'')`, the exact radius and its first
two theta-derivatives from one evaluation of its trigonometric terms.  All
geometric quantities (normal, curvature, measures, distances) come from
that jet plus adaptive quadrature.

Distances to the boundary start at the nearest boundary sample (k-d tree)
or at a dense sample's local extrema, and one vectorized Newton routine on
|gamma(theta) - z|^2 polishes them.
"""

import functools
from dataclasses import dataclass

import numpy as np

from ._quadrature import periodic_integral
from .errors import (
    InvalidSpec,
    NonPositiveRadius,
    NotStarShaped,
    PointNotInterior,
)

_DENSE_SAMPLE = 4096
# Quantitative star-shapedness margin: <gamma - center, nu> >= margin * rho0
# on a dense sample.  Rules out limacon-like boundaries that pass the bare
# Fourier truncation test but hug the center.
_STAR_MARGIN = 0.1
# points per block of distances_to_boundary: its transient Newton arrays
# scale with the block, not with the point count (281k for check-bounds on
# the 2:1 ellipse at h=0.05)
_DISTANCE_BLOCK = 8192
# largest magnitude of a spec number: the boundary geometry squares radii,
# semi-axes and mode numbers
_SPEC_MAX = np.sqrt(np.finfo(float).max)
# largest |center| / domain size: every boundary point's offset from the
# centre then keeps at least half of a double's digits
_CENTER_REACH = 1.0 / np.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class DomainMeasures:
    area: float
    perimeter: float
    R: float
    r_i: float


class RadialDomain:
    """Base class: boundary gamma(theta) = center + r(theta) e(theta)."""

    center: np.ndarray
    rho0: float

    def radius(self, theta):
        return self.radius_jet(theta)[0]

    # -- derived boundary quantities, vectorized over theta ---------------

    def boundary_point(self, theta):
        theta = np.asarray(theta, dtype=float)
        r = self.radius(theta)
        e = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        return self.center + r[..., None] * e

    def frame_arrays(self, theta):
        """Return (point, nu, kappa, speed) arrays at the given angles."""
        theta = np.asarray(theta, dtype=float)
        r, r1, r2 = self.radius_jet(theta)
        c, s = np.cos(theta), np.sin(theta)
        e = np.stack([c, s], axis=-1)
        eperp = np.stack([-s, c], axis=-1)
        point = self.center + r[..., None] * e
        speed = np.sqrt(r * r + r1 * r1)
        nu = (r[..., None] * e - r1[..., None] * eperp) / speed[..., None]
        kappa = (r * r + 2.0 * r1 * r1 - r * r2) / speed**3
        return point, nu, kappa, speed

    @functools.cached_property
    def area(self) -> float:
        """|Omega|, apart from `measures`, whose sphere radius costs far more."""
        return periodic_integral(lambda t: 0.5 * self.radius(t) ** 2)

    @functools.cached_property
    def measures(self) -> DomainMeasures:
        return _compute_measures(self)


class StarDomain(RadialDomain):
    """r(theta) = rho0 * (1 + sum_k a_k cos(k theta) + b_k sin(k theta)).

    Construct through :func:`build_domain`, which enforces positivity, the
    Fourier truncation condition sum k^2 (|a_k| + |b_k|) < 1, and a
    quantitative star-shapedness margin about the center.
    """

    def __init__(self, rho0, fourier, center=(0.0, 0.0)):
        self.rho0 = float(rho0)
        self.fourier = [(int(k), float(a), float(b)) for k, a, b in fourier]
        self.center = np.asarray(center, dtype=float)
        table = np.array(self.fourier, dtype=float).reshape(-1, 3)
        self._k, self._a, self._b = table.T.copy()

    def radius_jet(self, theta):
        """(r, r', r'') at the given angles."""
        theta = np.asarray(theta, dtype=float)
        kt = np.multiply.outer(theta, self._k)   # no modes: empty sums of 0.0
        c, s = np.cos(kt), np.sin(kt)
        k, k2 = self._k, self._k**2
        return (
            self.rho0 * (1.0 + (c @ self._a + s @ self._b)),
            self.rho0 * ((-s * k) @ self._a + (c * k) @ self._b),
            self.rho0 * ((-c * k2) @ self._a + (-s * k2) @ self._b),
        )

    def spec_dict(self):
        return {
            "rho0": self.rho0,
            "modes": [[k, a, b] for k, a, b in self.fourier],
            "center": list(self.center),
        }

    def __repr__(self):
        return f"StarDomain(rho0={self.rho0}, fourier={self.fourier})"


class EllipseDomain(RadialDomain):
    """Exact polar form of the ellipse x^2/a^2 + y^2/b^2 = 1.

    Serves as a closed-form oracle: r(theta) = ab / sqrt(b^2 cos^2 + a^2 sin^2)
    with exact first and second theta-derivatives.
    """

    def __init__(self, a, b, center=(0.0, 0.0)):
        _require_finite("ellipse semi-axes", (a, b))
        if a <= 0 or b <= 0:
            raise NonPositiveRadius("ellipse semi-axes must be positive")
        _require_center(center, min(a, b), "smaller semi-axis")
        self.a = float(a)
        self.b = float(b)
        self.rho0 = float(min(a, b))
        self.center = np.asarray(center, dtype=float)

    def radius_jet(self, theta):
        """(r, r', r'') at the given angles, through D = r^-2 (ab)^2."""
        theta = np.asarray(theta, dtype=float)
        ab, gap = self.a * self.b, self.a**2 - self.b**2
        s = np.sin(theta)
        D = self.b**2 + gap * s * s
        D1 = gap * np.sin(2.0 * theta)
        D2 = 2.0 * gap * np.cos(2.0 * theta)
        return (
            ab / np.sqrt(D),
            -0.5 * ab * D1 / D**1.5,
            ab * (0.75 * D1 * D1 / D**2.5 - 0.5 * D2 / D**1.5),
        )

    def spec_dict(self):
        return {"ellipse": [self.a, self.b], "center": list(self.center)}

    def __repr__(self):
        return f"EllipseDomain(a={self.a}, b={self.b})"


def _real_leaves(values):
    """True when every leaf of nested lists, tuples or arrays is an int or a
    float (a bool or a numeric string is not a number of a spec)."""
    if isinstance(values, np.ndarray):
        return values.dtype.kind in "iuf"
    if isinstance(values, (list, tuple)):
        return all(_real_leaves(v) for v in values)
    if isinstance(values, bool):
        return False
    return isinstance(values, (int, float, np.integer, np.floating))


def _require_finite(name, values):
    """Raise InvalidSpec unless values are numbers whose squares are finite
    (NaN and infinities compare False)."""
    try:
        finite = _real_leaves(values) and (
            np.abs(np.asarray(values, dtype=float)) <= _SPEC_MAX
        ).all()
    except ValueError:   # ragged mode rows
        finite = False
    if not finite:
        raise InvalidSpec(
            f"{name} must be finite numbers with finite squares, got {values!r}"
        )


def _require_center(center, size, size_name):
    """Raise InvalidSpec unless center is a finite point from which boundary
    points at distance `size` (a positive length) are resolved in floating
    point."""
    _require_finite("center", center)
    if np.shape(center) != (2,):
        raise InvalidSpec(f"center must be a point (x, y), got {center!r}")
    reach = float(np.hypot(*center))
    if reach > _CENTER_REACH * size:
        raise InvalidSpec(
            f"|center| = {reach:.3g} is {reach / size:.3g} times the {size_name} "
            f"{size:.3g}, over {_CENTER_REACH:.3g}: boundary points cannot be "
            "resolved from the centre in floating point"
        )


def build_domain(rho0, fourier_modes, center=(0.0, 0.0)) -> StarDomain:
    """Validate and construct a StarDomain.

    Raises
    ------
    InvalidSpec
        if rho0, a mode entry or the center is not a number with a finite
        square (a bool or a string is not a number), a mode row or
        the center has the wrong length, a mode number is not an integer,
        or |center| is so large against rho0 that boundary points cannot be
        resolved from the centre.
    NonPositiveRadius
        if min_theta r(theta) <= 0 on a dense sample.
    NotStarShaped
        if the truncation condition sum k^2 (|a_k|+|b_k|) >= 1 or the
        star-shapedness margin <gamma - center, nu> >= 0.1 rho0 fails.
    """
    _require_finite("rho0", rho0)
    if np.ndim(rho0):
        raise InvalidSpec(f"rho0 must be a number, got {rho0!r}")
    _require_finite("fourier modes", fourier_modes)
    modes = np.asarray(fourier_modes, dtype=float)
    if modes.size and (modes.shape[1:] != (3,) or np.any(modes[:, 0] % 1)):
        raise InvalidSpec(
            f"fourier modes must be rows [k, a, b] with integer k, got {fourier_modes!r}"
        )
    if rho0 <= 0:
        raise NonPositiveRadius(f"rho0 must be positive, got {rho0}")
    _require_center(center, rho0, "rho0")
    domain = StarDomain(rho0, fourier_modes, center)
    theta = np.linspace(0.0, 2.0 * np.pi, _DENSE_SAMPLE, endpoint=False)
    r = domain.radius(theta)
    if r.min() <= 0.0:
        raise NonPositiveRadius(
            f"min r(theta) = {r.min():.3g} <= 0 on a {_DENSE_SAMPLE}-point sample"
        )
    budget = float(np.sum(domain._k**2 * (np.abs(domain._a) + np.abs(domain._b))))
    if budget >= 1.0:
        raise NotStarShaped(
            f"truncation condition failed: sum k^2(|a_k|+|b_k|) = {budget:.3g} >= 1"
        )
    point, nu, _, _ = domain.frame_arrays(theta)
    support = np.einsum("ij,ij->i", point - domain.center, nu)
    if support.min() < _STAR_MARGIN * rho0:
        raise NotStarShaped(
            "star-shapedness margin failed: min <gamma - center, nu> = "
            f"{support.min():.3g} < {_STAR_MARGIN} * rho0"
        )
    return domain


def domain_from_spec(spec) -> RadialDomain:
    """Rebuild a domain from its JSON spec dict: keys `rho0`, `modes` and
    `center` for a star domain, `ellipse` and `center` for an ellipse."""
    if not isinstance(spec, dict):
        raise InvalidSpec(f"domain spec must be a JSON object, got {spec!r}")
    keys = {"ellipse", "center"} if "ellipse" in spec else {"rho0", "modes", "center"}
    unknown = sorted(set(spec) - keys, key=str)
    if unknown:
        raise InvalidSpec(
            f"domain spec keys {unknown} are not among {sorted(keys)}"
        )
    center = spec.get("center", (0.0, 0.0))
    if "ellipse" in spec:
        axes = spec["ellipse"]
        _require_finite("ellipse semi-axes", axes)
        if np.shape(axes) != (2,):
            raise InvalidSpec(f"'ellipse' needs two semi-axes, got {axes!r}")
        return EllipseDomain(*axes, center)
    if "rho0" not in spec:
        raise InvalidSpec("domain spec needs 'rho0' or 'ellipse'")
    return build_domain(spec["rho0"], spec.get("modes", []), center)


def _compute_measures(domain) -> DomainMeasures:
    area = domain.area
    perimeter = periodic_integral(lambda t: domain.frame_arrays(t)[3])
    R = 2.0 * area / perimeter

    theta = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    pts, nu, kappa, _ = domain.frame_arrays(theta)
    r_i = _sphere_radius(pts, nu, kappa)
    return DomainMeasures(area=area, perimeter=perimeter, R=R, r_i=r_i)


def _sphere_radius(pts, nu, kappa):
    """Uniform interior sphere radius estimate.

    Curvature bound 1 / max kappa cross-checked by sampled tangent-disk
    containment tests (256 tangency points, bisection on the radius); a
    disk fits when no boundary sample in ``pts`` lies inside it.
    The radius is a diagnostic; the identity terms never consume it.
    """
    from scipy.spatial import cKDTree

    tree = cKDTree(pts)
    cap = 1.0 / kappa.max()
    p, n = pts[:: len(pts) // 256], nu[:: len(pts) // 256]

    def fits(rho):
        d, _ = tree.query(p - rho * n)
        return bool((d >= rho * (1.0 - 1e-9) - 1e-12).all())

    if fits(cap):
        return cap
    lo, hi = 0.0, cap
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def _newton_distance(domain, z, theta, maximize):
    """|gamma - z| at the extremum of f(theta) = |gamma(theta) - z|^2 that
    Newton's method reaches from each start angle (z: one point or one per
    angle; maximize: a bool or a mask).  Steps are clipped to 0.05; an angle
    stops after a step below 1e-15 or where f'' has the wrong sign; 40 at most.
    """
    theta = np.array(theta, dtype=float)
    z = np.broadcast_to(z, theta.shape + (2,))
    maximize = np.broadcast_to(maximize, theta.shape)
    active = np.arange(theta.size)

    def dot(a, b):   # matmul rounds like the dot product of two points
        return np.matmul(a[:, None], b[..., None])[:, 0, 0]

    for _ in range(40):
        # angles as a column: r(theta) then rounds as for a single angle
        t = theta[active, None]
        r, r1, r2 = domain.radius_jet(t)
        c, s = np.cos(t), np.sin(t)
        e, ep = np.hstack([c, s]), np.hstack([-s, c])
        g = domain.center + r * e - z[active]
        g1 = r1 * e + r * ep
        g2 = (r2 - r) * e + 2.0 * r1 * ep
        f1 = 2.0 * dot(g, g1)
        f2 = 2.0 * (dot(g1, g1) + dot(g, g2))
        ok = np.where(maximize[active], f2 < 0, f2 > 0)
        step = np.clip(np.where(ok, f1 / np.where(ok, f2, 1.0), 0.0), -0.05, 0.05)
        theta[active] -= step
        active = active[np.abs(step) >= 1e-15]
        if not active.size:
            break
    return np.sqrt(((domain.boundary_point(theta[:, None])[:, 0] - z) ** 2).sum(-1))


def _boundary_extremes(domain, z):
    """(min, max) of |gamma(theta) - z|: the three best local extrema of a
    4096-point sample, refined together by Newton."""
    z = np.asarray(z, dtype=float)
    theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    d2 = ((domain.boundary_point(theta) - z) ** 2).sum(-1)
    # candidate local extrema on the dense sample (periodic neighbors)
    left, right = np.roll(d2, 1), np.roll(d2, -1)
    mins = np.where((d2 <= left) & (d2 <= right))[0]
    maxs = np.where((d2 >= left) & (d2 >= right))[0]
    mins = mins[np.argsort(d2[mins])[:3]]
    maxs = maxs[np.argsort(d2[maxs])[::-1][:3]]
    maximize = np.arange(len(mins) + len(maxs)) >= len(mins)
    d = _newton_distance(domain, z, theta[np.concatenate([mins, maxs])], maximize)
    return float(d[~maximize].min()), float(d[maximize].max())


def distances_to_boundary(domain, points):
    """Vectorized delta_Gamma for many interior points (no interiority check).

    The nearest of 1024 boundary samples (k-d tree) seeds a Newton descent.
    Points go through in blocks of _DISTANCE_BLOCK, so the transient arrays
    do not grow with the point count; each point's result is independent of
    its block.
    """
    from scipy.spatial import cKDTree

    theta = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    points = np.asarray(points, dtype=float)
    tree = cKDTree(domain.boundary_point(theta))
    out = np.empty(len(points))
    for i in range(0, len(points), _DISTANCE_BLOCK):
        block = points[i:i + _DISTANCE_BLOCK]
        nearest, idx = tree.query(block)
        polished = _newton_distance(domain, block, theta[idx], maximize=False)
        np.minimum(nearest, polished, out=out[i:i + _DISTANCE_BLOCK])
    return out


def radii_about(domain, z):
    """(rho_i, rho_e): extreme distances from z to the boundary.

    Raises PointNotInterior if z is not strictly inside the domain.
    """
    rel = np.asarray(z, dtype=float) - domain.center
    rad = float(np.sqrt(rel @ rel))
    if rad >= float(domain.radius(np.arctan2(rel[1], rel[0]))) * (1.0 - 1e-12):
        raise PointNotInterior(f"point {z} is not strictly inside the domain")
    return _boundary_extremes(domain, z)
