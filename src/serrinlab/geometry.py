"""Analytic star-shaped planar domains and their boundary geometry.

Domains are radial graphs r(theta) about a center point, either a truncated
Fourier series (StarDomain) or the exact polar form of an ellipse
(EllipseDomain, used as an independent oracle).  All geometric quantities
(normal, curvature, measures, distances) come from exact differentiation of
r(theta) plus adaptive quadrature.
"""

from dataclasses import dataclass

import numpy as np

from ._quadrature import periodic_integral
from .errors import (
    InvalidSpec,
    NonPositiveRadius,
    NotStarShaped,
    OutsideDomain,
    PointNotInterior,
)

_DENSE_SAMPLE = 4096
# Quantitative star-shapedness margin: <gamma - center, nu> >= margin * rho0
# on a dense sample.  Rules out limacon-like boundaries that pass the bare
# Fourier truncation test but hug the center.
_STAR_MARGIN = 0.1


@dataclass(frozen=True)
class BoundaryFrame:
    """Pointwise boundary data at angle theta.

    nu is the outward unit normal, kappa the signed curvature with respect
    to the interior normal (unit circle: kappa = 1), arclength_density the
    polar speed |gamma'(theta)|.
    """

    theta: float
    point: np.ndarray
    nu: np.ndarray
    kappa: float
    arclength_density: float


@dataclass(frozen=True)
class DomainMeasures:
    area: float
    perimeter: float
    R: float
    d_Omega: float
    r_i: float
    r_e: float


class RadialDomain:
    """Base class: boundary gamma(theta) = center + r(theta) e(theta)."""

    center: np.ndarray
    rho0: float

    def radius(self, theta):
        raise NotImplementedError

    def radius_d1(self, theta):
        raise NotImplementedError

    def radius_d2(self, theta):
        raise NotImplementedError

    # -- derived boundary quantities, vectorized over theta ---------------

    def boundary_point(self, theta):
        theta = np.asarray(theta, dtype=float)
        r = self.radius(theta)
        e = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        return self.center + r[..., None] * e

    def frame_arrays(self, theta):
        """Return (point, nu, kappa, speed) arrays at the given angles."""
        theta = np.asarray(theta, dtype=float)
        r = self.radius(theta)
        r1 = self.radius_d1(theta)
        r2 = self.radius_d2(theta)
        c, s = np.cos(theta), np.sin(theta)
        e = np.stack([c, s], axis=-1)
        eperp = np.stack([-s, c], axis=-1)
        point = self.center + r[..., None] * e
        speed = np.sqrt(r * r + r1 * r1)
        nu = (r[..., None] * e - r1[..., None] * eperp) / speed[..., None]
        kappa = (r * r + 2.0 * r1 * r1 - r * r2) / speed**3
        return point, nu, kappa, speed

    def spec_dict(self):
        raise NotImplementedError

    @property
    def measures(self) -> DomainMeasures:
        cached = getattr(self, "_measures", None)
        if cached is None:
            cached = _compute_measures(self)
            object.__setattr__(self, "_measures", cached)
        return cached


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
        self._k = np.array([k for k, _, _ in self.fourier], dtype=float)
        self._a = np.array([a for _, a, _ in self.fourier], dtype=float)
        self._b = np.array([b for _, _, b in self.fourier], dtype=float)

    def _trig(self, theta, order):
        theta = np.asarray(theta, dtype=float)
        if self._k.size == 0:
            return np.zeros_like(theta)
        kt = np.multiply.outer(theta, self._k)
        kpow = self._k**order
        if order == 0:
            return np.cos(kt) @ self._a + np.sin(kt) @ self._b
        if order == 1:
            return (-np.sin(kt) * kpow) @ self._a + (np.cos(kt) * kpow) @ self._b
        return (-np.cos(kt) * kpow) @ self._a + (-np.sin(kt) * kpow) @ self._b

    def radius(self, theta):
        return self.rho0 * (1.0 + self._trig(theta, 0))

    def radius_d1(self, theta):
        return self.rho0 * self._trig(theta, 1)

    def radius_d2(self, theta):
        return self.rho0 * self._trig(theta, 2)

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
        _require_center(center)
        if a <= 0 or b <= 0:
            raise NonPositiveRadius("ellipse semi-axes must be positive")
        self.a = float(a)
        self.b = float(b)
        self.rho0 = float(min(a, b))
        self.center = np.asarray(center, dtype=float)

    def _D(self, theta):
        s = np.sin(theta)
        return self.b**2 + (self.a**2 - self.b**2) * s * s

    def radius(self, theta):
        theta = np.asarray(theta, dtype=float)
        return self.a * self.b / np.sqrt(self._D(theta))

    def radius_d1(self, theta):
        theta = np.asarray(theta, dtype=float)
        D = self._D(theta)
        D1 = (self.a**2 - self.b**2) * np.sin(2.0 * theta)
        return -0.5 * self.a * self.b * D1 / D**1.5

    def radius_d2(self, theta):
        theta = np.asarray(theta, dtype=float)
        D = self._D(theta)
        D1 = (self.a**2 - self.b**2) * np.sin(2.0 * theta)
        D2 = 2.0 * (self.a**2 - self.b**2) * np.cos(2.0 * theta)
        return self.a * self.b * (0.75 * D1 * D1 / D**2.5 - 0.5 * D2 / D**1.5)

    def spec_dict(self):
        return {"ellipse": [self.a, self.b], "center": list(self.center)}

    def __repr__(self):
        return f"EllipseDomain(a={self.a}, b={self.b})"


def _require_finite(name, values):
    try:
        finite = np.isfinite(np.asarray(values, dtype=float)).all()
    except (TypeError, ValueError):   # not numbers, or ragged mode rows
        finite = False
    if not finite:
        raise InvalidSpec(f"{name} must be finite numbers, got {values!r}")


def _require_center(center):
    _require_finite("center", center)
    if np.shape(center) != (2,):
        raise InvalidSpec(f"center must be a point (x, y), got {center!r}")


def build_domain(rho0, fourier_modes, center=(0.0, 0.0)) -> StarDomain:
    """Validate and construct a StarDomain.

    Raises
    ------
    InvalidSpec
        if rho0, a mode entry or the center is not finite, or a mode row
        or the center has the wrong length.
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
    if np.size(fourier_modes) and np.shape(fourier_modes)[1:] != (3,):
        raise InvalidSpec(f"fourier modes must be rows [k, a, b], got {fourier_modes!r}")
    _require_center(center)
    if rho0 <= 0:
        raise NonPositiveRadius(f"rho0 must be positive, got {rho0}")
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
    """Rebuild a domain from its JSON spec dict."""
    if not isinstance(spec, dict):
        raise InvalidSpec(f"domain spec must be a JSON object, got {spec!r}")
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


def boundary_frame(domain, theta) -> BoundaryFrame:
    """Analytic boundary frame (position, normal, curvature) at one angle."""
    point, nu, kappa, speed = domain.frame_arrays(float(theta))
    return BoundaryFrame(
        theta=float(theta),
        point=point,
        nu=nu,
        kappa=float(kappa),
        arclength_density=float(speed),
    )


def _compute_measures(domain) -> DomainMeasures:
    area = periodic_integral(lambda t: 0.5 * domain.radius(t) ** 2)
    perimeter = periodic_integral(
        lambda t: np.sqrt(domain.radius(t) ** 2 + domain.radius_d1(t) ** 2)
    )
    R = 2.0 * area / perimeter

    theta = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    pts = domain.boundary_point(theta)
    d_Omega = 0.0
    for i0 in range(0, theta.size, 256):
        block = pts[i0 : i0 + 256]
        diff = block[:, None, :] - pts[None, :, :]
        d_Omega = max(d_Omega, float(np.sqrt((diff**2).sum(-1)).max()))

    _, nu, kappa, _ = domain.frame_arrays(theta)
    r_i = _sphere_radius(domain, pts, nu, kappa, d_Omega, interior=True)
    r_e = _sphere_radius(domain, pts, nu, kappa, d_Omega, interior=False)
    return DomainMeasures(
        area=area, perimeter=perimeter, R=R, d_Omega=d_Omega, r_i=r_i, r_e=r_e
    )


def _sphere_radius(domain, pts, nu, kappa, d_Omega, interior):
    """Uniform interior/exterior sphere radius estimate.

    Curvature-extreme bound cross-checked by sampled tangent-disk
    containment tests (256 tangency points, bisection on the radius).
    These radii are diagnostics; the identity terms never consume them.
    """
    if interior:
        kmax = kappa.max()
        bound = 1.0 / kmax if kmax > 0 else np.inf
    else:
        kmin = kappa.min()
        bound = 1.0 / (-kmin) if kmin < 0 else np.inf
    cap = min(bound, 10.0 * d_Omega)
    probe_idx = np.arange(0, pts.shape[0], pts.shape[0] // 256)
    p = pts[probe_idx]
    n = nu[probe_idx]
    sign = -1.0 if interior else 1.0

    def fits(rho):
        centers = p + sign * rho * n
        ok = np.ones(len(centers), dtype=bool)
        for i0 in range(0, len(centers), 64):
            block = centers[i0 : i0 + 64]
            d = np.sqrt(((block[:, None, :] - pts[None, :, :]) ** 2).sum(-1)).min(1)
            ok[i0 : i0 + 64] = d >= rho * (1.0 - 1e-9) - 1e-12
        return bool(ok.all())

    if fits(cap):
        sampled = cap
    else:
        lo, hi = 0.0, cap
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if fits(mid):
                lo = mid
            else:
                hi = mid
        sampled = lo
    out = min(bound, sampled)
    return np.inf if (not interior and out >= 10.0 * d_Omega * (1 - 1e-9)) else out


def measures(domain) -> DomainMeasures:
    """Area, perimeter, R = 2|Omega|/|Gamma|, diameter, sphere radii."""
    return domain.measures


def _refine_extremum(domain, z, theta0, maximize, steps=40):
    """Newton refinement of an extremum of f(theta) = |gamma(theta) - z|^2."""
    theta = float(theta0)
    z = np.asarray(z, dtype=float)
    for _ in range(steps):
        r = domain.radius(theta)
        r1 = domain.radius_d1(theta)
        r2 = domain.radius_d2(theta)
        c, s = np.cos(theta), np.sin(theta)
        e = np.array([c, s])
        eperp = np.array([-s, c])
        g = domain.center + r * e - z
        g1 = r1 * e + r * eperp
        g2 = (r2 - r) * e + 2.0 * r1 * eperp
        f1 = 2.0 * float(g @ g1)
        f2 = 2.0 * float(g1 @ g1 + g @ g2)
        if f2 == 0.0:
            break
        step = f1 / f2
        if maximize and f2 > 0:
            break  # wrong basin; keep sampled value
        if (not maximize) and f2 < 0:
            break
        step = np.clip(step, -0.05, 0.05)
        theta -= step
        if abs(step) < 1e-15:
            break
    return theta


def _boundary_extremes(domain, z, n_sample=4096):
    theta = np.linspace(0.0, 2.0 * np.pi, n_sample, endpoint=False)
    d2 = ((domain.boundary_point(theta) - np.asarray(z, dtype=float)) ** 2).sum(-1)

    def refined(idx, maximize):
        best = None
        order = np.argsort(d2[idx])[::-1] if maximize else np.argsort(d2[idx])
        for j in order[:3]:
            t = _refine_extremum(domain, z, theta[idx[j]], maximize)
            val = float(np.sqrt(((domain.boundary_point(t) - z) ** 2).sum()))
            if best is None or (maximize and val > best) or (not maximize and val < best):
                best = val
        return best

    # candidate local extrema on the dense sample (periodic neighbors)
    left = np.roll(d2, 1)
    right = np.roll(d2, -1)
    mins = np.where((d2 <= left) & (d2 <= right))[0]
    maxs = np.where((d2 >= left) & (d2 >= right))[0]
    return refined(mins, maximize=False), refined(maxs, maximize=True)


def distance_to_boundary(domain, x) -> float:
    """delta_Gamma(x) = dist(x, Gamma) for x in the closure of the domain."""
    x = np.asarray(x, dtype=float)
    rel = x - domain.center
    rad = float(np.sqrt(rel @ rel))
    theta_x = float(np.arctan2(rel[1], rel[0]))
    if rad > float(domain.radius(theta_x)) * (1.0 + 1e-12) + 1e-14:
        raise OutsideDomain(f"point {x} lies outside the domain closure")
    dmin, _ = _boundary_extremes(domain, x, n_sample=1024)
    return dmin


def distances_to_boundary(domain, points, n_sample=1024):
    """Vectorized delta_Gamma for many interior points (no interiority check)."""
    theta = np.linspace(0.0, 2.0 * np.pi, n_sample, endpoint=False)
    bpts = domain.boundary_point(theta)
    points = np.asarray(points, dtype=float)
    out = np.empty(len(points))
    idx = np.empty(len(points), dtype=int)
    for i0 in range(0, len(points), 512):
        block = points[i0 : i0 + 512]
        d = np.sqrt(((block[:, None, :] - bpts[None, :, :]) ** 2).sum(-1))
        out[i0 : i0 + 512] = d.min(1)
        idx[i0 : i0 + 512] = d.argmin(1)
    # vectorized Newton polish from the nearest-sample angle
    t = theta[idx]
    for _ in range(6):
        r = domain.radius(t)
        r1 = domain.radius_d1(t)
        r2 = domain.radius_d2(t)
        c, s = np.cos(t), np.sin(t)
        e = np.stack([c, s], -1)
        ep = np.stack([-s, c], -1)
        g = domain.center + r[:, None] * e - points
        g1 = r1[:, None] * e + r[:, None] * ep
        g2 = (r2 - r)[:, None] * e + 2.0 * r1[:, None] * ep
        f1 = 2.0 * np.einsum("ij,ij->i", g, g1)
        f2 = 2.0 * (np.einsum("ij,ij->i", g1, g1) + np.einsum("ij,ij->i", g, g2))
        ok = f2 > 0
        step = np.where(ok, f1 / np.where(f2 == 0, 1.0, f2), 0.0)
        t = t - np.clip(step, -0.05, 0.05)
    d_polish = np.sqrt(((domain.boundary_point(t) - points) ** 2).sum(-1))
    return np.minimum(out, d_polish)


def radii_about(domain, z):
    """(rho_i, rho_e): extreme distances from z to the boundary.

    Raises PointNotInterior if z is not strictly inside the domain.
    """
    z = np.asarray(z, dtype=float)
    rel = z - domain.center
    rad = float(np.sqrt(rel @ rel))
    theta_z = float(np.arctan2(rel[1], rel[0]))
    if rad >= float(domain.radius(theta_z)) * (1.0 - 1e-12):
        raise PointNotInterior(f"point {z} is not strictly inside the domain")
    rho_i, rho_e = _boundary_extremes(domain, z)
    return rho_i, rho_e
