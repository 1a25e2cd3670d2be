"""Quadrature rules: triangle rules, 1D Gauss, adaptive periodic integrals.

Triangle rules are stored as barycentric points with weights summing to 1;
integrals are computed as  |T| * sum(w_q * f(x_q))  per element.
"""

import itertools

import numpy as np

# Dunavant degree-4 rule, 6 points. Exact for polynomials of degree <= 4.
_D4_GROUPS = [
    (0.223381589678011, (0.108103018168070, 0.445948490915965, 0.445948490915965)),
    (0.109951743655322, (0.816847572980459, 0.091576213509771, 0.091576213509771)),
]

# Dunavant degree-8 rule, 16 points, all weights positive.
_D8_GROUPS = [
    (0.144315607677787, (1 / 3, 1 / 3, 1 / 3)),
    (0.095091634267285, (0.081414823414554, 0.459292588292723, 0.459292588292723)),
    (0.103217370534718, (0.658861384496480, 0.170569307751760, 0.170569307751760)),
    (0.032458497623198, (0.898905543365938, 0.050547228317031, 0.050547228317031)),
    (0.027230314174435, (0.008394777409958, 0.263112829634638, 0.728492392955404)),
]


def _expand(groups):
    pts, wts = [], []
    for w, bary in groups:
        seen = set()
        for perm in itertools.permutations(bary):
            if perm in seen:
                continue
            seen.add(perm)
            pts.append(perm)
            wts.append(w)
    pts = np.array(pts)
    wts = np.array(wts)
    wts /= wts.sum()  # strip table roundoff so constants integrate exactly
    return pts, wts


def triangle_rule(degree):
    """Return (bary (Q,3), weights (Q,)) for a symmetric triangle rule."""
    if degree <= 4:
        return _expand(_D4_GROUPS)
    return _expand(_D8_GROUPS)


def gauss_legendre_01(n):
    """Gauss-Legendre nodes/weights mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def periodic_integral(f):
    """Integrate a smooth 2pi-periodic callable over [0, 2pi].

    Composite 10-point Gauss-Legendre on 16 intervals, doubled (at most 14
    levels) until two successive levels agree to 1e-12 relatively.
    """
    gx, gw = np.polynomial.legendre.leggauss(10)
    prev = None
    m = 16
    for _ in range(14):
        edges = np.linspace(0.0, 2.0 * np.pi, m + 1)
        h = edges[1] - edges[0]
        mid = 0.5 * (edges[:-1] + edges[1:])
        theta = (mid[:, None] + 0.5 * h * gx[None, :]).ravel()
        wts = np.broadcast_to(0.5 * h * gw[None, :], (m, gx.size)).ravel()
        val = float(np.dot(wts, f(theta)))
        if prev is not None and abs(val - prev) <= 1e-12 * (abs(val) + 1e-300):
            return val
        prev = val
        m *= 2
    return prev


def fft_derivative(values):
    """Spectral d/dtheta of samples on a uniform periodic theta grid."""
    values = np.asarray(values, dtype=float)
    m = values.size
    spec = np.fft.rfft(values)
    k = np.arange(spec.size)
    spec = spec * (1j * k)
    if m % 2 == 0:
        spec[-1] = 0.0  # derivative of the Nyquist mode is not representable
    return np.fft.irfft(spec, m)


def fft_antiderivative(values):
    """Periodic antiderivative in theta of mean-zero part; linear part added.

    Returns F with F(theta_j) = mean * theta_j + oscillatory antiderivative,
    normalized so F[0] = 0.  Exact for trigonometric polynomials.
    """
    values = np.asarray(values, dtype=float)
    m = values.size
    theta = 2.0 * np.pi * np.arange(m) / m
    mean = values.mean()
    spec = np.fft.rfft(values - mean)
    k = np.arange(spec.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        spec = np.where(k > 0, spec / (1j * k), 0.0)
    if m % 2 == 0:
        spec[-1] = 0.0
    osc = np.fft.irfft(spec, m)
    out = mean * theta + osc
    return out - out[0]
