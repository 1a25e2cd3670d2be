"""Exact verification of the pointwise differential identity in dimension N.

Polynomials carry rational coefficients indexed by exponent multi-indices;
all differentiation and expansion is symbolic, so a zero residual is a
proof of the identity on the generated inputs, independent of every
floating-point module.  The boundary maximum enters the identity affinely
and is kept as a free symbol (one extra variable slot), which covers every
possible value at once; rational spot evaluations are reported alongside.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidSpec, NotTorsionPolynomial

HALF = Fraction(1, 2)


class Polynomial:
    """Multivariate polynomial over exact rationals.

    terms maps exponent tuples (length nvars) to nonzero Fractions.  The
    spatial dimension N may be smaller than nvars; differential operators
    act on the first N slots only (extra slots hold free symbols).
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    self.terms[tuple(mono)] = c

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {tuple([0] * nvars): Fraction(c)})

    @classmethod
    def monomial(cls, nvars, var, power=1, coeff=1):
        mono = [0] * nvars
        mono[var] = power
        return cls(nvars, {tuple(mono): Fraction(coeff)})

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, Fraction(0)) + c
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
        return Polynomial(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = Fraction(other)
            if c == 0:
                return Polynomial.zero(self.nvars)
            return Polynomial(
                self.nvars, {m: c * v for m, v in self.terms.items()}
            )
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                s = out.get(mono, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = s
        return Polynomial(self.nvars, out)

    __rmul__ = __mul__

    def diff(self, var):
        out = {}
        for mono, c in self.terms.items():
            p = mono[var]
            if p == 0:
                continue
            m = list(mono)
            m[var] = p - 1
            out[tuple(m)] = c * p
        return Polynomial(self.nvars, out)

    def gradient(self, ndim):
        return [self.diff(i) for i in range(ndim)]

    def laplacian(self, ndim):
        out = Polynomial.zero(self.nvars)
        for i in range(ndim):
            out = out + self.diff(i).diff(i)
        return out

    def hessian_frobenius_sq(self, ndim):
        out = Polynomial.zero(self.nvars)
        for i in range(ndim):
            for j in range(ndim):
                d = self.diff(i).diff(j)
                out = out + d * d
        return out

    def evaluate(self, point):
        point = [Fraction(p) for p in point]
        total = Fraction(0)
        for mono, c in self.terms.items():
            val = c
            for x, p in zip(point, mono):
                if p:
                    val *= x**p
            total += val
        return total

    @property
    def degree(self):
        return max((sum(m) for m in self.terms), default=0)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.nvars == other.nvars and self.terms == other.terms
        return self.is_zero() if other == 0 else NotImplemented

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def pad(self, nvars):
        """Embed into a larger variable count (extra exponents zero)."""
        if nvars == self.nvars:
            return self
        return Polynomial(
            nvars, {m + (0,) * (nvars - self.nvars): c for m, c in self.terms.items()}
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono, c in sorted(self.terms.items()):
            vars_part = "*".join(
                f"x{i}^{p}" if p > 1 else f"x{i}" for i, p in enumerate(mono) if p
            )
            bits.append(f"{c}" + (f"*{vars_part}" if vars_part else ""))
        return " + ".join(bits)


def divergence(field_components, ndim):
    out = Polynomial.zero(field_components[0].nvars)
    for i, f in enumerate(field_components[:ndim]):
        out = out + f.diff(i)
    return out


def dot(a, b):
    out = Polynomial.zero(a[0].nvars)
    for f, g in zip(a, b):
        out = out + f * g
    return out


# -- harmonic bases ----------------------------------------------------------------

def _monomials(ndim, degree):
    """Exponent tuples of total degree == degree, lexicographic order."""
    if ndim == 1:
        return [(degree,)]
    out = []
    for p in range(degree, -1, -1):
        out.extend((p,) + rest for rest in _monomials(ndim - 1, degree - p))
    return out


def harmonic_basis(ndim, degree):
    """Basis of homogeneous harmonic polynomials of the given degree.

    In the plane these are the real and imaginary parts of (x + i y)^d; in
    higher dimension the exact rational kernel of the Laplacian acting on
    homogeneous monomials.
    """
    if degree == 0:
        return [Polynomial.constant(ndim, 1)]
    if ndim == 2:
        re, im = {}, {}
        for k in range(degree + 1):
            c = Fraction(_binom(degree, k))
            mono = (degree - k, k)
            if k % 4 == 0:
                re[mono] = c
            elif k % 4 == 1:
                im[mono] = c
            elif k % 4 == 2:
                re[mono] = -c
            else:
                im[mono] = -c
        return [Polynomial(2, re), Polynomial(2, im)]
    monos = _monomials(ndim, degree)
    target = _monomials(ndim, degree - 2) if degree >= 2 else []
    if not target:
        return [Polynomial(ndim, {m: 1}) for m in monos]
    row_of = {m: i for i, m in enumerate(target)}
    cols = []
    for m in monos:
        col = {}
        for i in range(ndim):
            if m[i] >= 2:
                mm = list(m)
                mm[i] -= 2
                r = row_of[tuple(mm)]
                col[r] = col.get(r, Fraction(0)) + Fraction(m[i] * (m[i] - 1))
        cols.append(col)
    kernel = _rational_kernel(cols, len(target))
    return [
        Polynomial(ndim, {m: c for m, c in zip(monos, vec) if c != 0})
        for vec in kernel
    ]


def _binom(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def _rational_kernel(cols, nrows):
    """Exact kernel basis of the matrix given column-wise as sparse dicts."""
    ncols = len(cols)
    dense = [[cols[j].get(i, Fraction(0)) for j in range(ncols)] for i in range(nrows)]
    pivots = {}
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if dense[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        dense[r], dense[pivot] = dense[pivot], dense[r]
        pv = dense[r][c]
        dense[r] = [x / pv for x in dense[r]]
        for i in range(nrows):
            if i != r and dense[i][c] != 0:
                f = dense[i][c]
                dense[i] = [a - f * b for a, b in zip(dense[i], dense[r])]
        pivots[c] = r
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pc, pr in pivots.items():
            vec[pc] = -dense[pr][fc]
        basis.append(vec)
    return basis


# -- torsion polynomials ---------------------------------------------------------------

def quadratic_core(ndim):
    """The paraboloid |x|^2 / 2, whose Laplacian equals the dimension."""
    return Polynomial(
        ndim,
        {
            tuple(2 if j == i else 0 for j in range(ndim)): HALF
            for i in range(ndim)
        },
    )


def random_torsion_polynomial(ndim, degree, seed) -> Polynomial:
    """|x|^2/2 plus a random harmonic polynomial with degrees 1..degree.

    Sparse rational coefficients, deterministic in the seed; the symbolic
    Laplacian is verified to equal the dimension before returning.
    """
    if ndim < 2 or degree < 2:
        raise InvalidSpec(f"need ndim >= 2 and degree >= 2, got {ndim} and {degree}")
    rng = random.Random(f"torsion|{seed}|{ndim}|{degree}")
    u = quadratic_core(ndim)
    for d in range(1, degree + 1):
        basis = harmonic_basis(ndim, d)
        picks = rng.sample(range(len(basis)), min(len(basis), rng.randint(1, 3)))
        for idx in picks:
            num = rng.randint(-6, 6)
            den = rng.randint(1, 4)
            if num:
                u = u + basis[idx] * Fraction(num, den)
    lap = u.laplacian(ndim)
    if not (lap - ndim).is_zero():
        raise NotTorsionPolynomial(f"generator produced Laplacian {lap}")
    return u


@dataclass
class PointResidual:
    point: tuple
    lhs: Fraction
    rhs: Fraction
    residual: Fraction


def _require_torsion(p, ndim):
    if not (p.laplacian(ndim) - ndim).is_zero():
        raise NotTorsionPolynomial(
            f"polynomial Laplacian differs from the dimension {ndim}"
        )


def check_differential_identity(u, v, ubar=Fraction(1), points=()):
    """Exact check of the pointwise identity behind the integral identity.

    With P = |grad u|^2/2 + (ubar - u) and Laplacian(u) = Laplacian(v) = N:

      (ubar-u) dP + <(I - H v) grad u, grad u>
        = div{ P grad u + (ubar-u) grad P + |grad u|^2/2 grad v
               - <grad v, grad u> grad u }
        + div{ (N-1)(ubar-u) grad u - N (ubar-u) grad v }.

    ubar is kept symbolic (extra variable), so a zero residual covers every
    boundary maximum; the rational value passed in is used only for the
    spot evaluations.  Returns (residual_polynomial, worst PointResidual),
    where the residual polynomial must be identically zero.
    """
    ndim = u.nvars
    _require_torsion(u, ndim)
    _require_torsion(v, ndim)
    nv = ndim + 1
    U = u.pad(nv)
    V = v.pad(nv)
    ub = Polynomial.monomial(nv, ndim)   # the free boundary-maximum symbol

    gu = U.gradient(ndim)
    gv = V.gradient(ndim)
    fu = ub - U                          # (ubar - u)
    P = HALF * dot(gu, gu) + fu
    dP = P.laplacian(ndim)

    lhs = fu * dP + dot(gu, gu) - _hess_quadform(V, gu, ndim)

    gP = P.gradient(ndim)
    flux1 = [
        P * gu[i] + fu * gP[i] + HALF * dot(gu, gu) * gv[i] - dot(gv, gu) * gu[i]
        for i in range(ndim)
    ]
    flux2 = [(ndim - 1) * fu * gu[i] - ndim * fu * gv[i] for i in range(ndim)]
    rhs = divergence(flux1, ndim) + divergence(flux2, ndim)

    residual = lhs - rhs
    worst = None
    for pt in points:
        full = tuple(pt) + (Fraction(ubar),)
        pl = lhs.evaluate(full)
        pr = rhs.evaluate(full)
        rec = PointResidual(tuple(pt), pl, pr, pl - pr)
        if worst is None or abs(rec.residual) > abs(worst.residual):
            worst = rec
    return residual, worst


def _hess_quadform(V, g, ndim):
    """<H(V) g, g> expanded symbolically."""
    out = Polynomial.zero(V.nvars)
    for i in range(ndim):
        for j in range(ndim):
            out = out + V.diff(i).diff(j) * g[i] * g[j]
    return out


def check_pfunction_identity(u):
    """Residual of Laplacian(P) = |H u|^2 - N for P = |grad u|^2/2 - u.

    Must be the zero polynomial for every constant-source field.
    """
    ndim = u.nvars
    _require_torsion(u, ndim)
    g = u.gradient(ndim)
    P = HALF * dot(g, g) - u
    return P.laplacian(ndim) - (u.hessian_frobenius_sq(ndim) - ndim)


def delta_p(u):
    """|H u|^2 - N, the quadratic-radiality detector."""
    ndim = u.nvars
    return u.hessian_frobenius_sq(ndim) - ndim


def is_quadratic_radial(u):
    """True when the Hessian is the identity, i.e. u - |x-z|^2/2 is affine."""
    ndim = u.nvars
    for i in range(ndim):
        for j in range(ndim):
            want = 1 if i == j else 0
            if not (u.diff(i).diff(j) - want).is_zero():
                return False
    return True


def random_rational_points(ndim, count, seed):
    rng = random.Random(f"points|{seed}|{ndim}")
    return [
        tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(ndim))
        for _ in range(count)
    ]


def identity_case_table(dims, degree, cases, seed0=0):
    """Pass/fail rows for the CLI: both symbolic identities per random pair."""
    rows = []
    for ndim in dims:
        for case in range(cases):
            u = random_torsion_polynomial(ndim, degree, seed0 + case)
            v = random_torsion_polynomial(ndim, degree, seed0 + 10_000 + case)
            pts = random_rational_points(ndim, 3, seed0 + case)
            residual, worst = check_differential_identity(u, v, Fraction(7, 3), pts)
            p_res = check_pfunction_identity(u)
            rows.append(
                {
                    "N": ndim,
                    "degree": degree,
                    "seed": seed0 + case,
                    "residual_is_zero": residual.is_zero() and p_res.is_zero(),
                    "spot_residual": str(worst.residual if worst else 0),
                }
            )
    return rows
