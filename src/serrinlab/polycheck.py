"""Exact verification of the pointwise differential identity in dimension N.

Polynomials carry rational coefficients indexed by exponent multi-indices,
stored as integer numerators over one common denominator per polynomial, so
products and sums run on ints and a Fraction is built only for a value or a
view of the coefficients.  Each monomial is one packed int: exponent i fills
the EXP_BITS-wide field at bit EXP_BITS*i, so multiplying monomials adds
their keys.  Every exponent must be an int in [0, 2**EXP_BITS), and a
product whose exponent bound would reach 2**EXP_BITS raises InvalidSpec, so
no field ever carries into the next.  All differentiation and expansion is
symbolic, so a zero residual is a proof of the identity on the generated
inputs, independent of every floating-point module.  The boundary maximum
enters the identity affinely and is kept as a free symbol (one extra
variable slot), which covers every possible value at once; rational spot
evaluations are reported alongside.
"""

import random
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import comb, gcd, lcm, prod

from .errors import InvalidSpec, NotTorsionPolynomial

HALF = Fraction(1, 2)
# bits per exponent field of a packed monomial key
EXP_BITS = 16
EXP_MASK = (1 << EXP_BITS) - 1
# the most monomials of degree <= d in N variables, C(N + d, d), a random case
# may span: N = 8, d = 4 spans 495; N = 2, d = 30 (496) is the slowest accepted
MAX_RING_SIZE = 500


class Polynomial:
    """Multivariate polynomial over exact rationals.

    The coefficients are integer numerators _num (packed monomial keys to
    nonzero ints) over one common denominator den, and top bounds every
    exponent from above.  The form is canonical: den >= 1 and gcd(den, every
    numerator) = 1, so equal polynomials have equal (_num, den).
    The spatial dimension N may be smaller than nvars; differential operators
    act on the first N slots only (extra slots hold free symbols).
    """

    __slots__ = ("nvars", "_num", "den", "top")

    def __init__(self, nvars, terms=None):
        coeffs = {}
        top = 0
        for mono, c in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != nvars:
                raise InvalidSpec(
                    f"monomial {mono} has {len(mono)} exponents, expected {nvars}"
                )
            key = 0
            for i, p in enumerate(mono):
                if type(p) is not int or not 0 <= p <= EXP_MASK:
                    raise InvalidSpec(
                        f"monomial {mono}: exponent {p!r} is not an int in "
                        f"[0, 2**{EXP_BITS})"
                    )
                key |= p << (EXP_BITS * i)
                top = max(top, p)
            c = Fraction(c)
            if c:
                coeffs[key] = c
        # over the lcm of the denominators no prime divides den and every
        # numerator, so the result is already canonical
        den = lcm(*(c.denominator for c in coeffs.values()))
        self.nvars = nvars
        self._num = {m: c.numerator * (den // c.denominator) for m, c in coeffs.items()}
        self.den = den
        self.top = top

    @classmethod
    def _adopt(cls, nvars, num, den, top):
        """Wrap packed numerators and a denominator already in canonical form,
        uncopied."""
        p = object.__new__(cls)
        p.nvars = nvars
        p._num = num
        p.den = den
        p.top = top
        return p

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @property
    def num(self):
        """Read-only view of the numerators as {exponent tuple: int}."""
        shifts = [EXP_BITS * i for i in range(self.nvars)]
        return {
            tuple((m >> s) & EXP_MASK for s in shifts): c for m, c in self._num.items()
        }

    @property
    def terms(self):
        """Read-only view of the coefficients as {exponent tuple: Fraction}."""
        return {m: Fraction(c, self.den) for m, c in self.num.items()}

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        return Polynomial.constant(self.nvars, other)

    def __add__(self, other):
        return _sum(self.nvars, (self, self._coerce(other)))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._adopt(
            self.nvars, {m: -c for m, c in self._num.items()}, self.den, self.top
        )

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = Fraction(other)
            num = {m: c.numerator * v for m, v in self._num.items()}
            return _normalized(self.nvars, num, self.den * c.denominator, self.top)
        top = self.top + other.top
        if top > EXP_MASK:
            raise InvalidSpec(
                f"product exponent bound {top} does not fit in {EXP_BITS} bits"
            )
        out = {}
        for m1, c1 in self._num.items():
            for m2, c2 in other._num.items():
                mono = m1 + m2
                c = c1 * c2
                out[mono] = out[mono] + c if mono in out else c
        return _normalized(self.nvars, out, self.den * other.den, top)

    __rmul__ = __mul__

    def diff(self, var):
        shift = EXP_BITS * var
        unit = 1 << shift
        out = {}
        for mono, c in self._num.items():
            p = (mono >> shift) & EXP_MASK
            if p:
                out[mono - unit] = c * p
        # the exponent p may share a factor with den
        return _normalized(self.nvars, out, self.den, self.top)

    def gradient(self, ndim):
        return [self.diff(i) for i in range(ndim)]

    def laplacian(self, ndim):
        return divergence(self.gradient(ndim), ndim)

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise InvalidSpec(
                f"point {tuple(point)} has {len(point)} coordinates, "
                f"expected {self.nvars}"
            )
        xs = [Fraction(x) for x in point]
        t = self.top
        # with x = a/b and t >= every exponent, x^k = a^k b^(t-k) / b^t:
        # every term is an integer over den * prod b^t
        tables = [
            [x.numerator ** k * x.denominator ** (t - k) for k in range(t + 1)]
            for x in xs
        ]
        total = 0
        for mono, c in self._num.items():
            for tab in tables:
                c *= tab[mono & EXP_MASK]
                mono >>= EXP_BITS
            total += c
        scale = self.den * prod(x.denominator for x in xs) ** t
        return Fraction(total, scale)

    def is_zero(self):
        return not self._num

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return (self.nvars, self.den, self._num) == (
                other.nvars, other.den, other._num
            )
        return self.is_zero() if other == 0 else NotImplemented

    def pad(self, nvars):
        """Embed into a larger variable count (extra exponents zero).  The
        extra fields sit above the old ones, so every key stays as it is."""
        if nvars == self.nvars:
            return self
        return Polynomial._adopt(nvars, self._num, self.den, self.top)

    def __repr__(self):
        if not self._num:
            return "0"
        bits = []
        for mono, c in sorted(self.terms.items()):
            vars_part = "*".join(
                f"x{i}^{p}" if p > 1 else f"x{i}" for i, p in enumerate(mono) if p
            )
            bits.append(f"{c}" + (f"*{vars_part}" if vars_part else ""))
        return " + ".join(bits)


def _normalized(nvars, num, den, top):
    """Polynomial of integer numerators over den, with cancelled terms dropped
    and the common factor of den and the numerators divided out."""
    if 0 in num.values():
        num = {m: c for m, c in num.items() if c}
    g = den
    for c in num.values():
        g = gcd(g, c)
        if g == 1:
            return Polynomial._adopt(nvars, num, den, top)
    # g == den when no term is left, which gives the zero polynomial over 1
    return Polynomial._adopt(
        nvars, {m: c // g for m, c in num.items()}, den // g, top
    )


def _sum(nvars, polys):
    polys = tuple(polys)
    den = lcm(*(p.den for p in polys))
    out = {}
    for p in polys:
        scale = den // p.den
        for mono, c in p._num.items():
            c *= scale
            out[mono] = out[mono] + c if mono in out else c
    return _normalized(nvars, out, den, max(p.top for p in polys))


def divergence(field_components, ndim):
    return _sum(
        field_components[0].nvars,
        (f.diff(i) for i, f in enumerate(field_components[:ndim])),
    )


def dot(a, b):
    return _sum(a[0].nvars, (f * g for f, g in zip(a, b)))


# -- harmonic bases ----------------------------------------------------------------

def _monomials(ndim, degree):
    """Exponent tuples of total degree == degree, lexicographic order."""
    if ndim == 1:
        return [(degree,)]
    out = []
    for p in range(degree, -1, -1):
        out.extend((p,) + rest for rest in _monomials(ndim - 1, degree - p))
    return out


@cache
def harmonic_basis(ndim, degree):
    """Basis of homogeneous harmonic polynomials of the given degree.

    In the plane these are the real and imaginary parts of (x + i y)^d; in
    higher dimension the exact rational kernel of the Laplacian acting on
    homogeneous monomials.  Computed once per (ndim, degree).
    """
    if degree == 0:
        return (Polynomial.constant(ndim, 1),)
    if ndim == 2:
        re, im = {}, {}
        for k in range(degree + 1):
            # C(d, k) x^(d-k) (i y)^k, and i^k runs through 1, i, -1, -i
            (im if k % 2 else re)[(degree - k, k)] = comb(degree, k) * (-1) ** (k // 2)
        return (Polynomial(2, re), Polynomial(2, im))
    monos = _monomials(ndim, degree)
    target = _monomials(ndim, degree - 2) if degree >= 2 else []
    if not target:
        return tuple(Polynomial(ndim, {m: 1}) for m in monos)
    row_of = {m: i for i, m in enumerate(target)}
    cols = [
        {
            row_of[m[:i] + (m[i] - 2,) + m[i + 1:]]: Fraction(m[i] * (m[i] - 1))
            for i in range(ndim)
            if m[i] >= 2
        }
        for m in monos
    ]
    kernel = _rational_kernel(cols, len(target))
    return tuple(
        Polynomial(ndim, {m: c for m, c in zip(monos, vec) if c}) for vec in kernel
    )


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


def check_ring(ndim, degree):
    """Raise InvalidSpec unless N = ndim and degree are at least 2 and their
    ring spans at most MAX_RING_SIZE monomials, C(N + degree, degree)."""
    # that count exceeds N and degree, so comb only sees small ints
    if not (2 <= min(ndim, degree) and max(ndim, degree) < MAX_RING_SIZE
            and comb(ndim + degree, degree) <= MAX_RING_SIZE):
        raise InvalidSpec(f"need N, degree >= 2 and C(N + degree, degree) <= "
                          f"{MAX_RING_SIZE}, got N = {ndim} and degree {degree}")


def random_torsion_polynomial(ndim, degree, seed) -> Polynomial:
    """|x|^2/2 plus a random harmonic polynomial with degrees 1..degree.

    Sparse rational coefficients, deterministic in the seed; the symbolic
    Laplacian is verified to equal the dimension before returning.
    """
    check_ring(ndim, degree)
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
    ub = Polynomial(nv, {(0,) * ndim + (1,): 1})   # the free boundary-maximum symbol

    gu = U.gradient(ndim)
    gv = V.gradient(ndim)
    fu = ub - U                          # (ubar - u)
    guu = dot(gu, gu)                    # |grad u|^2
    half_guu = HALF * guu
    gvu = dot(gv, gu)                    # <grad v, grad u>
    P = half_guu + fu
    gP = P.gradient(ndim)

    # <H v grad u, grad u>, with the rows of H v the gradients of grad v
    hess_v_gu = dot([dot(row.gradient(ndim), gu) for row in gv], gu)
    lhs = fu * divergence(gP, ndim) + guu - hess_v_gu

    # the two fluxes above, summed and grouped by their factors gu, gv and fu
    p_gvu = P - gvu
    flux = [
        p_gvu * gu[i] + half_guu * gv[i]
        + fu * (gP[i] + (ndim - 1) * gu[i] - ndim * gv[i])
        for i in range(ndim)
    ]
    rhs = divergence(flux, ndim)

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


def check_pfunction_identity(u):
    """Residual of Laplacian(P) = |H u|^2 - N for P = |grad u|^2/2 - u.

    Must be the zero polynomial for every constant-source field.
    """
    ndim = u.nvars
    _require_torsion(u, ndim)
    g = u.gradient(ndim)
    P = HALF * dot(g, g) - u
    return P.laplacian(ndim) - delta_p(u)


def delta_p(u):
    """|H u|^2 - N, the quadratic-radiality detector."""
    ndim = u.nvars
    hess = [d for g in u.gradient(ndim) for d in g.gradient(ndim)]
    return dot(hess, hess) - ndim


def random_rational_points(ndim, count, seed):
    rng = random.Random(f"points|{seed}|{ndim}")
    return [
        tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(ndim))
        for _ in range(count)
    ]


def identity_case_table(dims, degree, cases, seed0=0):
    """Pass/fail rows for the CLI: both symbolic identities per random pair."""
    if cases < 1:
        raise InvalidSpec(f"need at least one case per dimension, got {cases}")
    for ndim in dims:
        check_ring(ndim, degree)
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
