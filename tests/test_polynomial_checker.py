import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serrinlab import polycheck
from serrinlab.errors import InvalidSpec, NotTorsionPolynomial
from serrinlab.polycheck import (
    EXP_BITS,
    EXP_MASK,
    Polynomial,
    check_differential_identity,
    check_pfunction_identity,
    check_ring,
    delta_p,
    harmonic_basis,
    identity_case_table,
    quadratic_core,
    random_rational_points,
    random_torsion_polynomial,
)


def _in_span(p, basis):
    """p equals the combination of the basis whose weights are p's
    coefficients on the basis' leading monomials (x_1-exponent <= 1)."""
    lead = {m: c for m, c in p.terms.items() if m[0] <= 1}
    combo = Polynomial(p.nvars)
    for b in basis:
        (m,) = (m for m in b.terms if m[0] <= 1)
        combo = combo + b * lead.get(m, 0)
    return combo == p


def test_harmonic_basis_plane():
    # degree 2 in the plane: xy and y^2 - x^2, which span x^2 - y^2 and 2xy
    basis = harmonic_basis(2, 2)
    assert [b.terms for b in basis] == [{(1, 1): 1}, {(0, 2): 1, (2, 0): -1}]
    assert _in_span(Polynomial(2, {(2, 0): 1, (0, 2): -1}), basis)
    assert _in_span(Polynomial(2, {(1, 1): 2}), basis)
    assert not _in_span(Polynomial(2, {(2, 0): 1}), basis)


def test_harmonic_basis_properties():
    for ndim in range(2, 9):
        for degree in range(7):
            basis = harmonic_basis(ndim, degree)
            assert all(b.laplacian(ndim).is_zero() for b in basis)
            expect = math.comb(ndim + degree - 1, degree) - (
                math.comb(ndim + degree - 3, degree - 2) if degree >= 2 else 0
            )
            assert len(basis) == expect
            # independent: each element's one term of x_1-exponent <= 1 is its
            # leading monomial, with coefficient 1, and no two share it
            leads = [[(m, c) for m, c in b.terms.items() if m[0] <= 1] for b in basis]
            assert all(len(low) == 1 and low[0][1] == 1 for low in leads)
            assert len({low[0][0] for low in leads}) == len(basis)
    for degree in range(1, 7):
        # Re and Im of (x + i y)^d: C(d, k) x^(d-k) (i y)^k
        re, im = {}, {}
        for k in range(degree + 1):
            part = im if k % 2 else re
            part[(degree - k, k)] = math.comb(degree, k) * (-1) ** (k // 2)
        for p in (re, im):
            assert _in_span(Polynomial(2, p), harmonic_basis(2, degree))


@pytest.mark.parametrize("ndim,degree", [(3, 2), (3, 4), (4, 3), (5, 4), (8, 2)])
def test_harmonic_basis_dimension_count(ndim, degree):
    basis = harmonic_basis(ndim, degree)
    for b in basis:
        assert b.laplacian(ndim).is_zero()

    def homdim(n, d):
        out = 1
        for i in range(n - 1):
            out = out * (d + 1 + i) // (i + 1)
        return out

    expect = homdim(ndim, degree) - (homdim(ndim, degree - 2) if degree >= 2 else 0)
    assert len(basis) == expect


@pytest.mark.parametrize("ndim,degree,seed", [(2, 2, 0), (3, 3, 7), (5, 2, 1)])
def test_random_torsion_laplacian(ndim, degree, seed):
    u = random_torsion_polynomial(ndim, degree, seed)
    assert (u.laplacian(ndim) - ndim).is_zero()


def test_ring_beyond_cap_is_rejected_before_any_polynomial(monkeypatch):
    built = []
    monkeypatch.setattr(polycheck, "random_torsion_polynomial",
                        lambda *args: built.append(args))
    with pytest.raises(InvalidSpec):
        identity_case_table([2, 9], 4, 1)   # C(13, 4) = 715 monomials at N = 9
    with pytest.raises(InvalidSpec):
        identity_case_table([2, 3], 2, 5_001)   # 10,002 rows, MAX_CASES + 2
    assert built == []
    check_ring(8, 4)   # C(12, 4) = 495, the largest ring the README runs


def test_pfunction_identity_paraboloid():
    u = quadratic_core(3)
    assert check_pfunction_identity(u).is_zero()
    assert delta_p(u).is_zero()


def test_pfunction_identity_hand_case():
    # u = (x^2 + y^2)/2 + xy: |H|^2 = 4, so dP is the constant 2
    u = quadratic_core(2) + Polynomial(2, {(1, 1): 1})
    assert check_pfunction_identity(u).is_zero()
    dp = delta_p(u)
    assert dp.terms == {(0, 0): 2}


def test_differential_identity_pure_quadratic():
    u = quadratic_core(2)
    residual, _ = check_differential_identity(u, u, Fraction(10))
    assert residual.is_zero()


def test_differential_identity_shifted_paraboloid():
    u = quadratic_core(2) + Polynomial(2, {(2, 0): 1, (0, 2): -1})
    z = (Fraction(1), Fraction(2))
    v = (
        quadratic_core(2)
        - Polynomial(2, {(1, 0): z[0], (0, 1): z[1]})
        + Polynomial.constant(2, HALF := Fraction(1, 2) * (z[0] ** 2 + z[1] ** 2))
    )
    assert (v.laplacian(2) - 2).is_zero()
    residual, worst = check_differential_identity(
        u, v, Fraction(10), random_rational_points(2, 4, 3)
    )
    assert residual.is_zero()
    assert worst.residual == 0


@pytest.mark.parametrize("ndim", [2, 3, 4, 5])
def test_differential_identity_random_pairs(ndim):
    for case in range(6):
        u = random_torsion_polynomial(ndim, min(4, ndim + 1), case)
        v = random_torsion_polynomial(ndim, 3, 100 + case)
        residual, worst = check_differential_identity(
            u, v, Fraction(11, 7), random_rational_points(ndim, 2, case)
        )
        assert residual.is_zero()
        assert worst.residual == 0
        assert check_pfunction_identity(u).is_zero()


def test_delta_p_nonnegative_at_points():
    for ndim in (2, 3, 4):
        for case in range(5):
            u = random_torsion_polynomial(ndim, 4, 50 + case)
            dp = delta_p(u)
            for pt in random_rational_points(ndim, 6, case):
                assert dp.evaluate(pt) >= 0


def is_quadratic_radial(u):
    """True when the Hessian is the identity, i.e. u - |x-z|^2/2 is affine."""
    ndim = u.nvars
    return all(
        (d - int(i == j)).is_zero()
        for i, g in enumerate(u.gradient(ndim))
        for j, d in enumerate(g.gradient(ndim))
    )


def test_quadratic_rigidity():
    # affine-plus-core fields have identically zero dP and unit Hessian
    u = quadratic_core(3) + Polynomial(3, {(1, 0, 0): Fraction(3, 2)}) + 4
    assert delta_p(u).is_zero()
    assert is_quadratic_radial(u)
    w = random_torsion_polynomial(3, 3, 2)
    if not delta_p(w).is_zero():
        assert not is_quadratic_radial(w)


def test_rejects_non_torsion():
    bad = Polynomial(2, {(2, 0): 1})  # Laplacian 2 != ... wait: = 2; use cubic
    bad = Polynomial(2, {(3, 0): 1})
    with pytest.raises(NotTorsionPolynomial):
        check_pfunction_identity(bad)
    with pytest.raises(NotTorsionPolynomial):
        check_differential_identity(bad, quadratic_core(2))


_coef = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def _ring_case(draw):
    """Two polynomials in 2-3 variables and a rational point."""
    nvars = draw(st.integers(2, 3))
    mono = st.tuples(*[st.integers(0, 3)] * nvars)
    poly = st.dictionaries(mono, _coef, max_size=6).map(lambda t: Polynomial(nvars, t))
    return nvars, draw(poly), draw(poly), draw(st.tuples(*[_coef] * nvars))


def _reference_value(terms, x):
    """Term-by-term Fraction value of {exponent tuple: coefficient} at x."""
    total = Fraction(0)
    for mono, c in terms.items():
        term = Fraction(c)
        for xi, p in zip(x, mono, strict=True):
            term *= Fraction(xi) ** p
        total += term
    return total


def _assert_canonical(r):
    assert r.den >= 1
    assert all(c != 0 for c in r.num.values())
    assert math.gcd(r.den, *r.num.values()) == 1
    assert all(isinstance(c, int) for c in r.num.values())


@settings(max_examples=60)
@given(_ring_case())
def test_polynomial_ring_laws(case):
    nvars, p, q, x = case
    px, qx = p.evaluate(x), q.evaluate(x)
    assert (p + q).evaluate(x) == px + qx
    assert (p - q).evaluate(x) == px - qx
    assert (p * q).evaluate(x) == px * qx
    assert (p - p).is_zero()
    results = [p, q, p + q, p - q, p * q, p - p, -p, p * Fraction(-2, 3), p + 1, 3 * p]
    for i in range(nvars):
        lhs = (p * q).diff(i)
        assert lhs == p.diff(i) * q + p * q.diff(i)
        results.extend([lhs, p.diff(i)])
    results.append(p.pad(nvars + 1))
    for r in results:
        _assert_canonical(r)
        point = x + (Fraction(5, 3),) * (r.nvars - nvars)
        assert r.evaluate(point) == _reference_value(r.terms, point)


@settings(max_examples=60)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.dictionaries(st.tuples(*[st.integers(0, 4)] * n), _coef, max_size=6),
    st.tuples(*[_coef] * n),
)))
def test_stored_form_matches_given_coefficients(case):
    nvars, raw, x = case
    p = Polynomial(nvars, raw)
    _assert_canonical(p)
    assert p.terms == {m: c for m, c in raw.items() if c}
    assert p.evaluate(x) == _reference_value(raw, x)


def test_canonical_form_cancels_common_factors():
    p = Polynomial(2, {(2, 0): Fraction(1, 2), (0, 2): Fraction(3, 4)})
    assert (p.num, p.den) == ({(2, 0): 2, (0, 2): 3}, 4)
    # d/dx (x^2/2) = x: the exponent cancels the denominator
    assert p.diff(0) == Polynomial(2, {(1, 0): 1})
    assert p.diff(0).den == 1
    half = Polynomial(2, {(0, 0): Fraction(1, 2)})
    assert (half + half).den == 1
    assert (p - p).den == 1


def test_evaluate_rejects_short_point():
    with pytest.raises(InvalidSpec):
        Polynomial(2, {(1, 1): 3}).evaluate((2,))


def test_evaluate_rejects_long_point():
    with pytest.raises(InvalidSpec):
        Polynomial(2, {(1, 1): 3}).evaluate((2, 5, 7))


def test_rejects_monomial_of_wrong_length():
    with pytest.raises(InvalidSpec):
        Polynomial(2, {(1, 0, 0): 1})


@pytest.mark.parametrize(
    "mono", [(-1, 0), (1.5, 0), (True, 0), (0, 1 << EXP_BITS)],
    ids=["negative", "non-integer", "bool", "too-wide"],
)
def test_rejects_invalid_exponent(mono):
    # a negative exponent would borrow from the next packed field
    with pytest.raises(InvalidSpec):
        Polynomial(2, {mono: 1})


def test_product_exponent_bound():
    half = 1 << (EXP_BITS - 1)
    p = Polynomial(2, {(half, 0): 1}) * Polynomial(2, {(half - 1, 0): 1})
    assert p.terms == {(EXP_MASK, 0): 1}
    # one more would carry into the field of the next variable
    with pytest.raises(InvalidSpec):
        p * Polynomial(2, {(1, 0): 1})


def _reference_product(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(x + y for x, y in zip(m1, m2, strict=True))
            out[mono] = out.get(mono, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _reference_sum(a, b):
    out = dict(a)
    for mono, c in b.items():
        out[mono] = out.get(mono, 0) + c
    return {m: c for m, c in out.items() if c}


def _reference_diff(a, i):
    return {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i] for m, c in a.items() if m[i]}


@st.composite
def _expansion_case(draw):
    """Two polynomials as {exponent tuple: coefficient}, in 1-3 variables or
    in the 31 of a wide ring; exponents near half the field width make the
    product fill its fields up to the top bit."""
    nvars = draw(st.sampled_from([1, 2, 3, 31]))
    exp = st.one_of(st.integers(0, 3), st.integers(EXP_MASK // 2 - 2, EXP_MASK // 2))
    poly = st.dictionaries(st.tuples(*[exp] * nvars), _coef, max_size=5)
    return nvars, draw(poly), draw(poly)


@settings(max_examples=60)
@given(_expansion_case())
def test_expansion_matches_tuple_reference(case):
    nvars, a, b = case
    p, q = Polynomial(nvars, a), Polynomial(nvars, b)
    a = {m: c for m, c in a.items() if c}
    b = {m: c for m, c in b.items() if c}
    assert (p.terms, q.terms) == (a, b)
    assert (p * q).terms == _reference_product(a, b)
    assert (p + q).terms == _reference_sum(a, b)
    for i in range(nvars):
        assert p.diff(i).terms == _reference_diff(a, i)
    padded = p.pad(nvars + 1)
    assert padded.terms == {m + (0,): c for m, c in a.items()}
    assert padded.diff(nvars).is_zero()
