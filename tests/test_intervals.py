"""Scalar interval arithmetic: outward rounding, elementary functions, and
exhaustive containment sampling against exact rational arithmetic."""

import functools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobemb.errors import DivisionByZeroInterval, OverflowError_
from sobemb.intervals import (
    PI,
    Interval,
    _div_dir,
    _mul_dir,
    iv_exp,
    iv_ln,
    iv_pow_int,
    iv_pow_real,
    iv_sin,
    iv_sqrt,
)
from sobemb.ivarray import _RAD_FLOOR, _TINY, IArray, _dn, _gamma_fac, _up, ildexp, imatmul, isum

from _oracles import iv_cos


def test_point_interval_and_ordering():
    iv = Interval(1.5)
    assert iv.lo == iv.hi == 1.5
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(OverflowError_):
        Interval(math.inf)


def test_pi_contains_reference():
    # [TRIVIAL] first 17 digits of pi
    assert PI.contains(3.14159265358979323846 % 4.0)
    assert PI.width() <= 1e-15


def test_pi_squared_contains_oracle():
    # [DERIVED] high-precision oracle for pi^2 = 9.8696044010893586...
    sq = PI * PI
    assert sq.contains(9.8696044010893586)


def test_sqrt_exact_and_outward():
    assert iv_sqrt(Interval(4.0)) == Interval(2.0)  # exact square
    s = iv_sqrt(Interval(2.0))
    # [TRIVIAL] sqrt(2) = 1.41421356237309504880...
    assert s.contains(1.4142135623730951)
    assert s.lo <= 1.4142135623730950 <= s.hi
    with pytest.raises(Exception):
        iv_sqrt(Interval(-1.0, -0.5))


def test_division_by_zero_interval_raises():
    with pytest.raises(DivisionByZeroInterval):
        Interval(1.0) / Interval(-1.0, 1.0)


def test_exp_ln_roundtrip_contains_identity():
    for x in (0.1, 1.0, 2.5, 10.0):
        assert iv_ln(iv_exp(Interval(x))).contains(x)


def test_sin_cos_basics():
    assert iv_sin(Interval(0.0)).contains(0.0)
    assert iv_cos(Interval(0.0)).contains(1.0)
    # sin over an interval containing pi/2 must reach up to 1
    s = iv_sin(Interval(1.0, 2.0))
    assert s.hi >= 1.0
    assert iv_sin(PI).contains(0.0)


def test_pow_int_even_odd():
    assert iv_pow_int(Interval(-2.0, 3.0), 2).contains(0.0)
    assert iv_pow_int(Interval(-2.0, 3.0), 2).contains(9.0)
    assert iv_pow_int(Interval(-2.0, 3.0), 3).contains(-8.0)
    assert iv_pow_int(Interval(2.0), 10).contains(1024.0)


def test_pow_real_matches_pow_int_on_integers():
    a = Interval(0.3, 1.7)
    pi3 = iv_pow_int(a, 3)
    pr3 = iv_pow_real(a, Interval(3.0))
    assert pr3.lo <= pi3.hi and pi3.lo <= pr3.hi  # both contain a^3


def test_elem_dispatch():
    assert iv_sqrt(Interval(9.0)).contains(3.0)
    assert iv_pow_int(Interval(3.0), 2).contains(9.0)


# -- property suite: containment under exact rational arithmetic ------------------

_finite = st.floats(
    min_value=-1e8, max_value=1e8, allow_nan=False, allow_infinity=False
)


def _iv(lo, width):
    return Interval(lo, lo + abs(width))


@settings(max_examples=2500, deadline=None)
@given(_finite, st.floats(0, 10), _finite, st.floats(0, 10),
       st.sampled_from(["add", "sub", "mul"]),
       st.floats(0, 1), st.floats(0, 1))
def test_containment_arith(a_lo, a_w, b_lo, b_w, op, ta, tb):
    """10^4-scale sampling: op of exact rationals chosen inside the operand
    intervals is contained in the interval result."""
    a, b = _iv(a_lo, a_w), _iv(b_lo, b_w)
    xa = Fraction(a.lo) + Fraction(ta) * (Fraction(a.hi) - Fraction(a.lo))
    xb = Fraction(b.lo) + Fraction(tb) * (Fraction(b.hi) - Fraction(b.lo))
    exact = {"add": xa + xb, "sub": xa - xb, "mul": xa * xb}[op]
    out = {"add": a + b, "sub": a - b, "mul": a * b}[op]
    assert Fraction(out.lo) <= exact <= Fraction(out.hi)


@settings(max_examples=2500, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6), st.floats(0, 10),
       st.floats(min_value=-1e6, max_value=1e6), st.floats(0, 10),
       st.floats(0, 1), st.floats(0, 1))
def test_containment_div(a_lo, a_w, b_lo, b_w, ta, tb):
    b = _iv(b_lo, b_w)
    if b.lo <= 0.0 <= b.hi or abs(b).mig() < 1e-3:
        # shift away from 0; mig <= mag keeps the replacement well-formed
        b = Interval(b.mig() + 1.0, b.mag() + 2.0)
    a = _iv(a_lo, a_w)
    xa = Fraction(a.lo) + Fraction(ta) * (Fraction(a.hi) - Fraction(a.lo))
    xb = Fraction(b.lo) + Fraction(tb) * (Fraction(b.hi) - Fraction(b.lo))
    out = a / b
    exact = xa / xb
    assert Fraction(out.lo) <= exact <= Fraction(out.hi)


@settings(max_examples=2500, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e12), st.floats(0, 100),
       st.floats(0, 1))
def test_containment_sqrt(lo, w, t):
    a = _iv(lo, w)
    x = Fraction(a.lo) + Fraction(t) * (Fraction(a.hi) - Fraction(a.lo))
    out = iv_sqrt(a)
    # compare squares to stay in exact arithmetic
    assert Fraction(out.lo) ** 2 <= x
    assert x <= Fraction(out.hi) ** 2


@settings(max_examples=2500, deadline=None)
@given(st.integers(-8, 8), st.floats(min_value=-50, max_value=50),
       st.floats(0, 5), st.floats(0, 1))
def test_containment_pow_int(k, lo, w, t):
    a = _iv(lo, w)
    x = Fraction(a.lo) + Fraction(t) * (Fraction(a.hi) - Fraction(a.lo))
    if k < 0 and (a.lo <= 0.0 <= a.hi or a.mig() < 1e-3):
        return
    out = iv_pow_int(a, k)
    exact = x ** k if (k >= 0 or x != 0) else None
    if exact is not None:
        assert Fraction(out.lo) <= exact <= Fraction(out.hi)


def test_exact_products_stay_thin():
    assert Interval(3.0) * Interval(3.0) == Interval(9.0)
    assert Interval(-0.5) * Interval(6.0) == Interval(-3.0)
    # an inexact product is widened on one side only
    p = Interval(0.1) * Interval(0.1)
    assert p.hi == 0.1 * 0.1 or p.lo == 0.1 * 0.1
    # an underflowing same-sign product stays >= 0, so its root exists
    tiny = Interval(1e-200) * Interval(1e-200)
    assert tiny.lo == 0.0 < tiny.hi
    assert iv_sqrt(tiny + tiny).lo == 0.0
    assert (Interval(-1e-200) * Interval(1e-200)).hi == 0.0


_any_float = st.floats(allow_nan=False, allow_infinity=False,
                       min_value=-1e300, max_value=1e300)


@settings(max_examples=2000, deadline=None)
@given(_any_float, _any_float)
def test_scalar_product_against_fraction(x, y):
    """The product of point intervals encloses the exact rational product,
    is a point when the float product is exact (within TwoProduct's range:
    no factor beyond 2^995, no product below 2^-900), and never crosses
    zero against the sign of its factors."""
    try:
        out = Interval(x) * Interval(y)
    except OverflowError_:
        return
    exact = Fraction(x) * Fraction(y)
    assert Fraction(out.lo) <= exact <= Fraction(out.hi)
    in_range = abs(x * y) >= 2.0 ** -900 and max(abs(x), abs(y)) < 2.0 ** 995
    if in_range and Fraction(x * y) == exact:
        assert out.lo == out.hi
    if x != 0 and y != 0:
        if (x > 0) == (y > 0):
            assert out.lo >= 0.0
        else:
            assert out.hi <= 0.0


_endpoint = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, 0.1, 2.0 ** 995, -(2.0 ** 995 - 2.0 ** 942),
                     2.0 ** -900, 1e-300, 5e-324, -5e-324]),
    _any_float)


@settings(max_examples=2000, deadline=None)
@given(_endpoint, _endpoint, _endpoint, _endpoint, st.booleans(), st.booleans())
def test_sign_cases_give_the_four_product_bits(a, b, c, d, thin_x, thin_y):
    """Interval * and / form only the endpoint products (quotients) that
    decide the result, by the signs of the endpoints; directed rounding is
    monotone, so both ends equal those of the min and max over all four, on
    thin, zero, signed-zero and zero-straddling intervals alike, and so do
    the raised errors."""
    x = Interval(*sorted((a, a if thin_x else b)))
    y = Interval(*sorted((c, c if thin_y else d)))
    for op, f in ((lambda s, t: s * t, _mul_dir), (lambda s, t: s / t, _div_dir)):
        try:
            got = op(x, y)
        except (OverflowError_, DivisionByZeroInterval) as exc:
            got = type(exc)
        try:
            if f is _div_dir and y.lo <= 0.0 <= y.hi:
                raise DivisionByZeroInterval("denominator contains 0")
            ends = [f(s, t) for s in (x.lo, x.hi) for t in (y.lo, y.hi)]
            want = Interval(min(e[0] for e in ends), max(e[1] for e in ends))
        except (OverflowError_, DivisionByZeroInterval) as exc:
            want = type(exc)
        assert got == want, (x, y)


@settings(max_examples=500, deadline=None)
@given(st.integers(-2 ** 26, 2 ** 26), st.integers(-2 ** 26, 2 ** 26),
       st.integers(-60, 60))
def test_products_of_short_mantissas_are_exact(a, b, e):
    """Factors with at most 27 significant bits multiply exactly in binary64,
    so their interval product is the exact point."""
    x, y = math.ldexp(a, e), math.ldexp(b, -e // 2)
    out = Interval(x) * Interval(y)
    assert out.lo == out.hi == x * y
    assert Fraction(out.lo) == Fraction(x) * Fraction(y)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-1e300, max_value=1e300, allow_nan=False))
def test_isum_counts_only_nonzero_terms(x):
    """Adding exact zeros rounds nothing: one float among 10^6 zeros sums to
    an enclosure at most 4 ulps wide (the count-all bound is about 10^6
    ulps)."""
    a = np.zeros(10 ** 6)
    a[123_457] = x
    s = isum(IArray(a))
    assert s.lo <= x <= s.hi
    assert s.hi - s.lo <= 4.0 * math.ulp(x)


# m 2^e with |m| < 2^53 is a float for every e >= -1074: subnormals at the
# bottom, 2^1000 at the top; hypothesis' own floats add the edge values
_term = st.one_of(
    st.builds(math.ldexp, st.integers(-(2 ** 53) + 1, 2 ** 53 - 1), st.integers(-1074, 947)),
    st.floats(min_value=-(2.0 ** 1000), max_value=2.0 ** 1000, allow_nan=False))


@st.composite
def _sums(draw):
    """Up to 40 terms, some of them joined by their negatives, so that the
    large terms cancel and the small ones decide the sum."""
    xs = draw(st.lists(_term, max_size=40))
    if xs:
        xs += [-v for v in draw(st.lists(st.sampled_from(xs), max_size=len(xs)))]
    return draw(st.permutations(xs))


@settings(max_examples=1000, deadline=None)
@given(_sums())
def test_fsum_is_correctly_rounded_on_host(xs):
    """The premise of `isum` (see `intervals`): math.fsum rounds the exact
    sum to the nearest float."""
    assert math.fsum(xs) == float(sum(map(Fraction, xs)))


@settings(max_examples=500, deadline=None)
@given(_sums())
def test_isum_rounds_the_exact_sum_outward(xs):
    """isum of a thin array encloses the exact rational sum, each end at most
    one ulp outside it (the nearest float on its side), and it is thin
    exactly when that sum is a float."""
    exact = sum(map(Fraction, xs))
    s = isum(IArray(np.array(xs, dtype=np.float64)))
    assert Fraction(s.lo) <= exact <= Fraction(s.hi)
    assert Fraction(math.nextafter(s.lo, math.inf)) > exact
    assert Fraction(math.nextafter(s.hi, -math.inf)) < exact
    assert (s.lo == s.hi) == (Fraction(float(exact)) == exact)


@pytest.mark.parametrize("xs", [[2.0 ** 1023, 2.0 ** 1023],
                                [2.0 ** 1023, 2.0 ** 1023, -(2.0 ** 1023)]])
def test_isum_overflow_is_typed(xs):
    """A partial sum beyond the float range is an OverflowError_, even where
    later terms would bring the sum back."""
    with pytest.raises(OverflowError_):
        isum(IArray(np.array(xs)))


_HUGE = IArray(np.array([1e308, -1e308]))


@pytest.mark.parametrize("op", [
    lambda: _HUGE + _HUGE,
    lambda: _HUGE * _HUGE,
    lambda: _HUGE / IArray(1e-300),
    lambda: _HUGE.square(),
    lambda: imatmul(IArray(np.full((2, 2), 1e300)), IArray(np.array([[1e300], [-1e300]]))),
    lambda: ildexp(_HUGE, 100),
], ids=["add", "mul", "truediv", "square", "imatmul", "ildexp"])
def test_array_overflow_is_typed(op):
    """An IArray endpoint that leaves binary64 is an OverflowError_, not a
    numpy RuntimeWarning (an error in this suite), for every operation that
    can overflow; in the matrix product inf - inf gives nan, caught too."""
    with pytest.raises(OverflowError_):
        op()


def _imatmul_expression(a, b):
    """imatmul as one expression with a fresh array per step: the oracle for
    the in-place version."""
    am, ar = a.mid(), a.rad()
    bm, br = b.mid(), b.rad()
    ar = np.where((ar != 0.0) & (ar < _RAD_FLOOR), _RAD_FLOOR, ar)
    br = np.where((br != 0.0) & (br < _RAD_FLOOR), _RAD_FLOOR, br)
    g = _gamma_fac(am.shape[-1])
    cm = am @ bm
    abs_am, abs_bm = np.abs(am), np.abs(bm)
    p = abs_am @ abs_bm
    a_thin, b_thin = not ar.any(), not br.any()
    if a_thin and b_thin:
        rad = g * p
    elif b_thin:
        rad = ar @ abs_bm + g * p
    elif a_thin:
        rad = abs_am @ br + g * p
    else:
        rad = ar @ (abs_bm + br) + abs_am @ br + g * p
    rad = _up(rad * (1.0 + 6.0 * g) + g * p * g + 4.0 * _TINY)
    return IArray(_dn(cm - rad), _up(cm + rad))


def _operand(rng, shape, kind, order):
    """A random interval matrix of magnitudes 2^-30..2^30: thin; thick, with
    relative radii of 2^-52..2^-30 (about gamma_k, so no radius term
    swamps the others) on every other row and of an ulp on the rest; or
    that thick matrix with entries of about 1e-230, radii below _RAD_FLOOR,
    on a third of the rows and a third of the columns, so that some rows and
    columns of a product are theirs."""
    m = rng.standard_normal(shape) * 2.0 ** rng.integers(-30, 30, shape)
    lo, hi = m.copy(), m.copy()
    if kind != "thin":
        r = np.abs(m) * 2.0 ** rng.integers(-52, -30, shape) * rng.random(shape)
        r[::2] = 0.0
        lo, hi = _dn(m - r), _up(m + r)
    if kind == "tiny":
        tiny = (rng.random((shape[0], 1)) < 1.0 / 3.0) | (rng.random(shape[1]) < 1.0 / 3.0)
        lo[tiny] = 1e-230 * rng.random(np.count_nonzero(tiny))
        hi[tiny] = lo[tiny] * 3.0
    return IArray(np.asarray(lo, order=order), np.asarray(hi, order=order))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("ka, kb", [(x, y) for x in ("thin", "thick", "tiny")
                                    for y in ("thin", "thick", "tiny")])
def test_imatmul_matches_its_expression(ka, kb, order):
    """imatmul, which takes magnitudes and sums the radius in place, gives
    bit for bit the endpoints of the expression it replaces, on thin and
    thick operands, radii below _RAD_FLOOR, C- and F-ordered operands and a
    product whose midpoint cancels, and leaves its operands as they were."""
    rng = np.random.default_rng(7)
    for shape_a, shape_b in (((7, 5), (5, 4)), ((1, 9), (9, 1)), ((40, 30), (30, 20))):
        a, b = _operand(rng, shape_a, ka, order), _operand(rng, shape_b, kb, order)
        assert a.rad().any() == (ka != "thin") and b.rad().any() == (kb != "thin")
        # [A, -A] [B; B] has midpoint about 0, so its endpoints show every bit
        # of the radius, which cm +- rad rounds away elsewhere
        stack = functools.partial(np.asarray, order=order)
        zero = (IArray(stack(np.hstack([a.lo, -a.hi])), stack(np.hstack([a.hi, -a.lo]))),
                IArray(stack(np.vstack([b.lo, b.lo])), stack(np.vstack([b.hi, b.hi]))))
        for x, y in ((a, b), zero):
            before = [v.copy() for v in (x.lo, x.hi, y.lo, y.hi)]
            got, ref = imatmul(x, y), _imatmul_expression(x, y)
            assert np.array_equal(got.lo, ref.lo) and np.array_equal(got.hi, ref.hi)
            assert all(np.array_equal(v, w) for v, w in zip(before, (x.lo, x.hi, y.lo, y.hi)))


def test_array_products_widen_and_zero_factor_is_exact():
    """A product by a thin factor, a power of two or not, is widened around
    the rounded product and encloses the exact one; a factor exactly [0, 0]
    gives exactly [0, 0], whatever the other factor."""
    three = IArray(np.array([0.1])) * IArray(3.0)
    assert three.lo[0] < 0.1 * 3.0 < three.hi[0]
    x = IArray(np.array([0.1, -3.0, 0.0, -1e300]), np.array([0.2, 5.0, 0.0, 1e300]))
    four = x * IArray(4.0)
    for lo, hi, a, b in zip(four.lo, four.hi, x.lo, x.hi):
        assert Fraction(float(lo)) <= 4 * Fraction(float(a))
        assert 4 * Fraction(float(b)) <= Fraction(float(hi))
    assert four.lo[2] == four.hi[2] == 0.0
    for zero in (IArray(0.0) * x, x * IArray(np.zeros(4))):
        assert not zero.lo.any() and not zero.hi.any()


@given(st.floats(min_value=-1e300, max_value=1e300), st.floats(0, 1e300),
       st.integers(-2200, 2200))
def test_ildexp_encloses_and_is_exact_where_normal(lo, w, k):
    """ildexp(a, k) encloses 2^k a in rationals, entry by entry, has exactly
    its endpoints where they are normal floats, and leaving binary64 is an
    OverflowError_ with no RuntimeWarning."""
    hi = lo + w if math.isfinite(lo + w) else lo
    a = IArray([lo, -hi], [hi, -lo])
    exact = [Fraction(x) * Fraction(2) ** k for x in (lo, hi)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            r = ildexp(a, k)
        except OverflowError_:
            assert max(abs(x) for x in exact) > Fraction(np.finfo(np.float64).max)
            return
    for ends, want in zip(zip(r.lo, r.hi), (exact, [-exact[1], -exact[0]])):
        assert Fraction(ends[0]) <= want[0] and want[1] <= Fraction(ends[1])
        for end, x in zip(ends, want):
            if abs(x) >= Fraction(np.finfo(np.float64).tiny):
                assert Fraction(end) == x
