"""Rigorous tensor trig series: evaluation, norms, exact powers, pointwise
bounds, and boundary factorization, validated against closed-form values,
high-precision mpmath oracles, and dense floating-point sampling."""

import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobemb import series
from sobemb.errors import CapacityError, DomainError, OverflowError_
from sobemb.intervals import Interval, iv_pow_int
from sobemb.ivarray import IArray, _dn, _gamma_fac, _up
from sobemb.series import (
    _EPS_LD,
    _POWER_SPLIT,
    _SLICE_BITS,
    COS,
    SIN,
    DomainRect,
    Series2D,
    SineSeries2D,
    _axis_overlap,
    _axis_scale,
    _extension,
    _iv_root,
    _modes,
    _slice_width,
    _slices,
    factor_boundary,
    lp_norm,
    multiply,
    negative_part_sup,
    power_expand,
)
from sobemb.solver import SolverConfig, initial_guess, newton_solve

from _oracles import intersects

SQ = DomainRect(1.0, 1.0)


def _one_mode(a=1.0, domain=SQ):
    c = np.zeros((1, 1))
    c[0, 0] = a
    return SineSeries2D(domain, c)


def _seeded_series(n, seed, scale=1.0, domain=SQ):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(n, n)) * scale / (1.0 + np.add.outer(np.arange(n), np.arange(n)))
    return SineSeries2D(domain, c)


# -- Dirichlet eigenvalues -------------------------------------------------------

_RECTS = {"square": SQ, "2x1": DomainRect(2.0, 1.0), "1.5x1": DomainRect(1.5, 1.0),
          "3x0.4": DomainRect(3.0, 0.4), "1e-150 ref": DomainRect(1e-150, 1e-150).reference()[1]}


@pytest.mark.parametrize("sides", [
    *((L, L) for L in (5e-324, 1e-310, 2.0 ** -1022, 1e-200, 1e-150, 1e-3, 1.0, 1.5, 2.0,
                       1e150, 1e200, 1.7e308)),
    (4.0, 1.0), (1.0, 4.0), (3.0, 1.0), (1.3e154, 2.9e-154)])
def test_reference_rectangle_has_its_short_side_in_1_2(sides):
    """R = 2^-k Omega has its short side in [1, 2), so lambda_1(R) lies in
    (pi^2/4, 2 pi^2], and 2^k R is Omega exactly."""
    dom = DomainRect(*sides)
    k, ref = dom.reference()
    assert 1.0 <= min(ref.L1, ref.L2) < 2.0
    assert DomainRect(math.ldexp(ref.L1, k), math.ldexp(ref.L2, k)) == dom
    assert math.pi ** 2 / 4 < ref.lambda1.lo <= ref.lambda1.hi <= 2 * math.pi ** 2 * (1 + 1e-15)


def test_lambda_grid_where_a_sides_square_overflows():
    """On 1.5e154 x 2.5e-154, L1 L1 leaves binary64 and L2 L2 is subnormal,
    but lambda_i1, about 1.58e308, does not: lambda_grid encloses it for
    i = 1..3, on the rectangle and on its transpose.  lambda_i2, about
    6.3e308, leaves binary64: OverflowError_, with no RuntimeWarning."""
    thin = DomainRect(1.5e154, 2.5e-154)
    modes, one = np.arange(1, 4), np.arange(1, 2)
    columns = (thin.lambda_grid(modes, one)[:, 0],
               DomainRect(thin.L2, thin.L1).lambda_grid(one, modes)[0])
    with mpmath.workprec(200):
        for i in modes:
            exact = mpmath.pi ** 2 * (int(i) ** 2 / mpmath.mpf(thin.L1) ** 2
                                      + 1 / mpmath.mpf(thin.L2) ** 2)
            for lam in columns:
                assert mpmath.mpf(lam.lo[i - 1]) <= exact <= mpmath.mpf(lam.hi[i - 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError_):
            thin.lambda_grid(modes, modes)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble], ids=["float64", "longdouble"])
@pytest.mark.parametrize("dom", list(_RECTS.values()), ids=list(_RECTS))
def test_lambda_float_lies_in_lambda_grid(dom, dtype):
    """The float eigenvalues of the solver and the split-order scan lie
    within 4 ulps of the interval ones, for every mode up to 101."""
    modes = np.arange(1, 102)
    lam = dom.lambda_grid(modes, modes)
    lo, hi = lam.lo, lam.hi
    for _ in range(4):
        lo, hi = _dn(lo), _up(hi)
    f = dom.lambda_float(modes.reshape(-1, 1), modes.reshape(1, -1), dtype)
    assert f.dtype == dtype and f.shape == lam.shape
    assert np.all(lo <= f) and np.all(f <= hi)


# -- norms (closed-form oracles) -------------------------------------------------


def test_h01_norm_single_mode():
    # [DERIVED] |grad sin(pi x) sin(pi y)|_{L2}^2 = 2 pi^2 / 4, norm = pi/sqrt(2)
    n = _one_mode().h01_norm()
    assert n.contains(2.2214414690791831)
    assert n.width() < 1e-12


def test_l2_norm_single_mode():
    # [TRIVIAL] integral of sin^2 over (0,1) is 1/2 per dimension
    n = _one_mode().l2_norm()
    assert n.contains(0.5)
    assert n.width() < 1e-14


def test_l2_norm_scales_linearly():
    n = _one_mode(3.0).l2_norm()
    assert n.contains(1.5)


def test_h01_dominates_l2_poincare():
    # [DERIVED] Poincare: |u|_{L2} <= |grad u|_{L2} / sqrt(lambda_1)
    for seed in (0, 5, 11):
        u = _seeded_series(6, seed)
        lhs = u.l2_norm()
        rhs = u.h01_norm()
        lam1 = math.sqrt(SQ.lambda1.lo)
        assert lhs.hi <= rhs.hi / lam1 * (1.0 + 1e-12)


def test_rectangle_norms_scale_with_domain():
    dom = DomainRect(2.0, 1.0)
    n = _one_mode(domain=dom).l2_norm()
    # [TRIVIAL] integral sin^2(pi x / 2) over (0,2) = 1, times 1/2 in y
    assert n.contains(math.sqrt(0.5))


# -- point evaluation (mpmath oracle) ---------------------------------------------


def test_eval_two_mode_series_against_mpmath():
    """Fixed two-mode series at a seeded interior point: the enclosure must
    contain a 50-digit independent oracle value."""
    c = np.zeros((3, 3))
    c[0, 0] = 0.7
    c[1, 2] = -0.3  # mode (2, 3)
    u = SineSeries2D(SQ, c)
    rng = np.random.default_rng(20240817)
    x, y = rng.uniform(0.05, 0.95, size=2)
    enc = u.eval(x, y)
    with mpmath.workdps(50):
        pi = mpmath.pi
        oracle = mpmath.mpf(0.7) * mpmath.sin(pi * x) * mpmath.sin(pi * y) + \
            mpmath.mpf(-0.3) * mpmath.sin(2 * pi * x) * mpmath.sin(3 * pi * y)
        assert mpmath.mpf(enc.lo) <= oracle <= mpmath.mpf(enc.hi)
    assert enc.width() < 1e-13


def test_eval_outside_domain_raises():
    u = _one_mode()
    with pytest.raises(DomainError):
        u.eval(1.5, 0.5)


def test_values_on_grid_matches_eval():
    u = _seeded_series(4, 3)
    xs = np.array([0.25, 0.7])
    ys = np.array([0.1, 0.55])
    grid = u.values_on_grid(xs, ys)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            pt = u.eval(float(x), float(y))
            assert grid.lo[i, j] <= pt.hi and pt.lo <= grid.hi[i, j]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([SIN, COS]), st.integers(1, 1024),
       st.sampled_from([1.0, 2.0, 0.3, 1.7]),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
def test_basis_at_points_encloses_mpmath(parity, n, side, fracs):
    """Each basis value at an exact float point, 0 and L among them, lies in
    the enclosure of the a-priori lemma, by mpmath's sin or cos of m pi x/L
    at 40 digits."""
    u = Series2D(DomainRect(side, 1.0), IArray(np.zeros((n, 1))), parity, SIN)
    xs = np.array([0.0, side] + [f * side for f in fracs])
    b = u._basis_at_points(xs, 0)
    f = mpmath.sin if parity == SIN else mpmath.cos
    with mpmath.workdps(40):
        for i, x in enumerate(xs):
            for k, m in enumerate(_modes(parity, n)):
                v = f(int(m) * mpmath.pi * mpmath.mpf(float(x)) / mpmath.mpf(side))
                assert mpmath.mpf(b.lo[i, k]) <= v <= mpmath.mpf(b.hi[i, k])


def test_basis_at_points_rejects_arguments_beyond_the_checked_range():
    # 1400 pi at x = L exceeds 2^12, where numpy's sin is not checked
    u = Series2D(SQ, IArray(np.zeros((1400, 1))))
    u._basis_at_points(np.array([0.9]), 0)
    with pytest.raises(DomainError):
        u._basis_at_points(np.array([1.0]), 0)


def test_numpy_sin_cos_within_two_ulps_of_one_up_to_2_to_12():
    """The platform premise of that lemma, checked on this host: numpy's sin
    and cos of a float64 array are within 2^-51 of mpmath for |a| <= 2^12,
    on random arguments and on the m pi x/L the lemma is applied to, where
    sin or cos is near 0."""
    rng = np.random.default_rng(20240817)
    modes = np.arange(1.0, 1025.0)
    a = np.concatenate([
        rng.uniform(-2.0 ** 12, 2.0 ** 12, 4000),
        rng.uniform(-4.0, 4.0, 1000),
        modes * math.pi,
        np.multiply.outer(np.array([0.5, 1.0 / 3.0]), modes).ravel() * math.pi,
        [0.0, 2.0 ** 12, -2.0 ** 12],
    ])
    worst = 0.0
    with mpmath.workdps(40):
        for name, got in (("sin", np.sin(a)), ("cos", np.cos(a))):
            f = getattr(mpmath, name)
            for x, v in zip(a.tolist(), got.tolist()):
                worst = max(worst, float(abs(mpmath.mpf(v) - f(mpmath.mpf(x)))))
    assert worst <= 2.0 ** -51


# -- interval-array radii ----------------------------------------------------------


def test_thin_array_has_zero_radius():
    a = IArray(np.array([[1.0, -3.5e-300], [0.0, 7.25e12]]))
    assert np.all(a.rad() == 0.0)


def test_radius_encloses_array(rng):
    from fractions import Fraction

    lo = rng.normal(size=(6, 7)) * 10.0 ** rng.integers(-20, 20, size=(6, 7))
    hi = lo + np.abs(lo) * rng.uniform(0.0, 1e-10, size=lo.shape)
    hi[0, 0] = lo[0, 0]  # one thin entry among thick ones
    a = IArray(lo, hi)
    mid, rad = a.mid(), a.rad()
    for m, r, lo_, hi_ in zip(mid.ravel(), rad.ravel(), lo.ravel(), hi.ravel()):
        m, r = Fraction(float(m)), Fraction(float(r))
        assert m - r <= Fraction(float(lo_)) and Fraction(float(hi_)) <= m + r
    assert rad[0, 0] == 0.0 and np.all(rad.ravel()[1:] > 0.0)


# -- exact powers -----------------------------------------------------------------


def test_cube_of_single_mode_coefficients():
    # [DERIVED] sin^3 t = (3 sin t - sin 3t)/4, so (sin sin)^3 has
    # coefficients (9/16, -3/16, -3/16, 1/16) at modes (1,1),(1,3),(3,1),(3,3)
    v = power_expand(_one_mode(), 3)
    assert v.parity_x == SIN and v.parity_y == SIN
    got = {}
    for (i, j), want in [((0, 0), 9 / 16), ((0, 2), -3 / 16),
                         ((2, 0), -3 / 16), ((2, 2), 1 / 16)]:
        assert v.coeffs.lo[i, j] <= want <= v.coeffs.hi[i, j]
        got[(i, j)] = want
    # every other coefficient is exactly zero by parity
    mask = np.ones(v.coeffs.shape, dtype=bool)
    for ij in got:
        mask[ij] = False
    assert np.all(v.coeffs.lo[mask] == 0.0)
    assert np.all(v.coeffs.hi[mask] == 0.0)


def test_square_of_single_mode_is_cosine_parity():
    v = power_expand(_one_mode(), 2)
    assert v.parity_x == COS and v.parity_y == COS
    # [DERIVED] sin^2 t = 1/2 - cos(2t)/2 per dimension
    assert v.eval(0.5, 0.5).contains(1.0)
    assert v.integral().contains(0.25)


def test_l4_norm_single_mode():
    # [DERIVED] integral sin^4 over (0,1) = 3/8; L4 norm = sqrt(3/8)
    n = lp_norm(_one_mode(), 4.0)
    assert n.contains(0.61237243569579452)
    assert n.width() < 1e-12


def test_l6_norm_single_mode():
    # [DERIVED] integral sin^6 over (0,1) = 5/16, so the L6 norm of
    # a sin sin on the unit square is a (5/16)^{1/3}
    a = 1.5
    n = lp_norm(_one_mode(a), 6)
    with mpmath.workdps(40):
        want = a * mpmath.cbrt(mpmath.mpf(5) / 16)
    assert mpmath.mpf(n.lo) <= want <= mpmath.mpf(n.hi)
    assert n.width() < 1e-12


def test_lp_norm_rejects_unsupported_input():
    """Only integer 2 <= q <= 6 on sine/sine series has an exact route."""
    u = _seeded_series(3, 5)
    for q in (2.5, 1, 7, float("nan")):
        with pytest.raises(DomainError):
            lp_norm(u, q)
    with pytest.raises(DomainError):
        lp_norm(power_expand(u, 2), 4)


def _old_lp_norm(u, q):
    """L^q norm from the full expansion of u^q and its exact integral."""
    base = power_expand(u, q).integral()
    hi = base.hi
    if q % 2 == 1:
        hi = (base + Interval(2.0) * Interval(negative_part_sup(u)) ** q
              * u.domain.measure()).hi
    return _iv_root(Interval(max(base.lo, 0.0), hi), q)


@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_lp_norm_inner_product_matches_full_expansion(q):
    """<u^a, u^b> with a + b = q encloses the same integral as the
    expansion of u^q: the two norm enclosures intersect."""
    u = _seeded_series(5, 20240817 + q)
    assert intersects(lp_norm(u, q), _old_lp_norm(u, q))


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_lp_norm_builds_no_new_product(p, monkeypatch):
    """Once power_expand(u, p) has run, as the defect bound makes it run,
    ||u||_{L^{p+1}} costs no further series product."""
    from sobemb import series

    u = _seeded_series(4, p)
    power_expand(u, p)
    calls = []
    orig = series.multiply

    def counted(*args):
        calls.append(1)
        return orig(*args)

    monkeypatch.setattr(series, "multiply", counted)
    lp_norm(u, p + 1)
    assert calls == []


def test_c4_center_norms_are_tight(report_c4):
    """isum rounds the exact sum once on each side, so at the p=3, N=34
    center ||u||_{H^1_0} and ||u||_{L^4} are enclosed to within 1e-14 of
    their size."""
    u = report_c4.solutions[34]
    for norm in (u.h01_norm(), lp_norm(u, 4)):
        assert norm.hi - norm.lo <= 1e-14 * norm.lo


def test_power_expand_rejects_bad_orders():
    u = _one_mode()
    with pytest.raises(DomainError):
        power_expand(u, 7)
    big = SineSeries2D(SQ, np.zeros((400, 400)))
    with pytest.raises(CapacityError):
        power_expand(big, 3)


def test_power_expand_matches_pointwise_eval():
    """At 10^2 seeded interior points, the enclosure of (u^p)(x, y) from the
    exact expansion intersects the p-th interval power of u(x, y)."""
    u = _seeded_series(4, 20240817)
    rng = np.random.default_rng(99)
    pts = rng.uniform(0.02, 0.98, size=(100, 2))
    for p in (2, 3):
        v = power_expand(u, p)
        for x, y in pts:
            a = v.eval(float(x), float(y))
            b = iv_pow_int(u.eval(float(x), float(y)), p)
            assert intersects(a, b), (p, x, y)


def test_multiply_commutes():
    u = _seeded_series(3, 1)
    v = _seeded_series(4, 2)
    uv = multiply(u, v)
    vu = multiply(v, u)
    assert uv.coeffs.shape == vu.coeffs.shape
    pt_a = uv.eval(0.37, 0.61)
    pt_b = vu.eval(0.37, 0.61)
    assert intersects(pt_a, pt_b)


def test_multiply_rejects_mismatched_domains():
    with pytest.raises(DomainError):
        multiply(_one_mode(), _one_mode(domain=DomainRect(2.0, 1.0)))


def _axis_product(pa, m, pb, k):
    """[(mode, coefficient)] of basis_a(m) * basis_b(k), by the identities
    sin m sin k = (cos|m-k| - cos(m+k))/2,
    sin m cos k = (sin(m+k) + sign(m-k) sin|m-k|)/2,
    cos m cos k = (cos(m+k) + cos|m-k|)/2."""
    h = Fraction(1, 2)
    if pa == pb == SIN:
        return [(abs(m - k), h), (m + k, -h)]
    if pa == pb == COS:
        return [(m + k, h), (abs(m - k), h)]
    s, c = (m, k) if pa == SIN else (k, m)
    return [(s + c, h)] + ([(abs(s - c), h if s > c else -h)] if s != c else [])


def _exact_product(u, v):
    """Exact Fraction coefficients of u * v for point series, and the set of
    output indices that some pair of nonzero coefficients reaches."""
    out, reached = {}, set()
    a, b = u.coeffs.lo, v.coeffs.lo
    for (i, j), (k, l) in itertools.product(zip(*np.nonzero(a)), zip(*np.nonzero(b))):
        cab = Fraction(a[i, j]) * Fraction(b[k, l])
        for mx, fx in _axis_product(u.parity_x, u.modes_x()[i], v.parity_x, v.modes_x()[k]):
            for my, fy in _axis_product(u.parity_y, u.modes_y()[j], v.parity_y, v.modes_y()[l]):
                key = (mx, my)
                reached.add(key)
                out[key] = out.get(key, Fraction(0)) + cab * fx * fy
    return out, reached


@pytest.mark.parametrize("parities", [
    (px, py, qx, qy) for px in (SIN, COS) for py in (SIN, COS)
    for qx in (SIN, COS) for qy in (SIN, COS)])
def test_multiply_encloses_exact_product_for_every_parity_pair(parities):
    """Dyadic-rational factors on a 2 x 1 rectangle: every coefficient of
    multiply encloses the exact rational product coefficient, and an entry no
    nonzero pair reaches is exactly [0, 0]."""
    px, py, qx, qy = parities
    rng = np.random.default_rng(sum(ord(c) for c in "".join(parities)))
    dom = DomainRect(2.0, 1.0)
    for _ in range(3):
        a = rng.integers(-64, 65, size=rng.integers(1, 6, 2)) / 32.0
        b = rng.integers(-64, 65, size=rng.integers(1, 6, 2)) / 16.0
        a[rng.random(a.shape) < 0.4] = 0.0  # structural zeros
        b[:, ::2] = 0.0
        u = Series2D(dom, IArray(a), px, py)
        v = Series2D(dom, IArray(b), qx, qy)
        w = multiply(u, v)
        out_x = COS if px == qx else SIN
        out_y = COS if py == qy else SIN
        assert (w.parity_x, w.parity_y) == (out_x, out_y)
        exact, reached = _exact_product(u, v)
        assert set(exact) <= {(mx, my) for mx in w.modes_x() for my in w.modes_y()}
        # a wide factor encloses the products of its end members as well
        r = np.where(a != 0.0, rng.integers(0, 4, size=a.shape) / 1024.0, 0.0)
        wide = multiply(Series2D(dom, IArray(a - r, a + r), px, py), v)
        ends = [_exact_product(Series2D(dom, IArray(a + t * r), px, py), v)[0]
                for t in (-1.0, 1.0)]
        for prod, members, tol in ((w, [exact], 1e-13), (wide, ends, 1.0)):
            for i, mx in enumerate(prod.modes_x()):
                for j, my in enumerate(prod.modes_y()):
                    lo, hi = prod.coeffs.lo[i, j], prod.coeffs.hi[i, j]
                    if (mx, my) not in reached:
                        assert lo == hi == 0.0, (mx, my)
                        continue
                    for m in members:
                        assert Fraction(lo) <= m.get((mx, my), 0) <= Fraction(hi), (mx, my)
                    assert hi - lo <= tol * max(1.0, abs(lo))


def _whole_slab_multiply(u, v):
    """Reference for `multiply`: the same convolution as a loop over the
    nonzero entries of the sparser extension, each step over the whole slab
    of the denser one, with an extended-precision midpoint and one rounding
    bound from the global term count k."""
    ea, eb = _extension(u), _extension(v)
    if np.count_nonzero(eb[2]) < np.count_nonzero(ea[2]):
        ea, eb = eb, ea
    am, ar, anz = ea
    bm, br, bnz = eb
    k = math.prod(min(np.count_nonzero(anz.any(axis=1 - d)),
                      np.count_nonzero(bnz.any(axis=1 - d))) for d in (0, 1))
    g_mid = (k + 4) * _EPS_LD / (1.0 - (k + 4) * _EPS_LD) + 2.0 ** -52
    top = [(sa + sb) // 2 - 1 for sa, sb in zip(am.shape, bm.shape)]
    shape = (top[0] + 1, top[1] + 1)
    mid = np.zeros(shape, dtype=np.longdouble)
    rad = np.zeros(shape)
    support = np.zeros(shape, dtype=bool)
    bm_ld = bm.astype(np.longdouble)
    b_rad = br + g_mid * np.abs(bm)
    b_mag = np.abs(bm) + br
    for i, j in np.argwhere(anz):
        si, sj = max(top[0] - i, 0), max(top[1] - j, 0)
        if si >= bm.shape[0] or sj >= bm.shape[1]:
            continue
        oi, oj = i + si - top[0], j + sj - top[1]
        dst = (slice(oi, oi + bm.shape[0] - si), slice(oj, oj + bm.shape[1] - sj))
        src = (slice(si, None), slice(sj, None))
        mid[dst] += np.longdouble(am[i, j]) * bm_ld[src]
        rad[dst] += abs(am[i, j]) * b_rad[src]
        if ar[i, j]:
            rad[dst] += ar[i, j] * b_mag[src]
        support[dst] |= bnz[src]
    px, sx, ox = _axis_scale(u.parity_x, v.parity_x, shape[0])
    py, sy, oy = _axis_scale(u.parity_y, v.parity_y, shape[1])
    scale = np.multiply.outer(sx, sy)
    keep = (slice(ox, None), slice(oy, None))
    cm = (mid[keep] * scale.astype(np.longdouble)).astype(np.float64)
    r = _up(rad[keep] * np.abs(scale) * (1.0 + 6.0 * _gamma_fac(k)) + 4e-290)
    lo = np.where(support[keep], _dn(cm - r), 0.0)
    hi = np.where(support[keep], _up(cm + r), 0.0)
    return Series2D(u.domain, IArray(lo, hi, _unsafe=True), px, py)


def _assert_encloses_reference_no_wider(got, want):
    """got and want have the same parities, shape and exact zeros; every
    entry of got meets want's, and no entry with |c| >= 2^-30 max |c| is
    wider than want's."""
    assert (got.parity_x, got.parity_y) == (want.parity_x, want.parity_y)
    assert got.coeffs.shape == want.coeffs.shape
    g, w = got.coeffs, want.coeffs
    assert np.array_equal((g.lo == 0.0) & (g.hi == 0.0), (w.lo == 0.0) & (w.hi == 0.0))
    assert np.all(g.lo <= w.hi) and np.all(w.lo <= g.hi)
    mag = w.mag()
    big = mag >= 2.0 ** -30 * mag.max()
    assert np.all((g.hi - g.lo)[big] <= (w.hi - w.lo)[big])


# Which modes of an axis may be nonzero: modes of one parity give the
# extension one index parity on that axis (the loop then steps by 2), "any"
# mixes both parities (step 1).
_MODE_SETS = ("odd", "even", "any")


@st.composite
def _factor(draw, dom):
    parities = (draw(st.sampled_from((SIN, COS))), draw(st.sampled_from((SIN, COS))))
    shape = (draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    sets = (draw(st.sampled_from(_MODE_SETS)), draw(st.sampled_from(_MODE_SETS)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    c = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3, size=shape)
    for axis, (parity, modes) in enumerate(zip(parities, sets)):
        m = _modes(parity, shape[axis])
        keep = m % 2 == 1 if modes == "odd" else m % 2 == 0 if modes == "even" else m >= 0
        c.swapaxes(0, axis)[~keep] = 0.0
    c[rng.random(shape) < draw(st.sampled_from((0.0, 0.3)))] = 0.0  # interior zeros
    coeffs = IArray(c)
    if draw(st.booleans()):  # thick coefficients; zeros stay exactly [0, 0]
        r = np.abs(c) * 2.0 ** -rng.integers(10, 50, size=shape)
        coeffs = IArray(np.where(c != 0.0, _dn(c - r), 0.0), np.where(c != 0.0, _up(c + r), 0.0))
    return Series2D(dom, coeffs, *parities)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_multiply_encloses_whole_slab_loop_no_wider(data):
    """multiply meets the reference loop on every entry, keeps its exact
    zeros, and is no wider on every entry that is not negligible, for every
    parity pair, mode set, interior zeros, thin and thick factors, on both
    domains."""
    dom = data.draw(st.sampled_from((SQ, DomainRect(2.0, 1.0))))
    u, v = data.draw(_factor(dom)), data.draw(_factor(dom))
    _assert_encloses_reference_no_wider(multiply(u, v), _whole_slab_multiply(u, v))


@pytest.mark.parametrize("p, n", [(2, 72), (3, 34), (4, 20)])
def test_power_chain_encloses_whole_slab_loop_no_wider(p, n, unit_square):
    """Every product that certification forms at the last N of the c3, c4
    and c5 sweeps meets the reference loop and is no wider."""
    u = newton_solve(SolverConfig(p=p, N=n), initial_guess(p, unit_square))
    for k in range(2, p + 1):
        a, b = _POWER_SPLIT[k]
        want = _whole_slab_multiply(power_expand(u, a), power_expand(u, b))
        _assert_encloses_reference_no_wider(power_expand(u, k), want)


def test_per_entry_gamma_on_mixed_parity_rectangle():
    """On the 2 x 1 rectangle, a thick cosine/sine factor with zero midpoints
    times a thin sine/cosine one: each entry's upper end is its exact radius
    sum R_e up to the gamma of its own count n_e of nonzero pairs.  The edge
    entries reach few pairs, so there the bound with the global count k, as
    in the reference loop, is looser."""
    dom = DomainRect(2.0, 1.0)
    rng = np.random.default_rng(7)
    r = rng.integers(1, 64, size=(9, 4)) / 64.0
    u = Series2D(dom, IArray(-r, r), COS, SIN)
    v = Series2D(dom, IArray(rng.integers(-64, 65, size=(5, 6)) / 16.0), SIN, COS)
    w = multiply(u, v)
    assert (w.parity_x, w.parity_y) == (SIN, SIN)
    (_, ar, anz), (bm, _, bnz) = _extension(u), _extension(v)
    rad, count = {}, {}  # by product index, over the extensions' nonzero pairs
    for i, j in zip(*np.nonzero(anz)):
        for k, l in zip(*np.nonzero(bnz)):
            key = (i - ar.shape[0] // 2 + k - bm.shape[0] // 2,
                   j - ar.shape[1] // 2 + l - bm.shape[1] // 2)
            rad[key] = rad.get(key, 0) + Fraction(ar[i, j]) * abs(Fraction(bm[k, l]))
            count[key] = count.get(key, 0) + 1
    for i, mx in enumerate(w.modes_x()):
        for j, my in enumerate(w.modes_y()):
            lo, hi = Fraction(w.coeffs.lo[i, j]), Fraction(w.coeffs.hi[i, j])
            if (mx, my) not in count:
                assert lo == hi == 0
                continue
            exact = rad[(mx, my)] / 4  # the output scale is 1/2 per axis
            assert lo <= -exact and exact <= hi
            assert hi <= exact * (1 + 8 * Fraction(_gamma_fac(count[(mx, my)])))
    nz = [np.count_nonzero(e.any(axis=1 - d)) for d in (0, 1) for e in (anz, bnz)]
    k = min(nz[:2]) * min(nz[2:])
    assert any(6 * (k + 4) > 8 * (n + 4) for n in count.values())


# -- the premises of multiply's GEMM engine ------------------------------------


def test_slice_width_keeps_every_slice_product_below_2_to_52():
    """k products of integers below 2^beta stay below 2^52 at every k up to
    the largest convolution (both factors at MAX_EXPANSION_ORDER), and the S
    slices hold at least _SLICE_BITS bits."""
    for k in list(range(1, 5000)) + [2 ** 20 - 1, 2 ** 20, 2 ** 20 + 1, 2049 ** 2]:
        beta, count = _slice_width(k)
        assert k * 2 ** (2 * beta) <= 2 ** 52 < k * 2 ** (2 * beta + 2)
        assert count * beta >= _SLICE_BITS > (count - 1) * beta


@pytest.mark.parametrize("n, k, beta", [(5, 37, 23), (64, 1156, 20), (64, 4096, 20),
                                        (96, 8192, 20), (40, 2 ** 17, 17)])
def test_integer_gemm_is_exact_below_2_to_53(n, k, beta):
    """np.matmul of integer-valued float matrices whose entries are below
    2^beta, with k 2^(2 beta) <= 2^53, equals the exact integer product, so
    every partial sum it forms was exact.  Rows of equal-signed entries at
    the largest magnitude push the partial sums to the bound; the rest are
    random."""
    rng = np.random.default_rng(k)
    top = 2 ** beta - 1
    a = rng.integers(-top, top + 1, size=(n, k))
    b = rng.integers(-top, top + 1, size=(k, n))
    a[0], b[:, 0] = top, top
    a[1], b[:, 1] = -top, top
    want = a @ b  # int64: exact, every |sum| < 2^53
    assert np.array_equal((a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64), want)
    assert want[0, 0] == k * top * top


@pytest.mark.parametrize("seed", range(6))
def test_slices_reconstruct_the_factor(seed):
    """m = 2^e sum_s slices[s] 2^(-(s+1) beta) + rest with |rest| <= rho,
    checked in rationals on entries over 1100 binary orders, zeros and
    subnormals included; each slice is an integer below 2^beta of its
    entry's sign, and an entry whose bits all lie within the slices is
    rebuilt exactly (rho = 0)."""
    rng = np.random.default_rng(seed)
    count, beta = rng.integers(2, 7), rng.integers(14, 27)
    m = rng.normal(size=(7, 5)) * np.ldexp(1.0, rng.integers(-1074, 30, size=(7, 5)))
    m[rng.random(m.shape) < 0.2] = 0.0
    m.flat[0] = np.ldexp(rng.normal(), int(rng.integers(-1000, 1000)))
    sl, e, rho = _slices(m, count, beta)
    assert np.all(sl == np.trunc(sl)) and np.all(np.abs(sl) < 2.0 ** beta)
    assert np.all(sl * np.sign(m) >= 0.0)
    big = np.abs(m).max()
    for idx in np.ndindex(m.shape):
        recon = sum(Fraction(sl[(s,) + idx]) * Fraction(2) ** (e - (s + 1) * int(beta))
                    for s in range(count))
        rest = Fraction(m[idx]) - recon
        assert abs(rest) <= Fraction(rho[idx])
        if m[idx] != 0.0 and math.frexp(m[idx])[1] - 53 >= math.frexp(big)[1] - count * beta:
            assert rest == 0 and rho[idx] == 0.0


@pytest.mark.parametrize("shift_u, shift_v", [(-1000, 0), (-1000, -40), (-1000, 1000),
                                              (0, -1060)])
def test_multiply_encloses_products_of_tiny_coefficients(shift_u, shift_v):
    """Dyadic factors scaled to 2^-1000 and below: the product, whose exact
    coefficients may lie far below the smallest float, still encloses the
    exact rational product, and an entry no pair reaches is [0, 0]."""
    rng = np.random.default_rng(-shift_u - shift_v)
    dom = DomainRect(2.0, 1.0)
    a = np.ldexp(rng.integers(-64, 65, size=(4, 5)) / 32.0, shift_u)
    a[0, 0] = 1.0  # one entry far above the rest
    b = np.ldexp(rng.integers(-64, 65, size=(3, 4)) / 16.0, shift_v)
    u, v = Series2D(dom, IArray(a), SIN, COS), Series2D(dom, IArray(b), SIN, SIN)
    w = multiply(u, v)
    exact, reached = _exact_product(u, v)
    for i, mx in enumerate(w.modes_x()):
        for j, my in enumerate(w.modes_y()):
            lo, hi = Fraction(w.coeffs.lo[i, j]), Fraction(w.coeffs.hi[i, j])
            if (mx, my) not in reached:
                assert lo == hi == 0
            else:
                assert lo <= exact.get((mx, my), 0) <= hi


@pytest.mark.parametrize("pu, pv", [(SIN, SIN), (COS, SIN), (COS, COS)],
                         ids=["sin-sin", "cos-sin", "cos-cos"])
def test_multiply_bits_do_not_depend_on_the_chunking(pu, pv, monkeypatch):
    """The product is bit-identical with one x index of b per chunk, with the
    default chunks, with one chunk for the whole sum and with 2 and 3 x
    indices per chunk, on factors of each parity pair (on both axes), dense
    and odd-index only.  The factors are thin and integer-valued, so every
    GEMM (slice products, |a| |b|, the radius terms and the pair counts) is
    exact and any chunking must give the same bits: a window or block that
    reads a wrong index of either factor changes them.  The bit identity
    relies on these thin integer factors: on real factors the float radius
    GEMMs round, and their sum chunk by chunk depends on the chunking
    (`_toeplitz_gemms`).  Each of the 2 and 3
    index budgets ends some product with a shorter chunk, which reads the
    workspace after a longer one, so padding left over from that one would
    change the bits too."""
    gemms = series._toeplitz_gemms
    rng = np.random.default_rng(len(pu + pv))
    dom = DomainRect(2.0, 1.0)
    short = {2: False, 3: False}  # whether a product ended with a shorter chunk
    for shape_u, shape_v, odd in (((9, 7), (12, 10), False), ((5, 8), (17, 6), False),
                                  ((11, 11), (13, 9), True)):
        a = rng.integers(-2 ** 10, 2 ** 10 + 1, size=shape_u).astype(np.float64)
        b = rng.integers(-2 ** 10, 2 ** 10 + 1, size=shape_v).astype(np.float64)
        if odd:  # one index parity per axis: the half sub-grid (step 2) of `_axis_plan`
            a[1::2], a[:, 1::2], b[1::2], b[:, 1::2] = 0.0, 0.0, 0.0, 0.0
        u, v = Series2D(dom, IArray(a), pu, pu), Series2D(dom, IArray(b), pv, pv)
        products = []
        for floats in (1, None, 2 ** 30):
            if floats is not None:
                monkeypatch.setattr("sobemb.series._CHUNK_FLOATS", floats)
            products.append(multiply(u, v).coeffs)
            monkeypatch.undo()
        for chunk in short:
            def chunked(a, b, rows, cols, pairs, _, chunk=chunk):
                short[chunk] |= b.shape[1] % chunk != 0  # b's last chunk is always reached
                return gemms(a, b, rows, cols, pairs, chunk)
            monkeypatch.setattr("sobemb.series._toeplitz_gemms", chunked)
            products.append(multiply(u, v).coeffs)
            monkeypatch.undo()
        for w in products[1:]:
            assert np.array_equal(w.lo, products[0].lo) and np.array_equal(w.hi, products[0].hi)
    assert all(short.values())


def test_product_peak_memory_on_the_c4_center(report_c4):
    """multiply(u^2, u) on the c4 N=34 center peaks at most 2.4 MB above its
    entry under tracemalloc (about 1.64 MB): it pads no copy of a whole layer
    stack, keeps no full extension or slice stack beside the layers and
    holds one workspace for all of its chunks."""
    u = report_c4.solutions[34]
    u2 = multiply(u, u)  # not power_expand: that would keep u^2 on the shared center
    multiply(u2, u)  # warm-up
    tracemalloc.start()  # traces only what is allocated from here on
    try:
        multiply(u2, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.4e6


# -- pointwise bounds --------------------------------------------------------------


def test_sup_abs_bound_single_mode():
    s = _one_mode(2.5).sup_abs_bound()
    assert s.lo <= 2.5 <= s.hi * (1.0 + 1e-12)
    assert s.hi <= 2.5 * (1.0 + 1e-12)


def test_grad_sup_bound_dominates_samples():
    u = _seeded_series(5, 7)
    g = u.grad_sup_bound().hi
    # independent float sampling of |grad u| via term-by-term differentiation
    xs = np.linspace(0.0, 1.0, 101)
    mid = u.coeffs.mid()
    mx = np.arange(1, 6) * np.pi
    sx, cx = np.sin(np.outer(xs, mx)), np.cos(np.outer(xs, mx))
    ux = (cx * mx) @ mid @ sx.T
    uy = sx @ mid @ (cx * mx).T
    assert g >= np.max(np.hypot(ux, uy)) * (1.0 - 1e-12)


def _axis_values(parity, n, L, xs):
    """(b, db): values and x-derivatives of an axis's first n basis
    functions at the points xs, (x, mode)."""
    k = _modes(parity, n) * np.pi / L
    t = np.outer(xs, k)
    if parity == SIN:
        return np.sin(t), np.cos(t) * k
    return np.cos(t), -np.sin(t) * k


@pytest.mark.parametrize("p, dom", [(3, SQ), (4, SQ), (3, DomainRect(2.0, 1.0)),
                                    (4, DomainRect(2.0, 1.0))])
def test_grad_sup_bound_dominates_potential_gradient(p, dom):
    """On the potential w = p u^{p-1} of a seeded odd-odd center (cosine
    parity for odd p, sine for even p), G is at least the float sup of
    |grad w| on a 401^2 grid."""
    c = _seeded_series(5, 11, scale=3.0, domain=dom).coeffs.mid()
    c[1::2, :] = 0.0
    c[:, 1::2] = 0.0
    w = power_expand(SineSeries2D(dom, c), p - 1).scale(Interval(float(p)))
    (bx, dbx), (by, dby) = (
        _axis_values(par, n, L, np.linspace(0.0, L, 401))
        for par, n, L in ((w.parity_x, w.coeffs.shape[0], dom.L1),
                          (w.parity_y, w.coeffs.shape[1], dom.L2)))
    mid = w.coeffs.mid()
    sup = np.max(np.hypot(dbx @ mid @ by.T, bx @ mid @ dby.T))
    assert w.grad_sup_bound().hi * (1.0 + 1e-12) >= sup > 0.0


@pytest.mark.parametrize("p, dom", [(3, SQ), (4, SQ), (3, DomainRect(2.0, 1.0)),
                                    (4, DomainRect(2.0, 1.0))], ids=["1x1-3", "1x1-4", "2x1-3", "2x1-4"])
def test_lap_sup_bound_dominates_potential_laplacian(p, dom):
    """On the potential w = p u^{p-1} of a seeded odd-odd center (cosine
    parity for odd p, sine for even p), H is at least the float sup of
    |Lap w| on a 401^2 grid; each basis function's second derivative along
    an axis is minus its squared frequency times itself."""
    c = _seeded_series(5, 11, scale=3.0, domain=dom).coeffs.mid()
    c[1::2, :] = 0.0
    c[:, 1::2] = 0.0
    w = power_expand(SineSeries2D(dom, c), p - 1).scale(Interval(float(p)))
    (bx, kx), (by, ky) = (
        (_axis_values(par, n, L, np.linspace(0.0, L, 401))[0], (_modes(par, n) * np.pi / L) ** 2)
        for par, n, L in ((w.parity_x, w.coeffs.shape[0], dom.L1),
                          (w.parity_y, w.coeffs.shape[1], dom.L2)))
    mid = w.coeffs.mid()
    sup = np.max(np.abs((bx * kx) @ mid @ by.T + bx @ mid @ (by * ky).T))
    assert w.lap_sup_bound().hi * (1.0 + 1e-12) >= sup > 0.0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 8), st.integers(1, 8),
       st.sampled_from([SIN, COS]), st.sampled_from([SIN, COS]),
       st.sampled_from([(1.0, 1.0), (2.0, 1.0), (0.3, 1.7)]))
def test_grad_sup_bound_no_larger_than_per_coefficient_form(seed, nx, ny, px, py, sides):
    """G = sqrt(gx^2 + gy^2) is never above the per-coefficient form
    sum |c_ab| pi sqrt((a/L1)^2 + (b/L2)^2) it replaces (Minkowski), here
    computed in floats and padded by 1e-12."""
    rng = np.random.default_rng(seed)
    dom = DomainRect(*sides)
    c = rng.normal(size=(nx, ny)) * 10.0 ** rng.uniform(-3, 2, size=(nx, ny))
    w = Series2D(dom, IArray(c), px, py)
    a, b = _modes(px, nx)[:, None] / dom.L1, _modes(py, ny)[None, :] / dom.L2
    old = float(np.sum(np.abs(c) * np.pi * np.sqrt(a * a + b * b)))
    assert w.grad_sup_bound().hi <= old * (1.0 + 1e-12)


def test_inf_lower_bound_below_dense_sample_min(u_p3_n10):
    """The one-pass lower bound lies below the minimum over a 10^6-point
    dense sample (which can only overestimate the infimum), on a seeded
    series with no symmetry and on the boundary-factored profile of an
    odd-odd center, whose argmin cell has a mirror twin."""
    xs = np.linspace(0.0, 1.0, 1000)
    u = _seeded_series(5, 13)
    s = np.sin(np.outer(xs, np.arange(1, 6) * np.pi))
    assert u.inf_lower_bound() <= float(np.min(s @ u.coeffs.mid() @ s.T))
    w = factor_boundary(u_p3_n10)
    c = np.cos(np.outer(xs, w.modes_x() * np.pi))
    assert w.inf_lower_bound() <= float(np.min(c @ w.coeffs.mid() @ c.T))


def test_negative_part_sup_zero_for_positive_series():
    # sin(pi x) sin(pi y) is nonnegative on the unit square
    assert negative_part_sup(_one_mode()) == 0.0


def test_negative_part_sup_detects_sign_change():
    c = np.zeros((2, 2))
    c[1, 1] = 1.0  # sin(2 pi x) sin(2 pi y) dips to -1
    eta = negative_part_sup(SineSeries2D(SQ, c))
    # the bound goes through the boundary-factored profile 4 cos cos, so it
    # is a valid but conservative upper bound: 1 <= sup u_- <= bound <= ~4.1
    assert 1.0 - 1e-9 <= eta <= 4.5


def test_negative_part_sup_rejects_cosine_series():
    with pytest.raises(DomainError):
        negative_part_sup(power_expand(_one_mode(), 2))


# -- boundary factorization --------------------------------------------------------


def test_factor_boundary_identity_at_points():
    """u(x, y) must equal sin(pi x/L1) sin(pi y/L2) * w(x, y) where w is the
    boundary-factored profile; checked by interval intersection at samples."""
    u = _seeded_series(5, 21)
    w = factor_boundary(u)
    assert w.parity_x == COS and w.parity_y == COS
    from sobemb.intervals import PI, iv_sin

    for x, y in [(0.2, 0.3), (0.55, 0.81), (0.94, 0.07)]:
        lhs = u.eval(x, y)
        rhs = iv_sin(PI * Interval(x)) * iv_sin(PI * Interval(y)) * w.eval(x, y)
        assert intersects(lhs, rhs), (x, y)


def test_factor_boundary_single_mode_is_constant_one():
    w = factor_boundary(_one_mode())
    assert w.coeffs.lo[0, 0] <= 1.0 <= w.coeffs.hi[0, 0]
    assert w.coeffs.hi[0, 0] - w.coeffs.lo[0, 0] < 1e-12
    assert np.all(w.coeffs.lo[1:, :] == 0.0) and np.all(w.coeffs.hi[:, 1:][1:] == 0.0)


# -- one-dimensional overlaps -----------------------------------------------------


def test_axis_overlap_sin_cos_contains_exact_value():
    """On both non-dyadic sides of the 0.1 x 0.3 rectangle, every sin x cos
    overlap contains int_0^L sin(m pi x/L) cos(k pi x/L) dx =
    2mL/(pi(m^2 - k^2)) for odd m + k (else it is 0), evaluated to 60 digits
    with the exact binary value of L."""
    dom = DomainRect(0.1, 0.3)
    n = 9
    for L in (dom.L1, dom.L2):
        sc = _axis_overlap(SIN, n, COS, n + 1, L)
        cs = _axis_overlap(COS, n + 1, SIN, n, L)
        assert np.array_equal(cs.lo, sc.lo.T) and np.array_equal(cs.hi, sc.hi.T)
        exact_l = Fraction(L)
        with mpmath.workdps(60):
            l_mp = mpmath.mpf(exact_l.numerator) / exact_l.denominator
            for m in range(1, n + 1):
                for k in range(0, n + 1):
                    lo, hi = sc.lo[m - 1, k], sc.hi[m - 1, k]
                    if (m + k) % 2 == 0:
                        assert lo == hi == 0.0
                        continue
                    want = 2 * m * l_mp / (mpmath.pi * (m * m - k * k))
                    assert mpmath.mpf(lo) <= want <= mpmath.mpf(hi), (L, m, k)
                    assert hi - lo < 1e-15


# -- serialization -----------------------------------------------------------------


def test_series_json_roundtrip_is_exact():
    u = _seeded_series(4, 23)
    for k in (0, -5):
        assert Series2D.from_json(u.to_json(k))[0] == k
    v = Series2D.from_json(u.to_json(0))[1]
    assert v.domain == u.domain
    assert np.array_equal(v.coeffs.lo, u.coeffs.lo)
    assert np.array_equal(v.coeffs.hi, u.coeffs.hi)
    assert (v.parity_x, v.parity_y) == (u.parity_x, u.parity_y)


# -- property suite ---------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_product_eval_containment(seed, x, y):
    """multiply(u, v)(x, y) and u(x, y) * v(x, y) enclose the same real value."""
    u = _seeded_series(3, seed)
    v = _seeded_series(3, seed + 1)
    w = multiply(u, v)
    a = w.eval(x, y)
    b = u.eval(x, y) * v.eval(x, y)
    assert intersects(a, b)
