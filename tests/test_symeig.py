"""The lower bound on min |eigenvalue| of a symmetric family (mid, eps) and
its count of negative eigenvalues, checked against an independent
exact-inertia bisection oracle in rational arithmetic (equivalent to root
bracketing of the characteristic polynomial, but unconditionally sound) and
against mpmath spectra of sampled members; each side of its lemma
recomputed exactly; and the platform assumption behind it, checked exactly
on this BLAS."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobemb import ivarray, symeig
from sobemb.certify import _potential_matrix
from sobemb.errors import NotInvertible
from sobemb.intervals import Interval
from sobemb.ivarray import _TINY, IArray, _dn, _gamma_fac, _up
from sobemb.series import power_expand
from sobemb.symeig import SymMatrix, eig_enclosures

from _oracles import b_matrix, default_split_order, eigh_directions, point_matrix


def _eigs_below(m, t: Fraction):
    """Number of eigenvalues of the exact symmetric Fraction matrix m that are
    < t, by Sylvester inertia: count negative pivots of the exact LDL^T
    factorization of m - tI.  Returns None on a zero pivot (caller nudges t)."""
    n = len(m)
    a = [[m[i][j] - (t if i == j else Fraction(0)) for j in range(n)]
         for i in range(n)]
    neg = 0
    for k in range(n):
        piv = a[k][k]
        if piv == 0:
            return None
        if piv < 0:
            neg += 1
        for i in range(k + 1, n):
            f = a[i][k] / piv
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return neg


def _count_below(m, t: Fraction) -> int:
    shift = Fraction(1, 10 ** 30)
    for _ in range(64):
        c = _eigs_below(m, t)
        if c is not None:
            return c
        t += shift
    raise AssertionError("could not find a regular pivot point")


def _min_abs_eig_bisect(m, hi: Fraction, iters: int = 120) -> tuple:
    """Bracket min |eigenvalue| by exact-inertia bisection: t is above it
    exactly when some eigenvalue lies in [-t, t)."""
    def inside(t):
        return _count_below(m, t) - _count_below(m, -t)

    lo = Fraction(0)
    assert inside(hi) >= 1
    for _ in range(iters):
        midp = (lo + hi) / 2
        if inside(midp) == 0:
            lo = midp
        else:
            hi = midp
    return lo, hi


def _seeded_symmetric(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) * scale
    return 0.5 * (a + a.T)


def _oracle(a):
    frac = [[Fraction(float(x)) for x in row] for row in a]
    gersh = max(sum(abs(x) for x in row) for row in frac)
    return _min_abs_eig_bisect(frac, gersh + 1)


def _bound_or_none(m: SymMatrix):
    try:
        return eig_enclosures(m)
    except NotInvertible:
        return None


def test_min_eig_against_charpoly_oracle():
    # [DERIVED] brute-force exact-inertia bisection oracle
    a = _seeded_symmetric(5, 20240817)
    lo, hi = _oracle(a)
    bound = eig_enclosures(point_matrix(a))
    assert Fraction(bound) <= lo
    assert hi - Fraction(bound) <= Fraction(1, 10 ** 9) * hi  # tight for a point matrix


def test_min_eig_oracle_more_seeds():
    for seed in (1, 7, 99):
        a = _seeded_symmetric(5, seed, scale=3.0)
        lo, hi = _oracle(a)
        bound = eig_enclosures(point_matrix(a))
        assert Fraction(bound) <= lo
        assert hi - Fraction(bound) <= Fraction(1, 10 ** 9) * hi


def test_diagonal_matrix_exact():
    d = np.diag([3.0, -1.5, 7.0])
    bound = eig_enclosures(point_matrix(d))
    assert 1.5 * (1.0 - 1e-12) <= bound <= 1.5


def test_interval_matrix_widens():
    """The bound falls by eps exactly (up to the last rounding): Weyl."""
    a = _seeded_symmetric(4, 5)
    w = 1e-6
    point = eig_enclosures(point_matrix(a))
    wide = eig_enclosures(SymMatrix(a, w, eigh_directions(a)))
    assert wide < point and abs(wide - (point - w)) <= 1e-15


def test_min_abs_eig_lower_straddling_disc_is_zero():
    # a matrix with an eigenvalue near zero gives no bound above it
    a = np.diag([1e-14, 2.0, 3.0])
    bound = _bound_or_none(point_matrix(a))
    assert bound is None or bound <= 1e-14


@pytest.mark.parametrize("mid, eps", [
    (np.zeros((2, 2)), np.zeros((2, 2))),
    (np.zeros((2, 3)), 0.0),
    (np.zeros(4), 0.0),
    (np.zeros((2, 2)), -1e-300),
    (np.zeros((2, 2)), np.inf),
], ids=["radius-shape", "not-square", "not-2d", "negative-eps", "infinite-eps"])
def test_mismatched_shapes_raise(mid, eps):
    with pytest.raises(ValueError):
        SymMatrix(mid, eps, np.ones(len(mid)))


def _mp_min_abs_eig(mid_lower, e):
    """min |eig(B~ + e)| in mpmath at 50 digits, B~ mirrored from the lower
    triangle of mid_lower, the sum formed exactly."""
    n = mid_lower.shape[0]
    with mpmath.workdps(50):
        a = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                b = mid_lower[max(i, j), min(i, j)]
                a[i, j] = mpmath.mpf(float(b)) + mpmath.mpf(float(e[i, j]))
        return min(abs(x) for x in mpmath.eigsy(a, eigvals_only=True))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2 ** 31 - 1),
       st.sampled_from([0.0, 1e-15, 1e-9, 1e-4, 0.3, 2.0]),
       st.booleans())
def test_bound_is_below_sampled_members(n, seed, eps, clustered):
    """The bound never exceeds min |eig(A)| (mpmath, 50 digits) of members
    A = B~ + E with ||E||_2 <= eps: a random E, and E = -c q q^T moving
    the eigenvalue of smallest modulus towards 0 (q its float eigenvector),
    the member Weyl's inequality is sharp on.  The midpoint has garbage in
    its strict upper triangle, which B~ ignores; clustered spectra (gaps
    of 1e-12) and point to wide eps are drawn."""
    rng = np.random.default_rng(seed)
    if clustered:
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        lam = np.repeat(rng.normal(size=(n + 1) // 2), 2)[:n]
        lam = lam + 1e-12 * rng.uniform(size=n)
        sym = (q * lam) @ q.T
    else:
        sym = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-3, 4)
    sym = 0.5 * (sym + sym.T)
    mid = sym + np.triu(rng.normal(size=(n, n)), 1)
    bound = _bound_or_none(SymMatrix(mid, eps, eigh_directions(mid)))
    if bound is None:
        return
    lam, vec = np.linalg.eigh(sym)
    k = int(np.argmin(np.abs(lam)))
    c = eps * (1.0 - 1e-6)
    x = _seeded_symmetric(n, seed + 1)
    norm = np.linalg.norm(x, 2)
    members = [-np.sign(lam[k]) * c * np.outer(vec[:, k], vec[:, k]),
               c * x / norm if norm > 0 else np.zeros((n, n))]
    for e in members:
        assert mpmath.mpf(bound) <= _mp_min_abs_eig(mid, e)


@pytest.mark.parametrize("n", [4, 8, 12])
def test_bound_is_tight_on_well_conditioned_seeds(n):
    """With eps = 0 and |eigenvalues| in [0.2, 2], the bound is within 1e-9
    of the exact min |eig| (mpmath, 50 digits), and never above it."""
    for seed in range(3):
        rng = np.random.default_rng(100 * n + seed)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        lam = rng.uniform(0.2, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        a = (q * lam) @ q.T
        a = np.tril(a) + np.tril(a, -1).T
        exact = _mp_min_abs_eig(a, np.zeros((n, n)))
        bound = eig_enclosures(point_matrix(a))
        assert mpmath.mpf(bound) <= exact
        assert exact - mpmath.mpf(bound) <= 1e-9


@pytest.mark.parametrize("delta", [0.0, 1e-300, 1e-14, 1e-8, 1e-3])
def test_family_with_eigenvalue_near_zero_is_not_certified(delta):
    """A family whose midpoint has an eigenvalue within eps of 0 (eps is its
    float modulus, or twice it, plus 1e-12 for the error of eigvalsh) holds
    a singular member, so the bound is <= 0 or NotInvertible; at eps = 0 it
    is at most that eigenvalue.  The old wide case (midpoint 0, eps 1) is
    among them."""
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    a = (q * np.array([delta, 1.0, -2.0, 0.5, 3.0, -1.0])) @ q.T
    a = 0.5 * (a + a.T)
    lam_min = float(np.min(np.abs(np.linalg.eigvalsh(a))))
    for eps in (lam_min + 1e-12, 2.0 * lam_min + 1e-12):
        bound = _bound_or_none(SymMatrix(a, eps, eigh_directions(a)))
        assert bound is None or bound <= 0.0
    bound = _bound_or_none(point_matrix(a))
    assert bound is None or bound <= delta + 1e-15
    zero = np.zeros((3, 3))
    assert _bound_or_none(SymMatrix(zero, 1.0, eigh_directions(zero))) in (None, -1.0)


def test_bound_on_c4_block_meets_float_spectrum(u_p3_n20):
    """On the odd-odd block of the p=3, N=20 center the bound sits below the
    float min |eig| of the midpoint by the block's eps and at most 1e-9
    relative more, and eps is far below the old Gershgorin radii (~1e-10)."""
    u = u_p3_n20
    odd = np.arange(1, default_split_order(u, 3) + 1, 2)
    w = power_expand(u, 2).scale(Interval(3.0))
    lam = u.domain.lambda_grid(odd, odd).reshape(-1)
    d = IArray(1.0) / IArray(_dn(np.sqrt(lam.lo)), _up(np.sqrt(lam.hi)), _unsafe=True)
    rows, eps = _potential_matrix(w, odd, odd)
    b = b_matrix(np.vstack([*rows]), eps, d)
    sym = np.tril(b.mid) + np.tril(b.mid, -1).T
    sigma = float(np.min(np.abs(np.linalg.eigvalsh(sym))))
    bound = eig_enclosures(b)
    assert 0.0 < b.eps < 1e-10
    assert sigma * (1.0 - 1e-9) - b.eps <= bound <= sigma - b.eps


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_mirror_is_the_tril_sum(n):
    """eig_enclosures mirrors the midpoint's lower triangle in place, in
    blocks of 64 rows; the result is bit for bit, signs of zero included,
    np.tril(a) + np.tril(a, -1).T, the B~ a SymMatrix stands for."""
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    a[rng.random((n, n)) < 0.2] = -0.0
    want = np.tril(a) + np.tril(a, -1).T
    got = symeig._mirror_lower(a.copy())
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_eig_enclosures_issues_no_interval_product(monkeypatch):
    """The spectrum step is float products and one factorization; an O(n^3)
    interval product inside it would show up here."""
    calls = []
    orig = ivarray.imatmul

    def counted(*args):
        calls.append(1)
        return orig(*args)

    monkeypatch.setattr(ivarray, "imatmul", counted)
    monkeypatch.setattr(symeig, "imatmul", counted, raising=False)
    a = _seeded_symmetric(12, 3)
    eig_enclosures(SymMatrix(a, 1e-9, eigh_directions(a)))
    assert calls == []


def _index_one(n, seed, lo=0.2, hi=2.0):
    """(a, v): a mirrored float B~ = Q diag(lam) Q^T with one eigenvalue in
    [-hi, -lo] and n - 1 in [lo, hi], and v its float eigenvector q_1."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = rng.uniform(lo, hi, size=n)
    lam[0] = -lam[0]
    a = (q * lam) @ q.T
    return np.tril(a) + np.tril(a, -1).T, q[:, 0].copy()


def _exact(a):
    return [[Fraction(float(x)) for x in row] for row in a]


def _row_sum_bound(x, y):
    """max_i ((|x| |y|) 1)_i, exactly."""
    col = [sum(abs(Fraction(float(v))) for v in row) for row in y]
    return max(sum(abs(Fraction(float(v))) * c for v, c in zip(row, col)) for row in x)


def test_cholesky_term_meets_its_lemma_exactly(monkeypatch):
    """(b) of the lemma of `eig_enclosures`, recomputed in exact rationals
    from the float factor L that `_deflated_floor` itself computed (captured
    from np.linalg.cholesky).  B~ = C - tau0 v v^T is C, positive definite,
    less a rank-one term 2^20 times larger, and tau = tau0 cancels it: the
    rounding of tau v v^T then outweighs every other error, so dropping the
    rank-one formation error fails here.  With A the symmetric matrix from
    the lower triangle that was factored and F = ||(B~ + tau v v^T - s I) -
    A||_inf taken exactly, the floor must be at most

        s - F - g ||(|L| |L^T|) 1||_inf - n _TINY,    g = `_gamma_fac(n + 1)`,

    and no eigenvalue of the exact B~ + tau v v^T lies below it; B~ is put
    back bit for bit."""
    n = 10
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    c = (q * np.linspace(0.5, 2.0, n)) @ q.T
    v = rng.normal(size=(n, 1))
    v /= np.linalg.norm(v)
    tau = 2.0 ** 20
    b = c - tau * (v @ v.T)
    b = np.tril(b) + np.tril(b, -1).T
    before = b.copy()
    seen = []
    cholesky = np.linalg.cholesky

    def spy(a):
        low = cholesky(a)
        seen.append((a.copy(), low.copy()))
        return low

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    g = _gamma_fac(n + 1)
    s = 0.25
    floor = symeig._deflated_floor(b, v, tau, [s], g)
    ((a, low),) = seen
    assert np.array_equal(b, before)
    a = np.tril(a) + np.tril(a, -1).T
    vf = [Fraction(float(x)) for x in v[:, 0]]
    exact = [[Fraction(float(x)) + Fraction(tau) * vf[i] * vf[j] - (Fraction(s) if i == j else 0)
              for j, x in enumerate(row)] for i, row in enumerate(b)]
    f = max(sum(abs(x - Fraction(float(y))) for x, y in zip(er, ar)) for er, ar in zip(exact, a))
    assert f > 1e-12  # the rank-one rounding dominates
    bound = Fraction(s) - f - Fraction(g) * _row_sum_bound(low, low.T) - n * Fraction(_TINY)
    assert 0 < Fraction(floor) <= bound
    shifted = [[x + (Fraction(s) if i == j else 0) for j, x in enumerate(row)]
               for i, row in enumerate(exact)]
    assert _count_below(shifted, Fraction(floor)) == 0


@pytest.mark.parametrize("k", [1, 2])
def test_rayleigh_side_meets_its_lemma_exactly(k):
    """(a) of the lemma of `eig_enclosures` in exact rationals: on index-k
    blocks with perturbed eigenvectors V (not Rayleigh-quotient exact), the
    returned mu makes V^T B~ V + mu V^T V negative definite, that is
    every Rayleigh quotient on span V lies strictly below -mu; for k = 1,
    mu is below minus the exact quotient v^T B~ v / v^T v.  A quotient
    rounded to nearest lands above it on about half of these seeds."""
    for seed in range(24):
        rng = np.random.default_rng(seed)
        n = 9
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        lam = rng.uniform(0.2, 2.0, size=n) * 10.0 ** rng.uniform(-3, 3)
        lam[:k] = -lam[:k]
        b = (q * lam) @ q.T
        b = np.tril(b) + np.tril(b, -1).T
        v = q[:, :k] + 1e-3 * rng.normal(size=(n, k))
        v /= np.linalg.norm(v, axis=0)
        mu, _, keep = symeig._negative_side(b, v, _gamma_fac(n + 1))
        assert keep.all() and mu > 0.0
        bf, vf = _exact(b), _exact(v)
        compressed = [[sum(vf[r][i] * bf[r][c] * vf[c][j] for r in range(n) for c in range(n))
                       + Fraction(mu) * sum(vf[r][i] * vf[r][j] for r in range(n))
                       for j in range(k)] for i in range(k)]
        assert _count_below(compressed, Fraction(0)) == k  # negative definite


@pytest.mark.parametrize("n", [4, 6, 8])
def test_deflated_bound_against_exact_inertia(n):
    """On random index-1 matrices, with v the float eigenvector of the
    negative eigenvalue and with v perturbed by 1e-2, the bound lies below
    the exact-inertia oracle's bracket of min |eig|, exactly one eigenvalue
    lies below -bound and none in [-bound, bound), so the index is 1; with
    the float eigenvector the bound is within 1e-9 of the bracket, and
    neither calls np.linalg.eigh.  The positive eigenvector in its place is
    dropped as not negative, and the block is then not proved."""
    for seed in range(3):
        a, v = _index_one(n, 1000 * n + seed)
        rng = np.random.default_rng(seed)
        lo, hi = _oracle(a)
        frac = _exact(a)
        for w, tight in ((v, True), (v + 1e-2 * rng.normal(size=n), False)):
            m = SymMatrix(a.copy(), 0.0, w)
            bound = eig_enclosures(m)
            assert m.index == 1
            assert 0 < Fraction(bound) <= lo
            assert _count_below(frac, -Fraction(bound)) == 1
            assert _count_below(frac, Fraction(bound)) == 1
            if tight:
                assert hi - Fraction(bound) <= Fraction(1, 10 ** 9) * hi
        lam, vec = np.linalg.eigh(a)
        with pytest.raises(NotInvertible):
            eig_enclosures(SymMatrix(a.copy(), 0.0, vec[:, -1]))


@pytest.mark.parametrize("bump", [1e-9, 1e-3])
def test_deflated_floor_retries_below_an_estimate_too_high(monkeypatch, bump):
    """The Lanczos estimate, raised by `bump` above the least eigenvalue 0.3
    of the deflated B~ + tau v v^T (n = 40, spectrum -0.7 and 0.3 ... 2, v
    the float eigenvector of -0.7), puts the first shifts above it, so
    their factorizations fail and the margin widens 2^10-fold each time.
    By 1e-9 the third shift lies below 0.3 and factors, and the bound lies
    below the exact min |eig| (exact inertia); by 1e-3 all _TRIES shifts
    fail and the block is NotInvertible.  Either way B~ is put back bit for
    bit."""
    n = 40
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = (q * np.concatenate([[-0.7], np.linspace(0.3, 2.0, n - 1)])) @ q.T
    a = np.tril(a) + np.tril(a, -1).T
    lanczos, cholesky, tries = symeig._lanczos_min, np.linalg.cholesky, []

    def bumped(b, v, tau):
        theta, radius = lanczos(b, v, tau)
        return theta + bump, radius

    def counted(x):
        tries.append(None)
        return cholesky(x)

    monkeypatch.setattr(symeig, "_lanczos_min", bumped)
    monkeypatch.setattr(np.linalg, "cholesky", counted)
    m = SymMatrix(a.copy(), 0.0, q[:, 0])
    if bump > 1e-6:
        with pytest.raises(NotInvertible):
            eig_enclosures(m)
        assert len(tries) == symeig._TRIES
    else:
        bound = eig_enclosures(m)
        frac = _exact(a)
        assert len(tries) > 1 and m.index == 1 and 0.0 < bound < 0.3
        assert _count_below(frac, -Fraction(bound)) == 1
        assert _count_below(frac, Fraction(bound)) == 1
    assert np.array_equal(m.mid, a)


# -- the platform assumption: classical inner products in BLAS and LAPACK -------


def _scaled_ints(xs):
    """Each float array of xs times 2^-e as nested lists of exact Python ints,
    e at or below the last bit of every entry; returns (lists, e)."""
    exps = [np.frexp(x)[1][x != 0] for x in xs]
    e = min(min((int(v.min()) for v in exps if v.size), default=0), 0) - 53
    out = []
    for x in xs:
        m, ex = np.frexp(x)
        mant = (m * 2.0 ** 53).astype(np.int64)
        out.append([[int(v) << int(s) for v, s in zip(r, sr)]
                    for r, sr in zip(mant, ex - 53 - e)])
    return out, e


def _entries(n, rng):
    """Every lower entry for small n; else the diagonal, the last row and
    2000 random lower entries."""
    if n <= 64:
        return [(i, j) for i in range(n) for j in range(i + 1)]
    pick = {(i, i) for i in range(n)} | {(n - 1, j) for j in range(n)}
    i, j = rng.integers(0, n, size=(2, 2000))
    return sorted(pick | {(max(a, b), min(a, b)) for a, b in zip(i, j)})


def _spd(n, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "gram":
        x = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-2, 2, size=n)
        return x @ x.T / n + 1e-6 * np.eye(n)
    if kind == "deflated":
        # what eig_enclosures factors: an index-1 B~ plus tau v v^T, shifted
        # to just below its smallest eigenvalue
        b, v = _index_one(n, seed)
        a = b + 4.0 * np.outer(v, v)
        a[np.diag_indices(n)] -= float(np.linalg.eigvalsh(a)[0]) * (1.0 - 1e-6)
        return a
    # a shifted square B^2 - s I, s just below the smallest eigenvalue of
    # B^2: positive definite with a factor of entries of both signs
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = rng.uniform(0.1, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    b = (q * lam) @ q.T
    b = np.tril(b) + np.tril(b, -1).T
    a = b @ b
    a[np.diag_indices(n)] -= float(np.min(lam * lam)) * (1.0 - 1e-6)
    return a


@pytest.mark.parametrize("n, kind", [(5, "gram"), (40, "square"), (64, "gram"),
                                     (300, "gram"), (300, "square"), (40, "deflated"),
                                     (300, "deflated")])
def test_cholesky_backward_error_holds_exactly(n, kind):
    """Higham's Theorem 10.3, which `eig_enclosures` rests on: the factor L
    of np.linalg.cholesky(A) satisfies |L L^T - A| <= gamma_{n+1} |L| |L^T|
    entrywise, checked in exact integer arithmetic.  n = 300 runs LAPACK's
    blocked factorization, whose updates are GEMMs."""
    a = _spd(n, n, kind)
    low = np.linalg.cholesky(a)
    (li, ai), e = _scaled_ints([low, a])
    k = n + 1  # gamma_k = k / (2^53 - k)
    for i, j in _entries(n, np.random.default_rng(n)):
        prod = sum(x * y for x, y in zip(li[i], li[j]))
        mag = sum(abs(x * y) for x, y in zip(li[i], li[j]))
        diff = abs(prod - (ai[i][j] << -e))
        assert diff * (2 ** 53 - k) <= k * mag, (i, j)


@pytest.mark.parametrize("n", [7, 300])
def test_gemm_error_bound_holds_exactly(n):
    """|fl(B B) - B B| <= gamma_n |B| |B| entrywise for np.matmul, the bound
    behind every float matrix product of the certifier (the potential
    matrix's rows, the block bound's rank-k update), checked in exact
    integers."""
    rng = np.random.default_rng(n)
    b = _seeded_symmetric(n, n) * 10.0 ** rng.uniform(-3, 3, size=n)
    b = np.tril(b) + np.tril(b, -1).T
    s = b @ b
    (bi, si), e = _scaled_ints([b, s])
    for i, j in _entries(n, rng):
        prod = sum(x * y for x, y in zip(bi[i], bi[j]))  # B symmetric: column j is row j
        mag = sum(abs(x * y) for x, y in zip(bi[i], bi[j]))
        diff = abs(prod - (si[i][j] << -e))
        assert diff * (2 ** 53 - n) <= n * mag, (i, j)


@pytest.mark.parametrize("n", [7, 300])
def test_gemv_error_bound_holds_exactly(n):
    """The products of the Rayleigh quotient in `eig_enclosures`, Y~ =
    fl(B~ v) and H~ = fl(v^T Y~), with v one column as there: |Y~ - B~ v|
    <= gamma_n |B~| |v| and |H~ - v^T Y~| <= gamma_n |v|^T |Y~|, checked in
    exact integers."""
    rng = np.random.default_rng(n)
    b = _seeded_symmetric(n, n + 1) * 10.0 ** rng.uniform(-3, 3, size=n)
    b = np.tril(b) + np.tril(b, -1).T
    v = rng.normal(size=(n, 1)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    y = b @ v
    h = v.T @ y
    (bi, vi, yi, hi), e = _scaled_ints([b, v.T, y.T, h])
    for i in range(n):
        prod = sum(x * z for x, z in zip(bi[i], vi[0]))
        mag = sum(abs(x * z) for x, z in zip(bi[i], vi[0]))
        assert abs(prod - (yi[0][i] << -e)) * (2 ** 53 - n) <= n * mag, i
    prod = sum(x * z for x, z in zip(vi[0], yi[0]))
    mag = sum(abs(x * z) for x, z in zip(vi[0], yi[0]))
    assert abs(prod - (hi[0][0] << -e)) * (2 ** 53 - n) <= n * mag
