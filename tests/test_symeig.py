"""Symmetric interval eigenvalue enclosures, checked against an independent
exact-inertia bisection oracle in rational arithmetic (equivalent to root
bracketing of the characteristic polynomial, but unconditionally sound)."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobemb import ivarray, symeig
from sobemb.certify import _b_matrix, _potential_matrix, default_split_order
from sobemb.intervals import Interval
from sobemb.ivarray import IArray, _dn, _up, imatmul
from sobemb.series import power_expand
from sobemb.symeig import EigEnclosure, SymMatrix, eig_enclosures


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


def _min_eig_bisect(m, lo: Fraction, hi: Fraction, iters: int = 120) -> tuple:
    """Bracket the smallest eigenvalue by exact-inertia bisection."""
    assert _count_below(m, lo) == 0, "lower bracket must lie below all eigenvalues"
    assert _count_below(m, hi) >= 1
    for _ in range(iters):
        midp = (lo + hi) / 2
        if _count_below(m, midp) == 0:
            lo = midp
        else:
            hi = midp
    return lo, hi


def _seeded_symmetric(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) * scale
    return 0.5 * (a + a.T)


def test_min_eig_against_charpoly_oracle():
    # [DERIVED] brute-force characteristic-polynomial bisection oracle
    a = _seeded_symmetric(5, 20240817)
    frac = [[Fraction(float(a[i, j])) for j in range(5)] for i in range(5)]
    gersh = max(sum(abs(float(a[i, j])) for j in range(5)) for i in range(5))
    lo, hi = _min_eig_bisect(frac, Fraction(-2 * int(gersh) - 2), Fraction(0))
    enc = eig_enclosures(SymMatrix.from_point(a)).lam_min
    assert Fraction(enc.lo) <= hi
    assert lo <= Fraction(enc.hi)
    assert enc.hi - enc.lo < 1e-8  # tight for a point matrix


def test_min_eig_oracle_more_seeds():
    for seed in (1, 7, 99):
        a = _seeded_symmetric(5, seed, scale=3.0)
        frac = [[Fraction(float(a[i, j])) for j in range(5)] for i in range(5)]
        gersh = max(sum(abs(float(a[i, j])) for j in range(5)) for i in range(5))
        lo, hi = _min_eig_bisect(frac, Fraction(-2 * int(gersh) - 2), Fraction(0))
        enc = eig_enclosures(SymMatrix.from_point(a)).lam_min
        assert Fraction(enc.lo) <= hi and lo <= Fraction(enc.hi)


def test_diagonal_matrix_exact():
    d = np.diag([3.0, -1.5, 7.0])
    enc = eig_enclosures(SymMatrix.from_point(d)).lam_min
    assert enc.lo <= -1.5 <= enc.hi
    assert eig_enclosures(SymMatrix.from_point(d)).min_abs_lower() <= 1.5


def test_interval_matrix_widens():
    a = _seeded_symmetric(4, 5)
    w = 1e-6
    m = SymMatrix(a, np.full(a.shape, w))
    enc_w = eig_enclosures(m).lam_min
    enc_p = eig_enclosures(SymMatrix.from_point(a)).lam_min
    assert enc_w.lo <= enc_p.lo and enc_p.hi <= enc_w.hi + 1e-12


def test_min_abs_eig_lower_straddling_disc_is_zero():
    # a matrix with an eigenvalue near zero gives a conservative 0 lower bound
    a = np.diag([1e-14, 2.0, 3.0])
    assert eig_enclosures(SymMatrix.from_point(a)).min_abs_lower() <= 1e-10


def test_wide_interval_matrix_discs_cover_members():
    # the disc union must cover the spectrum of every contained member
    n = 3
    wide = SymMatrix(np.zeros((n, n)), np.ones((n, n)))
    enc = eig_enclosures(wide)
    member = np.full((n, n), 0.9)  # eigenvalues {2.7, 0, 0}
    for lam in np.linalg.eigvalsh(member):
        assert np.any((enc.disc_lo <= lam) & (lam <= enc.disc_hi))


def test_rayleigh_upper_bound_is_above_lower():
    a = _seeded_symmetric(6, 11)
    enc = eig_enclosures(SymMatrix.from_point(a)).lam_min
    assert enc.lo <= enc.hi


@pytest.mark.parametrize("mid, rad", [
    (np.zeros((2, 2)), np.zeros((2, 3))),
    (np.zeros((2, 3)), np.zeros((2, 3))),
    (np.zeros(4), np.zeros(4)),
], ids=["radius-shape", "not-square", "not-2d"])
def test_mismatched_shapes_raise(mid, rad):
    with pytest.raises(ValueError):
        SymMatrix(mid, rad)


def _sampled_member(lo, hi, rng):
    """A real symmetric matrix inside [lo, hi] (lo, hi symmetric)."""
    t = rng.uniform(size=lo.shape)
    t = np.triu(t) + np.triu(t, 1).T
    return np.clip(lo + t * (hi - lo), lo, hi)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2 ** 31 - 1),
       st.sampled_from([0.0, 1e-15, 1e-9, 1e-4, 0.3, 2.0]),
       st.booleans())
def test_discs_cover_sampled_members(n, seed, rad, clustered):
    """Every eigenvalue of every member lies in the union of the discs, for
    point to wide radii and for midpoints with eigenvalue clusters of width
    1e-12, where eigh's eigenvectors are ill-determined."""
    rng = np.random.default_rng(seed)
    if clustered:
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        lam = np.repeat(rng.normal(size=(n + 1) // 2), 2)[:n]
        lam = lam + 1e-12 * rng.uniform(size=n)
        mid = (q * lam) @ q.T
    else:
        mid = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-3, 4)
    mid = 0.5 * (mid + mid.T)
    r = rad * np.abs(rng.uniform(size=(n, n)))
    r = 0.5 * (r + r.T)
    lo, hi = mid - r, mid + r
    enc = eig_enclosures(SymMatrix(mid, r))
    for _ in range(3):
        a = _sampled_member(lo, hi, rng)
        lams = np.linalg.eigvalsh(a)
        # slack for eigvalsh's own backward error
        slack = 8 * n * 2.0 ** -53 * np.max(np.abs(lams))
        for lam in lams:
            assert np.any((enc.disc_lo - slack <= lam) & (lam <= enc.disc_hi + slack))
        assert enc.lam_min.lo <= lams[0] + slack
        assert lams[0] <= enc.lam_min.hi + slack


def _old_discs(m: SymMatrix) -> EigEnclosure:
    """The discs of the interval-product formulation: C = V^T A V and
    G = V^T V as interval matrices, Gershgorin on C entry by entry, with A
    the interval matrix rounded outward from mid +- rad."""
    a = IArray(_dn(m.mid - m.rad), _up(m.mid + m.rad))
    n = m.n
    amid = 0.5 * (a.lo + a.hi)
    amid = 0.5 * (amid + amid.T)
    amid[np.abs(amid) < 1e-200] = 0.0
    _, v = np.linalg.eigh(amid)
    v[np.abs(v) < 1e-200] = 0.0
    vi = IArray(v)
    c = imatmul(vi.T, imatmul(a, vi))
    g = imatmul(vi.T, vi)
    eps = float(np.max(np.sum((g - IArray(np.eye(n))).mag(), axis=1)))
    e1 = _up(1.0 / math.sqrt(1.0 - 2.0 * eps) - 1.0)
    cnorm = float(np.max(np.sum(c.mag(), axis=1)))
    delta = _up(cnorm * (2.0 * e1 + e1 * e1) * (1.0 + 1e-12))
    cmag = c.mag()
    np.fill_diagonal(cmag, 0.0)
    radii = _up(np.sum(cmag, axis=1) * (1.0 + n * 2.0 ** -50) + delta)
    disc_lo = _dn(np.diag(c.lo) - radii)
    return EigEnclosure(disc_lo, _up(np.diag(c.hi) + radii), None)


def test_row_sum_discs_match_interval_products_on_c4_blocks(u_p3_n20):
    """On the odd-odd block of the p=3, N=20 center, the one K reads, the
    row-sum discs agree with the interval-product discs to 1e-12 relative,
    and the block minimum is no smaller (up to the last bits)."""
    u = u_p3_n20
    odd = np.arange(1, default_split_order(u, 3) + 1, 2)
    w = power_expand(u, 2).scale(Interval(3.0))
    lam = u.domain.lambda_grid(odd, odd).reshape(-1)
    d = IArray(1.0) / IArray(_dn(np.sqrt(lam.lo)), _up(np.sqrt(lam.hi)), _unsafe=True)
    b = _b_matrix(*_potential_matrix(w, odd, odd), d)
    old = _old_discs(b)
    enc = eig_enclosures(b)
    assert np.all(np.abs(enc.disc_lo - old.disc_lo) <= 1e-12 * np.abs(old.disc_lo))
    assert enc.min_abs_lower() >= old.min_abs_lower() * (1.0 - 1e-15)


def test_eig_enclosures_issues_no_interval_product(monkeypatch):
    """The spectrum step is three float GEMMs and matrix-vector row sums;
    an O(n^3) interval product inside it would show up here."""
    calls = []
    orig = ivarray.imatmul

    def counted(*args):
        calls.append(1)
        return orig(*args)

    monkeypatch.setattr(ivarray, "imatmul", counted)
    monkeypatch.setattr(symeig, "imatmul", counted, raising=False)
    a = _seeded_symmetric(12, 3)
    eig_enclosures(SymMatrix(a, np.full(a.shape, 1e-9)))
    assert calls == []
