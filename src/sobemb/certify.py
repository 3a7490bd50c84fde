"""Rigorous certification of approximate extremizers.

Given floating sine coefficients u-hat for -Laplace u = u^p, this module
derives, entirely in interval arithmetic:

  * defect bounds  delta >= ||Lap u-hat + u-hat^p||  (H^-1 and L2),
  * an inverse-linearization bound K >= ||(-Lap - p u-hat^{p-1})^{-1}||
    on X, as an operator X^* -> X: X_s, the odd-odd sine modes (functions
    symmetric about both mid-lines, where the extremizer lies), on a
    rectangle, and X_sym, those also symmetric about the diagonal, on a
    square; via eigenvalue enclosures of a finite preconditioned section
    and a tail bound, joined through the Schur complement of the
    section-tail coupling,
  * a Lipschitz bound g for the derivative on a trial ball,
  * a Newton-Kantorovich existence/uniqueness ball in X (radius r_h1) for
    -Lap u = u^p; for even p its solution is nonnegative by the weak
    maximum principle, so it also solves -Lap u = |u|^{p-1} u
    (`inverse_bound`),
  * an L-infinity error radius r_inf in closed form,
  * a positiveness certificate, (r_inf + sup u_-)^{p-1} < lambda_1 and
    r_h1 < ||u-hat||_{H^1_0}: the solution in the ball is then positive by
    the lemma of `positiveness_certificate`.

Certification is a function of the center and p alone: the split order is
`default_split_order(u, p)` and nothing else is settable.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .bounds import classical_upper
from .errors import (
    CapacityError,
    ConditionFailure,
    DomainError,
    NotInvertible,
)
from .intervals import PI, Interval, iv_pow_int, iv_sqrt
from .ivarray import _TINY, IArray, _dn, _gamma_fac, _up, imatmul, isum
from .series import (
    COS,
    MAX_DENSE_ROWS,
    SIN,
    DomainRect,
    Series2D,
    _axis_overlap,
    _axis_overlaps,
    lp_norm,
    negative_part_sup,
    odd_odd_order,
    power_expand,
)
from .symeig import SymMatrix, eig_enclosures

UNIQUE_RADIUS_CAP = 1e300
LINF_BOX = 400  # modes per side summed exactly in the L-infinity constant
COUPLING_TARGET = 0.02  # largest section-tail coupling c the split order accepts


# -- defect ---------------------------------------------------------------------


def defect_bounds(u: Series2D, p: int) -> tuple:
    """(delta_hminus1, delta_l2) bounding the defect Lap u + u^p.

    Odd p: the defect is an exact finite sine series, measured coefficient-
    wise.  Even p: u^p is a cosine-parity series, so f = Lap u + u^p has an
    infinite sine expansion.  ||f||_L2 is integrated exactly; ||f||_H^-1 is
    exact on the sine modes up to M, the length of u^p, and the rest of f
    lies above lambda_tail(M) with L2 mass ||f||^2 - ||P_M f||^2: an
    odd-odd u makes f symmetric about both mid-lines, so its sine modes are
    odd-odd too (`_check_center`).
    """
    if p not in (2, 3, 4, 5):
        raise DomainError(f"exponent p must be in 2..5, got {p}")
    _check_center(u)
    dom = u.domain
    quarter = dom.measure() * Interval(0.25)
    v = power_expand(u, p)
    lam_u = dom.lambda_grid(u.modes_x(), u.modes_y())
    sx, sy = u.coeffs.shape

    if p % 2 == 1:
        nx, ny = v.coeffs.shape
        d = IArray.zeros((nx, ny))
        d[:sx, :sy] = u.coeffs * lam_u
        d = v.coeffs - d
        lam_big = dom.lambda_grid(v.modes_x(), v.modes_y())
        d2 = d.square()
        l2 = iv_sqrt(_nonneg(isum(d2)) * quarter)
        hm1 = iv_sqrt(_nonneg(isum(d2 / lam_big)) * quarter)
        return hm1, l2

    # P_M f has the sine coefficients s = (4/|Omega|) Wx v Wy^T plus lap
    lap = -(u.coeffs * lam_u)
    m = v.coeffs.shape[0]
    wx, wy = _axis_overlaps((SIN, m, COS, v.coeffs.shape[0], dom.L1),
                            (SIN, m, COS, v.coeffs.shape[1], dom.L2))
    s = imatmul(imatmul(wx, v.coeffs), wy.T) * IArray._coerce(
        Interval(4.0) / dom.measure())
    sq = _nonneg(
        _nonneg(isum(lap.square()) * quarter)
        + Interval(2.0) * isum(lap * s[:sx, :sy]) * quarter
        + _nonneg(isum(v.coeffs.square() * v._l2_weight_grid()))
    )
    l2 = iv_sqrt(sq)

    s[:sx, :sy] = s[:sx, :sy] + lap
    s2 = s.square()
    modes = np.arange(1, m + 1)
    head_l2 = _nonneg(isum(s2) * quarter)
    head_hm1 = _nonneg(isum(s2 / dom.lambda_grid(modes, modes)) * quarter)
    tail = _nonneg(Interval(sq.hi) - Interval(head_l2.lo)) / _tail_lambda(dom, m)
    hm1 = iv_sqrt(head_hm1 + tail)
    return Interval(0.0, hm1.hi), Interval(0.0, l2.hi)


def _nonneg(iv: Interval) -> Interval:
    return Interval(max(iv.lo, 0.0), max(iv.hi, 0.0))


# -- inverse-linearization bound --------------------------------------------------


def _triple_overlap(parity: str, n: int, L: float, modes: np.ndarray) -> IArray:
    """X[(i,k), a] = int_0^L b_a sin_i sin_k over one side, for the first n
    basis functions b_a of the given parity, by sin i sin k = (cos|i-k| -
    cos(i+k))/2 and the exact cosine overlaps of b_a."""
    w = _axis_overlap(COS, 2 * int(modes.max()) + 1, parity, n, L)
    x = w[np.abs(modes[:, None] - modes[None, :])] - w[modes[:, None] + modes[None, :]]
    return (x * IArray._coerce(Interval(0.5))).reshape(len(modes) ** 2, n)


def _fro(x: np.ndarray) -> float:
    """Upper bound on the Frobenius norm of the float array x
    (`_fro_bound`)."""
    x = x.ravel()
    return _fro_bound(float(x @ x), x.size)


def _fro_bound(sq: float, k: int) -> float:
    """Upper bound on the Frobenius norm of k float entries from sq, the
    float sum of their squares in any order: the pad 4 gamma_k covers that
    sum and the square root, and sqrt(k) 1e-150 the squares lost below the
    normal range."""
    return float(_up(math.sqrt(sq) * (1.0 + 4.0 * _gamma_fac(k)) + math.sqrt(k) * 1e-150))


def _potential_matrix(w: Series2D, mx: np.ndarray, my: np.ndarray) -> tuple:
    """(rows, eps), eps >= ||M - mid||_F for the mode-basis matrix
    M[(i,j),(k,l)] = (4/|Omega|) int W phi_ij phi_kl of every potential W
    in w on the sine modes mx x my, as X w Y^T per axis, and rows yielding
    mid one mode i of mx at a time: the row slice (i, j), j over my, in
    order.  Nothing holds mid whole; `_fold` takes the slices as they come.
    The rows and columns of w's coefficients that are exactly [0, 0] (every
    other one, for a potential of one mode parity per axis) add nothing and
    are left out, which halves the inner dimension k and so gamma_k.  Where
    both axes have the same parity, length, side and modes, as on a square,
    the triple overlap of the x-axis serves the y-axis too.

    Lemma.  With P = X w (`imatmul`), P_m, P_r, Y_m, Y_r the midpoints and
    radii of P and Y, and mid = fl(P_m Y_m^T): P Y^T - mid = (P - P_m) Y^T
    + P_m (Y - Y_m)^T + (P_m Y_m^T - mid), |Y| <= |Y_m| + Y_r,
    ||A B^T||_F <= ||A||_F ||B||_F and |P_m Y_m^T - mid| <= gamma_k |P_m|
    |Y_m|^T (any summation order, FMA allowed), so ||M - mid||_F <=
    ||P_r||_F || |Y_m| + Y_r ||_F + ||P_m||_F (||Y_r||_F + gamma_k ||Y_m||_F)
    + a b k _TINY (underflow).  The pad 2^-45 covers the roundings of that
    sum, and the permutation ((i,k),(j,l)) -> ((i,j),(k,l)) keeps the norm."""
    dom = w.domain
    mag = w.coeffs.mag()
    kx, ky = np.flatnonzero(mag.any(axis=1)), np.flatnonzero(mag.any(axis=0))
    ox = _triple_overlap(w.parity_x, w.coeffs.shape[0], dom.L1, mx)
    same = ((w.parity_x, w.coeffs.shape[0], dom.L1) == (w.parity_y, w.coeffs.shape[1], dom.L2)
            and np.array_equal(mx, my))
    oy = ox if same else _triple_overlap(w.parity_y, w.coeffs.shape[1], dom.L2, my)
    px, py = ox[:, kx], oy[:, ky]
    wc = w.coeffs[np.ix_(kx, ky)] * IArray._coerce(Interval(4.0) / dom.measure())
    p = imatmul(px, wc)
    pm, pr, ym, yr = p.mid(), p.rad(), py.mid(), py.rad()
    a, b = len(mx), len(my)
    eps = (_fro(pr) * _fro(_up(np.abs(ym) + yr))
           + _fro(pm) * (_fro(yr) + _gamma_fac(len(ky)) * _fro(ym)) + a * b * len(ky) * _TINY)
    rows = ((pm[i * a:(i + 1) * a] @ ym.T)  # (k, (j,l)) -> (j, (k,l))
            .reshape(a, b, b).transpose(1, 0, 2).reshape(b, -1) for i in range(a))
    return rows, float(_up(eps * (1.0 + 2.0 ** -45)))


def _b_matrix(f_mid: np.ndarray, f_eps: float, d: IArray, pair=None) -> SymMatrix:
    """B = I - D' F D' as the SymMatrix `eig_enclosures` reads, for every d
    in d and every symmetric F with ||S (F - f_mid) S||_F <= f_eps; D' =
    S diag(d), S = diag(s), s = 1/sqrt(2) on the rows in `pair`, else 1.

    Lemma.  Let d' = s d (an enclosure), d_m = mid(d'), kappa >=
    max_i |d'_i - d_m,i| / d'.lo_i, u = 2^-53, P~ = fl(fl(f_mid,ij d_m,i)
    d_m,j) and mid = fl(I - P~).  B - mid is the sum of D' (F - f_mid) D',
    of Frobenius norm <= max(d.hi)^2 f_eps; D' f_mid D' - D_m f_mid D_m,
    entrywise <= 2 kappa (1 + kappa)^2 |D_m f_mid D_m|, as |d'_i d'_j -
    d_m,i d_m,j| <= 2 kappa d'.hi_i d'.hi_j and d'.hi <= (1 + kappa) d_m;
    D_m f_mid D_m - P~, entrywise <= gamma_2 |D_m f_mid D_m|, where
    |D_m f_mid D_m| <= (1 + 4u) |P~|; underflow, n _TINY in all; and the
    rounding of 1 - P~_ii, a diagonal of 2-norm <= 2u max |mid_ii|.  B is
    symmetric, so B - B~ (B~ the mirrored mid) is the rest mirrored from its
    lower triangle, which at most doubles its squared Frobenius norm, plus
    that diagonal: ||B - B~||_2 <= sqrt(2) e + 2u max |mid_ii| with e the
    sum of the Frobenius bounds.  The pad 2^-45 covers their roundings.
    """
    dmax = float(np.max(d.hi))
    if pair is not None:
        d = d.copy()
        d[pair] = d[pair] * IArray._coerce(iv_sqrt(Interval(0.5)))
    dm = d.mid()
    kappa = float(np.max(_up(np.maximum(d.hi - dm, dm - d.lo) / d.lo)))
    mid = f_mid * dm[:, None]
    mid *= dm
    e = (dmax * dmax * f_eps + len(dm) * _TINY
         + (2.0 * kappa * (1.0 + kappa) ** 2 + 2.0 ** -51) * (1.0 + 2.0 ** -51) * _fro(mid))
    mid *= -1.0
    diag = np.diag_indices_from(mid)
    mid[diag] += 1.0
    eps = _up(math.sqrt(2.0)) * e + 2.0 ** -52 * float(np.max(np.abs(mid[diag])))
    return SymMatrix(mid, float(_up(eps * (1.0 + 2.0 ** -45))))


def _tail_lambda(dom: DomainRect, nprime: int) -> Interval:
    """Smallest eigenvalue of an odd-odd sine mode with an index above
    nprime: the smallest odd index k > nprime on one axis, 1 on the other."""
    k = nprime + 1 + nprime % 2
    a = dom.lambda_mode(k, 1)
    b = dom.lambda_mode(1, k)
    return Interval(min(a.lo, b.lo), min(a.hi, b.hi))


def _wbar(u: Series2D, p: int) -> Interval:
    """Wbar >= p sup|u|^{p-1}, the sup of the potential."""
    return Interval(float(p)) * iv_pow_int(u.sup_abs_bound(), p - 1)


def _potential(u: Series2D, p: int) -> Series2D:
    """The potential w = p u^{p-1} of the linearization, kept on u."""
    return u.fact(("potential", p),
                  lambda: power_expand(u, p - 1).scale(Interval(float(p))))


def _coupling_terms(u: Series2D, p: int) -> tuple:
    """(Wt, H/sqrt(lambda_1) + 2G) as intervals, kept on u: the parts of the
    coupling bound of `inverse_bound` (iii) that are the same at every split
    order.  Wt = Wbar.hi/2, plus p eta^{p-1} for even p (eta >= sup u_-),
    bounds |w - Wbar.hi/2|; G and H bound sup|grad w| and sup|Lap w| of the
    potential w (`grad_sup_bound`, `lap_sup_bound`)."""
    def compute():
        w = _potential(u, p)
        wt = Interval(_wbar(u, p).hi) * Interval(0.5)
        if p % 2 == 0:
            wt = wt + Interval(float(p)) * iv_pow_int(Interval(negative_part_sup(u)), p - 1)
        root1 = iv_sqrt(u.domain.lambda1())
        return wt, w.lap_sup_bound() / root1 + Interval(2.0) * w.grad_sup_bound()

    return u.fact(("coupling_terms", p), compute)


def _coupling(u: Series2D, p: int, nprime: int) -> float:
    """c = (H/sqrt(lambda_1) + 2G + Wt sqrt(lambda_F))/lambda_tail^{3/2} >=
    ||B_FT|| at the split order nprime, rounded up, lambda_F = lambda(n', n')
    the largest eigenvalue of a section mode (`inverse_bound` (iii))."""
    wt, h = _coupling_terms(u, p)
    lam = _tail_lambda(u.domain, nprime)
    return ((h + wt * iv_sqrt(u.domain.lambda_mode(nprime, nprime))) / (lam * iv_sqrt(lam))).hi


def default_split_order(u: Series2D, p: int) -> int:
    """The split order n' of `inverse_bound`, kept on u
    (`_choose_split_order`)."""
    return u.fact(("split_order", p), lambda: _choose_split_order(u, p))


def _choose_split_order(u: Series2D, p: int) -> int:
    """The smallest odd n with lambda_tail > Wbar and c <= COUPLING_TARGET,
    c of `_coupling` evaluated in floats, scanned over every odd n whose
    odd-odd block, ceil(n/2)^2 rows, fits in MAX_DENSE_ROWS; CapacityError
    if none does.  On a square the potential matrix is folded to X_sym row
    by row as it is assembled, but its columns only once every row is in, so
    those rows, not the folded ones, bound the peak memory.  n' is a cost
    choice and no hypothesis of `inverse_bound`, so a rounding that moves it
    by a step where c sits on the target moves only the cost."""
    dom = u.domain
    wt, h = (x.hi for x in _coupling_terms(u, p))
    n = np.arange(1, 2 * math.isqrt(MAX_DENSE_ROWS), 2, dtype=np.float64)
    ix, iy = 1.0 / (dom.L1 * dom.L1), 1.0 / (dom.L2 * dom.L2)
    k2 = (n + 2.0) ** 2  # the smallest odd index above n, as in `_tail_lambda`
    lam = math.pi ** 2 * np.minimum(k2 * ix + iy, ix + k2 * iy)
    lam_f = math.pi ** 2 * n * n * (ix + iy)
    c = (h + wt * np.sqrt(lam_f)) / (lam * np.sqrt(lam))
    ok = (lam > _wbar(u, p).hi) & (c <= COUPLING_TARGET)
    if not ok.any():
        rows = ((int(n[-1]) + 1) // 2) ** 2
        raise CapacityError(f"coupling {c[-1]:.4e} > {COUPLING_TARGET} at split order "
                            f"{int(n[-1])}, the largest whose block of {rows} rows fits "
                            f"in {MAX_DENSE_ROWS}")
    return int(n[np.argmax(ok)])


def _coupled_gap(m: float, t: float, c: float) -> Interval:
    """Enclosure of s*, the smaller root of (m - s)(t - s) = c^2, in the
    stable form min(m, t) - 2c^2 / (|m - t| + sqrt((m - t)^2 + 4c^2)).
    The correction never exceeds c; that bound stands in where the
    denominator underflows to 0 (m == t and c ~ 0)."""
    d = abs(Interval(m) - Interval(t))
    c2 = Interval(c) * Interval(c)
    den = d + iv_sqrt(_nonneg(d * d + Interval(4.0) * c2))
    corr = Interval(2.0) * c2 / den if den.lo > 0.0 else Interval(c)
    return Interval(min(m, t)) - corr


def _check_center(u: Series2D) -> None:
    """DomainError unless u's coefficient array is square, as the
    certificate's order N assumes, and odd-odd, as the odd-odd tails assume
    (`odd_odd_order`), and on a square domain also bitwise
    transpose-symmetric, as the fold of `inverse_bound` assumes."""
    odd_odd_order(u)
    c = u.coeffs
    if u.domain.is_square() and not (np.array_equal(c.lo, c.lo.T)
                                     and np.array_equal(c.hi, c.hi.T)):
        raise DomainError(
            "center coefficients are not transpose-symmetric; on a square "
            "the positive solution is symmetric about the diagonal x = y"
        )


def _orbits(dom: DomainRect, n: int) -> tuple:
    """(rep, partner): row indices of (i, j) and (j, i), i <= j, in the
    n x n mode grid for each orbit of the swap (i, j) -> (j, i) on a square;
    on a rectangle every mode is its own orbit and both are the identity."""
    idx = np.arange(n * n).reshape(n, n)
    if not dom.is_square():
        return idx.reshape(-1), idx.reshape(-1)
    i, j = np.triu_indices(n)
    return idx[i, j], idx[j, i]


def _fold(rows, m_eps: float, rep: np.ndarray, partner: np.ndarray) -> tuple:
    """(f_mid, f_eps): f_mid the float sums of m_mid over the distinct
    members of the orbits of rep[r] and rep[s] (1, 2 or 4 entries), and
    f_eps >= ||S (F - f_mid) S||_F for F those sums of every M with
    ||M - m_mid||_F <= m_eps; S = diag(s), s = 1/sqrt(2) on the pairs i < j.
    The square m_mid comes as `rows`, its consecutive row slices in order,
    and each row goes into its orbit's row as it comes: the rep row, which
    precedes its partner (`_orbits`), is copied and the partner added to
    it.  The columns are folded the same way once every row is in.

    Lemma.  With Q the orthonormal orbit basis (columns e_ii and
    (e_ij + e_ji)/sqrt(2)), S F(A) S = Q^T A Q, whose Frobenius norm is at
    most that of A.  An entry of f_mid adds its terms in at most two rounds
    (a row fold, then a column fold), so |f_mid - F(m_mid)| <= gamma_2
    F(|m_mid|) entrywise, and f_eps = m_eps + 4u ||m_mid||_F, padded by
    2^-45.  On a rectangle every orbit has one member and nothing changes.
    """
    pair = rep != partner
    orbit = np.empty(len(rep) + np.count_nonzero(pair), dtype=np.intp)
    orbit[partner] = orbit[rep] = np.arange(len(rep))
    second = np.zeros(len(orbit), dtype=bool)
    second[partner[pair]] = True
    g, sq, top = np.empty((len(rep), len(orbit))), 0.0, 0
    for x in rows:
        r = np.arange(top, top + len(x))
        top += len(x)
        add = second[r]
        g[orbit[r[~add]]] = x[~add]
        g[orbit[r[add]]] += x[add]
        sq += float(x.ravel() @ x.ravel())
    if not pair.any():
        return g, m_eps
    f = g[:, rep]
    f[:, pair] += g[:, partner[pair]]
    m_fro = _fro_bound(sq, len(orbit) ** 2)
    return f, float(_up((m_eps + 2.0 ** -51 * m_fro) * (1.0 + 2.0 ** -45)))


def _folded_block(w: Series2D, modes: np.ndarray) -> SymMatrix:
    """B = I - D' F D' of the potential w on the sine modes `modes` x `modes`
    in the orthonormal basis of its swap orbits: F = `_fold` of the Galerkin
    matrix and d' = s Lam^{-1/2}, s = 1/sqrt(2) on the pairs i < j and 1
    elsewhere; on a rectangle, the block on all those modes."""
    dom = w.domain
    rep, partner = _orbits(dom, len(modes))
    lam = dom.lambda_grid(modes, modes).reshape(-1)[rep]
    d = IArray(1.0) / IArray(_dn(np.sqrt(lam.lo)), _up(np.sqrt(lam.hi)), _unsafe=True)
    f_mid, f_eps = _fold(*_potential_matrix(w, modes, modes), rep, partner)
    return _b_matrix(f_mid, f_eps, d, rep != partner)


@dataclass(frozen=True)
class InverseBound:
    """K and the rigorous terms it comes from (`inverse_bound`): the block
    minimum m, the tail bound t, the coupling c and the rows of the folded
    block."""

    K: Interval
    block_min: float  # m <= min |eig(B_FF)|
    tail: float  # t <= min eig(B_TT)
    coupling: float  # c >= ||B_FT||
    rows: int

    @property
    def binds(self) -> str:
        """Which of m ("block") and t ("tail") is min(m, t), the term that
        s* corrects for the coupling."""
        return "block" if self.block_min <= self.tail else "tail"

    def to_dict(self) -> dict:
        return {
            "block_min": self.block_min.hex(),
            "tail": self.tail.hex(),
            "coupling": self.coupling.hex(),
            "block_rows": self.rows,
            "binds": self.binds,
        }


def inverse_bound(u: Series2D, p: int) -> InverseBound:
    """K >= norm of (-Lap - p u^{p-1})^{-1} on X, as an operator X^* -> X,
    with the terms it comes from.  On a rectangle X is X_s, the closed span
    in H^1_0 of the odd-odd sine modes: the functions symmetric about both
    mid-lines.  On a square X is X_sym, the functions of X_s that are also
    symmetric about the diagonal x = y, spanned by phi_ii and
    (phi_ij + phi_ji)/sqrt(2), i < j.

    The equation.  Newton-Kantorovich proves its ball for F(v) = Lap v + v^p
    at every p, the equation that the solver, the power expansion and the
    block work with, and K bounds the inverse of its derivative.  For odd p,
    v^p = |v|^{p-1} v.  For even p, every solution u~ in H^1_0 of
    -Lap u~ = u~^p is nonnegative by the weak maximum principle: u~_- =
    max(-u~, 0) is in H^1_0, with grad u~_- = -grad u~ on {u~ < 0} and 0
    elsewhere, and testing the equation with it gives ||grad u~_-||^2 =
    -int u~^p u~_- <= 0, as u~^p >= 0.  So u~_- = 0 and u~ solves
    -Lap u = |u|^{p-1} u as well.  For even p the uniqueness claim is among
    the solutions of -Lap u = u^p, a set that holds every nonnegative
    solution of -Lap u = |u|^{p-1} u, the extremizer among them.  This makes
    the spectral margin of `positiveness_certificate` implied for even p; it
    is checked at every p, since skipping it would add a parity fork.

    Why X.  For odd-odd u, F maps X_s into its dual, since the reflections
    about the mid-lines commute with Lap and with v -> v^p.  On a square
    the reflection (x, y) -> (y, x) commutes with both as well, so for a
    transpose-symmetric u (checked bitwise, `_check_center`) F maps X_sym
    into its dual.  So
    Newton-Kantorovich runs in X with the same defect delta (an H^-1 norm
    bounds the X^* norm) and Lipschitz bound g (valid on all of H^1_0), and
    its ball is a ball of X.  The enclosure's premise (`enclosure_from_ball`),
    that the positive solution in the ball is the extremizer u*, asks
    nothing outside X: u* may be taken positive (|u*| is an extremizer too,
    and positive by the strong maximum principle), and a positive solution
    is symmetric about a line of symmetry of the domain when the domain is
    convex in the direction normal to it, by the moving-plane theorem of
    Gidas-Ni-Nirenberg (Comm. Math. Phys. 68, 1979) in the form of
    Berestycki-Nirenberg (Bol. Soc. Brasil. Mat. 22, 1991, Thm 1.3), which
    needs no smooth boundary.  A rectangle is bounded, convex in x and in y,
    and symmetric about x = L1/2 and y = L2/2, so u* is in X_s.  A square is
    also convex in the direction (1, -1)/sqrt(2) and symmetric about x = y,
    so the theorem in coordinates rotated by 45 degrees puts u* in X_sym.
    The other hypotheses: f(u) = u^p is Lipschitz on [0, sup u*], and u*
    vanishes on the boundary and is continuous on the closure (u*^p is in
    L^2, so u* is in H^2 on the convex domain, and H^2 embeds in C in 2-d).
    Lin (Manuscripta Math. 84, 1994) shows that on a convex planar domain
    the least-energy solution is unique and nondegenerate, so the premise
    names one function.

    In the H^1_0-orthonormal basis Lam^{-1/2} phi the operator is
    B = I - Lam^{-1/2} M Lam^{-1/2}, M the Galerkin matrix of the potential
    p u^{p-1}: self-adjoint and equal to I minus a compact operator.  Per
    axis the integral of cos(a) sin(i) sin(k) vanishes unless a + i + k is
    even, that of sin(a) sin(i) sin(k) unless it is odd, and an odd-odd
    center has a potential with only even cosine (odd p) or odd sine
    (even p) modes, so M couples odd modes only to odd modes and B maps X_s
    into itself.  On a square the potential is symmetric about x = y, so
    M[(i,j),(k,l)] = M[(j,i),(l,k)] and lambda_ij = lambda_ji: B maps X_sym
    into itself, and in the orthonormal basis of X_sym above it is
    I - D' F D', F[(ij),(kl)] the sum of M over the swap orbits of (i,j) and
    (k,l) (`_fold`), d' = s Lam^{-1/2}, s = 1/sqrt(2) on the pairs i < j and
    1 on i = j.  On a rectangle every orbit is one mode and the fold is the
    identity.  Split X at n' = default_split_order(u, p) into the finite
    section F (both indices <= n', which the swap keeps) and the tail T:

      (i)   m <= min |eig(B_FF)|, from the folded block held as a float
            midpoint and a 2-norm bound eps, by one Cholesky factorization
            of its shifted squared midpoint and Weyl's inequality
            (`eig_enclosures`): k^2 rows on a rectangle, k(k+1)/2 on a
            square, k = ceil(n'/2);
      (ii)  t = 1 - Wbar/lambda_tail <= min eig(B_TT), Wbar >= p sup|u|^{p-1},
            lambda_tail the smallest eigenvalue of a tail mode (`_tail_lambda`);
            it holds on X_s, and on X_sym since a Rayleigh quotient taken
            over a subspace cannot fall;
      (iii) c >= ||B_FT|| (`_coupling`), with
              c = (H/sqrt(lambda_1) + 2G + Wt sqrt(lambda_F)) / lambda_tail^{3/2},
            G >= sup|grad w| and H >= sup|Lap w| of the potential
            w = p u^{p-1} (`Series2D.grad_sup_bound`, `lap_sup_bound`),
            lambda_F = lambda(n', n') >= every eigenvalue of a section mode,
            and Wt = Wbar/2, plus p eta^{p-1} for even p (eta >= sup u_-,
            `negative_part_sup`), Wbar read as its upper end.
            Shift: take f in F and g in T, each of unit H^1_0 norm.  F and
            T are spanned by distinct Dirichlet eigenfunctions, so they are
            L^2-orthogonal, and <B f, g> = -int w f g = -int (w - Wbar/2) f g.
            For odd p, 0 <= w <= Wbar; for even p, u >= -eta gives
            w >= -p eta^{p-1}.  So |w - Wbar/2| <= Wt, and with
            h = (w - Wbar/2) f and a_k, g_k the coefficients of h and g on
            the L^2-normalized Dirichlet eigenfunctions phi_k,
            |<B f, g>| = |sum_T a_t g_t|, where sum_T lambda_t g_t^2 = 1 and
            lambda_t >= lambda_tail on T.  w is a trigonometric polynomial
            and f a finite sine sum, so h is in H^2 and H^1_0, and Green's
            formula twice (both h and phi_k vanish on the boundary of the
            Lipschitz domain) gives <-Lap h, phi_k> = lambda_k a_k; by
            Parseval sum_k lambda_k^2 a_k^2 = ||Lap h||^2, so
              |sum_T a_t g_t| <= (sum_T lambda_t^2 a_t^2)^{1/2} (sum_T g_t^2/lambda_t^2)^{1/2}
                              <= ||Lap h||_L2 / lambda_tail^{3/2},
            with Lap h = f Lap w + 2 grad w . grad f + (w - Wbar/2) Lap f
            and ||Lap f||^2 = sum_F lambda_k^2 f_k^2 <= lambda_F ||grad f||^2:
            ||Lap h|| <= H/sqrt(lambda_1) + 2G + Wt sqrt(lambda_F), with
            ||f||_L2 <= 1/sqrt(lambda_1) and ||grad f|| = 1.  This needs
            no bandwidth of w, so it holds for every p (for even p the sine
            potential couples every section mode to the tail), on X_s and
            on X_sym, and on every rectangle.

    (ii), (iii) and the lemma below hold at every n', so n' is a cost choice
    and not a hypothesis: the smallest odd order with lambda_tail > Wbar
    whose c, tested in floats, is at most COUPLING_TARGET
    (`_choose_split_order`).  It depends on the center through Wt, G and H
    only, not on N.  At an n' with lambda_tail <= Wbar, t <= 0, so s* <= 0
    and NotInvertible is raised.

    Lemma: every eigenvalue mu of B on X satisfies |mu| >= s*, the smaller
    root of (m - s)(t - s) = c^2.  Proof: the spectrum of B outside {1}
    consists of eigenvalues, and min(m, t) <= t <= 1.  Take an eigenvalue mu
    with |mu| < min(m, t).  B_TT - mu >= t - |mu| > 0 is invertible, so the
    Schur complement B_FF - mu - B_FT (B_TT - mu)^{-1} B_TF is singular; as
    min |eig(B_FF - mu)| >= m - |mu|, this gives
    m - |mu| <= c^2 / (t - |mu|), i.e. (m - |mu|)(t - |mu|) <= c^2, and
    the left side decreases on [0, min(m, t)), so |mu| >= s*.  Eigenvalues
    with |mu| >= min(m, t) >= s* need nothing.  Since
    s* >= min(m, t) - c, this never exceeds the linear correction.  s*
    rises with m and t and falls with c, so the lower bounds m, t and the
    upper bound c give a lower bound on s* (`_coupled_gap`).

    So K = 1/s* bounds the inverse on X.  The parity structure and the fold
    need a square odd-odd center, transpose-symmetric on a square domain, so
    any other center raises DomainError.
    """
    _check_center(u)
    dom = u.domain
    nprime = default_split_order(u, p)
    lam_tail = _tail_lambda(dom, nprime)
    tail_lo = (Interval(1.0) - _wbar(u, p) / lam_tail).lo
    block = _folded_block(_potential(u, p), np.arange(1, nprime + 1, 2))
    block_lo = eig_enclosures(block)
    coupling = _coupling(u, p, nprime)
    m = _coupled_gap(block_lo, tail_lo, coupling).lo
    if not m > 0.0:
        raise NotInvertible(
            f"inverse bound denominator {m:.4e} <= 0 at split order {nprime}"
        )
    return InverseBound(Interval(1.0) / Interval(m), block_lo, tail_lo, coupling, block.n)


# -- Newton-Kantorovich ---------------------------------------------------------


def lipschitz_bound(u: Series2D, p: int, R: float) -> Interval:
    """g >= Lipschitz constant of v -> p v^{p-1}, the derivative of
    v -> v^p (H^1_0 -> op-norm), on the ball B of radius R about u:

        g = p (p-1) C^3 (||u||_{L^{p+1}} + C R)^{p-2},

    C >= C_{p+1} the smaller of the two classical upper bounds.  For v, w in
    B and z_t = w + t (v - w), |p v^{p-1} - p w^{p-1}| is at most
    p (p-1) int_0^1 |z_t|^{p-2} dt |v - w| pointwise, and the generalized
    Hoelder inequality with exponents ((p+1)/(p-2), p+1, p+1, p+1) gives

        int |z_t|^{p-2} |v - w| |phi| |psi|
            <= ||z_t||_{L^{p+1}}^{p-2} C^3 ||v - w|| ||phi|| ||psi||

    in H^1_0 norms.  B is convex, so ||z_t||_{L^{p+1}}
    <= ||u||_{L^{p+1}} + C ||z_t - u|| <= ||u||_{L^{p+1}} + C R.
    """
    if R < 0.0:
        raise ValueError("trial radius must be nonnegative")
    c = classical_upper(p + 1, u.domain)
    base = Interval(lp_norm(u, p + 1).hi) + c * Interval(R)
    g = (
        Interval(float(p * (p - 1)))
        * iv_pow_int(c, 3)
        * iv_pow_int(base, p - 2)
    )
    return Interval(max(g.lo, 0.0), g.hi)


def kantorovich_radius(delta: Interval, k: Interval, g: Interval) -> tuple:
    """(r_h1, unique_radius) of the Newton-Kantorovich theorem from the H^-1
    defect bound delta, the inverse-linearization bound K and the
    derivative Lipschitz bound g on the trial ball; ValueError unless all
    three are finite and nonnegative.

    r = 2 K delta / (1 + sqrt(1 - 2 K^2 delta g))  (the stable form of
    (1 - sqrt(1-h))/(K g)), requiring h = 2 K^2 delta g < 1.  Uniqueness
    holds up to (1 + sqrt(1-h))/(K g), capped at a large finite value when
    g approaches 0 (the linear case is unique on every ball).
    """
    for name, iv in (("delta", delta), ("K", k), ("g", g)):
        if not (math.isfinite(iv.hi) and iv.lo >= 0.0):
            raise ValueError(f"{name} must be a finite nonnegative interval")
    h = Interval(2.0) * k * k * delta * g
    if not h.hi < 1.0:
        raise ConditionFailure(
            f"Kantorovich condition violated: 2 K^2 delta g = {h.hi:.4e} >= 1"
        )
    disc = iv_sqrt(Interval(max(0.0, (Interval(1.0) - h).lo),
                            (Interval(1.0) - h).hi))
    r = Interval(2.0) * k * delta / (Interval(1.0) + disc)
    r = Interval(max(r.lo, 0.0), r.hi)
    if g.hi <= 0.0:
        return r, Interval(UNIQUE_RADIUS_CAP)
    unique_lo = ((Interval(1.0) + Interval(disc.lo)) /
                 (Interval(k.hi) * Interval(g.hi))).lo
    unique_lo = min(unique_lo, UNIQUE_RADIUS_CAP)
    return r, Interval(unique_lo, UNIQUE_RADIUS_CAP)


# -- L-infinity radius ------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def linf_embedding_constant(domain: DomainRect) -> Interval:
    """c with ||v||_inf <= c ||Lap v||_L2 on the sine-series closure.

    c^2 = (4/|Omega|) * sum over all modes of lambda_ij^{-2}; the sum is a
    box partial sum plus a monotone integral tail bound.  The box sum is
    pi^-4 s, s the sum of t_ij = q_ij^-2, q_ij = i^2/L1^2 + j^2/L2^2, taken
    in floats: each t_ij carries at most 8 roundings (L^2, the quotient, the
    sum, the square and the reciprocal) and the sum of the n positive terms
    n - 1 more in any order (here 25 rows of the box at a time, then the
    blocks' sums), so while every intermediate stays normal the float sum is
    s (1 + theta), |theta| <= gamma_{n+7} <= `_gamma_fac`(n + 8), and s
    lies in fl_sum / (1 + [-gamma, gamma]).
    """
    m2 = np.arange(1, LINF_BOX + 1, dtype=np.float64) ** 2  # exact
    qx, qy = m2 / (domain.L1 * domain.L1), m2 / (domain.L2 * domain.L2)
    s_fl, low = 0.0, min(qx[0], qy[0])
    for rows in np.split(qx, LINF_BOX // 25):  # 80 KB, not the 1.25 MB box
        t = np.add.outer(rows, qy)  # q, then in place q^2 and t = 1/q^2
        np.square(t, out=t)
        low = min(low, t.min())
        np.reciprocal(t, out=t)
        s_fl += float(np.sum(t))
        low = min(low, t.min())
    if not (low >= 2.0 ** -1022 and math.isfinite(s_fl)):
        raise DomainError(f"rectangle {domain.L1!r} x {domain.L2!r} is outside the "
                          "range of the L-infinity embedding constant")
    g = _gamma_fac(LINF_BOX ** 2 + 8)
    s = Interval(s_fl) / (Interval(1.0) + Interval(-g, g)) / iv_pow_int(PI, 4)
    l1, l2_ = Interval(domain.L1), Interval(domain.L2)
    # tail over {i > LINF_BOX} x {j >= 1} plus the transposed strip
    tail = (
        (l2_ * l1 ** 3 + l1 * l2_ ** 3)
        / (Interval(8.0 * LINF_BOX ** 2) * PI ** 3)
    )
    total = Interval(max(s.lo, 0.0), (s + Interval(0.0, tail.hi)).hi)
    c2 = Interval(4.0) / domain.measure() * total
    return iv_sqrt(c2)


def linf_radius(u: Series2D, p: int, r_h1: Interval,
                delta_l2: Interval) -> Interval:
    """r_inf >= the L-infinity distance of the true solution from u:

        r_inf = c_inf (delta_l2 + p sum_{k=0}^{p-1} binom(p-1, k) S^{p-1-k}
                       (C_{2k+2} r)^{k+1}),

    S >= sup|u| (`sup_abs_bound`), r = r_h1, c_inf the constant of
    `linf_embedding_constant`, C_2 = 1/sqrt(lambda_1) and C_q, q >= 4, the
    smaller classical upper bound on the L^q embedding constant.

    Lemma.  With g(v) = v^p, e = u_true - u solves -Lap e =
    (g(u + e) - g(u)) + (Lap u + g(u)), and the last term has L2 norm at
    most delta_l2.  By the mean-value theorem |g(u + e) - g(u)| <= p (|u| +
    |e|)^{p-1} |e| pointwise, and the binomial expansion bounds this by p
    sum_k binom(p-1, k) S^{p-1-k} |e|^{k+1}.  In L2, || |e|^{k+1} || =
    ||e||_{L^{2k+2}}^{k+1} <= (C_{2k+2} ||e||_{H^1_0})^{k+1} with ||e||_{H^1_0}
    <= r, so ||Lap e||_L2 <= r_inf / c_inf and ||e||_inf <= c_inf ||Lap
    e||_L2 <= r_inf.  ValueError if r_h1 or delta_l2 is negative; r_inf of
    any size is returned, for the spectral margin of `positiveness_certificate`.
    """
    if not (r_h1.lo >= 0.0 and delta_l2.lo >= 0.0):
        raise ValueError("r_h1 and delta_l2 must be nonnegative")
    dom = u.domain
    s = u.sup_abs_bound()
    r = Interval(r_h1.hi)
    nonlinear = Interval(0.0)
    for k in range(p):
        c = Interval(1.0) / iv_sqrt(dom.lambda1()) if k == 0 else classical_upper(2 * k + 2, dom)
        nonlinear = nonlinear + (Interval(float(math.comb(p - 1, k))) * iv_pow_int(s, p - 1 - k)
                                 * iv_pow_int(c * r, k + 1))
    rho = linf_embedding_constant(dom) * (delta_l2 + Interval(float(p)) * nonlinear)
    return Interval(0.0, rho.hi)


# -- positiveness -----------------------------------------------------------------


@dataclass(frozen=True)
class PositivenessAudit:
    """Audit record of the positiveness certificate (`positiveness_certificate`)."""

    neg_sup: float  # sup u_-
    spectral_margin: float  # lower bound on lambda_1 - (r_inf + sup u_-)^{p-1}
    norm_margin: float  # lower bound on ||u||_{H^1_0} - r_h1

    @property
    def verdict(self) -> bool:
        return self.spectral_margin > 0.0 and self.norm_margin > 0.0

    def to_dict(self) -> dict:
        return {
            "spectral_margin": self.spectral_margin.hex(),
            "norm_margin": self.norm_margin.hex(),
        }


def positiveness_certificate(u: Series2D, p: int, r_h1: Interval,
                             r_inf: Interval) -> PositivenessAudit:
    """The margins that prove the solution in the certified ball positive,
    both rounded down: the spectral margin lambda_1 - (r_inf + eta)^{p-1},
    eta >= sup u_-, and the norm margin ||u||_{H^1_0} - r_h1.

    Lemma.  Let u~ in X solve -Lap u = u^p, ||u~ - u||_{H^1_0} <= r_h1 and
    ||u~ - u||_inf <= r_inf.  If both margins are > 0, u~ > 0 in the
    rectangle.  Nontrivial: ||u~||_{H^1_0} >= ||u||_{H^1_0} - r_h1 > 0.
    Nonnegative: u~_- is in X, a subspace of H^1_0, and 0 <= u~_- <= eta +
    r_inf pointwise; testing the equation with u~_- gives -||grad u~_-||^2 =
    (-1)^p int u~_-^{p+1}.  For odd p, ||grad u~_-||^2 = int u~_-^{p+1} <=
    (eta + r_inf)^{p-1} ||u~_-||_L2^2 <= (eta + r_inf)^{p-1} lambda_1^{-1}
    ||grad u~_-||^2, a factor below 1 by the spectral margin; for even p the
    left side is <= 0 <= the right (`inverse_bound`).  So u~_- = 0.
    Positive: u~ >= 0, u~ is not 0 and -Lap u~ = u~^p >= 0, so u~ > 0 by the
    strong maximum principle.
    """
    eta = negative_part_sup(u)
    neg_power = iv_pow_int(Interval(r_inf.hi) + Interval(eta), p - 1).hi
    return PositivenessAudit(
        neg_sup=eta,
        spectral_margin=(u.domain.lambda1() - Interval(neg_power)).lo,
        norm_margin=(Interval(u.h01_norm().lo) - Interval(r_h1.hi)).lo,
    )


# -- orchestration ----------------------------------------------------------------


@dataclass(frozen=True)
class CertifiedBall:
    """The record of one certified center: a solution of -Lap u = u^p lies
    within r_h1 of the center in X, the odd-odd sine modes (X_s) on a
    rectangle and those of them also symmetric about the diagonal (X_sym) on
    a square, and it is the only one in X within unique_radius.  For even p
    that solution is nonnegative, so it solves -Lap u = |u|^{p-1} u too
    (`inverse_bound`).
    It comes from the H^-1 and L2 defect bounds, K (`inverse`, with the
    terms it comes from, at the split order nprime) and the Lipschitz bound
    g, which holds on the ball of radius trial_radius.  r_inf bounds its
    L-infinity distance from the center, and `audit` holds the margins
    that prove it positive (the lemma of `positiveness_certificate`).
    The extremizer lies in X by the Gidas-Ni-Nirenberg symmetry theorem
    (`inverse_bound`).
    """

    center: Series2D
    p: int
    nprime: int
    delta_hm1: Interval
    delta_l2: Interval
    inverse: InverseBound
    trial_radius: float
    g: Interval
    r_h1: Interval
    unique_radius: Interval
    r_inf: Interval
    audit: PositivenessAudit

    @property
    def positive(self) -> bool:
        return self.audit.verdict

    def row_fields(self) -> dict:
        """The rigorous fields of a report row, every float as a hex string."""
        return {
            "defect_hm1": self.delta_hm1.hex(),
            "defect_l2": self.delta_l2.hex(),
            "K": self.inverse.K.hex(),
            "r_h1": self.r_h1.hex(),
            "r_inf": self.r_inf.hex(),
            "inverse_bound": self.inverse.to_dict(),
            "positiveness": self.audit.to_dict(),
            "neg_sup": self.audit.neg_sup.hex(),
            "trial_radius": self.trial_radius.hex(),
            "positive": self.positive,
        }

    def to_dict(self) -> dict:
        """The certificate: a header naming the center, p, the split order,
        the uniqueness radius and g, plus the report row's rigorous fields."""
        import hashlib  # imported here: it loads OpenSSL, which only a certificate needs

        c = self.center
        digest = hashlib.sha256(c.coeffs.lo.tobytes() + c.coeffs.hi.tobytes()).hexdigest()
        return {
            "format": "sobemb-certificate/5",
            "domain": c.domain.to_dict(),
            "N": c.N,
            "coefficient_digest": digest,
            "p": self.p,
            "split_order": self.nprime,
            "unique_radius": self.unique_radius.hex(),
            "g": self.g.hex(),
            **self.row_fields(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def certify_ball(u: Series2D, p: int) -> CertifiedBall:
    """Full certification pipeline for one approximate solution, returned as
    its one record (`CertifiedBall`).  The split order comes first: it needs
    the potential's gradient and Laplacian bounds (and sup u_- for even p),
    so a CapacityError comes after the u^{p-1} chain but before any defect
    or block work.

    Newton-Kantorovich runs in X, the odd-odd sine modes on a rectangle and
    those of them symmetric about the diagonal on a square, so K and
    unique_radius refer to X.  That loses nothing the enclosure uses: the
    extremizer is positive and hence symmetric about both mid-lines, and on
    a square about the diagonal, by the Gidas-Ni-Nirenberg moving-plane
    theorem (in the Berestycki-Nirenberg form for non-smooth domains, whose
    hypotheses a rectangle meets; see `inverse_bound`), so it lies in X.
    """
    _check_center(u)
    nprime = default_split_order(u, p)
    d_hm1, d_l2 = defect_bounds(u, p)
    inv = inverse_bound(u, p)

    # g holds on the ball of radius R, which must contain the certified one:
    # r = 2 K delta / (1 + sqrt(1 - h)) <= 2 K delta, a few ulps at most above
    # 2 (K delta).hi after outward rounding, so r <= R always
    trial = max(4.0 * (inv.K * d_hm1).hi, 1e-14)
    g = lipschitz_bound(u, p, trial)
    r_h1, unique = kantorovich_radius(d_hm1, inv.K, g)

    r_inf = linf_radius(u, p, r_h1, d_l2)
    return CertifiedBall(
        center=u,
        p=p,
        nprime=nprime,
        delta_hm1=d_hm1,
        delta_l2=d_l2,
        inverse=inv,
        trial_radius=trial,
        g=g,
        r_h1=r_h1,
        unique_radius=unique,
        r_inf=r_inf,
        audit=positiveness_certificate(u, p, r_h1, r_inf),
    )
