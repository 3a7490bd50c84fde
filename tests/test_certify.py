"""Certification machinery: inverse-linearization bound, Kantorovich radii,
L-infinity embedding constant, defect bounds, and positiveness audit."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dstn

from sobemb.certify import (
    _coupled_gap,
    _potential_matrix,
    _tail_lambda,
    certify_ball,
    defect_bounds,
    inverse_bound,
    kantorovich_radius,
    linf_embedding_constant,
    linf_radius,
    lipschitz_bound,
    positiveness_certificate,
)
from sobemb import certify, series, symeig
from sobemb.bounds import classical_upper, corollary_bound, enclosure_from_ball, plum_bound
from sobemb.errors import (
    CapacityError,
    ConditionFailure,
    DomainError,
    NotInvertible,
)
from sobemb.intervals import Interval, iv_pow_int, iv_sqrt
from sobemb.ivarray import IArray, _dn, _up, imatmul
from sobemb.pipeline import RunConfig, run_pipeline
from sobemb.series import (
    DomainRect,
    SineSeries2D,
    lp_norm,
    multiply,
    negative_part_sup,
    power_expand,
)
from sobemb.solver import SolverConfig, dilate, initial_guess, newton_solve
from sobemb.symeig import SymMatrix, eig_enclosures

from _oracles import (
    b_matrix,
    default_split_order,
    eigh_block,
    eigh_directions,
    gather_fold,
    intersects,
)

SQ = DomainRect(1.0, 1.0)
WIDE = DomainRect(2.0, 1.0)


def _one_mode(a):
    c = np.zeros((1, 1))
    c[0, 0] = a
    return SineSeries2D(SQ, c)


# -- inverse-linearization bound ---------------------------------------------------


def test_inverse_bound_near_laplacian():
    """A vanishing potential leaves the preconditioned block near the
    identity, so the operator bound must be an enclosure of 1."""
    k = inverse_bound(_one_mode(1e-6), 3).K
    assert k.lo <= 1.0 + 1e-6
    assert 1.0 - 1e-6 <= k.hi <= 1.001


def test_inverse_bound_not_invertible_at_tiny_split(monkeypatch):
    """The section is a cost choice and no hypothesis, so the section
    {(1, 1)} set by hand is a valid premise that fails: there the tail
    eigenvalue lambda(3,1) = 10 pi^2 ~ 98.7, at the smallest odd index above
    1, is below the potential bound 3 * 10^2 = 300, so t <= 0, s* <= 0 and
    the bound ends in NotInvertible."""
    u = _one_mode(10.0)
    assert default_split_order(u, 3) > 1
    u = _one_mode(10.0)
    section = _section_at(u, 3, SQ.lambda_mode(1, 3).lo)
    monkeypatch.setattr(certify, "_section", lambda u, p: section)
    assert default_split_order(u, 3) == 1
    assert not _tail_lambda(SQ, 1).lo > certify._wbar(u, 3).hi
    assert not section[3] > 0.0
    with pytest.raises(NotInvertible):
        inverse_bound(u, 3)


@settings(max_examples=200, deadline=None)
@given(
    m=st.floats(min_value=1e-6, max_value=2.0),
    t=st.floats(min_value=1e-6, max_value=2.0),
    c=st.floats(min_value=0.0, max_value=1.0),
)
def test_coupled_gap_encloses_smaller_root_from_below(m, t, c):
    """The lower endpoint never exceeds the exact smaller root of
    (m - s)(t - s) = c^2 (mpmath, 50 digits), and lies between the linear
    bound min(m, t) - c (less a few ulps of outward rounding) and min(m, t)."""
    lo = _coupled_gap(m, t, c).lo
    with mpmath.workdps(50):
        mm, tt, cc = mpmath.mpf(m), mpmath.mpf(t), mpmath.mpf(c)
        root = (mm + tt - mpmath.sqrt((mm - tt) ** 2 + 4 * cc * cc)) / 2
        assert mpmath.mpf(lo) <= root
        assert mpmath.mpf(lo) >= min(mm, tt) - cc - mpmath.mpf(1e-15)
    assert lo <= min(m, t)


def _block(w, mx, my):
    """B = I - Lam^{-1/2} M Lam^{-1/2} of the potential w on the sine modes
    mx x my, assembled as inverse_bound assembles it."""
    lam = w.domain.lambda_grid(mx, my).reshape(-1)
    d = IArray(1.0) / IArray(_dn(np.sqrt(lam.lo)), _up(np.sqrt(lam.hi)), _unsafe=True)
    return b_matrix(*_matrix(w, mx, my), d)


def _matrix(w, mx, my):
    """(mid, eps) of `_potential_matrix`, its row slices stacked."""
    rows, eps = _potential_matrix(w, mx, my)
    return np.vstack([*rows]), eps


def _parity_blocks(u, p, nprime):
    """(mx, my, block) for the (odd, odd), (odd, even), (even, odd) and
    (even, even) blocks of B = I - Lam^{-1/2} M Lam^{-1/2} on all sine modes
    up to nprime; inverse_bound builds the first only."""
    w = power_expand(u, p - 1).scale(Interval(float(p)))
    odd = np.arange(1, nprime + 1, 2)
    even = np.arange(2, nprime + 1, 2)
    return [
        (mx, my, _block(w, mx, my))
        for mx, my in [(odd, odd), (odd, even), (even, odd), (even, even)]
        if len(mx) and len(my)
    ]


def _all_modes_k(u, p):
    """K on all sine modes: the same Schur-complement bound over the four
    parity blocks at the default split order, with the tail eigenvalue, in
    the tail bound and the coupling (Wbar + G/sqrt(lambda_1))/lambda_tail,
    at the next index of either parity."""
    dom = u.domain
    nprime = default_split_order(u, p)
    wbar = Interval(float(p)) * iv_pow_int(u.sup_abs_bound(), p - 1)
    g = power_expand(u, p - 1).scale(Interval(float(p))).grad_sup_bound()

    def lam_above(n):
        a, b = dom.lambda_mode(n + 1, 1), dom.lambda_mode(1, n + 1)
        return Interval(min(a.lo, b.lo), min(a.hi, b.hi))

    lam_tail = lam_above(nprime)
    assert lam_tail.lo > wbar.hi
    block_lo = min(eig_enclosures(b) for _, _, b in _parity_blocks(u, p, nprime))
    tail_lo = (Interval(1.0) - wbar / lam_tail).lo
    coupling = ((wbar + g / iv_sqrt(dom.lambda1)) / lam_tail).hi
    m = _coupled_gap(block_lo, tail_lo, coupling).lo
    assert m > 0.0
    return (Interval(1.0) / Interval(m)).hi


@pytest.mark.parametrize("p, n, dom", [
    (3, 10, SQ), (3, 20, SQ), (4, 16, SQ), (2, 40, SQ), (3, 20, DomainRect(2.0, 1.0)),
], ids=["c4-N10", "c4-N20", "c5-N16", "c3-N40", "2x1-N20"])
def test_all_modes_k_bounds_symmetric_k(p, n, dom):
    """X_s is invariant under the linearization, so its inverse there is no
    larger than on all modes: the all-modes K (four parity blocks and
    all-modes tails, written out here) is never below inverse_bound's K."""
    u = newton_solve(SolverConfig(p=p, N=n), initial_guess(p, dom))
    assert _all_modes_k(u, p) >= inverse_bound(u, p).K.hi


def test_tail_lambda_at_smallest_odd_index_above_cut():
    """The tail of X_s holds odd modes only, so the tail and cut eigenvalues
    sit at the smallest odd index k above the cut, on the long axis."""
    wide, tall = DomainRect(2.0, 1.0), DomainRect(1.0, 2.0)
    for n, k in [(0, 1), (1, 3), (2, 3), (4, 5), (5, 7), (28, 29), (29, 31)]:
        for dom, mode in ((wide, (k, 1)), (tall, (1, k))):
            lam, want = _tail_lambda(dom, n), dom.lambda_mode(*mode)
            assert (lam.lo, lam.hi) == (want.lo, want.hi)


def test_schur_gap_bounds_real_blocks(u_p3_n10):
    """The lemma behind inverse_bound on the float midpoints of the four
    parity blocks of u_p3_n10 on all modes up to twice the section's box,
    each split at the section's level Lambda into the modes below it and
    the rest: min |eig(B)| >= s*(min |eig(B_FF)|, min eig(B_TT),
    ||B_FT||_2)."""
    u = u_p3_n10
    level, nx, ny, _, _ = certify._section(u, 3)
    assert (nx, ny) == (23, 23)
    blocks = _parity_blocks(u, 3, 2 * nx)
    assert len(blocks) == 4
    for mx, my, block in blocks:
        full = block.mid
        head = (u.domain.lambda_grid(mx, my).lo < level).reshape(-1)
        bff = full[np.ix_(head, head)]
        btt = full[np.ix_(~head, ~head)]
        bft = full[np.ix_(head, ~head)]
        s_star = _coupled_gap(
            float(np.min(np.abs(np.linalg.eigvalsh(bff)))),
            float(np.min(np.linalg.eigvalsh(btt))),
            float(np.linalg.norm(bft, 2)),
        ).lo
        assert np.min(np.abs(np.linalg.eigvalsh(full))) >= s_star


def test_default_split_order_is_smallest_meeting_the_coupling_target(u_p3_n10, u_p3_n20):
    """The section is the first eigenvalue level Lambda with t > 0 and c <=
    COUPLING_TARGET in intervals, with its box, t and c, checked against the
    mode-by-mode recomputation at every lower level, on the unit square at
    p=3 (the same section at N=10 and N=20), on 2 x 1 at p=3 and on the
    unit square at p=4 and p=5.  The block rows are those of the
    eigenvalue-ordered section, well below the square index set's."""
    assert certify._section(u_p3_n20, 3)[:3] == certify._section(u_p3_n10, 3)[:3]
    wide = DomainRect(2.0, 1.0)
    for u, p, box, rows in (
        (u_p3_n10, 3, (23, 23), 65),
        (newton_solve(SolverConfig(p=3, N=12), initial_guess(3, wide)), 3, (41, 19), 166),
        (newton_solve(SolverConfig(p=4, N=16), initial_guess(4, SQ)), 4, (37, 37), 147),
        (newton_solve(SolverConfig(p=5, N=16), initial_guess(5, SQ)), 5, (55, 55), 312),
    ):
        level, nx, ny = certify._section(u, p)[:3]
        assert (nx, ny) == box and default_split_order(u, p) == max(box)
        assert inverse_bound(u, p).rows == rows
        grid = _mode_grid(u.domain, level)
        assert certify._section(u, p) == _section_at(u, p, level, grid)
        levels = np.unique(grid[2][grid[2] < level])

        def ok(x):
            _, _, _, t, c = _section_at(u, p, x, grid)
            return t > 0.0 and c <= certify.COUPLING_TARGET

        assert not any(ok(x) for x in levels[1:])


def _mode_grid(dom, level):
    """(i, j, lo, hi) over the odd-odd modes up to orders whose eigenvalues
    along the axes pass 2 level: every mode below a level <= `level` and
    the smallest eigenvalues of every other mode, as flat arrays."""
    n = [1, 1]
    for axis in (0, 1):
        while dom.lambda_mode(*[n[axis] if a == axis else 1 for a in (0, 1)]).lo < 2.0 * level:
            n[axis] += 2
    mx, my = np.arange(1, n[0] + 1, 2), np.arange(1, n[1] + 1, 2)
    lam = dom.lambda_grid(mx, my)
    i, j = np.meshgrid(mx, my, indexing="ij")
    return i.ravel(), j.ravel(), lam.lo.ravel(), lam.hi.ravel()


def _section_at(u, p, level, grid=None):
    """(Lambda, nx, ny, t, c) of `inverse_bound` (ii) and (iii) at the
    eigenvalue level Lambda, recomputed from the modes of `_mode_grid`: F
    the odd-odd modes (i, j) with lambda_ij.lo < Lambda, nx and ny its
    largest i and j, lambda_F the interval maximum over F, lambda_tail the
    interval minimum over every other mode, t = (1 - Wbar/lambda_tail).lo
    and c = (H/sqrt(lambda_1) + 2G + Wt sqrt(lambda_F))/lambda_tail^{3/2},
    rounded up, in the scan's IArray operations on one element, so that
    its t and c have the scan's bits."""
    i, j, lo, hi = _mode_grid(u.domain, level) if grid is None else grid
    f = lo < level
    lam_f = IArray(lo[f].max(), hi[f].max())
    lam = IArray(lo[~f].min(), hi[~f].min())
    wbar = Interval(float(p)) * iv_pow_int(u.sup_abs_bound(), p - 1)
    wt, h = certify._coupling_terms(u, p)
    t = (IArray(1.0) - IArray._coerce(wbar) / lam).lo
    c = ((IArray._coerce(h) + IArray._coerce(wt) * certify._sqrt(lam_f))
         / (lam * certify._sqrt(lam))).hi
    return level, int(i[f].max()), int(j[f].max()), float(t), float(c)


def test_section_is_swap_invariant_on_a_square():
    """On a square lambda_ij = lambda_ji bit for bit, so every level set of
    the scan box, and the section chosen among them, is swap-invariant: the
    fold onto X_sym needs that.  Checked at every level of the unit square's
    scan box and at the sections of the c4 and c5 centers, whose box is
    square."""
    mx, my = certify._scan_box(SQ)
    assert np.array_equal(mx, my)
    lam = SQ.lambda_grid(mx, my)
    assert np.array_equal(lam.lo, lam.lo.T) and np.array_equal(lam.hi, lam.hi.T)
    for level in np.unique(lam.lo):
        keep = lam.lo < level
        assert np.array_equal(keep, keep.T)
    for p, n in ((3, 20), (4, 16)):
        level, nx, ny, _, _ = certify._section(_solve(p, n), p)
        odd = np.arange(1, nx + 1, 2)
        keep = SQ.lambda_grid(odd, odd).lo < level
        assert nx == ny and np.array_equal(keep, keep.T) and keep[-1].any()


@pytest.mark.parametrize("dom, p, n", [(SQ, 3, 10), (SQ, 4, 12), (WIDE, 4, 16)],
                         ids=["c4-N10", "c5-N12", "2x1-p4-N16"])
def test_section_tail_is_the_minimum_over_its_complement(dom, p, n):
    """lambda_tail is the interval minimum over every odd-odd mode outside
    F, which lies at the level Lambda itself, inside F's box: t and c
    are those of that minimum (mode by mode, `_section_at`), while the
    eigenvalues at the corners of F's box, or of the scan box, lie far
    above it and would overstate t and understate c."""
    u = newton_solve(SolverConfig(p=p, N=n), initial_guess(p, dom))
    got = certify._section(u, p)
    level, nx, ny = got[:3]
    assert got == _section_at(u, p, level)
    for corner in (dom.lambda_mode(nx, ny), dom.lambda_mode(nx + 2, ny + 2)):
        assert corner.lo > 1.5 * level
        t_corner = (Interval(1.0) - certify._wbar(u, p) / corner).lo
        assert t_corner > got[3] + 1e-3


def _section_tail_norm(u, p, level, nprime):
    """Float ||B_FT||_2, B_FT = -D_F M_FT D_T on X_s: F the odd-odd modes
    with lambda_ij.lo < level, T the other odd-odd modes up to 5 nprime on
    both axes, M the Galerkin matrix of w = p u^{p-1} from the triple
    overlaps of `_potential_matrix`, D = Lam^{-1/2}.  The Gram matrix
    B_FT B_FT^T is summed over the tail's x-index k, so only one k of M is
    held at once."""
    dom = u.domain
    w = power_expand(u, p - 1).scale(Interval(float(p)))
    modes = np.arange(1, 5 * nprime + 1, 2)
    a = len(modes)
    x, y = (certify._triple_overlap(par, n, L, modes, np.arange(n)).mid().reshape(a, a, n)
            for par, n, L in ((w.parity_x, w.coeffs.shape[0], dom.L1),
                              (w.parity_y, w.coeffs.shape[1], dom.L2)))
    lam = dom.lambda_grid(modes, modes)
    head = lam.lo < level
    fi, fj = np.nonzero(head)
    d = 1.0 / np.sqrt(lam.mid())
    wy = np.einsum("ab,flb->fal", w.coeffs.mid(), y[fj]) * (4.0 / (dom.L1 * dom.L2))
    gram = np.zeros((len(fi), len(fi)))
    for k in range(a):
        cols = ~head[k]  # (k, l) in T
        m = np.einsum("fa,fal->fl", x[fi, k], wy[:, :, cols])
        b = d[fi, fj][:, None] * m * d[k, cols]
        gram += b @ b.T
    return math.sqrt(np.max(np.linalg.eigvalsh(gram)))


def _negative_center(a):
    """a (phi_11 - phi_33/2) on the unit square: odd-odd and
    transpose-symmetric, and negative near the corners, where it is about
    -3.5 a pi^2 x y."""
    c = np.zeros((3, 3))
    c[0, 0], c[2, 2] = a, -0.5 * a
    return SineSeries2D(SQ, c)


def _coupling_center(dom, p):
    """The N=12 center on dom at p, or for dom None `_negative_center(0.5)`."""
    if dom is None:
        return _negative_center(0.5)
    return newton_solve(SolverConfig(p=p, N=12), initial_guess(p, dom))


@pytest.mark.parametrize("dom, p", [
    (SQ, 2), (SQ, 3), (SQ, 4), (SQ, 5), (WIDE, 2), (WIDE, 3), (WIDE, 4), (None, 2),
], ids=["1x1-2", "1x1-3", "1x1-4", "1x1-5", "2x1-2", "2x1-3", "2x1-4", "1x1-2-negative"])
def test_coupling_bounds_section_tail_block(dom, p):
    """inverse_bound's coupling c bounds ||B_FT||_2 (float,
    the tail cut at 5 n'), on both parities of the potential and on a
    rectangle, at N=12 (2 x 1 at p=5 has no center: the solver does not
    converge there); for even p the sine potential couples F to T beyond any
    bandwidth, and c holds there too.  The last case is a center with a
    negative part, eta > 0, where Wt carries p eta^{p-1}."""
    u = _coupling_center(dom, p)
    assert (negative_part_sup(u) > 0.0) == (dom is None)
    ib = inverse_bound(u, p)
    section = certify._section(u, p)
    assert (ib.level, *ib.box, ib.tail, ib.coupling) == section == _section_at(u, p, ib.level)
    norm = _section_tail_norm(u, p, ib.level, max(ib.box))
    assert 0.0 < norm <= ib.coupling * (1.0 + 1e-9)


@pytest.mark.parametrize("dom, p", [
    (SQ, 2), (SQ, 3), (SQ, 4), (SQ, 5), (WIDE, 2), (WIDE, 3), (WIDE, 4),
], ids=["1x1-2", "1x1-3", "1x1-4", "1x1-5", "2x1-2", "2x1-3", "2x1-4"])
def test_coupling_matches_its_lemma(dom, p):
    """The section's c encloses that of `inverse_bound` (iii), recomputed with
    60-digit arithmetic from the same constants: Wt = Wbar/2,
    plus p eta^{p-1} for even p, G and H of the potential, lambda_1, and
    lambda_F and lambda_tail, the maximum over the section and the minimum
    over the other modes, mode by mode, each at the end that makes c
    largest, on the N=12 centers.  The result lies above the exact value
    and within 1e-12 relative of it."""
    u = _coupling_center(dom, p)
    level, got = certify._section(u, p)[0], certify._section(u, p)[4]
    _, _, lo, hi = _mode_grid(dom, level)
    w = certify._potential(u, p)
    with mpmath.workdps(60):
        mp = mpmath.mpf
        wt = mp(certify._wbar(u, p).hi) / 2
        if p % 2 == 0:
            wt += p * mp(negative_part_sup(u)) ** (p - 1)
        g, h = mp(w.grad_sup_bound().hi), mp(w.lap_sup_bound().hi)
        root1 = mpmath.sqrt(mp(dom.lambda1.lo))
        lam, lam_f = mp(float(lo[lo >= level].min())), mp(float(hi[lo < level].max()))
        exact = (h / root1 + 2 * g + wt * mpmath.sqrt(lam_f)) / lam ** 1.5
        assert exact <= mp(got) <= exact * (1 + mp(10) ** -12)


@pytest.mark.parametrize("dom, p", [(SQ, 3), (SQ, 4), (WIDE, 3), (None, 2)],
                         ids=["1x1-3", "1x1-4", "2x1-3", "1x1-2-negative"])
def test_h2_product_bound_dominates_spectral_laplacian(dom, p):
    """The bound behind the coupling lemma: for h = (w - Wbar/2) f, f a
    section mode of unit H^1_0 norm, ||Lap h|| <= H ||f|| + 2G + Wt
    sqrt(lambda_f), lambda_f the mode's eigenvalue (<= lambda_F for a
    section mode; the bound holds for every mode).  ||Lap h|| is taken from
    the sine coefficients of h, by a type-1 DST on a 512^2 grid that
    resolves every mode of h, at (1, 1), at the corner (n, n) of the
    section's box and at (1, n) (measured ratios 0.15 to 0.76)."""
    u = _coupling_center(dom, p)
    dom = u.domain
    n = default_split_order(u, p)
    w = certify._potential(u, p)
    wt = certify._coupling_terms(u, p)[0].hi
    g, big_h = w.grad_sup_bound().hi, w.lap_sup_bound().hi
    size = 512
    axes = []  # per axis: w's basis, the sine modes 1..size-1 and their frequencies
    for par, m, L in ((w.parity_x, w.coeffs.shape[0], dom.L1),
                      (w.parity_y, w.coeffs.shape[1], dom.L2)):
        x, k = L * np.arange(1, size) / size, np.pi * np.arange(1, size) / L
        trig = np.sin if par == "sin" else np.cos
        axes.append((trig(np.outer(series._modes(par, m) * np.pi / L, x)), np.sin(np.outer(k, x)), k))
    (bx, sx, kx), (by, sy, ky) = axes
    shifted = bx.T @ w.coeffs.mid() @ by - 0.5 * certify._wbar(u, p).hi
    lam = kx[:, None] ** 2 + ky[None, :] ** 2
    for i, j in ((1, 1), (n, n), (1, n)):
        lam_f = lam[i - 1, j - 1]
        f = np.outer(sx[i - 1], sy[j - 1]) / math.sqrt(lam_f * dom.L1 * dom.L2 / 4.0)
        a = dstn(shifted * f, type=1) / size ** 2
        lap = math.sqrt(np.sum((lam * a) ** 2) * dom.L1 * dom.L2 / 4.0)
        assert lap <= big_h / math.sqrt(lam_f) + 2.0 * g + wt * math.sqrt(lam_f)


@pytest.mark.parametrize("p, center", [(2, "negative"), (4, "negative"), (3, "c4-N10")])
def test_shifted_potential_bound_dominates_grid(p, center, u_p3_n10):
    """Wt, the first coupling term, bounds |w - Wbar.hi/2| for w = p u^{p-1}
    evaluated in floats on a 401^2 grid.  The grid holds the boundary, where
    w = 0 and |w - Wbar.hi/2| = Wbar.hi/2; for even p on a center that is
    negative near the corners w < 0 there too, and only the p eta^{p-1} term
    of Wt covers it."""
    u = _negative_center(0.5) if center == "negative" else u_p3_n10
    dom = u.domain
    sx, sy = (np.sin(np.outer(np.linspace(0.0, L, 401), np.arange(1, n + 1) * np.pi / L))
              for n, L in zip(u.coeffs.shape, (dom.L1, dom.L2)))
    values = sx @ u.coeffs.mid() @ sy.T
    w = p * values ** (p - 1)
    wt = certify._coupling_terms(u, p)[0].hi
    assert np.max(np.abs(w - 0.5 * certify._wbar(u, p).hi)) <= wt * (1.0 + 1e-12)
    assert (np.min(w) < 0.0) == (center == "negative")


@pytest.mark.parametrize("p, n", [(2, 12), (3, 10), (4, 12)])
def test_even_p_section_mode_couples_past_the_split(p, n):
    """M[(1,1),(n'+2,1)], between the first section mode and the first tail
    mode along x, is provably nonzero for the sine potential of even p,
    where no bandwidth separates F from T, and exactly zero for the cosine
    potential of odd p, of bandwidth (p-1)N < n' + 1 here."""
    u = _solve(p, n)
    nprime = default_split_order(u, p)
    modes = np.arange(1, nprime + 3, 2)
    mid, eps = _matrix(power_expand(u, p - 1).scale(Interval(float(p))), modes, modes)
    entry = mid[0, (len(modes) - 1) * len(modes)]
    if p % 2 == 0:
        assert abs(entry) > eps > 0.0
    else:
        assert nprime + 1 > (p - 1) * n and entry == 0.0


def test_inverse_bound_necessary_condition(u_p3_n20, ball_p3_n20):
    """K bounds the inverse linearization on X_sym, so every Galerkin vector
    v of swap-symmetric odd-odd modes must satisfy
    ||(-Lap - p u^{p-1}) v||_{H^-1} >= ||v||_{H^1_0} / K.  The
    swap-antisymmetric odd-odd modes are better conditioned on this center
    (smallest |eig| about 0.67 against 0.60), so it holds on all odd-odd
    directions; checked on 10^2 seeded ones with floating arithmetic and a
    small slack."""
    p = 3
    u = u_p3_n20
    k_hi = ball_p3_n20.inverse.K.hi
    w = power_expand(u, p - 1)
    rng = np.random.default_rng(20240817)
    lam_small = u.domain.lambda_grid(np.arange(1, 11), np.arange(1, 11)).mid()
    for _ in range(100):
        a = rng.normal(size=(10, 10))
        a[1::2, :] = 0.0
        a[:, 1::2] = 0.0
        v = SineSeries2D(SQ, a)
        pv = multiply(w, v).scale(Interval(float(p)))
        d = -pv.coeffs.mid()
        d[:10, :10] += lam_small * a
        nbig = d.shape[0]
        lam_big = u.domain.lambda_grid(
            np.arange(1, nbig + 1), np.arange(1, d.shape[1] + 1)
        ).mid()
        hm1 = math.sqrt(np.sum(d * d / lam_big) * 0.25)
        vnorm = math.sqrt(np.sum(lam_small * a * a) * 0.25)
        assert hm1 * k_hi >= vnorm * (1.0 - 1e-9)


def _solve(p, n):
    return newton_solve(SolverConfig(p=p, N=n), initial_guess(p, SQ))


def _block_spectrum(u, p, nprime):
    return np.sort(np.concatenate([
        np.linalg.eigvalsh(b.mid) for _, _, b in _parity_blocks(u, p, nprime)
    ]))


@pytest.mark.parametrize("p, n", [(2, 16), (4, 14)])
def test_even_p_blocks_hold_the_morse_direction(p, n):
    """-Lap u = u^p makes the potential p u^{p-1} act on u as p Lap, so
    x = Lam^{1/2} u satisfies B x = (1 - p) x up to the defect: x is
    odd-odd, so the (odd, odd) block has an eigenvalue at 1 - p, and K
    bounds the inverse on that block."""
    u = _solve(p, n)
    nprime = default_split_order(u, p)
    (_, _, block), *_ = _parity_blocks(u, p, nprime)
    eigs = np.linalg.eigvalsh(block.mid)
    assert np.min(np.abs(eigs - (1 - p))) < 1e-6
    k = inverse_bound(u, p).K
    assert k.hi * np.min(np.abs(eigs)) >= 1.0 - 1e-9


@pytest.mark.parametrize("p", [2, 3, 4])
def test_even_p_blocks_split_the_unsplit_spectrum(p):
    """The four parity blocks carry every eigenvalue of the all-modes block,
    for the sine potential of even p and the cosine potential of odd p."""
    u = _solve(p, 6)
    nprime = 16
    w = power_expand(u, p - 1).scale(Interval(float(p)))
    modes = np.arange(1, nprime + 1)
    whole = _block(w, modes, modes)
    assert len(_parity_blocks(u, p, nprime)) == 4
    np.testing.assert_allclose(
        _block_spectrum(u, p, nprime),
        np.linalg.eigvalsh(whole.mid),
        atol=1e-12,
    )


def test_rectangle_center_splits_into_parity_blocks(monkeypatch):
    """On 2 x 1 the solver's center is odd-odd, so the finite section splits
    into parity blocks, and inverse_bound encloses the spectrum of one of
    them: the (odd, odd) block, one row per odd-odd mode below the section's
    level, fewer than the rows of its box."""
    u = newton_solve(SolverConfig(p=3, N=8), initial_guess(3, DomainRect(2.0, 1.0)))
    level, nx, ny, _, _ = certify._section(u, 3)
    mx, my = np.arange(1, nx + 1, 2), np.arange(1, ny + 1, 2)
    modes = int(np.count_nonzero(u.domain.lambda_grid(mx, my).lo < level))
    rows = []
    orig = symeig.eig_enclosures

    def recorded(m):
        rows.append(m.n)
        return orig(m)

    monkeypatch.setattr(certify, "eig_enclosures", recorded)
    inverse_bound(u, 3)
    assert rows == [modes] and modes < len(mx) * len(my)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4),
       st.sampled_from([0.0, 1e-300, 1e-9, 1.0]))
def test_fold_encloses_exact_orbit_sums(seed, a, m_eps):
    """The exact rational sums F of M over the two orbits (1, 2 or 4 terms)
    lie within f_eps of the float fold in the orbit-normalized Frobenius
    norm ||S (F - f_mid) S||_F, for M = mid (entries of mixed magnitudes,
    whose float sums round) and for M = mid + E with ||E||_F <= m_eps,
    E random or concentrated on one orbit block.  The orbits kept are those
    of a random swap-invariant set of modes, a section, so f_mid folds a
    principal submatrix.  f_mid and f_eps are `gather_fold`'s to the bit."""
    rng = np.random.default_rng(seed)
    mid = rng.normal(size=(a * a, a * a)) * 2.0 ** rng.integers(-60, 60, size=(a * a, a * a))
    keep = rng.random((a, a)) < 0.7
    keep |= keep.T
    keep[0, 0] = True
    rep, partner = certify._orbits(SQ, keep)
    f_mid, f_eps = certify._fold(np.vsplit(mid, a), m_eps, rep, partner, a * a)  # a rows a slice
    _assert_fold_matches_gather(np.vsplit(mid, a), m_eps, rep, partner, a * a)
    size = [len({x, y}) for x, y in zip(rep, partner)]
    e_rand = rng.normal(size=mid.shape)
    e_rand *= m_eps * (1.0 - 1e-9) / np.linalg.norm(e_rand)
    e_block = np.zeros(mid.shape)
    r = int(rng.integers(len(rep)))
    for x in {rep[r], partner[r]}:
        for y in {rep[r], partner[r]}:
            e_block[x, y] = m_eps * (1.0 - 1e-9) / size[r]
    for e in (np.zeros(mid.shape), e_rand, e_block):
        total = Fraction(0)
        for r in range(len(rep)):
            for c in range(len(rep)):
                terms = [(x, y) for x in {rep[r], partner[r]} for y in {rep[c], partner[c]}]
                exact = sum(Fraction(mid[x, y]) + Fraction(e[x, y]) for x, y in terms)
                total += (exact - Fraction(f_mid[r, c])) ** 2 / (size[r] * size[c])
        assert total <= Fraction(f_eps) ** 2


def _assert_fold_matches_gather(rows, m_eps, rep, partner, n):
    """`_fold` equals `gather_fold` bit for bit, the memory order of f_mid
    included: `eig_enclosures`' BLAS calls read f_mid, and their bits
    depend on it."""
    f_mid, f_eps = certify._fold(rows, m_eps, rep, partner, n)
    g_mid, g_eps = gather_fold(rows, m_eps, rep, partner, n)
    assert f_mid.tobytes(order="A") == g_mid.tobytes(order="A") and f_eps == g_eps
    assert (f_mid.flags.f_contiguous, f_mid.flags.c_contiguous) == (
        g_mid.flags.f_contiguous, g_mid.flags.c_contiguous)


def _fold_inputs(u, p):
    """(rows, m_eps, rep, partner, n) of `inverse_bound`'s fold on u's
    section, the potential matrix's row slices kept in a list."""
    level, nx, ny = certify._section(u, p)[:3]
    mx, my = np.arange(1, nx + 1, 2), np.arange(1, ny + 1, 2)
    lam = u.domain.lambda_grid(mx, my)
    rows, m_eps = _potential_matrix(certify._potential(u, p), mx, my)
    return (list(rows), m_eps, *certify._orbits(u.domain, lam.lo < level), lam.size)


def test_fold_matches_the_gather_reference_on_the_c5_center(report_c5):
    """On the c5 N=12 center's section (147 orbits, 134 of them pairs),
    `_fold` gives `gather_fold`'s f_mid and f_eps to the bit, in its memory
    order."""
    rows, m_eps, rep, partner, n = _fold_inputs(report_c5.solutions[12], 4)
    assert (len(rep), int(np.count_nonzero(rep != partner))) == (147, 134)
    _assert_fold_matches_gather(rows, m_eps, rep, partner, n)


def test_fold_matches_the_gather_reference_on_a_rectangle():
    """On the 2 x 1 p=3 N=12 center's section, where every orbit has one
    member and no column is folded, `_fold` gives `gather_fold`'s f_mid and
    f_eps to the bit, in its memory order."""
    u = newton_solve(SolverConfig(p=3, N=12), initial_guess(3, WIDE))
    rows, m_eps, rep, partner, n = _fold_inputs(u, 3)
    assert len(rep) > 1 and np.array_equal(rep, partner)
    _assert_fold_matches_gather(rows, m_eps, rep, partner, n)


def test_fold_peak_memory_on_the_c5_center(report_c5):
    """`_fold` of the c5 N=16 center's section peaks at most 0.75e6 bytes
    under tracemalloc (about 0.63 MB), its potential matrix's rows already
    formed: it fills the rep x rep f_mid and the rep x pairs partner columns
    straight from each row slice, and holds no rep x box buffer (147 x 361
    floats) or gathered copy of one (0.92 MB when it did)."""
    rows, m_eps, rep, partner, n = _fold_inputs(report_c5.solutions[16], 4)
    certify._fold(rows, m_eps, rep, partner, n)  # warm-up
    tracemalloc.start()  # traces only what is allocated from here on
    try:
        certify._fold(rows, m_eps, rep, partner, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75e6


def _orbit_bases(a):
    """Float orthonormal bases (P, Q) of the swap-symmetric and
    swap-antisymmetric vectors on the a x a mode grid: columns e_ii and
    (e_ij + e_ji)/sqrt(2), and (e_ij - e_ji)/sqrt(2), i < j."""
    idx = np.arange(a * a).reshape(a, a)
    iu, ju = np.triu_indices(a)
    pos = np.zeros((a * a, len(iu)))
    pos[idx[iu, ju], np.arange(len(iu))] = 1.0
    pos[idx[ju, iu], np.arange(len(iu))] = 1.0
    pos /= np.linalg.norm(pos, axis=0)
    i, j = np.triu_indices(a, 1)
    neg = np.zeros((a * a, len(i)))
    neg[idx[i, j], np.arange(len(i))] = 1.0 / math.sqrt(2.0)
    neg[idx[j, i], np.arange(len(i))] = -1.0 / math.sqrt(2.0)
    return pos, neg


@pytest.mark.parametrize("p, n", [(3, 20), (4, 16)], ids=["c4-N20", "c5-N16"])
def test_folded_block_matches_odd_odd_block(p, n):
    """On the c4 N=20 and c5 N=16 centers the block folded onto X_sym has
    k(k+1)/2 rows for the k^2 of the odd-odd block, built here unfolded;
    its verified minimum is no lower than the odd-odd one (to 1e-12
    relative), and in floats its spectrum and that of the antisymmetric
    complement together make up the odd-odd spectrum."""
    u = _solve(p, n)
    odd = np.arange(1, default_split_order(u, p) + 1, 2)
    w = power_expand(u, p - 1).scale(Interval(float(p)))
    full, folded = _block(w, odd, odd), eigh_block(certify._folded_block(w, odd, odd, math.inf, u))
    k = len(odd)
    assert (full.n, folded.n) == (k * k, k * (k + 1) // 2)
    m_full = eig_enclosures(full)
    assert eig_enclosures(folded) >= m_full * (1.0 - 1e-12)
    sym = 0.5 * (full.mid + full.mid.T)
    pos, neg = _orbit_bases(k)
    np.testing.assert_allclose(pos.T @ sym @ pos, folded.mid, rtol=0.0, atol=1e-13)
    both = np.concatenate([np.linalg.eigvalsh(folded.mid), np.linalg.eigvalsh(neg.T @ sym @ neg)])
    np.testing.assert_allclose(np.sort(both), np.linalg.eigvalsh(sym), rtol=0.0, atol=1e-12)


def test_rectangle_fold_is_the_identity():
    """On 2 x 1 (p=3, N=20) every mode is its own swap orbit: the folded
    block on the whole box is the odd-odd block bit for bit, the section's
    is its principal submatrix on the modes below the level, bit for bit,
    and K is the one the section's verified minimum gives, bit for bit."""
    u = newton_solve(SolverConfig(p=3, N=20), initial_guess(3, DomainRect(2.0, 1.0)))
    level, nx, ny, _, _ = certify._section(u, 3)
    mx, my = np.arange(1, nx + 1, 2), np.arange(1, ny + 1, 2)
    w = power_expand(u, 2).scale(Interval(3.0))
    full, whole = _block(w, mx, my), certify._folded_block(w, mx, my, math.inf, u)
    assert np.array_equal(full.mid, whole.mid) and full.eps == whole.eps
    head = (u.domain.lambda_grid(mx, my).lo < level).reshape(-1)
    section = certify._folded_block(w, mx, my, level, u)
    assert np.array_equal(full.mid[np.ix_(head, head)], section.mid)
    ib = inverse_bound(u, 3)
    m = eig_enclosures(section)
    assert ib.block_min == m and ib.rows == np.count_nonzero(head) < len(head)
    k = Interval(1.0) / Interval(_coupled_gap(m, ib.tail, ib.coupling).lo)
    assert (ib.K.lo, ib.K.hi) == (k.lo, k.hi)


def test_transposed_rectangle_gives_transposed_solution():
    """Swapping the sides of the rectangle transposes the solution: the
    2 x 1 and 1 x 2 coefficients agree to 1e-12 under transposition, and
    their sound defect enclosures (H^-1 and L2) intersect."""
    wide, tall = (
        newton_solve(SolverConfig(p=3, N=8), initial_guess(3, dom))
        for dom in (DomainRect(2.0, 1.0), DomainRect(1.0, 2.0))
    )
    np.testing.assert_allclose(tall.coeffs.mid(), wide.coeffs.mid().T,
                               rtol=0.0, atol=1e-12)
    for a, b in zip(defect_bounds(wide, 3), defect_bounds(tall, 3)):
        assert intersects(a, b)


def _basis(parity, n, L, x):
    """Values b_a(x) of the first n basis functions of one axis, (x, a)."""
    if parity == "sin":
        return np.sin(np.pi * np.outer(x, np.arange(1, n + 1)) / L)
    return np.cos(np.pi * np.outer(x, np.arange(n)) / L)


_OVERLAP_CASES = [("cos", 24, 1.0, 13), ("sin", 36, 1.5, 9), ("cos", 7, 2.0 ** -3, 40),
                  ("sin", 5, 3.0, 1)]


@pytest.mark.parametrize("parity, n, L, top, step", [
    *(pytest.param(*case, 1, id="-".join(map(str, case))) for case in _OVERLAP_CASES),
    *(pytest.param(*case, 2, id="-".join(map(str, case)) + "-every-other-column")
      for case in _OVERLAP_CASES),
])
def test_triple_overlap_matches_interval_expression(parity, n, L, top, step):
    """The triple overlap, formed in place from gathers of the cosine
    overlaps, is bit for bit the interval expression it replaces:
    (w[|i - k|] - w[i + k]) * [0.5, 0.5] in IArray arithmetic, on odd
    modes up to `top`, cosine and sine bases and dyadic and non-dyadic
    sides, on every column or every other one (a potential's nonzero
    columns), gathered from the whole expression's."""
    modes = np.arange(1, top + 1, 2)
    cols = np.arange(0, n, step)
    w = series._axis_overlap(series.COS, 2 * int(modes.max()) + 1, parity, n, L)
    ref = ((w[np.abs(modes[:, None] - modes[None, :])] - w[modes[:, None] + modes[None, :]])
           * IArray._coerce(Interval(0.5))).reshape(len(modes) ** 2, n)[:, cols]
    got = certify._triple_overlap(parity, n, L, modes, cols)
    assert np.array_equal(got.lo, ref.lo) and np.array_equal(got.hi, ref.hi)


def test_potential_matrix_matches_quadrature():
    """The Galerkin matrix (4/|Omega|) int W phi_ij phi_kl of the
    cosine-parity W = u^2 (p=3) and the sine-parity W = u^3 (p=4) lies
    within eps (Frobenius), plus 1e-12 an entry, of a 64-node
    Gauss-Legendre tensor quadrature on the 2 x 1 rectangle."""
    dom = DomainRect(2.0, 1.0)
    c = np.random.default_rng(20240817).normal(size=(3, 3))
    c[1, :] = 0.0
    c[:, 1] = 0.0  # odd-odd modes only
    u = SineSeries2D(dom, c)
    modes = np.arange(1, 6)
    t, wt = np.polynomial.legendre.leggauss(64)
    xs, wx = dom.L1 * (t + 1.0) / 2.0, wt * dom.L1 / 2.0
    ys, wy = dom.L2 * (t + 1.0) / 2.0, wt * dom.L2 / 2.0
    sx = _basis("sin", 5, dom.L1, xs)
    sy = _basis("sin", 5, dom.L2, ys)
    for p in (3, 4):
        w = power_expand(u, p - 1)
        mid, eps = _matrix(w, modes, modes)
        wv = (_basis(w.parity_x, w.coeffs.shape[0], dom.L1, xs) @ w.coeffs.mid()
              @ _basis(w.parity_y, w.coeffs.shape[1], dom.L2, ys).T)
        q = np.einsum("x,y,xy,xi,yj,xk,yl->ijkl", wx, wy, wv, sx, sy, sx, sy)
        q = (4.0 / (dom.L1 * dom.L2) * q).reshape(25, 25)
        assert np.linalg.norm(q - mid) <= eps + 25 * 1e-12, p
        assert np.max(np.abs(q)) > 0.1


def _mp_block(coeffs, dom, mx, my):
    """B = I - Lam^{-1/2} M Lam^{-1/2} of the cosine potential with float
    coefficients `coeffs` on the sine modes mx x my, in mpmath: per axis
    int_0^L cos(a t) sin(i t) sin(k t) dx (t = pi x / L) is
    (c(a, |i-k|) - c(a, i+k)) / 2, c(a, m) = L/2 [a = m > 0] + L [a = m = 0]."""
    def axis(a, i, k, L):
        c = lambda m: L / 2 if a == m > 0 else (L if a == m == 0 else 0)
        return mpmath.mpf(c(abs(i - k)) - c(i + k)) / 2

    L1, L2 = mpmath.mpf(dom.L1), mpmath.mpf(dom.L2)
    modes = [(i, j) for i in mx for j in my]
    lam = [mpmath.pi ** 2 * (i * i / L1 ** 2 + j * j / L2 ** 2) for i, j in modes]
    out = mpmath.matrix(len(modes), len(modes))
    for r, (i, j) in enumerate(modes):
        for s, (k, l) in enumerate(modes):
            m = sum(mpmath.mpf(float(coeffs[a, b])) * axis(a, i, k, dom.L1) * axis(b, j, l, dom.L2)
                    for a in range(coeffs.shape[0]) for b in range(coeffs.shape[1]))
            out[r, s] = (1 if r == s else 0) - 4 * m / (L1 * L2 * mpmath.sqrt(lam[r] * lam[s]))
    return out


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 5), st.sampled_from([(1.0, 1.0), (2.0, 1.0), (0.75, 1.5)]),
       st.sampled_from([None, 0, 1]), st.sampled_from([None, 0, 1]), st.booleans(),
       st.booleans())
def test_block_encloses_mpmath_entries(seed, ax, ay, k, sides, zx, zy, odd, wide):
    """B, for a cosine potential with random float coefficients on a small
    mode set (odd modes, or all modes, which odd coefficient indices reach
    too), computed with mpmath at 50 digits, lies within eps of B~ in the
    2-norm.  The potential is thin, or (wide) has the radius 1e-9 |c| on
    each coefficient c, and B is then taken at the upper corner.  The
    coefficients of index parity zx (rows) and zy (columns) are set to
    exactly 0, as in a power of u, so the assembly leaves those rows and
    columns out.  On the square the coefficients are made
    transpose-symmetric, and for odd modes the block folded onto the swap
    orbits of a section, the modes below a random eigenvalue level, P^T B P
    with P the orthonormal basis of those orbits in mpmath, lies within the
    folded block's eps of its B~ too."""
    rng = np.random.default_rng(seed)
    dom = DomainRect(*sides)
    coeffs = rng.normal(size=(k, k)) * 10.0 ** rng.uniform(-3, 2, size=(k, k))
    if dom.is_square():
        coeffs = 0.5 * (coeffs + coeffs.T)
        zy = zx
    if zx is not None:
        coeffs[zx::2, :] = 0.0
    if zy is not None:
        coeffs[:, zy::2] = 0.0
    rad = 1e-9 * np.abs(coeffs) if wide else 0.0
    w = series.Series2D(dom, IArray(coeffs - rad, coeffs + rad), series.COS, series.COS)
    coeffs = w.coeffs.hi
    step = 2 if odd else 1
    mx, my = np.arange(1, 2 * ax, step), np.arange(1, 2 * ay, step)
    b = _block(w, mx, my)
    with mpmath.workdps(50):
        _assert_within_eps(b, _mp_block(coeffs, dom, mx, my))
        if dom.is_square() and odd:
            lam = dom.lambda_grid(mx, mx).lo
            level = np.nextafter(lam.ravel()[rng.integers(lam.size)], np.inf)
            rep, partner = certify._orbits(dom, lam < level)
            exact = _mp_block(coeffs, dom, mx, mx)
            orbit = [sorted({a, c}) for a, c in zip(rep, partner)]
            scale = [1 / mpmath.sqrt(len(o)) for o in orbit]
            folded = mpmath.matrix(len(orbit), len(orbit))
            for r, (orb_r, s_r) in enumerate(zip(orbit, scale)):
                for s, (orb_s, s_s) in enumerate(zip(orbit, scale)):
                    folded[r, s] = s_r * s_s * sum(exact[a, c] for a in orb_r for c in orb_s)
            _assert_within_eps(certify._folded_block(w, mx, mx, level, _one_mode(1.0)), folded)


def _assert_within_eps(b, exact):
    """||exact - B~||_2 <= b.eps, B~ mirrored from the lower triangle of
    b.mid: the Frobenius norm, or else the largest |eigenvalue|, in mpmath."""
    n = b.n
    diff = mpmath.matrix(n, n)
    for r in range(n):
        for s in range(n):
            diff[r, s] = exact[r, s] - mpmath.mpf(float(b.mid[max(r, s), min(r, s)]))
    eps = mpmath.mpf(b.eps)
    if mpmath.mnorm(diff, "f") > eps:
        assert max(abs(x) for x in mpmath.eigsy(diff, eigvals_only=True)) <= eps


def _interval_block(w, mx, my):
    """The interval assembly of B that the midpoint-norm one replaces,
    written out as the reference: M scaled by 4/|Omega| after the two
    interval products, B = I - D M D in interval arithmetic and the hull
    with its transpose.  Returns its midpoint and entrywise radius."""
    dom = w.domain
    nx, ny = w.coeffs.shape
    px = certify._triple_overlap(w.parity_x, nx, dom.L1, mx, np.arange(nx))
    py = certify._triple_overlap(w.parity_y, ny, dom.L2, my, np.arange(ny))
    t = imatmul(imatmul(px, w.coeffs), py.T)
    a, b = len(mx), len(my)
    lo, hi = (np.ascontiguousarray(x.reshape(a, a, b, b).transpose(0, 2, 1, 3)).reshape(a * b, -1)
              for x in (t.lo, t.hi))
    m2 = IArray(lo, hi, _unsafe=True) * IArray._coerce(Interval(4.0) / dom.measure())
    lam = dom.lambda_grid(mx, my).reshape(-1)
    s = IArray(_dn(np.sqrt(lam.lo)), _up(np.sqrt(lam.hi)), _unsafe=True)
    d = IArray(np.ones(lam.shape)) / s
    bb = IArray(np.eye(a * b)) - m2 * d.reshape(-1, 1) * d.reshape(1, -1)
    hull = IArray(np.minimum(bb.lo, bb.lo.T), np.maximum(bb.hi, bb.hi.T))
    return hull.mid(), hull.rad()


@pytest.mark.parametrize("p, n", [(3, 20), (4, 16)], ids=["c4-N20", "c5-N16"])
def test_block_matches_interval_assembly(p, n):
    """On the c4 N=20 and c5 N=16 odd-odd blocks the (mid, eps) block and
    the interval reference (midpoint ref_mid, radius ref_rad) both hold the
    exact block, so ||ref_mid - B~||_2 <= eps + ||ref_rad||_inf; and the
    bound from (mid, eps) is at most 1e-9 relative below the bound from the
    reference family, ref_mid with the 2-norm radius ||ref_rad||_inf."""
    u = _solve(p, n)
    odd = np.arange(1, default_split_order(u, p) + 1, 2)
    w = power_expand(u, p - 1).scale(Interval(float(p)))
    ref_mid, ref_rad = _interval_block(w, odd, odd)
    new = _block(w, odd, odd)
    ref_eps = float(_up(np.max(ref_rad.sum(axis=1)) * (1.0 + 1e-12)))
    sym = np.tril(new.mid) + np.tril(new.mid, -1).T
    assert np.linalg.norm(ref_mid - sym, 2) <= new.eps + ref_eps
    m_new = eig_enclosures(new)
    m_old = eig_enclosures(SymMatrix(ref_mid, ref_eps, eigh_directions(ref_mid)))
    assert m_new >= m_old * (1.0 - 1e-9)


def test_inverse_bound_has_no_elementwise_interval_op_on_the_block(monkeypatch, u_p3_n20):
    """The block is built in float midpoint-radius form: no elementwise
    IArray operation inside inverse_bound sees an operand of n^2 or more
    entries, n the rows of the section's box (the section's scan works on
    at most MAX_DENSE_ROWS eigenvalues, whatever the block)."""
    sizes = []
    for name in ("__mul__", "__add__", "__sub__", "__truediv__"):
        orig = getattr(IArray, name)

        def recorded(self, other, _orig=orig):
            sizes.append(max(self.size, other.size if isinstance(other, IArray) else 1))
            return _orig(self, other)

        monkeypatch.setattr(IArray, name, recorded)
    n = ((default_split_order(u_p3_n20, 3) + 1) // 2) ** 2
    assert n * n > series.MAX_DENSE_ROWS
    inverse_bound(u_p3_n20, 3)
    assert sizes and max(sizes) < n * n


def test_inverse_bound_factors_without_eigh_within_45_mib(monkeypatch):
    """On the c4 N=34 center (a 65-row folded block) the spectrum step
    calls no np.linalg.eigh, and inverse_bound, power chain included, peaks
    at no more than 45 MiB of traced allocations (68.3 MiB with the
    entrywise radius, eigh and Gershgorin discs at 666 rows; 2.5 MiB
    measured at 153)."""
    u = _solve(3, 34)

    def no_eigh(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    tracemalloc.start()
    try:
        ib = inverse_bound(u, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ib.rows == 65
    assert peak <= 45 * 2 ** 20


def test_inverse_bound_on_2x1_p4_within_16_mib():
    """On the 2 x 1 p=4 N=16 center the eigenvalue-ordered section keeps
    402 of the 512 modes of its 63 x 31 box, and inverse_bound, power chain
    included, peaks at no more than 16 MiB of traced allocations (3.8 MiB
    measured).  The square index set it replaces had 1521 rows, whose
    block, squared block and Cholesky factor alone held 3 x 1521^2 x 8 B,
    about 53 MiB (55.3 MiB measured)."""
    u = newton_solve(SolverConfig(p=4, N=16), initial_guess(4, WIDE))
    tracemalloc.start()
    try:
        ib = inverse_bound(u, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (ib.rows, ib.box) == (402, (63, 31))
    assert peak <= 16 * 2 ** 20


@pytest.mark.parametrize("p, n", [(3, 10), (4, 12)], ids=["c4-N10", "c5-N12"])
def test_sweep_row_certifies_without_an_eigensolver(monkeypatch, p, n):
    """The c4 N=10 and c5 N=12 rows certify, with Morse index 1, while
    np.linalg.eigvalsh and eigh raise: the block bound takes its negative
    direction from the center and its shift from Lanczos, not from LAPACK's
    eigensolvers."""
    def forbidden(*args, **kwargs):
        raise AssertionError("eigensolver called")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    (row,) = run_pipeline(RunConfig(p=p, domain=SQ, N=[n])).rows
    assert row.status == "certified" and row.ball.inverse.morse_index == 1


def test_block_with_two_negative_eigenvalues_ends_the_row_typed(monkeypatch):
    """The c4 N=10 block minus 3 w w^T, w its second float eigenvector
    (eigenvalue about 0.6), has two negative eigenvalues: deflating the
    center's direction leaves one, so the block is not proved and the row
    ends in NotInvertible, with no enclosure."""
    orig = certify._folded_block

    def two_negative(*args):
        block = orig(*args)
        sym = np.tril(block.mid) + np.tril(block.mid, -1).T
        lam, vec = np.linalg.eigh(sym)
        assert lam[0] < 0.0 < lam[1]
        block.mid -= 3.0 * np.outer(vec[:, 1], vec[:, 1])
        return block

    monkeypatch.setattr(certify, "_folded_block", two_negative)
    (row,) = run_pipeline(RunConfig(p=3, domain=SQ, N=[10])).rows
    assert row.status == "NotInvertible"
    assert row.upper is None and row.lower is None


# -- defect bounds ------------------------------------------------------------------


def test_defect_single_mode_closed_form():
    # [DERIVED] for u = a sin sin, p = 3 the defect is the exact sine series
    # (9a^3/16 - 2 pi^2 a) s1 s1 - (3a^3/16)(s1 s3 + s3 s1) + (a^3/16) s3 s3,
    # with squared L2 norm = sum of squared coefficients / 4
    a = 2.0
    lam = 2.0 * math.pi ** 2
    c11 = 9.0 * a ** 3 / 16.0 - lam * a
    c13 = -3.0 * a ** 3 / 16.0
    c33 = a ** 3 / 16.0
    l2_oracle = 0.5 * math.sqrt(c11 ** 2 + 2.0 * c13 ** 2 + c33 ** 2)
    hm1, l2 = defect_bounds(_one_mode(a), 3)
    assert l2.lo <= l2_oracle <= l2.hi
    assert l2.width() < 1e-10
    # H^-1 weighting divides each mode by its eigenvalue >= lambda_1
    assert hm1.hi <= l2.hi / math.sqrt(lam) * (1.0 + 1e-12)


def test_defect_even_power_nonnegative(u_p3_n10):
    u4 = _one_mode(1.0)
    hm1, l2 = defect_bounds(u4, 4)
    assert 0.0 <= hm1.lo <= hm1.hi
    assert 0.0 <= l2.lo <= l2.hi
    assert hm1.hi <= l2.hi / math.sqrt(2.0) / math.pi * (1.0 + 1e-12)


def _dst_hm1_estimate(u, p, n=2048):
    """Floating ||Lap u + u^p||_{H^-1} on the unit square from the DST-I of
    its samples on the interior points of the n x n grid."""
    c = u.coeffs.mid()
    modes = np.arange(1, c.shape[0] + 1)
    lam = math.pi ** 2 * (modes[:, None] ** 2 + modes[None, :] ** 2)
    s = np.sin(math.pi * np.arange(1, n)[:, None] * modes[None, :] / n)
    vals = s @ c @ s.T
    f = s @ (-lam * c) @ s.T + vals ** p
    coef = dstn(f, type=1) / float(n * n)
    m = np.arange(1, n)
    lam_all = math.pi ** 2 * (m[:, None] ** 2 + m[None, :] ** 2)
    return math.sqrt(0.25 * np.sum(coef * coef / lam_all))


@pytest.mark.parametrize("p", [2, 4])
def test_defect_even_p_hm1_between_estimate_and_l2_route(p):
    """The H^-1 bound is never above ||defect||_L2 / sqrt(lambda_1), which
    bounds every H^-1 norm, and never below a fine-grid estimate of it."""
    u = _solve(p, 12)
    hm1, l2 = defect_bounds(u, p)
    assert hm1.hi <= l2.hi / math.sqrt(SQ.lambda1.lo)
    assert hm1.hi >= _dst_hm1_estimate(u, p)


def _gauss_l2_defect(u, p, n=128):
    """Float ||Lap u + u^p||_L2 by an n x n Gauss-Legendre product rule: the
    defect is a trigonometric polynomial of degree at most 3p per axis, so
    the rule is exact to rounding."""
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w  # on [0, 1]
    c = u.coeffs.mid()
    modes = np.arange(1, c.shape[0] + 1)
    lam = math.pi ** 2 * (modes[:, None] ** 2 + modes[None, :] ** 2)
    s = np.sin(math.pi * np.outer(x, modes))
    f = s @ (-lam * c) @ s.T + (s @ c @ s.T) ** p
    return math.sqrt(w @ (f * f) @ w)


@pytest.mark.parametrize("p", [2, 4])
def test_even_p_defect_and_k_carry_no_negative_part_slack(p):
    """On `_negative_center(0.5)`, negative near the corners (eta = sup u_-
    about 1.82), the defect bounds Lap u + u^p with no slack: delta_L2 is a
    Gauss-Legendre value of ||Lap u + u^p||_L2 to 1e-10 relative, and
    delta_H^-1 lies between a fine-grid estimate and delta_L2/sqrt(lambda_1).
    Both defects lie below the older bounds of Lap u + |u|^{p-1} u, which
    added 2 eta^p sqrt(|Omega|) to delta_L2 and its image over
    sqrt(lambda_1) to delta_H^-1, and K = 1/s* lies below 1/(s* - eps),
    eps = 2 p eta^{p-1}/lambda_1, whose denominator is not positive at p=4:
    there only K = 1/s* exists."""
    u = _negative_center(0.5)
    eta = Interval(negative_part_sup(u))
    assert eta.lo > 1.8
    hm1, l2 = defect_bounds(u, p)
    exact = _gauss_l2_defect(u, p)
    assert exact <= l2.hi <= exact * (1.0 + 1e-10)
    root1 = iv_sqrt(SQ.lambda1)
    assert _dst_hm1_estimate(u, p) <= hm1.hi <= (Interval(l2.hi) / root1).hi
    slack = Interval(2.0) * iv_pow_int(eta, p) * iv_sqrt(SQ.measure())
    assert l2.hi < (Interval(l2.hi) + slack).lo
    assert hm1.hi < (Interval(hm1.hi) + slack / root1).lo

    ib = inverse_bound(u, p)
    s_star = _coupled_gap(ib.block_min, ib.tail, ib.coupling).lo
    assert ib.K.hi == (Interval(1.0) / Interval(s_star)).hi
    older = Interval(s_star) - Interval(2.0 * p) * iv_pow_int(eta, p - 1) / SQ.lambda1
    if p == 2:
        assert older.lo > 0.0 and ib.K.hi < (Interval(1.0) / older).lo
    else:
        assert older.hi <= 0.0 < s_star


def test_defect_rejects_bad_exponent():
    with pytest.raises(DomainError):
        defect_bounds(_one_mode(1.0), 6)


def _positiveness(u, p):
    return positiveness_certificate(u, p, Interval(1e-6))


def _linf(u, p):
    return linf_radius(u, p, Interval(1e-6), Interval(1e-6))


def _lipschitz(u, p):
    return lipschitz_bound(u, p, 0.5)


@pytest.mark.parametrize("fn, p", [(certify_ball, 3.0), (certify_ball, 1), (inverse_bound, 7),
                                   (inverse_bound, 3.0), (_positiveness, 3.0), (_positiveness, 7),
                                   (_linf, 7), (_linf, 3.0), (default_split_order, 7),
                                   (default_split_order, 1), (_lipschitz, 3.0), (_lipschitz, 6)],
                         ids=["certify_ball-3.0", "certify_ball-1", "inverse_bound-7",
                              "inverse_bound-3.0", "positiveness-3.0", "positiveness-7",
                              "linf_radius-7", "linf_radius-3.0", "default_split_order-7",
                              "default_split_order-1", "lipschitz_bound-3.0",
                              "lipschitz_bound-6"])
def test_bad_exponent_fails_before_the_section(monkeypatch, u_p3_n10, fn, p):
    """Every public certifier function that takes p checks it first, as an
    int in 2..5: a float p or one outside 2..5 is a DomainError naming p,
    and no section, sup u_-, classical constant or L^q norm is computed."""
    def forbidden(*args):
        raise AssertionError("certifier work before the exponent check")

    for name in ("_section", "negative_part_sup", "classical_upper", "lp_norm"):
        monkeypatch.setattr(certify, name, forbidden)
    with pytest.raises(DomainError, match=f"exponent p .* got {p!r}"):
        fn(u_p3_n10, p)


# -- Lipschitz and Kantorovich -------------------------------------------------------


def test_lipschitz_bound_hand_formula(u_p3_n10):
    # g = p (p-1) C^3 (||u||_{L^{p+1}} + C R)^{p-2}, C the smaller classical
    # L^{p+1} constant
    u, p, R = u_p3_n10, 3, 0.5
    g = lipschitz_bound(u, p, R)
    c = min(corollary_bound(p + 1, SQ.measure()).hi,
            plum_bound(p + 1, SQ.lambda1).hi)
    base = lp_norm(u, p + 1).hi + c * R
    hand = p * (p - 1) * c ** 3 * base ** (p - 2)
    assert g.lo * (1.0 - 1e-12) <= hand <= g.hi * (1.0 + 1e-12)
    with pytest.raises(ValueError):
        lipschitz_bound(u, p, -1.0)


def _old_lipschitz(u, p, R):
    """p (p-1) C^{p+1} (||u||_{H^1_0} + R)^{p-2} with the Talenti-based C."""
    c = corollary_bound(p + 1, u.domain.measure())
    base = u.h01_norm() + Interval(R)
    return Interval(float(p * (p - 1))) * c ** (p + 1) * base ** (p - 2)


@pytest.mark.parametrize("p, n", [(3, 10), (3, 34), (4, 12), (4, 20), (2, 40)])
def test_lipschitz_bound_no_larger_than_h1_formula(p, n):
    """On the c4, c5 and c3 centers the L^{p+1}-norm bound never exceeds the
    H^1_0-norm bound it replaces, at any trial radius."""
    u = newton_solve(SolverConfig(p=p, N=n), initial_guess(p, SQ))
    for R in (0.0, 1e-8, 1e-3, 0.5):
        assert lipschitz_bound(u, p, R).hi <= _old_lipschitz(u, p, R).hi


def test_kantorovich_closed_form_half():
    # [DERIVED] h = 2 K^2 delta g = 1/2: r = 2 K delta / (1 + sqrt(1/2))
    r = kantorovich_radius(Interval(0.25), Interval(1.0), Interval(1.0))
    oracle = 0.5 / (1.0 + math.sqrt(0.5))
    assert r.lo <= oracle <= r.hi
    assert r.width() < 1e-12


def test_kantorovich_linear_case():
    r = kantorovich_radius(Interval(1e-3), Interval(2.0), Interval(0.0))
    # linear problem: h = 0, so r = K delta exactly
    assert r.contains(2e-3)


def test_kantorovich_condition_violation():
    with pytest.raises(ConditionFailure):
        kantorovich_radius(Interval(1.0), Interval(1.0), Interval(1.0))


def test_kantorovich_data_validation():
    with pytest.raises(ValueError):
        kantorovich_radius(Interval(-1.0, 0.5), Interval(1.0), Interval(1.0))


# -- L-infinity embedding constant ----------------------------------------------------


def test_linf_embedding_constant_oracle():
    # [DERIVED] independent oracle bracket for the unit square: partial sum
    # of 4 sum lambda^{-2} to 2000 modes plus a monotone tail bound gives
    # c in [0.13201020, 0.13226593]
    c = linf_embedding_constant(SQ)
    assert c.lo <= 0.13226593
    assert c.hi >= 0.13201020
    assert c.width() < 5e-4


def test_linf_embedding_constant_dilation():
    # scaling the square by t scales lambda by 1/t^2 and the constant by t
    c1 = linf_embedding_constant(SQ)
    c2 = linf_embedding_constant(DomainRect(2.0, 2.0))
    ratio = c2 / c1
    assert ratio.lo <= 2.0 <= ratio.hi


def test_linf_radius_shrinks_with_defect(u_p3_n10):
    small = linf_radius(u_p3_n10, 3, Interval(0.0, 1e-8), delta_l2=Interval(0.0, 1e-8))
    large = linf_radius(u_p3_n10, 3, Interval(0.0, 1e-3), delta_l2=Interval(0.0, 1e-3))
    assert small.lo == large.lo == 0.0
    assert small.hi < large.hi


@pytest.mark.parametrize("r_h1,delta_l2", [(0.0, -1.0), (-1.0, 0.0)],
                         ids=["negative", "r_h1-negative"])
def test_linf_radius_out_of_range_is_typed(u_p3_n10, r_h1, delta_l2):
    """A negative defect bound or H^1_0 radius is a ValueError, as in
    kantorovich_radius and lipschitz_bound."""
    with pytest.raises(ValueError):
        linf_radius(u_p3_n10, 3, Interval(r_h1), Interval(delta_l2))


def test_verdict_ignores_linf_radius(monkeypatch):
    """No verdict reads r_inf: with linf_radius returning 1e6, far above
    sup|u| (about 6.6), the p=3 N=10 row is still certified and positive,
    and it reports r_inf = 1e6.  A large radius is returned finite, whatever
    its size (delta_l2 = 1e5 gives about 1.3e4)."""
    huge = Interval(0.0, 1e6)
    monkeypatch.setattr(certify, "linf_radius", lambda *args: huge)
    (row,) = run_pipeline(RunConfig(p=3, domain=SQ, N=[10])).rows
    assert row.status == "certified" and row.ball.positive
    assert row.ball.r_inf.hi == 1e6
    monkeypatch.undo()
    u = row.ball.center
    assert 1e3 < linf_radius(u, 3, Interval(0.0, 1e-3), Interval(0.0, 1e5)).hi < math.inf


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_linf_radius_matches_its_lemma(p):
    """linf_radius encloses the lemma of its docstring, recomputed with
    60-digit arithmetic from the same constants: c_inf (delta + p sum_k
    binom(p-1, k) S^{p-1-k} (C_{2k+2} r)^{k+1}), C_2 = 1/sqrt(lambda_1),
    on a 1.5 x 1 rectangle where C_2 and each C_{2k+2} differ.  The result
    lies above the exact value and within 1e-12 relative of it."""
    dom = DomainRect(1.5, 1.0)
    u = SineSeries2D(dom, np.array([[4.0, 0.0, 0.3], [0.0, 0.0, 0.0], [-0.2, 0.0, 0.1]]))
    r, delta = 0.01, 0.003
    got = linf_radius(u, p, Interval(0.0, r), Interval(0.0, delta)).hi
    with mpmath.workdps(60):
        mp = mpmath.mpf
        s = mp(u.sup_abs_bound().hi)
        consts = [1 / mpmath.sqrt(mp(dom.lambda1.lo))] + [
            mp(classical_upper(2 * k + 2, dom).hi) for k in range(1, p)]
        total = sum(math.comb(p - 1, k) * s ** (p - 1 - k) * (consts[k] * mp(r)) ** (k + 1)
                    for k in range(p))
        exact = mp(linf_embedding_constant(dom).hi) * (mp(delta) + p * total)
        assert exact <= mp(got) <= exact * (1 + mp(10) ** -12)


# the earlier L-infinity bound, kept as the reference the closed form must
# never exceed: an a-priori Hoelder seed and one step of a bootstrap map
def _seeded_linf(u, p, r_h1, delta_l2):
    dom = u.domain
    c_inf = linf_embedding_constant(dom)
    r = Interval(max(0.0, r_h1.lo), r_h1.hi)
    base = Interval(2.0) * u.h01_norm() + r
    seed = (c_inf * (delta_l2 + Interval(float(p)) * iv_pow_int(
        corollary_bound(2 * p, dom.measure()), p) * iv_pow_int(base, p - 1) * r)).hi
    sup_u = Interval(0.0, u.sup_abs_bound().hi)
    step = (c_inf * (delta_l2 + Interval(float(p)) * iv_pow_int(
        sup_u + Interval(0.0, seed), p - 1) * r / iv_sqrt(dom.lambda1))).hi
    return min(seed, step)


@pytest.fixture(scope="module")
def report_p5():
    return run_pipeline(RunConfig(p=5, domain=SQ, N=[16, 24]))


@pytest.fixture(scope="module")
def report_2x1_p3():
    return run_pipeline(RunConfig(p=3, domain=DomainRect(2.0, 1.0), N=[12, 20]))


@pytest.mark.parametrize("name", ["report_c3", "report_c4", "report_c5", "report_p5"])
def test_linf_radius_never_looser_than_seeded_bootstrap(name, request):
    """On every certified center of c3, c4, c5 and p=5 (1 x 1), the closed
    form is at most the earlier bound: the Hoelder seed
    c_inf (delta + p C_{2p}^p (2 ||u||_{H^1_0} + r)^{p-1} r) and one step of
    the map rho -> c_inf (delta + p (sup|u| + rho)^{p-1} r / sqrt(lambda_1))."""
    report = request.getfixturevalue(name)
    p = report.config.p
    for row in report.rows:
        b = row.ball
        ref = _seeded_linf(b.center, p, b.r_h1, b.delta_l2)
        assert b.r_inf.hi <= ref, (name, row.N, b.r_inf.hi, ref)


@pytest.mark.parametrize("name,pair", [
    ("report_c4", (10, 34)), ("report_c5", (12, 20)),
    ("report_p5", (16, 24)), ("report_2x1_p3", (12, 20)),
])
def test_linf_radii_of_two_centers_cover_their_distance(name, pair, request):
    """Metamorphic: the balls at two truncation orders hold the same true
    solution, so on a 65 x 65 grid the rigorous lower bound on |u_a - u_b|
    is at most r_inf(u_a) + r_inf(u_b) (measured ratios 0.005 to 0.015)."""
    report = request.getfixturevalue(name)
    a, b = (next(r.ball for r in report.rows if r.N == n) for n in pair)
    dom = a.center.domain
    xs, ys = (np.linspace(0.0, side, 65) for side in (dom.L1, dom.L2))
    va, vb = a.center.values_on_grid(xs, ys), b.center.values_on_grid(xs, ys)
    gap = float(np.max(np.maximum(va.lo - vb.hi, vb.lo - va.hi)))
    assert gap <= a.r_inf.hi + b.r_inf.hi


@pytest.mark.parametrize("domain,n,mib", [(SQ, 16, 32), (DomainRect(1.5, 1.0), 20, 128)],
                         ids=["1x1-N16", "1.5x1-N20"])
def test_p5_rows_certify_within_budget(domain, n, mib):
    """p=5 rows whose Kantorovich ball certifies also pass positiveness
    (r_inf 0.206 and 0.184), each within 3 s of CPU time and its budget of
    traced allocations, both measured in a child process with one BLAS
    thread: process CPU time counts BLAS threads, which spin while they wait
    for a core, so with more than one another process on the host could
    inflate it.  Measured on a 2-core host: 0.2 s and 14 MiB at split order
    57 (1 x 1), 0.9 s and 68 MiB at order 81 (1.5 x 1, a 1681-row block);
    with the H^1-only coupling the orders were 89 and 119 and the runs took
    1.3 s and 78 MiB, 5.5 s and 396 MiB (a 3600-row block)."""
    import sobemb

    src = os.path.dirname(os.path.dirname(os.path.abspath(sobemb.__file__)))
    env = dict(os.environ, PYTHONPATH=src)  # importing sobemb first pins one thread
    code = ("import json, time, tracemalloc\n"
            "from sobemb.pipeline import RunConfig, run_pipeline\n"
            "from sobemb.series import DomainRect\n"
            f"domain = DomainRect({domain.L1!r}, {domain.L2!r})\n"
            "tracemalloc.start()\n"
            "t0 = time.process_time()\n"
            f"report = run_pipeline(RunConfig(p=5, domain=domain, N=[{n}]))\n"
            "seconds = time.process_time() - t0\n"
            "peak = tracemalloc.get_traced_memory()[1]\n"
            "print(json.dumps([seconds, peak, report.fully_certified,\n"
            "                  report.rows[0].ball.r_inf.hi]))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seconds, peak, certified, r_inf = json.loads(proc.stdout)
    assert seconds < 3.0
    assert peak < mib * 2 ** 20
    assert certified
    assert r_inf < 0.25


# -- positiveness ---------------------------------------------------------------------


def test_positiveness_certificate_verdicts(u_p3_n10):
    """The verdict needs both margins above 0, and each fails alone.  A
    small radius passes both on the p=3 N=10 center (||u||_{H^1_0} about
    12.3, sup u_- bound 0).  r_h1 = 7 fails the norm margin alone (12.3 <
    2 r_h1), while the L^q margin, 1 - C^4 r_h1^2 with C about 0.32, holds.
    The center a (phi_11 - phi_33/2) at a = 1, negative near the corners
    (sup u_- bound about 3.6), fails the L^q margin alone at a small radius."""
    small = Interval(0.0, 1e-3)
    ok = positiveness_certificate(u_p3_n10, 3, small)
    assert ok.lq_margin > 0.0 and ok.norm_margin > 0.0 and ok.verdict
    norm = positiveness_certificate(u_p3_n10, 3, Interval(0.0, 7.0))
    assert norm.norm_margin <= 0.0 < norm.lq_margin
    assert not norm.verdict
    neg = _negative_center(1.0)
    lq = positiveness_certificate(neg, 3, small)
    assert 3.0 < lq.neg_sup < 4.0
    assert lq.lq_margin <= 0.0 < lq.norm_margin
    assert not lq.verdict


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_lq_margin_matches_its_lemma(p):
    """lq_margin lies below 1 - C^2 (C r + eta |Omega|^{1/q})^{p-1}, q = p + 1,
    recomputed with 60-digit arithmetic from the same C, eta and r on a
    1.5 x 1 rectangle, and within 1e-12 of it; the norm margin likewise
    encloses ||u||_{H^1_0}.lo - 2 r."""
    dom = DomainRect(1.5, 1.0)
    u = SineSeries2D(dom, np.array([[4.0, 0.0, 0.3], [0.0, 0.0, 0.0], [-0.2, 0.0, 1.5]]))
    r = 0.01
    audit = positiveness_certificate(u, p, Interval(0.0, r))
    eta = negative_part_sup(u)
    assert eta > 0.0
    with mpmath.workdps(60):
        mp = mpmath.mpf
        c = mp(classical_upper(p + 1, dom).hi)
        lq = c * mp(r) + mp(eta) * (mp(dom.L1) * mp(dom.L2)) ** (mp(1) / (p + 1))
        exact = 1 - c ** 2 * lq ** (p - 1)
        assert exact - mp(10) ** -12 <= mp(audit.lq_margin) <= exact
        exact = mp(u.h01_norm().lo) - 2 * mp(r)
        assert exact - mp(10) ** -12 <= mp(audit.norm_margin) <= exact


# -- full pipeline ---------------------------------------------------------------------


def test_certify_ball_structure(ball_p3_n20):
    b = ball_p3_n20
    assert 0.0 < b.r_h1.hi < 1e-4
    assert 0.0 <= b.r_inf.hi < 1e-3
    assert b.positive
    assert b.nprime == 23


@pytest.mark.parametrize("side", [1e-30, 1e30])
def test_certify_ball_on_physical_scale_centers(side, ball_p3_n20):
    """certify_ball carries no absolute pad: on the p=3, N=20 center of the
    side x side square itself, solved on its reference rectangle and
    carried back, the ball is proved positive (sup u_- bound 0, where a
    1.0 in the grid slack gave 1.43e49 on the 1e-30 square), K is the unit
    square's 1.65698416962 (a 1e-14 trial-radius floor broke the
    Kantorovich condition on the 1e30 square) and r_h1 scales as the center,
    by 1/side."""
    dom = DomainRect(side, side)
    u = dilate(newton_solve(SolverConfig(p=3, N=20), initial_guess(3, dom)), 3, dom.reference()[0])
    assert u.domain == dom
    b = certify_ball(u, 3)
    assert b.positive
    assert b.audit.neg_sup == 0.0
    assert intersects(b.inverse.K, Interval(1.65698416961, 1.65698416962))
    assert b.r_h1.hi * side == pytest.approx(ball_p3_n20.r_h1.hi, rel=1e-6)


def test_certificate_json_roundtrip(ball_p3_n20):
    import json

    d = json.loads(ball_p3_n20.to_json())
    assert d["format"] == "sobemb-certificate/10"
    assert "split_order" not in d and d["section_box"] == [23, 23]
    assert float.fromhex(d["section_level"]) == certify._section(ball_p3_n20.center, 3)[0]
    assert d["k"] == 0
    assert d["p"] == 3
    assert len(d["coefficient_digest"]) == 64
    assert float.fromhex(d["r_h1"][1]) == ball_p3_n20.r_h1.hi
    assert d["positive"] is True


def test_certify_ball_small_case():
    u = _one_mode(1e-5)
    # tiny amplitude: the zero solution's ball; defect ~ lambda * a
    b = certify_ball(u, 3)
    assert b.r_h1.hi < 1e-3
    assert not b.positive  # the enclosed solution is (near) zero


# -- each derived fact about a center is built once -----------------------------------


def _fresh(u):
    """A copy of u with none of its derived facts computed yet."""
    return SineSeries2D(u.domain, u.coeffs.copy())


def _count_calls(monkeypatch, name, module=series):
    calls = []
    orig = getattr(module, name)

    def counted(*args):
        calls.append(name)
        return orig(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_certify_and_enclose_share_powers(u_p3_n10, monkeypatch):
    """The defect needs u^3 and the potential u^2: two products in all
    (u^2, u^3 = u^2 u); the L^4 norm is <u^2, u^2> and builds none."""
    u = _fresh(u_p3_n10)
    calls = _count_calls(monkeypatch, "multiply")
    enclosure_from_ball(certify_ball(u, 3))
    assert len(calls) == 2


def test_split_order_scanned_once_per_certification(u_p3_n10, monkeypatch):
    """inverse_bound and the certificate's section and nprime read one
    section, chosen once and kept on the center: `_section`'s scan builds
    its box of eigenvalue levels (`_scan_box`) once."""
    u = _fresh(u_p3_n10)
    calls = _count_calls(monkeypatch, "_scan_box", certify)
    ball = certify_ball(u, 3)
    assert len(calls) == 1
    assert ball.nprime == default_split_order(u, 3) == 23
    assert (ball.inverse.level, *ball.inverse.box) == certify._section(u, 3)[:3]
    assert len(calls) == 1


def test_certifier_reads_no_float_eigenvalue(u_p3_n10, monkeypatch):
    """Every eigenvalue the certifier reads is an interval: with the float
    formula `DomainRect.lambda_float` made to raise, certify_ball on the c4
    N=10 center gives the same ball, bit for bit."""
    want = certify_ball(_fresh(u_p3_n10), 3).to_dict()

    def no_float(*args):
        raise AssertionError("the certifier read a float eigenvalue")

    monkeypatch.setattr(DomainRect, "lambda_float", no_float)
    assert certify_ball(_fresh(u_p3_n10), 3).to_dict() == want


def test_certify_ball_checks_center_before_defect_work(monkeypatch):
    """A non-square center is a DomainError before any power expansion."""
    c = np.zeros((3, 5))
    c[::2, ::2] = [[4.0, 0.1, 0.01], [0.1, 0.01, 0.001]]
    calls = _count_calls(monkeypatch, "multiply")
    with pytest.raises(DomainError):
        certify_ball(SineSeries2D(SQ, c), 3)
    assert calls == []


def test_capacity_error_before_defect_work(monkeypatch):
    """A one-mode center of amplitude 300 at p=3 has Wbar = 3 * 300^2, so
    c <= COUPLING_TARGET needs a tail eigenvalue above 2e7 and an odd-odd
    block far above MAX_DENSE_ROWS: CapacityError after the u^{p-1} chain
    (the one product u^2, for G) and before any defect or block work."""
    c = np.zeros((3, 3))
    c[0, 0] = 300.0
    calls = _count_calls(monkeypatch, "multiply")
    later = [_count_calls(monkeypatch, name, certify)
             for name in ("defect_bounds", "_potential_matrix")]
    with pytest.raises(CapacityError):
        certify_ball(SineSeries2D(SQ, c), 3)
    assert calls == ["multiply"] and later == [[], []]


def test_even_p_negative_part_bound_built_once(monkeypatch):
    """For even p the coupling of the inverse bound and the positiveness
    audit use sup u_-, and the defect does not; the boundary factorisation
    behind it runs once."""
    u = newton_solve(SolverConfig(p=2, N=6), initial_guess(2, SQ))
    calls = _count_calls(monkeypatch, "factor_boundary")
    defect_bounds(u, 2)
    inverse_bound(u, 2)
    positiveness_certificate(u, 2, Interval(0.0, 1e-3))
    assert len(calls) == 1
