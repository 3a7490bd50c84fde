"""Rigorous tensor midpoint quadrature for integrals of |u|^q.

Composite midpoint rule on an m x m cell grid with a Lipschitz remainder:
on each cell, |u|^q deviates from its midpoint value by at most
L * (half cell diagonal) where L <= q * sup|u|^(q-1) * sup|grad u| is a
global Lipschitz constant of |u|^q.  All cell evaluations are interval
enclosures, so the result is a true two-sided bound.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, QuadratureError
from .intervals import Interval, iv_pow_real
from .ivarray import IArray, _dn, _up, isum

MAX_CELLS = 4096


def _abs_pow(vals: IArray, q: float) -> IArray:
    """Elementwise enclosure of |vals|^q for real q > 1 (0^q = 0)."""
    a = abs(vals)
    lo = np.empty_like(a.lo)
    hi = np.empty_like(a.hi)
    flat_lo = a.lo.ravel()
    flat_hi = a.hi.ravel()
    olo = lo.ravel()
    ohi = hi.ravel()
    qiv = Interval(q)
    for i in range(flat_lo.size):
        xl, xh = flat_lo[i], flat_hi[i]
        if xh <= 0.0:
            olo[i] = 0.0
            ohi[i] = 0.0
            continue
        ohi[i] = iv_pow_real(Interval(xh), qiv).hi
        olo[i] = 0.0 if xl <= 0.0 else max(0.0, iv_pow_real(Interval(xl), qiv).lo)
    return IArray(lo, hi, _unsafe=True)


def integrate_abs_power(u, q: float, cells: int = 512) -> Interval:
    """Enclosure of the integral of |u|^q over u's rectangle."""
    if cells < 2:
        raise DomainError("quadrature needs at least 2 cells per dimension")
    if cells > MAX_CELLS:
        raise QuadratureError(f"cell budget {cells} exceeds maximum {MAX_CELLS}")
    dom = u.domain
    m = cells
    hx = dom.L1 / m
    hy = dom.L2 / m
    xs = hx * (np.arange(m) + 0.5)
    ys = hy * (np.arange(m) + 0.5)
    vals = u.values_on_grid(xs, ys)
    f = _abs_pow(vals, q)

    sup_u = u.sup_abs_bound().hi
    grad = u.grad_sup_bound().hi
    # global Lipschitz constant of |u|^q
    lip = (
        Interval(q)
        * iv_pow_real(Interval(max(sup_u, 1e-300)), Interval(q) - Interval(1.0))
        * Interval(grad)
    ).hi
    # half diagonal plus placement slack for float midpoints
    halfdiag = _up(
        0.5 * math.hypot(hx, hy) * (1.0 + 1e-12) + 1e-12 * (dom.L1 + dom.L2)
    )
    corr = _up(lip * halfdiag)

    # the m x m cells tile the rectangle exactly, so the integral equals
    # (sum of per-cell means) * (L1*L2/m^2) with each mean enclosed by the
    # midpoint value widened by the Lipschitz correction
    widened = IArray(
        np.maximum(_dn(f.lo - corr), 0.0), _up(f.hi + corr), _unsafe=True
    )
    s = isum(widened)
    per_cell = dom.measure() / Interval(float(m * m))
    total = Interval(max(0.0, s.lo), s.hi) * per_cell
    return Interval(max(0.0, total.lo), total.hi)
