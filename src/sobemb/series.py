"""Truncated double sine/cosine series on a rectangle, with rigorous calculus.

A `Series2D` stores interval coefficients for a tensor basis
``bx(i pi x / L1) * by(j pi y / L2)`` where each factor is sine (modes
1..M) or cosine (modes 0..M-1).  Approximate solutions live in the pure
sine/sine subtype; exact integer powers of sine series produce cosine
parities for even powers.

Products are computed exactly (up to outward rounding) by trigonometric
convolution: per dimension,

    sin m sin k = (cos|m-k| - cos(m+k))/2
    sin m cos k = (sin(m+k) + sign(m-k) sin|m-k|)/2
    cos m cos k = (cos(m+k) + cos|m-k|)/2

so the 2-d product splits into four full 2-d convolutions/correlations of
the coefficient arrays, evaluated rigorously in midpoint-radius form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import convolve2d

from .errors import CapacityError, DomainError
from .intervals import PI, PI_HALF, Interval, iv_pow_real, iv_sin, iv_sqrt
from .ivarray import IArray, _dn, _up, _gamma_fac, imatmul, isum, sin_points

MAX_EXPANSION_ORDER = 1024

SIN = "sin"
COS = "cos"


@dataclass(frozen=True)
class DomainRect:
    """Axis-aligned rectangle (0, L1) x (0, L2); side lengths are exact floats."""

    L1: float
    L2: float

    def __post_init__(self):
        if not (
            math.isfinite(self.L1)
            and math.isfinite(self.L2)
            and self.L1 > 0
            and self.L2 > 0
        ):
            raise DomainError(f"invalid rectangle sides ({self.L1}, {self.L2})")

    def measure(self) -> Interval:
        return Interval(self.L1) * Interval(self.L2)

    def lambda1(self) -> Interval:
        """First Dirichlet eigenvalue pi^2 (1/L1^2 + 1/L2^2) of -Laplace."""
        return self.lambda_mode(1, 1)

    def lambda_mode(self, i: int, j: int) -> Interval:
        one = Interval(1.0)
        t = (
            Interval(float(i * i)) / (one * self.L1 * self.L1)
            + Interval(float(j * j)) / (one * self.L2 * self.L2)
        )
        return PI * PI * t

    def lambda_grid(self, modes_x: np.ndarray, modes_y: np.ndarray) -> IArray:
        one = Interval(1.0)
        ix = IArray(modes_x.astype(np.float64) ** 2) / IArray._coerce(
            one * self.L1 * self.L1
        )
        iy = IArray(modes_y.astype(np.float64) ** 2) / IArray._coerce(
            one * self.L2 * self.L2
        )
        s = ix.reshape(-1, 1) + iy.reshape(1, -1)
        return s * IArray._coerce(PI * PI)


def _modes(parity: str, length: int) -> np.ndarray:
    if parity == SIN:
        return np.arange(1, length + 1)
    return np.arange(0, length)


def _mode_to_index(parity: str, mode: int) -> int:
    return mode - 1 if parity == SIN else mode


class Series2D:
    """Tensor trig series with interval coefficients.

    Coefficients are never mutated after construction: every operation
    returns a new instance.  Facts derived from them (exact powers, the
    negative-part bound, the sup bound) are therefore computed on first use
    and kept in ``_facts`` for every later caller.
    """

    __slots__ = ("domain", "parity_x", "parity_y", "coeffs", "_facts")

    def __init__(self, domain: DomainRect, coeffs: IArray, parity_x=SIN, parity_y=SIN):
        if parity_x not in (SIN, COS) or parity_y not in (SIN, COS):
            raise ValueError("parity must be 'sin' or 'cos'")
        if coeffs.lo.ndim != 2:
            raise ValueError("coefficients must be 2-d")
        self.domain = domain
        self.parity_x = parity_x
        self.parity_y = parity_y
        self.coeffs = coeffs
        self._facts = {}

    @property
    def is_sine(self) -> bool:
        return self.parity_x == SIN and self.parity_y == SIN

    @property
    def N(self) -> int:
        return self.coeffs.shape[0]

    def modes_x(self) -> np.ndarray:
        return _modes(self.parity_x, self.coeffs.shape[0])

    def modes_y(self) -> np.ndarray:
        return _modes(self.parity_y, self.coeffs.shape[1])

    def scale(self, c) -> "Series2D":
        return Series2D(self.domain, self.coeffs * IArray._coerce(c),
                        self.parity_x, self.parity_y)

    # -- evaluation ------------------------------------------------------------

    def _basis_at_points(self, points: np.ndarray, axis: int) -> IArray:
        """Interval values of every basis function at exact float points."""
        parity = self.parity_x if axis == 0 else self.parity_y
        L = self.domain.L1 if axis == 0 else self.domain.L2
        modes = _modes(parity, self.coeffs.shape[axis]).astype(np.float64)
        # arg = mode * pi * x / L, all directed
        t = IArray(points.reshape(-1, 1)) * IArray(modes.reshape(1, -1))
        t = t * IArray._coerce(PI) / IArray._coerce(Interval(L))
        if parity == COS:
            t = t + IArray._coerce(PI_HALF)  # cos z = sin(z + pi/2)
        return sin_points(t)

    def values_on_grid(self, xs: np.ndarray, ys: np.ndarray) -> IArray:
        """Enclosures of u at a tensor grid of exact float points."""
        bx = self._basis_at_points(np.asarray(xs, dtype=np.float64), 0)
        by = self._basis_at_points(np.asarray(ys, dtype=np.float64), 1)
        return imatmul(imatmul(bx, self.coeffs), by.T)

    def eval(self, x, y) -> Interval:
        """Enclosure of u over interval (or point) arguments x, y."""
        x = Interval._coerce(x)
        y = Interval._coerce(y)
        if x.lo < 0 or x.hi > self.domain.L1 or y.lo < 0 or y.hi > self.domain.L2:
            raise DomainError("evaluation point outside the rectangle")
        bx = self._basis_1d(x, 0)
        by = self._basis_1d(y, 1)
        total = Interval(0.0)
        lo, hi = self.coeffs.lo, self.coeffs.hi
        for i in range(lo.shape[0]):
            row = Interval(0.0)
            for j in range(lo.shape[1]):
                row = row + Interval(lo[i, j], hi[i, j]) * by[j]
            total = total + bx[i] * row
        return total

    def _basis_1d(self, x: Interval, axis: int):
        parity = self.parity_x if axis == 0 else self.parity_y
        L = self.domain.L1 if axis == 0 else self.domain.L2
        out = []
        for m in _modes(parity, self.coeffs.shape[axis]):
            arg = Interval(float(m)) * PI * x / Interval(L)
            if parity == COS:
                arg = arg + PI_HALF
            out.append(iv_sin(arg))
        return out

    # -- norms and integrals -----------------------------------------------------

    def h01_norm(self) -> Interval:
        """Exact-orthogonality H^1_0 norm; sine/sine series only."""
        if not self.is_sine:
            raise DomainError("h01_norm requires a sine/sine series")
        lam = self.domain.lambda_grid(self.modes_x(), self.modes_y())
        s = isum(self.coeffs.square() * lam)
        quarter_measure = self.domain.measure() * Interval(0.25)
        return iv_sqrt(Interval(max(0.0, s.lo), s.hi) * quarter_measure)

    def l2_norm(self) -> Interval:
        s = isum(self.coeffs.square() * self._l2_weight_grid())
        return iv_sqrt(Interval(max(0.0, s.lo), s.hi))

    def _l2_weight_grid(self) -> IArray:
        """Integrals of the squared basis functions over the rectangle."""
        return self._l2_weights(0).reshape(-1, 1) * self._l2_weights(1).reshape(1, -1)

    def _l2_weights(self, axis: int) -> IArray:
        """Per-mode values of integral of basis^2 over one dimension."""
        parity = self.parity_x if axis == 0 else self.parity_y
        L = self.domain.L1 if axis == 0 else self.domain.L2
        modes = _modes(parity, self.coeffs.shape[axis])
        w = np.full(modes.shape, 0.5 * L)
        if parity == COS:
            w[modes == 0] = L
        return IArray(w)  # L/2 and L are exact scalings of the exact float L

    def integral(self) -> Interval:
        """Enclosure of the integral of u over the rectangle: <u, 1>."""
        one = Series2D(self.domain, IArray(np.ones((1, 1))), COS, COS)
        return _inner(self, one)

    # -- pointwise bounds ----------------------------------------------------------

    def sup_abs_bound(self) -> Interval:
        """Enclosure of sup |u|: coefficient sum above, 17 x 17 samples below."""
        s = self._facts.get("sup_abs")
        if s is None:
            ub = isum(abs(self.coeffs)).hi
            xs = np.linspace(0.0, self.domain.L1, 19)[1:-1]
            ys = np.linspace(0.0, self.domain.L2, 19)[1:-1]
            lb = float(np.max(abs(self.values_on_grid(xs, ys)).lo))
            s = self._facts["sup_abs"] = Interval(min(lb, ub), ub)
        return s

    def grad_sup_bound(self) -> Interval:
        gx = IArray(self.modes_x().astype(np.float64)) / IArray._coerce(
            Interval(self.domain.L1)
        )
        gy = IArray(self.modes_y().astype(np.float64)) / IArray._coerce(
            Interval(self.domain.L2)
        )
        g2 = gx.square().reshape(-1, 1) + gy.square().reshape(1, -1)
        norms = IArray(
            np.sqrt(np.maximum(g2.lo, 0.0)), _up(np.sqrt(g2.hi)), _unsafe=True
        )
        ub = (isum(abs(self.coeffs) * norms) * PI).hi
        return Interval(0.0, ub)

    def inf_enclosure(self, m: int = 256, refine: bool = True) -> Interval:
        """Enclosure of inf over the rectangle (Lipschitz-corrected grid)."""
        if m < 2:
            raise DomainError("inf_enclosure requires grid order m >= 2")
        g = self.grad_sup_bound().hi
        lo, hi = self._inf_pass(0.0, self.domain.L1, 0.0, self.domain.L2, m, g)
        if refine:
            # one refinement of the minimizing cell
            xs, ys, vals = self._grid_cells(0.0, self.domain.L1, 0.0, self.domain.L2, m)
            corr = self._cell_corr(self.domain.L1 / m, self.domain.L2 / m, g)
            cell_lo = _dn(vals.lo - corr)
            k = np.unravel_index(np.argmin(cell_lo), cell_lo.shape)
            others = cell_lo.copy()
            others[k] = np.inf
            hx, hy = self.domain.L1 / m, self.domain.L2 / m
            x0, y0 = k[0] * hx, k[1] * hy
            rlo, rhi = self._inf_pass(x0, x0 + hx, y0, y0 + hy, m, g)
            lo = min(float(np.min(others)), rlo) if others.size > 1 else rlo
            hi = min(hi, rhi)
        if self.is_sine:
            hi = min(hi, 0.0)  # u vanishes on the boundary, so inf <= 0
        lo = min(lo, hi)
        return Interval(lo, hi)

    def _grid_cells(self, xa, xb, ya, yb, m):
        hx = (xb - xa) / m
        hy = (yb - ya) / m
        xs = xa + hx * (np.arange(m) + 0.5)
        ys = ya + hy * (np.arange(m) + 0.5)
        return xs, ys, self.values_on_grid(xs, ys)

    def _cell_corr(self, hx, hy, g) -> float:
        # half cell diagonal, plus slack covering float placement of the
        # nominal cell midpoints (a few ulps of the domain size)
        slack = 1e-12 * (self.domain.L1 + self.domain.L2 + 1.0)
        return _up(g * (0.5 * math.hypot(hx, hy) * (1.0 + 1e-12) + slack))

    def _inf_pass(self, xa, xb, ya, yb, m, g):
        xs, ys, vals = self._grid_cells(xa, xb, ya, yb, m)
        corr = self._cell_corr((xb - xa) / m, (yb - ya) / m, g)
        lo = float(np.min(_dn(vals.lo - corr)))
        hi = float(np.min(vals.hi))
        return lo, hi

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": "sobemb-series/1",
            "domain": {"L1": self.domain.L1.hex(), "L2": self.domain.L2.hex()},
            "parity": [self.parity_x, self.parity_y],
            "shape": list(self.coeffs.shape),
            "coeffs": [
                [self.coeffs.lo[i, j].hex(), self.coeffs.hi[i, j].hex()]
                for i in range(self.coeffs.shape[0])
                for j in range(self.coeffs.shape[1])
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @staticmethod
    def from_dict(d: dict) -> "Series2D":
        if d.get("format") != "sobemb-series/1":
            raise ValueError("unknown series format")
        dom = DomainRect(
            float.fromhex(d["domain"]["L1"]), float.fromhex(d["domain"]["L2"])
        )
        nx, ny = d["shape"]
        lo = np.empty((nx, ny))
        hi = np.empty((nx, ny))
        for k, (slo, shi) in enumerate(d["coeffs"]):
            lo[k // ny, k % ny] = float.fromhex(slo)
            hi[k // ny, k % ny] = float.fromhex(shi)
        return Series2D(dom, IArray(lo, hi), d["parity"][0], d["parity"][1])

    @staticmethod
    def from_json(s: str) -> "Series2D":
        return Series2D.from_dict(json.loads(s))


def SineSeries2D(domain: DomainRect, coeffs) -> Series2D:
    """Pure sine/sine series; coeffs may be a float array or an IArray."""
    if not isinstance(coeffs, IArray):
        coeffs = IArray(np.asarray(coeffs, dtype=np.float64))
    return Series2D(domain, coeffs, SIN, SIN)


# -- rigorous products ------------------------------------------------------------


def _conv2_extended(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full 2-d convolution accumulated in extended precision.

    Iterates over the nonzero entries of the sparser factor, so structural
    zeros of the output are produced exactly.
    """
    if np.count_nonzero(b) < np.count_nonzero(a):
        a, b = b, a
    n2, m2 = b.shape
    out = np.zeros((a.shape[0] + n2 - 1, a.shape[1] + m2 - 1), dtype=np.longdouble)
    b_ld = b.astype(np.longdouble)
    for i, j in np.argwhere(a != 0.0):
        out[i : i + n2, j : j + m2] += a[i, j] * b_ld
    return out


# relative accumulation error of a k-term extended-precision dot product,
# dominated by the final cast back to float64 (one half-ulp)
_EPS_LD = float(np.finfo(np.longdouble).eps)


def _iconv2(a: IArray, b: IArray) -> IArray:
    """Full 2-d convolution of interval arrays, midpoint-radius with a
    rigorous a-priori rounding bound for the direct float convolutions."""
    am, ar = a.mid(), a.rad()
    bm, br = b.mid(), b.rad()
    k = min(a.lo.shape[0], b.lo.shape[0]) * min(a.lo.shape[1], b.lo.shape[1])
    g = _gamma_fac(k)
    g_mid = (k + 4) * _EPS_LD / (1.0 - (k + 4) * _EPS_LD) + 2.0 ** -52
    cm = _conv2_extended(am, bm).astype(np.float64)
    abs_am = np.abs(am)
    abs_bm = np.abs(bm)
    p = convolve2d(abs_am, abs_bm)
    rad = convolve2d(ar, abs_bm + br) + convolve2d(abs_am, br) + g_mid * p
    rad = _up(rad * (1.0 + 6.0 * g) + g * g_mid * p + 4e-290)
    lo, hi = _dn(cm - rad), _up(cm + rad)
    # Entries whose every contributing product has a factor that is the
    # exact interval [0, 0] are exactly zero; keep them so (this preserves
    # parity structure, which later lets finite sections split into blocks).
    support = convolve2d(
        ((a.lo != 0.0) | (a.hi != 0.0)).astype(np.float64),
        ((b.lo != 0.0) | (b.hi != 0.0)).astype(np.float64),
    )
    lo[support == 0.0] = 0.0
    hi[support == 0.0] = 0.0
    return IArray(lo, hi, _unsafe=True)


def _signed_quarter(val: IArray, sx: np.ndarray, sy: np.ndarray) -> IArray:
    """Multiply by outer(sx, sy)/4 with sx, sy in {-1, 0, +1} (exact)."""
    s = np.multiply.outer(sx, sy).astype(np.float64) * 0.25
    lo = np.where(s >= 0.0, s * val.lo, s * val.hi)
    hi = np.where(s >= 0.0, s * val.hi, s * val.lo)
    return IArray(lo, hi, _unsafe=True)


def _fold_axis(arr: IArray, offset: int, axis: int, out_len: int, sin_out: bool):
    """Map lag index l (starting at `offset`) to |l|, accumulating folds.

    For sine output the l = 0 row must already be zero (caller zeroes it).
    """
    if axis == 1:
        t = _fold_axis(arr.T, offset, 0, out_len, sin_out)
        return t.T
    n = arr.shape[0]
    out = IArray.zeros((out_len,) + arr.shape[1:])
    lags = np.arange(offset, offset + n)
    for sign_flip, sel in ((False, lags >= 0), (True, lags < 0)):
        if not np.any(sel):
            continue
        part = arr[sel]
        idx = np.abs(lags[sel])
        if sign_flip:
            part = IArray(part.lo[::-1], part.hi[::-1], _unsafe=True)
            idx = idx[::-1]
        lo0, hi0 = out.lo[idx[0] : idx[0] + len(idx)], out.hi[idx[0] : idx[0] + len(idx)]
        # adding an exact [0, 0] is exact: skip the outward widening there so
        # structurally zero coefficients stay zero
        zp = (part.lo == 0.0) & (part.hi == 0.0)
        zo = (lo0 == 0.0) & (hi0 == 0.0)
        out.lo[idx[0] : idx[0] + len(idx)] = np.where(
            zp, lo0, np.where(zo, part.lo, _dn(lo0 + part.lo)))
        out.hi[idx[0] : idx[0] + len(idx)] = np.where(
            zp, hi0, np.where(zo, part.hi, _up(hi0 + part.hi)))
    return out


def _axis_plan(pa: str, pb: str, term: str, offset: int, n: int):
    """Per-output-lag sign vector and output parity for one axis term.

    Returns (out_parity, sign_vector over the term's index range).
    term 'sum': index = mode_a + mode_b; term 'diff': index = mode_a - mode_b.
    """
    lags = np.arange(offset, offset + n)
    if pa == SIN and pb == SIN:
        out = COS
        s = -np.ones(n, dtype=np.int64) if term == "sum" else np.ones(n, dtype=np.int64)
    elif pa == COS and pb == COS:
        out = COS
        s = np.ones(n, dtype=np.int64)
    else:
        out = SIN
        if term == "sum":
            s = np.ones(n, dtype=np.int64)
        else:
            # sin_a cos_b: + sign(lag); cos_a sin_b: - sign(lag) with lag = ma - mb
            s = np.sign(lags).astype(np.int64)
            if pa == COS:
                s = -s
    return out, s


def multiply(u: Series2D, v: Series2D) -> Series2D:
    """Exact (outward-rounded) pointwise product of two series."""
    if u.domain != v.domain:
        raise DomainError("series domains differ")
    a, b = u.coeffs, v.coeffs
    ox_a = 1 if u.parity_x == SIN else 0
    oy_a = 1 if u.parity_y == SIN else 0
    ox_b = 1 if v.parity_x == SIN else 0
    oy_b = 1 if v.parity_y == SIN else 0

    bx_flip = IArray(b.lo[::-1, :].copy(), b.hi[::-1, :].copy(), _unsafe=True)
    by_flip = IArray(b.lo[:, ::-1].copy(), b.hi[:, ::-1].copy(), _unsafe=True)
    bxy_flip = IArray(b.lo[::-1, ::-1].copy(), b.hi[::-1, ::-1].copy(), _unsafe=True)

    na, ma = a.shape
    nb, mb = b.shape
    convs = {
        ("sum", "sum"): (_iconv2(a, b), ox_a + ox_b, oy_a + oy_b),
        ("sum", "diff"): (_iconv2(a, by_flip), ox_a + ox_b, oy_a - (oy_b + mb - 1)),
        ("diff", "sum"): (_iconv2(a, bx_flip), ox_a - (ox_b + nb - 1), oy_a + oy_b),
        ("diff", "diff"): (
            _iconv2(a, bxy_flip),
            ox_a - (ox_b + nb - 1),
            oy_a - (oy_b + mb - 1),
        ),
    }

    px, _ = _axis_plan(u.parity_x, v.parity_x, "sum", 0, 1)
    py, _ = _axis_plan(u.parity_y, v.parity_y, "sum", 0, 1)
    max_mode_x = (ox_a + na - 1) + (ox_b + nb - 1)
    max_mode_y = (oy_a + ma - 1) + (oy_b + mb - 1)
    out_nx = max_mode_x if px == SIN else max_mode_x + 1
    out_ny = max_mode_y if py == SIN else max_mode_y + 1
    result = IArray.zeros((out_nx, out_ny))

    for (tx, ty), (c, offx, offy) in convs.items():
        _, sx = _axis_plan(u.parity_x, v.parity_x, tx, offx, c.shape[0])
        _, sy = _axis_plan(u.parity_y, v.parity_y, ty, offy, c.shape[1])
        term = _signed_quarter(c, sx, sy)
        if tx == "diff":
            if px == SIN:
                zr = np.arange(offx, offx + c.shape[0]) == 0
                term.lo[zr, :] = 0.0
                term.hi[zr, :] = 0.0
            term = _fold_axis(term, offx, 0, max_mode_x + 1, px == SIN)
            mode_x0 = 0
        else:
            mode_x0 = offx
        if ty == "diff":
            if py == SIN:
                zc = np.arange(offy, offy + term.shape[1]) == 0
                term.lo[:, zc] = 0.0
                term.hi[:, zc] = 0.0
            term = _fold_axis(term, offy, 1, max_mode_y + 1, py == SIN)
            mode_y0 = 0
        else:
            mode_y0 = offy
        # place: array index = mode - 1 for sin, mode for cos; drop mode 0 rows
        ix0 = _mode_to_index(px, max(mode_x0, 1 if px == SIN else 0))
        skip_x = (1 if px == SIN else 0) - mode_x0
        skip_x = max(skip_x, 0)
        iy0 = _mode_to_index(py, max(mode_y0, 1 if py == SIN else 0))
        skip_y = max((1 if py == SIN else 0) - mode_y0, 0)
        sub = term[skip_x:, skip_y:]
        lx, ly = sub.shape
        dst_lo = result.lo[ix0 : ix0 + lx, iy0 : iy0 + ly]
        dst_hi = result.hi[ix0 : ix0 + lx, iy0 : iy0 + ly]
        zp = (sub.lo == 0.0) & (sub.hi == 0.0)
        zd = (dst_lo == 0.0) & (dst_hi == 0.0)
        result.lo[ix0 : ix0 + lx, iy0 : iy0 + ly] = np.where(
            zp, dst_lo, np.where(zd, sub.lo, _dn(dst_lo + sub.lo)))
        result.hi[ix0 : ix0 + lx, iy0 : iy0 + ly] = np.where(
            zp, dst_hi, np.where(zd, sub.hi, _up(dst_hi + sub.hi)))

    return Series2D(u.domain, result, px, py)


def power_expand(u: Series2D, p: int) -> Series2D:
    """Exact expansion of u^p (integer 1 <= p <= 6, sine/sine input).

    The result is kept on u and shared with every later expansion of u.
    """
    if not u.is_sine:
        raise DomainError("power_expand expects a sine/sine series")
    if not 1 <= p <= 6:
        raise DomainError(f"power_expand supports p in 1..6, got {p}")
    if p * u.N > MAX_EXPANSION_ORDER:
        raise CapacityError(
            f"expansion order {p * u.N} exceeds maximum {MAX_EXPANSION_ORDER}"
        )
    return _power(u, p)


# u^k = u^a * u^b: the chain u^2, u^3 = u^2 u, u^4 = u^2 u^2, u^5 = u^4 u,
# u^6 = u^4 u^2
_POWER_SPLIT = {2: (1, 1), 3: (2, 1), 4: (2, 2), 5: (4, 1), 6: (4, 2)}


def _power(u: Series2D, k: int) -> Series2D:
    """u^k along the chain above, each power built once and kept on u."""
    if k == 1:
        return u
    v = u._facts.get(("power", k))
    if v is None:
        a, b = _POWER_SPLIT[k]
        v = u._facts[("power", k)] = multiply(_power(u, a), _power(u, b))
    return v


# -- one-dimensional overlaps ------------------------------------------------------


def _axis_overlap(pa: str, na: int, pb: str, nb: int, L: float) -> IArray:
    """Matrix of integrals of basis_a(m) * basis_b(k) over one dimension."""
    ma = _modes(pa, na).astype(np.float64)
    mb = _modes(pb, nb).astype(np.float64)
    if pa == pb:
        w = np.zeros((na, nb))
        common = np.intersect1d(ma.astype(int), mb.astype(int))
        out = IArray(w)
        for m in common:
            i = _mode_to_index(pa, int(m))
            j = _mode_to_index(pb, int(m))
            out.lo[i, j] = L if (pa == COS and m == 0) else 0.5 * L
            out.hi[i, j] = out.lo[i, j]
        return out
    # sin x cos (or cos x sin): L/pi * m (1 - (-1)^{m+k}) / (m^2 - k^2), m != k
    if pa == SIN:
        m = ma.reshape(-1, 1)
        k = mb.reshape(1, -1)
    else:
        m = mb.reshape(1, -1)
        k = ma.reshape(-1, 1)
    parity_odd = ((m + k) % 2) == 1
    denom = m * m - k * k
    denom_safe = np.where(denom == 0.0, 1.0, denom)
    # 2m is exact; the product 2mL is not for a non-dyadic side, so round it
    num = IArray(np.where(parity_odd, 2.0 * m, 0.0)) * IArray._coerce(Interval(L))
    val = num / IArray(denom_safe) / IArray._coerce(PI)
    val.lo[~parity_odd] = 0.0
    val.hi[~parity_odd] = 0.0
    return val


def _dirichlet_kernel_matrix(n: int) -> np.ndarray:
    """T with sin(i t) = sin(t) * sum_l T[l, i-1] cos(l t) (exact small ints).

    Row l of column i-1 is 2 for 1 <= l <= i-1 with i-1-l even, and 1 for
    l = 0 when i is odd (Chebyshev U_{i-1}(cos t) expanded in cosines).
    """
    t = np.zeros((n, n))
    ls = np.arange(n).reshape(-1, 1)
    im1 = np.arange(n).reshape(1, -1)  # = i - 1
    hit = (ls <= im1) & ((im1 - ls) % 2 == 0)
    t[hit & (ls > 0)] = 2.0
    t[hit & (ls == 0)] = 1.0
    return t


def factor_boundary(u: Series2D) -> Series2D:
    """The cosine/cosine profile w with u = sin(pi x/L1) sin(pi y/L2) * w.

    w does not vanish on the boundary, so grid-based pointwise bounds on w
    stay sharp where the same bounds on u degenerate to the Lipschitz slack.
    Since 0 <= sin*sin <= 1 on the rectangle, inf w <= 0 implies
    sup u_- <= sup w_-, and w >= 0 implies u >= 0.
    """
    if not u.is_sine:
        raise DomainError("factor_boundary expects a sine/sine series")
    nx, ny = u.coeffs.shape
    tx = IArray(_dirichlet_kernel_matrix(nx))
    ty = IArray(_dirichlet_kernel_matrix(ny))
    c = imatmul(imatmul(tx, u.coeffs), ty.T)
    return Series2D(u.domain, c, COS, COS)


def negative_part_sup(u: Series2D) -> float:
    """Rigorous upper bound on sup u_- of a sine/sine series, kept on u.

    A grid infimum bound applied to u itself cannot beat grad_sup * cell size
    near the boundary (u vanishes there), so the bound is taken on the
    boundary-factored profile w instead: sup u_- <= max(0, -inf w).
    """
    if not u.is_sine:
        raise DomainError("negative_part_sup expects a sine/sine series")
    eta = u._facts.get("neg_sup")
    if eta is None:
        inf_w = factor_boundary(u).inf_enclosure(128)
        eta = u._facts["neg_sup"] = max(0.0, -inf_w.lo)
    return eta


def _iv_root(x: Interval, q: float) -> Interval:
    """Enclosure of x^(1/q) for x >= 0 (lo clamped at 0)."""
    if x.hi <= 0.0:
        return Interval(0.0)
    hi = iv_pow_real(Interval(x.hi), Interval(1.0) / Interval(q)).hi
    if x.lo <= 0.0:
        return Interval(0.0, hi)
    lo = iv_pow_real(Interval(x.lo), Interval(1.0) / Interval(q)).lo
    return Interval(max(lo, 0.0), hi)


def lp_norm(u: Series2D, q: float) -> Interval:
    """Enclosure of the L^q norm of a sine/sine series, integer 2 <= q <= 6,
    kept on u.

    q = 2: orthogonality.  Otherwise the integral of u^q is the inner
    product <u^a, u^b> of the two factors a + b = q of the power chain
    (`_POWER_SPLIT`), which every certification has built already; u^q itself
    is never expanded.  Odd q: the |u|^q - u^q discrepancy is bounded by
    2 * neg_sup^q * |domain| from the negative-part bound.
    """
    if not u.is_sine or q not in (2, 3, 4, 5, 6):
        raise DomainError(
            f"lp_norm requires a sine/sine series and integer q in 2..6, got {q}"
        )
    qi = int(q)
    norm = u._facts.get(("lp", qi))
    if norm is not None:
        return norm
    if qi == 2:
        norm = u.l2_norm()
    else:
        a, b = _POWER_SPLIT[qi]
        base = _inner(power_expand(u, a), power_expand(u, b))
        hi = base.hi
        if qi % 2 == 1:
            slack = (Interval(2.0) * Interval(negative_part_sup(u)) ** qi
                     * u.domain.measure())
            hi = (base + slack).hi
        norm = _iv_root(Interval(max(base.lo, 0.0), hi), q)
    u._facts[("lp", qi)] = norm
    return norm


def _inner(v: Series2D, w: Series2D) -> Interval:
    """Enclosure of the integral of v * w over the rectangle, through the
    exact one-dimensional overlaps of the two bases (diagonal where the
    parities agree)."""
    dom = v.domain
    (nv, mv), (nw, mw) = v.coeffs.shape, w.coeffs.shape
    if v.parity_x == w.parity_x and v.parity_y == w.parity_y:
        n, m = min(nv, nw), min(mv, mw)
        a, b = v.coeffs[:n, :m], w.coeffs[:n, :m]
        prod = a.square() if v is w else a * b
        return isum(prod * v._l2_weight_grid()[:n, :m])
    wx = _axis_overlap(v.parity_x, nv, w.parity_x, nw, dom.L1)
    wy = _axis_overlap(v.parity_y, mv, w.parity_y, mw, dom.L2)
    return isum(v.coeffs * imatmul(imatmul(wx, w.coeffs), wy.T))
