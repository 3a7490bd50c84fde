"""Truncated double sine/cosine series on a rectangle, with rigorous calculus.

A `Series2D` stores interval coefficients for a tensor basis
``bx(i pi x / L1) * by(j pi y / L2)`` where each factor is sine (modes
1..M) or cosine (modes 0..M-1).  Approximate solutions live in the pure
sine/sine subtype; exact integer powers of sine series produce cosine
parities for even powers.

Products are computed exactly (up to outward rounding) in three steps:

- extend: each factor's coefficients a_m become a two-sided array on
  indices -M..M, odd on a sine axis (E[+-m] = +-a_m, E[0] = 0) and even on
  a cosine axis (E[+-m] = a_m, E[0] = 2 a_0);
- convolve: the product's extension is s * (E_a * E_b), with s = -1/2 per
  axis for sin * sin and +1/2 otherwise, which covers all four parity pairs
  of sin m sin k = (cos(m-k) - cos(m+k))/2 and its siblings at once;
- restrict: keep the nonnegative quadrant, dropping index 0 on a sine
  output axis and halving it on a cosine output axis.

The convolution is one loop over the nonzero entries of the sparser
extension, in midpoint-radius form with an extended-precision midpoint, run
on each factor's parity sub-grid: the entries it skips are exact zeros.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, OverflowError_
from .intervals import PI, PI_HALF, Interval, iv_pow_real, iv_sin, iv_sqrt
from .ivarray import IArray, _dn, _up, _gamma_fac, imatmul, isum, sin_points

MAX_EXPANSION_ORDER = 1024
# Rows of the largest dense matrix built (the Newton Jacobian, the odd-odd
# block of the inverse bound); more is a CapacityError before allocation.  The
# inverse bound peaks at 18 to 20 bytes per unfolded block entry on a square
# and 34 to 41 on a rectangle (certify_ball's peak RSS raise over rows^2 at
# 729 to 5041 rows; the Jacobian needs less), so 41 B budgets 2.4 GB.  The
# block's rows follow the center's sup and gradient bounds, not N (289 at
# p=3 on the unit square), so there the Jacobian's ceil(N/2)^2 rows set the
# cap: p=3, N <= 174.
MAX_DENSE_ROWS = 7600
INF_GRID = 128  # cells per side of the grid behind inf_enclosure

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

    def to_dict(self) -> dict:
        return {"L1": self.L1.hex(), "L2": self.L2.hex()}

    @staticmethod
    def from_dict(d: dict) -> "DomainRect":
        return DomainRect(float.fromhex(d["L1"]), float.fromhex(d["L2"]))

    def measure(self) -> Interval:
        return Interval(self.L1) * Interval(self.L2)

    def is_square(self) -> bool:
        return self.L1 == self.L2

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


class Series2D:
    """Tensor trig series with interval coefficients.

    Coefficients are never mutated after construction: every operation
    returns a new instance.  Facts derived from them (exact powers, the
    potential, the negative-part, sup and gradient bounds, the split order)
    are therefore computed on first use and kept in ``_facts`` for every
    later caller.
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

    def fact(self, key, compute):
        """The derived fact `key`, from compute() on first use."""
        if key not in self._facts:
            self._facts[key] = compute()
        return self._facts[key]

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
        """[0, coefficient sum] encloses sup |u|: every basis function is
        bounded by 1 in absolute value."""
        return self.fact("sup_abs", lambda: Interval(0.0, isum(abs(self.coeffs)).hi))

    def grad_sup_bound(self) -> Interval:
        """[0, G] encloses sup |grad u|, kept on u: each basis function's
        derivative along an axis is at most pi m / L in absolute value, so
        |d_x u| <= gx = pi/L1 sum |c_ab| a, likewise gy, and
        G = sqrt(gx^2 + gy^2), by Minkowski never above the coefficient sum
        of |c_ab| pi sqrt((a/L1)^2 + (b/L2)^2)."""
        def bound():
            a = abs(self.coeffs)
            mx = IArray(self.modes_x().astype(np.float64)).reshape(-1, 1)
            my = IArray(self.modes_y().astype(np.float64)).reshape(1, -1)
            gx = Interval((isum(a * mx) * PI / Interval(self.domain.L1)).hi)
            gy = Interval((isum(a * my) * PI / Interval(self.domain.L2)).hi)
            return Interval(0.0, iv_sqrt(gx * gx + gy * gy).hi)

        return self.fact("grad_sup", bound)

    def inf_enclosure(self) -> Interval:
        """Enclosure of inf over the rectangle: Lipschitz-corrected lower
        bounds on the INF_GRID x INF_GRID cells, with the minimizing cell
        refined by the same grid once."""
        dom = self.domain
        hx, hy = dom.L1 / INF_GRID, dom.L2 / INF_GRID
        g = self.grad_sup_bound().hi
        cell_lo, hi = self._cells(0.0, dom.L1, 0.0, dom.L2, g)
        i, j = np.unravel_index(np.argmin(cell_lo), cell_lo.shape)
        x0, y0 = i * hx, j * hy
        sub_lo, sub_hi = self._cells(x0, x0 + hx, y0, y0 + hy, g)
        cell_lo[i, j] = np.inf
        lo = min(float(np.min(cell_lo)), float(np.min(sub_lo)))
        hi = min(hi, sub_hi)
        if self.is_sine:
            hi = min(hi, 0.0)  # u vanishes on the boundary, so inf <= 0
        lo = min(lo, hi)
        return Interval(lo, hi)

    def _cells(self, xa, xb, ya, yb, g):
        """(lower bound of u on each of the INF_GRID^2 cells of a box, least
        upper bound of u at a cell midpoint); g >= sup |grad u|."""
        hx = (xb - xa) / INF_GRID
        hy = (yb - ya) / INF_GRID
        xs = xa + hx * (np.arange(INF_GRID) + 0.5)
        ys = ya + hy * (np.arange(INF_GRID) + 0.5)
        vals = self.values_on_grid(xs, ys)
        # half cell diagonal, plus slack covering float placement of the
        # nominal cell midpoints (a few ulps of the domain size)
        slack = 1e-12 * (self.domain.L1 + self.domain.L2 + 1.0)
        corr = _up(g * (0.5 * math.hypot(hx, hy) * (1.0 + 1e-12) + slack))
        return _dn(vals.lo - corr), float(np.min(vals.hi))

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": "sobemb-series/1",
            "domain": self.domain.to_dict(),
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
        """The series of a `to_dict` record; DomainError on anything else."""
        try:
            if d.get("format") != "sobemb-series/1":
                raise DomainError(f"unknown series format {d.get('format')!r}")
            dom = DomainRect.from_dict(d["domain"])
            nx, ny = d["shape"]
            pairs = np.array([[float.fromhex(v) for v in pair] for pair in d["coeffs"]])
            if pairs.shape != (nx * ny, 2):
                raise DomainError(f"shape {nx} x {ny} but {len(pairs)} coefficient pairs")
            return Series2D(dom, IArray(pairs[:, 0].reshape(nx, ny), pairs[:, 1].reshape(nx, ny)),
                            d["parity"][0], d["parity"][1])
        except (AttributeError, KeyError, IndexError, TypeError, ValueError, OverflowError_) as exc:
            raise DomainError(f"malformed series record: {type(exc).__name__}: {exc}") from exc

    @staticmethod
    def from_json(s: str) -> "Series2D":
        try:
            d = json.loads(s)
        except ValueError as exc:
            raise DomainError(f"series is not JSON: {exc}") from exc
        return Series2D.from_dict(d)


def SineSeries2D(domain: DomainRect, coeffs) -> Series2D:
    """Pure sine/sine series; coeffs may be a float array or an IArray."""
    if not isinstance(coeffs, IArray):
        coeffs = IArray(np.asarray(coeffs, dtype=np.float64))
    return Series2D(domain, coeffs, SIN, SIN)


# -- rigorous products ------------------------------------------------------------

# machine epsilon of the extended-precision accumulator (binary64's where
# numpy's longdouble is plain double)
_EPS_LD = float(np.finfo(np.longdouble).eps)


def _extension(u: Series2D):
    """(midpoint, radius, nonzero mask) of u extended to indices -M..M per
    axis: odd on a sine axis (E[+-m] = +-a_m, E[0] = 0), even on a cosine
    axis (E[+-m] = a_m, E[0] = 2 a_0).  Negation and doubling are exact."""
    out = []
    for a, odd in ((u.coeffs.mid(), -1.0), (u.coeffs.rad(), 1.0)):
        for parity in (u.parity_x, u.parity_y):
            if parity == SIN:
                a = np.concatenate((odd * a[::-1], np.zeros_like(a[:1]), a))
            else:
                a = np.concatenate((a[:0:-1], 2.0 * a[:1], a[1:]))
            a = a.T  # the other axis next; two transposes restore the layout
        out.append(np.ascontiguousarray(a))
    mid, rad = out
    return mid, rad, (mid != 0.0) | (rad != 0.0)


def _axis_scale(pa: str, pb: str, n: int):
    """Output parity, per-index scale and first kept index on one axis.

    With f = c_f sum_m E_f[m] e^{imt} (c = 1/2 on a cosine axis, 1/(2i) on a
    sine axis), the product's extension is (c_a c_b / c_out) (E_a * E_b):
    -1/2 for sin * sin, +1/2 otherwise.  A sine output keeps indices 1..,
    a cosine output keeps 0.. with E[0] halved back to a_0.
    """
    s = np.full(n, -0.5 if pa == pb == SIN else 0.5)
    if pa != pb:
        return SIN, s[1:], 1
    s[0] *= 0.5
    return COS, s, 0


def _parity_step(used: np.ndarray) -> tuple:
    """(2, c) if every marked index has parity c, else (1, 0)."""
    idx = np.flatnonzero(used)
    if idx.size and not np.any((idx - idx[0]) % 2):
        return 2, int(idx[0]) % 2
    return 1, 0


def multiply(u: Series2D, v: Series2D) -> Series2D:
    """Exact (outward-rounded) pointwise product of two series.

    One sparse convolution of the factors' extensions, restricted to the
    nonnegative quadrant: a loop over the nonzero entries of the sparser
    extension accumulates the midpoint in extended precision, the radius
    with the midpoint's rounding bound g_mid |a||b|, and the support, so
    that entries no nonzero pair reaches are exactly [0, 0] (the parity
    structure that later splits finite sections into blocks).  An entry sums
    at most k products, k the product over both axes of the smaller count of
    nonzero indices of the two extensions; every float sum of nonnegative
    terms above is within the factor 1 + 6 gamma_k of its exact value.

    The loop runs on the denser factor's parity sub-grid: on an axis where
    all nonzero indices of b share one parity, as in every factor of the
    power chain (u has odd indices, u^2 even, u^3 odd, ...), its source and
    destination slices step by 2 from the first index of that parity.  That
    is exact, not an approximation: a skipped entry of b has midpoint and
    radius 0 and no support, so it would add 0 to the radius, nothing to
    the support, and +-0 to the midpoint, which leaves the accumulator
    unchanged (it starts at +0 and a round-to-nearest sum is never -0
    unless both terms are).  The same terms are summed in the same order,
    so the result is bit for bit that of the loop over whole slabs, and k,
    which counts nonzero indices only, does not change.
    """
    if u.domain != v.domain:
        raise DomainError("series domains differ")
    ea, eb = _extension(u), _extension(v)
    if np.count_nonzero(eb[2]) < np.count_nonzero(ea[2]):
        ea, eb = eb, ea
    am, ar, anz = ea
    bm, br, bnz = eb
    k = math.prod(min(np.count_nonzero(anz.any(axis=1 - d)),
                      np.count_nonzero(bnz.any(axis=1 - d))) for d in (0, 1))
    g_mid = (k + 4) * _EPS_LD / (1.0 - (k + 4) * _EPS_LD) + 2.0 ** -52

    # product indices run over 0..top per axis: the sum of the half-widths
    top = [(sa + sb) // 2 - 1 for sa, sb in zip(am.shape, bm.shape)]
    shape = (top[0] + 1, top[1] + 1)
    mid = np.zeros(shape, dtype=np.longdouble)
    rad = np.zeros(shape)
    support = np.zeros(shape, dtype=bool)
    bm_ld = bm.astype(np.longdouble)
    b_rad = br + g_mid * np.abs(bm)  # what |a| multiplies
    b_mag = np.abs(bm) + br  # what rad(a) multiplies
    # per axis, b's nonzero indices all have parity c (step h = 2) or not (h = 1)
    (hx, cx), (hy, cy) = (_parity_step(bnz.any(axis=1 - d)) for d in (0, 1))
    nz = np.nonzero(anz)
    for i, j, a_mid, a_abs, a_rad in zip(*nz, am[nz].astype(np.longdouble),
                                         np.abs(am[nz]), ar[nz]):
        # b's entries from (si, sj) on reach product indices from (oi, oj) on
        si, sj = max(top[0] - i, 0), max(top[1] - j, 0)
        si, sj = si + (cx - si) % hx, sj + (cy - sj) % hy
        if si >= bm.shape[0] or sj >= bm.shape[1]:
            continue
        oi, oj = i + si - top[0], j + sj - top[1]
        dst = (slice(oi, oi + bm.shape[0] - si, hx), slice(oj, oj + bm.shape[1] - sj, hy))
        src = (slice(si, None, hx), slice(sj, None, hy))
        m, r, s = mid[dst], rad[dst], support[dst]
        np.add(m, a_mid * bm_ld[src], out=m)
        np.add(r, a_abs * b_rad[src], out=r)
        if a_rad:
            np.add(r, a_rad * b_mag[src], out=r)
        np.logical_or(s, bnz[src], out=s)

    px, sx, ox = _axis_scale(u.parity_x, v.parity_x, shape[0])
    py, sy, oy = _axis_scale(u.parity_y, v.parity_y, shape[1])
    scale = np.multiply.outer(sx, sy)  # powers of two: exact but for underflow
    keep = (slice(ox, None), slice(oy, None))
    cm = (mid[keep] * scale.astype(np.longdouble)).astype(np.float64)
    r = _up(rad[keep] * np.abs(scale) * (1.0 + 6.0 * _gamma_fac(k)) + 4e-290)
    lo = np.where(support[keep], _dn(cm - r), 0.0)
    hi = np.where(support[keep], _up(cm + r), 0.0)
    return Series2D(u.domain, IArray(lo, hi, _unsafe=True), px, py)


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
    a, b = _POWER_SPLIT[k]
    return u.fact(("power", k), lambda: multiply(_power(u, a), _power(u, b)))


# -- one-dimensional overlaps ------------------------------------------------------


def _axis_overlap(pa: str, na: int, pb: str, nb: int, L: float) -> IArray:
    """Matrix of integrals of basis_a(m) * basis_b(k) over one dimension."""
    ma = _modes(pa, na).astype(np.float64)
    mb = _modes(pb, nb).astype(np.float64)
    if pa == pb:  # index i is the same mode in both bases: L/2, or L for cos 0
        w = np.eye(na, nb) * (0.5 * L)
        if pa == COS:
            w[0, 0] = L
        return IArray(w)
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
    return u.fact("neg_sup",
                  lambda: max(0.0, -factor_boundary(u).inf_enclosure().lo))


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

    def compute():
        if qi == 2:
            return u.l2_norm()
        a, b = _POWER_SPLIT[qi]
        base = _inner(power_expand(u, a), power_expand(u, b))
        hi = base.hi
        if qi % 2 == 1:
            slack = (Interval(2.0) * Interval(negative_part_sup(u)) ** qi
                     * u.domain.measure())
            hi = (base + slack).hi
        return _iv_root(Interval(max(base.lo, 0.0), hi), q)

    return u.fact(("lp", qi), compute)


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
