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

The convolution runs on each axis's parity sub-grid, where the entries it
skips are exact zeros, as float64 GEMMs on integer slices of the midpoints
that make no rounding error, with float GEMMs for the radius and an integer
GEMM for the support (`multiply`).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import CapacityError, DomainError, OverflowError_
from .intervals import PI, PI_HALF, Interval, iv_pow_real, iv_sin, iv_sqrt
from .ivarray import _EPS, IArray, _dn, _up, imatmul, isum

MAX_EXPANSION_ORDER = 1024
# Rows of the largest dense matrix built (`galerkin_jacobian`, the odd-odd
# block of the inverse bound) and of Newton's Galerkin system, whose Krylov
# steps build no matrix but whose transforms grow with its rows; more is a
# CapacityError before allocation.  The inverse bound peaks at 18 to 20 bytes
# per unfolded block entry on a square and 34 to 41 on a rectangle
# (certify_ball's peak RSS raise over rows^2 at 729 to 5041 rows), so 41 B
# budgets 2.4 GB.  The block's rows follow the center's sup, gradient and
# Laplacian bounds, not N (169 at p=3 on the unit square), so there the
# Galerkin system's ceil(N/2)^2 rows set the cap: p=3, N <= 174.
MAX_DENSE_ROWS = 7600
INF_GRID = 128  # cells per side of the one-pass grid behind inf_lower_bound
_MAX_BASIS_ARG = 2.0 ** 12  # numpy's sin and cos are checked up to this

SIN = "sin"
COS = "cos"


@dataclass(frozen=True)
class DomainRect:
    """Axis-aligned rectangle (0, L1) x (0, L2); side lengths are exact floats."""

    L1: float
    L2: float

    def __post_init__(self):
        try:
            sides = [float(L) for L in (self.L1, self.L2) if isinstance(L, numbers.Real)]
        except OverflowError:
            sides = []
        if len(sides) != 2 or not all(0 < L < math.inf for L in sides):
            raise DomainError(f"invalid rectangle sides ({self.L1!r}, {self.L2!r})")
        object.__setattr__(self, "L1", sides[0])
        object.__setattr__(self, "L2", sides[1])

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
    potential, the H^1_0 norm, the negative-part, sup, gradient and
    Laplacian bounds, the split order) are therefore computed on first use
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
        """Enclosures of every basis function at exact float points x.

        Lemma.  Let a = fl(fl(x m) fl(pi/L)) and u = 2^-53.  The three
        roundings and the relative error of math.pi (below u) give
        a = (m pi x/L)(1 + t) with |t| <= gamma_4 = 4u/(1 - 4u), so
        |a - m pi x/L| <= gamma_4 |a|/(1 - gamma_4) <= 5u|a|.  sin and cos
        are 1-Lipschitz, and numpy's sin and cos of a float64 array are
        within 2 ulps, at most 2^-51 on [-1, 1], for |a| <= 2^12 (the libm
        assumption of `intervals`).  So v = sin(a), or cos(a) on a cosine
        axis, is within 5u|a| + 2^-51 + 1e-300 of the basis value, the last
        term covering underflow in a.  The radius is rounded upward twice;
        the second step alone adds more than 1e-300.
        """
        parity = self.parity_x if axis == 0 else self.parity_y
        L = self.domain.L1 if axis == 0 else self.domain.L2
        modes = _modes(parity, self.coeffs.shape[axis]).astype(np.float64)
        a = np.multiply.outer(points, modes) * (math.pi / L)
        if np.any(np.abs(a) > _MAX_BASIS_ARG):
            raise DomainError(f"basis argument beyond 2^12 at {modes[-1]:.0f} modes")
        v = np.sin(a) if parity == SIN else np.cos(a)
        rad = _up(_up(2.5 * _EPS * np.abs(a)) + 2.0 ** -51)  # 2.5 _EPS = 5u
        return IArray(np.maximum(_dn(v - rad), -1.0), np.minimum(_up(v + rad), 1.0),
                      _unsafe=True)

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
        """Exact-orthogonality H^1_0 norm, kept on u; sine/sine series only."""
        if not self.is_sine:
            raise DomainError("h01_norm requires a sine/sine series")
        return self.fact("h01", self._h01_norm)

    def _h01_norm(self) -> Interval:
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

    def lap_sup_bound(self) -> Interval:
        """[0, H] encloses sup |Lap u|, kept on u: each basis function is an
        eigenfunction of -Lap with eigenvalue lambda_ab = pi^2 (a^2/L1^2 +
        b^2/L2^2) (0 for the constant) and is bounded by 1 in absolute value,
        so H = sum |c_ab| lambda_ab."""
        return self.fact("lap_sup", lambda: Interval(0.0, isum(
            abs(self.coeffs) * self.domain.lambda_grid(self.modes_x(), self.modes_y())).hi))

    def inf_lower_bound(self) -> float:
        """Lower bound on inf u over the rectangle, in one pass: the lower
        ends of u at the midpoints of the INF_GRID x INF_GRID cells, less
        g >= sup |grad u| times the half cell diagonal."""
        dom = self.domain
        hx, hy = dom.L1 / INF_GRID, dom.L2 / INF_GRID
        xs = hx * (np.arange(INF_GRID) + 0.5)
        ys = hy * (np.arange(INF_GRID) + 0.5)
        vals = self.values_on_grid(xs, ys)
        # half cell diagonal, plus slack covering float placement of the
        # nominal cell midpoints (a few ulps of the domain size)
        slack = 1e-12 * (dom.L1 + dom.L2 + 1.0)
        corr = _up(self.grad_sup_bound().hi
                   * (0.5 * math.hypot(hx, hy) * (1.0 + 1e-12) + slack))
        return float(_dn(np.min(vals.lo) - corr))

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
            for pair in d["coeffs"]:
                if not (isinstance(pair, list) and len(pair) == 2
                        and all(isinstance(v, str) for v in pair)):
                    raise DomainError(f"coefficient {pair!r} is not a [lo, hi] pair of strings")
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


def odd_odd_order(u: Series2D) -> int:
    """u's order N; DomainError unless its coefficient array is square,
    N x N, and odd-odd, with every even-mode coefficient exactly zero, as
    the positive solution is (symmetric about both mid-lines)."""
    mag = u.coeffs.mag()
    if mag.shape[0] != mag.shape[1]:
        raise DomainError(f"coefficient array is {mag.shape[0]} x {mag.shape[1]}; "
                          "order N takes a square N x N array")
    if np.any(mag[1::2, :] > 0) or np.any(mag[:, 1::2] > 0):
        raise DomainError("nonzero even-mode coefficient; the positive solution "
                          "is odd-odd (symmetric about both mid-lines)")
    return mag.shape[0]


# -- rigorous products ------------------------------------------------------------

# machine epsilon of the extended-precision accumulator (binary64's where
# numpy's longdouble is plain double)
_EPS_LD = float(np.finfo(np.longdouble).eps)
# bits of each factor's midpoint that `multiply` keeps in its slices; the
# rest of each entry joins its radius
_SLICE_BITS = 100
# floats in each Toeplitz block of one chunk of `multiply`'s GEMMs
_CHUNK_FLOATS = 2 ** 15


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


def _axis_plan(nza: np.ndarray, nzb: np.ndarray, sa: int, sb: int, first: int):
    """Compaction of one axis: (step h, slice of a, slice of b, compact
    output rows n0..n1 - 1, kept index of compact row n0).

    nza, nzb mark the nonzero indices of the two extensions (lengths sa, sb,
    centred at index 0) along the axis.  Both are cut to their nonzero span;
    where each has one index parity, as every factor of the power chain has,
    only every second index is kept (h = 2): the ones dropped are exact zeros.
    Compact indices m of a and l of b meet at compact row m + l, product
    index off + h (m + l); the rows kept are those with an index >= first.
    """
    ia, ib = np.flatnonzero(nza), np.flatnonzero(nzb)
    one_parity = not (np.any((ia - ia[0]) % 2) or np.any((ib - ib[0]) % 2))
    h = 2 if one_parity else 1
    off = (int(ia[0]) - (sa - 1) // 2) + (int(ib[0]) - (sb - 1) // 2)
    n0 = max(0, -((off - first) // h))
    n1 = (ia[-1] - ia[0]) // h + (ib[-1] - ib[0]) // h + 1
    return (h, slice(ia[0], ia[-1] + 1, h), slice(ib[0], ib[-1] + 1, h),
            (n0, n1), off + h * n0 - first)


def _slice_width(k: int):
    """(beta, S) for convolutions of at most k terms per entry: the largest
    beta with k 2^(2 beta) <= 2^52, and S = ceil(_SLICE_BITS / beta)."""
    beta = (52 - (k - 1).bit_length()) // 2
    return beta, -(-_SLICE_BITS // beta)


def _slices(m: np.ndarray, count: int, beta: int):
    """(slices, e, rho): m = 2^e sum_s slices[s] 2^(-(s+1) beta) + rest with
    |rest| <= rho entrywise, each slice integer-valued below 2^beta in
    magnitude and of the sign of its entry of m.

    2^e > max |m|.  An entry below 2^(e - count beta) in magnitude is all
    rest.  Every other entry scales to a normal float x = m 2^-e with
    |x| < 1, and each step of x <- 2^beta x - trunc(2^beta x) is exact (a
    scaling by a power of two upward, and Sterbenz's lemma), so the last x
    is the exact rest in units of 2^(e - count beta).
    """
    e = int(np.frexp(np.max(np.abs(m)))[1])
    kept = np.abs(m) >= np.ldexp(1.0, e - count * beta)
    x = np.where(kept, np.ldexp(m, -e), 0.0)
    out = np.empty((count,) + m.shape)
    for s in range(count):
        x = x * 2.0 ** beta
        out[s] = np.trunc(x)
        x = x - out[s]
    rest = np.where(x == 0.0, 0.0, _up(np.ldexp(np.abs(x), e - count * beta)))
    return out, e, np.where(kept, rest, np.abs(m))


def _toeplitz_gemms(a: np.ndarray, b: np.ndarray, rows, cols, pairs, chunk):
    """Layer products of the compact 2-D convolution C = a * b on output
    rows x cols, as GEMMs of Toeplitz blocks.

    a and b are stacks of layers on compact grids, and
    C[n, j] = sum_{l, q} a[n - l, q] b[l, j - q]: a block of a, Toeplitz
    along x (rows n, columns (l, q)), times a block of b, Toeplitz along y
    (rows (l, q), columns j).  The sum over l, b's x index, runs in chunks of
    `chunk` indices, which keeps both blocks small; a chunk reaches only the
    output rows n whose n - l falls in a.  With a's y axis and the chunk's l
    taken in reverse, a row of the first block is a contiguous run of a and
    a column of the second a contiguous run of b, so both blocks are plain
    strided copies.  pairs[i] = (range of a's layers, layer of b): out[i][k]
    is the product of the k-th layer of the range with that layer of b.
    """
    (na, nax, nay), (nb, nbx, nby) = a.shape, b.shape
    r0, r1 = rows
    c0, c1 = cols
    a_pad = np.zeros((na, nax + 2 * (nbx - 1), nay))
    a_pad[:, nbx - 1:nbx - 1 + nax] = a[:, :, ::-1]
    b_pad = np.zeros((nb, nbx, nby + 2 * (nay - 1)))
    b_pad[:, :, nay - 1:nay - 1 + nby] = b
    b_win = sliding_window_view(b_pad, nay, axis=2)  # [., l, j, q'] = b_pad[., l, j + q']
    out = [np.zeros((len(la), r1 - r0, c1 - c0)) for la, _ in pairs]
    for l0 in range(0, nbx, chunk):
        l1 = min(l0 + chunk, nbx)
        n0, n1 = max(r0, l0), min(r1, l1 + nax - 1)
        if n0 >= n1:
            continue
        inner = (l1 - l0) * nay
        # ta[., n, (l', q')] = a[., n - l, nay - 1 - q'] and
        # tb[., j, (l', q')] = b[., l, j - (nay - 1 - q')], both at l = l1 - 1 - l'
        ta = np.ascontiguousarray(as_strided(a_pad[:, n0 - l1 + nbx:], (na, n1 - n0, inner),
                                             a_pad.strides))
        tb = np.ascontiguousarray(b_win[:, l1 - 1:l0 - 1 if l0 else None:-1, c0:c1]
                                  .transpose(0, 2, 1, 3)).reshape(nb, c1 - c0, inner)
        for acc, (la, lb) in zip(out, pairs):
            blk = ta[la.start:la.stop].reshape(-1, inner) @ tb[lb].T
            acc[:, n0 - r0:n1 - r0] += blk.reshape(len(la), n1 - n0, -1)
    return out


def multiply(u: Series2D, v: Series2D) -> Series2D:
    """Exact (outward-rounded) pointwise product of two series.

    The product's extension is the 2-D convolution of the factors'
    extensions, scaled and restricted to the nonnegative quadrant (module
    docstring).  It is computed on each axis's parity sub-grid (`_axis_plan`)
    by float64 GEMMs that make no rounding error, in the manner of Ozaki,
    Ogita, Oishi and Rump (Numer. Algorithms 59, 2012).

    Let k be the product over both axes of the smaller count of nonzero
    indices of the two extensions: no entry of the convolution sums more
    than k products.  Take beta = floor((52 - ceil(log2 k)) / 2), so that
    k 2^(2 beta) <= 2^52, and S = ceil(_SLICE_BITS / beta).  Cut each
    midpoint into S integer slices of beta bits (`_slices`):
    a = 2^ea sum_s A_s 2^(-(s+1) beta) + rest_a, |A_s| < 2^beta, and
    likewise b.  Lemma:

    - Exactness.  Each slice product conv(A_s, B_t) sums at most k integers
      below 2^(2 beta) in magnitude, so every partial sum, in any order and
      with or without FMA, is an integer below 2^52 and exact in binary64.
      One GEMM per slice pair thus gives it exactly, chunked or not.
    - Truncation.  Only the pairs s + t <= S - 1 are formed.  A pair with
      s + t = d contributes less than 2^(ea + eb - d beta) per pair of
      nonzero entries, and at most 2 S - 1 - d pairs have s + t = d, so the
      dropped ones add less than 2 (S - 1) 2^(ea + eb - S beta) n_e to entry
      e, n_e being its count of nonzero pairs (an exact integer GEMM of the
      nonzero masks, which also gives the support: an entry no pair reaches
      is exactly [0, 0]).  The rests join the factors' radii.
    - Midpoint.  The S (S + 1) / 2 slice products, scaled by powers of two,
      are summed once in extended precision, with error at most g = gamma
      of that count in the extended format, times sum |terms|, which is at
      most conv(|a|, |b|) as all slices of an entry share its sign.
    - Radius.  |xy - a b| <= |a| rad(y) + rad(x) (|b| + rad(y)) pairwise.
      Float GEMMs give conv(|a|, rad(b)), conv(rad(a), |b| + rad(b)) and
      conv(|a|, |b|); their sum, with g times the last, adds up at most
      3 n_e + 1 nonnegative terms, so it is within the factor
      1 + gamma_{3 n_e + 1} of its exact value, which 1 + 6 gamma(n_e)
      covers with the rounding of the few steps after it (gamma(n) as in
      `ivarray.imatmul`).  Underflow only adds to the absolute slack.
    - Rounding.  The midpoint times 2^(ea + eb) and the output scale (a power
      of two) stays exact in the extended format; each endpoint is formed
      there, stepped one unit outward and rounded once, outward, to binary64.
      4e-290 absorbs every underflow.
    """
    if u.domain != v.domain:
        raise DomainError("series domains differ")
    (am, ar, anz), (bm, br, bnz) = _extension(u), _extension(v)
    if am.shape[0] > bm.shape[0]:  # a chunk of b's x indices then reaches fewer rows
        (am, ar, anz), (bm, br, bnz) = (bm, br, bnz), (am, ar, anz)
    # the product's indices 0..top per axis: the sum of the half-widths
    shape = [(sa + sb) // 2 for sa, sb in zip(am.shape, bm.shape)]
    px, sx, ox = _axis_scale(u.parity_x, v.parity_x, shape[0])
    py, sy, oy = _axis_scale(u.parity_y, v.parity_y, shape[1])
    lo = np.zeros((sx.size, sy.size))
    hi = np.zeros((sx.size, sy.size))
    if not (anz.any() and bnz.any()):
        return Series2D(u.domain, IArray(lo, hi, _unsafe=True), px, py)
    (hx, ax, bx, rows, ix), (hy, ay, by, cols, iy) = (
        _axis_plan(anz.any(axis=1 - d), bnz.any(axis=1 - d), am.shape[d], bm.shape[d], first)
        for d, first in ((0, ox), (1, oy)))
    am, ar, anz = am[ax, ay], ar[ax, ay], anz[ax, ay]
    bm, br, bnz = bm[bx, by], br[bx, by], bnz[bx, by]
    k = math.prod(min(int(np.count_nonzero(anz.any(axis=1 - d))),
                      int(np.count_nonzero(bnz.any(axis=1 - d)))) for d in (0, 1))
    beta, count = _slice_width(k)
    npair = count * (count + 1) // 2
    g = (npair + 4) * _EPS_LD / (1.0 - (npair + 4) * _EPS_LD)

    slices_a, ea, rest_a = _slices(am, count, beta)
    slices_b, eb, rest_b = _slices(bm, count, beta)
    ra, rb = _add_up(ar, rest_a), _add_up(br, rest_b)
    abs_a, abs_b = np.abs(am), np.abs(bm)
    layers_a = np.concatenate((slices_a, [abs_a, ra, anz]))
    layers_b = np.concatenate((slices_b, [rb, _add_up(abs_b, rb), abs_b, bnz]))
    # floats per x index of b in the larger of the two Toeplitz blocks
    per_index = layers_b.shape[0] * max(rows[1] - rows[0], cols[1] - cols[0]) * am.shape[1]
    chunk = max(1, _CHUNK_FLOATS // per_index)
    # slice t of b with slices 0..S-1-t of a; the radius terms
    # |a| rad(b) and rad(a) (|b| + rad(b)); |a| |b|; the pair count
    pairs = [(range(count - t), t) for t in range(count)]
    pairs += [(range(count, count + 1), count), (range(count + 1, count + 2), count + 1),
              (range(count, count + 1), count + 2), (range(count + 2, count + 3), count + 3)]
    out = _toeplitz_gemms(layers_a, layers_b, rows, cols, pairs, chunk)
    rad = out[count][0] + out[count + 1][0] + g * out[count + 2][0]
    n_pairs = out[count + 3][0]

    # midpoint: sum_{s+t<=S-1} conv(A_s, B_t) 2^(-(s+t+2) beta), extended
    mid = np.zeros(rad.shape, dtype=np.longdouble)
    for d in range(count - 1, -1, -1):
        diag = sum(out[t][d - t].astype(np.longdouble) for t in range(d + 1))
        mid = mid * np.longdouble(2.0 ** -beta) + diag
    dst = (slice(ix, ix + hx * (rows[1] - rows[0] - 1) + 1, hx),
           slice(iy, iy + hy * (cols[1] - cols[0] - 1) + 1, hy))
    scale = np.multiply.outer(sx[dst[0]], sy[dst[1]])  # powers of two
    mid = np.ldexp(mid, ea + eb - 2 * beta) * scale.astype(np.longdouble)
    drop = 2.0 * (count - 1) * np.ldexp(n_pairs, ea + eb - count * beta)
    gam = (n_pairs + 4.0) * _EPS / (1.0 - (n_pairs + 4.0) * _EPS)
    r = _up((rad * (1.0 + 6.0 * gam) + drop) * np.abs(scale) + 4e-290).astype(np.longdouble)
    inf = np.longdouble(np.inf)
    c_lo = _round_ld(np.nextafter(mid - r, -inf), -1)
    c_hi = _round_ld(np.nextafter(mid + r, inf), 1)
    if not (np.all(np.isfinite(c_lo)) and np.all(np.isfinite(c_hi))):
        raise OverflowError_("series product overflowed")
    support = n_pairs > 0.0
    lo[dst] = np.where(support, c_lo, 0.0)
    hi[dst] = np.where(support, c_hi, 0.0)
    return Series2D(u.domain, IArray(lo, hi, _unsafe=True), px, py)


def _add_up(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x + y rounded up, for nonnegative x and y; exact where either is 0."""
    return np.where((x == 0.0) | (y == 0.0), x + y, _up(x + y))


def _round_ld(x: np.ndarray, direction: int) -> np.ndarray:
    """Extended-precision x rounded to binary64 toward -inf (direction < 0)
    or +inf."""
    f = x.astype(np.float64)
    if direction < 0:
        return np.where(f > x, _dn(f), f)
    return np.where(f < x, _up(f), f)


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


def _axis_overlaps(x_args: tuple, y_args: tuple) -> tuple:
    """(`_axis_overlap`(*x_args), `_axis_overlap`(*y_args)), built once where
    both axes ask for the same matrix, as on a square."""
    wx = _axis_overlap(*x_args)
    return wx, (wx if y_args == x_args else _axis_overlap(*y_args))


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
    boundary-factored profile w instead, in one grid pass:
    sup u_- <= max(0, -inf w).
    """
    if not u.is_sine:
        raise DomainError("negative_part_sup expects a sine/sine series")
    return u.fact("neg_sup",
                  lambda: max(0.0, -factor_boundary(u).inf_lower_bound()))


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
    wx, wy = _axis_overlaps((v.parity_x, nv, w.parity_x, nw, dom.L1),
                            (v.parity_y, mv, w.parity_y, mw, dom.L2))
    return isum(v.coeffs * imatmul(imatmul(wx, w.coeffs), wy.T))
