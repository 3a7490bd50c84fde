"""Vectorized interval arrays (numpy lo/hi pairs) with outward rounding.

Elementwise operations widen the round-to-nearest result by one ulp in each
direction, which contains the exact result since round-to-nearest error is
at most 0.5 ulp; an endpoint that leaves binary64 raises OverflowError_,
with no RuntimeWarning (`_checked`).  Sums are exact: `isum` rounds the
exact sum of each endpoint array to the nearest float below (above) it,
with `math.fsum`.  Matrix products keep a-priori floating point error
bounds of the classical (k u / (1 - k u)) * sum|x| form instead of per-step
widening, so they stay BLAS-fast.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import DivisionByZeroInterval, OverflowError_
from .intervals import Interval

_EPS = 2.0 ** -52
_TINY = 1e-290  # absorbs underflow in radius computations
_RAD_FLOOR = 1e-200  # lower clamp for nonzero radii entering BLAS products


def _dn(x):
    return np.nextafter(x, -np.inf)


def _up(x):
    return np.nextafter(x, np.inf)


def _chk(*arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise OverflowError_("interval array endpoint overflowed")


def _checked(op):
    """op with numpy's overflow and invalid warnings off: a value that
    leaves binary64 (inf, or nan from inf - inf) reaches a finiteness check
    instead, `_chk` here and Newton's in the solver."""
    @functools.wraps(op)
    def run(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return op(*args, **kwargs)
    return run


class IArray:
    """Array of intervals stored as two float64 arrays of equal shape."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None, _unsafe=False):
        lo = np.asarray(lo, dtype=np.float64)
        hi = lo.copy() if hi is None else np.asarray(hi, dtype=np.float64)
        if not _unsafe:
            _chk(lo, hi)
            if np.any(lo > hi):
                raise ValueError("lo > hi in IArray")
        self.lo = lo
        self.hi = hi

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(shape) -> "IArray":
        z = np.zeros(shape)
        return IArray(z, z.copy(), _unsafe=True)

    def copy(self) -> "IArray":
        return IArray(self.lo.copy(), self.hi.copy(), _unsafe=True)

    # -- structure ----------------------------------------------------------

    @property
    def shape(self):
        return self.lo.shape

    @property
    def size(self):
        return self.lo.size

    def __getitem__(self, idx):
        return IArray(self.lo[idx], self.hi[idx], _unsafe=True)

    def __setitem__(self, idx, value: "IArray"):
        self.lo[idx] = value.lo
        self.hi[idx] = value.hi

    def reshape(self, *shape):
        return IArray(self.lo.reshape(*shape), self.hi.reshape(*shape), _unsafe=True)

    @property
    def T(self):
        return IArray(self.lo.T, self.hi.T, _unsafe=True)

    def mid(self):
        return self.lo + 0.5 * (self.hi - self.lo)

    def rad(self):
        """Radius about mid(); exactly 0 where lo == hi, since mid is then lo."""
        m = self.mid()
        r = _up(np.maximum(_up(m - self.lo), _up(self.hi - m)))
        return np.where(self.lo == self.hi, 0.0, r)

    def mag(self):
        return np.maximum(np.abs(self.lo), np.abs(self.hi))

    def mig(self):
        m = np.minimum(np.abs(self.lo), np.abs(self.hi))
        m[(self.lo <= 0.0) & (self.hi >= 0.0)] = 0.0
        return m

    def width(self):
        return _up(self.hi - self.lo)

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=np.float64)
        return bool(np.all(self.lo <= x) and np.all(x <= self.hi))

    # -- elementwise arithmetic ----------------------------------------------

    @staticmethod
    def _coerce(x) -> "IArray":
        if isinstance(x, IArray):
            return x
        if isinstance(x, Interval):
            return IArray(np.float64(x.lo), np.float64(x.hi), _unsafe=True)
        return IArray(np.asarray(x, dtype=np.float64))

    def __neg__(self):
        return IArray(-self.hi, -self.lo, _unsafe=True)

    def __abs__(self):
        return IArray(self.mig(), self.mag(), _unsafe=True)

    @_checked
    def __add__(self, other):
        b = IArray._coerce(other)
        lo, hi = _dn(self.lo + b.lo), _up(self.hi + b.hi)
        _chk(lo, hi)
        return IArray(lo, hi, _unsafe=True)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-IArray._coerce(other))

    def __rsub__(self, other):
        return IArray._coerce(other) + (-self)

    @_checked
    def __mul__(self, other):
        b = IArray._coerce(other)
        c1 = self.lo * b.lo
        c2 = self.lo * b.hi
        c3 = self.hi * b.lo
        c4 = self.hi * b.hi
        lo = _dn(np.minimum(np.minimum(c1, c2), np.minimum(c3, c4)))
        hi = _up(np.maximum(np.maximum(c1, c2), np.maximum(c3, c4)))
        # a factor that is exactly [0, 0] makes the product exactly zero
        z = ((self.lo == 0.0) & (self.hi == 0.0)) | ((b.lo == 0.0) & (b.hi == 0.0))
        lo = np.where(z, 0.0, lo)
        hi = np.where(z, 0.0, hi)
        _chk(lo, hi)
        return IArray(lo, hi, _unsafe=True)

    __rmul__ = __mul__

    @_checked
    def __truediv__(self, other):
        b = IArray._coerce(other)
        if np.any((b.lo <= 0.0) & (b.hi >= 0.0)):
            raise DivisionByZeroInterval("array denominator contains 0")
        c1 = self.lo / b.lo
        c2 = self.lo / b.hi
        c3 = self.hi / b.lo
        c4 = self.hi / b.hi
        lo = _dn(np.minimum(np.minimum(c1, c2), np.minimum(c3, c4)))
        hi = _up(np.maximum(np.maximum(c1, c2), np.maximum(c3, c4)))
        _chk(lo, hi)
        return IArray(lo, hi, _unsafe=True)

    @_checked
    def square(self):
        lo2 = self.lo * self.lo
        hi2 = self.hi * self.hi
        lo = np.maximum(_dn(np.minimum(lo2, hi2)), 0.0)
        hi = _up(np.maximum(lo2, hi2))
        lo[(self.lo <= 0.0) & (self.hi >= 0.0)] = 0.0
        _chk(hi)
        return IArray(lo, hi, _unsafe=True)

    # -- reductions ------------------------------------------------------------


@_checked
def ildexp(a: IArray, k: int) -> IArray:
    """a 2^k: exact wherever an endpoint stays a normal float, rounded
    outward where it becomes subnormal or 0; OverflowError_ where it leaves
    binary64."""
    lo, hi = np.ldexp(a.lo, k), np.ldexp(a.hi, k)
    _chk(lo, hi)
    # scaling back up is exact, so it shows which way a rounding went
    lo = np.where(np.ldexp(lo, -k) > a.lo, _dn(lo), lo)
    hi = np.where(np.ldexp(hi, -k) < a.hi, _up(hi), hi)
    return IArray(lo, hi, _unsafe=True)


def _sum_dir(x: np.ndarray, direction: int) -> float:
    """sum(x) rounded toward -inf (direction < 0) or +inf (direction > 0).
    `math.fsum` rounds the exact sum S to the nearest float s, and the fsum
    of the terms and -s rounds S - s, a multiple of the smallest subnormal,
    so it has the sign of S - s: s is then the directed result, or its
    neighbour one ulp toward `direction`.  fsum raises OverflowError where
    a partial sum overflows."""
    t = memoryview(x[x != 0.0])
    try:
        s = math.fsum(t)
        r = math.fsum(itertools.chain(t, (-s,)))
    except OverflowError:
        raise OverflowError_("sum overflowed") from None
    return s if r * direction <= 0.0 else math.nextafter(s, direction * math.inf)


def isum(a: IArray) -> Interval:
    return Interval(_sum_dir(a.lo.ravel(), -1), _sum_dir(a.hi.ravel(), +1))


def _gamma_fac(k: int) -> float:
    g = (k + 4) * _EPS
    if g >= 0.5:
        raise OverflowError_("matrix dimension too large for fast rigorous matmul")
    return g / (1.0 - g)


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


@_checked
def imatmul(a: IArray, b: IArray) -> IArray:
    """Rigorous interval matrix product from the midpoint-radius bound
    |A B - mid| <= rad for all A in a, B in b (Rump's scheme).

    For nonnegative float matrices the BLAS product underestimates the exact
    product by at most the factor gamma_k; all such products below are
    inflated accordingly, plus an absolute underflow cushion.
    """
    am, ar = a.mid(), a.rad()
    bm, br = b.mid(), b.rad()
    # round tiny nonzero radii up to a still-negligible normal float: a valid
    # (larger) radius, and it keeps BLAS off its orders-of-magnitude slower
    # subnormal arithmetic paths -- the floor is high enough that products
    # with small partner entries stay normal too
    ar[(ar != 0.0) & (ar < _RAD_FLOOR)] = _RAD_FLOOR
    br[(br != 0.0) & (br < _RAD_FLOOR)] = _RAD_FLOOR
    k = am.shape[-1]
    g = _gamma_fac(k)

    # am and bm turn into |am| and |bm| in place once cm is formed, and the
    # radius is summed in place in the order of the expression
    # ar @ (|bm| + br) + |am| @ br + g p, so it has that expression's bits;
    # a thin operand's zero radius adds only exact zeros while |bm| + br is finite
    cm = am @ bm
    np.abs(am, out=am)
    np.abs(bm, out=bm)
    gp = am @ bm  # bounds |am||bm| up to factor (1-g)
    gp *= g
    bm += br
    rad = ar @ bm
    rad += am @ br
    rad += gp
    del am, ar, bm, br  # freed now, the checks and endpoints below can reuse them
    rad *= 1.0 + 6.0 * g
    gp *= g
    rad += gp
    del gp
    rad += 4.0 * _TINY
    np.nextafter(rad, np.inf, out=rad)
    _chk(cm, rad)
    lo = cm - rad
    np.nextafter(lo, -np.inf, out=lo)
    cm += rad
    del rad
    np.nextafter(cm, np.inf, out=cm)
    return IArray(lo, cm)

