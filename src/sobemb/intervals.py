"""Outward-rounded interval arithmetic over binary64 endpoints.

Every operation returns an interval containing the exact mathematical image
of its inputs.  Directed rounding is realized by nextafter-widening around
the round-to-nearest result (error <= 0.5 ulp for +,-,*,/ and sqrt, so one
nextafter step is sufficient), taken only where the result is inexact: a
sum's rounding error is found exactly by TwoSum (`_add_dir`) and a
product's by TwoProduct (`_mul_dir`, within its safe range; outside it
both sides widen), so an exact result stays exact and an inexact one
widens by one step on the side where the exact value lies.  `iv_sqrt`
keeps an exact root.  Only a quotient (`_div_dir`) always widens by one
step each way.  An interval product (quotient) is the min of the four
endpoint products' (quotients') lower ends and the max of their upper
ends.  Library elementary
functions (exp, log, sin) are assumed accurate to <= 1 ulp (glibc libm
documents < 0.6 ulp for these on binary64); their endpoint values are
widened by 2 ulps.  numpy's vectorized sin and cos of float64 arrays, which
may use their own SIMD kernels in place of libm, are assumed within 2 ulps
for arguments up to 2^12 in absolute value; `Series2D._basis_at_points`
relies on this, and the test suite checks it against mpmath on the host.
`math.fsum` is assumed correctly rounded, as it is on IEEE-754 binary64
with no x87 double rounding; `ivarray.isum` relies on this, and the test
suite checks it against exact rational sums on the host.

Overflow policy: an endpoint leaving the finite range raises
OverflowError_, it never becomes infinite.
"""

from __future__ import annotations

import math

from .errors import DivisionByZeroInterval, DomainError, OverflowError_

_INF = math.inf
_MAX_TRIG_ARG = 2.0 ** 10  # no trig argument reduction beyond this


def _dn(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


class Interval:
    """Closed interval [lo, hi] with finite binary64 endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        lo = float(lo)
        hi = lo if hi is None else float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise OverflowError_(f"non-finite endpoint: [{lo}, {hi}]")
        if lo > hi:
            raise ValueError(f"lo > hi: [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # -- queries -----------------------------------------------------------

    def width(self) -> float:
        return _up(self.hi - self.lo)

    def mid(self) -> float:
        return self.lo + 0.5 * (self.hi - self.lo)

    def mag(self) -> float:
        """max |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def mig(self) -> float:
        """min |x| over the interval."""
        if self.lo <= 0.0 <= self.hi:
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    def contains(self, x) -> bool:
        if isinstance(x, Interval):
            return self.lo <= x.lo and x.hi <= self.hi
        return self.lo <= float(x) <= self.hi

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def hex(self) -> list:
        """[lo.hex(), hi.hex()]: the exact form an interval takes in a record."""
        return [self.lo.hex(), self.hi.hex()]

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other):
        return (
            isinstance(other, Interval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self):
        return hash((self.lo, self.hi))

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Interval":
        if isinstance(x, Interval):
            return x
        return Interval(float(x))

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __abs__(self):
        return Interval(self.mig(), self.mag())

    def __add__(self, other):
        b = Interval._coerce(other)
        lo = _add_dir(self.lo, b.lo, -1)
        hi = _add_dir(self.hi, b.hi, +1)
        return Interval(lo, hi)

    __radd__ = __add__

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return iv_pow_int(self, k)

    def __sub__(self, other):
        return self + (-Interval._coerce(other))

    def __rsub__(self, other):
        return Interval._coerce(other) - self

    def __mul__(self, other):
        x, y = self, Interval._coerce(other)
        ends = [_mul_dir(s, t) for s in (x.lo, x.hi) for t in (y.lo, y.hi)]
        return Interval(min(e[0] for e in ends), max(e[1] for e in ends))

    __rmul__ = __mul__

    def __truediv__(self, other):
        x, y = self, Interval._coerce(other)
        if y.lo <= 0.0 <= y.hi:
            raise DivisionByZeroInterval(f"denominator {y} contains 0")
        ends = [_div_dir(s, t) for s in (x.lo, x.hi) for t in (y.lo, y.hi)]
        return Interval(min(e[0] for e in ends), max(e[1] for e in ends))

    def __rtruediv__(self, other):
        return Interval._coerce(other) / self


def _check_finite(x: float) -> float:
    if not math.isfinite(x):
        raise OverflowError_("interval endpoint overflowed")
    return x


def _add_dir(x: float, y: float, direction: int) -> float:
    """x + y rounded toward -inf (direction=-1) or +inf (+1), using two-sum."""
    s = x + y
    _check_finite(s)
    bb = s - x
    err = (x - (s - bb)) + (y - bb)  # exact residual of the fl addition
    if direction < 0:
        return s if err >= 0.0 else _check_finite(_dn(s))
    return s if err <= 0.0 else _check_finite(_up(s))


_SPLITTER = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
# TwoProduct below is exact when no split overflows and no partial product
# underflows (Dekker 1971; Boldo's condition e_x + e_y >= -970); these
# bounds are well inside both limits
_TWO_PROD_MAX = 2.0 ** 995
_TWO_PROD_MIN = 2.0 ** -900


def _split(a: float):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _mul_dir(x: float, y: float):
    """Enclosure [down, up] of the exact product x*y.

    The rounding error x*y - fl(x*y) is found exactly by Dekker's
    TwoProduct, so an exact product stays a point and an inexact one is
    widened on its side only; outside TwoProduct's safe range both sides
    are widened.  A same-sign product is >= 0 and an opposite-sign one
    <= 0, so a product that underflows never crosses zero.
    """
    p = x * y
    _check_finite(p)
    if x == 0.0 or y == 0.0:
        return (0.0, 0.0)
    lo, hi = _dn(p), _up(p)
    if _TWO_PROD_MIN <= abs(p) and max(abs(x), abs(y)) < _TWO_PROD_MAX:
        xh, xl = _split(x)
        yh, yl = _split(y)
        err = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
        if err >= 0.0:
            lo = p
        if err <= 0.0:
            hi = p
    if (x > 0.0) == (y > 0.0):
        return (max(lo, 0.0), _check_finite(hi))
    return (_check_finite(lo), min(hi, 0.0))


def _div_dir(x: float, y: float):
    """Enclosure [down, up] of the exact quotient x/y, y != 0.  As in
    `_mul_dir`, a quotient that underflows never crosses zero."""
    q = x / y
    _check_finite(q)
    if x == 0.0:
        return (0.0, 0.0)
    if (x > 0.0) == (y > 0.0):
        return (max(_dn(q), 0.0), _check_finite(_up(q)))
    return (_check_finite(_dn(q)), min(_up(q), 0.0))


# -- constants ---------------------------------------------------------------

#: enclosure of pi (math.pi rounds down: pi = 3.14159265358979323846... >
#: 3.141592653589793115997963...)
PI = Interval(math.pi, _up(math.pi))
PI_HALF = Interval(math.pi / 2.0, _up(math.pi / 2.0))  # pi/2 exact halving of PI
TWO_PI = Interval(2.0 * math.pi, _up(2.0 * math.pi))


# -- elementary functions ----------------------------------------------------


def _libm_enclose(f, x: float, ulps: int = 2):
    v = f(x)
    _check_finite(v)
    lo, hi = v, v
    for _ in range(ulps):
        lo = _dn(lo)
        hi = _up(hi)
    return lo, hi


def iv_sqrt(a: Interval) -> Interval:
    if a.lo < 0.0:
        raise DomainError(f"sqrt of {a}")
    rl = math.sqrt(a.lo)
    rh = math.sqrt(a.hi)
    # math.sqrt is correctly rounded; exactness detectable in rationals
    lo = rl if _squares_to(rl, a.lo) else max(0.0, _dn(rl))
    hi = rh if _squares_to(rh, a.hi) else _up(rh)
    return Interval(lo, hi)


def _squares_to(r: float, x: float) -> bool:
    """r * r == x exactly: n^2 D == N d^2 for r = n/d and x = N/D."""
    n, d = r.as_integer_ratio()
    big_n, big_d = x.as_integer_ratio()
    return n * n * big_d == big_n * d * d


def iv_exp(a: Interval) -> Interval:
    lo, _ = _libm_enclose(math.exp, a.lo)
    _, hi = _libm_enclose(math.exp, a.hi)
    return Interval(max(0.0, lo), hi)


def iv_ln(a: Interval) -> Interval:
    if a.lo <= 0.0:
        raise DomainError(f"ln of {a}")
    lo, _ = _libm_enclose(math.log, a.lo)
    _, hi = _libm_enclose(math.log, a.hi)
    return Interval(lo, hi)


def iv_sin(a: Interval) -> Interval:
    if max(abs(a.lo), abs(a.hi)) > _MAX_TRIG_ARG:
        raise DomainError(f"sin argument beyond +-2^10: {a}")
    if a.hi - a.lo >= TWO_PI.hi:
        return Interval(-1.0, 1.0)
    l1, h1 = _libm_enclose(math.sin, a.lo)
    l2, h2 = _libm_enclose(math.sin, a.hi)
    lo, hi = min(l1, l2), max(h1, h2)
    # widen to +-1 whenever a critical point (2m+-1/2)*pi may lie inside
    m0 = math.floor(a.lo / (2.0 * math.pi)) - 1
    m1 = math.floor(a.hi / (2.0 * math.pi)) + 1
    for m in range(m0, m1 + 1):
        cmax = Interval(4 * m + 1) * PI_HALF
        if cmax.hi >= a.lo and cmax.lo <= a.hi:
            hi = 1.0
        cmin = Interval(4 * m + 3) * PI_HALF
        if cmin.hi >= a.lo and cmin.lo <= a.hi:
            lo = -1.0
    return Interval(max(lo, -1.0), min(hi, 1.0))


def iv_pow_int(a: Interval, k: int) -> Interval:
    if k < 0:
        return Interval(1.0) / iv_pow_int(a, -k)
    if k == 0:
        return Interval(1.0)
    if k % 2 == 0:
        return _binexp(abs(a), k)
    lo_end = _binexp(Interval(a.lo), k)
    hi_end = _binexp(Interval(a.hi), k)
    return lo_end.hull(hi_end)


def _binexp(a: Interval, k: int) -> Interval:
    r = Interval(1.0)
    base = a
    while k:
        if k & 1:
            r = r * base
        k >>= 1
        if k:
            base = base * base
    return r


def iv_pow_real(a: Interval, y) -> Interval:
    if a.lo <= 0.0:
        raise DomainError(f"pow_real base {a}")
    return iv_exp(Interval._coerce(y) * iv_ln(a))
