"""Closed-form embedding constants and the two-sided enclosure formula.

Upper bounds for the best constant of H^1_0 -> L^p on a planar domain:
  * the symmetrization-based constant (via the sharp W^{1,q}(R^2) -> L^p(R^2)
    constant with q = 2p/(2+p) and a measure factor),
  * the spectral bound depending only on a lower bound rho <= lambda_1.

The extremal two-sided enclosure combines the L^{p+1}/H^1_0 ratio of a
certified approximate extremizer with its certified error radius.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .errors import CertificateMissing, DomainError, SoundnessViolation
from .intervals import PI, Interval, iv_pow_real, iv_sin
from .series import DomainRect, lp_norm


def talenti_constant(q) -> Interval:
    """Sharp constant of the W^{1,q}(R^2) -> L^{2q/(2-q)}(R^2) embedding.

    Talenti's bracket Gamma(1 + n/2) Gamma(n) / (Gamma(n/q) Gamma(1 + n - n/q))
    is 1 / (Gamma(2/q) Gamma(3 - 2/q)) for n = 2.  With z = 2/q - 1 in (0, 1),
    Gamma(1 + z) Gamma(2 - z) = z (1 - z) Gamma(z) Gamma(1 - z)
    = (1 - z) pi z / sin(pi z) by the reflection formula, so the bracket is
    sin(pi z) / ((1 - z) pi z).
    """
    qi = Interval._coerce(q)
    if not (qi.lo > 1.0 and qi.hi < 2.0):
        raise DomainError("exponent q must lie in (1, 2)")
    ni = Interval(2.0)
    one = Interval(1.0)
    inv_q = one / qi
    f1 = iv_pow_real(PI, Interval(-0.5))
    f2 = iv_pow_real(ni, -inv_q)
    f3 = iv_pow_real((qi - one) / (ni - qi), one - inv_q)
    z = ni / qi - one
    bracket = iv_sin(PI * z) / ((one - z) * PI * z)
    f4 = iv_pow_real(bracket, one / ni)
    return f1 * f2 * f3 * f4


@functools.lru_cache(maxsize=64)
def corollary_bound(p, measure) -> Interval:
    """Upper bound |Omega|^{(2-q)/(2q)} * T with q = 2p/(2+p), kept."""
    pi_ = Interval._coerce(p)
    mi = Interval._coerce(measure)
    if mi.lo <= 0.0:
        raise DomainError("measure must be positive")
    if not pi_.lo > 2.0:
        raise DomainError("exponent p must exceed 2")
    ni = Interval(2.0)
    q = ni * pi_ / (ni + pi_)
    t = talenti_constant(q)
    expo = (Interval(2.0) - q) / (Interval(2.0) * q)
    return iv_pow_real(mi, expo) * t


@functools.lru_cache(maxsize=64)
def plum_bound(p, rho: Interval) -> Interval:
    """Upper bound from a rigorous lower bound rho <= lambda_1, kept.

    Only rho.lo is used (rho enters with a negative exponent, so any true
    lower spectral bound yields a valid upper bound).
    """
    pi_ = Interval._coerce(p)
    if not isinstance(rho, Interval):
        raise DomainError("rho must be an Interval (certified lower bound)")
    if not rho.lo > 0.0:
        raise DomainError("rho must be positive")
    if not pi_.lo >= 2.0:
        raise DomainError("exponent p must be >= 2")
    rho_lo = Interval(rho.lo)
    one = Interval(1.0)
    nu = int(pi_.lo // 2)
    half = Interval(0.5)
    expo = half + (Interval(2.0 * nu) - Interval(3.0)) / pi_
    prod = one
    for k in range(nu - 1):
        prod = prod * (pi_ / Interval(2.0) - Interval(float(k)))
    return (
        iv_pow_real(half, expo)
        * iv_pow_real(prod, Interval(2.0) / pi_)
        * iv_pow_real(rho_lo, -one / pi_)
    )


def classical_upper(q, domain: DomainRect) -> Interval:
    """C >= C_q(domain) for q > 2: the smaller of the two classical upper
    bounds, as a thin interval at its upper end."""
    return Interval(min(corollary_bound(q, domain.measure()).hi,
                        plum_bound(q, domain.lambda1).hi))


class EnclosureResult(NamedTuple):
    """Two-sided enclosure of the best embedding constant."""

    p: int  # the Lebesgue exponent of the embedding H^1_0 -> L^p
    lower: float
    upper: float
    sources: dict


def enclosure_from_ball(ball) -> tuple:
    """Two-sided bounds on C_{p+1} from a certified ball (`CertifiedBall`):
    lower = lp.lo / h01.hi and upper = lp.hi / (h01.lo - 2 r_h1.hi), lp and h01
    the center's L^{p+1} and H^1_0 norms, the denominator the audit's norm
    margin.  The premises are the positive verdict and a Morse index of 1 on
    X, the extremizer's (`inverse_bound`): CertificateMissing without.
    """
    if not ball.positive:
        raise CertificateMissing("enclosure requires a verified positiveness certificate")
    if ball.inverse.morse_index != 1:
        raise CertificateMissing(f"enclosure requires Morse index 1 on X, the extremizer's; "
                                 f"the ball's is {ball.inverse.morse_index}")
    u = ball.center
    lp = lp_norm(u, float(ball.p + 1))
    lower = (Interval(lp.lo) / Interval(u.h01_norm().hi)).lo
    upper = (Interval(lp.hi) / Interval(ball.audit.norm_margin)).hi
    return max(lower, 0.0), upper


def best_enclosure(enclosures, classical, p: int) -> EnclosureResult:
    """The run's final enclosure: the largest certified lower bound (0 when
    there is none) and the smallest upper bound, ties going to "extremal".

    enclosures: list of the certified rows' (lower, upper) pairs; classical:
    list of (tag, Interval).  Every bound is rigorous, so a lower bound above
    an upper bound proves a bug: SoundnessViolation.
    """
    lower = max((float(lo) for lo, _ in enclosures), default=0.0)
    uppers = [("extremal", float(hi)) for _, hi in enclosures]
    uppers += [(tag, float(iv.hi)) for tag, iv in classical]
    if not uppers:
        raise DomainError("no upper bounds supplied")
    tag, upper = min(uppers, key=lambda t: t[1])
    if lower > upper:
        raise SoundnessViolation(
            f"lower bound {lower!r} exceeds upper bound {upper!r} ({tag})"
        )
    return EnclosureResult(
        p=p, lower=lower, upper=upper,
        sources={"lower": "extremal" if enclosures else "trivial", "upper": tag},
    )


def outward_decimal(x: float, direction: int, sig: int = 14) -> str:
    """Decimal string with the last digit rounded outward (direction +-1).

    x = num/den exactly; with a = floor(log10|x|) the string is
    q 10^(a - sig + 1), q = floor (direction -1) or ceiling (+1) of
    x / 10^(a - sig + 1), all in integers, and is written the way
    `str(Decimal)` writes that coefficient and exponent: plainly unless the
    exponent is positive or the result's leading digit lies below 10^-6.
    """
    if x == 0.0:
        return "0"
    num, den = x.as_integer_ratio()
    adj = len(str(abs(num))) - len(str(den))  # floor(log10|x|) is adj or adj - 1
    if abs(num) * 10 ** max(-adj, 0) < den * 10 ** max(adj, 0):
        adj -= 1
    exp = adj - sig + 1
    num *= 10 ** max(-exp, 0)
    den *= 10 ** max(exp, 0)
    q = num // den if direction < 0 else -(-num // den)
    digits = str(abs(q))
    left = exp + len(digits)  # digits of q left of the decimal point
    dot = left if exp <= 0 and left > -6 else 1
    if dot <= 0:
        text = "0." + "0" * -dot + digits
    elif dot >= len(digits):
        text = digits + "0" * (dot - len(digits))
    else:
        text = digits[:dot] + "." + digits[dot:]
    if left != dot:
        text += f"E{left - dot:+d}"
    return "-" + text if q < 0 else text
