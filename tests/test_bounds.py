"""Closed-form upper bounds and the two-sided enclosure combination logic."""

import math
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sobemb.bounds import (
    best_enclosure,
    corollary_bound,
    enclosure_from_ball,
    outward_decimal,
    plum_bound,
    talenti_constant,
)
from sobemb.errors import (
    CertificateMissing,
    DomainError,
    SoundnessViolation,
)
from sobemb.intervals import Interval
from sobemb.series import DomainRect, SineSeries2D

SQ = DomainRect(1.0, 1.0)
RHO = Interval(19.7392088021787172, 19.7392088021787173)  # contains 2 pi^2


def test_talenti_q_four_thirds_is_one_over_pi():
    # [DERIVED] n=2, q=4/3: the sharp constant collapses to 1/pi
    # = 0.31830988618379067
    t = talenti_constant(Interval(4.0 / 3.0))
    assert t.contains(0.31830988618379067)
    assert t.width() < 1e-12


@pytest.mark.parametrize("p", [2.5, 3, 4, 5, 6, 8, 10, 40])
def test_talenti_closed_form_encloses_gamma_form(p):
    """The closed form sin(pi z)/((1 - z) pi z), z = 2/q - 1, of Talenti's
    Gamma bracket encloses the Gamma form evaluated in mpmath at the exact
    q = 2p/(2+p) of `corollary_bound`."""
    q_iv = Interval(2.0) * Interval(p) / (Interval(2.0) + Interval(p))
    t = talenti_constant(q_iv)
    with mpmath.workdps(50):
        q = 2 * mpmath.mpf(p) / (2 + mpmath.mpf(p))
        bracket = 1 / (mpmath.gamma(2 / q) * mpmath.gamma(3 - 2 / q))
        want = (mpmath.pi ** -0.5 * 2 ** (-1 / q)
                * ((q - 1) / (2 - q)) ** (1 - 1 / q) * mpmath.sqrt(bracket))
        assert mpmath.mpf(t.lo) <= want <= mpmath.mpf(t.hi)
    assert t.width() < 1e-13


def test_talenti_validation():
    with pytest.raises(DomainError):
        talenti_constant(Interval(2.5))  # q must be < 2


def test_symmetrization_table_oracles():
    # [DERIVED] unit-square upper bounds for p = 3, 4, 5 (14 significant
    # digits, outward): independently computed from the closed form
    for p, want in [(3, 0.27991104681667), (4, 0.31830988618379),
                    (5, 0.35780388458050)]:
        b = corollary_bound(float(p), SQ.measure())
        assert b.lo <= want <= b.hi or abs(b.hi - want) < 1e-13
        assert b.width() < 1e-12


def test_spectral_table_oracles():
    # [DERIVED] unit-square spectral bounds for p = 3, 4, 5 with
    # rho = lambda_1 = 2 pi^2
    for p, want in [(3, 0.32964899322075), (4, 0.39894228040144),
                    (5, 0.48909030972535)]:
        b = plum_bound(float(p), RHO)
        assert abs(b.hi - want) < 1e-12
        assert b.width() < 1e-12


def test_plum_p4_closed_form():
    # [DERIVED] n=2, p=4: (1/2)^{3/4} * 2^{1/2} * rho^{-1/4}; with
    # rho = 2 pi^2 this equals 1/sqrt(2 pi) = 0.3989422804014327
    b = plum_bound(4.0, RHO)
    assert b.contains(1.0 / math.sqrt(2.0 * math.pi))


def test_plum_requires_interval_rho():
    with pytest.raises(DomainError):
        plum_bound(4.0, 2.0)
    with pytest.raises(DomainError):
        plum_bound(4.0, Interval(0.0, 1.0))


def test_corollary_validation():
    with pytest.raises(DomainError):
        corollary_bound(1.5, SQ.measure())  # p must exceed 2


def test_corollary_measure_scaling():
    # |Omega|^{(2-q)/(2q)} with q = 4/3 at p = 4: doubling the measure
    # scales the bound by 2^{1/4}
    b1 = corollary_bound(4.0, Interval(1.0))
    b2 = corollary_bound(4.0, Interval(2.0))
    ratio = b2 / b1
    assert ratio.contains(2.0 ** 0.25)


# -- extremal enclosure -------------------------------------------------------------


def test_enclosure_from_ball_requires_positiveness(ball_p3_n20):
    """A ball whose audit fails either margin has no enclosure."""
    for margin in ("lq_margin", "norm_margin"):
        audit = ball_p3_n20.audit._replace(**{margin: 0.0})
        with pytest.raises(CertificateMissing):
            enclosure_from_ball(ball_p3_n20._replace(audit=audit))


def test_enclosure_from_ball_requires_morse_index_one(ball_p3_n20):
    """A ball whose inverse bound records a Morse index other than the
    extremizer's 1 on X has no enclosure, though it is proved positive."""
    assert ball_p3_n20.positive and ball_p3_n20.inverse.morse_index == 1
    for index in (0, 2):
        inverse = ball_p3_n20.inverse._replace(morse_index=index)
        with pytest.raises(CertificateMissing):
            enclosure_from_ball(ball_p3_n20._replace(inverse=inverse))


def test_enclosure_from_ball_rejects_large_radius(ball_p3_n20):
    """The norm margin ||u||_{H^1_0} - 2 r_h1 is the enclosure's premise: a
    ball of radius 7 about a center of norm about 12.3 fails it, so the
    ball is not proved positive and has no enclosure."""
    from sobemb.certify import positiveness_certificate

    r_h1 = Interval(0.0, 7.0)
    audit = positiveness_certificate(ball_p3_n20.center, 3, r_h1)
    ball = ball_p3_n20._replace(r_h1=r_h1, audit=audit)
    assert audit.norm_margin <= 0.0 < audit.lq_margin and not ball.positive
    with pytest.raises(CertificateMissing):
        enclosure_from_ball(ball)


def test_enclosure_from_ball_brackets_ratio(ball_p3_n20):
    """The ratio ||u||_{L4} / ||u||_{H^1_0} of the center lies inside, and
    the upper end's denominator is the audit's norm margin."""
    from sobemb.series import lp_norm

    u = ball_p3_n20.center
    lower, upper = enclosure_from_ball(ball_p3_n20)
    assert 0.0 < lower <= upper
    ratio = lp_norm(u, 4.0) / u.h01_norm()
    assert lower <= ratio.hi and ratio.lo <= upper
    margin = ball_p3_n20.audit.norm_margin
    assert margin == (Interval(u.h01_norm().lo) - Interval(2.0 * ball_p3_n20.r_h1.hi)).lo
    assert upper == (Interval(lp_norm(u, 4.0).hi) / Interval(margin)).hi


def test_best_enclosure_picks_smallest_upper():
    cor, plum = ("corollary", Interval(0.31, 0.32)), ("plum", Interval(0.39, 0.4))
    res = best_enclosure([(0.2, 0.35), (0.25, 0.3)], [cor, plum], 4)
    assert (res.lower, res.upper) == (0.25, 0.3)
    assert res.sources == {"lower": "extremal", "upper": "extremal"}
    res2 = best_enclosure([(0.2, 0.35)], [cor], 4)
    assert res2.upper == 0.32 and res2.sources["upper"] == "corollary"
    assert res2.lower == 0.2 and res2.sources["lower"] == "extremal"
    tie = best_enclosure([(0.2, 0.32)], [cor, ("plum", Interval(0.3, 0.32))], 4)
    assert tie.upper == 0.32 and tie.sources["upper"] == "extremal"


def test_best_enclosure_without_extremal_is_trivial_lower():
    res = best_enclosure([], [("plum", Interval(0.39, 0.4))], 4)
    assert res.lower == 0.0 and res.upper == 0.4
    assert res.sources == {"lower": "trivial", "upper": "plum"}


def test_best_enclosure_detects_crossing():
    """A lower bound above a classical upper bound, or above another row's
    upper bound, is a SoundnessViolation."""
    for enclosures in ([(0.5, 0.6)], [(0.1, 0.2), (0.25, 0.3)]):
        with pytest.raises(SoundnessViolation):
            best_enclosure(enclosures, [("plum", Interval(0.39, 0.4))], 4)


def test_outward_decimal_directions():
    s_lo = outward_decimal(1.0 / 3.0, -1, sig=6)
    s_hi = outward_decimal(1.0 / 3.0, +1, sig=6)
    assert float(s_lo) <= 1.0 / 3.0 <= float(s_hi)
    assert s_lo != s_hi
    assert outward_decimal(0.0, +1) == "0"


def _decimal_outward(x: float, direction: int, sig: int) -> str:
    """The reference: Decimal's exact value of x quantized at its sig-th
    significant digit, rounded toward -inf (direction -1) or +inf (+1)."""
    if x == 0.0:
        return "0"
    d = Decimal(x)
    mode = ROUND_FLOOR if direction < 0 else ROUND_CEILING
    return str(d.quantize(Decimal(1).scaleb(d.adjusted() - sig + 1), rounding=mode))


@settings(max_examples=1500, deadline=None)
@given(st.floats(min_value=5e-324, max_value=1e300), st.booleans(),
       st.sampled_from([-1, 1]), st.integers(1, 17))
@example(5e-324, False, -1, 17)
@example(1e300, True, 1, 1)
@example(9.9999999999999e-7, False, 1, 14)  # rounds up past 1e-6: plain notation
@example(9.99999e-8, False, 1, 3)  # rounds up to 1.000E-7: E notation
@example(99999.5, False, 1, 5)  # rounds up to 100000, one digit more
@example(1e20, False, 1, 14)  # a positive exponent: E notation
@example(0.5, True, -1, 17)
@example(12345.0, False, -1, 5)  # exponent 0, an integer
def test_outward_decimal_matches_decimal_and_is_outward(x, negative, direction, sig):
    """outward_decimal, computed in integers, writes the same string as
    Decimal.quantize does, over every binade from the smallest subnormal to
    1e300, both signs, both directions and 1 to 17 digits; and the string's
    exact value lies on the outward side of x."""
    x = -x if negative else x
    s = outward_decimal(x, direction, sig)
    assert s == _decimal_outward(x, direction, sig)
    if direction < 0:
        assert Fraction(s) <= Fraction(x)
    else:
        assert Fraction(s) >= Fraction(x)
