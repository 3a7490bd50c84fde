"""Acceptance gate: the eight primary criteria of the deliverable.

Each test prints an unbuffered PASS/FAIL line (bypassing pytest capture) so a
plain `pytest -v` run shows the verdicts inline.  Reference digits quoted in
the comments are labeled with how they were obtained:
  [DERIVED]  computed by an independent oracle (closed form / mpmath / exact
             rational arithmetic) before being asserted,
  [TRIVIAL]  immediate mathematical facts.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sobemb.bounds import best_enclosure
from sobemb.certify import kantorovich_radius
from sobemb.intervals import Interval
from sobemb.pipeline import classical_table
from sobemb.series import DomainRect, SineSeries2D
from sobemb.solver import _Galerkin
from sobemb.symeig import eig_enclosures

from _oracles import galerkin_jacobian, point_matrix

SQ = DomainRect(1.0, 1.0)
LAMBDA1 = 2.0 * math.pi ** 2


@pytest.fixture()
def _verdict(capfd):
    """Print a PASS/FAIL line bypassing output capture, then assert."""

    def emit(num: int, name: str, ok: bool, detail: str) -> None:
        line = (f"[PRIMARY criterion {num}] {name}: "
                f"{'PASS' if ok else 'FAIL'} ({detail})")
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


def test_criterion_1_classical_table_exact_digits(_verdict):
    # [DERIVED] six reference values of the closed-form upper bounds on the
    # unit square, 14 significant digits.  The references are decimal
    # roundings of the true values, so containment is asserted up to one
    # unit in the last printed digit (1e-14 at this magnitude) -- the
    # enclosures themselves are narrower than that slack.
    ulp14 = 1e-14
    want = {
        3: (0.27991104681667, 0.32964899322075),
        4: (0.31830988618379, 0.39894228040144),
        5: (0.35780388458050, 0.48909030972535),
    }
    t0 = time.perf_counter()
    table = classical_table([3, 4, 5], SQ)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0
    widths = []
    for row in table:
        w_cor, w_plum = want[row["p"]]
        for iv, val in ((row["corollary"], w_cor), (row["plum"], w_plum)):
            ok = (ok and iv.lo - ulp14 <= val <= iv.hi + ulp14
                  and iv.width() <= 1e-12)
            widths.append(iv.width())
    _verdict(1, "classical table exact digits", ok,
             f"runtime {elapsed:.3f}s, max width {max(widths):.2e}")


def test_criterion_2_c4_enclosure(_verdict, report_c4):
    # [DERIVED] reference bracket [0.28524446071925, 0.28524446071939] and
    # 12-digit lower reference 0.285244460719
    f = report_c4.final
    ok = f is not None
    detail = "no final enclosure"
    if ok:
        width = f.upper - f.lower
        intersects = f.lower <= 0.28524446071939 and 0.28524446071925 <= f.upper
        lower_match = abs(f.lower - 0.285244460719) <= 1e-10
        ok = intersects and width <= 1e-14 and lower_match
        detail = (f"enclosure [{f.lower:.17g}, {f.upper:.17g}], "
                  f"width {width:.2e}")
    _verdict(2, "C4 enclosure", ok, detail)


def test_criterion_3_c3_c5_enclosures(_verdict, report_c3, report_c5):
    refs = {"C3": (report_c3, 0.25712475017617, 0.25712766496560),
            "C5": (report_c5, 0.31058015094169, 0.31067136032829)}
    ok = True
    parts = []
    for name, (rep, lo, hi) in refs.items():
        f = rep.final
        if f is None:
            ok = False
            parts.append(f"{name}: no final")
            continue
        width = f.upper - f.lower
        good = (f.lower <= hi and lo <= f.upper and width <= 1e-3
                and rep.fully_certified)
        ok = ok and good
        parts.append(f"{name} width {width:.2e}, "
                     f"{sum(r.status == 'certified' for r in rep.rows)}/"
                     f"{len(rep.rows)} rows certified")
    _verdict(3, "C3 and C5 enclosures", ok, "; ".join(parts))


def test_criterion_4_positiveness_certificate(_verdict, report_c4):
    # (r_inf + sup u_-)^{p-1} must sit below lambda_1 = 2 pi^2 by >= 10^3.
    # The boundary-factored negative-part bound here is exactly 0 (sharper
    # than a reference tabulation of ~7e-4), so the margin factor is driven
    # by r_inf alone and far exceeds the 10^3 requirement.
    rows = {r.N: r for r in report_c4.rows}
    ok = True
    parts = []
    for n in (20, 30):
        r = rows[n]
        good = r.status == "certified" and r.ball.positive
        neg_power = (r.ball.r_inf.hi + r.ball.audit.neg_sup) ** 2
        factor = LAMBDA1 / max(neg_power, 1e-300)
        good = good and factor >= 1e3
        ok = ok and good
        parts.append(f"N={n} margin factor {factor:.2e}")
    _verdict(4, "positiveness certificate", ok, "; ".join(parts))


def test_criterion_5_ordering_property(_verdict, report_c4, report_c3, report_c5):
    ok = True
    parts = []
    for name, rep in (("p=3", report_c3), ("p=4", report_c4), ("p=5", report_c5)):
        classical = dict(rep.classical)
        certified = [(r.lower, r.upper) for r in rep.rows if r.status == "certified"]
        ext_upper = min(hi for _, hi in certified)
        res = best_enclosure(certified, rep.classical, rep.config.p + 1)
        good = (res == rep.final and res.sources["upper"] == "extremal"
                and ext_upper < classical["corollary"].hi
                and classical["corollary"].hi < classical["plum"].hi)
        ok = ok and good
        parts.append(f"{name}: {ext_upper:.4f} < "
                     f"{classical['corollary'].hi:.4f} < "
                     f"{classical['plum'].hi:.4f}")
    _verdict(5, "extremal < symmetrization < spectral ordering", ok,
             "; ".join(parts))


def test_criterion_6_sanity_lower_bound(_verdict, report_c4):
    # [DERIVED] the single-mode trial function gives the ratio
    # sqrt(3)/(2 pi) = 0.27566444771089595, a valid lower bound for C4
    single_mode_ratio = math.sqrt(3.0) / (2.0 * math.pi)
    lower = report_c4.final.lower
    ok = single_mode_ratio <= lower
    _verdict(6, "single-mode sanity lower bound", ok,
             f"{single_mode_ratio:.8f} <= {lower:.8f}")


def test_criterion_7_property_suites(_verdict):
    """Deterministic spot re-runs of the property suites (the full versions
    live in the dedicated test modules and run without any pipeline)."""
    t0 = time.perf_counter()
    ok = True
    notes = []

    # interval containment sampling against exact rationals
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        a = Interval(*np.sort(rng.uniform(-100, 100, 2)))
        b = Interval(*np.sort(rng.uniform(-100, 100, 2)))
        xa = Fraction(a.lo) + Fraction(rng.uniform()) * (Fraction(a.hi) - Fraction(a.lo))
        xb = Fraction(b.lo) + Fraction(rng.uniform()) * (Fraction(b.hi) - Fraction(b.lo))
        for out, exact in ((a + b, xa + xb), (a - b, xa - xb), (a * b, xa * xb)):
            ok = ok and Fraction(out.lo) <= exact <= Fraction(out.hi)
    notes.append("interval containment")

    # Newton's Jacobian vs central finite differences of its residual map
    # at a random odd-odd center, p = 2..5 on 1x1 and 2x1, rel err <= 1e-6
    n, h, rel = 5, 1e-7, 0.0
    a = rng.normal(size=(3, 3))
    full = np.zeros((n, n))
    full[::2, ::2] = a
    for dom in (SQ, DomainRect(2.0, 1.0)):
        for p in (2, 3, 4, 5):
            jac = galerkin_jacobian(SineSeries2D(dom, full), p)
            system = _Galerkin(p, dom, n)
            fd = np.empty_like(jac)
            for k in range(a.size):
                e = np.zeros(a.shape)
                e.flat[k] = h
                rp = system.residual(a + e)[0].astype(np.float64)
                rm = system.residual(a - e)[0].astype(np.float64)
                fd[:, k] = ((rp - rm) / (2 * h)).reshape(-1)
            rel = max(rel, np.max(np.abs(jac - fd)) / np.max(np.abs(jac)))
    ok = ok and rel <= 1e-6
    notes.append(f"jacobian rel err {rel:.1e}")

    # Kantorovich closed form: h = 1/2 [DERIVED]
    r = kantorovich_radius(Interval(0.25), Interval(1.0), Interval(1.0))
    ok = ok and r.contains(0.5 / (1.0 + math.sqrt(0.5)))
    notes.append("kantorovich oracle")

    # min |eigenvalue| bound on a 5x5 seed: no eigenvalue in [-b, b] by
    # exact inertia (Fractions), and b within 1e-9 of numpy's value
    m = rng.normal(size=(5, 5))
    m = 0.5 * (m + m.T)
    bound = eig_enclosures(point_matrix(m))
    inside = _count_below(m, Fraction(bound)) - _count_below(m, -Fraction(bound))
    ok = ok and inside == 0
    ok = ok and bound >= float(np.min(np.abs(np.linalg.eigvalsh(m)))) * (1.0 - 1e-9)
    notes.append("min |eigenvalue| bound")

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _verdict(7, "property suites", ok,
             f"{', '.join(notes)}; spot runs {elapsed:.1f}s")


def _count_below(m, t: Fraction) -> int:
    """Eigenvalues of the float matrix m (exactly, as rationals) below t:
    the negative pivots of the exact LDL^T of m - tI (Sylvester's law of
    inertia); n on a zero pivot, so that t never passes for a gap."""
    n = len(m)
    a = [[Fraction(float(m[i, j])) - (t if i == j else 0) for j in range(n)]
         for i in range(n)]
    count = 0
    for k in range(n):
        piv = a[k][k]
        if piv == 0:
            return n
        count += piv < 0
        for i in range(k + 1, n):
            f = a[i][k] / piv
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return count


def test_criterion_8_defect_trend(_verdict, report_c4):
    rows = [r for r in report_c4.rows if r.ball is not None]
    defects = [(r.N, r.ball.delta_hm1.hi) for r in sorted(rows, key=lambda r: r.N)]
    ok = [n for n, _ in defects] == [10, 20, 30, 34]
    vals = [d for _, d in defects]
    ok = ok and all(b < a for a, b in zip(vals, vals[1:]))
    ok = ok and vals[-1] <= 1e-10
    _verdict(8, "defect bounds strictly decrease", ok,
             "; ".join(f"N={n}: {d:.3e}" for n, d in defects))
