"""End-to-end orchestration: solve -> certify -> enclose -> compare.

A run sweeps truncation orders N, certifies each solution, and combines the
per-N two-sided enclosures (intersection of sound enclosures is sound) with
the closed-form classical upper bounds.  Reports are deterministic JSON
artifacts apart from an isolated timing block.
"""

from __future__ import annotations

import json
import platform
import time

import numpy as np

from . import _BLAS_GIVEN, _BLAS_PINNED
from .bounds import (
    EnclosureResult,
    best_enclosure,
    corollary_bound,
    enclosure_from_ball,
    outward_decimal,
    plum_bound,
)
from .certify import CertifiedBall, certify_ball
from .errors import DomainError, SobembError, SoundnessViolation, check_exponent
from .intervals import Interval, iv_pow_real
from .series import DomainRect, Series2D
from .solver import SolverConfig, initial_guess, newton_solve

REPORT_FORMAT = "sobemb-report/9"


class RunConfig:
    """A pipeline run: p in 2..5 (C_{p+1} output), rectangle, N sweep (one
    N or a list or tuple of them); DomainError unless p and every N are
    ints (not bools), p in 2..5 (`check_exponent`), and the sweep is
    nonempty, of distinct N >= 1."""

    __slots__ = ("p", "domain", "N")

    def __init__(self, p: int, domain: DomainRect, N=(10, 20, 30, 34)):
        check_exponent(p)
        self.p, self.domain = p, domain
        self.N = list(N) if isinstance(N, (list, tuple)) else [N]
        if (not self.N or any(type(n) is not int or n < 1 for n in self.N)
                or len(set(self.N)) < len(self.N)):
            raise DomainError(f"need a nonempty sweep of distinct N >= 1, got N={self.N}")

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "domain": self.domain.to_dict(),
            "N": self.N,
        }


# the rigorous fields of a row whose certification did not finish
_NO_BALL = {
    **dict.fromkeys(("defect_hm1", "defect_l2", "K", "r_h1", "r_inf", "inverse_bound",
                     "positiveness", "neg_sup", "trial_radius")),
    "positive": False,
}


class RunRow:
    """Per-N result row: the certified ball (on the reference rectangle), if
    certification finished, and the row's enclosure of C_{p+1}."""

    __slots__ = ("N", "status", "ball", "lower", "upper", "error")

    def __init__(self, N: int, status: str, ball: CertifiedBall | None = None,
                 lower: float | None = None, upper: float | None = None, error: str | None = None):
        self.N, self.status = N, status  # status: "certified" | the failure class name
        self.ball, self.lower, self.upper, self.error = ball, lower, upper, error

    def to_dict(self) -> dict:
        d = {"N": self.N, "status": self.status}
        d.update(_NO_BALL if self.ball is None else self.ball.row_fields())
        d["lower"] = None if self.lower is None else self.lower.hex()
        d["upper"] = None if self.upper is None else self.upper.hex()
        d["error"] = self.error
        return d


class RunReport:
    """Full record of a pipeline run, solved and certified on 2^-k Omega."""

    __slots__ = ("config", "k", "rows", "classical", "final", "solutions", "timing")

    def __init__(self, config: RunConfig, k: int, rows: list, classical: list,
                 final: EnclosureResult, solutions: dict | None = None,
                 timing: dict | None = None):
        self.config, self.k, self.rows, self.final = config, k, rows, final
        self.classical = classical  # (tag, Interval)
        self.solutions = {} if solutions is None else solutions  # N -> the center on 2^-k Omega
        self.timing = {} if timing is None else timing

    @property
    def fully_certified(self) -> bool:
        return bool(self.rows) and all(r.status == "certified" for r in self.rows)

    def to_dict(self) -> dict:
        f = self.final
        return {
            "format": REPORT_FORMAT,
            "config": self.config.to_dict(),
            "k": self.k,
            "rows": [r.to_dict() for r in self.rows],
            "classical": [[tag, iv.hex()] for tag, iv in self.classical],
            "final": {
                "p": f.p,
                "lower": f.lower.hex(),
                "upper": f.upper.hex(),
                "lower_decimal": outward_decimal(f.lower, -1),
                "upper_decimal": outward_decimal(f.upper, +1),
                "sources": f.sources,
            },
            "meta": {
                # not platform.platform(): it reads uname().processor, which
                # runs `uname -p` in a child process
                "platform": "-".join((platform.system(), platform.release(),
                                      platform.machine())),
                "numpy": np.__version__,
                # the thread settings as given, before the pin in __init__
                "blas_threads": dict(_BLAS_GIVEN),
                "blas_pinned": _BLAS_PINNED,
            },
            "timing": self.timing,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def canonical_json(self) -> str:
        """Deterministic serialization (timing and host metadata stripped)."""
        d = self.to_dict()
        del d["meta"], d["timing"]
        return json.dumps(d, sort_keys=True)


def run_pipeline(cfg: RunConfig) -> RunReport:
    """Execute the sweep on the reference rectangle R = 2^-k Omega
    (`DomainRect.reference`); failures at one N are recorded, not fatal, but
    a lower bound above an upper bound is: SoundnessViolation.  Each certified
    row's enclosure of C_q(R) is mapped to Omega by the 2-d scaling law
    C_q(2^k R) = 2^(2k/q) C_q(R), q = p + 1, rounded outward (`_scaled`), as
    are the classical bounds (`classical_table`).  Once a row is formed its
    center's derived facts are dropped (`Series2D.drop_facts`): the report
    keeps the coefficients and the rigorous scalars, and later rows do not
    hold an earlier row's power chain, potential and coupling terms."""
    t_start = time.perf_counter()
    timing = {}
    (bounds,) = classical_table([cfg.p + 1], cfg.domain)
    classical = [(tag, bounds[tag]) for tag in ("corollary", "plum")]
    rows = []
    solutions = {}

    k, ref = cfg.domain.reference()
    guess = initial_guess(cfg.p, ref)
    for n in cfg.N:
        t0 = time.perf_counter()
        row = RunRow(N=n, status="pending")
        try:
            u = newton_solve(SolverConfig(p=cfg.p, N=n), guess)
            guess = u  # warm start for the next N
            solutions[n] = u
            row.ball = ball = certify_ball(u, cfg.p)
            c = _scaled(Interval(*enclosure_from_ball(ball)), k, cfg.p + 1)
            row.lower, row.upper = c.lo, c.hi
            row.status = "certified"
        except SobembError as exc:
            row.status = type(exc).__name__
            row.error = str(exc)
        if n in solutions:  # the row is formed: its center's facts are not read again
            solutions[n].drop_facts()
        timing[f"N={n}"] = time.perf_counter() - t0
        rows.append(row)

    final = best_enclosure([(r.lower, r.upper) for r in rows if r.status == "certified"],
                           classical, cfg.p + 1)
    timing["total"] = time.perf_counter() - t_start
    return RunReport(config=cfg, k=k, rows=rows, classical=classical, final=final,
                     solutions=solutions, timing=timing)


def _scaled(c: Interval, k: int, q) -> Interval:
    """c, bounds on C_q(R), carried to C_q(2^k R) = 2^(2k/q) C_q(R), rounded
    outward; c itself at k = 0, where iv_pow_real(2, 0) is not exactly 1."""
    return c * iv_pow_real(Interval(2.0), Interval(2.0 * k) / Interval(float(q))) if k else c


def classical_table(p_list, domain: DomainRect) -> list:
    """Rows [{p, corollary, plum}] of classical upper bounds for C_p on the
    rectangle, taken on its reference rectangle R and carried back
    (`_scaled`); the spectral bound uses R's certified lambda_1."""
    k, ref = domain.reference()
    return [
        {
            "p": p,
            "corollary": _scaled(corollary_bound(float(p), ref.measure()), k, p),
            "plum": _scaled(plum_bound(float(p), ref.lambda1), k, p),
        }
        for p in p_list
    ]


def emit_plot_data(u: Series2D, m: int, path: str) -> str:
    """CSV of midpoint samples (x, y, u(x, y)) on an m x m uniform grid."""
    if m < 2:
        raise ValueError("plot grid must be at least 2x2")
    dom = u.domain
    xs = dom.L1 / m * (np.arange(m) + 0.5)
    ys = dom.L2 / m * (np.arange(m) + 0.5)
    vals = u.values_on_grid(xs, ys).mid()
    lines = ["x,y,value"]
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            lines.append(f"{x:.17g},{y:.17g},{vals[i, j]:.17g}")
    text = "\n".join(lines) + "\n"
    with open(path, "w") as f:
        f.write(text)
    return path


def report_csv(report: RunReport) -> str:
    """Flat CSV projection of the per-N rows of a report."""
    header = ("N,status,positive,defect_hm1_hi,K_hi,r_h1_hi,r_inf_hi,"
              "neg_sup,lower,upper")
    lines = [header]

    def fmt(v):
        return "" if v is None else f"{v:.17g}"

    for r in report.rows:
        b = r.ball
        rigorous = [None] * 5 if b is None else [
            b.delta_hm1.hi, b.inverse.K.hi, b.r_h1.hi, b.r_inf.hi, b.audit.neg_sup]
        lines.append(",".join([
            str(r.N), r.status, str(b is not None and b.positive).lower(),
            *map(fmt, rigorous), fmt(r.lower), fmt(r.upper),
        ]))
    return "\n".join(lines) + "\n"


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise SoundnessViolation(what)


def _interval(v, name: str) -> tuple:
    """(lo, hi) of a [lo, hi] list of two hex floats, lo <= hi."""
    _require(isinstance(v, list) and len(v) == 2, f"{name} is not a [lo, hi] pair")
    lo, hi = float.fromhex(v[0]), float.fromhex(v[1])
    _require(lo <= hi, f"{name} lo > hi")
    return lo, hi


def _check_row(row: dict) -> None:
    """The checks of `validate_report_dict` on one row."""
    _require(type(row["N"]) is int and row["N"] >= 1, "N is not an integer >= 1")
    certified = row["status"] == "certified"
    for name in ("defect_hm1", "defect_l2", "K", "r_h1", "r_inf"):
        if row.get(name) is not None:
            lo, _ = _interval(row[name], name)
            _require(lo > 0.0 if name == "K" else lo >= 0.0,
                     "K <= 0" if name == "K" else f"{name} < 0")
    neg_sup = row.get("neg_sup")
    _require(neg_sup is None or float.fromhex(neg_sup) >= 0.0, "neg_sup < 0")
    if row.get("inverse_bound") is not None or certified:
        for key in ("block_min", "tail", "coupling"):
            float.fromhex(row["inverse_bound"][key])
    if certified:
        index = row["inverse_bound"]["morse_index"]
        _require(type(index) is int and index == 1, "a certified row whose Morse index is not 1")
        pos = row["positiveness"]
        margins = [float.fromhex(pos[k]) for k in ("lq_margin", "norm_margin")]
        _require(not row["positive"] or min(margins) > 0.0,
                 "a positive row with a positiveness margin not above 0")
        _require(float.fromhex(row["trial_radius"]) >= _interval(row["r_h1"], "r_h1")[1],
                 "trial radius below r_h1")
    if certified or (row.get("lower"), row.get("upper")) != (None, None):
        _interval([row["lower"], row["upper"]], "[lower, upper]")


def validate_report_dict(d: dict) -> None:
    """Re-validate the rigorous fields of a loaded report (self-check): k and
    every row's N integers, N >= 1, every interval ordered, K positive, the
    defects, radii and neg_sup nonnegative, the terms of K readable hex floats, and
    on certified rows the terms of K present with a Morse index of 1, the
    positiveness record present (a positive row with both margins above 0),
    the trial radius at least r_h1
    (g must hold on the certified ball) and the row's enclosure, lower <=
    upper, present as hex floats, as is the final enclosure of every report.
    A failed check, and a missing or malformed field, is a SoundnessViolation
    that names where in the report it is."""
    where = "report"
    try:
        _require(d.get("format") == REPORT_FORMAT, "unknown report format")
        _require(type(d["k"]) is int, "k is not an integer")
        for i, row in enumerate(d["rows"]):
            where = f"rows[{i}]"
            _check_row(row)
        where = "final"
        _interval([d["final"]["lower"], d["final"]["upper"]], "[lower, upper]")
        where = "classical"
        for i, (_, pair) in enumerate(d["classical"]):
            where = f"classical[{i}]"
            _interval(pair, "bound")
    except SoundnessViolation as exc:
        raise SoundnessViolation(f"{where}: {exc}") from None
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise SoundnessViolation(
            f"{where}: missing or malformed field ({type(exc).__name__}: {exc})") from exc
