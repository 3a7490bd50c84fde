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
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    EnclosureResult,
    best_enclosure,
    corollary_bound,
    enclosure_from_ball,
    outward_decimal,
    plum_bound,
)
from .certify import CertifiedBall, certify_ball
from .errors import DomainError, SobembError, SoundnessViolation
from .series import DomainRect, Series2D
from .solver import SolverConfig, initial_guess, newton_solve

REPORT_FORMAT = "sobemb-report/4"


@dataclass
class RunConfig:
    """A pipeline run: p in 2..5 (C_{p+1} output), rectangle, N sweep."""

    p: int
    domain: DomainRect
    N: list = field(default_factory=lambda: [10, 20, 30, 34])

    def __post_init__(self):
        if isinstance(self.N, int):
            self.N = [self.N]
        self.N = [int(n) for n in self.N]
        if self.p not in (2, 3, 4, 5) or not self.N or min(self.N) < 1:
            raise DomainError("need p in 2..5 and a nonempty sweep of N >= 1, "
                              f"got p={self.p}, N={self.N}")

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "domain": self.domain.to_dict(),
            "N": self.N,
        }

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        return RunConfig(
            p=d["p"],
            domain=DomainRect.from_dict(d["domain"]),
            N=d["N"],
        )


# the rigorous fields of a row whose certification did not finish
_NO_BALL = {
    **dict.fromkeys(("defect_hm1", "defect_l2", "K", "r_h1", "r_inf", "inverse_bound",
                     "positiveness", "neg_sup", "trial_radius")),
    "positive": False,
}


@dataclass
class RunRow:
    """Per-N result row: the certified ball, if certification finished, and
    the row's enclosure of C_{p+1}."""

    N: int
    status: str  # "certified" | the failure class name
    ball: CertifiedBall | None = None
    lower: float | None = None
    upper: float | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        d = {"N": self.N, "status": self.status}
        d.update(_NO_BALL if self.ball is None else self.ball.row_fields())
        d["lower"] = None if self.lower is None else self.lower.hex()
        d["upper"] = None if self.upper is None else self.upper.hex()
        d["error"] = self.error
        return d


@dataclass
class RunReport:
    """Full record of a pipeline run."""

    config: RunConfig
    rows: list
    classical: list  # (tag, Interval)
    final: EnclosureResult
    solutions: dict = field(default_factory=dict)  # N -> Series2D
    timing: dict = field(default_factory=dict)

    @property
    def fully_certified(self) -> bool:
        return bool(self.rows) and all(r.status == "certified" for r in self.rows)

    def to_dict(self) -> dict:
        f = self.final
        return {
            "format": REPORT_FORMAT,
            "config": self.config.to_dict(),
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
                "platform": platform.platform(),
                "numpy": np.__version__,
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
    """Execute the sweep; failures at one N are recorded, not fatal, but a
    lower bound above an upper bound is: SoundnessViolation."""
    t_start = time.perf_counter()
    timing = {}
    (bounds,) = classical_table([cfg.p + 1], cfg.domain)
    classical = [(tag, bounds[tag]) for tag in ("corollary", "plum")]
    rows = []
    solutions = {}

    guess = initial_guess(cfg.p, cfg.domain)
    for n in cfg.N:
        t0 = time.perf_counter()
        row = RunRow(N=n, status="pending")
        try:
            u = newton_solve(SolverConfig(p=cfg.p, N=n), guess)
            guess = u  # warm start for the next N
            solutions[n] = u
            row.ball = ball = certify_ball(u, cfg.p)
            row.lower, row.upper = enclosure_from_ball(u, ball.r_h1, cfg.p,
                                                       positive=ball.positive)
            row.status = "certified"
        except SobembError as exc:
            row.status = type(exc).__name__
            row.error = str(exc)
        timing[f"N={n}"] = time.perf_counter() - t0
        rows.append(row)

    final = best_enclosure([(r.lower, r.upper) for r in rows if r.status == "certified"],
                           classical, cfg.p + 1)
    timing["total"] = time.perf_counter() - t_start
    return RunReport(config=cfg, rows=rows, classical=classical, final=final,
                     solutions=solutions, timing=timing)


def classical_table(p_list, domain: DomainRect) -> list:
    """Rows [{p, corollary, plum}] of classical upper bounds for C_p on the
    rectangle; the spectral bound uses its certified lambda_1."""
    return [
        {
            "p": p,
            "corollary": corollary_bound(float(p), domain.measure()),
            "plum": plum_bound(float(p), domain.lambda1()),
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


def validate_report_dict(d: dict) -> None:
    """Re-validate the rigorous fields of a loaded report (self-check): every
    interval ordered, K positive, the defects and radii nonnegative, the
    terms of K readable hex floats, and on certified rows the terms of K and
    the positiveness record present (a positive row with both margins above
    0), the trial radius at least r_h1 (g must hold on the certified ball)
    and the row's enclosure, lower <= upper, present as hex floats, as is
    the final enclosure of every report."""
    if d.get("format") != REPORT_FORMAT:
        raise SoundnessViolation("unknown report format")
    for row in d["rows"]:
        for name in ("defect_hm1", "defect_l2", "K", "r_h1", "r_inf"):
            pair = row.get(name)
            if pair is not None:
                lo, hi = float.fromhex(pair[0]), float.fromhex(pair[1])
                if not lo <= hi:
                    raise SoundnessViolation(f"row N={row['N']}: {name} lo > hi")
                if name == "K" and not lo > 0.0:
                    raise SoundnessViolation(f"row N={row['N']}: K <= 0")
                if name != "K" and lo < 0.0:
                    raise SoundnessViolation(f"row N={row['N']}: {name} < 0")
        inv = row.get("inverse_bound")
        if inv is not None or row["status"] == "certified":
            try:
                for key in ("block_min", "tail", "coupling", "eps_pert"):
                    float.fromhex(inv[key])
            except (KeyError, TypeError, ValueError) as exc:
                raise SoundnessViolation(
                    f"row N={row['N']}: inverse_bound {key} missing or not a hex float"
                ) from exc
        if row["status"] == "certified":
            pos = row.get("positiveness")
            try:
                point = [float.fromhex(v) for v in pos["point"]]
                margins = [float.fromhex(pos[k]) for k in ("positivity_margin", "spectral_margin")]
                pos_ok = len(point) == 2 and (not row["positive"] or min(margins) > 0.0)
            except (KeyError, TypeError, ValueError):
                pos_ok = False
            if not pos_ok:
                raise SoundnessViolation(
                    f"row N={row['N']}: positiveness point or margins missing or not hex "
                    "floats, or a positive row with a margin not above 0")
            try:
                trial_ok = float.fromhex(row["trial_radius"]) >= float.fromhex(row["r_h1"][1])
            except (KeyError, TypeError, ValueError):
                trial_ok = False
            if not trial_ok:
                raise SoundnessViolation(
                    f"row N={row['N']}: trial radius below r_h1 or not a hex float")
        bounds = (row.get("lower"), row.get("upper"))
        if row["status"] == "certified" or bounds != (None, None):
            try:
                ordered = float.fromhex(bounds[0]) <= float.fromhex(bounds[1])
            except (TypeError, ValueError):
                ordered = False
            if not ordered:
                raise SoundnessViolation(f"row N={row['N']}: lower or upper not a hex float, "
                                         "or lower > upper")
    f = d.get("final")
    try:
        ordered = float.fromhex(f["lower"]) <= float.fromhex(f["upper"])
    except (KeyError, TypeError, ValueError):
        ordered = False
    if not ordered:
        raise SoundnessViolation("final enclosure missing, not hex floats, or lower > upper")
    for tag, pair in d["classical"]:
        if float.fromhex(pair[0]) > float.fromhex(pair[1]):
            raise SoundnessViolation(f"classical bound {tag}: lo > hi")
