"""Certified two-sided enclosures of Sobolev embedding constants
H^1_0 -> L^p on axis-aligned rectangles.

Layers:
  intervals / ivarray / symeig   outward-rounded validated arithmetic
  series                         rigorous calculus for double trig series
  solver                         non-rigorous spectral Galerkin-Newton
  certify                        Newton-Kantorovich + positiveness proofs
  bounds                         closed-form constants and the enclosure
  pipeline / cli                 orchestration and reporting
"""

from .bounds import (
    EnclosureResult,
    best_enclosure,
    corollary_bound,
    enclosure_from_ball,
    plum_bound,
    talenti_constant,
)
from .certify import (
    CertifiedBall,
    certify_ball,
    defect_bounds,
    inverse_bound,
    kantorovich_radius,
    linf_embedding_constant,
    linf_radius,
    lipschitz_bound,
    positiveness_certificate,
)
from .errors import SobembError
from .intervals import Interval
from .ivarray import IArray
from .pipeline import RunConfig, RunReport, classical_table, emit_plot_data, run_pipeline
from .series import (
    DomainRect,
    Series2D,
    SineSeries2D,
    lp_norm,
    power_expand,
)
from .solver import (
    SolverConfig,
    galerkin_jacobian,
    galerkin_residual,
    initial_guess,
    newton_solve,
)
from .symeig import SymMatrix

__version__ = "0.1.0"

__all__ = [
    "EnclosureResult", "best_enclosure", "corollary_bound",
    "enclosure_from_ball", "plum_bound", "talenti_constant",
    "CertifiedBall", "certify_ball", "defect_bounds",
    "inverse_bound", "kantorovich_radius", "linf_embedding_constant",
    "linf_radius", "lipschitz_bound", "positiveness_certificate",
    "SobembError", "Interval",
    "IArray", "RunConfig", "RunReport", "classical_table", "emit_plot_data",
    "run_pipeline",
    "DomainRect", "Series2D", "SineSeries2D", "lp_norm",
    "power_expand",
    "SolverConfig", "galerkin_jacobian", "galerkin_residual", "initial_guess",
    "newton_solve", "SymMatrix",
]
