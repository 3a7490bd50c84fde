"""Certified two-sided enclosures of Sobolev embedding constants
H^1_0 -> L^p on axis-aligned rectangles.

Layers:
  intervals / ivarray / symeig   outward-rounded validated arithmetic
  series                         rigorous calculus for double trig series
  solver                         non-rigorous spectral Galerkin-Newton
  certify                        Newton-Kantorovich + positiveness proofs
  bounds                         closed-form constants and the enclosure
  pipeline / cli                 orchestration and reporting

Importing the package before numpy pins BLAS to one thread.  OpenBLAS reads
its thread count once, when numpy loads it, and its sums run in an order that
depends on that count; on one thread the rigorous bits depend on (p, Omega,
N), the numpy and BLAS build and the CPU kernel, not on the thread setting.
A caller that loaded numpy first keeps its own setting.  The report's meta
records the setting as given and whether the pin took.
"""

import os as _os
import sys as _sys

_BLAS_GIVEN = {v: _os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
_BLAS_PINNED = "numpy" not in _sys.modules
if _BLAS_PINNED:
    _os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS"), "1"))

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
from .solver import SolverConfig, initial_guess, newton_solve
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
    "SolverConfig", "initial_guess", "newton_solve", "SymMatrix",
]
