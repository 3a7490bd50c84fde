"""Rigorous eigenvalue enclosures for symmetric matrices within a float radius.

Technique: diagonalize the midpoint matrix approximately in floating point,
transform with the (approximately orthogonal) eigenvector matrix V, and apply
Gershgorin to C = V^T A V for every member A of the family.  Only diag(C)
and the off-diagonal row sums of |C| enter Gershgorin, so C is never formed
as an interval matrix: three float GEMMs give T = fl(A_mid V),
C~ = fl(V^T T) and G~ = fl(V^T V), and every error term is a row sum,
computed by nested matrix-vector products of nonnegative factors
(midpoint-radius bounds, Rump, BIT 39, 1999).

Non-orthogonality of V is handled through G = V^T V: the eigenvalues of A
equal those of the symmetric pencil (V^T A V, G), i.e. of
S = G^{-1/2} (V^T A V) G^{-1/2}, and ||S - V^T A V|| is explicitly bounded
via ||G - I||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotInvertible
from .intervals import Interval
from .ivarray import _TINY, IArray, _dn, _gamma_fac, _up


@dataclass
class SymMatrix:
    """Symmetric matrices A with |A - mid| <= rad entrywise; mid need not be symmetric."""

    mid: np.ndarray
    rad: np.ndarray

    def __post_init__(self):
        m, r = self.mid, self.rad
        if m.ndim != 2 or m.shape[0] != m.shape[1] or r.shape != m.shape:
            raise ValueError("SymMatrix needs a square 2-d mid and a rad of its shape")

    @property
    def n(self) -> int:
        return self.mid.shape[0]

    @staticmethod
    def from_point(m: np.ndarray) -> "SymMatrix":
        return SymMatrix(np.asarray(m, dtype=np.float64), np.zeros(np.shape(m)))


@dataclass
class EigEnclosure:
    """Gershgorin-style enclosure of the full spectrum of a SymMatrix family."""

    disc_lo: np.ndarray  # per-disc lower endpoints
    disc_hi: np.ndarray  # per-disc upper endpoints
    lam_min: Interval  # brackets the smallest eigenvalue

    def min_abs_lower(self) -> float:
        """Rigorous lower bound on min |eigenvalue| over the whole family."""
        dist = np.where(
            (self.disc_lo <= 0.0) & (self.disc_hi >= 0.0),
            0.0,
            np.minimum(np.abs(self.disc_lo), np.abs(self.disc_hi)),
        )
        return float(np.min(dist))


def eig_enclosures(m: SymMatrix) -> EigEnclosure:
    """Gershgorin discs of V^T A V, valid for every member A of m.

    Lemma.  Let A_mid = m.mid, A_rad = m.rad; all the lemma needs is |A - A_mid|
    <= A_rad for every symmetric member A, so A_mid need not be symmetric (V
    may be any float matrix).  With gamma = gamma_n >= n u / (1 - n u)
    (`_gamma_fac(n)`; n is the inner dimension of every product, u = 2^-53) let

        T~ = fl(A_mid V),   C~ = fl(V^T T~),   G~ = fl(V^T V).

    The classical bound |fl(XY) - XY| <= gamma |X| |Y| (any summation order)
    applied to the two products of C~ gives, for every A in the family,

        |V^T A V - C~| <= E := gamma |V|^T |T~| + gamma |V|^T |A_mid| |V|
                               + |V|^T A_rad |V|,

    from V^T A V - C~ = V^T (A - A_mid) V + V^T (A_mid V - T~)
    + (V^T T~ - C~).  Gershgorin for the symmetric C = V^T A V then puts
    every eigenvalue of C in a disc C~_ii +- (sum_{j != i} |C~_ij| + (E 1)_i).
    E has nonnegative factors, so E 1 is three nested matrix-vector products,
    gamma |V|^T (|T~| 1) + gamma |V|^T (|A_mid| (|V| 1))
    + |V|^T (A_rad (|V| 1)).  Each float product or sum of k nonnegative
    terms is at most a factor gamma_k below the exact one; `_up_nonneg`
    inflates it by 2 gamma (>= 1/(1 - gamma) - 1 for gamma <= 1/2) and
    adds the cushion _TINY, far above the n^2 subnormal rounding errors
    (each below 2^-1074) a row sum can collect, so every nested result
    bounds the exact one from above.  Likewise
    |G - I| <= |G~ - I| + gamma |V|^T |V|, whose row sums bound
    eps >= ||G - I||_2 (G - I is symmetric).  This is entry by
    entry the bound that interval products V^T (A V) form (`imatmul`, the
    same gamma and cushion), summed over each row; only the rounding of the
    sums differs.  C~ is used as computed, not symmetrized: the row-sum
    bound covers it.

    Non-orthogonality: with eps < 1/2, ||G^{-1/2} - I|| <= e_orth and
    ||S - C|| <= ||C|| (2 e_orth + e_orth^2) =: delta, where ||C||_2 <= ||C||_inf
    (C symmetric) <= max_i (sum_j |C~_ij| + (E 1)_i).  By Weyl every
    eigenvalue of S, hence of A, lies in a disc widened by delta.
    """
    amid, arad, n = m.mid, m.rad, m.n
    _, v = np.linalg.eigh(amid)
    v[np.abs(v) < 1e-200] = 0.0

    g = _gamma_fac(n)

    def up(x):
        return _up_nonneg(x, g)

    # n x n arrays are dropped once read: how many are alive sets the peak
    t = amid @ v
    t1 = up(np.abs(t).sum(axis=1))  # |T~| 1
    c = v.T @ t
    del t
    gram = v.T @ v
    abs_vt = np.abs(v).T
    del v
    v1 = up(abs_vt.sum(axis=0))  # |V| 1
    e1 = up(abs_vt @ t1)  # |V|^T |T~| 1
    e1 = e1 + up(abs_vt @ up(np.abs(amid) @ v1))  # + |V|^T |A_mid| |V| 1
    e1 = up(up(g * e1) + up(abs_vt @ up(arad @ v1)))  # (E 1)_i
    gv = up(g * up(abs_vt @ v1))  # gamma (|V|^T |V| 1)_i
    del abs_vt
    eps = float(np.max(up(np.abs(gram - np.eye(n)).sum(axis=1) + gv)))
    if eps >= 0.5:
        raise NotInvertible("eigenvector matrix too far from orthogonal")
    # ||G^{-1/2} - I|| <= 1/sqrt(1-eps) - 1
    e_orth = _up(1.0 / math.sqrt(1.0 - 2.0 * eps) - 1.0)  # extra slack via 2*eps
    cdiag = np.diag(c).copy()
    cabs = np.abs(c)
    np.fill_diagonal(cabs, 0.0)
    off = up(cabs.sum(axis=1))
    cnorm = float(np.max(up(off + np.abs(cdiag) + e1)))
    delta = _up(cnorm * (2.0 * e_orth + e_orth * e_orth) * (1.0 + 1e-12))

    radii = up(off + e1 + delta)
    disc_lo = _dn(cdiag - radii)
    disc_hi = _up(cdiag + radii)

    lam_min_lo = float(np.min(disc_lo))
    # Rayleigh upper bound lambda_min <= min_k (x^T A x)/(x^T x), x = V e_k,
    # with |x^T A x - C~_kk| <= E_kk <= (E 1)_k and |x^T x - G~_kk| <= gv_k
    ckk = IArray(_dn(cdiag - e1), _up(cdiag + e1), _unsafe=True)
    gdiag = np.diag(gram)
    gkk = IArray(np.maximum(_dn(gdiag - gv), 0.0), _up(gdiag + gv), _unsafe=True)
    ratios = ckk / gkk
    lam_min_hi = float(np.min(ratios.hi))
    lam_min_hi = max(lam_min_hi, lam_min_lo)
    return EigEnclosure(disc_lo, disc_hi, Interval(lam_min_lo, lam_min_hi))


def _up_nonneg(x: np.ndarray, g: float) -> np.ndarray:
    """Upper bound on the exact value of float results x of products or sums
    of at most n nonnegative terms, each at most a factor gamma_n low."""
    return _up(x * (1.0 + 2.0 * g) + _TINY)

