"""Rigorous lower bound on min |eigenvalue| for a family of symmetric matrices
given as a float midpoint and a 2-norm radius.

Technique: one Cholesky factorization of the shifted square of the
midpoint, checked a posteriori with the backward-error bound of Cholesky
(Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3), in the
spirit of Rump's verification of positive definiteness (BIT 46, 2006).
Weyl's inequality then carries the bound from the midpoint to every member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotInvertible
from .ivarray import _EPS, _TINY, _dn, _gamma_fac, _up


@dataclass
class SymMatrix:
    """Every symmetric A with ||A - B~||_2 <= eps, where B~ is mid with its
    lower triangle mirrored; mid need not be symmetric, and
    `eig_enclosures` mirrors it in place."""

    mid: np.ndarray
    eps: float

    def __post_init__(self):
        m = self.mid
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("SymMatrix needs a square 2-d mid")
        if not (np.ndim(self.eps) == 0 and 0.0 <= self.eps < math.inf):
            raise ValueError("SymMatrix needs a finite scalar eps >= 0")

    @property
    def n(self) -> int:
        return self.mid.shape[0]

    @staticmethod
    def from_point(m: np.ndarray) -> "SymMatrix":
        return SymMatrix(np.asarray(m, dtype=np.float64), 0.0)


def eig_enclosures(m: SymMatrix) -> float:
    """Lower bound on min |eig(A)| over every member A of m; NotInvertible
    if the midpoint is too close to singular for the bound to be positive.

    Lemma.  Let B~ be the mirrored midpoint, n its rows, u = 2^-53,
    gamma_k = k u / (1 - k u) (`_gamma_fac` is at least that), sigma~ =
    min |fl(eig(B~))|, S~ = fl(B~ B~) and the float s = sigma~^2 - 4 e0, e0
    an a-priori estimate of the error terms below.  If the Cholesky
    factorization R~^T R~ of A = fl(S~ - s I) runs to completion, then

        lambda_min(B~^2) >= s - gamma_n ||(|B~| |B~|) 1||_inf
                              - gamma_{n+1} ||(|R~^T| |R~|) 1||_inf
                              - 2u max |A_ii| - n _TINY.

    Proof: |S~ - B~^2| <= gamma_n |B~| |B~| entrywise; A = S~ - s I + D_A,
    D_A diagonal with |D_A,ii| <= 2u |A_ii|; R~^T R~ = A + dA with
    |dA| <= gamma_{n+1} |R~^T| |R~| (Higham, Thm 10.3, for any symmetric A
    whose factorization runs to completion), and R~^T R~ >= 0.  Each error
    is bounded entrywise by a nonnegative symmetric matrix, whose 2-norm is
    at most its largest row sum; the row sums are matrix-vector products of
    nonnegative floats, which `_up_nonneg` rounds up, and n _TINY covers
    underflow.  So min |eig(B~)| >= sqrt of the bound, and by Weyl every
    member A has min |eig(A)| >= that - eps, all rounded down.

    Platform assumption: numpy's BLAS and LAPACK form every inner product
    in the classical way, in any order, with or without FMA: no
    Strassen-type GEMM.  `tests/test_symeig.py` checks Theorem 10.3 and the
    product bound exactly on the host's BLAS.  If sigma~^2 <= 4 e0 or the
    factorization fails, there is no retry: NotInvertible.
    """
    n = m.n
    # n x n arrays are dropped once read: how many are alive sets the peak.
    # m.mid becomes B~ in place, so besides it at most two are alive at
    # once: eigvalsh's copy, then |B~|, then B~^2 and its Cholesky factor
    b = _mirror_lower(m.mid)
    sig = float(np.min(np.abs(np.linalg.eigvalsh(b))))
    g = _gamma_fac(n + 1)
    absb = np.abs(b)
    e_sq = float(np.max(_up_nonneg(absb @ _up_nonneg(absb.sum(axis=1), g), g)))
    del absb
    a = b @ b
    del b
    diag = np.diag_indices(n)
    # |R~^T| |R~| is about |B~| |B~| in size, whence the a-priori e0
    e0 = 3.0 * g * e_sq + 2.0 * _EPS * float(np.max(a[diag]))
    s = sig * sig - 4.0 * e0
    if not s > 0.0:
        raise NotInvertible(f"block minimum {sig:.4e} is within rounding of 0")
    a[diag] -= s
    a_diag = float(np.max(np.abs(a[diag])))
    try:
        low = np.linalg.cholesky(a)  # reads the lower triangle: A = L L^T
    except np.linalg.LinAlgError as exc:
        raise NotInvertible(f"shifted square of the block is not positive definite "
                            f"at {s:.4e}") from exc
    del a
    np.abs(low, out=low)
    e_chol = float(np.max(_up_nonneg(low @ _up_nonneg(low.sum(axis=0), g), g)))
    # the pad 2^-45 covers the roundings of this sum of nonnegative terms
    err = g * (e_sq + e_chol) + _EPS * a_diag + n * _TINY
    lam = _dn(s - _up(err * (1.0 + 2.0 ** -45)))
    return float(_dn(_dn(math.sqrt(max(lam, 0.0))) - m.eps))


def _mirror_lower(a: np.ndarray) -> np.ndarray:
    """a with its lower triangle mirrored into its upper one, in place, 64
    rows at a time so that no copy of a is made, and -0.0 made +0.0, as the
    sum of np.tril(a) and the transpose of np.tril(a, -1) has it."""
    rows = 64
    for r in range(0, a.shape[0], rows):
        s = slice(r, r + rows)
        a[s, r + rows:] = a[r + rows:, s].T
        block = a[s, s]
        iu = np.triu_indices(len(block), 1)
        block[iu] = block.T[iu]
    a += 0.0
    return a


def _up_nonneg(x: np.ndarray, g: float) -> np.ndarray:
    """x rounded up past the error of sums of at most n nonnegative terms."""
    return _up(x * (1.0 + 2.0 * g) + _TINY)
