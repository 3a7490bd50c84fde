"""Rigorous lower bound on min |eigenvalue| for a family of symmetric matrices
given as a float midpoint and a 2-norm radius, with the number of negative
eigenvalues of every member.

Technique: the float directions of the expected negative eigenspace are
deflated.  An outward-rounded Rayleigh quotient on their span proves the
negative eigenvalues, and one Cholesky factorization of the midpoint plus a
positive rank-k update, shifted, proves every other eigenvalue positive by
interlacing; the factorization is checked a posteriori with its backward-
error bound (Higham, Accuracy and Stability of Numerical Algorithms,
Thm 10.3), in the spirit of Rump's verification of positive definiteness
(BIT 46, 2006).  The shift comes from a Lanczos estimate that needs only
matrix-vector products, so no eigensolver runs.  Weyl's inequality then
carries both bounds from the midpoint to every member.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotInvertible
from .ivarray import _EPS, _TINY, _dn, _fro, _gamma_fac, _up

_STEPS = 32  # Lanczos steps at most
_TRIES = 4  # Cholesky factorizations at most, the shift's margin 2^10 wider after each failure
_ROWS = 64  # rows per block of the in-place loops


class SymMatrix:
    """Every symmetric A with ||A - B~||_2 <= eps, where B~ is mid with its
    lower triangle mirrored; mid need not be symmetric, and
    `eig_enclosures` mirrors it in place.  neg holds, as columns, float
    directions of the negative eigenspace B~ is expected to have (a vector
    is one column, an n x 0 array none); the caller gives them, and no
    eigensolver runs.  They choose what is proved, and no bound assumes
    anything of them."""

    __slots__ = ("mid", "eps", "neg")

    def __init__(self, mid: np.ndarray, eps: float, neg: np.ndarray):
        if mid.ndim != 2 or mid.shape[0] != mid.shape[1]:
            raise ValueError("SymMatrix needs a square 2-d mid")
        if not (np.ndim(eps) == 0 and 0.0 <= eps < math.inf):
            raise ValueError("SymMatrix needs a finite scalar eps >= 0")
        v = np.asarray(neg, dtype=np.float64)
        v = v.reshape(len(v), -1) if v.ndim == 1 else v
        if (v.ndim != 2 or len(v) != mid.shape[0] or not np.all(np.isfinite(v))
                or not np.all(np.any(v != 0.0, axis=0))):
            raise ValueError("SymMatrix needs neg of n rows, finite, with no zero column")
        self.mid, self.eps, self.neg = mid, eps, v

    @property
    def n(self) -> int:
        return self.mid.shape[0]

    @property
    def index(self) -> int:
        """The number of directions in neg: once `eig_enclosures` has
        returned, the number of negative eigenvalues of every member."""
        return self.neg.shape[1]


def eig_enclosures(m: SymMatrix) -> float:
    """Lower bound m0 > 0 on min |eig(A)| over every member A of m, each of
    which then has exactly k negative eigenvalues, k = `m.index`;
    NotInvertible where that is not proved.

    Lemma.  Let B~ be the mirrored midpoint, n its rows, V the k directions
    of m.neg scaled to about unit columns, u = 2^-53, gamma_j = j u /
    (1 - j u) and g = `_gamma_fac(n + 1)` >= gamma_{n+1}, which bounds the
    error of every inner product below, classical in any order, with or
    without FMA.

    (a) Negative side (`_negative_side`).  With Y~ = fl(B~ V),
        H~ = fl(V^T Y~) and G~ = fl(V^T V), entrywise
          |H~ - V^T B~ V| <= g (|V|^T |Y~| + |V|^T |B~| |V|),
          |G~ - V^T V|    <= g |V|^T |V|,
        and row i of |V|^T |B~| |V| sums to at most
        ||V_i||_2 ||B~||_F || |V| 1 ||_2.  Let a_i = H~_ii + sum_{j != i}
        |H~_ij| + row i of the first bound, c_i the same with G~ and the
        second, and mu < -a_i / c_i for every i.  By Gershgorin every
        eigenvalue of V^T B~ V + mu V^T V is then below 0, so V has full
        rank and every Rayleigh quotient of B~ on span V is below -mu:
        lambda_k(B~) < -mu (Courant-Fischer).  For k = 1 this is the
        outward-rounded quotient v^T B~ v / v^T v.
    (b) Positive side (`_deflated_floor`).  For tau >= 0, tau V V^T is
        positive semidefinite of rank <= k, so lambda_1(B~ + tau V V^T) <=
        lambda_{k+1}(B~) (interlacing).  Let A be the symmetric matrix with
        the lower triangle of fl(fl(B~ + fl(fl(tau V) V^T)) - s I).  Each of
        its entries is rounded at most three times, so
          |A - (B~ + tau V V^T - s I)| <= gamma_{k+1} tau |V| |V|^T
                                           + u |A| + u |D0|,
        D0 the diagonal before the shift.  If the Cholesky factorization
        L L^T = A + dA runs to completion, |dA| <= gamma_{n+1} |L| |L^T|
        (Higham, Thm 10.3, for any symmetric A), so |A| <= (1 + g) |L| |L^T|,
        and L L^T >= 0 gives
          lambda_{k+1}(B~) >= s - (g + 2u) ||(|L| |L^T|) 1||_inf
                                - gamma_{k+1} tau ||(|V| |V|^T) 1||_inf
                                - 2u max |D0| - n _TINY:
        each error is bounded entrywise by a nonnegative symmetric matrix,
        whose 2-norm is at most its largest row sum, a matrix-vector
        product of nonnegative floats that `_up_nonneg` rounds up; n _TINY
        covers underflow.
    So min |eig(B~)| >= min(mu, that), and by Weyl every member A has
    lambda_k(A) < -mu + eps and lambda_{k+1}(A) >= that - eps: where
    m0 = min(mu, that) - eps, rounded down, is above 0, A has exactly k
    negative eigenvalues and min |eig(A)| >= m0.

    Neither tau nor s carries the claim; they only decide whether it is
    made.  tau = max(max_i B~_ii, -r) - r, r the least float Rayleigh
    quotient of a direction, moves each deflated eigenvalue up to at least
    the largest diagonal entry and |r|, out of the way of lambda_{k+1}.
    s starts a margin g theta' below theta, the least eigenvalue of the
    Lanczos tridiagonal of x -> B~ x + tau V (V^T x) (`_lanczos_min`),
    theta' its Gershgorin radius; the margin grows 2^10-fold after each
    factorization that fails, _TRIES of them at most, and then, or at once
    where theta <= 0, NotInvertible.

    Platform assumption: numpy's BLAS and LAPACK form every inner product
    in the classical way, in any order, with or without FMA: no
    Strassen-type GEMM.  `tests/test_symeig.py` checks Theorem 10.3 and the
    product bounds exactly on the host's BLAS.
    """
    n = m.n
    b = _mirror_lower(m.mid)
    v = m.neg / np.sqrt((m.neg * m.neg).sum(axis=0))
    g = _gamma_fac(n + 1)
    mu, r, keep = _negative_side(b, v, g)
    m.neg, v = m.neg[:, keep], v[:, keep]
    tau = max(float(np.max(np.diagonal(b))), -r) - r if m.index else 0.0
    theta, radius = _lanczos_min(b, v, tau)
    if not theta > 0.0:
        raise NotInvertible(f"the deflated block is not positive definite: "
                            f"Lanczos estimate {theta:.4e}")
    shifts = (theta - g * radius * 1024.0 ** i for i in range(_TRIES))
    floor = _deflated_floor(b, v, tau, shifts, g)
    bound = float(_dn(min(mu, floor) - m.eps))
    if not bound > 0.0:
        raise NotInvertible(f"block minimum {min(mu, floor):.4e} is within {m.eps:.4e} of 0")
    return bound


def _negative_side(b: np.ndarray, v: np.ndarray, g: float) -> tuple:
    """(mu, r, keep): keep marks the columns of v whose discs in (a) of
    `eig_enclosures`' lemma end below 0, columns whose disc reaches 0 being
    dropped one round at a time; mu > 0 with lambda_k(B~) < -mu, k the kept
    columns, and r the least float Rayleigh quotient of a kept column;
    (inf, 0.0) where none is kept."""
    keep = np.ones(v.shape[1], dtype=bool)
    while keep.any():
        vk = v[:, keep]
        y = b @ vk
        h, gram = vk.T @ y, vk.T @ vk
        av = np.abs(vk)
        w = av.sum(axis=1)
        col = np.array([_fro(c) for c in vk.T])
        e_h = g * _up(_up_nonneg(av.T @ _up_nonneg(np.abs(y).sum(axis=1), g), g)
                      + _up(col * _up(_fro(b) * _fro(w))))
        e_g = g * _up_nonneg(av.T @ _up_nonneg(w, g), g)
        a = _up(_up(np.diagonal(h) + _off_diagonal(h, g)) + _up(e_h * (1.0 + 2.0 ** -45)))
        c = _up(_up(np.diagonal(gram) + _off_diagonal(gram, g)) + _up(e_g * (1.0 + 2.0 ** -45)))
        if np.all(a < 0.0):
            return (float(np.min(_dn(-a / c))),
                    float(np.min(np.diagonal(h) / np.diagonal(gram))), keep)
        keep[np.flatnonzero(keep)[a >= 0.0]] = False
    return math.inf, 0.0, keep


def _off_diagonal(x: np.ndarray, g: float) -> np.ndarray:
    """Upper bounds on the row sums of |x| off its diagonal."""
    ax = np.abs(x)
    np.fill_diagonal(ax, 0.0)
    return _up_nonneg(ax.sum(axis=1), g)


def _lanczos_min(b: np.ndarray, v: np.ndarray, tau: float) -> tuple:
    """(theta, radius): theta the least eigenvalue of the tridiagonal T of at
    most _STEPS Lanczos steps on x -> B~ x + tau V (V^T x), with full
    reorthogonalization from the fixed start 1 + cos(i), and radius the
    largest Gershgorin bound of |eig(T)|; T's least eigenvalue comes from a
    Sturm-count bisection, so no eigensolver runs.  An estimate only."""
    n = len(b)
    tv = tau * v
    q = np.empty((min(_STEPS, n), n))
    x = 1.0 + np.cos(np.arange(n))
    x /= math.sqrt(x @ x)
    alpha, beta = [], []
    for j in range(len(q)):
        q[j] = x
        w = b @ x + tv @ (v.T @ x)
        alpha.append(float(x @ w))
        for _ in range(2):  # twice is enough to keep the basis orthogonal
            w -= q[:j + 1].T @ (q[:j + 1] @ w)
        norm = math.sqrt(w @ w)
        if j + 1 == len(q) or norm <= _EPS * (abs(alpha[-1]) + (beta[-1] if beta else 0.0)):
            break
        beta.append(norm)
        x = w / norm
    off = [0.0, *beta, 0.0]
    lo = min(a - off[i] - off[i + 1] for i, a in enumerate(alpha))
    hi = max(a + off[i] + off[i + 1] for i, a in enumerate(alpha))
    radius = max(abs(lo), abs(hi))
    squares = [0.0] + [bt * bt for bt in beta]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _count_below(alpha, squares, mid):
            hi = mid
        else:
            lo = mid
    return lo, radius


def _count_below(alpha: list, squares: list, x: float) -> int:
    """The number of eigenvalues below x of the symmetric tridiagonal with
    diagonal alpha and off-diagonal squares 0, beta_1^2, beta_2^2, ...: the
    negative pivots of the LDL^T factorization of T - x I (Sylvester), a
    zero pivot nudged below 0."""
    count, d = 0, 1.0
    for a, b2 in zip(alpha, squares):
        d = a - x - b2 / d
        if d == 0.0:
            d = -_TINY
        count += d < 0.0
    return count


def _deflated_floor(b: np.ndarray, v: np.ndarray, tau: float, shifts, g: float) -> float:
    """Lower bound on lambda_1(B~ + tau V V^T), (b) of `eig_enclosures`'
    lemma, at the first shift s of `shifts` whose factorization runs to
    completion; NotInvertible if none does or a shift is not above 0.  b is
    B~; the lower triangle of A is formed in it, 64 rows at a time, and B~
    is put back from the upper triangle and a copy of the diagonal, so no
    n x n array is made besides the factorization's."""
    n, k = b.shape[0], v.shape[1]
    diag = np.diag_indices(n)
    b_diag = b[diag]
    av = np.abs(v)
    e_form = _gamma_fac(k + 1) * tau * float(
        np.max(_up_nonneg(av @ _up_nonneg(av.sum(axis=0), g), g)))
    try:
        if k and tau:
            tv = tau * v
            for r in range(0, n, _ROWS):
                rows = slice(r, r + _ROWS)
                b[rows, :r] += tv[rows] @ v[:r].T
                b[rows, rows] += np.tril(tv[rows] @ v[rows].T)
        d0 = b[diag]
        d_max = float(np.max(np.abs(d0)))
        for s in shifts:
            if not s > 0.0:
                break
            b[diag] = d0 - s
            try:
                low = np.linalg.cholesky(b)  # reads the lower triangle: A = L L^T
            except np.linalg.LinAlgError:
                continue
            np.abs(low, out=low)
            e_chol = float(np.max(_up_nonneg(low @ _up_nonneg(low.sum(axis=0), g), g)))
            # the pad 2^-45 covers the roundings of this sum of nonnegative terms
            err = (g + _EPS) * e_chol + e_form + _EPS * d_max + n * _TINY
            return float(_dn(s - _up(err * (1.0 + 2.0 ** -45))))
        raise NotInvertible(f"the deflated block is not proved positive definite "
                            f"below its Lanczos estimate; last shift {s:.4e}")
    finally:
        _mirror_lower(b.T)
        b[diag] = b_diag


def _mirror_lower(a: np.ndarray) -> np.ndarray:
    """a with its lower triangle mirrored into its upper one, in place, 64
    rows at a time so that no copy of a is made, and -0.0 made +0.0, as the
    sum of np.tril(a) and the transpose of np.tril(a, -1) has it."""
    for r in range(0, a.shape[0], _ROWS):
        s = slice(r, r + _ROWS)
        a[s, r + _ROWS:] = a[r + _ROWS:, s].T
        block = a[s, s]
        iu = np.triu_indices(len(block), 1)
        block[iu] = block.T[iu]
    a += 0.0
    return a


def _up_nonneg(x: np.ndarray, g: float) -> np.ndarray:
    """x rounded up past the error of sums of at most n nonnegative terms."""
    return _up(x * (1.0 + 2.0 * g) + _TINY)
