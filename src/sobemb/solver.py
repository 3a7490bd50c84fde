"""Floating-point spectral Galerkin-Newton solver for -Laplace u = u^p.

Non-rigorous by design: it produces approximate sine coefficients; every
claim about them is re-derived rigorously by the certification module.

The positive solution on any rectangle is symmetric about both mid-lines
(Gidas-Ni-Nirenberg 1979), so only the odd-odd sine modes are nonzero.
Newton works in that mode space on every rectangle; the even modes of the
result are exact zeros.  On a square the solution is also symmetric about
the diagonal x = y, so its coefficients are transpose-symmetric; Newton
keeps every iterate exactly so, with a <- (a + a^T)/2, which the certifier
requires of a center on a square.

Nonlinear terms are evaluated pseudo-spectrally on an oversampled tensor
sine grid with G = (p+1)N + 1 points per dimension, above the degree pN of
u^p: a discrete sine transform gives the coefficients of u^p exactly for odd
p, and for even p (a cosine series) a discrete cosine transform does, which
the exact sine-cosine overlaps project onto the sine modes.  Residuals are
accumulated in extended precision so Newton can reach tolerances near 1e-13.

Only half of that grid is sampled in each axis.  An odd mode m has
sin(pi m (G - k)/G) = sin(pi m k/G), and an even cosine mode, the only kind
that meets an odd sine mode, has cos(pi m (G - k)/G) = cos(pi m k/G), so the
grid points k and G - k carry the same samples of u, of u^p and of every
transform row.  The transforms sum over k = 1..floor(G/2) with the weight 2,
or 1 at the middle point k = G/2, which exists for even G only (even p, odd
N): a quarter of the grid, with the same sums.  Powers of the samples are
products (x^4 = (x x)(x x)), not `**`, which numpy hands to libm's powl for
extended precision at about 50 times the cost of one product.

Each Newton step is taken matrix-free (Jacobian-free Newton-Krylov, Knoll and
Keyes, J. Comput. Phys. 193, 2004, with an analytic product): the Jacobian
J v = lambda v - T^T (w (S v S^T)) T, w = p (S a S^T)^(p-1), is applied to
vectors and never formed, and J step = -r is solved by GMRES (Saad and
Schultz 1986) right-preconditioned by lambda^-1.  J is lambda times the
identity minus a compact term, so the preconditioned operator is the identity
plus a compact perturbation and GMRES ends within about ten products at the
relative residual GMRES_RTOL.  Each Krylov vector takes O(rows) memory, where
a dense Jacobian and its LU took O(rows^2).
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, NoConvergence, SingularJacobian
from .series import (
    COS,
    MAX_DENSE_ROWS,
    SIN,
    DomainRect,
    Series2D,
    SineSeries2D,
    _axis_overlap,
    odd_odd_order,
)

log = logging.getLogger("sobemb.solver")

NEWTON_TOL = 1e-13  # residual l2-norm at which Newton stops, rescaled to unit area
MAX_ITER = 50  # Newton steps before NoConvergence
GMRES_RTOL = 1e-14  # relative residual ||J x + r|| / ||r|| that ends GMRES
GMRES_MAXITER = 100  # Krylov vectors per Newton step; then the best iterate


@dataclass(frozen=True)
class SolverConfig:
    """The Galerkin-Newton problem: exponent p, odd-odd sine modes up to N
    in each dimension; DomainError unless both are ints (not bools), p in
    2..5 and N >= 1."""

    p: int
    N: int

    def __post_init__(self):
        if type(self.p) is not int or self.p not in (2, 3, 4, 5):
            raise DomainError(f"exponent p must be an int in 2..5, got {self.p!r}")
        if type(self.N) is not int or self.N < 1:
            raise DomainError(f"truncation order N must be an int >= 1, got {self.N!r}")


# integral of sin^k over one period-half, divided by the length:
# (1/L) * int_0^L sin(pi x / L)^k dx
_SINE_POWER_MEAN = {2: 0.5, 3: 4.0 / (3.0 * math.pi), 4: 3.0 / 8.0,
                    5: 16.0 / (15.0 * math.pi), 6: 5.0 / 16.0}


def initial_guess(p: int, domain: DomainRect) -> Series2D:
    """One-mode series solving the single-mode Galerkin balance.

    With u = c sin(pi x/L1) sin(pi y/L2), testing against the same mode gives
    lambda_11 c / 4 = c^p w^2 where w is the mean of sin^(p+1), hence
    c^(p-1) = lambda_11 / (4 w^2).
    """
    if p not in (2, 3, 4, 5):
        raise DomainError(f"exponent p must be in 2..5, got {p}")
    lam11 = math.pi ** 2 * (1.0 / domain.L1 ** 2 + 1.0 / domain.L2 ** 2)
    w = _SINE_POWER_MEAN[p + 1]
    c = (lam11 / (4.0 * w * w)) ** (1.0 / (p - 1))
    coeffs = np.zeros((1, 1))
    coeffs[0, 0] = c
    return SineSeries2D(domain, coeffs)


def _cos_projector(g: int, k: np.ndarray, modes: np.ndarray, p: int) -> np.ndarray:
    """T with T^T f T the sine coefficients on `modes` of u^p, even p, from
    its samples f at the grid points k of 1..g-1 (g > p * max mode), a
    longdouble column: the cosine coefficients (2/g) h_m sum_k f_k
    cos(pi m k/g), h_0 = 1/2, else 1, summed over all g - 1 points, are exact
    (u^p vanishes at both ends), then projected by (2/L) int_0^L
    sin(i pi x/L) cos(m pi x/L) dx.  That overlap does not depend on the
    side L, so T is built at L = 1 and serves both axes."""
    top = p * int(modes.max())
    m = np.arange(top + 1, dtype=np.longdouble).reshape(1, -1)
    c = np.cos(np.pi * k * m / g)
    c[:, 0] *= 0.5
    w = _axis_overlap(SIN, int(modes.max()), COS, top + 1, 1.0).mid()[modes - 1]
    return (2.0 / g) * 2.0 * (c @ w.T.astype(np.longdouble))


def _lambda_grid(domain: DomainRect, modes: np.ndarray, dtype):
    lx, ly = ((modes.astype(dtype) / dtype(L)) ** 2 for L in (domain.L1, domain.L2))
    return dtype(math.pi) ** 2 * (lx.reshape(-1, 1) + ly.reshape(1, -1))


def _power(x: np.ndarray, k: int) -> np.ndarray:
    """x^k, k >= 1, entrywise by products (binary powering)."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if not k:
            return out
        x = x * x


class _Galerkin:
    """Newton's Galerkin system: the odd-odd sine modes up to N in each
    dimension, on the grid of order g = (p+1)N + 1, sampled at its mirror
    half k = 1..floor(g/2) (see the module docstring).  Its transforms are
    built once and serve both axes: S[k-1, i] = sin(pi modes[i] k / g)
    samples the modes, and T takes samples of u^p to sine coefficients (S
    times (2/g)^2 for odd p, the cosine projector for even p), its row k
    weighted by 2 for the mirror point g - k, or by 1 at the middle point
    k = g/2.  The residual lambda a - T^T (S a S^T)^p T is in extended
    precision; its derivative, the linearization v -> lambda v - T^T (w (S v
    S^T)) T with w = p (S a S^T)^(p-1), is binary64 and is what Newton's GMRES
    applies.  `jacobian` is the dense matrix of that same map.  CapacityError
    before any transform is built if the system has more than MAX_DENSE_ROWS
    rows."""

    def __init__(self, p: int, domain: DomainRect, N: int):
        modes = np.arange(1, N + 1, 2)
        self.p, self.n, self.rows = p, len(modes), len(modes) ** 2
        if self.rows > MAX_DENSE_ROWS:
            raise CapacityError(f"Jacobian of {self.rows} rows > {MAX_DENSE_ROWS}")
        g = (p + 1) * N + 1
        k = np.arange(1, g // 2 + 1, dtype=np.longdouble).reshape(-1, 1)
        fold = np.where(2 * k < g, 2, 1)
        s = np.sin(np.pi * k * modes.astype(np.longdouble) / g)
        if p % 2:
            self.scale, t = (2.0 / g) ** 2, fold * s
        else:
            self.scale, t = 1.0, fold * _cos_projector(g, k, modes, p)
        self.ld = s, t
        self.f64 = s.astype(np.float64), t.astype(np.float64)
        self.lam = _lambda_grid(domain, modes, np.longdouble)
        self.lam64 = _lambda_grid(domain, modes, np.float64)

    def residual(self, a: np.ndarray) -> tuple:
        """(r, its l2-norm), r = lambda a - T^T (S a S^T)^p T."""
        s, t = self.ld
        a = a.astype(np.longdouble)
        r = self.lam * a - self.scale * (t.T @ _power(s @ a @ s.T, self.p) @ t)
        return r, float(np.sqrt(np.sum(r.astype(np.float64) ** 2)))

    def linearization(self, a: np.ndarray):
        """The Jacobian at a as a map of flat mode vectors (modes (i, j)
        row-major): v -> lambda v - T^T (w (S v S^T)) T, with the weight
        w = p (S a S^T)^(p-1) formed once."""
        s, t = self.f64
        w = self.p * _power(s @ a @ s.T, self.p - 1)

        def apply(v: np.ndarray) -> np.ndarray:
            x = v.reshape(self.n, self.n)
            return (self.lam64 * x - self.scale * (t.T @ (w * (s @ x @ s.T)) @ t)).reshape(-1)

        return apply

    def jacobian(self, a: np.ndarray) -> np.ndarray:
        """Dense matrix of `linearization(a)`, column k its image of the k-th
        unit vector."""
        apply = self.linearization(a)
        jac = np.empty((self.rows, self.rows))
        e = np.zeros(self.rows)
        for k in range(self.rows):
            e[k] = 1.0
            jac[:, k] = apply(e)
            e[k] = 0.0
        return jac


def _system_at(u: Series2D, p: int) -> tuple:
    """Newton's system at u's order N, and u's odd-odd coefficients;
    DomainError unless u is square and odd-odd (`odd_odd_order`)."""
    return _Galerkin(p, u.domain, odd_odd_order(u)), u.coeffs.mid()[::2, ::2]


def galerkin_residual(u: Series2D, p: int) -> float:
    """Newton's residual l2-norm at u's odd-odd coefficients."""
    system, a = _system_at(u, p)
    return system.residual(a)[1]


def galerkin_jacobian(u: Series2D, p: int) -> np.ndarray:
    """Newton's Jacobian at u's odd-odd coefficients (modes (i, j) row-major)."""
    system, a = _system_at(u, p)
    return system.jacobian(a)


def _gmres(apply, b: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """x with apply(x) = b to the relative residual GMRES_RTOL, by GMRES from
    x = 0 right-preconditioned by the diagonal inv: it minimizes ||b -
    apply(inv y)|| over the Krylov space of v -> apply(inv v) and b, and
    returns x = inv y.  The basis is orthonormalized by modified Gram-Schmidt,
    and Givens rotations keep the Hessenberg matrix upper triangular, so the
    residual norm |g[k+1]| is known at every step and y comes from one back
    substitution.  A happy breakdown (h[k+1, k] = 0: the space is invariant)
    ends with the exact Krylov solution; at GMRES_MAXITER vectors the best
    iterate is returned.  SingularJacobian if b or an image is not finite, or
    if the operator vanishes on the space."""
    beta = math.sqrt(b @ b)
    if not math.isfinite(beta):
        raise SingularJacobian("non-finite Newton residual")
    if beta == 0.0:
        return np.zeros_like(b)
    m = GMRES_MAXITER
    h, g = np.zeros((m + 1, m)), np.zeros(m + 1)
    cs, sn = np.zeros(m), np.zeros(m)
    g[0] = beta
    basis = [b / beta]
    for k in range(m):
        w = apply(inv * basis[k])
        if not np.all(np.isfinite(w)):
            raise SingularJacobian("non-finite Jacobian-vector product")
        for i, v in enumerate(basis):
            h[i, k] = v @ w
            w -= h[i, k] * v
        below = math.sqrt(w @ w)
        for i in range(k):
            h[i, k], h[i + 1, k] = (cs[i] * h[i, k] + sn[i] * h[i + 1, k],
                                    cs[i] * h[i + 1, k] - sn[i] * h[i, k])
        rho = math.hypot(h[k, k], below)
        if rho == 0.0:
            raise SingularJacobian("the Jacobian vanishes on a Krylov vector")
        cs[k], sn[k], h[k, k] = h[k, k] / rho, below / rho, rho
        g[k], g[k + 1] = cs[k] * g[k], -sn[k] * g[k]
        if abs(g[k + 1]) <= GMRES_RTOL * beta:  # also a happy breakdown: sn[k] = 0
            break
        basis.append(w / below)
    y = np.zeros(k + 1)
    for i in range(k, -1, -1):
        y[i] = (g[i] - h[i, i + 1:k + 1] @ y[i + 1:]) / h[i, i]
    return inv * sum(yi * v for yi, v in zip(y, basis))


def newton_solve(cfg: SolverConfig, guess: Series2D) -> Series2D:
    """Damped Newton iteration on the odd-odd Galerkin system; returns a point
    series whose even modes are exact zeros, and on a square whose
    coefficients are bitwise transpose-symmetric.  Even-mode content of the
    guess is dropped.  Each step solves J step = -r matrix-free (`_gmres` on
    `_Galerkin.linearization`) and is halved until the residual falls; Newton
    stops once the residual, rescaled to unit area, is below NEWTON_TOL."""
    domain = guess.domain
    # rnorm ~ t^{-2p/(p-1)} on t Omega; in Python floats a stop that underflows
    # is a quiet 0, which no residual is below
    try:
        stop = NEWTON_TOL * (domain.L1 * domain.L2) ** (-cfg.p / (cfg.p - 1))
    except (OverflowError, ZeroDivisionError):
        raise NoConvergence("the unit-area Newton stop leaves binary64") from None
    system = _Galerkin(cfg.p, domain, cfg.N)

    def sym(x):  # fl(x_ij + x_ji) = fl(x_ji + x_ij): the result is symmetric
        return 0.5 * (x + x.T) if domain.is_square() else x

    a = np.zeros((system.n, system.n))
    src = guess.coeffs.mid()[::2, ::2][: system.n, : system.n]
    a[: src.shape[0], : src.shape[1]] = src
    a = sym(a)
    if not np.any(a):
        raise ValueError("newton_solve requires a nonzero initial guess")

    if not system.lam64[0, 0] > 1.0 / sys.float_info.max:
        raise SingularJacobian(f"lambda_11 = {system.lam64[0, 0]:.3e}: its inverse, "
                               "Newton's preconditioner, leaves binary64")
    inv = 1.0 / system.lam64.reshape(-1)
    r, rnorm = system.residual(a)
    for it in range(MAX_ITER):
        if rnorm < stop:
            break
        step = _gmres(system.linearization(a), -r.astype(np.float64).reshape(-1), inv)
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("non-finite Newton step")
        step = step.reshape(a.shape)
        t = 1.0
        for _ in range(40):
            trial = sym(a + t * step)
            rt, rtnorm = system.residual(trial)
            if rtnorm < rnorm:
                break
            t *= 0.5
        else:
            raise NoConvergence(f"line search stalled at residual {rnorm:.3e}")
        a, r, rnorm = trial, rt, rtnorm
        log.info("newton iteration=%d residual=%.6e step_scale=%.3g", it + 1,
                 rnorm, t)
    if not rnorm < stop:
        raise NoConvergence(
            f"residual {rnorm:.3e} not below {stop:.3e}, the unit-area tolerance "
            f"{NEWTON_TOL:.1e}, after {MAX_ITER} iterations"
        )
    if not np.any(a):
        raise NoConvergence("iteration collapsed to the zero series")

    full = np.zeros((cfg.N, cfg.N))
    full[::2, ::2] = a
    return SineSeries2D(domain, full)
