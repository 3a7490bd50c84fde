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
accumulated in extended precision so Newton can reach relative residuals
near 1e-16.

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

import math
import sys

import numpy as np

from .errors import CapacityError, DomainError, NoConvergence, SingularJacobian, check_exponent
from .ivarray import IArray, _checked
from .series import (
    COS,
    MAX_DENSE_ROWS,
    SIN,
    DomainRect,
    Series2D,
    SineSeries2D,
    _axis_overlap,
    _read_only,
)

VERBOSE = False  # Newton writes one line per step to stderr (`cli.main` sets it from -v)
NEWTON_RTOL = 1e-15  # ||r|| / ||lambda a|| at which Newton stops
MAX_ITER = 50  # Newton steps before NoConvergence
GMRES_RTOL = 1e-14  # relative residual ||J x + r|| / ||r|| that ends GMRES
GMRES_MAXITER = 100  # Krylov vectors per Newton step; then the best iterate


class SolverConfig:
    """The Galerkin-Newton problem: exponent p, odd-odd sine modes up to N
    in each dimension; DomainError unless both are ints (not bools), p in
    2..5 (`check_exponent`) and N >= 1.  Read-only."""

    __slots__ = ("p", "N")

    def __init__(self, p: int, N: int):
        check_exponent(p)
        if type(N) is not int or N < 1:
            raise DomainError(f"truncation order N must be an int >= 1, got {N!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "N", N)

    __setattr__ = __delattr__ = _read_only


# integral of sin^k over one period-half, divided by the length:
# (1/L) * int_0^L sin(pi x / L)^k dx
_SINE_POWER_MEAN = {2: 0.5, 3: 4.0 / (3.0 * math.pi), 4: 3.0 / 8.0,
                    5: 16.0 / (15.0 * math.pi), 6: 5.0 / 16.0}


def initial_guess(p: int, domain: DomainRect) -> Series2D:
    """One-mode series solving the single-mode Galerkin balance, on the
    reference rectangle R of `domain` (`DomainRect.reference`).

    With u = c sin(pi x/L1) sin(pi y/L2), testing against the same mode gives
    lambda_11 c / 4 = c^p w^2 where w is the mean of sin^(p+1), hence
    c^(p-1) = lambda_11 / (4 w^2), where lambda_11(R) <= 2 pi^2 bounds c by
    28.  DomainError for p outside 2..5 (`check_exponent`) and on a rectangle
    too thin for binary64 (`DomainRect.reference`)."""
    check_exponent(p)
    ref = domain.reference()[1]
    lam11 = float(ref.lambda_float(1, 1))
    w = _SINE_POWER_MEAN[p + 1]
    c = (lam11 / (4.0 * w * w)) ** (1.0 / (p - 1))
    return SineSeries2D(ref, np.full((1, 1), c))


def dilate(u: Series2D, p: int, k: int) -> Series2D:
    """u carried to 2^k times its rectangle by v(x) = 2^(-2k/(p-1)) u(2^-k x),
    which maps solutions of -Lap u = u^p to solutions in 2-d, for plotting
    (not rigorous): exact sides, the same basis, and the coefficients'
    midpoints scaled in extended precision and rounded once; u itself at
    k = 0.  DomainError for p outside 2..5 (`check_exponent`), and if a
    coefficient leaves binary64."""
    check_exponent(p)
    if not k:
        return u
    domain = DomainRect(math.ldexp(u.domain.L1, k), math.ldexp(u.domain.L2, k))
    c = u.coeffs.mid() * np.exp2(np.longdouble(-2 * k) / (p - 1))
    if not np.max(np.abs(c)) <= np.finfo(np.float64).max:
        raise DomainError(f"the solution on the {domain.L1!r} x {domain.L2!r} rectangle "
                          "has coefficients beyond binary64")
    return Series2D(domain, IArray(c.astype(np.float64)), u.parity_x, u.parity_y)


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
    applies.  CapacityError before any transform is built if the system has
    more than MAX_DENSE_ROWS rows; DomainError, before any float warning, if
    the extended-precision lambda grid leaves binary64."""

    def __init__(self, p: int, domain: DomainRect, N: int):
        modes = np.arange(1, N + 1, 2)
        self.p, self.n, self.rows = p, len(modes), len(modes) ** 2
        if self.rows > MAX_DENSE_ROWS:
            raise CapacityError(f"Galerkin system of {self.rows} rows > {MAX_DENSE_ROWS}")
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
        mx, my = modes.reshape(-1, 1), modes.reshape(1, -1)
        self.lam = domain.lambda_float(mx, my, np.longdouble)
        if not self.lam[-1, -1] <= np.finfo(np.float64).max:
            raise DomainError(f"lambda_NN on the {domain.L1!r} x {domain.L2!r} rectangle "
                              "leaves binary64 (its aspect ratio)")
        self.lam64 = domain.lambda_float(mx, my)

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


@_checked
def newton_solve(cfg: SolverConfig, guess: Series2D) -> Series2D:
    """Damped Newton iteration on the odd-odd Galerkin system; returns a point
    series whose even modes are exact zeros, and on a square whose
    coefficients are bitwise transpose-symmetric.  Even-mode content of the
    guess is dropped.  Newton solves on the guess's rectangle, which must be
    its own reference rectangle R (`DomainRect.reference`), else a
    DomainError, and returns the center on R.  Each step solves J step = -r
    matrix-free (`_gmres` on `_Galerkin.linearization`) and is halved until
    the residual falls; Newton stops once ||r|| < NEWTON_RTOL ||lambda a||,
    which a zero iterate never passes.  The float work runs under the overflow
    policy of the interval arrays (`ivarray._checked`): a value that leaves
    binary64 gives no RuntimeWarning and reaches the finiteness checks,
    which end the solve in SingularJacobian (or the line search's
    NoConvergence)."""
    dom = guess.domain
    if dom.reference()[0]:
        raise DomainError(f"the guess is not on its own reference rectangle: {dom}")
    system = _Galerkin(cfg.p, dom, cfg.N)

    def sym(x):  # fl(x_ij + x_ji) = fl(x_ji + x_ij): the result is symmetric
        return 0.5 * (x + x.T) if dom.is_square() else x

    a = np.zeros((system.n, system.n))
    src = guess.coeffs.mid()[::2, ::2][: system.n, : system.n]
    a[: src.shape[0], : src.shape[1]] = src
    a = sym(a)
    if not np.any(a):
        raise ValueError("newton_solve requires a nonzero initial guess")

    inv = 1.0 / system.lam64.reshape(-1)
    r, rnorm = system.residual(a)
    for it in range(MAX_ITER + 1):
        scale = math.sqrt(np.sum(np.square(system.lam64 * a)))
        if rnorm < NEWTON_RTOL * scale:
            break
        if it == MAX_ITER:
            raise NoConvergence(f"residual {rnorm:.3e} not below {NEWTON_RTOL:.0e} "
                                f"||lambda a|| = {scale:.3e} after {MAX_ITER} iterations")
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
        if VERBOSE:
            print("sobemb.solver newton iteration=%d residual=%.6e step_scale=%.3g"
                  % (it + 1, rnorm, t), file=sys.stderr)

    full = np.zeros((cfg.N, cfg.N))
    full[::2, ::2] = a
    return SineSeries2D(dom, full)
