"""Galerkin-Newton solver: single-mode balance oracle, Jacobian versus finite
differences, residual convergence, and exact zeros in the even modes on
every rectangle (the solver works in the odd-odd modes only)."""

import math
import os
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from sobemb import errors
from sobemb.errors import DomainError, SingularJacobian
from sobemb.intervals import Interval
from sobemb.ivarray import IArray, imatmul, isum
from sobemb.pipeline import RunConfig, run_pipeline
from sobemb.series import COS, SIN, DomainRect, SineSeries2D, _axis_overlap, power_expand
from sobemb.solver import (
    MAX_ITER,
    NEWTON_RTOL,
    SolverConfig,
    _cos_projector,
    _Galerkin,
    _gmres,
    initial_guess,
    newton_solve,
)

from _oracles import dense_jacobian, galerkin_jacobian, galerkin_residual

SQ = DomainRect(1.0, 1.0)


def test_config_validation():
    with pytest.raises(DomainError):
        SolverConfig(p=7, N=10)
    with pytest.raises(DomainError):
        SolverConfig(p=3, N=0)
    for n in (12.5, True, 12.0):  # a float or a bool is no order
        with pytest.raises(DomainError):
            SolverConfig(p=3, N=n)
    with pytest.raises(DomainError):
        SolverConfig(p=3.0, N=10)
    with pytest.raises(DomainError):
        initial_guess(6, SQ)


def test_capacity_error_before_the_solver_allocates():
    """p=3, N=6000 has 3000^2 odd-odd modes, far above MAX_DENSE_ROWS, and
    its first transform, 12000 x 3000 extended-precision entries on the
    mirror half of the grid, alone takes 576 MB: under a 512 MiB
    address-space cap newton_solve raises a typed CapacityError within 1 s,
    before any transform is built."""
    import sobemb

    src = os.path.dirname(os.path.dirname(os.path.abspath(sobemb.__file__)))
    # importing sobemb first pins one BLAS thread: per-thread buffers would
    # eat into the address cap
    env = dict(os.environ, PYTHONPATH=src)
    cap = 512 << 20
    code = ("import time\n"
            "from sobemb.errors import CapacityError\n"
            "from sobemb.series import DomainRect\n"
            "from sobemb.solver import SolverConfig, initial_guess, newton_solve\n"
            "t0 = time.perf_counter()\n"
            "try:\n"
            "    newton_solve(SolverConfig(p=3, N=6000), initial_guess(3, DomainRect(1.0, 1.0)))\n"
            "except CapacityError:\n"
            "    print(time.perf_counter() - t0)\n")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 1.0


def test_initial_guess_amplitude_oracle():
    # [DERIVED] one-mode balance for p=3 on the unit square:
    # c^2 = 2 pi^2 / (4 (3/8)^2) so c = 4 sqrt(2) pi / 3 = 5.923843917544488
    g = initial_guess(3, SQ)
    assert abs(g.coeffs.mid()[0, 0] - 5.923843917544488) < 1e-12


def test_initial_guess_p2_oracle():
    # [DERIVED] p=2: c = lambda_11 / (4 w^2), w = 4/(3 pi):
    # c = 2 pi^2 * 9 pi^2 / 64 = 9 pi^4 / 32 = 27.39818697576665
    g = initial_guess(2, SQ)
    assert abs(g.coeffs.mid()[0, 0] - 9.0 * math.pi ** 4 / 32.0) < 1e-10


def test_initial_guess_satisfies_one_mode_residual():
    """The guess balances the (1,1)-mode equation exactly for odd p, where
    u^p is a sine polynomial and the pseudo-spectral projection is exact.
    (For even p the discrete sine transform of the cosine-parity content of
    u^p differs from the continuous coefficient, so only Newton fixes it.)"""
    for p in (3, 5):
        g = initial_guess(p, SQ)
        assert galerkin_residual(g, p) < 1e-8 * g.coeffs.mid()[0, 0]


def _full_grid_operator(p: int, dom: DomainRect, n: int, a: np.ndarray) -> tuple:
    """(residual, Jacobian) of the Galerkin system on all g - 1 points of
    the grid of order g = (p+1)N + 1, with no mirror fold and with `**`:
    r = lambda a - T^T (S a S^T)^p T and its derivative, the reference the
    half-grid `_Galerkin` must reproduce."""
    modes = np.arange(1, n + 1, 2)
    g = (p + 1) * n + 1
    k = np.arange(1, g, dtype=np.longdouble).reshape(-1, 1)
    s = np.sin(np.pi * k * modes.astype(np.longdouble) / g)
    scale, t = ((2.0 / g) ** 2, s) if p % 2 else (1.0, _cos_projector(g, k, modes, p))
    lam = np.pi ** 2 * ((modes[:, None] / dom.L1) ** 2 + (modes[None, :] / dom.L2) ** 2)
    r = lam * a - scale * (t.T @ (s @ a.astype(np.longdouble) @ s.T) ** p @ t)
    s64, t64 = s.astype(np.float64), t.astype(np.float64)
    w = p * (s64 @ a @ s64.T) ** (p - 1)
    m = scale * np.einsum("mi,mk,mn,nj,nl->ijkl", t64, s64, w, t64, s64)
    rows = len(modes) ** 2
    return r, np.diag(lam.reshape(-1)) - m.reshape(rows, rows)


@pytest.mark.parametrize("n", [7, 12])
@pytest.mark.parametrize("p", [2, 3, 4, 5])
@pytest.mark.parametrize("dom", [SQ, DomainRect(2.0, 1.0), DomainRect(1.5, 1.0)],
                         ids=["1x1", "2x1", "1.5x1"])
def test_half_grid_operator_matches_the_full_grid(dom, p, n):
    """The residual and Jacobian on the mirror half of the grid equal those
    on the whole grid to 1e-12 relative, at a random odd-odd point; at
    N = 7 and even p the grid order g = (p+1)N + 1 is even and the half
    grid ends at the middle point g/2, counted once."""
    a = np.random.default_rng(20240817).normal(size=((n + 1) // 2,) * 2)
    system = _Galerkin(p, dom, n)
    r_full, j_full = _full_grid_operator(p, dom, n, a)
    r = system.residual(a)[0]
    assert np.max(np.abs(r - r_full)) <= 1e-12 * np.max(np.abs(r_full))
    j = dense_jacobian(system, a)
    assert np.max(np.abs(j - j_full)) <= 1e-12 * np.max(np.abs(j_full))


@pytest.mark.parametrize("p,n", [(2, 7), (3, 7), (4, 12), (5, 12)])
def test_transforms_sample_half_the_grid(p, n):
    """Both transforms have ceil((g-1)/2) rows, g = (p+1)N + 1, for the
    g - 1 points of the full grid."""
    g = (p + 1) * n + 1
    system = _Galerkin(p, SQ, n)
    for x in system.ld + system.f64:
        assert x.shape == (math.ceil((g - 1) / 2), (n + 1) // 2)


def _odd_odd_center(rng, dom: DomainRect, n: int) -> SineSeries2D:
    """A random N x N center with zero even modes."""
    a = np.zeros((n, n))
    a[::2, ::2] = rng.normal(size=((n + 1) // 2,) * 2) * 2.0
    return SineSeries2D(dom, a)


def _jacobian_fd_error(p: int, dom: DomainRect) -> float:
    """Relative error of galerkin_jacobian against central finite
    differences (step 1e-7) of Newton's own residual map,
    _Galerkin(p, dom, N).residual, at a random odd-odd center, N = 7."""
    rng = np.random.default_rng(20240817)
    u = _odd_odd_center(rng, dom, 7)
    a = u.coeffs.mid()[::2, ::2]
    jac = galerkin_jacobian(u, p)
    system = _Galerkin(p, dom, 7)
    assert jac.shape == (a.size, a.size) == (16, 16)
    h = 1e-7
    fd = np.empty_like(jac)
    for k in range(a.size):
        e = np.zeros(a.shape)
        e.flat[k] = h
        rp = system.residual(a + e)[0].astype(np.float64)
        rm = system.residual(a - e)[0].astype(np.float64)
        fd[:, k] = ((rp - rm) / (2.0 * h)).reshape(-1)
    return np.max(np.abs(jac - fd)) / np.max(np.abs(jac))


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_jacobian_matches_finite_differences(p):
    """Relative error below 1e-6 on the unit square.  For even p both test
    u^p against the sine modes through the same cosine projector (a
    discrete sine transform on the Jacobian's test side misses by ~5e-5)."""
    assert _jacobian_fd_error(p, SQ) < 1e-6


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_rectangle_jacobian_matches_finite_differences(p):
    """Relative error below 1e-6 on 2 x 1, where one side-free cosine
    projector serves both sides for even p."""
    assert _jacobian_fd_error(p, DomainRect(2.0, 1.0)) < 1e-6


def test_galerkin_helpers_use_newtons_system(monkeypatch):
    """galerkin_residual of the returned center is Newton's final residual,
    bitwise, and at p=3 N=88 it raises no CapacityError (all 88^2 modes
    would be 7744 rows, above MAX_DENSE_ROWS); galerkin_jacobian at p=2
    N=72 has Newton's 36^2 = 1296 rows."""
    norms = []
    residual = _Galerkin.residual

    def recording(self, a):
        out = residual(self, a)
        norms.append(out[1])
        return out

    monkeypatch.setattr(_Galerkin, "residual", recording)
    u = newton_solve(SolverConfig(p=3, N=88), initial_guess(3, SQ))
    final = norms[-1]
    assert galerkin_residual(u, 3) == final <= 1e-13
    u72 = SineSeries2D(SQ, np.zeros((72, 72)))
    assert galerkin_jacobian(u72, 2).shape == (1296, 1296)


@pytest.mark.parametrize("coeffs", [np.ones((3, 5)), np.eye(4)],
                         ids=["non-square", "even-mode"])
def test_galerkin_helpers_reject_non_centers(coeffs):
    u = SineSeries2D(SQ, coeffs)
    with pytest.raises(DomainError):
        galerkin_residual(u, 3)
    with pytest.raises(DomainError):
        galerkin_jacobian(u, 3)


def test_newton_converges_and_residual_decreases():
    guess = initial_guess(3, SQ)
    r0 = galerkin_residual(guess, 3)
    u = newton_solve(SolverConfig(p=3, N=8), guess)
    r1 = galerkin_residual(u, 3)
    assert r1 <= 1e-13
    assert r1 < r0 or r0 <= 1e-13


def test_newton_solution_matches_session_fixture(u_p3_n10):
    assert galerkin_residual(u_p3_n10, 3) <= 1e-12
    # dominant mode amplitude is stable across truncations
    u8 = newton_solve(SolverConfig(p=3, N=8), initial_guess(3, SQ))
    assert abs(u8.coeffs.mid()[0, 0] - u_p3_n10.coeffs.mid()[0, 0]) < 1e-3


@pytest.mark.parametrize("dom", [SQ, DomainRect(2.0, 1.0)], ids=["1x1", "2x1"])
def test_symmetry_reduction_gives_odd_modes_only(dom):
    mid = newton_solve(SolverConfig(p=3, N=10), initial_guess(3, dom)).coeffs.mid()
    even = np.arange(1, 11) % 2 == 0
    assert np.all(mid[even, :] == 0.0)
    assert np.all(mid[:, even] == 0.0)
    assert mid[0, 0] > 1.0


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_square_solution_is_exactly_transpose_symmetric(p):
    """On a square the solver keeps every iterate symmetric about the
    diagonal, so the center it returns is bitwise transpose-symmetric (as
    the certifier requires); on 2 x 1 (p=3) it is not symmetric at all."""
    c = newton_solve(SolverConfig(p=p, N=12), initial_guess(p, SQ)).coeffs
    assert np.array_equal(c.lo, c.lo.T) and np.array_equal(c.hi, c.hi.T)
    assert np.any(c.mid()[0, 1:] != 0.0)
    wide = newton_solve(SolverConfig(p=3, N=6), initial_guess(3, DomainRect(2.0, 1.0)))
    assert not np.allclose(wide.coeffs.mid(), wide.coeffs.mid().T)


def test_rectangle_domain_solves():
    dom = DomainRect(2.0, 1.0)
    u = newton_solve(SolverConfig(p=3, N=6), initial_guess(3, dom))
    assert galerkin_residual(u, 3) <= 1e-12
    assert u.domain == dom


def test_solve_lives_on_the_reference_rectangle():
    """The guess and Newton's center lie on the reference rectangle R of the
    rectangle asked for, the unit square for 4 x 4; a guess on a rectangle
    that is not its own reference rectangle is a DomainError."""
    guess = initial_guess(3, DomainRect(4.0, 4.0))
    assert guess.domain == SQ
    assert np.array_equal(guess.coeffs.mid(), initial_guess(3, SQ).coeffs.mid())
    assert newton_solve(SolverConfig(p=3, N=6), guess).domain == SQ
    with pytest.raises(DomainError, match="not on its own reference rectangle"):
        newton_solve(SolverConfig(p=3, N=6), SineSeries2D(DomainRect(4.0, 4.0), np.ones((1, 1))))


def test_zero_guess_rejected():
    z = SineSeries2D(SQ, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        newton_solve(SolverConfig(p=3, N=3), z)


def test_even_powers_solve():
    for p in (2, 4):
        u = newton_solve(SolverConfig(p=p, N=6), initial_guess(p, SQ))
        assert galerkin_residual(u, p) <= 1e-12


def _projected_residual(u, p: int, n: int) -> IArray:
    """lambda a - P_N u^p on the first n sine modes per axis, with u^p from
    the rigorous expansion projected by the exact overlaps, as in
    `certify.defect_bounds`."""
    v = power_expand(u, p)
    wx = _axis_overlap(SIN, n, COS, v.coeffs.shape[0], SQ.L1)
    wy = _axis_overlap(SIN, n, COS, v.coeffs.shape[1], SQ.L2)
    four = IArray._coerce(Interval(4.0) / SQ.measure())
    b = imatmul(imatmul(wx, v.coeffs), wy.T) * four
    return u.coeffs * SQ.lambda_grid(u.modes_x(), u.modes_y()) - b


def test_even_p_solution_is_the_galerkin_point():
    """p=2, N=16: u^2 is a cosine series, so its sine coefficients come from
    the exact overlaps, not from a discrete sine sum (which aliases and left
    an H^-1 residual of 4.7e-5).  The exact projected residual
    lambda a - P_N u^2 of the returned center, from the rigorous expansion,
    is below 1e-10 in H^-1."""
    u = newton_solve(SolverConfig(p=2, N=16), initial_guess(2, SQ))
    r = _projected_residual(u, 2, 16)
    lam = SQ.lambda_grid(u.modes_x(), u.modes_y())
    hm1_sq = isum(r.square() / lam) * SQ.measure() * Interval(0.25)
    assert math.sqrt(hm1_sq.hi) <= 1e-10


@pytest.mark.parametrize("p,n", [(2, 40), (4, 20)])
def test_even_p_projection_stays_exact(p, n):
    """The solver's even-p projection of u^p onto the first N sine modes is
    exact: the coefficient 2-norm of lambda a - P_N u^p at the returned
    center is at Newton's tolerance (2.3e-13 at p=2 N=40, 4.7e-14 at p=4
    N=20); a discrete sine sum, which aliases, leaves 3.1e-4 and 3.2e-9."""
    u = newton_solve(SolverConfig(p=p, N=n), initial_guess(p, SQ))
    assert np.linalg.norm(_projected_residual(u, p, n).mid()) <= 1e-12


def _lambda_a_norm(system: _Galerkin, a: np.ndarray) -> float:
    """||lambda a||, the scale of Newton's relative stop."""
    return math.sqrt(np.sum(np.square(system.lam64 * a)))


@pytest.mark.parametrize("p,n,dom", [(2, 40, SQ), (3, 20, SQ), (4, 16, SQ),
                                     (3, 12, DomainRect(2.0, 1.0))],
                         ids=["c3-N40", "c4-N20", "c5-N16", "2x1-p3-N12"])
def test_newton_steps_without_a_dense_jacobian(monkeypatch, p, n, dom):
    """Newton converges with the dense Jacobian and every LU solve made to
    raise: each step is GMRES on the matrix-free linearization.  Square
    centers stay bitwise transpose-symmetric."""
    def forbidden(*args, **kwargs):
        raise AssertionError("dense Jacobian or LU solve in the Newton loop")

    monkeypatch.setattr(_Galerkin, "jacobian", forbidden, raising=False)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    u = newton_solve(SolverConfig(p=p, N=n), initial_guess(p, dom))
    a = u.coeffs.mid()[::2, ::2]
    assert galerkin_residual(u, p) < NEWTON_RTOL * _lambda_a_norm(_Galerkin(p, dom, n), a)
    c = u.coeffs.mid()
    if dom.is_square():
        assert np.array_equal(c, c.T)


def test_c3_sweep_solve_stays_small():
    """The c3 sweep's three warm-started solves, N = 40, 56, 72, peak below
    8 MiB of traced allocations; the dense 1296-row Jacobian at N = 72 took
    52.7 MiB with its einsum temporaries."""
    tracemalloc.start()
    try:
        u = initial_guess(2, SQ)
        for n in (40, 56, 72):
            u = newton_solve(SolverConfig(p=2, N=n), u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def _dominant(n: int, rng) -> np.ndarray:
    """A nonsymmetric matrix with a diagonal 1..n that dominates its rows."""
    a = rng.uniform(-1.0, 1.0, size=(n, n)) / n
    return a + np.diag(np.arange(1.0, n + 1.0))


@pytest.mark.parametrize("n", [50, 200])
def test_gmres_solves_nonsymmetric_dominant_systems(n):
    rng = np.random.default_rng(20240817)
    a = _dominant(n, rng)
    b = rng.normal(size=n)
    x = _gmres(lambda v: a @ v, b, 1.0 / np.diag(a))
    assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("n", [50, 200])
def test_gmres_happy_breakdown_on_an_eigenvector(n):
    """b = 3 e_1 with A e_1 = 2 e_1: the first Krylov vector spans an
    invariant space, h[1, 0] is exactly 0, and GMRES ends after one product
    with the exact solution 1.5 e_1."""
    a = _dominant(n, np.random.default_rng(20240817))
    a[:, 0] = 0.0
    a[0, 0] = 2.0
    calls = []

    def apply(v):
        calls.append(1)
        return a @ v

    b = np.zeros(n)
    b[0] = 3.0
    x = _gmres(apply, b, 1.0 / np.diag(a))
    assert len(calls) == 1
    assert x[0] == 1.5 and not np.any(x[1:])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_gmres_non_finite_product_is_singular_jacobian(bad):
    a = _dominant(50, np.random.default_rng(20240817))

    def apply(v):
        out = a @ v
        out[7] = bad
        return out

    with pytest.raises(SingularJacobian):
        _gmres(apply, np.ones(50), 1.0 / np.diag(a))


def _lu_newton(p: int, n: int, guess) -> np.ndarray:
    """The odd-odd center of Newton's iteration on the unit square with each
    step solved densely, the dense Jacobian by LU: the reference for the
    matrix-free steps, with the same start, symmetrization, line search and
    stop."""
    system = _Galerkin(p, SQ, n)
    a = np.zeros((system.n, system.n))
    src = guess.coeffs.mid()[::2, ::2][: system.n, : system.n]
    a[: src.shape[0], : src.shape[1]] = src
    a = 0.5 * (a + a.T)
    r, rnorm = system.residual(a)
    for _ in range(MAX_ITER):
        if rnorm < NEWTON_RTOL * _lambda_a_norm(system, a):
            return a
        rhs = -r.astype(np.float64).reshape(-1)
        step = np.linalg.solve(dense_jacobian(system, a), rhs).reshape(a.shape)
        t = 1.0
        while True:
            x = a + t * step
            trial = 0.5 * (x + x.T)
            rt, rtnorm = system.residual(trial)
            if rtnorm < rnorm:
                break
            t *= 0.5
        a, r, rnorm = trial, rt, rtnorm
    raise AssertionError("reference LU Newton did not converge")


@pytest.mark.parametrize("name", ["report_c3", "report_c4", "report_c5"])
def test_last_sweep_center_matches_lu_newton(request, name):
    """The center of each reference sweep's last row, solved matrix-free
    from the previous row's center, agrees with the dense LU Newton from the
    same start to 1e-13 relative in max-norm."""
    report = request.getfixturevalue(name)
    (*_, prev, last) = sorted(report.solutions)
    p = report.config.p
    ref = _lu_newton(p, last, report.solutions[prev])
    got = report.solutions[last].coeffs.mid()[::2, ::2]
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("sides", [(1e-100, 1e100), (1e-60, 1e60), (1.3e154, 2.9e-154)],
                         ids=["1e-100x1e100", "1e-60x1e60", "1.3e154x2.9e-154"])
def test_newton_overflow_ends_the_row_typed(sides):
    """On these thin rectangles the reference rectangle's short side lies in
    [1, 2), so Newton stays in binary64 and the row ends in a typed status
    (today the certifier's CapacityError: no affordable section resolves the
    strip).  A guess whose residual does leave binary64, amplitude 1e150 on
    the unit square, ends the solve in SingularJacobian from the finiteness
    checks: the solve runs under the interval arrays' overflow policy, so
    there is no RuntimeWarning (an error in this suite), whether the
    solve's arguments are passed by position or by name."""
    (row,) = run_pipeline(RunConfig(p=3, domain=DomainRect(*sides), N=[20])).rows
    assert issubclass(getattr(errors, row.status), errors.SobembError)
    huge = SineSeries2D(SQ, np.full((1, 1), 1e150))
    with pytest.raises(SingularJacobian):
        newton_solve(cfg=SolverConfig(p=3, N=20), guess=huge)
    with pytest.raises(SingularJacobian):
        newton_solve(SolverConfig(p=3, N=20), huge)


@pytest.mark.parametrize("domain", [DomainRect(1e-160, 1e160), DomainRect(1e-200, 1e200),
                                    DomainRect(5e-324, 1.0), DomainRect(1.7e308, 1.5)],
                         ids=["1e-160x1e160", "1e-200x1e200", "5e-324x1", "1.7e308x1.5"])
def test_aspect_ratio_beyond_binary64_fails_typed(domain):
    """Scaled to a short side in [1, 2), the first three rectangles have a
    long side beyond binary64, and 1.7e308 x 1.5, its own reference
    rectangle, has an area beyond it: `DomainRect.reference` raises one
    typed DomainError, and so do the initial guess and the solve, before
    any float work and with no RuntimeWarning (an error in this suite)."""
    for fail in (domain.reference, lambda: initial_guess(3, domain),
                 lambda: newton_solve(SolverConfig(p=3, N=6), SineSeries2D(domain, np.ones((1, 1))))):
        with pytest.raises(DomainError, match="too thin for binary64.*leaves binary64"):
            fail()
