"""Reference code that only the tests read, each piece beside the package
code it checks; `sobemb` itself carries only what a certificate runs.

- `dense_jacobian`, `galerkin_residual` and `galerkin_jacobian` check
  Newton's Galerkin system, `solver._Galerkin`: its residual at a center's
  odd-odd coefficients, and the dense matrix of `_Galerkin.linearization`,
  the map that `solver.newton_solve` hands to GMRES without forming it.
- `default_split_order` checks the inverse bound's section,
  `certify._section`: the larger odd order of its box, which
  `CertifiedBall.nprime` reports.  Like every certifier function that
  takes p, it checks p first (`errors.check_exponent`).
- `intersects` checks `intervals.Interval` enclosures against each other:
  two sound enclosures of one number share a point.
- `iv_cos` checks `intervals.iv_sin` at a shifted argument, as a cosine
  axis of `Series2D._basis_1d` shifts it by `intervals.PI_HALF`.
- `eigh_directions`, `point_matrix`, `eigh_block` and `b_matrix` feed
  `symeig.eig_enclosures` matrices that no center gives directions to:
  point matrices, and blocks of `certify._b_matrix` and
  `certify._folded_block` built without the center's direction.  They take
  the float eigenvectors of B~'s negative eigenvalues from np.linalg.eigh,
  B~ the midpoint mirrored from its lower triangle, as `eig_enclosures`
  once did where it was given none.
- `gather_fold` checks `certify._fold` bit for bit: the fold that row-folds
  the whole box into one rep x box buffer and gathers the rep columns from
  it, Fortran-ordered as numpy's column gather returns them.
"""

import numpy as np

from sobemb import certify
from sobemb.errors import check_exponent
from sobemb.intervals import PI_HALF, Interval, iv_sin
from sobemb.ivarray import _checked, _fro_bound, _up
from sobemb.series import Series2D, odd_odd_order
from sobemb.solver import _Galerkin
from sobemb.symeig import SymMatrix, _mirror_lower


def dense_jacobian(system: _Galerkin, a: np.ndarray) -> np.ndarray:
    """Dense matrix of `system.linearization(a)`, column k its image of the
    k-th unit vector (modes (i, j) row-major)."""
    apply = system.linearization(a)
    jac = np.empty((system.rows, system.rows))
    e = np.zeros(system.rows)
    for k in range(system.rows):
        e[k] = 1.0
        jac[:, k] = apply(e)
        e[k] = 0.0
    return jac


def _system_at(u: Series2D, p: int) -> tuple:
    """Newton's system at u's order N, and u's odd-odd coefficients;
    DomainError unless u is square and odd-odd (`odd_odd_order`)."""
    return _Galerkin(p, u.domain, odd_odd_order(u)), u.coeffs.mid()[::2, ::2]


@_checked
def galerkin_residual(u: Series2D, p: int) -> float:
    """Newton's residual l2-norm at u's odd-odd coefficients."""
    system, a = _system_at(u, p)
    return system.residual(a)[1]


@_checked
def galerkin_jacobian(u: Series2D, p: int) -> np.ndarray:
    """Newton's Jacobian at u's odd-odd coefficients (modes (i, j) row-major)."""
    system, a = _system_at(u, p)
    return dense_jacobian(system, a)


def default_split_order(u: Series2D, p: int) -> int:
    """The larger odd order of the box of `inverse_bound`'s section
    (`_section`), the ball's nprime; DomainError for p outside 2..5
    (`check_exponent`) before any work."""
    check_exponent(p)
    return max(certify._section(u, p)[1:3])


def intersects(a: Interval, b: Interval) -> bool:
    return a.lo <= b.hi and b.lo <= a.hi


def iv_cos(a: Interval) -> Interval:
    return iv_sin(a + PI_HALF)


def eigh_directions(mid: np.ndarray) -> np.ndarray:
    """The float eigenvectors, as columns, of the negative eigenvalues of
    B~, mid with its lower triangle mirrored; n x 0 where there are none."""
    lam, vec = np.linalg.eigh(_mirror_lower(np.array(mid, dtype=np.float64)))
    return vec[:, lam < 0.0]


def point_matrix(m) -> SymMatrix:
    """The point family {B~} of m (eps = 0), with `eigh_directions`."""
    m = np.asarray(m, dtype=np.float64)
    return SymMatrix(m, 0.0, eigh_directions(m))


def eigh_block(b: SymMatrix) -> SymMatrix:
    """b, sharing its midpoint, with `eigh_directions` in place of its own."""
    return SymMatrix(b.mid, b.eps, eigh_directions(b.mid))


def b_matrix(f_mid: np.ndarray, f_eps: float, d) -> SymMatrix:
    """`certify._b_matrix` with no paired row, with `eigh_directions`."""
    n = len(f_mid)
    return eigh_block(certify._b_matrix(f_mid, f_eps, d, np.zeros(n, dtype=bool), np.ones(n)))


def gather_fold(rows, m_eps: float, rep: np.ndarray, partner: np.ndarray, n: int) -> tuple:
    """`certify._fold` by way of a len(rep) x n buffer g: each kept row is
    copied (rep) or added (partner) into its orbit's row of g, then f =
    g[:, rep] and the partner columns g[:, partner[pair]] are added to f's
    paired columns."""
    pair = rep != partner
    orbit = np.full(n, -1, dtype=np.intp)
    orbit[partner] = orbit[rep] = np.arange(len(rep))
    second = np.zeros(n, dtype=bool)
    second[partner[pair]] = True
    g, sq, top = np.empty((len(rep), n)), 0.0, 0
    for x in rows:
        o, add = orbit[top:top + len(x)], second[top:top + len(x)]
        top += len(x)
        first = (o >= 0) & ~add
        g[o[first]] = x[first]
        g[o[add]] += x[add]
        sq += float(x.ravel() @ x.ravel())
    f = g[:, rep]
    if not pair.any():
        return f, m_eps
    f[:, pair] += g[:, partner[pair]]
    m_fro = _fro_bound(sq, n * n)
    return f, float(_up((m_eps + 2.0 ** -51 * m_fro) * (1.0 + 2.0 ** -45)))
