"""Exception hierarchy for rigorous computations.

Every failure mode is loud: an enclosure that cannot be produced raises,
it is never silently widened to an infinite or invalid interval.  A ball
not proved positive is a result, not an error, until an enclosure is asked of it.
"""


class SobembError(Exception):
    """Base class for all library errors."""


class DomainError(SobembError):
    """Input outside the mathematical domain of an operation."""


class DivisionByZeroInterval(SobembError):
    """Interval division by an interval containing zero."""


class OverflowError_(SobembError):
    """An interval endpoint left the finite binary64 range."""


class CapacityError(SobembError):
    """A series expansion, Newton's Galerkin system or the inverse bound's
    block would exceed its maximum order or rows."""


class NoConvergence(SobembError):
    """Newton iteration did not reach the residual tolerance."""


class SingularJacobian(SobembError):
    """A Newton step failed: a non-finite residual, Jacobian-vector product
    or step, or a Krylov breakdown of its GMRES."""


class NotInvertible(SobembError):
    """Rigorous lower bound on the linearization's smallest singular value is <= 0."""


class ConditionFailure(SobembError):
    """Newton-Kantorovich condition 2 K^2 delta g < 1 violated."""


class CertificateMissing(SobembError):
    """Enclosure requested without a verified positiveness certificate."""


class SoundnessViolation(SobembError):
    """Cross-check failed: a rigorous lower bound exceeded a rigorous upper bound."""


def check_exponent(p) -> None:
    """DomainError unless p is an int (not a bool) in 2..5, the exponents of
    -Lap u = u^p that the solver and the certifier support."""
    if type(p) is not int or p not in (2, 3, 4, 5):
        raise DomainError(f"exponent p must be an int in 2..5, got {p!r}")
