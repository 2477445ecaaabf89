"""Semantic exception hierarchy and process exit codes.

Two error families matter to callers: `ValidationError` means the raw
inputs never described a legal object (bad integers, non-coprime pairs,
smoothness violations), while `PreconditionError` means the inputs were
well formed but an operation's mathematical precondition failed (product
rays, non-Fano bases, odd bouquet totals, and so on). The CLI maps the
families to distinct exit codes so scripts can tell them apart. A built
metric profile whose certificate fails is not an exception: the CLI still
writes it, and exits with `EXIT_CERTIFICATE`.
"""

from __future__ import annotations

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PRECONDITION = 3
EXIT_MISMATCH = 4
EXIT_CERTIFICATE = 5


class SasconeError(Exception):
    """Base error for this package."""


class ValidationError(SasconeError, ValueError):
    """Raw inputs violate a type contract (exit code 2)."""


class NotCoprimeError(ValidationError):
    """A pair that must be relatively prime is not."""

    def __init__(self, name_a: str, a: int, name_b: str, b: int) -> None:
        super().__init__(f"{name_a}={a} and {name_b}={b} must be relatively prime")


class SmoothnessViolationError(ValidationError):
    """gcd(l2, l1*w1*w2) != 1, so the join quotient is not smooth."""


class InvalidParameterError(ValidationError):
    """A scalar parameter is outside its admissible domain."""


class PreconditionError(SasconeError):
    """A mathematical precondition of an operation failed (exit code 3)."""


class ProductCaseError(PreconditionError):
    """The ray is proportional to w, so the quotient degenerates (n = 0)."""


class OddTotalError(PreconditionError):
    """l1*(w1+w2) is odd; the (k, j, l) labeling is undefined."""


class NotFanoError(PreconditionError):
    """The base manifold is not Fano (c1 coefficient <= 0)."""


class BaseMismatchError(PreconditionError):
    """The base manifold does not match the required projective space."""


class NonpositiveVolumeError(PreconditionError):
    """A volume that must be positive is not."""


class BracketFailureError(PreconditionError):
    """Root solve failed: f has no finite sign change on the bracket, or |f| at the best k exceeds tol."""


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, ValidationError):
        return EXIT_VALIDATION
    if isinstance(exc, PreconditionError):
        return EXIT_PRECONDITION
    return 1
