"""Exception hierarchy.

Two roots, matching the CLI exit codes:

* ``GallocError`` (exit code 1): the input or request is at fault, for
  example a malformed instance, an enumeration that would exceed the
  configured limit, or a gapless-mode computation on an instance whose
  choice functions are not gapless.
* ``InvariantViolation`` (exit code 2): the solver detected a broken
  internal invariant.  These are diagnostics; they should never fire on
  instances whose choice functions satisfy the documented axioms.
"""

from __future__ import annotations


class GallocError(Exception):
    """Base class for user-facing errors (CLI exit code 1)."""


class ValidationError(GallocError):
    """An instance, assignment, or cost file failed validation."""


class LimitError(GallocError):
    """An enumeration guard tripped before the costly work was attempted."""


class GaplessnessError(GallocError):
    """A gapless-only computation was run on a non-gapless instance."""


class InvariantViolation(Exception):
    """An internal invariant failed (CLI exit code 2).

    Raised when a structural fact the algorithms rely on does not hold
    at runtime: the oracle-call budget of the weight search, route-length
    monitors, the stopping events of a maximal weight, and similar.
    Deliberately not a subclass of :class:`GallocError`.
    """
