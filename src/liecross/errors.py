"""Exception hierarchy.

Every error the library raises deliberately derives from LiecrossError, so
callers (and the CLI exit-code mapping) can tell our failures from Python's.
"""

from __future__ import annotations


class LiecrossError(Exception):
    """Base class for all liecross errors."""


class FieldMismatchError(LiecrossError):
    """Two values from different ground fields were combined."""


class ShapeMismatchError(LiecrossError):
    """Dimensions of vectors, maps or tensors do not line up."""


class EndpointMismatchError(LiecrossError):
    """A categorical composition was attempted on non-matching endpoints."""


class NotAnIdealError(LiecrossError):
    """The claimed ideal is not closed under the ambient bracket.

    `pair` is the offending 1-based basis pair (i, j): bracketing the i-th
    ambient basis vector with the j-th claimed ideal vector leaves the span.
    """

    def __init__(self, pair, value, message=None):
        self.pair = pair
        self.value = value
        super().__init__(message or
                         f"not an ideal: [e_{pair[0]}, v_{pair[1]}] = {value} "
                         "is outside the span of the given vectors")


class NotAbelianError(LiecrossError):
    """An operation required an abelian algebra but got a nonzero bracket."""


class InvalidDerivationError(LiecrossError):
    """A map offered as a derivation violates the derivation law.

    Carries the full validation `report` with the violated basis pair.
    """

    def __init__(self, report):
        self.report = report
        first = report.failures[0] if report.failures else None
        where = f" at {first.indices}" if first is not None else ""
        super().__init__(f"derivation law violated{where}")


class InvariantError(LiecrossError):
    """A derived result broke an invariant the library relies on.

    Valid inputs never raise it; unvalidated ones can, e.g. a crossed module
    that fails an axiom.  Carries the `report` that witnesses the breach.
    """

    def __init__(self, message, report):
        self.report = report
        super().__init__(message)


class FiniteFieldRequiredError(LiecrossError):
    """Exhaustive enumeration was requested over an infinite field."""

    def __init__(self, message="finite field required"):
        super().__init__(message)


class BudgetExceededError(LiecrossError):
    """A candidate space is larger than the configured enumeration budget."""

    def __init__(self, space, budget, what="candidate space"):
        self.space = space
        self.budget = budget
        super().__init__(f"{what} has size {space}, exceeding budget {budget}")


class DocumentError(LiecrossError):
    """A workspace document failed to parse or resolve.

    `path` locates the offending node, e.g. "crossed_modules.X.boundary".
    """

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)
