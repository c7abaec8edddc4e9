"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch a single base class.  The more specific subclasses mirror the main
subsystems: RDF data handling, SPARQL parsing / validation, pattern-tree
construction and evaluation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the library."""


class RDFError(ReproError):
    """Raised for malformed RDF data (non-ground triples in a graph, ...)."""


class ParseError(ReproError):
    """Raised when the SPARQL-like textual syntax cannot be parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class NotWellDesignedError(ReproError):
    """Raised when an operation requires a well-designed pattern but the
    supplied pattern violates the well-designedness condition."""

    def __init__(self, message: str, violation: object | None = None) -> None:
        self.violation = violation
        super().__init__(message)


class PatternTreeError(ReproError):
    """Raised for structurally invalid well-designed pattern trees."""


class EvaluationError(ReproError):
    """Raised when an evaluation engine is used incorrectly (for instance a
    mapping whose domain does not match the required distinguished set)."""


class DeadlineExceeded(EvaluationError):
    """Raised when an evaluation crosses its :class:`Budget` bounds.

    Carries whatever progress information the raising layer had at hand:

    * ``elapsed`` — seconds the evaluation ran before tripping;
    * ``partial`` — for enumeration, the solutions already produced before
      the trip (an empty tuple elsewhere);
    * ``budget`` — the violated budget object itself, when known.
    """

    def __init__(
        self,
        message: str,
        elapsed: float | None = None,
        partial: tuple = (),
        budget: object | None = None,
    ) -> None:
        self.elapsed = elapsed
        self.partial = partial
        self.budget = budget
        super().__init__(message)


class ServiceError(ReproError):
    """Raised for failures of the long-lived query service layer
    (:mod:`repro.service`): bad requests, unknown graphs or operations,
    and lifecycle misuse.  The admission-control and lifecycle rejections
    have dedicated subclasses so clients can react in a typed way."""


class ServiceOverloadedError(ServiceError):
    """Typed admission-control rejection of the query service: the request
    backlog is full (``max_pending``) and every worker is busy
    (``max_inflight``), so instead of queueing forever the service rejects
    immediately.  Carries the observed backlog so clients can back off."""

    def __init__(self, message: str, pending: int = 0, max_pending: int = 0) -> None:
        self.pending = pending
        self.max_pending = max_pending
        super().__init__(message)


class ServiceClosedError(ServiceError):
    """Raised when a request is submitted to a closed (or closing)
    :class:`~repro.service.QueryService`, and used as the typed error of
    responses drained during shutdown."""


class ProtocolError(ServiceError):
    """Raised for malformed line-delimited JSON protocol messages: bad
    JSON, missing/unknown fields, oversized lines, wrong value shapes."""


class WidthComputationError(ReproError):
    """Raised when a width measure cannot be computed for the given input."""


class ReductionError(ReproError):
    """Raised when the hardness-reduction machinery receives inputs it cannot
    handle (for instance no grid minor map can be found)."""


def error_class(name: object) -> type[ReproError]:
    """The :class:`ReproError` subclass called *name*, else :class:`ServiceError`.

    This is how a service response's ``error_type`` re-raises as its library
    exception, in process and over the wire alike.
    """
    kind = globals().get(name) if isinstance(name, str) else None
    if isinstance(kind, type) and issubclass(kind, ReproError):
        return kind
    return ServiceError
