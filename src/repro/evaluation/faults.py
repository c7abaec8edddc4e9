"""Deterministic fault injection for the query service.

A :class:`FaultPlan` describes, by **request position**, real faults to
inject: stall before evaluating, raise inside the request, or mutate the
graph mid-run.  The faults are *real* — a stall is a real ``time.sleep``, a
mutation a real version bump — so the recovery paths in
:mod:`repro.service` are exercised exactly as a production fault would
exercise them, not through mocks.

A plan is installed through the test-only ``QueryService(faults=...)``
hook, which fires it per request.  Positions make plans deterministic: a
request's position is its submission sequence number, so each scheduled
fault fires exactly once.
"""

from __future__ import annotations

import time
from typing import Optional

from ..exceptions import EvaluationError

__all__ = ["FaultPlan", "FaultInjected"]


class FaultInjected(EvaluationError):
    """The exception a ``raise_at`` fault plan raises inside a request."""


class FaultPlan:
    """A deterministic schedule of injected faults.

    Parameters
    ----------
    stall_at / stall_seconds:
        The request at this position sleeps *stall_seconds* before
        evaluating.
    raise_at:
        The request at this position raises :class:`FaultInjected` (after
        any stall or mutation).
    mutate_graph_at:
        The request at this position mutates its graph (an add immediately
        undone by a discard — answers unchanged, but the version counter
        moves twice).
    """

    def __init__(
        self,
        stall_at: Optional[int] = None,
        stall_seconds: float = 1.0,
        raise_at: Optional[int] = None,
        mutate_graph_at: Optional[int] = None,
    ) -> None:
        self.stall_at = stall_at
        self.stall_seconds = stall_seconds
        self.raise_at = raise_at
        self.mutate_graph_at = mutate_graph_at

    def fire(self, position: int, graph=None) -> None:
        """Trigger whatever faults this plan schedules at *position*.

        Called the moment a request is picked up.  Ordering: stall, then
        graph mutation, then raise.
        """
        if position == self.stall_at:
            time.sleep(self.stall_seconds)
        if position == self.mutate_graph_at and graph is not None:
            self._mutate(graph)
        if position == self.raise_at:
            raise FaultInjected(f"injected fault at position {position}")

    @staticmethod
    def _mutate(graph) -> None:
        """Bump the graph's version without changing its triples."""
        from ..rdf.triples import Triple

        probe = Triple.of(
            "urn:repro:fault-probe", "urn:repro:fault-probe", "urn:repro:fault-probe"
        )
        present = probe in graph
        if present:  # pragma: no cover - probe IRI never occurs in real data
            graph.discard(probe)
            graph.add(probe)
        else:
            graph.add(probe)
            graph.discard(probe)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        for name in ("stall_at", "raise_at", "mutate_graph_at"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        return f"FaultPlan({', '.join(parts)})"
