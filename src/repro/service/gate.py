"""A reader/writer gate serializing graph mutations against in-flight queries.

The query service evaluates requests on a pool of threads over **one**
shared :class:`~repro.evaluation.session.Session`.  Queries (membership,
enumeration, explain) only *read* the registered graphs; online updates
*mutate* them — and the whole cache architecture hangs off
``RDFGraph.version``: a mutation mid-query would invalidate cache entries
the query is in the middle of using and could record results under the
wrong version.  :class:`ReadWriteGate` is the concurrency contract that
makes the version counter meaningful under threads:

* any number of **readers** (queries) may hold the gate together;
* a **writer** (update) holds it exclusively — no query observes a graph
  mid-mutation, so every response is pinned to exactly one version;
* writers get priority: once an update is waiting, new readers queue
  behind it, so a steady stream of queries cannot starve mutations.

Acquisition is deadline-aware: both sides accept an optional timeout (the
service derives it from the request's
:class:`~repro.evaluation.budget.Budget`), so a request that cannot get the
gate in time fails with its own deadline instead of hanging a worker
thread.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from ..exceptions import DeadlineExceeded, ServiceError

__all__ = ["ReadWriteGate"]


class ReadWriteGate:
    """Many concurrent readers or one exclusive, prioritized writer."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0  # guarded-by: _cond
        self._writer_active = False  # guarded-by: _cond
        self._writers_waiting = 0  # guarded-by: _cond

    # --- acquisition -------------------------------------------------------
    def acquire_read(self, timeout: Optional[float] = None) -> bool:
        """Enter as a reader; ``False`` when *timeout* elapses first.

        Blocks while a writer holds the gate **or is waiting for it**
        (writer priority).
        """
        with self._cond:
            if not self._cond.wait_for(
                lambda: not self._writer_active and not self._writers_waiting,
                timeout=timeout,
            ):
                return False
            self._readers += 1
            return True

    def release_read(self) -> None:
        with self._cond:
            if self._readers <= 0:
                raise ServiceError("release_read() without a matching acquire_read()")
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self, timeout: Optional[float] = None) -> bool:
        """Enter as the exclusive writer; ``False`` on timeout."""
        with self._cond:
            self._writers_waiting += 1
            try:
                if not self._cond.wait_for(
                    lambda: not self._writer_active and self._readers == 0,
                    timeout=timeout,
                ):
                    return False
                self._writer_active = True
                return True
            finally:
                self._writers_waiting -= 1
                if not self._writer_active:
                    # Timed out: readers blocked on "no writers waiting" may
                    # proceed now that this writer gave up.
                    self._cond.notify_all()

    def release_write(self) -> None:
        with self._cond:
            if not self._writer_active:
                raise ServiceError("release_write() without a matching acquire_write()")
            self._writer_active = False
            self._cond.notify_all()

    # --- context managers --------------------------------------------------
    @contextmanager
    def read(self, budget=None) -> Iterator[None]:
        """``with gate.read(budget):`` — deadline-aware reader section.

        With a *budget*, waits at most its remaining allowance and raises
        :class:`~repro.exceptions.DeadlineExceeded` when the gate could not
        be acquired in time (an update is holding or hogging it).
        """
        if not self.acquire_read(timeout=_allowance(budget)):
            raise DeadlineExceeded(
                "deadline exceeded while waiting for the read gate "
                "(a graph update held the service)",
                elapsed=budget.elapsed() if budget is not None else None,
                budget=budget,
            )
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self, budget=None) -> Iterator[None]:
        """``with gate.write(budget):`` — deadline-aware exclusive section."""
        if not self.acquire_write(timeout=_allowance(budget)):
            raise DeadlineExceeded(
                "deadline exceeded while waiting for the write gate "
                "(queries still in flight)",
                elapsed=budget.elapsed() if budget is not None else None,
                budget=budget,
            )
        try:
            yield
        finally:
            self.release_write()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._cond:
            return (
                f"ReadWriteGate(readers={self._readers}, "
                f"writer={self._writer_active}, waiting={self._writers_waiting})"
            )


def _allowance(budget) -> Optional[float]:
    """A budget's remaining wall-clock allowance as a wait timeout.

    ``None`` (no budget / no deadline) waits indefinitely; an expired
    budget turns into a zero timeout so the acquire fails immediately and
    the caller raises the deadline error.
    """
    if budget is None:
        return None
    remaining = budget.remaining()
    if remaining is None:
        return None
    return max(0.0, remaining)
