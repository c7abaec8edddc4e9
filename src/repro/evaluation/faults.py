"""Deterministic fault injection for the membership pool and the service.

A :class:`FaultPlan` describes, by **task position**, real faults to inject:
SIGKILL the worker that picks up a given chunk, stall before evaluating,
raise inside the task, or mutate the graph mid-run.  The faults are *real*
— an injected kill is ``os.kill(os.getpid(), SIGKILL)`` inside the worker,
a stall is a real ``time.sleep`` — so the recovery paths in
:mod:`~repro.evaluation.session` and :mod:`repro.service` are exercised
exactly as a production fault would exercise them, not through mocks.

A plan is installed through the test-only ``Session(faults=...)`` hook,
where it travels to the workers inside the pool initializer arguments, or
through ``QueryService(faults=...)``, which fires it per request.
Positions make plans deterministic: task ``position`` is the submission
index of the chunk (or of the request), fixed by the caller's input order.

Once-guards (``kill_once=True`` et al.) are shared
:class:`multiprocessing.Value` flags **armed in the parent before the pool
is created**, so "kill the first worker that picks up cell 2, let the
retry succeed" is expressible — and with ``kill_once=False`` every retry
dies too, which is how the serial-degradation ladder is tested.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Optional

from ..exceptions import EvaluationError

__all__ = ["FaultPlan", "FaultInjected"]


class FaultInjected(EvaluationError):
    """The exception a ``raise_at`` fault plan raises inside a worker."""


class _OnceGuard:
    """A fire-at-most-once latch, optionally shared across processes.

    Before :meth:`arm` it is process-local (serial paths, direct tests);
    after arming with a multiprocessing context it is a shared ``Value``
    that forked/spawned workers inherit through the pool initargs, so the
    *first* worker reaching the fault point fires and every later one —
    including the retry of the killed task — passes through.
    """

    def __init__(self, enabled: bool) -> None:
        self._enabled = enabled
        self._local_fired = False
        self._shared = None

    def arm(self, ctx) -> None:
        if self._enabled and self._shared is None:
            self._shared = ctx.Value("i", 0)

    def take(self) -> bool:
        """True exactly once when enabled; always True when disabled."""
        if not self._enabled:
            return True
        if self._shared is not None:
            with self._shared.get_lock():
                if self._shared.value:
                    return False
                self._shared.value = 1
                return True
        if self._local_fired:
            return False
        self._local_fired = True
        return True

    def __getstate__(self):
        return {"enabled": self._enabled, "fired": self._local_fired, "shared": self._shared}

    def __setstate__(self, state) -> None:
        self._enabled = state["enabled"]
        self._local_fired = state["fired"]
        self._shared = state["shared"]


class FaultPlan:
    """A deterministic, picklable schedule of injected faults.

    Parameters
    ----------
    kill_at:
        SIGKILL the worker the moment it picks up the task at this
        position.  With ``kill_once=True`` (default) only the first pickup
        dies — the retried task succeeds on a fresh worker; with ``False``
        every retry dies too, forcing the serial-degradation path.
    stall_at / stall_seconds:
        The task at this position sleeps *stall_seconds* before evaluating
        (``stall_once`` bounds it to the first pickup).
    raise_at:
        The task at this position raises :class:`FaultInjected` (after any
        stall or mutation, before a kill).
    mutate_graph_at:
        The task at this position mutates its graph (an add immediately
        undone by a discard — answers unchanged, but the version counter
        moves twice).
    """

    def __init__(
        self,
        kill_at: Optional[int] = None,
        kill_once: bool = True,
        stall_at: Optional[int] = None,
        stall_seconds: float = 1.0,
        stall_once: bool = True,
        raise_at: Optional[int] = None,
        mutate_graph_at: Optional[int] = None,
    ) -> None:
        self.kill_at = kill_at
        self.stall_at = stall_at
        self.stall_seconds = stall_seconds
        self.raise_at = raise_at
        self.mutate_graph_at = mutate_graph_at
        self._kill_guard = _OnceGuard(kill_once)
        self._stall_guard = _OnceGuard(stall_once)
        self._mutate_guard = _OnceGuard(True)

    # --- parent side -------------------------------------------------------
    def arm(self, ctx) -> "FaultPlan":
        """Create the cross-process once-guards (call before pool creation).

        Idempotent; *ctx* is the multiprocessing context the pool will use.
        The shared flags ride to the workers inside the plan itself (pool
        initargs), so fork and spawn start methods both see them.
        """
        self._kill_guard.arm(ctx)
        self._stall_guard.arm(ctx)
        self._mutate_guard.arm(ctx)
        return self

    # --- worker side -------------------------------------------------------
    def fire(self, position: int, graph=None) -> None:
        """Trigger whatever faults this plan schedules at *position*.

        Called by the worker task functions the moment they pick up a task.
        Ordering: stall, then graph mutation, then raise, then kill — so a
        plan can combine a stall with a later kill at another position.
        """
        if self.stall_at is not None and position == self.stall_at:
            if self._stall_guard.take():
                time.sleep(self.stall_seconds)
        if self.mutate_graph_at is not None and position == self.mutate_graph_at:
            if graph is not None and self._mutate_guard.take():
                self._mutate(graph)
        if self.raise_at is not None and position == self.raise_at:
            raise FaultInjected(f"injected worker fault at position {position}")
        if self.kill_at is not None and position == self.kill_at:
            if self._kill_guard.take():
                os.kill(os.getpid(), signal.SIGKILL)

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
        for name in ("kill_at", "stall_at", "raise_at", "mutate_graph_at"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        return f"FaultPlan({', '.join(parts)})"
