"""Evaluation budgets: wall-clock deadlines and step limits.

A :class:`Budget` bounds how long one evaluation may run.  It is carried on
:class:`~repro.evaluation.context.EvalContext` and checked *cheaply* inside
the hot loops of the stack — the homomorphism backtracking search, the
consistency-kernel worklists, the naive materialisation and both enumeration
streams — via :meth:`Budget.tick`, an amortized check: a countdown counter
is decremented on every call and the (comparatively expensive)
``time.monotonic()`` read only happens when the counter runs out, every
``check_interval`` ticks.  When the deadline has passed or the step budget
is exhausted, ``tick`` raises :class:`~repro.exceptions.DeadlineExceeded`.

Deadlines are stored as *absolute* ``time.monotonic()`` instants, so every
layer sharing one budget (a service request's queue wait, gate wait and
evaluation) counts against the same expiry.

A violated budget is reported one way only: ``DeadlineExceeded`` carrying
the elapsed time and the budget.  A bounded enumeration stream yields its
partial results first and then raises.
"""

from __future__ import annotations

import time
from typing import Optional

from ..exceptions import DeadlineExceeded, EvaluationError

__all__ = ["Budget"]

#: Default number of ``tick()`` calls between real clock reads.
DEFAULT_CHECK_INTERVAL = 256


class Budget:
    """A cooperative evaluation budget.

    Parameters
    ----------
    deadline:
        Wall-clock allowance in **seconds** from now (``None`` = unbounded).
        Stored internally as an absolute ``time.monotonic()`` expiry.
    steps:
        Optional step budget: the total number of ``tick`` units the
        evaluation may consume (``None`` = unbounded).
    check_interval:
        How many ``tick()`` calls to amortize between real clock reads.

    A budget is *shared, mutable* state: every layer holding a reference to
    the same budget sees the same countdown.  The hot loops only ever call
    :meth:`tick`; entry/exit points may call :meth:`check` for an immediate
    verdict.
    """

    __slots__ = (
        "started_at",
        "expires_at",
        "steps_limit",
        "steps_used",
        "_interval",
        "_countdown",
    )

    def __init__(
        self,
        deadline: Optional[float] = None,
        steps: Optional[int] = None,
        check_interval: int = DEFAULT_CHECK_INTERVAL,
    ) -> None:
        if deadline is not None and not deadline >= 0:  # NaN never expires
            raise EvaluationError(f"budget deadline must be >= 0, got {deadline!r}")
        if steps is not None and steps < 0:
            raise EvaluationError(f"budget step limit must be >= 0, got {steps!r}")
        if check_interval < 1:
            raise EvaluationError(
                f"budget check_interval must be >= 1, got {check_interval!r}"
            )
        self.started_at = time.monotonic()
        self.expires_at = None if deadline is None else self.started_at + deadline
        self.steps_limit = steps
        self.steps_used = 0
        self._interval = check_interval
        self._countdown = check_interval

    # --- interrogation ----------------------------------------------------
    def elapsed(self) -> float:
        """Seconds since the budget was created."""
        return time.monotonic() - self.started_at

    def remaining(self) -> Optional[float]:
        """Seconds left before the deadline (``None`` = no deadline)."""
        if self.expires_at is None:
            return None
        return self.expires_at - time.monotonic()

    # --- control ----------------------------------------------------------
    def check(self) -> None:
        """Immediate (non-amortized) bound check; raises on violation."""
        if self.steps_limit is not None and self.steps_used > self.steps_limit:
            raise DeadlineExceeded(
                f"evaluation step budget exhausted "
                f"({self.steps_used} > {self.steps_limit} steps)",
                elapsed=self.elapsed(),
                budget=self,
            )
        if self.expires_at is not None and time.monotonic() >= self.expires_at:
            raise DeadlineExceeded(
                f"evaluation deadline exceeded "
                f"({self.expires_at - self.started_at:.3f}s allowed)",
                elapsed=self.elapsed(),
                budget=self,
            )

    def tick(self, n: int = 1) -> None:
        """Amortized bound check for hot loops.

        Counts *n* steps against the step budget and, every
        ``check_interval`` accumulated ticks, performs the real clock check.
        Cheap enough to call once per backtracking node, worklist pop or
        materialised mapping.
        """
        self.steps_used += n
        self._countdown -= n
        if self._countdown <= 0:
            self._countdown = self._interval
            self.check()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bits = []
        if self.expires_at is not None:
            bits.append(f"deadline={self.expires_at - self.started_at:.3f}s")
        if self.steps_limit is not None:
            bits.append(f"steps={self.steps_used}/{self.steps_limit}")
        return f"Budget({', '.join(bits) or 'unbounded'})"


def budget_from(
    deadline: Optional[float] = None, budget: Optional[Budget] = None
) -> Optional[Budget]:
    """Normalise the ``deadline= / budget=`` convenience pair of the public
    entry points: an explicit :class:`Budget` wins, a bare ``deadline``
    (seconds from now) builds one, neither means unbounded."""
    if budget is not None:
        return budget
    if deadline is not None:
        return Budget(deadline=deadline)
    return None
