"""Experiment harness: result tables, timing helpers and a registry.

The benchmark scripts in ``benchmarks/`` and the command line entry point
``python -m repro.experiments`` both drive the experiment functions defined
in :mod:`repro.experiments.experiments`; this module provides the shared
plumbing: a result container that renders as a text table (the "rows/series
the paper reports"), a timing helper and the experiment registry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

__all__ = [
    "ExperimentResult",
    "time_callable",
    "time_batched_membership",
    "EXPERIMENT_REGISTRY",
    "register_experiment",
    "run_experiment",
]


@dataclass
class ExperimentResult:
    """The outcome of one experiment.

    Attributes
    ----------
    experiment_id:
        Short identifier (``"E1"`` ... ``"E9"``).
    title:
        Human-readable description tying the experiment to the paper artefact.
    claim:
        The paper's claim being checked.
    columns:
        Ordered column names of the result table.
    rows:
        Table rows (one dict per row, keyed by column name).
    notes:
        Free-form remarks (e.g. observed asymptotics).
    """

    experiment_id: str
    title: str
    claim: str
    columns: Sequence[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        """Append a row; values are keyed by column name."""
        self.rows.append(dict(values))

    def add_note(self, note: str) -> None:
        """Append a free-form note."""
        self.notes.append(note)

    def to_text(self) -> str:
        """Render the result as a fixed-width text table."""
        header = f"[{self.experiment_id}] {self.title}"
        claim = f"claim: {self.claim}"
        widths = {
            column: max(
                len(str(column)),
                *(len(_format_cell(row.get(column, ""))) for row in self.rows),
            )
            if self.rows
            else len(str(column))
            for column in self.columns
        }
        lines = [header, claim, ""]
        lines.append(" | ".join(str(c).ljust(widths[c]) for c in self.columns))
        lines.append("-+-".join("-" * widths[c] for c in self.columns))
        for row in self.rows:
            lines.append(
                " | ".join(_format_cell(row.get(c, "")).ljust(widths[c]) for c in self.columns)
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def time_callable(function: Callable[[], object], repeat: int = 1) -> tuple[float, object]:
    """Run *function* ``repeat`` times and return (best wall-clock seconds, last result)."""
    best = float("inf")
    result: object = None
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        result = function()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result


def time_batched_membership(
    forest,
    graph,
    queries: Sequence,
    method: str = "natural",
    width: Optional[int] = None,
    repeat: int = 1,
) -> tuple[float, List[bool]]:
    """Time a whole membership workload through a cached evaluation session.

    Answers every query in *queries* against *graph* in one batched
    :meth:`~repro.evaluation.session.Session.check_many` call (best
    wall-clock over *repeat* runs, like :func:`time_callable`).  A fresh
    :class:`~repro.evaluation.session.Session` — and hence a fresh, cold
    cache — is built inside the timed callable, so every repeat measures the
    full batched evaluation rather than warm-cache lookups.  This is the
    path the experiment drivers use for their timing series.
    """
    from ..evaluation import Session

    def run() -> List[bool]:
        session = Session()
        return session.check_many(forest, graph, queries, method=method, width=width)

    return time_callable(run, repeat)


#: Registry mapping experiment id to a callable returning an ExperimentResult.
EXPERIMENT_REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {}


def register_experiment(experiment_id: str) -> Callable:
    """Decorator registering an experiment function under the given id."""

    def decorator(function: Callable[..., ExperimentResult]) -> Callable[..., ExperimentResult]:
        EXPERIMENT_REGISTRY[experiment_id] = function
        return function

    return decorator


def run_experiment(experiment_id: str, **kwargs: object) -> ExperimentResult:
    """Run a registered experiment by id."""
    if experiment_id not in EXPERIMENT_REGISTRY:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENT_REGISTRY)}"
        )
    return EXPERIMENT_REGISTRY[experiment_id](**kwargs)
