"""Tractability classification of well-designed queries and query classes.

This is the user-facing wrapper around the paper's Theorem 3: given a query
(or a parametrised family of queries), compute the width measures and report
on which side of the tractability frontier it falls, together with the width
bound to hand to the Theorem 1 evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

from .branch import branch_treewidth
from .domination import domination_width
from .local import local_width_of_forest
from ..patterns.build import wdpf
from ..patterns.forest import WDPatternForest
from ..patterns.tree import WDPatternTree
from ..sparql.algebra import GraphPattern

__all__ = ["TractabilityReport", "classify_pattern", "classify_forest", "classify_family"]


@dataclass(frozen=True)
class TractabilityReport:
    """The width profile of a single query.

    Attributes
    ----------
    domination_width:
        ``dw(P)`` — the measure that characterises tractability (Theorem 3).
    branch_treewidth:
        ``bw(P)`` for UNION-free queries (equal to ``dw`` by Proposition 5),
        ``None`` otherwise.
    local_width:
        The local-tractability measure of Letelier et al.
    locally_tractable_at:
        The smallest bound under which the query is locally tractable
        (= ``local_width``); kept explicit for readability of reports.
    """

    domination_width: int
    branch_treewidth: Optional[int]
    local_width: int

    @property
    def recommended_pebble_width(self) -> int:
        """The width bound to pass to the Theorem 1 evaluator
        (``forest_contains_pebble``, or ``width=`` on an engine call)."""
        return self.domination_width

    def summary(self) -> str:
        """One-line human-readable summary."""
        parts = [f"dw={self.domination_width}"]
        if self.branch_treewidth is not None:
            parts.append(f"bw={self.branch_treewidth}")
        parts.append(f"local={self.local_width}")
        return ", ".join(parts)


def classify_forest(forest: WDPatternForest) -> TractabilityReport:
    """Width profile of a pattern forest."""
    bw: Optional[int] = None
    if len(forest) == 1:
        bw = branch_treewidth(forest[0])
    return TractabilityReport(
        domination_width=domination_width(forest),
        branch_treewidth=bw,
        local_width=local_width_of_forest(forest),
    )


def classify_pattern(pattern: GraphPattern) -> TractabilityReport:
    """Width profile of a well-designed graph pattern."""
    return classify_forest(wdpf(pattern))


@dataclass(frozen=True)
class FamilyClassification:
    """Classification of a parametrised class ``C = {P_k | k ∈ ks}``.

    ``bounded`` is the empirical verdict over the sampled parameters: the
    class is reported as bounded when the domination width does not grow over
    the sample.  (For a genuinely infinite class this is of course only
    evidence, not a proof — the paper's measure is about the supremum.)
    """

    parameters: Sequence[int]
    reports: Sequence[TractabilityReport]
    bounded: bool
    width_bound: Optional[int]

    def table(self) -> str:
        """Render the per-parameter profile as a small text table."""
        lines = ["  k | dw | bw | local"]
        for k, report in zip(self.parameters, self.reports):
            bw = report.branch_treewidth if report.branch_treewidth is not None else "-"
            lines.append(f"{k:>3} | {report.domination_width:>2} | {bw:>2} | {report.local_width:>5}")
        verdict = (
            f"bounded domination width (<= {self.width_bound}): PTIME by Theorem 1"
            if self.bounded
            else "domination width grows: not PTIME unless FPT = W[1] (Theorem 2)"
        )
        lines.append(verdict)
        return "\n".join(lines)


def classify_family(
    family: Callable[[int], "WDPatternForest | WDPatternTree | GraphPattern"],
    parameters: Iterable[int],
) -> FamilyClassification:
    """Classify a parametrised family of queries (e.g. the paper's ``F_k``)."""
    parameters = list(parameters)
    reports: List[TractabilityReport] = []
    for k in parameters:
        member = family(k)
        if isinstance(member, WDPatternForest):
            reports.append(classify_forest(member))
        elif isinstance(member, WDPatternTree):
            reports.append(classify_forest(WDPatternForest([member])))
        else:
            reports.append(classify_pattern(member))
    widths = [report.domination_width for report in reports]
    bounded = len(set(widths)) <= 1
    return FamilyClassification(
        parameters=parameters,
        reports=reports,
        bounded=bounded,
        width_bound=max(widths) if bounded and widths else None,
    )
