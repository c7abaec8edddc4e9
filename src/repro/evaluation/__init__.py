"""Evaluation engines: naive semantics, the natural wdPF algorithm, the
Theorem 1 pebble-relaxation algorithm, and the planned/cached service layer
(plans, contexts, sessions)."""

from .naive import evaluate_pattern, pattern_contains
from .budget import Budget
from .context import EvalContext
from .faults import FaultInjected, FaultPlan
from ..exceptions import DeadlineExceeded
from .wdeval import (
    find_mu_subtree,
    tree_contains,
    forest_contains,
    tree_solutions,
    tree_solutions_stream,
    forest_solutions,
    forest_solutions_stream,
)
from .pebble_eval import (
    tree_contains_pebble,
    forest_contains_pebble,
)
from .cache import CacheStatistics, EvaluationCache
from .plan import (
    CostEstimate,
    CostModel,
    PatternStats,
    Plan,
    Planner,
    Strategy,
    method_names,
    strategy_for,
)
from .engine import Engine
from .session import EvaluationStatistics, Session

__all__ = [
    "evaluate_pattern",
    "pattern_contains",
    "Budget",
    "DeadlineExceeded",
    "FaultInjected",
    "FaultPlan",
    "EvalContext",
    "find_mu_subtree",
    "tree_contains",
    "forest_contains",
    "tree_solutions",
    "tree_solutions_stream",
    "forest_solutions",
    "forest_solutions_stream",
    "EvaluationStatistics",
    "tree_contains_pebble",
    "forest_contains_pebble",
    "CacheStatistics",
    "EvaluationCache",
    "CostEstimate",
    "CostModel",
    "PatternStats",
    "Plan",
    "Planner",
    "Strategy",
    "method_names",
    "strategy_for",
    "Engine",
    "Session",
]
