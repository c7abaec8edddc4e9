"""Evaluation engines: naive semantics, the natural wdPF algorithm, the
Theorem 1 pebble-relaxation algorithm, and the planned/cached service layer
(plans, contexts, sessions, batching)."""

from .naive import evaluate_pattern, pattern_contains
from .budget import Budget, TimeoutReport
from .context import EvalContext
from .faults import FaultInjected, FaultPlan
from ..exceptions import DeadlineExceeded, WorkerCrashError
from .wdeval import (
    find_mu_subtree,
    tree_contains,
    tree_contains_ctx,
    forest_contains,
    forest_contains_ctx,
    tree_solutions,
    tree_solutions_stream,
    forest_solutions,
    forest_solutions_stream,
    EvaluationStatistics,
)
from .pebble_eval import (
    tree_contains_pebble,
    tree_contains_pebble_ctx,
    forest_contains_pebble,
    forest_contains_pebble_ctx,
)
from .extended import evaluate_extended, extended_pattern_contains
from .cache import CacheStatistics, EvaluationCache
from .plan import (
    CostEstimate,
    CostModel,
    PatternStats,
    Plan,
    Planner,
    Strategy,
    method_names,
    register_strategy,
    strategy_for,
)
from .engine import Engine
from .session import Session
from .batch import BatchEngine, contains_many_patterns, contains_matrix

__all__ = [
    "evaluate_pattern",
    "pattern_contains",
    "Budget",
    "TimeoutReport",
    "DeadlineExceeded",
    "WorkerCrashError",
    "FaultInjected",
    "FaultPlan",
    "EvalContext",
    "find_mu_subtree",
    "tree_contains",
    "tree_contains_ctx",
    "forest_contains",
    "forest_contains_ctx",
    "tree_solutions",
    "tree_solutions_stream",
    "forest_solutions",
    "forest_solutions_stream",
    "EvaluationStatistics",
    "tree_contains_pebble",
    "tree_contains_pebble_ctx",
    "forest_contains_pebble",
    "forest_contains_pebble_ctx",
    "evaluate_extended",
    "extended_pattern_contains",
    "CacheStatistics",
    "EvaluationCache",
    "CostEstimate",
    "CostModel",
    "PatternStats",
    "Plan",
    "Planner",
    "Strategy",
    "method_names",
    "register_strategy",
    "strategy_for",
    "Engine",
    "Session",
    "BatchEngine",
    "contains_many_patterns",
    "contains_matrix",
]
