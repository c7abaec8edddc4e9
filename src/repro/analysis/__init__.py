"""AST-based invariant linter for the ``repro`` codebase.

``python -m repro.analysis`` (or ``repro lint``) checks the deadline,
exception and locking contracts that no test can catch breaking — see
:mod:`repro.analysis.framework` for the machinery and
:mod:`repro.analysis.rules` for the invariants.
"""

from __future__ import annotations

from .framework import Finding, Project, Rule, run_rules
from .rules import default_rules
from .runner import main, rule_registry

__all__ = [
    "Finding",
    "Project",
    "Rule",
    "default_rules",
    "main",
    "rule_registry",
    "run_rules",
]
