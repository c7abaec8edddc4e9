"""The project-specific invariant rules, one module per subject area."""

from __future__ import annotations

from typing import List

from ..framework import Rule
from .blocking import HoldWhileBlockingRule
from .budgets import MonotonicRule, TickRule
from .exceptions_rule import ExceptionTaxonomyRule
from .forkstate import ForkStateRule
from .guards import GuardedByRule
from .lockorder import LockOrderRule
from .pickling import PoolPayloadRule
from .versioning import VersionBumpRule
from .yields import YieldUnderLockRule

__all__ = ["default_rules"]


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in reporting order."""
    return [
        VersionBumpRule(),
        PoolPayloadRule(),
        TickRule(),
        MonotonicRule(),
        ExceptionTaxonomyRule(),
        ForkStateRule(),
        GuardedByRule(),
        LockOrderRule(),
        HoldWhileBlockingRule(),
        YieldUnderLockRule(),
    ]
