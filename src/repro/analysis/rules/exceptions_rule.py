"""RP-EXC: every ``raise`` uses the project exception taxonomy.

Callers catch :class:`~repro.exceptions.ReproError` (and its
``EvaluationError`` / ``DeadlineExceeded`` branches) at well-defined
recovery points — the service's request handler, the CLI, the streaming
drains.  A ``raise RuntimeError`` deep in an evaluation path sails straight
past all of them, so every raise must use a taxonomy class or one of the
stdlib types the codebase deliberately lets escape (programming errors such as
``TypeError`` / ``ValueError`` on bad arguments, protocol types such as
``StopIteration`` / ``SystemExit``).

The taxonomy is discovered, not hardcoded: every class defined in an
``exceptions.py`` module is a seed, and any class in the tree that
(transitively) inherits from a taxonomy name joins it — which is how
``FaultInjected(EvaluationError)`` in ``evaluation/faults.py`` qualifies.
Bare re-raises and ``raise err`` of a variable are skipped (the original
classification already happened at the original raise site).
"""

from __future__ import annotations

import ast
import builtins
from typing import Dict, Iterator, Set

from ..framework import Finding, Project, Rule

__all__ = ["ExceptionTaxonomyRule", "STDLIB_WHITELIST"]

#: Stdlib exception types allowed outside the taxonomy.
STDLIB_WHITELIST = {
    "TypeError",
    "ValueError",
    "KeyError",
    "IndexError",
    "AttributeError",
    "NotImplementedError",
    "StopIteration",
    "SystemExit",
    "AssertionError",
}

_BUILTIN_EXCEPTIONS = {
    name
    for name in dir(builtins)
    if isinstance(getattr(builtins, name), type)
    and issubclass(getattr(builtins, name), BaseException)
}


def _terminal_name(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _taxonomy(project: Project) -> Set[str]:
    """Class names rooted in an ``exceptions.py`` module, closed over bases."""
    taxonomy: Set[str] = set()
    bases: Dict[str, Set[str]] = {}
    for file in project.parsed():
        is_seed_module = file.relpath.endswith("exceptions.py")
        for node in ast.walk(file.tree):
            if isinstance(node, ast.ClassDef):
                base_names = {_terminal_name(base) for base in node.bases}
                bases.setdefault(node.name, set()).update(base_names)
                if is_seed_module and (
                    base_names & ({"Exception", "BaseException"} | taxonomy)
                    or node.name == "ReproError"
                ):
                    taxonomy.add(node.name)
    changed = True
    while changed:
        changed = False
        for name, base_names in bases.items():
            if name not in taxonomy and base_names & taxonomy:
                taxonomy.add(name)
                changed = True
    return taxonomy


class ExceptionTaxonomyRule(Rule):
    id = "RP-EXC"
    title = "raises use the ReproError taxonomy or whitelisted stdlib types"

    def run(self, project: Project) -> Iterator[Finding]:
        taxonomy = _taxonomy(project)
        defined: Set[str] = set()
        for file in project.parsed():
            for node in ast.walk(file.tree):
                if isinstance(node, ast.ClassDef):
                    defined.add(node.name)
        allowed = taxonomy | STDLIB_WHITELIST
        for file in project.parsed():
            for node in ast.walk(file.tree):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                exc = node.exc
                target = exc.func if isinstance(exc, ast.Call) else exc
                name = _terminal_name(target)
                if not name or name in allowed:
                    continue
                if name in _BUILTIN_EXCEPTIONS:
                    yield Finding(
                        path=file.relpath,
                        line=node.lineno,
                        rule=self.id,
                        message=f"raise {name}: outside the ReproError taxonomy "
                        "and not a whitelisted stdlib type; recovery points "
                        "(service handler, CLI, drains) will not catch it",
                    )
                elif name in defined:
                    yield Finding(
                        path=file.relpath,
                        line=node.lineno,
                        rule=self.id,
                        message=f"raise {name}: project exception class outside "
                        "the ReproError taxonomy; derive it from ReproError",
                    )
                # Anything else is an unresolvable variable / imported name —
                # the classification happened (or is checked) elsewhere.
