"""RP-PICKLE: pool payload classes must be explicitly picklable (PR 3/5).

The membership-pool worker functions in ``evaluation/session.py``
(``_init_worker`` and ``_worker_contains_chunk``) are the process-pool
boundary: everything their signatures name travels through
``multiprocessing`` pickling on the spawn paths.  A payload class
must therefore define ``__reduce__`` / ``__reduce_ex__`` / ``__getstate__``
(or be a dataclass / NamedTuple, whose default pickling is structural), or
be registered below with a rationale for why pickling never happens.

``GraphPattern`` is singled out: the picklable normal form that crosses
the boundary is :class:`~repro.patterns.forest.WDPatternForest`; a raw
``GraphPattern`` in a worker signature or body is a design regression even
if it happens to pickle.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, Optional, Set

from ..framework import Finding, Project, Rule, SourceFile

__all__ = ["PoolPayloadRule", "WORKER_NAME"]

#: Module-level functions that run on (or initialize) pool workers.
WORKER_NAME = re.compile(r"^(_init_worker|_worker_contains_chunk)$")

#: Files whose worker signatures define the pool boundary.
_BOUNDARY_FILES = ("evaluation/session.py",)

#: Annotation names that are not payload classes.
_NON_PAYLOAD = {
    "int",
    "float",
    "str",
    "bool",
    "bytes",
    "object",
    "None",
    "type",
    "Optional",
    "Union",
    "List",
    "Tuple",
    "Dict",
    "Set",
    "FrozenSet",
    "Sequence",
    "Iterable",
    "Iterator",
    "Callable",
    "Any",
}

#: Classes allowed across the boundary without pickle hooks, with the
#: reason they never actually pickle (none today).
PICKLE_SAFE: Dict[str, str] = {}

_PICKLE_HOOKS = {"__reduce__", "__reduce_ex__", "__getstate__"}


def _annotation_names(node: Optional[ast.AST], module: SourceFile) -> Iterator[ast.AST]:
    """Terminal class-name nodes of an annotation, unwrapping typing forms."""
    if node is None:
        return
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: parse and recurse ("Session", "Optional[X]").
        try:
            parsed = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return
        for name in _annotation_names(parsed, module):
            # Preserve the original position for reporting.
            ast.copy_location(name, node)
            yield name
        return
    if isinstance(node, ast.Subscript):
        yield from _annotation_names(node.slice, module)
        return
    if isinstance(node, ast.Tuple):
        for element in node.elts:
            yield from _annotation_names(element, module)
        return
    if isinstance(node, (ast.Name, ast.Attribute)):
        yield node


def _terminal_name(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _typing_imports(module: SourceFile) -> Set[str]:
    """Names imported from ``typing`` in *module* (skipped as payloads)."""
    names: Set[str] = set()
    if module.tree is None:
        return names
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("typing"):
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


def _class_index(project: Project) -> Dict[str, ast.ClassDef]:
    index: Dict[str, ast.ClassDef] = {}
    for file in project.parsed():
        for node in ast.walk(file.tree):
            if isinstance(node, ast.ClassDef):
                index.setdefault(node.name, node)
    return index


def _is_picklable(cls: ast.ClassDef) -> bool:
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if item.name in _PICKLE_HOOKS:
                return True
    for decorator in cls.decorator_list:
        name = _terminal_name(decorator.func if isinstance(decorator, ast.Call) else decorator)
        if name == "dataclass":
            return True
    for base in cls.bases:
        if _terminal_name(base) in {"NamedTuple", "tuple"}:
            return True
    return False


class PoolPayloadRule(Rule):
    id = "RP-PICKLE"
    title = "pool payload classes define pickle hooks or are registered safe"

    def run(self, project: Project) -> Iterator[Finding]:
        classes = _class_index(project)
        for suffix in _BOUNDARY_FILES:
            module = project.module(suffix)
            if module is None or module.tree is None:
                continue
            typing_names = _typing_imports(module)
            for node in module.tree.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                if not WORKER_NAME.match(node.name):
                    continue
                yield from self._check_worker(module, node, classes, typing_names)

    def _check_worker(
        self,
        module: SourceFile,
        func: ast.FunctionDef,
        classes: Dict[str, ast.ClassDef],
        typing_names: Set[str],
    ) -> Iterator[Finding]:
        args = list(func.args.args) + list(func.args.kwonlyargs)
        seen: Set[str] = set()
        for arg in args:
            for name_node in _annotation_names(arg.annotation, module):
                name = _terminal_name(name_node)
                if not name or name in _NON_PAYLOAD or name in typing_names:
                    continue
                if name == "GraphPattern":
                    yield Finding(
                        path=module.relpath,
                        line=name_node.lineno,
                        rule=self.id,
                        message=f"worker {func.name}() takes a GraphPattern across "
                        "the pool boundary; ship the WDPatternForest normal form",
                    )
                    continue
                if name in seen:
                    continue
                seen.add(name)
                cls = classes.get(name)
                if cls is None:
                    continue  # not resolvable in this tree (stdlib etc.)
                if _is_picklable(cls):
                    continue
                if name in PICKLE_SAFE:
                    continue
                yield Finding(
                    path=module.relpath,
                    line=name_node.lineno,
                    rule=self.id,
                    message=f"worker {func.name}() payload class {name} defines no "
                    "__reduce__/__getstate__ and is not registered pickle-safe",
                )
        # A GraphPattern referenced in the body is the same boundary leak.
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and node.id == "GraphPattern":
                yield Finding(
                    path=module.relpath,
                    line=node.lineno,
                    rule=self.id,
                    message=f"worker {func.name}() references GraphPattern; only "
                    "the WDPatternForest normal form may cross the pool boundary",
                )
