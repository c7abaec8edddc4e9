"""The invariant linter's core: files, findings, rules, suppressions.

Seven PRs of growth accumulated load-bearing invariants — one version bump
per batch mutation (PR 6), ``id()``-free portable cache keys and picklable
pool payloads (PR 1/3/5), ``Budget.tick()`` in every hot loop and
monotonic-only deadline arithmetic (PR 7) — that previously lived only in
docstrings and after-the-fact regression tests.  This package encodes them
as AST rules so a violation fails CI at review time instead of surfacing as
a production race or poisoned cache.

The moving parts:

* :class:`SourceFile` / :class:`Project` — parsed views of the scanned
  tree.  ``Project.from_directory`` walks the real ``src/repro``;
  ``Project.from_sources`` builds an in-memory project for fixture tests.
* :class:`Rule` — one invariant.  A rule sees the whole project (several
  rules need cross-file context: the exception taxonomy, payload class
  definitions) and yields :class:`Finding` records.
* Suppressions — ``# repro: ignore[RULE-ID]`` on the finding's exact line
  silences that rule there; a comment naming an unknown rule id is itself
  a finding (``RP-SUPPRESS``), so typos cannot silently disable a check.
* Baseline — a checked-in JSON file of grandfathered findings, each with a
  mandatory rationale.  Baselined findings do not fail the run; a baseline
  entry that no longer fires is reported as *stale* so the file shrinks
  monotonically (see :mod:`repro.analysis.runner`).
"""

from __future__ import annotations

import ast
import io
import re
import time
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "SourceFile",
    "Project",
    "Rule",
    "scan_suppressions",
    "run_rules",
    "PARSE_RULE_ID",
    "SUPPRESS_RULE_ID",
]

#: Framework-level rule ids (emitted by the driver itself, not a Rule.run).
PARSE_RULE_ID = "RP-PARSE"
SUPPRESS_RULE_ID = "RP-SUPPRESS"

#: Matches ``repro: ignore[RP-FOO]`` (one or more comma-separated ids)
#: inside a comment token.
_SUPPRESSION = re.compile(r"#\s*repro:\s*ignore\[([^\]]*)\]")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a file and line.

    ``path`` is repo-relative with forward slashes (the format GitHub
    annotations want); ``line`` is 1-based.  The baseline matches on
    :meth:`key`, which deliberately excludes the line number so that
    unrelated edits moving a grandfathered finding do not churn the
    baseline file.
    """

    path: str
    line: int
    rule: str
    message: str

    def key(self) -> Tuple[str, str, str]:
        return (self.rule, self.path, self.message)

    def format_text(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"

    def format_github(self) -> str:
        # GitHub workflow-command syntax: newlines and `::` would split the
        # command, so flatten the message.
        message = self.message.replace("\n", " ").replace("::", ":")
        return f"::error file={self.path},line={self.line},title={self.rule}::{message}"


class SourceFile:
    """A parsed python source file of the scanned project."""

    def __init__(self, relpath: str, source: str) -> None:
        self.relpath = relpath.replace("\\", "/")
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: Optional[ast.Module] = None
        self.parse_error: Optional[Finding] = None
        try:
            self.tree = ast.parse(source, filename=self.relpath)
        except SyntaxError as error:
            self.parse_error = Finding(
                path=self.relpath,
                line=error.lineno or 1,
                rule=PARSE_RULE_ID,
                message=f"file does not parse: {error.msg}",
            )

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SourceFile({self.relpath!r})"


class Project:
    """The set of files one analysis run looks at, parsed once."""

    def __init__(self, files: Sequence[SourceFile]) -> None:
        self.files: List[SourceFile] = sorted(files, key=lambda f: f.relpath)
        self._by_path = {f.relpath: f for f in self.files}

    @classmethod
    def from_directory(cls, directory: Path, root: Optional[Path] = None) -> "Project":
        """Parse every ``*.py`` under *directory*.

        Paths are reported relative to *root* (default: *directory*'s
        parent's parent, i.e. the repo root when scanning ``src/repro``).
        """
        directory = directory.resolve()
        if root is None:
            root = directory.parent.parent
        root = root.resolve()
        files = []
        for path in sorted(directory.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            files.append(SourceFile(rel, path.read_text(encoding="utf-8")))
        return cls(files)

    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "Project":
        """Build an in-memory project (fixture tests) from relpath → source."""
        return cls([SourceFile(relpath, text) for relpath, text in sources.items()])

    def module(self, suffix: str) -> Optional[SourceFile]:
        """The unique file whose relpath ends with *suffix* (if any)."""
        for file in self.files:
            if file.relpath == suffix or file.relpath.endswith("/" + suffix):
                return file
        return None

    def parsed(self) -> Iterator[SourceFile]:
        for file in self.files:
            if file.tree is not None:
                yield file


class Rule:
    """Base class for one invariant.

    Subclasses set :attr:`id` (``RP-*``) and :attr:`title`, and implement
    :meth:`run` over a whole :class:`Project`.  Rules must be pure readers:
    same project in, same findings out.
    """

    id: str = ""
    title: str = ""

    def run(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, file: SourceFile, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=file.relpath,
            line=getattr(node, "lineno", 1),
            rule=self.id,
            message=message,
        )


@dataclass
class Suppressions:
    """Per-project suppression index plus unknown-rule-id findings."""

    #: (relpath, line) -> set of suppressed rule ids on that exact line.
    by_line: Dict[Tuple[str, int], Set[str]] = field(default_factory=dict)
    errors: List[Finding] = field(default_factory=list)

    def covers(self, finding: Finding) -> bool:
        return finding.rule in self.by_line.get((finding.path, finding.line), set())


def _comment_lines(file: SourceFile) -> Iterator[Tuple[int, str]]:
    """(line, text) of every real comment token — docstrings that merely
    *mention* the suppression syntax must not activate it."""
    try:
        tokens = tokenize.generate_tokens(io.StringIO(file.source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return  # unparseable file; reported via the RP-PARSE finding


def scan_suppressions(project: Project, known_rule_ids: Iterable[str]) -> Suppressions:
    """Index every ``# repro: ignore[...]`` comment; flag unknown rule ids."""
    known = set(known_rule_ids) | {PARSE_RULE_ID, SUPPRESS_RULE_ID}
    result = Suppressions()
    for file in project.files:
        for lineno, text in _comment_lines(file):
            match = _SUPPRESSION.search(text)
            if match is None:
                continue
            ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
            for rule_id in sorted(ids):
                if rule_id not in known:
                    result.errors.append(
                        Finding(
                            path=file.relpath,
                            line=lineno,
                            rule=SUPPRESS_RULE_ID,
                            message=f"suppression names unknown rule id {rule_id!r}",
                        )
                    )
            result.by_line.setdefault((file.relpath, lineno), set()).update(ids & known)
    return result


@dataclass
class RunResult:
    """Everything one pass over a project produced."""

    findings: List[Finding]
    suppressed: List[Finding]

    @property
    def clean(self) -> bool:
        return not self.findings


def run_rules(
    project: Project,
    rules: Sequence[Rule],
    timings: Optional[Dict[str, float]] = None,
) -> RunResult:
    """Run *rules* over *project*, applying line-exact suppressions.

    Parse failures and unknown-suppression-id errors surface as findings of
    the framework rules (``RP-PARSE`` / ``RP-SUPPRESS``); those two are not
    suppressible — a broken file or a typo'd suppression must always fail.

    When *timings* is given, each rule's wall time in seconds is recorded
    under its id (monotonic ``perf_counter`` deltas — the CI lint job
    prints them so a pathologically slow interprocedural rule is visible).
    """
    seen_ids: Set[str] = set()
    for rule in rules:
        if not rule.id:
            raise ValueError(f"rule {rule!r} has no id")
        if rule.id in seen_ids:
            raise ValueError(f"duplicate rule id {rule.id!r}")
        seen_ids.add(rule.id)

    suppressions = scan_suppressions(project, seen_ids)
    findings: List[Finding] = list(suppressions.errors)
    suppressed: List[Finding] = []
    for file in project.files:
        if file.parse_error is not None:
            findings.append(file.parse_error)
    for rule in rules:
        started = time.perf_counter()
        for finding in rule.run(project):
            if suppressions.covers(finding):
                suppressed.append(finding)
            else:
                findings.append(finding)
        if timings is not None:
            timings[rule.id] = time.perf_counter() - started
    findings.sort()
    suppressed.sort()
    return RunResult(findings=findings, suppressed=suppressed)


# --- shared AST helpers used by several rules --------------------------------

def qualname_index(tree: ast.Module) -> Dict[str, ast.AST]:
    """Map dotted qualnames (``Class.method``, ``outer.inner``) to def nodes."""
    index: Dict[str, ast.AST] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                index[qual] = child
                visit(child, qual)
            else:
                visit(child, prefix)

    visit(tree, "")
    return index


def own_statements(func: ast.AST) -> Iterator[ast.AST]:
    """Every statement lexically inside *func*, excluding nested defs.

    Nested functions are separate analysis units (``_search_ids.backtrack`` is
    registered on its own), so a rule looking at a function's loops must not
    wander into its inner ``def``/``lambda`` bodies.
    """

    def walk(node: ast.AST) -> Iterator[ast.AST]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            yield child
            yield from walk(child)

    yield from walk(func)


def contains_call_named(node: ast.AST, names: Set[str]) -> bool:
    """Is there a call ``f(...)`` / ``x.f(...)`` with ``f`` in *names*?"""
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            func = child.func
            if isinstance(func, ast.Name) and func.id in names:
                return True
            if isinstance(func, ast.Attribute) and func.attr in names:
                return True
    return False


def attribute_root(node: ast.AST) -> Optional[ast.AST]:
    """The innermost value of an attribute/subscript chain.

    ``self._by_s[x].add`` → the ``self`` Name; used to decide whether a
    mutator call is rooted at an instance storage attribute.
    """
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node


def chain_attributes(node: ast.AST) -> List[str]:
    """Attribute names along a chain, outermost first (skipping subscripts)."""
    names: List[str] = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
        node = node.value
    return names
