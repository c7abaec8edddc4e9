"""CLI driver: scan ``<root>/src/repro``, report, set the exit code.

Exit codes: 0 — clean (suppressed findings allowed); 1 — findings;
2 — usage errors (no ``src/repro`` under the root).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .framework import (
    PARSE_RULE_ID,
    SUPPRESS_RULE_ID,
    Finding,
    Project,
    run_rules,
)
from .rules import default_rules

__all__ = ["main", "build_parser", "rule_registry"]

#: Rule ids owned by the framework itself (no Rule instance behind them).
FRAMEWORK_RULE_IDS: Dict[str, str] = {
    PARSE_RULE_ID: "every scanned file parses",
    SUPPRESS_RULE_ID: "suppression comments name known rule ids",
}


def rule_registry() -> Dict[str, str]:
    """Every rule id the linter can emit → its one-line invariant."""
    registry = {rule.id: rule.title for rule in default_rules()}
    registry.update(FRAMEWORK_RULE_IDS)
    return registry


def find_repo_root(start: Path) -> Optional[Path]:
    """The nearest ancestor (including *start*) containing ``src/repro``."""
    for candidate in [start, *start.parents]:
        if (candidate / "src" / "repro").is_dir():
            return candidate
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST invariant linter for the repro codebase "
        "(deadline, exception and locking contracts).  Scans "
        "<root>/src/repro in full.",
    )
    parser.add_argument(
        "--root",
        help="repo root: the directory holding src/repro, and the base of "
        "reported paths (default: auto-detected from the working directory)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        help="finding output format (github = workflow-command annotations)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id and its invariant, then exit",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="print per-rule wall time to stderr (the CI lint job sets "
        "this so a pathologically slow rule is visible in the logs)",
    )
    return parser


def _emit(findings: List[Finding], fmt: str, stream) -> None:
    for finding in findings:
        line = finding.format_github() if fmt == "github" else finding.format_text()
        print(line, file=stream)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule_id, title in sorted(rule_registry().items()):
            print(f"{rule_id}: {title}")
        return 0

    root = Path(args.root).resolve() if args.root else find_repo_root(Path.cwd())
    if root is None:
        print("error: could not locate a repo root (no src/repro found); "
              "pass --root", file=sys.stderr)
        return 2
    directory = root / "src" / "repro"
    if not directory.is_dir():
        print(f"error: not a directory: {directory}", file=sys.stderr)
        return 2
    project = Project.from_directory(directory, root=root)

    timings: Optional[Dict[str, float]] = {} if args.timings else None
    result = run_rules(project, default_rules(), timings=timings)

    _emit(result.findings, args.format, sys.stdout)
    if timings is not None:
        for rule_id, seconds in sorted(
            timings.items(), key=lambda item: item[1], reverse=True
        ):
            print(f"timing: {rule_id}: {seconds * 1000.0:.1f} ms", file=sys.stderr)
    print(
        f"{len(project.files)} files scanned: {len(result.findings)} finding(s), "
        f"{len(result.suppressed)} suppressed",
        file=sys.stderr,
    )
    return 1 if result.findings else 0
