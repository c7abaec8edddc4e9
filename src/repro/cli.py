"""Command line interface.

A small CLI so that the library can be used without writing Python::

    python -m repro evaluate --graph data.nt --query "((?x knows ?y) OPT (?y email ?e))"
    python -m repro check    --graph data.nt --query QUERY --binding x=alice --binding y=bob
    python -m repro batch    --graph data.nt --query QUERY --bindings-file mappings.txt
    python -m repro batch    --graph data.nt --query QUERY --bindings-file mappings.txt --timeout 5
    python -m repro explain  --query QUERY --width 1
    python -m repro explain  --query QUERY --graph data.nt
    python -m repro classify --query QUERY
    python -m repro validate --query QUERY

Sub-commands
------------
``evaluate``
    Print every solution mapping of the query over the graph (through a
    :class:`~repro.evaluation.session.Session`).
``check``
    Decide ``µ ∈ ⟦P⟧G`` for the mapping given by ``--binding var=iri`` pairs
    (the paper's wdEVAL problem), using the requested engine.
``batch``
    Decide many wdEVAL instances at once through a cached
    :class:`~repro.evaluation.session.Session`.  The bindings file holds
    one candidate mapping per line as whitespace-separated ``var=iri``
    pairs (the empty mapping is written as ``-``; a line starting with
    ``#`` is a comment).  Each verdict is printed as soon as it is decided.
``explain``
    Print the evaluation :class:`~repro.evaluation.plan.Plan` the planner
    resolves for the query — chosen strategy, width bound, certification
    status and rationale — without evaluating anything.  With ``--graph``,
    the plan is resolved **per cell** through the cost model and the
    per-strategy estimates are printed.
``classify``
    Print the width profile (domination width, branch treewidth, local width)
    and the Theorem 3 verdict.
``validate``
    Check well-designedness and report the violation if any.
``lint``
    Run the AST invariant linter; every argument after ``lint`` goes to
    :func:`repro.analysis.runner.main` unparsed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from .evaluation import Engine, Session, method_names
from .rdf.io import load_graph
from .rdf.terms import IRI, Variable
from .sparql.mappings import Mapping
from .sparql.parser import parse_pattern, to_text
from .sparql.well_designed import find_violation
from .width.classify import classify_pattern
from .exceptions import DeadlineExceeded, ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse command line parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Well-designed SPARQL evaluation and tractability analysis "
        "(reproduction of Romero, PODS 2018).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_query_argument(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--query", required=True, help="pattern in the textual syntax")

    evaluate = subparsers.add_parser("evaluate", help="enumerate all solutions")
    evaluate.add_argument("--graph", required=True, help="N-Triples style data file")
    add_query_argument(evaluate)
    evaluate.add_argument(
        "--method",
        choices=["auto", "naive", "natural"],
        default="natural",
        help="enumeration engine ('auto' resolves to natural)",
    )
    evaluate.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; on expiry the solutions found so far are "
        "printed and the exit code is 3",
    )

    check = subparsers.add_parser("check", help="decide membership of a mapping (wdEVAL)")
    check.add_argument("--graph", required=True, help="N-Triples style data file")
    add_query_argument(check)
    check.add_argument(
        "--binding",
        action="append",
        default=[],
        metavar="VAR=IRI",
        help="one binding of the candidate mapping (repeatable)",
    )
    check.add_argument("--method", choices=list(method_names()), default="auto")
    check.add_argument("--width", type=int, default=None, help="width bound for the pebble engine")

    batch = subparsers.add_parser(
        "batch", help="decide many wdEVAL instances at once (cached batch engine)"
    )
    batch.add_argument("--graph", required=True, help="N-Triples style data file")
    add_query_argument(batch)
    batch.add_argument(
        "--bindings-file",
        required=True,
        help=(
            "file with one mapping per line as VAR=IRI pairs "
            "('-' = empty mapping, lines starting with '#' are comments)"
        ),
    )
    batch.add_argument("--method", choices=list(method_names()), default="auto")
    batch.add_argument("--width", type=int, default=None, help="width bound for the pebble engine")
    batch.add_argument(
        "--stats", action="store_true", help="print the plan and cache statistics after the run"
    )
    batch.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for the whole batch; on expiry the verdicts "
        "decided so far are printed and the exit code is 3",
    )

    explain = subparsers.add_parser(
        "explain", help="show the evaluation plan the planner resolves for a query"
    )
    add_query_argument(explain)
    explain.add_argument(
        "--method",
        choices=list(method_names()),
        default="auto",
        help="requested method to resolve (default: auto)",
    )
    explain.add_argument(
        "--width",
        type=int,
        default=None,
        help="declared upper bound on the pattern's domination width",
    )
    explain.add_argument(
        "--compute-width",
        action="store_true",
        help="compute the true domination width first (certifies the bound "
        "and lets 'auto' choose the pebble strategy)",
    )
    explain.add_argument(
        "--graph",
        default=None,
        help="N-Triples style data file: print the cost model's per-strategy "
        "estimates for it and let 'auto' pick per cell",
    )

    classify = subparsers.add_parser("classify", help="width profile and tractability verdict")
    add_query_argument(classify)

    validate = subparsers.add_parser("validate", help="check well-designedness")
    add_query_argument(validate)

    # The linter's own parser reads every argument after `lint` (see main).
    subparsers.add_parser(
        "lint",
        add_help=False,
        help="run the AST invariant linter (same as `python -m repro.analysis`)",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived query service over a line-delimited JSON socket",
    )
    serve.add_argument("graph", help="N-Triples style data file to serve")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=0, help="bind port (0 = pick a free port)"
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        help="worker threads evaluating requests concurrently (default: 4)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="request backlog bound; beyond it requests are rejected with a "
        "typed overload error (default: 64)",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="default per-request deadline in seconds (requests may override)",
    )
    serve.add_argument(
        "--max-requests",
        type=int,
        default=None,
        help="exit after answering this many requests (smoke tests)",
    )

    return parser


def _parse_bindings(raw_bindings: List[str]) -> Mapping:
    bindings: Dict[Variable, IRI] = {}
    for raw in raw_bindings:
        if "=" not in raw:
            raise ReproError(f"invalid --binding {raw!r}: expected VAR=IRI")
        name, value = raw.split("=", 1)
        try:
            bindings[Variable(name)] = IRI(value)
        except ValueError as error:  # empty variable name or IRI
            raise ReproError(f"invalid --binding {raw!r}: {error}") from None
    return Mapping(bindings)


def _command_evaluate(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    session = Session()
    timed_out = False
    try:
        answers = session.solutions(
            parse_pattern(args.query), graph, method=args.method, deadline=args.timeout
        )
    except DeadlineExceeded as error:
        answers = set(error.partial)
        timed_out = True
        elapsed = f" after {error.elapsed:.2f}s" if error.elapsed is not None else ""
        print(f"# deadline exceeded{elapsed}; partial results follow", file=sys.stderr)
    solutions = sorted(answers, key=repr)
    print(f"# {len(solutions)} solution(s)" + (" (partial: timed out)" if timed_out else ""))
    for mapping in solutions:
        rendered = ", ".join(
            f"{var}={value}" for var, value in sorted(mapping.items(), key=lambda kv: kv[0].name)
        )
        print(rendered if rendered else "<empty mapping>")
    return 3 if timed_out else 0


def _command_check(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    engine = Engine(parse_pattern(args.query))
    mu = _parse_bindings(args.binding)
    answer = engine.contains(graph, mu, method=args.method, width=args.width)
    print("IN" if answer else "NOT-IN")
    return 0 if answer else 1


def _load_bindings_file(path: str) -> List[Mapping]:
    """Parse a bindings file: one mapping per line of ``VAR=IRI`` pairs.

    Only whole lines starting with ``#`` are comments (like the graph
    loader); IRIs routinely contain ``#`` fragments, so the character is not
    special elsewhere on a line.
    """
    mappings: List[Mapping] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line == "-":
                mappings.append(Mapping.EMPTY)
                continue
            try:
                mappings.append(_parse_bindings(line.split()))
            except ReproError as error:
                raise ReproError(f"{path}:{line_number}: {error}") from error
    return mappings


def _render_mapping(mu: Mapping) -> str:
    rendered = " ".join(
        f"{var.name}={value.value if hasattr(value, 'value') else value}"
        for var, value in sorted(mu.items(), key=lambda kv: kv[0].name)
    )
    return rendered if rendered else "-"


def _command_batch(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    mappings = _load_bindings_file(args.bindings_file)
    session = Session()
    engine = session.engine(parse_pattern(args.query))
    timed_out = False
    answers = []
    verdicts = session.check_iter(
        engine, graph, mappings, method=args.method, width=args.width, deadline=args.timeout
    )
    try:
        # Each verdict is printed as it is decided, in input order, so a
        # timeout keeps the verdicts decided before it.
        for mu, answer in zip(mappings, verdicts):
            answers.append(answer)
            print(f"{'IN    ' if answer else 'NOT-IN'} {_render_mapping(mu)}", flush=True)
    except DeadlineExceeded as error:
        timed_out = True
        elapsed = f" after {error.elapsed:.2f}s" if error.elapsed is not None else ""
        print(
            f"# deadline exceeded{elapsed}: "
            f"{len(answers)} of {len(mappings)} verdict(s) decided",
            file=sys.stderr,
        )
    positive = sum(answers)
    print(
        f"# {positive} of {len(answers)} mapping(s) are solutions"
        + (" (partial: timed out)" if timed_out else "")
    )
    if args.stats:
        plan = engine.plan(args.method, args.width, graph=graph)
        print(f"# plan: {plan.summary()}")
        stats = session.cache.statistics
        print(f"# cache: {stats.hits} hits, {stats.misses} misses ({stats.hit_rate():.0%} hit rate)")
    return 3 if timed_out else 0


def _command_explain(args: argparse.Namespace) -> int:
    pattern = parse_pattern(args.query)
    engine = Engine(pattern)
    if args.compute_width:
        engine.domination_width()
    graph = load_graph(args.graph) if args.graph is not None else None
    plan = engine.plan(args.method, args.width, graph=graph)
    print(f"query            : {to_text(pattern)}")
    print(plan.explain())
    return 0


def _command_classify(args: argparse.Namespace) -> int:
    pattern = parse_pattern(args.query)
    report = classify_pattern(pattern)
    print(f"query: {to_text(pattern)}")
    print(f"domination width : {report.domination_width}")
    bw = report.branch_treewidth if report.branch_treewidth is not None else "n/a (UNION pattern)"
    print(f"branch treewidth : {bw}")
    print(f"local width      : {report.local_width}")
    print(
        "verdict          : evaluable in PTIME with the existential "
        f"{report.recommended_pebble_width + 1}-pebble algorithm (Theorem 1)"
    )
    return 0


def _command_validate(args: argparse.Namespace) -> int:
    pattern = parse_pattern(args.query)
    violation = find_violation(pattern)
    if violation is None:
        print("well-designed")
        return 0
    print(f"NOT well-designed: {violation.describe()}")
    return 1


def _command_serve(args: argparse.Namespace) -> int:
    # Lazy import: the service layer is server tooling, not query-path code.
    from .service import QueryService, ServiceServer

    graph = load_graph(args.graph)
    service = QueryService(
        graph,
        max_inflight=args.max_inflight,
        max_pending=args.max_pending,
        default_deadline=args.timeout,
    )
    server = ServiceServer(
        service, host=args.host, port=args.port, max_requests=args.max_requests
    )
    host, port = server.address
    print(
        f"# serving {len(graph)} triple(s) on {host}:{port} "
        f"(workers={args.max_inflight}, max_pending={args.max_pending})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.shutdown()
        service.close()
        stats = service.stats()
        print(
            f"# served {stats['completed']} request(s): {stats['ok']} ok, "
            f"{stats['errors']} error(s), {stats['rejected_overload']} rejected, "
            f"{stats['deadline_trips']} deadline trip(s)",
            file=sys.stderr,
        )
    return 0


_COMMANDS = {
    "evaluate": _command_evaluate,
    "check": _command_check,
    "batch": _command_batch,
    "explain": _command_explain,
    "classify": _command_classify,
    "validate": _command_validate,
    "serve": _command_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    # parse_known_args rather than REMAINDER: a subparser's REMAINDER does not
    # capture a leading --option, and `lint` forwards every argument.
    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        # Lazy import: the linter is tooling, not query-path code.
        from .analysis import runner

        return runner.main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
