"""Documentation stays true: links resolve, python snippets execute.

This drives the same checks as ``scripts/check_docs.py`` (the CI doc-check
step), so a broken doc link or a rotted README/docs code example fails the
tier-1 suite too.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_docs", ROOT / "scripts" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def test_relative_doc_links_resolve():
    assert check_docs.check_links(ROOT) == []


def test_doc_python_snippets_execute():
    executed, skipped, errors = check_docs.run_snippets(ROOT)
    assert errors == []
    # The docs must keep at least a few *runnable* examples: if every block
    # grows a `...` placeholder this assertion forces one back.
    assert executed >= 3, f"only {executed} runnable snippet(s) ({skipped} skipped)"


def test_analysis_rule_table_matches_registry():
    """docs/analysis.md and the linter's rule registry agree both ways.

    Every rule id the linter can emit has a row in the invariants table
    (first column, backticked), and every documented rule id exists — so
    rule docs cannot drift the way the PR 4 size-accounting claim did.
    """
    import re

    from repro.analysis import rule_registry

    table_ids = set(
        re.findall(
            r"^\|\s*`(RP-[A-Z]+)`",
            (ROOT / "docs" / "analysis.md").read_text(encoding="utf-8"),
            flags=re.MULTILINE,
        )
    )
    registry_ids = set(rule_registry())
    assert table_ids == registry_ids, (
        f"undocumented rules: {sorted(registry_ids - table_ids)}; "
        f"documented but unregistered: {sorted(table_ids - registry_ids)}"
    )


def test_locking_discipline_section_matches_registries():
    """The architecture page's locking section and the linter agree.

    Every ``Class._attr`` token in the "Locking discipline" section must be
    a ``_``-prefixed guarded attribute or its lock in the guard map the
    linter reads from ``# guarded-by:`` comments, or a lock in
    ``LOCK_ORDER``; and every such entry must be documented there — the
    sanctioned lock order and the guarded-by map cannot drift from what
    the linter actually enforces.
    """
    import re

    from repro.analysis.callgraph import project_callgraph
    from repro.analysis.framework import Project
    from repro.analysis.locks import build_guard_map
    from repro.analysis.rules.lockorder import LOCK_ORDER

    text = (ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    match = re.search(r"### Locking discipline\n(.*?)(?:\n### |\Z)", text, re.DOTALL)
    assert match, "docs/architecture.md lost its 'Locking discipline' section"
    doc_tokens = set(re.findall(r"`([A-Za-z]\w*\._\w+)`", match.group(1)))
    graph = project_callgraph(Project.from_directory(ROOT / "src" / "repro"))
    expected = set()
    for (cls, attr), lock in build_guard_map(graph).guarded.items():
        if attr.startswith("_"):
            expected.update((f"{cls}.{attr}", lock.name))
    for outer, inner in LOCK_ORDER:
        expected.update((outer, inner))
    assert doc_tokens == expected, (
        f"documented but not in the linter: {sorted(doc_tokens - expected)}; "
        f"in the linter but undocumented: {sorted(expected - doc_tokens)}"
    )


def test_every_exported_name_resolves():
    """Every name in the ``__all__`` of ``repro`` and of each of its modules
    is bound there, so deleting a function cannot leave a stale export."""
    import importlib
    import pkgutil

    import repro

    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")
    ]
    stale = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert stale == []


def test_memoized_table_lists_the_store_kinds():
    """docs/engines.md's "What is memoized" table and the cache agree.

    Its ``kind`` column names exactly the kinds a session's graph store
    holds after a natural check, an enumeration and a pebble check, plus
    ``index`` for the target index the store keeps beside its entries.
    """
    import re

    from repro.evaluation import Session
    from repro.rdf.namespace import EX
    from repro.sparql import Mapping
    from repro.workloads.families import fk_data_graph, fk_forest

    text = (ROOT / "docs" / "engines.md").read_text(encoding="utf-8")
    section = text.split("**What is memoized**", 1)[1]
    table = re.search(r"^\| kind \|.*\n((?:\|.*\n)+)", section, re.MULTILINE)
    assert table, "docs/engines.md lost the kind column of its 'What is memoized' table"
    documented = set(re.findall(r"^\|\s*`(\w+)`", table.group(1), re.MULTILINE))

    forest = fk_forest(2)
    graph = fk_data_graph(6, 36, clique_size=2, seed=9)
    edge = min((t for t in graph if t.predicate == EX.term("p")), key=repr)
    mu = Mapping.of(x=edge.subject.value, y=edge.object.value)
    session = Session()
    session.check_many(forest, graph, [mu], method="natural")
    session.solutions(forest, graph)
    session.check_many(forest, graph, [mu], method="pebble", width=1)
    store = session.cache._graphs[id(graph)]
    held = {kind for kind, _key in store.entries}
    if store.index is not None:
        held.add("index")
    assert documented == held


def test_stats_keys_match_their_documentation():
    """docs/service.md's `stats` paragraphs list the reply's top-level keys
    and its `cache` keys; both lists equal what the service returns."""
    import re

    from repro.rdf import RDFGraph, Triple
    from repro.service import QueryService

    text = (ROOT / "docs" / "service.md").read_text(encoding="utf-8")
    top = text.split("The `stats` reply is one JSON object.", 1)[1].split("\n\n", 1)[0]
    cache = text.split("The `stats` reply's `cache` object holds", 1)[1].split("\n\n", 1)[0]

    def names(paragraph):
        return set(re.findall(r"`([a-z][a-z0-9_]*)`", paragraph))

    with QueryService(RDFGraph([Triple.of("a", "knows", "b")])) as service:
        snapshot = service.stats()
    assert names(top) == set(snapshot)
    assert names(cache) == set(snapshot["cache"])
