"""Shared fixtures and helpers for the test suite.

One piece of harness configuration lives here alongside the fixtures: a
**per-test watchdog**.  Every test gets a hard wall-clock limit
(``REPRO_TEST_TIMEOUT`` seconds, default 180) enforced with
:func:`faulthandler.dump_traceback_later` — a hung test (e.g. a service
worker waiting on a request that never resolves) dumps the tracebacks of
every thread and aborts the process instead of hanging CI forever (no
``pytest-timeout`` dependency needed).
"""

from __future__ import annotations

import faulthandler
import os

import pytest

from repro.rdf import RDFGraph, Triple
from repro.rdf.namespace import EX

_TEST_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "180"))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Hard per-test wall-clock limit (see the module docstring)."""
    if _TEST_TIMEOUT > 0 and faulthandler.is_enabled():
        faulthandler.dump_traceback_later(_TEST_TIMEOUT, exit=True)
        try:
            return (yield)
        finally:
            faulthandler.cancel_dump_traceback_later()
    return (yield)


@pytest.fixture
def small_graph() -> RDFGraph:
    """A tiny hand-written RDF graph used across several test modules.

    Edges (subject --predicate--> object)::

        a --p--> b      b --q--> c      c --r--> a
        a --p--> c      b --q--> a      d --r--> d
    """
    return RDFGraph(
        [
            Triple.of(EX.a, EX.p, EX.b),
            Triple.of(EX.a, EX.p, EX.c),
            Triple.of(EX.b, EX.q, EX.c),
            Triple.of(EX.b, EX.q, EX.a),
            Triple.of(EX.c, EX.r, EX.a),
            Triple.of(EX.d, EX.r, EX.d),
        ]
    )


def ex(name: str) -> str:
    """Shorthand for the example-namespace IRI string."""
    return EX.term(name).value
