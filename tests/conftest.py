"""Shared fixtures and helpers for the test suite.

Two pieces of harness configuration live here alongside the fixtures:

* a **per-test watchdog**: every test gets a hard wall-clock limit
  (``REPRO_TEST_TIMEOUT`` seconds, default 180) enforced with
  :func:`faulthandler.dump_traceback_later` — a hung test (e.g. a worker
  pool waiting on a task a killed worker will never finish) dumps the
  tracebacks of every thread and aborts the process instead of hanging CI
  forever (no ``pytest-timeout`` dependency needed);
* a **start-method override**: ``REPRO_START_METHOD=fork|spawn|forkserver``
  pins the multiprocessing start method for the whole run, which is how CI
  exercises the fault-injection and service suites under both ``fork``
  (warm workers) and ``spawn`` (cold workers, pickled initargs).
"""

from __future__ import annotations

import faulthandler
import multiprocessing
import os

import pytest

from repro.rdf import RDFGraph, Triple
from repro.rdf.namespace import EX

_TEST_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "180"))


def pytest_configure(config) -> None:
    method = os.environ.get("REPRO_START_METHOD")
    if method:
        multiprocessing.set_start_method(method, force=True)


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
