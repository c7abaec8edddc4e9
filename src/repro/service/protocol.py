"""The line-delimited JSON wire protocol of the query service.

One request per line, one or more response lines per request.  Requests
are JSON objects with an ``op`` field (one of
:data:`~repro.service.core.OPERATIONS`) plus operation-specific fields;
the optional ``id`` field is echoed verbatim on every response line so
clients can pipeline requests over one connection:

.. code-block:: text

   → {"id": 1, "op": "check", "query": "(?x knows ?y)",
      "bindings": [{"x": "a", "y": "b"}], "deadline": 0.5}
   ← {"id": 1, "op": "check", "ok": true, "result": [true], "version": 1,
      "elapsed_ms": 0.4}

``solutions`` responses stream: zero or more ``chunk`` lines (each a list
of ``{variable: term}`` objects, ``seq``-numbered) followed by a final
``done`` line carrying the total count and the graph version the whole
answer set was computed against:

.. code-block:: text

   → {"id": 2, "op": "solutions", "query": "(?x knows ?y)", "chunk_size": 2}
   ← {"id": 2, "op": "solutions", "chunk": [{"x": "a", "y": "b"},
      {"x": "b", "y": "c"}], "seq": 0}
   ← {"id": 2, "op": "solutions", "ok": true, "done": true, "count": 2,
      "version": 1, "elapsed_ms": 1.3}

Errors — including admission-control rejections, which never reach a
worker thread — are single lines with ``ok: false`` and the
:class:`~repro.exceptions.ReproError` subtype name in ``error_type``:

.. code-block:: text

   ← {"id": 3, "op": "check", "ok": false,
      "error_type": "ServiceOverloadedError",
      "error": "service overloaded: 64 request(s) pending ..."}

Malformed lines (bad JSON, wrong shapes, oversized) are answered with a
``ProtocolError`` line and the connection stays usable.  This module is
pure data plumbing — no sockets; :mod:`repro.service.server` and
:mod:`repro.service.client` sit on either side of it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import ParseError, ProtocolError
from ..rdf.io import parse_term, serialize_term
from ..rdf.terms import Literal, Term, Variable
from ..rdf.triples import Triple, coerce_term
from ..sparql.mappings import Mapping
from .core import DEFAULT_GRAPH, OPERATIONS, Request, Response

__all__ = [
    "MAX_LINE_BYTES",
    "decode_line",
    "encode_line",
    "error_line",
    "mapping_from_wire",
    "mapping_to_wire",
    "request_from_wire",
    "response_lines",
    "triple_from_wire",
    "triple_to_wire",
]

#: Hard bound on one protocol line; longer lines are a :class:`ProtocolError`.
MAX_LINE_BYTES = 16 * 1024 * 1024


# --- framing ---------------------------------------------------------------
def encode_line(message: dict) -> bytes:
    """Serialize one protocol message as a newline-terminated JSON line."""
    return (json.dumps(message, separators=(",", ":"), sort_keys=True) + "\n").encode(
        "utf-8"
    )


def decode_line(raw: bytes) -> dict:
    """Parse one received line into a message object (typed errors)."""
    if len(raw) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"protocol line of {len(raw)} bytes exceeds the "
            f"{MAX_LINE_BYTES} byte bound"
        )
    try:
        message = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"malformed protocol line: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"protocol messages are JSON objects, got {type(message).__name__}"
        )
    return message


# --- value conversions -----------------------------------------------------
def _term_to_wire(term: object) -> str:
    """IRIs travel bare, literals in their N-Triples form (``"Alice"@en``)."""
    if isinstance(term, Literal):
        return serialize_term(term)
    value = getattr(term, "value", None)
    return value if isinstance(value, str) else str(term)


def _term_from_wire(text: str) -> Term:
    """The inverse of :func:`_term_to_wire`: a string starting with ``"`` is
    a literal, read by the N-Triples term parser; any other string is an IRI
    or, with a leading ``?``, a variable."""
    if text.startswith('"'):
        try:
            return parse_term(text)
        except ParseError as error:
            raise ProtocolError(f"malformed literal {text!r}: {error}") from None
    return coerce_term(text)


def mapping_to_wire(mu: Mapping) -> Dict[str, str]:
    """A mapping as a plain ``{variable_name: term}`` JSON object."""
    return {var.name: _term_to_wire(value) for var, value in mu.items()}


def mapping_from_wire(binding: object) -> Mapping:
    """The inverse of :func:`mapping_to_wire` (typed errors on bad shapes)."""
    if not isinstance(binding, dict):
        raise ProtocolError(
            f"bindings must be objects mapping variable names to terms, "
            f"got {type(binding).__name__}"
        )
    items = {}
    for name, value in binding.items():
        if not isinstance(name, str) or not isinstance(value, str):
            raise ProtocolError("binding entries must map string names to string terms")
        try:
            variable, term = Variable(name), _term_from_wire(value)
        except ValueError as error:  # empty variable name or term
            raise ProtocolError(f"invalid binding {name!r}: {value!r}: {error}") from None
        if isinstance(term, Variable):
            raise ProtocolError(
                f"binding value {value!r} for {name!r} is a variable, not a ground term"
            )
        items[variable] = term
    return Mapping(items)


def triple_to_wire(triple: Triple) -> List[str]:
    """A triple as a ``[subject, predicate, object]`` JSON array."""
    return [
        _term_to_wire(triple.subject),
        _term_to_wire(triple.predicate),
        _term_to_wire(triple.object),
    ]


def triple_from_wire(item: object) -> Triple:
    """The inverse of :func:`triple_to_wire` (typed errors on bad shapes)."""
    if (
        not isinstance(item, (list, tuple))
        or len(item) != 3
        or not all(isinstance(part, str) for part in item)
    ):
        raise ProtocolError(
            "update triples must be [subject, predicate, object] string arrays"
        )
    try:
        subject, predicate, obj = (_term_from_wire(part) for part in item)
        return Triple(subject, predicate, obj)
    except ValueError as error:  # empty terms
        raise ProtocolError(f"invalid update triple {list(item)!r}: {error}") from None


# --- requests --------------------------------------------------------------
def _field(message: dict, name: str, kind: type, default: object) -> Any:
    # Any return: callers assign into precisely-typed Request fields after
    # this runtime check has enforced the shape.
    value = message.get(name, default)
    if value is default:
        return default
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ProtocolError(
            f"field {name!r} must be a {kind.__name__}, got {type(value).__name__}"
        )
    return value


def request_from_wire(message: dict) -> Tuple[Request, object, Optional[int]]:
    """Turn a decoded message into ``(request, echo_id, chunk_size)``.

    ``echo_id`` is whatever the client sent as ``id`` (echoed on every
    response line, ``None`` when absent); ``chunk_size`` is the requested
    ``solutions`` chunk size (``None`` = the service default).
    """
    op = message.get("op")
    if not isinstance(op, str) or op not in OPERATIONS:
        raise ProtocolError(f"field 'op' must be one of {list(OPERATIONS)}, got {op!r}")
    echo_id = message.get("id")
    chunk_size = _field(message, "chunk_size", int, None)
    if chunk_size is not None and chunk_size < 1:
        raise ProtocolError("field 'chunk_size' must be a positive integer")
    deadline = _field(message, "deadline", float, None)
    if deadline is not None and deadline <= 0:
        raise ProtocolError("field 'deadline' must be a positive number of seconds")
    width = _field(message, "width", int, None)
    if width is not None and width < 1:
        raise ProtocolError("field 'width' must be a positive integer")
    bindings = message.get("bindings", [])
    if not isinstance(bindings, list):
        raise ProtocolError("field 'bindings' must be an array of binding objects")
    add = message.get("add", [])
    remove = message.get("remove", [])
    if not isinstance(add, list) or not isinstance(remove, list):
        raise ProtocolError("fields 'add'/'remove' must be arrays of triples")
    request = Request(
        op=op,
        query=_field(message, "query", str, None),
        graph=_field(message, "graph", str, DEFAULT_GRAPH),
        mappings=[mapping_from_wire(binding) for binding in bindings],
        method=_field(message, "method", str, "auto"),
        width=width,
        deadline=deadline,
        add=[triple_from_wire(item) for item in add],
        remove=[triple_from_wire(item) for item in remove],
    )
    return request, echo_id, chunk_size


# --- responses -------------------------------------------------------------
def _result_to_wire(response: Response) -> object:
    if response.op == "check":
        return list(response.result)  # type: ignore[call-overload]
    return response.result


def response_lines(
    response: Response,
    echo_id: object = None,
    chunks: Optional[Sequence[List[Mapping]]] = None,
) -> Iterator[dict]:
    """The wire lines of one response (chunk lines first, final line last).

    For successful ``solutions`` responses pass the already-chunked answer
    set (from :meth:`~repro.service.core.QueryService.solution_chunks`);
    everything else is a single line.
    """
    final: dict = {"op": response.op, "ok": response.ok}
    if echo_id is not None:
        final["id"] = echo_id
    final["elapsed_ms"] = round(response.elapsed * 1000.0, 3)
    if response.graph_version is not None:
        final["version"] = response.graph_version
    if not response.ok:
        final["error"] = response.error
        final["error_type"] = response.error_type
        yield final
        return
    if response.op == "solutions":
        count = 0
        for seq, chunk in enumerate(chunks or ()):
            count += len(chunk)
            line: dict = {
                "op": "solutions",
                "seq": seq,
                "chunk": [mapping_to_wire(mu) for mu in chunk],
            }
            if echo_id is not None:
                line["id"] = echo_id
            yield line
        final["done"] = True
        final["count"] = count
        yield final
        return
    final["result"] = _result_to_wire(response)
    yield final


def error_line(error: Exception, op: str = "?", echo_id: object = None) -> dict:
    """A single error response line for failures outside a worker thread.

    Covers admission-control rejections (overload, closed service) and
    protocol violations — cases where no :class:`Response` object exists.
    """
    line: dict = {
        "op": op,
        "ok": False,
        "error": str(error),
        "error_type": type(error).__name__,
    }
    if echo_id is not None:
        line["id"] = echo_id
    return line
