"""A small blocking client for the query-service socket protocol.

:class:`ServiceClient` wraps one TCP connection to a
:class:`~repro.service.server.ServiceServer` and offers the same verbs as
the in-process :class:`~repro.service.core.QueryService`: ``check``,
``solutions`` (chunk lines are reassembled transparently), ``explain``,
``update`` and ``stats``.  Error responses re-raise as their library
exception types (resolved by ``error_type`` name against
:mod:`repro.exceptions`), so remote and in-process callers handle
failures identically — an overloaded server raises
:class:`~repro.exceptions.ServiceOverloadedError` either way.

This is also the building block of the load harness
(``benchmarks/bench_service_load.py``): one client per closed-loop worker.
"""

from __future__ import annotations

import socket
from typing import Dict, List, Optional, Sequence, Union

from ..exceptions import ProtocolError, ServiceError, error_class
from .protocol import decode_line, encode_line

__all__ = ["ServiceClient"]


class ServiceClient:
    """One blocking connection speaking the line-delimited JSON protocol."""

    def __init__(self, host: str, port: int, timeout: Optional[float] = 30.0) -> None:
        self._socket = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._socket.makefile("rb")
        self._next_id = 0

    # --- plumbing ----------------------------------------------------------
    def request(self, message: dict) -> dict:
        """Send one raw request object; return the final response line.

        ``solutions`` chunk lines are accumulated into a ``solutions`` list
        on the returned final line.  Error responses raise their library
        exception type.
        """
        self._next_id += 1
        message = dict(message)
        message.setdefault("id", self._next_id)
        self._socket.sendall(encode_line(message))
        solutions: List[Dict[str, str]] = []
        while True:
            raw = self._reader.readline()
            if not raw:
                raise ServiceError("connection closed by the service mid-response")
            line = decode_line(raw)
            if "chunk" in line:
                chunk = line["chunk"]
                if not isinstance(chunk, list):
                    raise ProtocolError("'chunk' lines must carry an array")
                solutions.extend(chunk)
                continue
            if not line.get("ok"):
                raise error_class(line.get("error_type"))(line.get("error") or "service request failed")
            if line.get("op") == "solutions":
                line["solutions"] = solutions
            return line

    # --- verbs -------------------------------------------------------------
    def check(
        self,
        query: str,
        bindings: Union[Dict[str, str], Sequence[Dict[str, str]]],
        graph: Optional[str] = None,
        method: str = "auto",
        deadline: Optional[float] = None,
        width: Optional[int] = None,
    ) -> Union[bool, List[bool]]:
        """Membership verdicts; a single binding dict returns one bool.

        *width* declares a bound ``k`` on the pattern's domination width, so
        that ``method="pebble"`` plays the ``(k+1)``-pebble game without the
        server computing the width first.
        """
        single = isinstance(bindings, dict)
        batch = [bindings] if single else list(bindings)
        message: dict = {"op": "check", "query": query, "bindings": batch, "method": method}
        if graph is not None:
            message["graph"] = graph
        if deadline is not None:
            message["deadline"] = deadline
        if width is not None:
            message["width"] = width
        verdicts = self.request(message)["result"]
        return verdicts[0] if single else verdicts

    def solutions(
        self,
        query: str,
        graph: Optional[str] = None,
        method: str = "auto",
        deadline: Optional[float] = None,
        chunk_size: Optional[int] = None,
    ) -> List[Dict[str, str]]:
        """The full answer set as a list of ``{variable: term}`` objects."""
        message: dict = {"op": "solutions", "query": query, "method": method}
        if graph is not None:
            message["graph"] = graph
        if deadline is not None:
            message["deadline"] = deadline
        if chunk_size is not None:
            message["chunk_size"] = chunk_size
        return self.request(message)["solutions"]

    def explain(self, query: str, graph: Optional[str] = None, method: str = "auto") -> str:
        message: dict = {"op": "explain", "query": query, "method": method}
        if graph is not None:
            message["graph"] = graph
        return self.request(message)["result"]

    def update(
        self,
        graph: Optional[str] = None,
        add: Sequence[Sequence[str]] = (),
        remove: Sequence[Sequence[str]] = (),
        deadline: Optional[float] = None,
    ) -> dict:
        """Apply a mutation batch; returns ``{added, removed, version}``."""
        message: dict = {"op": "update", "add": [list(t) for t in add], "remove": [list(t) for t in remove]}
        if graph is not None:
            message["graph"] = graph
        if deadline is not None:
            message["deadline"] = deadline
        return self.request(message)["result"]

    def stats(self) -> dict:
        """The service introspection snapshot (the ``/stats``-style call)."""
        return self.request({"op": "stats"})["result"]

    # --- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._socket.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
