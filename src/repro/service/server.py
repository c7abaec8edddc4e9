"""A stdlib socket front end for :class:`~repro.service.core.QueryService`.

:class:`ServiceServer` listens on a TCP socket and speaks the
line-delimited JSON protocol of :mod:`repro.service.protocol`: one thread
per connection reads request lines, drives the shared service, and writes
response lines (``solutions`` answers stream in chunks).  Heavy lifting —
thread pool, gate, admission control, deadlines, stats — lives in the
service; this layer only frames bytes.

Failure behaviour mirrors the service contract: protocol violations and
admission rejections are answered with typed single-line errors on the
same connection, and a client disconnect mid-response simply ends that
connection's thread.  Lines are read in bounded chunks, so a line longer
than :data:`~repro.service.protocol.MAX_LINE_BYTES` is refused as soon as
it crosses the bound, without waiting for its newline.  ``repro serve``
(:mod:`repro.cli`) is a thin wrapper around this class.
"""

from __future__ import annotations

import socket
import threading
from typing import Iterator, Optional, Tuple

from ..exceptions import ProtocolError, ReproError
from .core import QueryService
from .protocol import (
    MAX_LINE_BYTES,
    decode_line,
    encode_line,
    error_line,
    request_from_wire,
    response_lines,
)

__all__ = ["ServiceServer"]


class ServiceServer:
    """Serve one :class:`QueryService` over a listening TCP socket.

    Parameters
    ----------
    service:
        The (already running) service to expose.
    host / port:
        Bind address; ``port=0`` picks a free port — read it back from
        :attr:`address` (the pattern the tests and ``repro serve`` use).
    max_requests:
        Optional total request bound across all connections; the server
        shuts down after answering that many lines (smoke tests, CI).
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_requests: Optional[int] = None,
    ) -> None:
        self._service = service
        self._listener = socket.create_server((host, port))
        self._max_requests = max_requests
        self._served = 0  # guarded-by: _lock
        self._lock = threading.Lock()
        self._closing = False  # guarded-by: _lock

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — useful with ``port=0``."""
        return self._listener.getsockname()[:2]

    @property
    def requests_served(self) -> int:
        with self._lock:
            return self._served

    # --- accept loop -------------------------------------------------------
    def serve_forever(self) -> None:
        """Accept connections until :meth:`shutdown` (or ``max_requests``)."""
        while True:
            try:
                connection, _peer = self._listener.accept()
            except OSError:
                break  # listener closed by shutdown()
            with self._lock:
                closing = self._closing
            if closing:
                connection.close()
                break
            threading.Thread(target=self._handle, args=(connection,), daemon=True).start()

    def shutdown(self) -> None:
        """Stop accepting; live connection threads drain on their own."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
        # Closing a listening socket does not reliably interrupt a blocked
        # accept() on another thread; a self-connection wakes it so the
        # accept loop can observe _closing and exit.
        try:
            with socket.create_connection(self.address, timeout=1.0):
                pass
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    def __enter__(self) -> "ServiceServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # --- per-connection ----------------------------------------------------
    def _handle(self, connection: socket.socket) -> None:
        with connection:
            reader = connection.makefile("rb")
            skipping = False  # inside the tail of an oversized line
            while True:
                # Bounded reads: a line over MAX_LINE_BYTES is answered as
                # soon as the bound is crossed, not buffered until its
                # newline, and the rest of it is then read and dropped.
                raw = reader.readline(MAX_LINE_BYTES + 1)
                if not raw:
                    return  # client closed the connection
                complete = raw.endswith(b"\n")
                if skipping:
                    skipping = not complete
                    continue
                if len(raw) > MAX_LINE_BYTES and not complete:
                    skipping = True  # decode_line refuses it by its length
                else:
                    raw = raw.strip()
                    if not raw:
                        continue
                try:
                    for line in self._process(raw):
                        connection.sendall(line)
                except OSError:
                    return  # client went away mid-response
                if self._count_request():
                    self.shutdown()
                    return

    def _count_request(self) -> bool:
        """Record one served request; ``True`` when the bound is reached."""
        with self._lock:
            self._served += 1
            return self._max_requests is not None and self._served >= self._max_requests

    def _process(self, raw: bytes) -> Iterator[bytes]:
        """All response lines for one request line (always at least one)."""
        echo_id = None
        op = "?"
        try:
            message = decode_line(raw)
            echo_id = message.get("id")
            request, echo_id, chunk_size = request_from_wire(message)
            op = request.op
            response = self._service.submit(request).result()
            chunks = None
            if response.ok and response.op == "solutions":
                chunks = list(self._service.solution_chunks(response, chunk_size))
            for line in response_lines(response, echo_id, chunks):
                yield encode_line(line)
        except (ProtocolError, ReproError) as error:
            # Admission rejections (overload / closed) and malformed lines
            # answer in-band; the connection stays usable.
            yield encode_line(error_line(error, op=op, echo_id=echo_id))
