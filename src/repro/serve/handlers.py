"""HTTP request handling for the evaluation service and the front router.

Two handlers share one plumbing base (:class:`_JsonHandler`) and one
server class (:class:`ServiceHTTPServer`):

:class:`ServeHandler` — one connection of a *replica*
(:class:`~repro.serve.server.EvalServer`).  Routes:

* ``POST /v1/evaluate`` — admit one wire request, block until the worker
  pool resolves it, answer ``200`` with a binary result frame
  (:func:`repro.serve.codec.encode_result`, ``Content-Type``
  :data:`~repro.serve.codec.RESULT_CONTENT_TYPE`).  Failures answer the
  typed error payloads of :func:`repro.serve.codec.error_payload`; overload
  answers ``429`` with a ``Retry-After`` header (the admission
  controller's measured-drain estimate) instead of queuing without bound,
  and a result the wire cannot carry exactly answers ``500``.
* ``GET /v1/models`` — the hosted models/datasets/backends.
* ``GET /healthz`` — liveness plus queue occupancy.
* ``GET /metrics`` — request counters (with the conservation invariants),
  latency percentiles, session/coalescing stats, cache hit rate, and the
  exportable ``drain`` snapshot the front tier aggregates.

:class:`FrontHandler` — one connection of the *front router*
(:class:`~repro.serve.front.FrontServer`).  Routes:

* ``POST /v1/evaluate`` — fleet admission check, then consistent-routing
  proxy to the model's replica (with deterministic failover); the
  replica's status, ``Content-Type``, ``Retry-After`` and body are written
  to the client byte for byte, never decoded and re-encoded, so responses
  stay bit-identical.
* ``GET /v1/models`` — the fleet-wide model/dataset union.
* ``GET /v1/fleet`` — ring assignments, per-replica health, ejection
  counters: the sharding introspection surface.
* ``GET /healthz`` / ``GET /metrics`` — front liveness and the aggregated
  fleet view (counters summed, p95 merged from per-replica windows).

Requests are JSON, and so is every answer but a result frame; every
answer carries an exact ``Content-Length``.  Connections are HTTP/1.1 and
kept alive, so one connection carries request after request; the server
closes one whose request body was not read in full (its unread bytes
would parse as the next request) and answers it with ``Connection:
close``.  A peer that stalls mid-request, or sits idle between requests,
is dropped after :attr:`_JsonHandler.timeout` seconds, and one that hangs
up before its whole body arrived gets no answer: there is no one left to
read it.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple, Type, Union, cast

from repro.serve.admission import QueueFullError, ServiceClosedError

if TYPE_CHECKING:
    from repro.serve.front import FrontService
    from repro.serve.server import EvalService
from repro.serve.codec import (
    RESULT_CONTENT_TYPE,
    CodecError,
    UnknownDatasetError,
    UnknownModelError,
    encode_result,
    error_payload,
)

#: Largest accepted request body; a bounded queue deserves a bounded parser.
MAX_BODY_BYTES = 1 << 20

#: What a socketserver hands its handlers (a socket, for TCP servers).
_Request = Union[socket.socket, Tuple[bytes, socket.socket]]


class _JsonHandler(BaseHTTPRequestHandler):
    """Shared plumbing: keep-alive, body parsing, typed payloads, accounting.

    Subclasses route requests onto the service object their server
    carries; the service only needs a ``record_http(route, status)`` hook
    for the ``/metrics`` request table.
    """

    # 1.6: a successful evaluation answers a binary result frame, not
    # base64 arrays inside JSON; 1.5 clients cannot decode it.
    server_version = "repro-serve/1.6"
    protocol_version = "HTTP/1.1"
    #: Headers and body leave in two writes; with Nagle on, a kept-alive
    #: connection holds the body for the peer's delayed ACK (~40 ms).
    disable_nagle_algorithm = True
    #: Socket timeout (seconds) of every blocking read and write, so a
    #: stalled peer cannot hold a handler thread, and of the wait for the
    #: next request on a kept-alive connection.  Waiting for the worker
    #: pool is not socket I/O and is bounded by ``request_timeout`` instead.
    timeout = 30.0
    #: Whether the current request declared body bytes not yet read.
    _body_pending = False

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002 - stdlib signature
        """Silence per-request stderr logging (metrics cover it)."""

    def _record_http(self, route: str, status: int) -> None:
        raise NotImplementedError

    def parse_request(self) -> bool:
        """Parse the request head, unless the server is closing.

        A closing server drops a request it reads on an old connection
        unanswered; the handler then closes the connection.
        """
        if getattr(self.server, "closing", False):
            self.close_connection = True
            return False
        if not super().parse_request():
            return False
        self._body_pending = (
            self.headers.get("Content-Length", "0").strip() != "0"
            or "Transfer-Encoding" in self.headers
        )
        return True

    # ------------------------------------------------------------------
    def _send_json(
        self,
        route: str,
        status: int,
        payload: Union[Dict[str, object], bytes],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """Answer ``payload``: a dict as JSON, ``bytes`` as a finished body.

        The body is JSON unless ``headers`` names another ``Content-Type``.
        The connection closes after the answer when the request body was
        not read in full or the peer asked to close.
        """
        if isinstance(payload, bytes):
            body = payload
        else:
            body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        if self._body_pending or self.close_connection:
            self.send_header("Connection", "close")
        fields = {"Content-Type": "application/json", **(headers or {})}
        fields["Content-Length"] = str(len(body))
        for name, value in fields.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self._record_http(route, status)

    def _send_error_payload(self, route: str, error: BaseException) -> None:
        status, payload = error_payload(error)
        headers: Dict[str, str] = {}
        detail = cast(Dict[str, object], payload["error"])
        retry_after = detail.get("retry_after")
        if retry_after is not None:
            headers["Retry-After"] = str(retry_after)
        self._send_json(route, status, payload, headers=headers)

    def _not_found(self) -> None:
        self._send_json(
            f"{self.command} {self.path}",
            404,
            {
                "error": {
                    "type": "not-found",
                    "message": f"no route {self.command} {self.path}",
                }
            },
        )

    # ------------------------------------------------------------------
    def _read_json_body(self) -> object:
        """The parsed JSON body, or :class:`CodecError` on any malformation.

        Raises :class:`ConnectionAbortedError` when the peer closed the
        connection before sending ``Content-Length`` bytes.
        """
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise CodecError("Content-Length header is not an integer") from None
        if length <= 0:
            raise CodecError("request body is empty; POST a JSON object")
        if length > MAX_BODY_BYTES:
            raise CodecError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        body = self.rfile.read(length)
        if len(body) < length:
            self.close_connection = True
            raise ConnectionAbortedError(
                f"peer closed after {len(body)} of {length} body bytes"
            )
        self._body_pending = False
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise CodecError(f"request body is not valid JSON: {error}") from None


class ServeHandler(_JsonHandler):
    """Routes one HTTP connection onto the owning server's EvalService."""

    @property
    def service(self) -> "EvalService":
        # ServiceHTTPServer carries the service; BaseHTTPRequestHandler
        # types ``server`` as BaseServer.
        return cast("EvalService", getattr(self.server, "service"))

    def _record_http(self, route: str, status: int) -> None:
        self.service.record_http(route, status)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:
        if self.path == "/healthz":
            self._send_json("GET /healthz", 200, self.service.health())
        elif self.path == "/metrics":
            self._send_json("GET /metrics", 200, self.service.metrics())
        elif self.path == "/v1/models":
            self._send_json("GET /v1/models", 200, self.service.models())
        else:
            self._not_found()

    def do_POST(self) -> None:
        if self.path != "/v1/evaluate":
            self._not_found()
            return
        route = "POST /v1/evaluate"
        try:
            payload = self._read_json_body()
            job = self.service.enqueue(payload)
        except ConnectionAbortedError:
            return  # the peer hung up mid-body: there is no one to answer
        except (
            QueueFullError,  # 429, Retry-After mirrored from the payload
            ServiceClosedError,  # 503
            CodecError,  # 400
            UnknownModelError,  # 404
            UnknownDatasetError,  # 404
        ) as error:
            self._send_error_payload(route, error)
            return

        if not job.done.wait(timeout=self.service.config.request_timeout):
            self._send_json(
                route,
                504,
                {
                    "error": {
                        "type": "timeout",
                        "message": (
                            "request did not complete within "
                            f"{self.service.config.request_timeout:.0f}s; it "
                            "may still finish server-side"
                        ),
                    }
                },
            )
            return
        if job.error is not None:
            self._send_error_payload(route, job.error)
            return
        try:
            frame = encode_result(job.result)
        except ValueError as error:
            # The result, not the request, is at fault: always a 500, so a
            # CodecError from encoding must not pass for a 400.
            self._send_error_payload(
                route, RuntimeError(f"result cannot be sent exactly: {error}")
            )
            return
        self._send_json(
            route, 200, frame, headers={"Content-Type": RESULT_CONTENT_TYPE}
        )


class FrontHandler(_JsonHandler):
    """Routes one HTTP connection onto the owning server's FrontService."""

    @property
    def front(self) -> "FrontService":
        return cast("FrontService", getattr(self.server, "service"))

    def _record_http(self, route: str, status: int) -> None:
        self.front.record_http(route, status)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:
        if self.path == "/healthz":
            self._send_json("GET /healthz", 200, self.front.health())
        elif self.path == "/metrics":
            self._send_json("GET /metrics", 200, self.front.metrics())
        elif self.path == "/v1/models":
            self._send_json("GET /v1/models", 200, self.front.models())
        elif self.path == "/v1/fleet":
            self._send_json("GET /v1/fleet", 200, self.front.fleet())
        else:
            self._not_found()

    def do_POST(self) -> None:
        # Imported here to keep handlers import-light for the replica-only
        # path (front pulls in the poller machinery).
        from repro.serve.front import FleetUnavailableError

        if self.path != "/v1/evaluate":
            self._not_found()
            return
        route = "POST /v1/evaluate"
        try:
            payload = self._read_json_body()
            status, headers, body = self.front.evaluate(payload)
        except ConnectionAbortedError:
            return  # the peer hung up mid-body: there is no one to answer
        except (
            QueueFullError,  # fleet-level shed: 429 before any backend socket
            ServiceClosedError,  # 503: front shutting down
            CodecError,  # 400: validated at the front, never proxied
        ) as error:
            self._send_error_payload(route, error)
            return
        except FleetUnavailableError as error:
            self._send_json(
                route,
                503,
                {"error": {"type": "no-healthy-replica", "message": str(error)}},
            )
            return
        self._send_json(route, status, body, headers=headers)


class ServiceHTTPServer(ThreadingHTTPServer):
    """The threaded HTTP server of a replica or a front router.

    It carries the ``service`` its handlers route onto, and tracks its
    live connections so that :meth:`server_close` can end them.  A
    kept-alive connection otherwise outlives the server: its handler
    would wait up to :attr:`_JsonHandler.timeout` for the next request
    and answer it from a closed service.
    """

    daemon_threads = True
    allow_reuse_address = True
    # The stdlib default listen backlog of 5 RSTs connections under a
    # concurrent burst; admission control, not the kernel, sheds load here.
    request_queue_size = 128

    def __init__(
        self,
        address: Tuple[str, int],
        handler: Type[_JsonHandler],
        service: object,
    ) -> None:
        super().__init__(address, handler)
        self.service = service
        #: set by :meth:`server_close`; handlers drop requests read after it.
        self.closing = False
        self._connections: Set[socket.socket] = set()  # guarded-by: _connections_lock
        self._connections_lock = threading.Lock()

    def process_request(self, request: _Request, client_address: object) -> None:
        if isinstance(request, socket.socket):
            with self._connections_lock:
                self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: _Request) -> None:
        if isinstance(request, socket.socket):
            with self._connections_lock:
                self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Close the listener, then stop reading on every live connection.

        Call it after the service closed and ``shutdown()`` stopped the
        acceptor.  An answer already in flight still goes out, but a
        handler waiting for the next request reads end-of-file and closes
        its connection: a closed server answers nothing more on old
        connections.
        """
        self.closing = True
        super().server_close()
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # the peer already closed it
