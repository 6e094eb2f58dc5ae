"""HTTP request handling for the evaluation service and the front router.

Two handlers share one JSON plumbing base (:class:`_JsonHandler`):

:class:`ServeHandler` — one connection of a *replica*
(:class:`~repro.serve.server.EvalServer`'s ThreadingHTTPServer).  Routes:

* ``POST /v1/evaluate`` — admit one wire request, block until the worker
  pool resolves it, answer ``200 {"result": ...}``.  Failures answer the
  typed error payloads of :func:`repro.serve.codec.error_payload`; overload
  answers ``429`` with a ``Retry-After`` header (the adaptive admission
  controller's measured-drain estimate) instead of queuing without bound.
* ``GET /v1/models`` — the hosted models/datasets/backends.
* ``GET /healthz`` — liveness plus queue occupancy.
* ``GET /metrics`` — request counters (with the conservation invariants),
  latency percentiles, session/coalescing stats, cache hit rate, and the
  exportable ``drain`` snapshot the front tier aggregates.

:class:`FrontHandler` — one connection of the *front router*
(:class:`~repro.serve.front.FrontServer`).  Routes:

* ``POST /v1/evaluate`` — fleet admission check, then consistent-routing
  proxy to the model's replica (with deterministic failover); the
  replica's answer body is written to the client byte for byte, never
  decoded and re-encoded, so responses stay bit-identical.
* ``GET /v1/models`` — the fleet-wide model/dataset union.
* ``GET /v1/fleet`` — ring assignments, per-replica health, ejection
  counters: the sharding introspection surface.
* ``GET /healthz`` / ``GET /metrics`` — front liveness and the aggregated
  fleet view (counters summed, p95 merged from per-replica windows).

Everything is JSON; every response carries an exact ``Content-Length``.
A peer that stalls mid-request is dropped after :attr:`_JsonHandler.timeout`
seconds, and one that hangs up before its whole body arrived gets no
answer: there is no one left to read it.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler
from typing import TYPE_CHECKING, Dict, Optional, Union, cast

from repro.serve.admission import QueueFullError, ServiceClosedError

if TYPE_CHECKING:
    from repro.serve.front import FrontService
    from repro.serve.server import EvalService
from repro.serve.codec import (
    CodecError,
    UnknownDatasetError,
    UnknownModelError,
    encode_result,
    error_payload,
)

#: Largest accepted request body; a bounded queue deserves a bounded parser.
MAX_BODY_BYTES = 1 << 20


class _JsonHandler(BaseHTTPRequestHandler):
    """Shared JSON plumbing: body parsing, typed payloads, HTTP accounting.

    Subclasses route requests onto the service object their server
    carries; the service only needs a ``record_http(route, status)`` hook
    for the ``/metrics`` request table.
    """

    # 1.4: array ``data`` is base64 bytes; 1.3 clients cannot decode it.
    server_version = "repro-serve/1.4"
    #: Socket timeout (seconds) of every blocking read and write, so a
    #: stalled peer cannot hold a handler thread.  Waiting for the worker
    #: pool is not socket I/O and is bounded by ``request_timeout`` instead.
    timeout = 30.0

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002 - stdlib signature
        """Silence per-request stderr logging (metrics cover it)."""

    def _record_http(self, route: str, status: int) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _send_json(
        self,
        route: str,
        status: int,
        payload: Union[Dict[str, object], bytes],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """Answer ``payload``; ``bytes`` are an encoded JSON body, sent as is."""
        if isinstance(payload, bytes):
            body = payload
        else:
            body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
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
            raise ConnectionAbortedError(
                f"peer closed after {len(body)} of {length} body bytes"
            )
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise CodecError(f"request body is not valid JSON: {error}") from None


class ServeHandler(_JsonHandler):
    """Routes one HTTP connection onto the owning server's EvalService."""

    @property
    def service(self) -> "EvalService":
        # The ThreadingHTTPServer subclass (_ServeHTTPServer) carries the
        # service; BaseHTTPRequestHandler types ``server`` as BaseServer.
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
        self._send_json(route, 200, {"result": encode_result(job.result)})


class FrontHandler(_JsonHandler):
    """Routes one HTTP connection onto the owning server's FrontService."""

    @property
    def front(self) -> "FrontService":
        return cast("FrontService", getattr(self.server, "front"))

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
