"""Stdlib HTTP client for the evaluation service.

:class:`ServeClient` speaks the wire protocol of :mod:`repro.serve.codec`
and hands back real :class:`~repro.api.protocol.EvalResult` objects, so
caller code is identical whether it scores through a local
:class:`~repro.api.Session` or over the network — including errors: an
``unsupported-request`` payload re-raises the same
:class:`~repro.api.protocol.UnsupportedRequestError` a local session would
have raised.

Typed failures:

* :class:`ServiceOverloadedError` — 429, carries ``retry_after`` seconds;
* :class:`RequestRejectedError` — 400/404 validation and lookup failures;
* :class:`ServiceUnavailableError` — 503 shutdown / connection refused;
* :class:`ServeError` — anything else (500, 504, malformed responses).

:class:`ConnectionPool` keeps HTTP/1.1 connections alive between calls;
the client and the front router (:mod:`repro.serve.front`) make every
call through one.
"""

from __future__ import annotations

import json
import threading
import time
from http.client import HTTPConnection, HTTPException, HTTPMessage
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import EvalResult, UnsupportedRequestError
from repro.serve.codec import RESULT_CONTENT_TYPE, CodecError, decode_result
from repro.utils.rng import RngLike, new_rng

#: ``(status, headers, body)`` of one HTTP exchange.
Exchange = Tuple[int, HTTPMessage, bytes]

#: ``(host, port)`` of one service.
Target = Tuple[str, int]


class ConnectionPool:
    """Idle kept-alive HTTP/1.1 connections, per ``(host, port)`` target.

    :meth:`request` makes one exchange on an idle connection when there is
    one, else on a new one.  The connection goes back to the pool only
    after its response was read in full and did not ask to close.

    A reused connection that raises a ``ConnectionError`` (this includes
    ``http.client.RemoteDisconnected``) before the answer's status line is
    *stale*: the server closed it while it sat idle, because it restarted
    or the connection idled past the server's timeout.  The pool then
    drops every idle connection to that target, which are as old, and
    retries once on a new connection; evaluation is deterministic for a
    given request, so one retry is safe.  A timeout is never retried, and
    a failure on a new connection propagates: that is the caller's
    transport failure.

    Safe to share across threads: a connection in use is out of the pool.
    """

    def __init__(self) -> None:
        self._idle: Dict[Target, List[HTTPConnection]] = {}  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self._lock = threading.Lock()

    def request(
        self,
        host: str,
        port: int,
        method: str,
        path: str,
        body: Optional[bytes],
        timeout: float,
    ) -> Exchange:
        """One exchange with ``host:port``; a JSON ``body`` when given.

        Raises what ``http.client`` raises: ``OSError`` when the target is
        unreachable or times out, ``HTTPException`` when the answer is
        torn off.
        """
        target = (host, port)
        with self._lock:
            idle = self._idle.get(target)
            connection = idle.pop() if idle else None
        if connection is not None:
            if connection.sock is not None:
                connection.sock.settimeout(timeout)
            answer = self._exchange(target, connection, method, path, body, reused=True)
            if answer is not None:
                return answer
            self.drop(host, port)
        connection = HTTPConnection(host, port, timeout=timeout)
        answer = self._exchange(target, connection, method, path, body, reused=False)
        assert answer is not None  # only a reused connection is stale
        return answer

    def _exchange(
        self,
        target: Target,
        connection: HTTPConnection,
        method: str,
        path: str,
        body: Optional[bytes],
        reused: bool,
    ) -> Optional[Exchange]:
        """Send, read the whole answer; ``None`` when ``reused`` was stale."""
        headers = {} if body is None else {"Content-Type": "application/json"}
        try:
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
            except ConnectionError:
                if reused:
                    connection.close()
                    return None
                raise
            data = response.read()
        except BaseException:
            connection.close()
            raise
        with self._lock:
            keep = not (response.will_close or self._closed)
            if keep:
                self._idle.setdefault(target, []).append(connection)
        if not keep:
            connection.close()
        return response.status, response.msg, data

    def drop(self, host: str, port: int) -> None:
        """Close every idle connection to ``host:port``."""
        with self._lock:
            idle = self._idle.pop((host, port), [])
        for connection in idle:
            connection.close()

    def close(self) -> None:
        """Close every idle connection; later check-ins close too."""
        with self._lock:
            self._closed = True
            idle = [
                connection for pooled in self._idle.values() for connection in pooled
            ]
            self._idle.clear()
        for connection in idle:
            connection.close()


class ServeError(RuntimeError):
    """A service call failed.

    Attributes:
        status: HTTP status code (0 when the connection itself failed).
        error_type: the payload's ``type`` discriminator.
    """

    def __init__(
        self, message: str, status: int = 0, error_type: str = "unknown"
    ) -> None:
        super().__init__(message)
        self.status = status
        self.error_type = error_type


class ServiceOverloadedError(ServeError):
    """429 — the admission queue shed this request; retry later."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message, status=429, error_type="overloaded")
        self.retry_after = retry_after


class RequestRejectedError(ServeError):
    """400/404 — the request itself is invalid or names unknown entities."""


class ServiceUnavailableError(ServeError):
    """The service is unreachable or shutting down."""


class ServeClient:
    """Minimal blocking client over kept-alive HTTP/1.1 connections.

    Every call goes through one :class:`ConnectionPool`, so calls to one
    target reuse a warm connection instead of opening one each.  The
    client is safe to share across threads; :meth:`close` (or leaving a
    ``with`` block) closes its idle connections.

    Args:
        host / port: service address (the preferred target).
        timeout: socket timeout per call — must exceed the service's own
            ``request_timeout`` (default 300 s) or a slow evaluation reads
            as a dead socket right when the server is about to answer its
            typed 504; hence the 330 s default margin.
        fallbacks: additional ``(host, port)`` base URLs tried in order
            when the preferred target is unreachable (connection refused /
            reset / socket timeout / an answer torn off mid-read — *not*
            HTTP-level failures, which are real answers, and not a stale
            kept-alive connection, which the pool retries).  A target that
            answers is promoted and stays preferred until it too fails, so
            a client pointed at a front router plus its replicas rides out
            a router restart without hammering dead sockets on every call.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8000,
        timeout: float = 330.0,
        fallbacks: Sequence[Tuple[str, int]] = (),
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._targets: List[Tuple[str, int]] = [(host, port)]  # guarded-by: _targets_lock
        for fallback_host, fallback_port in fallbacks:
            self._targets.append((str(fallback_host), int(fallback_port)))
        self._targets_lock = threading.Lock()
        self._pool = ConnectionPool()

    def close(self) -> None:
        """Close the idle connections; later calls keep none open."""
        self._pool.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def evaluate(
        self,
        model: str,
        dataset: str = "test",
        backend: Optional[str] = None,
        copy_levels: Sequence[int] = (1,),
        spf_levels: Sequence[int] = (1,),
        repeats: int = 1,
        seed: Optional[int] = 0,
        encoder: str = "stochastic",
        max_samples: Optional[int] = None,
        collect_spike_counters: bool = False,
        router_delay: Optional[int] = None,
        stochastic_synapses: bool = False,
        link_delay: Optional[int] = None,
    ) -> EvalResult:
        """``POST /v1/evaluate`` and decode the result tensor-exactly."""
        payload = {
            "model": model,
            "dataset": dataset,
            "backend": backend,
            "copy_levels": list(copy_levels),
            "spf_levels": list(spf_levels),
            "repeats": repeats,
            "seed": seed,
            "encoder": encoder,
            "max_samples": max_samples,
            "collect_spike_counters": collect_spike_counters,
            "router_delay": router_delay,
            "stochastic_synapses": stochastic_synapses,
            "link_delay": link_delay,
        }
        return self.evaluate_payload(payload)

    def evaluate_payload(self, payload: Dict[str, object]) -> EvalResult:
        """``POST /v1/evaluate`` with a raw wire payload."""
        status, headers, body = self._http("POST", "/v1/evaluate", payload)
        if status != 200:
            raise self._error_for(status, headers, self._json(body))
        content_type = headers.get("Content-Type")
        if content_type != RESULT_CONTENT_TYPE:
            raise ServeError(
                f"a 200 answer must be a result frame, got {content_type!r}",
                status=200,
            )
        try:
            return decode_result(body)
        except CodecError as error:
            raise ServeError(f"undecodable result frame: {error}") from error

    def evaluate_with_retry(
        self,
        payload: Dict[str, object],
        retries: int = 5,
        max_backoff: float = 60.0,
        sleep: Callable[[float], None] = time.sleep,
        rng: RngLike = None,
    ) -> EvalResult:
        """``evaluate_payload`` with jittered 429 ``Retry-After`` back-off.

        A shed request naps at least the server's own drain estimate, then
        retries, up to ``retries`` retries; the final
        :class:`ServiceOverloadedError` propagates when the service stays
        saturated.  Other failures propagate immediately — only overload
        is retryable by construction.

        The nap is *decorrelated-jittered*, never the bare hint: a shed
        burst of clients all receive the same ``Retry-After`` estimate,
        and sleeping it exactly makes the whole herd retry in lockstep and
        re-saturate the queue it just drained.  Each nap is drawn
        uniformly from ``[hint, max(hint, 3 x previous nap)]`` (AWS-style
        decorrelated jitter) and clamped to ``max_backoff`` — so retries
        spread out in time while never arriving before the server said the
        backlog could drain.  ``sleep`` and ``rng`` are injectable so
        tests drive the back-off deterministically without real waiting.
        """
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        generator = new_rng(rng)
        attempt = 0
        previous: Optional[float] = None
        while True:
            try:
                return self.evaluate_payload(payload)
            except ServiceOverloadedError as error:
                attempt += 1
                if attempt > retries:
                    raise
                hint = min(max_backoff, max(0.0, error.retry_after))
                if previous is None:
                    previous = hint
                nap = min(
                    max_backoff,
                    float(generator.uniform(hint, max(hint, 3.0 * previous))),
                )
                previous = nap
                sleep(nap)

    def models(self) -> Dict[str, object]:
        """``GET /v1/models``."""
        return self._call("GET", "/v1/models")

    def fleet(self) -> Dict[str, object]:
        """``GET /v1/fleet`` — front routers only (replicas answer 404)."""
        return self._call("GET", "/v1/fleet")

    def health(self) -> Dict[str, object]:
        """``GET /healthz``."""
        return self._call("GET", "/healthz")

    def metrics(self) -> Dict[str, object]:
        """``GET /metrics``."""
        return self._call("GET", "/metrics")

    # ------------------------------------------------------------------
    def _call(
        self, method: str, path: str, payload: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        status, headers, raw = self._http(method, path, payload)
        body = self._json(raw)
        if status == 200:
            if not isinstance(body, dict):
                raise ServeError(f"non-object 200 response: {body!r}", status=200)
            return body
        raise self._error_for(status, headers, body)

    def _http(
        self, method: str, path: str, payload: Optional[Dict[str, object]]
    ) -> Exchange:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        with self._targets_lock:
            targets = list(self._targets)
        for index, (host, port) in enumerate(targets):
            try:
                answer = self._pool.request(
                    host, port, method, path, body, self.timeout
                )
            except (OSError, HTTPException) as error:
                # HTTPException: the answer was torn off (IncompleteRead,
                # BadStatusLine), which subclass neither OSError nor ServeError.
                if index + 1 < len(targets):
                    continue
                raise ServiceUnavailableError(
                    f"cannot reach {host}:{port}: {error}",
                    error_type="unreachable",
                ) from error
            if index > 0:
                # Promote the answering fallback: later calls should not
                # re-walk the dead prefix on every request.
                with self._targets_lock:
                    if (host, port) in self._targets:
                        self._targets.remove((host, port))
                        self._targets.insert(0, (host, port))
            return answer
        raise AssertionError("a client always has a target")

    @staticmethod
    def _json(raw: bytes) -> object:
        try:
            return json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            return {"raw": raw.decode("utf-8", errors="replace")}

    @staticmethod
    def _error_for(
        status: int, headers: HTTPMessage, body: object
    ) -> Exception:
        detail = body.get("error", {}) if isinstance(body, dict) else {}
        error_type = detail.get("type", "unknown")
        message = detail.get("message", f"HTTP {status}")
        if status == 429:
            retry_after = detail.get("retry_after", headers.get("Retry-After", 1))
            return ServiceOverloadedError(message, retry_after=float(retry_after))
        if error_type == "unsupported-request":
            # Parity with the in-process Session: same exception type.
            return UnsupportedRequestError(message)
        if status in (400, 404):
            return RequestRejectedError(message, status=status, error_type=error_type)
        if status == 503:
            return ServiceUnavailableError(
                message, status=status, error_type=error_type
            )
        return ServeError(message, status=status, error_type=error_type)
