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
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import EvalResult, UnsupportedRequestError
from repro.serve.codec import CodecError, decode_result
from repro.utils.rng import RngLike, new_rng


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
    """Minimal blocking client; one HTTP connection per call.

    Args:
        host / port: service address (the preferred target).
        timeout: socket timeout per call — must exceed the service's own
            ``request_timeout`` (default 300 s) or a slow evaluation reads
            as a dead socket right when the server is about to answer its
            typed 504; hence the 330 s default margin.
        fallbacks: additional ``(host, port)`` base URLs tried in order
            when the preferred target is unreachable (connection refused /
            reset / socket timeout / an answer torn off mid-read — *not*
            HTTP-level failures, which are real answers).  A target that
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
        body = self._call("POST", "/v1/evaluate", payload)
        if "result" not in body:
            raise ServeError("response is missing the 'result' field")
        try:
            return decode_result(body["result"])
        except CodecError as error:
            raise ServeError(f"undecodable result payload: {error}") from error

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
        status, headers, body = self._http(method, path, payload)
        if status == 200:
            if not isinstance(body, dict):
                raise ServeError(f"non-object 200 response: {body!r}", status=200)
            return body
        raise self._error_for(status, headers, body)

    def _http(
        self, method: str, path: str, payload: Optional[Dict[str, object]]
    ) -> Tuple[int, Dict[str, str], object]:
        with self._targets_lock:
            targets = list(self._targets)
        last_error: Optional[BaseException] = None
        for index, (host, port) in enumerate(targets):
            try:
                result = self._http_once(host, port, method, path, payload)
            except ServiceUnavailableError as error:
                last_error = error
                continue
            if index > 0:
                # Promote the answering fallback: later calls should not
                # re-walk the dead prefix on every request.
                with self._targets_lock:
                    if (host, port) in self._targets:
                        self._targets.remove((host, port))
                        self._targets.insert(0, (host, port))
            return result
        assert last_error is not None
        raise last_error

    def _http_once(
        self,
        host: str,
        port: int,
        method: str,
        path: str,
        payload: Optional[Dict[str, object]],
    ) -> Tuple[int, Dict[str, str], object]:
        connection = http.client.HTTPConnection(host, port, timeout=self.timeout)
        try:
            request_body = None
            request_headers = {}
            if payload is not None:
                request_body = json.dumps(payload).encode("utf-8")
                request_headers["Content-Type"] = "application/json"
            connection.request(method, path, body=request_body, headers=request_headers)
            response = connection.getresponse()
            raw = response.read()
            headers = {name.lower(): value for name, value in response.getheaders()}
            try:
                body = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, json.JSONDecodeError):
                body = {"raw": raw.decode("utf-8", errors="replace")}
            return response.status, headers, body
        except (OSError, http.client.HTTPException) as error:
            # HTTPException: the answer was torn off (IncompleteRead,
            # BadStatusLine), which subclass neither OSError nor ServeError.
            raise ServiceUnavailableError(
                f"cannot reach {host}:{port}: {error}",
                error_type="unreachable",
            ) from error
        finally:
            connection.close()

    @staticmethod
    def _error_for(
        status: int, headers: Dict[str, str], body: object
    ) -> Exception:
        detail = body.get("error", {}) if isinstance(body, dict) else {}
        error_type = detail.get("type", "unknown")
        message = detail.get("message", f"HTTP {status}")
        if status == 429:
            retry_after = detail.get("retry_after", headers.get("retry-after", 1))
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
