"""End-to-end tests for the HTTP evaluation service.

The service promise: responses are bit-identical to a direct
``Session.evaluate`` of the same request (the transport adds queuing,
never arithmetic), overload is an explicit 429 with ``Retry-After`` rather
than unbounded queuing, shutdown resolves every admitted request (503, no
deadlocks), and ``/metrics`` counters satisfy their conservation
invariants at all times.
"""

from __future__ import annotations

import http.client
import os
import re
import socket
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.api import EvalRequest, Session, UnsupportedRequestError
from repro.eval.runner import ScoreCache
from repro.serve import (
    EvalServer,
    EvalService,
    ModelRegistry,
    RequestRejectedError,
    ServeClient,
    ServeConfig,
    ServeError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.serve.handlers import MAX_BODY_BYTES, _JsonHandler


@pytest.fixture(scope="module")
def registry(tiny_context) -> ModelRegistry:
    return ModelRegistry.from_context(tiny_context, methods=("tea",))


@pytest.fixture(scope="module")
def server(registry):
    config = ServeConfig(port=0, workers=2, queue_depth=16, batch_max=8)
    with EvalServer(registry, config) as running:
        yield running


@pytest.fixture(scope="module")
def client(server) -> ServeClient:
    return ServeClient(port=server.port, timeout=120.0)


def _direct(registry, **kwargs) -> EvalRequest:
    kwargs.setdefault("dataset", registry.dataset("test"))
    return EvalRequest(model=registry.model("tea"), **kwargs)


def assert_metrics_invariants(metrics):
    requests = metrics["requests"]
    assert requests["received"] == requests["admitted"] + requests["rejected"]
    assert (
        requests["admitted"]
        == requests["completed"] + requests["failed"] + requests["in_flight"]
    )
    assert requests["queue_depth"] >= 0
    p50, p95 = requests["latency_p50_seconds"], requests["latency_p95_seconds"]
    if p50 is not None:
        assert p50 <= p95


# ----------------------------------------------------------------------
# correctness: service responses == direct Session.evaluate, bit for bit
# ----------------------------------------------------------------------
def test_served_result_bit_identical_to_direct_session(registry, client):
    served = client.evaluate(
        model="tea", copy_levels=[1, 2], spf_levels=[1, 2], repeats=2, seed=0
    )
    direct = Session(cache=ScoreCache()).evaluate(
        _direct(registry, copy_levels=(1, 2), spf_levels=(1, 2), repeats=2, seed=0)
    )
    assert served.backend == direct.backend
    assert np.array_equal(served.scores, direct.scores)
    assert np.array_equal(served.accuracy, direct.accuracy)
    assert np.array_equal(served.labels, direct.labels)
    assert np.array_equal(served.class_counts(), direct.class_counts())


@pytest.mark.parametrize(
    "backend, options",
    [
        ("vectorized", {}),
        ("reference", {}),
        ("chip", {"collect_spike_counters": True}),
        ("board", {"link_delay": 1}),
    ],
)
def test_served_result_equals_direct_field_by_field(registry, client, backend, options):
    """Every field of a served result, dtypes included, is the direct one:
    the wire sends counts and the client rebuilds ``counts / n_k``."""
    grid = dict(copy_levels=(1, 2), spf_levels=(1, 3), repeats=2, seed=17)
    served = client.evaluate(
        model="tea", backend=backend, max_samples=12, **grid, **options
    )
    direct = Session(backend=backend, cache=ScoreCache()).evaluate(
        _direct(registry, max_samples=12, **grid, **options)
    )
    for name in ("backend", "copy_levels", "spf_levels", "seed", "repeats"):
        assert getattr(served, name) == getattr(direct, name), name
    arrays = ["scores", "accuracy", "labels", "class_neuron_counts", "cores"]
    if direct.spike_counters is None:
        assert served.spike_counters is None
    else:
        arrays.append("spike_counters")
    for name in arrays:
        mine, theirs = getattr(served, name), getattr(direct, name)
        assert mine.dtype == theirs.dtype, name
        assert mine.shape == theirs.shape, name
        assert mine.tobytes() == theirs.tobytes(), name


def test_served_chip_request_bit_identical_including_counters(registry, client):
    served = client.evaluate(
        model="tea",
        copy_levels=[1, 2],
        spf_levels=[2],
        seed=0,
        collect_spike_counters=True,
        max_samples=20,
    )
    direct = Session().evaluate(
        _direct(
            registry,
            copy_levels=(1, 2),
            spf_levels=(2,),
            seed=0,
            collect_spike_counters=True,
            max_samples=20,
        )
    )
    assert served.backend == "chip"  # capability-routed, as in Session auto
    assert np.array_equal(served.class_counts(), direct.class_counts())
    assert np.array_equal(served.spike_counters, direct.spike_counters)


def test_served_multicopy_stochastic_chip_bit_identical(registry, client):
    """The multi-copy chip backend is directly servable, bit for bit.

    ``stochastic_synapses`` is chip-only, so the service's ``auto`` session
    must route this to the chip backend, which serves all requested copies
    through one multi-copy chip image with per-copy LFSR streams; the
    served tensors (scores, exact integer class counts, per-core spike
    counters) must equal a direct ``Session.evaluate`` bit for bit.
    """
    kwargs = dict(
        copy_levels=(1, 3),
        spf_levels=(2,),
        seed=7,
        stochastic_synapses=True,
        collect_spike_counters=True,
        max_samples=16,
    )
    served = client.evaluate(
        model="tea", **{**kwargs, "copy_levels": [1, 3], "spf_levels": [2]}
    )
    direct = Session().evaluate(_direct(registry, **kwargs))
    assert served.backend == "chip"
    assert np.array_equal(served.scores, direct.scores)
    assert np.array_equal(served.class_counts(), direct.class_counts())
    assert np.array_equal(served.spike_counters, direct.spike_counters)
    assert served.spike_counters.shape[1] == 3  # copies axis, validated


def test_served_board_request_bit_identical(registry, client):
    """``link_delay`` is board-only, so the service's ``auto`` session must
    route it to the board backend and the served tensors must equal a
    direct evaluation bit for bit."""
    kwargs = dict(
        copy_levels=(1, 2),
        spf_levels=(1,),
        seed=3,
        link_delay=1,
        collect_spike_counters=True,
        max_samples=12,
    )
    served = client.evaluate(
        model="tea", **{**kwargs, "copy_levels": [1, 2], "spf_levels": [1]}
    )
    direct = Session().evaluate(_direct(registry, **kwargs))
    assert served.backend == "board"
    assert np.array_equal(served.scores, direct.scores)
    assert np.array_equal(served.class_counts(), direct.class_counts())
    assert np.array_equal(served.spike_counters, direct.spike_counters)


def test_concurrent_burst_all_bit_identical(registry, client):
    """Mixed concurrent sub-grid requests: every response stays exact."""
    grids = [((1,), (1, 2)), ((1, 2), (2,)), ((2,), (1,)), ((1, 2), (1, 2))]
    results = {}
    errors = []

    def fire(index, grid):
        copy_levels, spf_levels = grid
        try:
            results[index] = client.evaluate(
                model="tea",
                copy_levels=list(copy_levels),
                spf_levels=list(spf_levels),
                repeats=1,
                seed=0,
            )
        except Exception as error:  # pragma: no cover - failure reporting
            errors.append(error)

    threads = [
        threading.Thread(target=fire, args=(i, grid))
        for i, grid in enumerate(grids * 2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors
    assert len(results) == len(grids) * 2
    session = Session(cache=ScoreCache())
    for index, grid in enumerate(grids * 2):
        copy_levels, spf_levels = grid
        direct = session.evaluate(
            _direct(
                registry, copy_levels=copy_levels, spf_levels=spf_levels, seed=0
            )
        )
        assert np.array_equal(results[index].scores, direct.scores)


# ----------------------------------------------------------------------
# introspection endpoints
# ----------------------------------------------------------------------
def test_models_endpoint_lists_hosted_entries(client):
    listing = client.models()
    names = [entry["name"] for entry in listing["models"]]
    assert "tea" in names
    datasets = [entry["name"] for entry in listing["datasets"]]
    assert "test" in datasets
    assert set(listing["backends"]) >= {"vectorized", "chip", "reference"}


def test_healthz_reports_ok(client):
    health = client.health()
    assert health["status"] == "ok"
    assert health["workers"] == 2


def test_metrics_invariants_after_traffic(client):
    client.evaluate(model="tea", copy_levels=[1], spf_levels=[1], seed=3)
    metrics = client.metrics()
    assert_metrics_invariants(metrics)
    assert metrics["requests"]["completed"] >= 1
    assert "POST /v1/evaluate 200" in metrics["http"]


def test_repeated_request_is_a_cache_hit(client):
    # The repeat is served without recomputation by one of the two cache
    # tiers: the result memo (any backend) or the score cache (vectorized).
    before = client.metrics()
    client.evaluate(model="tea", copy_levels=[1, 2], spf_levels=[1], seed=11)
    client.evaluate(model="tea", copy_levels=[1, 2], spf_levels=[1], seed=11)
    after = client.metrics()
    served_before = before["cache"]["hits"] + before["memo"]["hits"]
    served_after = after["cache"]["hits"] + after["memo"]["hits"]
    assert served_after >= served_before + 1
    assert after["memo"]["hit_rate"] > 0 or after["cache"]["hit_rate"] > 0


# ----------------------------------------------------------------------
# typed errors over the wire
# ----------------------------------------------------------------------
def test_unknown_field_is_a_400_validation_error(client):
    with pytest.raises(RequestRejectedError) as excinfo:
        client.evaluate_payload({"model": "tea", "copy_level": [1]})
    assert excinfo.value.status == 400
    assert excinfo.value.error_type == "request-validation"


def test_unknown_model_is_a_404(client):
    with pytest.raises(RequestRejectedError) as excinfo:
        client.evaluate(model="nope")
    assert excinfo.value.status == 404
    assert excinfo.value.error_type == "unknown-model"


def test_value_range_violation_is_a_400(client):
    with pytest.raises(RequestRejectedError) as excinfo:
        client.evaluate(model="tea", repeats=0)
    assert excinfo.value.status == 400


def test_unsupported_request_raises_the_session_exception_type(client):
    """Chip-only flags on the vectorized backend: same error as in-process."""
    with pytest.raises(UnsupportedRequestError, match="cycle-accurate"):
        client.evaluate(
            model="tea",
            backend="vectorized",
            spf_levels=[1],
            collect_spike_counters=True,
        )


def test_unknown_route_is_a_404(client):
    with pytest.raises(ServeError) as excinfo:
        client._call("GET", "/v2/evaluate")
    assert excinfo.value.status == 404


def test_result_the_wire_cannot_rebuild_is_a_500(client):
    """Scores one ulp off ``counts / n_k`` would decode to other bits: the
    replica answers a typed 500, not a 400 and not a dropped socket."""
    from repro.api import VectorizedBackend, register_backend
    from repro.api import backends as backends_module

    class OffByOneUlp(VectorizedBackend):
        name = "off-by-one-ulp-test-backend"

        def evaluate(self, request):
            result = super().evaluate(request)
            return replace(result, scores=np.nextafter(result.scores, np.inf))

    register_backend(OffByOneUlp.name, OffByOneUlp)
    try:
        with pytest.raises(ServeError) as excinfo:
            client.evaluate(model="tea", backend=OffByOneUlp.name, seed=3)
    finally:
        del backends_module._REGISTRY[OffByOneUlp.name]
    assert excinfo.value.status == 500
    assert excinfo.value.error_type == "internal-error"
    assert "bit for bit" in str(excinfo.value)


# ----------------------------------------------------------------------
# peers that stall or hang up mid-request
# ----------------------------------------------------------------------
#: A request promising 100 body bytes that sends only the first one.
_SHORT_POST = (
    b"POST /v1/evaluate HTTP/1.1\r\nHost: localhost\r\n"
    b"Content-Type: application/json\r\nContent-Length: 100\r\n\r\n{"
)


def test_stalled_peer_is_dropped_while_others_are_served(server, client, monkeypatch):
    """Without a socket timeout the stalled peer held its handler thread
    until it hung up itself."""
    assert 0 < _JsonHandler.timeout <= 60
    monkeypatch.setattr(_JsonHandler, "timeout", 0.5)
    address = ("127.0.0.1", server.port)
    with socket.create_connection(address, timeout=10.0) as stalled:
        stalled.sendall(_SHORT_POST)
        result = client.evaluate(model="tea", copy_levels=[1], spf_levels=[1], seed=3)
        assert result.seed == 3
        assert stalled.recv(1024) == b""  # closed, and nothing answered


def test_body_cut_short_is_not_answered(server):
    """A peer that hangs up mid-body used to get its one byte parsed and
    answered 400 (a ``BrokenPipeError`` once the socket was fully closed)."""
    address = ("127.0.0.1", server.port)
    with socket.create_connection(address, timeout=10.0) as peer:
        peer.sendall(_SHORT_POST)
        peer.shutdown(socket.SHUT_WR)
        assert peer.recv(1024) == b""


# ----------------------------------------------------------------------
# kept-alive connections: unread bodies and closed servers
# ----------------------------------------------------------------------
#: A whole request, sent where the server expects body bytes it won't read.
_SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n"


def _read_until_closed(peer: socket.socket) -> bytes:
    """Everything the server sends before it closes (or resets) ``peer``."""
    chunks = []
    while True:
        try:
            chunk = peer.recv(65536)
        except ConnectionResetError:
            break
        if not chunk:
            break
        chunks.append(chunk)
    return b"".join(chunks)


@pytest.mark.parametrize(
    "path, length",
    [("/v1/evaluate", MAX_BODY_BYTES + 1), ("/v2/evaluate", len(_SMUGGLED))],
    ids=["oversize-body", "unknown-path"],
)
def test_unread_body_closes_the_connection(server, path, length):
    """On a kept-alive connection, body bytes the server did not read would
    parse as the next request: here, a smuggled ``GET /healthz``."""
    head = f"POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n"
    address = ("127.0.0.1", server.port)
    with socket.create_connection(address, timeout=10.0) as peer:
        peer.sendall(head.encode("ascii") + _SMUGGLED)
        answer = _read_until_closed(peer)
    assert len(re.findall(rb"HTTP/1\.1 \d{3} ", answer)) == 1
    head_lines = answer.partition(b"\r\n\r\n")[0].split(b"\r\n")
    assert head_lines[0].split()[1] in (b"400", b"404")
    assert b"Connection: close" in head_lines[1:]


def test_closed_server_answers_nothing_on_an_old_connection(registry):
    """A kept-alive connection used to outlive ``EvalServer.close()``: its
    handler waited up to 30 s for the next request and answered it from
    the closed service, a 503."""
    server = EvalServer(registry, ServeConfig(port=0, workers=1, queue_depth=4))
    server.start()
    used = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10.0)
    unused = socket.create_connection(("127.0.0.1", server.port), timeout=10.0)
    try:
        used.request("GET", "/healthz")
        response = used.getresponse()
        assert response.status == 200 and not response.will_close
        response.read()
        server.close()
        # The idle handler is released at once: its peer reads end-of-file.
        assert _read_until_closed(used.sock) == b""
        request = (
            b"POST /v1/evaluate HTTP/1.1\r\nHost: localhost\r\n"
            b'Content-Length: 16\r\n\r\n{"model": "tea"}'
        )
        for peer in (used.sock, unused):
            try:
                peer.sendall(request)
            except ConnectionError:
                continue  # reset before the write: answered nothing either
            assert _read_until_closed(peer) == b""
    finally:
        used.close()
        unused.close()
        server.close()


# ----------------------------------------------------------------------
# coalescing through the queue (deterministic: enqueue before starting)
# ----------------------------------------------------------------------
def test_queued_same_fingerprint_requests_coalesce(registry):
    service = EvalService(
        registry, ServeConfig(workers=1, queue_depth=16, batch_max=8)
    )
    jobs = [
        service.enqueue(
            {
                "model": "tea",
                "copy_levels": copy_levels,
                "spf_levels": [1, 2],
                "seed": 5,
            }
        )
        # Same grid maxima (the coalescing key), different reported
        # sub-levels — the coalescing win is many sub-grid reads per pass.
        for copy_levels in ([2], [1, 2], [1, 2])
    ]
    service.start()  # single worker claims all three in one batch
    try:
        for job in jobs:
            assert job.done.wait(timeout=120)
            assert job.error is None
        metrics = service.metrics()
        assert metrics["sessions"]["engine_passes"] == 1
        assert metrics["sessions"]["coalesced_requests"] == 2
        assert_metrics_invariants(metrics)
    finally:
        service.close()


# ----------------------------------------------------------------------
# overload and shutdown: explicit 429 / 503, never a deadlock
# ----------------------------------------------------------------------
def test_overload_returns_429_and_shutdown_resolves_queued_jobs(registry):
    """workers=0 freezes the pool, so shedding is exactly deterministic."""
    config = ServeConfig(port=0, workers=0, queue_depth=2)
    server = EvalServer(registry, config).start()
    client = ServeClient(port=server.port, timeout=60.0)
    outcomes = {}

    def fire(index):
        try:
            outcomes[index] = client.evaluate(model="tea", seed=index)
        except Exception as error:
            outcomes[index] = error

    hung = []
    try:
        # Fill the bounded queue: these two are admitted and (with no
        # workers) wait forever.
        for index in range(2):
            thread = threading.Thread(target=fire, args=(index,))
            thread.start()
            hung.append(thread)
        deadline = threading.Event()
        for _ in range(100):
            if client.metrics()["requests"]["queue_depth"] == 2:
                break
            deadline.wait(0.05)
        assert client.metrics()["requests"]["queue_depth"] == 2

        with pytest.raises(ServiceOverloadedError) as excinfo:
            client.evaluate(model="tea", seed=99)
        assert excinfo.value.retry_after >= 1

        metrics = client.metrics()
        assert metrics["requests"]["rejected"] == 1
        assert metrics["requests"]["admitted"] == 2
        assert_metrics_invariants(metrics)
    finally:
        server.close()
        for thread in hung:
            thread.join(timeout=30)
    assert all(not thread.is_alive() for thread in hung)
    for index in range(2):
        assert isinstance(outcomes[index], ServiceUnavailableError)
        assert outcomes[index].error_type == "shutting-down"


def test_request_timeout_answers_504(registry):
    config = ServeConfig(port=0, workers=0, queue_depth=4, request_timeout=0.1)
    with EvalServer(registry, config) as server:
        client = ServeClient(port=server.port, timeout=60.0)
        with pytest.raises(ServeError) as excinfo:
            client.evaluate(model="tea", seed=0)
        assert excinfo.value.status == 504
        assert excinfo.value.error_type == "timeout"


# ----------------------------------------------------------------------
# durable tier: result memo, warm restart
# ----------------------------------------------------------------------
def test_repeated_chip_request_served_from_memo(registry):
    """The result memo covers backends the score cache never touches."""
    config = ServeConfig(port=0, workers=1, queue_depth=8)
    with EvalServer(registry, config) as running:
        client = ServeClient(port=running.port, timeout=120.0)
        kwargs = dict(
            model="tea",
            copy_levels=[1],
            spf_levels=[2],
            seed=4,
            collect_spike_counters=True,
            max_samples=12,
        )
        first = client.evaluate(**kwargs)
        passes_before = client.metrics()["sessions"]["engine_passes"]
        second = client.evaluate(**kwargs)
        metrics = client.metrics()
        assert first.backend == "chip"
        assert np.array_equal(first.scores, second.scores)
        assert np.array_equal(first.class_counts(), second.class_counts())
        assert metrics["sessions"]["engine_passes"] == passes_before
        assert metrics["memo"]["hits"] >= 1


def test_restart_on_cache_dir_answers_burst_without_engine_passes(registry, tmp_path):
    """Kill-and-restart durability: the result store warms the next boot.

    A server answers a vectorized, a chip and a board burst, is torn down,
    and a fresh server on the same cache directory must boot without any
    engine pass and answer the repeated burst bit-identically, again
    without one.
    """
    config = ServeConfig(
        port=0, workers=2, queue_depth=16, cache_dir=str(tmp_path / "results")
    )
    burst = [
        dict(model="tea", copy_levels=[1, 2], spf_levels=[1], seed=21),
        dict(
            model="tea",
            copy_levels=[1],
            spf_levels=[2],
            seed=21,
            collect_spike_counters=True,
            max_samples=12,
        ),
        dict(
            model="tea",
            copy_levels=[1, 2],
            spf_levels=[1, 2],
            seed=21,
            link_delay=1,
            max_samples=12,
        ),
    ]
    with EvalServer(registry, config) as running:
        client = ServeClient(port=running.port, timeout=120.0)
        first_results = [client.evaluate(**kwargs) for kwargs in burst]
    assert [r.backend for r in first_results] == ["vectorized", "chip", "board"]

    # "Restart": a brand-new service state on the same directory.
    with EvalServer(registry, config) as revived:
        client = ServeClient(port=revived.port, timeout=120.0)
        assert client.metrics()["sessions"]["engine_passes"] == 0
        second_results = [client.evaluate(**kwargs) for kwargs in burst]
        metrics = client.metrics()
        assert metrics["sessions"]["engine_passes"] == 0
        assert metrics["memo"]["disk"]["hits"] == len(burst)
        assert_metrics_invariants(metrics)
    for first, second in zip(first_results, second_results):
        assert first.backend == second.backend
        assert np.array_equal(first.scores, second.scores)
        assert np.array_equal(first.accuracy, second.accuracy)
        if first.spike_counters is None:
            assert second.spike_counters is None
        else:
            assert np.array_equal(first.spike_counters, second.spike_counters)


def test_config_rejects_cache_max_bytes_without_cache_dir():
    with pytest.raises(ValueError, match="cache_dir"):
        ServeConfig(cache_max_bytes=1 << 20)


def test_config_rejects_nonpositive_cache_max_bytes(tmp_path):
    with pytest.raises(ValueError, match="positive"):
        ServeConfig(cache_dir=str(tmp_path), cache_max_bytes=0)


def test_cli_refuses_to_start_on_an_invalid_cache_bound(tmp_path, capsys):
    from repro.serve.__main__ import main

    argv = ["--port", "0", "--cache-dir", str(tmp_path), "--cache-max-bytes", "0"]
    assert main(argv) == 2
    assert "cache_max_bytes must be positive" in capsys.readouterr().err


def test_serve_cli_import_does_not_load_scipy():
    """scipy is loaded only to train; a front never trains."""
    script = "import sys, repro.serve.__main__; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert result.stdout.strip() == "False"


def test_client_retry_honours_retry_after_hint(registry):
    """evaluate_with_retry sleeps the server's drain estimate, then wins."""
    config = ServeConfig(port=0, workers=2, queue_depth=2)
    with EvalServer(registry, config) as running:
        client = ServeClient(port=running.port, timeout=120.0)
        naps = []

        # Saturate the queue briefly with a slow-ish burst, then retry in
        # the middle of it; the retry client must eventually succeed and
        # every nap must be a positive, clamped Retry-After hint.
        def fire(seed):
            try:
                client.evaluate(model="tea", seed=seed, repeats=2)
            except ServiceOverloadedError:
                pass

        threads = [
            threading.Thread(target=fire, args=(seed,)) for seed in range(6)
        ]
        for thread in threads:
            thread.start()
        result = client.evaluate_with_retry(
            {"model": "tea", "seed": 99},
            retries=50,
            sleep=lambda seconds: naps.append(seconds) or None,
        )
        for thread in threads:
            thread.join(timeout=120)
        assert result.seed == 99
        assert all(1.0 <= nap <= 60.0 for nap in naps)
