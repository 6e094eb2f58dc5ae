"""CI smoke: the HTTP evaluation service under a concurrent mixed burst.

Boots :class:`repro.serve.EvalServer` on an ephemeral port, fires a
concurrent burst of mixed vectorized/chip wire requests through
:class:`repro.serve.client.ServeClient`, and exits non-zero when any of the
service promises breaks:

* **bit-identity** — every served response equals a direct
  ``Session.evaluate`` of the same request, to the last bit (scores,
  accuracy, labels, integer class counts, chip spike counters);
* **overload** — a full admission queue answers 429 with ``Retry-After``
  and shutdown resolves every admitted request (no deadlock, no silent
  drop);
* **metrics** — the ``/metrics`` conservation invariants hold:
  ``received == admitted + rejected`` and
  ``admitted == completed + failed + in_flight``.

``--soak`` switches to the durability harness instead: a sustained mixed
burst (with client-side ``Retry-After`` back-off) driven through overload
against a server with a small static queue bound and a ``cache_dir``,
followed by a mid-run server restart on the same directory that must boot
without an engine pass and answer the repeated burst without a single
fresh engine pass — all while the ``/metrics`` conservation invariants
hold and the observed p95 stays within :data:`SOAK_P95_BOUND`.

``--soak --fleet N`` runs the *fleet* drill instead: N replicas sharing
one ``cache_dir`` behind one front router (:mod:`repro.serve.front`).  A
warm wave routes through the front (bit-identical to direct
``Session.evaluate``), then the hosted model's home replica is killed in
the middle of a concurrent burst of fresh seeds, once its admission queue
holds a job — the queued jobs answer 503 and must be absorbed by
deterministic failover (at least one) with **zero** client-visible 5xx
and exactly one ejection — then the victim restarts on its old port,
rejoins the ring, and the repeated warm burst must cost zero fresh engine
passes fleet-wide.
Throughout, the front's aggregated ``/metrics`` must conserve:
``received == admitted + rejected`` fleet-wide, and the front's own
``received == routed + shed + unavailable``.

Usage::

    PYTHONPATH=src python benchmarks/smoke_serve.py --output SMOKE_serve.json
    PYTHONPATH=src python benchmarks/smoke_serve.py --soak \
        --output SMOKE_serve_soak.json
    PYTHONPATH=src python benchmarks/smoke_serve.py --soak --fleet 3 \
        --output SMOKE_serve_fleet.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import threading
import time

import numpy as np

from repro.api import EvalRequest, Session
from repro.eval.runner import ScoreCache
from repro.experiments.runner import ExperimentContext
from repro.serve import (
    EvalServer,
    FrontConfig,
    FrontServer,
    ModelRegistry,
    ServeClient,
    ServeConfig,
    ServiceOverloadedError,
    ServiceUnavailableError,
)

#: Largest latency p95, in seconds, the soak accepts after its waves.
SOAK_P95_BOUND = 20.0


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--train-size", type=int, default=200, help="training samples for the model"
    )
    parser.add_argument("--epochs", type=int, default=2, help="training epochs")
    parser.add_argument(
        "--samples", type=int, default=40, help="evaluated samples per request"
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="service worker threads"
    )
    parser.add_argument(
        "--output", default=None, help="optional path for the JSON record"
    )
    parser.add_argument(
        "--soak",
        action="store_true",
        help="run the soak harness (overload + warm restart) instead of the "
        "plain smoke",
    )
    parser.add_argument(
        "--soak-waves",
        type=int,
        default=3,
        help="sustained burst waves before the mid-run restart",
    )
    parser.add_argument(
        "--fleet",
        type=int,
        default=0,
        help="with --soak: boot N replicas behind a front router and run "
        "the kill/restart fleet drill (0 = single-server soak)",
    )
    return parser.parse_args()


def burst_payloads(samples: int):
    """A mixed burst: vectorized grids (coalescible sub-grids) + chip requests."""
    payloads = []
    for copy_levels in ([1], [1, 2], [2], [1, 2]):
        payloads.append(
            {
                "model": "tea",
                "backend": "vectorized",
                "copy_levels": copy_levels,
                "spf_levels": [1, 2],
                "repeats": 2,
                "seed": 0,
                "max_samples": samples,
            }
        )
    for seed, collect in ((0, True), (1, False)):
        payloads.append(
            {
                "model": "tea",
                "backend": "chip",
                "copy_levels": [1, 2],
                "spf_levels": [2],
                "repeats": 1,
                "seed": seed,
                "max_samples": samples,
                "collect_spike_counters": collect,
            }
        )
    # auto-routed: the capability flags pick the chip backend server-side.
    payloads.append(
        {
            "model": "tea",
            "copy_levels": [2],
            "spf_levels": [1],
            "seed": 2,
            "max_samples": samples,
            "collect_spike_counters": True,
        }
    )
    return payloads


def check_metrics_invariants(metrics, failures, where: str) -> None:
    requests = metrics["requests"]
    if requests["received"] != requests["admitted"] + requests["rejected"]:
        failures.append(f"{where}: received != admitted + rejected ({requests})")
    if requests["admitted"] != (
        requests["completed"] + requests["failed"] + requests["in_flight"]
    ):
        failures.append(
            f"{where}: admitted != completed + failed + in_flight ({requests})"
        )
    p50 = requests["latency_p50_seconds"]
    p95 = requests["latency_p95_seconds"]
    if p50 is not None and p95 is not None and p50 > p95:
        failures.append(f"{where}: latency p50 {p50} > p95 {p95}")


def run_burst(server, registry, payloads, failures):
    """Fire all payloads concurrently, then re-check each against a direct
    Session.evaluate of the identical request."""
    client = ServeClient(port=server.port, timeout=600.0)
    responses = {}

    def fire(index, payload):
        try:
            responses[index] = client.evaluate_payload(payload)
        except Exception as error:
            responses[index] = error

    threads = [
        threading.Thread(target=fire, args=(index, payload))
        for index, payload in enumerate(payloads)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    seconds = time.perf_counter() - start
    if any(thread.is_alive() for thread in threads):
        failures.append("burst: a request thread is still alive (hang)")
        return seconds
    verify_bit_identical(responses, registry, payloads, failures, "burst")
    return seconds


def verify_bit_identical(responses, registry, payloads, failures, where):
    """Compare each served response against a direct Session.evaluate."""
    direct_session = Session(cache=ScoreCache())
    for index, payload in enumerate(payloads):
        served = responses.get(index)
        if isinstance(served, Exception):
            failures.append(f"{where} request {index} failed: {served!r}")
            continue
        request = EvalRequest(
            model=registry.model(payload["model"]),
            dataset=registry.dataset("test"),
            copy_levels=tuple(payload["copy_levels"]),
            spf_levels=tuple(payload["spf_levels"]),
            repeats=payload.get("repeats", 1),
            seed=payload["seed"],
            max_samples=payload.get("max_samples"),
            collect_spike_counters=payload.get("collect_spike_counters", False),
        )
        direct = direct_session.evaluate(request, backend=payload.get("backend"))
        if served.backend != direct.backend:
            failures.append(
                f"{where} request {index}: backend {served.backend!r} != "
                f"{direct.backend!r}"
            )
        for name in ("scores", "accuracy", "labels"):
            if not np.array_equal(getattr(served, name), getattr(direct, name)):
                failures.append(
                    f"{where} request {index}: served {name} diverged from "
                    "direct Session.evaluate"
                )
        if not np.array_equal(served.class_counts(), direct.class_counts()):
            failures.append(f"{where} request {index}: class counts diverged")
        if (served.spike_counters is None) != (direct.spike_counters is None):
            failures.append(f"{where} request {index}: spike counter presence differs")
        elif served.spike_counters is not None and not np.array_equal(
            served.spike_counters, direct.spike_counters
        ):
            failures.append(f"{where} request {index}: spike counters diverged")


def run_overload(registry, failures):
    """Deterministic shedding: a frozen pool (workers=0) with queue depth 2.

    Two admitted requests park in the queue, the rest of the burst must be
    shed with 429 + Retry-After, and closing the server must resolve the
    parked requests with 503 instead of leaving their clients hanging.
    """
    config = ServeConfig(port=0, workers=0, queue_depth=2)
    server = EvalServer(registry, config).start()
    client = ServeClient(port=server.port, timeout=120.0)
    outcomes = {}

    def fire(index):
        try:
            outcomes[index] = client.evaluate(model="tea", seed=index)
        except Exception as error:
            outcomes[index] = error

    parked = []
    try:
        for index in range(2):
            thread = threading.Thread(target=fire, args=(index,))
            thread.start()
            parked.append(thread)
        for _ in range(200):
            if client.metrics()["requests"]["queue_depth"] == 2:
                break
            time.sleep(0.02)
        else:
            failures.append("overload: queue never filled to depth 2")

        rejections = 0
        for index in range(2, 6):
            try:
                client.evaluate(model="tea", seed=index)
                failures.append(f"overload: request {index} was not shed")
            except ServiceOverloadedError as error:
                rejections += 1
                if error.retry_after < 1:
                    failures.append(
                        f"overload: Retry-After {error.retry_after} < 1s"
                    )
            except Exception as error:
                failures.append(f"overload: request {index} got {error!r}")
        if rejections != 4:
            failures.append(f"overload: expected 4 rejections, got {rejections}")
        metrics = client.metrics()
        check_metrics_invariants(metrics, failures, "overload")
        if metrics["requests"]["rejected"] != 4:
            failures.append(
                f"overload: /metrics rejected={metrics['requests']['rejected']}"
            )
    finally:
        server.close()
        for thread in parked:
            thread.join(timeout=30)
    if any(thread.is_alive() for thread in parked):
        failures.append("overload: a parked client is still waiting (hang)")
    for index in range(2):
        if not isinstance(outcomes.get(index), ServiceUnavailableError):
            failures.append(
                f"overload: parked request {index} resolved with "
                f"{outcomes.get(index)!r} instead of a 503"
            )


def soak_payloads(samples: int):
    """The smoke burst plus extra distinct-seed work, for sustained load."""
    payloads = burst_payloads(samples)
    for seed in (3, 4, 5, 6):
        payloads.append(
            {
                "model": "tea",
                "backend": "vectorized",
                "copy_levels": [1, 2],
                "spf_levels": [1, 2],
                "repeats": 1,
                "seed": seed,
                "max_samples": samples,
            }
        )
    return payloads


def run_soak_wave(server, payloads, failures, wave: str):
    """Fire every payload concurrently with Retry-After back-off.

    Returns the number of back-off naps the wave took (a lower bound on
    client-visible 429s — the server-side count is on ``/metrics``).
    """
    client = ServeClient(port=server.port, timeout=600.0)
    naps = []
    outcomes = {}

    def fire(index, payload):
        try:
            outcomes[index] = client.evaluate_with_retry(
                payload, retries=20, sleep=lambda s: (naps.append(s), time.sleep(s))
            )
        except Exception as error:
            outcomes[index] = error

    threads = [
        threading.Thread(target=fire, args=(index, payload))
        for index, payload in enumerate(payloads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    if any(thread.is_alive() for thread in threads):
        failures.append(f"{wave}: a request thread is still alive (hang)")
    for index in range(len(payloads)):
        if isinstance(outcomes.get(index), Exception):
            failures.append(
                f"{wave}: request {index} failed after retries: "
                f"{outcomes[index]!r}"
            )
    return len(naps)


def run_soak(registry, args, failures):
    """Overload -> sustained waves -> mid-run restart -> warm replay."""
    payloads = soak_payloads(args.samples)
    record = {"waves": args.soak_waves, "burst": len(payloads)}
    with tempfile.TemporaryDirectory(prefix="repro-serve-soak-") as workdir:
        cache_dir = os.path.join(workdir, "results")

        def make_config():
            return ServeConfig(
                port=0,
                workers=args.workers,
                queue_depth=4,  # small bound: wave 1 must overload
                cache_dir=cache_dir,
            )

        # --- phase 1: sustained waves through overload -----------------
        # Each wave fires every payload three times concurrently: enough
        # arrivals to overflow the depth-4 queue even while the workers
        # claim full batches off it.
        wave_payloads = payloads * 3
        record["wave_concurrency"] = len(wave_payloads)
        start = time.perf_counter()
        server = EvalServer(registry, make_config()).start()
        try:
            naps = 0
            for wave in range(args.soak_waves):
                naps += run_soak_wave(server, wave_payloads, failures, f"wave {wave}")
            client = ServeClient(port=server.port, timeout=60.0)
            metrics = client.metrics()
            check_metrics_invariants(metrics, failures, "soak")
            requests = metrics["requests"]
            if requests["rejected"] == 0:
                failures.append(
                    f"soak: the burst never overloaded the depth-4 queue ({requests})"
                )
            if requests["in_flight"] != 0:
                failures.append("soak: in_flight != 0 after the waves drained")
            p95 = requests["latency_p95_seconds"]
            if p95 is None or p95 > SOAK_P95_BOUND:
                failures.append(
                    f"soak: observed p95 {p95} outside the {SOAK_P95_BOUND}s bound"
                )
            record["soak_requests"] = requests
            record["client_backoff_naps"] = naps
        finally:
            server.close()
        record["soak_seconds"] = time.perf_counter() - start

        # --- phase 2: restart on the same cache_dir, replay the burst ---
        boot_start = time.perf_counter()
        server = EvalServer(registry, make_config()).start()
        record["restart_boot_seconds"] = time.perf_counter() - boot_start
        try:
            client = ServeClient(port=server.port, timeout=60.0)
            boot = client.metrics()
            record["boot_engine_passes"] = boot["sessions"]["engine_passes"]
            if boot["sessions"]["engine_passes"] != 0:
                failures.append(
                    f"restart: boot ran {boot['sessions']['engine_passes']} "
                    "engine passes"
                )
            passes_before = boot["sessions"]["engine_passes"]
            memo_hits_before = boot["memo"]["hits"]
            replay_client = ServeClient(port=server.port, timeout=600.0)
            responses = {}
            replay_start = time.perf_counter()
            for index, payload in enumerate(payloads):
                try:
                    responses[index] = replay_client.evaluate_with_retry(
                        payload, retries=20
                    )
                except Exception as error:
                    responses[index] = error
            record["replay_seconds"] = time.perf_counter() - replay_start
            verify_bit_identical(responses, registry, payloads, failures, "restart")
            after = client.metrics()
            check_metrics_invariants(after, failures, "restart")
            fresh_passes = after["sessions"]["engine_passes"] - passes_before
            if fresh_passes != 0:
                failures.append(
                    f"restart: repeated burst cost {fresh_passes} fresh "
                    "engine passes (the result store must cover it)"
                )
            if after["memo"]["hits"] <= memo_hits_before:
                failures.append("restart: the result memo never hit")
            record["memo"] = after["memo"]
            record["replay_engine_passes"] = fresh_passes
        finally:
            server.close()
    return record


def check_fleet_invariants(metrics, failures, where: str) -> None:
    """The aggregated conservation laws of the front's /metrics view."""
    fleet_requests = metrics["fleet"]["requests"]
    if fleet_requests["received"] != (
        fleet_requests["admitted"] + fleet_requests["rejected"]
    ):
        failures.append(
            f"{where}: fleet received != admitted + rejected ({fleet_requests})"
        )
    if fleet_requests["admitted"] != (
        fleet_requests["completed"]
        + fleet_requests["failed"]
        + fleet_requests["in_flight"]
    ):
        failures.append(
            f"{where}: fleet admitted != completed + failed + in_flight "
            f"({fleet_requests})"
        )
    front = metrics["front"]
    if front["received"] != front["routed"] + front["shed"] + front["unavailable"]:
        failures.append(
            f"{where}: front received != routed + shed + unavailable ({front})"
        )


def run_fleet_soak(registry, args, failures):
    """Warm wave -> mid-burst replica kill -> rejoin -> warm repeat."""
    payloads = soak_payloads(args.samples)
    record = {"fleet": args.fleet, "burst": len(payloads)}
    with tempfile.TemporaryDirectory(prefix="repro-serve-fleet-") as workdir:
        cache_dir = os.path.join(workdir, "results")

        def make_config(port: int = 0) -> ServeConfig:
            # One result store shared by every replica (its writes are
            # atomic by design), so a survivor serves the victim's results.
            return ServeConfig(
                port=port,
                workers=args.workers,
                queue_depth=16,
                cache_dir=cache_dir,
            )

        replicas = [
            EvalServer(registry, make_config()).start() for _ in range(args.fleet)
        ]
        ports = [replica.port for replica in replicas]
        front = FrontServer(
            FrontConfig(
                port=0,
                replicas=tuple(f"127.0.0.1:{port}" for port in ports),
                poll_interval=0.1,
                request_timeout=600.0,
            )
        ).start()
        client = ServeClient(port=front.port, timeout=600.0)
        # Seeds the warm wave never used: every kill-burst request runs an
        # engine pass, so the burst is still queued when the kill lands.
        burst = [
            dict(payload, seed=100 + index)
            for index, payload in enumerate(payloads * 2)
        ]
        threads = []
        try:
            # --- warm wave: every result lands in the shared store -----
            start = time.perf_counter()
            responses = {}
            for index, payload in enumerate(payloads):
                try:
                    responses[index] = client.evaluate_with_retry(
                        payload, retries=20
                    )
                except Exception as error:
                    responses[index] = error
            record["warm_seconds"] = time.perf_counter() - start
            verify_bit_identical(
                responses, registry, payloads, failures, "fleet warm"
            )

            primary = client.fleet()["assignments"]["tea"]
            victim = ports.index(int(primary.rsplit(":", 1)[1]))
            record["primary"] = primary

            # --- kill the home replica in the middle of a live burst ----
            outcomes = {}

            def fire(index, payload):
                try:
                    outcomes[index] = ServeClient(
                        port=front.port, timeout=600.0
                    ).evaluate_with_retry(payload, retries=20)
                except Exception as error:
                    outcomes[index] = error

            threads = [
                threading.Thread(target=fire, args=(index, payload))
                for index, payload in enumerate(burst)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            # Kill only once the victim holds a queued job: closing it
            # answers that job 503, which the front must fail over.
            admission = replicas[victim].service.admission
            deadline = time.monotonic() + 60.0
            depth = admission.queue_depth
            while depth == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
                depth = admission.queue_depth
            record["kill_queue_depth"] = depth
            if depth == 0:
                failures.append("fleet kill: the victim never queued a job")
            replicas[victim].close()  # mid-burst kill
            for thread in threads:
                thread.join(timeout=600)
            record["kill_burst_seconds"] = time.perf_counter() - start
            if any(thread.is_alive() for thread in threads):
                failures.append("fleet kill: a request thread is still alive")
            # Zero client-visible 5xx: every burst request must have been
            # absorbed by failover (429-with-retry is allowed; errors not).
            for index in range(len(burst)):
                if isinstance(outcomes.get(index), Exception):
                    failures.append(
                        f"fleet kill: request {index} surfaced "
                        f"{outcomes[index]!r} to the client"
                    )
            verify_bit_identical(outcomes, registry, burst, failures, "fleet kill")
            # The proxy ejects the victim on its first 503; the front must
            # report it unhealthy within a few poll intervals either way.
            for _ in range(100):
                if client.health()["healthy"] == args.fleet - 1:
                    break
                time.sleep(0.1)
            health = client.health()
            if health["healthy"] != args.fleet - 1:
                failures.append(
                    f"fleet kill: front reports {health['healthy']} healthy "
                    f"replicas, expected {args.fleet - 1}"
                )

            # --- restart the victim on its old port and rejoin ----------
            start = time.perf_counter()
            replicas[victim] = EvalServer(
                registry, make_config(port=ports[victim])
            ).start()
            record["restart_boot_seconds"] = time.perf_counter() - start
            for _ in range(100):
                if client.health()["healthy"] == args.fleet:
                    break
                time.sleep(0.1)
            record["rejoin_seconds"] = time.perf_counter() - start
            if client.health()["healthy"] != args.fleet:
                failures.append("fleet rejoin: the restarted replica never rejoined")
            if client.fleet()["assignments"].get("tea") != primary:
                failures.append(
                    "fleet rejoin: rendezvous hashing did not restore the "
                    "original assignment"
                )

            # --- repeated burst: zero fresh engine passes fleet-wide ----
            def fleet_passes() -> int:
                total = 0
                for replica in replicas:
                    metrics = ServeClient(
                        port=replica.port, timeout=60.0
                    ).metrics()
                    total += metrics["sessions"]["engine_passes"]
                return total

            passes_before = fleet_passes()
            start = time.perf_counter()
            repeat_responses = {}
            for index, payload in enumerate(payloads):
                try:
                    repeat_responses[index] = client.evaluate_with_retry(
                        payload, retries=20
                    )
                except Exception as error:
                    repeat_responses[index] = error
            record["repeat_seconds"] = time.perf_counter() - start
            verify_bit_identical(
                repeat_responses, registry, payloads, failures, "fleet repeat"
            )
            fresh = fleet_passes() - passes_before
            record["repeat_engine_passes"] = fresh
            if fresh != 0:
                failures.append(
                    f"fleet repeat: repeated burst cost {fresh} fresh engine "
                    "passes (the shared result store must cover the takeover)"
                )

            # --- aggregated metrics: conservation + fleet bookkeeping ---
            metrics = client.metrics()
            check_fleet_invariants(metrics, failures, "fleet")
            replica_received = 0
            for replica in replicas:
                replica_received += ServeClient(
                    port=replica.port, timeout=60.0
                ).metrics()["requests"]["received"]
            if metrics["fleet"]["requests"]["received"] != replica_received:
                failures.append(
                    "fleet: aggregated received "
                    f"{metrics['fleet']['requests']['received']} != sum of "
                    f"replica counters {replica_received}"
                )
            if metrics["front"]["unavailable"] != 0:
                failures.append(
                    f"fleet: {metrics['front']['unavailable']} requests "
                    "answered 503 at the front"
                )
            record["front"] = metrics["front"]
            record["fleet_requests"] = metrics["fleet"]["requests"]
            record["ejections"] = sum(
                entry["ejections"] for entry in client.fleet()["replicas"]
            )
            # One kill, one ejection: a stale kept-alive connection to the
            # victim, counted as a dead replica, ejects it a second time.
            if record["ejections"] != 1:
                failures.append(
                    f"fleet: {record['ejections']} ejections for one replica "
                    "kill, expected exactly 1"
                )
            if metrics["front"]["failovers"] < 1:
                failures.append(
                    "fleet: no request failed over from the killed replica"
                )
        finally:
            front.close()
            for replica in replicas:
                replica.close()
            for thread in threads:
                thread.join(timeout=30)
    return record


def main() -> None:
    args = parse_args()
    context = ExperimentContext(
        train_size=args.train_size,
        test_size=max(args.samples, 30),
        epochs=args.epochs,
        eval_samples=args.samples,
        repeats=1,
        seed=0,
    )
    registry = ModelRegistry.from_context(context, methods=("tea",))
    failures = []

    if args.soak and args.fleet:
        fleet = run_fleet_soak(registry, args, failures)
        record = {
            "benchmark": "serve-fleet-soak",
            "config": {
                "workers": args.workers,
                "samples": args.samples,
                "train_size": args.train_size,
            },
            **fleet,
            "ok": not failures,
            "failures": failures,
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=2)
                handle.write("\n")
        print(json.dumps(record, indent=2))
        if failures:
            raise SystemExit("; ".join(failures))
        return

    if args.soak:
        soak = run_soak(registry, args, failures)
        record = {
            "benchmark": "serve-soak",
            "config": {
                "workers": args.workers,
                "samples": args.samples,
                "train_size": args.train_size,
            },
            **soak,
            "ok": not failures,
            "failures": failures,
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=2)
                handle.write("\n")
        print(json.dumps(record, indent=2))
        if failures:
            raise SystemExit("; ".join(failures))
        return

    payloads = burst_payloads(args.samples)

    config = ServeConfig(
        port=0, workers=args.workers, queue_depth=max(16, 2 * len(payloads))
    )
    with EvalServer(registry, config) as server:
        burst_seconds = run_burst(server, registry, payloads, failures)
        client = ServeClient(port=server.port, timeout=60.0)
        metrics = client.metrics()
        check_metrics_invariants(metrics, failures, "burst")
        if metrics["requests"]["completed"] != len(payloads):
            failures.append(
                f"burst: completed={metrics['requests']['completed']}, "
                f"expected {len(payloads)}"
            )
        if metrics["requests"]["in_flight"] != 0:
            failures.append("burst: in_flight != 0 after the burst drained")
        coalesced = metrics["sessions"]["coalesced_requests"]
    run_overload(registry, failures)

    record = {
        "benchmark": "serve-smoke",
        "config": {
            "burst": len(payloads),
            "workers": args.workers,
            "samples": args.samples,
            "train_size": args.train_size,
        },
        "burst_seconds": burst_seconds,
        "coalesced_requests": coalesced,
        "requests": metrics["requests"],
        "cache": metrics["cache"],
        "ok": not failures,
        "failures": failures,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
    print(json.dumps(record, indent=2))
    if failures:
        raise SystemExit("; ".join(failures))


if __name__ == "__main__":
    main()
