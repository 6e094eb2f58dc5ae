"""Command-line entry point: ``python -m repro.serve`` / ``repro-serve``.

Trains the requested learning methods on one test bench at boot (never on
the request path), binds the HTTP service, and serves until interrupted::

    repro-serve --port 8000 --methods tea,biased --workers 4
    curl -s localhost:8000/v1/models | python -m json.tool

The ``front`` subcommand runs the fleet router instead of a replica: it
fronts already-running replicas with consistent model routing, fleet-wide
admission, and health-based ejection (:mod:`repro.serve.front`)::

    repro-serve front --port 8000 \\
        --replicas 127.0.0.1:8101,127.0.0.1:8102,127.0.0.1:8103
    curl -s localhost:8000/v1/fleet | python -m json.tool
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro.experiments.runner import ExperimentContext
from repro.serve.front import FrontConfig, FrontServer
from repro.serve.server import EvalServer, ModelRegistry, ServeConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=__doc__,
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    service = parser.add_argument_group("service")
    service.add_argument("--host", default="127.0.0.1", help="bind address")
    service.add_argument(
        "--port", type=int, default=8000, help="bind port (0 = ephemeral)"
    )
    service.add_argument(
        "--backend",
        default="auto",
        help="default backend for requests that do not name one",
    )
    service.add_argument(
        "--workers", type=int, default=2, help="workers draining the queue"
    )
    service.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="queued jobs an arrival may find before it gets 429",
    )
    service.add_argument(
        "--batch-max",
        type=int,
        default=8,
        help="jobs per worker drain (the request-coalescing window)",
    )
    service.add_argument(
        "--request-timeout",
        type=float,
        default=300.0,
        help="seconds before a waiting HTTP request answers 504",
    )
    service.add_argument(
        "--cache-dir",
        default=None,
        help="persistent result-store directory shared across restarts",
    )
    service.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        help="LRU bound for --cache-dir",
    )
    models = parser.add_argument_group("hosted models")
    models.add_argument(
        "--methods",
        default="tea,biased",
        help="comma-separated learning methods to train and host",
    )
    models.add_argument(
        "--testbench", type=int, default=1, help="Table 3 test bench to host"
    )
    models.add_argument("--train-size", type=int, default=2000)
    models.add_argument("--test-size", type=int, default=450)
    models.add_argument("--epochs", type=int, default=16)
    models.add_argument(
        "--eval-samples",
        type=int,
        default=300,
        help="samples in the hosted 'test' dataset",
    )
    models.add_argument("--seed", type=int, default=0)
    return parser


def build_front_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve front",
        description="Fleet router fronting running repro-serve replicas.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8000, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--replicas",
        required=True,
        help="comma-separated replica addresses, e.g. 127.0.0.1:8101,127.0.0.1:8102",
    )
    parser.add_argument(
        "--poll-interval",
        type=float,
        default=0.25,
        help="seconds between health/drain polls of each replica",
    )
    parser.add_argument(
        "--eject-after",
        type=int,
        default=2,
        help="consecutive failed health probes before a replica is ejected",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=330.0,
        help="socket timeout for one proxied evaluate call",
    )
    return parser


def front_main(argv: Sequence[str]) -> int:
    args = build_front_parser().parse_args(argv)
    replicas = tuple(r.strip() for r in args.replicas.split(",") if r.strip())
    if not replicas:
        print("no replicas to front (--replicas is empty)", file=sys.stderr)
        return 2
    config = FrontConfig(
        host=args.host,
        port=args.port,
        replicas=replicas,
        poll_interval=args.poll_interval,
        eject_after=args.eject_after,
        request_timeout=args.request_timeout,
    )
    server = FrontServer(config).start()
    print(
        f"fronting {len(replicas)} replica(s) on {server.url}  "
        f"(POST /v1/evaluate, GET /v1/models /v1/fleet /healthz /metrics)"
    )
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down ...")
    finally:
        server.close()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "front":
        return front_main(arguments[1:])
    args = build_parser().parse_args(arguments)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    if not methods:
        print("no methods to host (--methods is empty)", file=sys.stderr)
        return 2
    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            backend=args.backend,
            workers=args.workers,
            queue_depth=args.queue_depth,
            batch_max=args.batch_max,
            request_timeout=args.request_timeout,
            cache_dir=args.cache_dir,
            cache_max_bytes=args.cache_max_bytes,
        )
    except ValueError as error:
        print(f"invalid configuration: {error}", file=sys.stderr)
        return 2
    context = ExperimentContext(
        testbench=args.testbench,
        train_size=args.train_size,
        test_size=args.test_size,
        epochs=args.epochs,
        eval_samples=args.eval_samples,
        seed=args.seed,
    )
    print(
        f"training {methods} on test bench {args.testbench} "
        f"(train_size={args.train_size}, epochs={args.epochs}) ..."
    )
    start = time.perf_counter()
    registry = ModelRegistry.from_context(context, methods=methods)
    print(f"models ready in {time.perf_counter() - start:.1f}s")
    server = EvalServer(registry, config).start()
    print(
        f"serving on {server.url}  "
        f"(POST /v1/evaluate, GET /v1/models /healthz /metrics)"
    )
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down ...")
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
