"""Start one ``repro-serve`` process with the benchmark's span wrappers.

Usage (from the repository root, ``PYTHONPATH=src:.``)::

    python3 -m perfbench.launcher <replica|front> <spans.json> [repro-serve args]

Installs :mod:`perfbench.tracing` for the role, then hands the remaining
arguments to ``repro.serve.__main__.main`` unchanged.  When the server
stops (SIGINT), the spans are written to ``<spans.json>``.
"""

from __future__ import annotations

import sys

from perfbench.envinfo import check_pinned
from perfbench.tracing import Recorder, install


def main(argv: list) -> int:
    role, spans_path, serve_args = argv[0], argv[1], argv[2:]
    problem = check_pinned()
    if problem is not None:
        print(f"refusing to start: BLAS threads are not pinned ({problem})", file=sys.stderr)
        return 3
    recorder = install(Recorder(role))
    from repro.serve.__main__ import main as serve_main

    try:
        return serve_main(serve_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
