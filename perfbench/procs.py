"""Server children: launch through the CLI (or the tracing launcher), wait
until ready, read their peak RSS, and stop them."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
from time import perf_counter, sleep
from typing import Dict, List, Optional, Sequence

from perfbench.envinfo import PINNED_ENV

READY = re.compile(r"(?:serving|fronting .*?) on http://[^:\s]+:(\d+)")


def peak_rss_mb(pid: str) -> float:
    """``VmHWM`` (peak resident set) of a live process (or ``"self"``), in MB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def child_env(root: str) -> Dict[str, str]:
    """The benchmark's environment for children: pinned BLAS, local sources."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Child:
    """One ``repro-serve`` process (replica or front)."""

    def __init__(
        self,
        root: str,
        rundir: str,
        name: str,
        serve_args: Sequence[str],
        spans_path: Optional[str] = None,
    ) -> None:
        self.name = name
        self.role = "front" if serve_args and serve_args[0] == "front" else "replica"
        self.log_path = os.path.join(rundir, f"{name}.log")
        if spans_path is None:
            argv = [sys.executable, "-m", "repro.serve", *serve_args]
        else:
            argv = [sys.executable, "-m", "perfbench.launcher", self.role, spans_path, *serve_args]
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.started = perf_counter()
        self.process = subprocess.Popen(
            argv, cwd=root, env=child_env(root), stdout=self._log, stderr=subprocess.STDOUT
        )
        self.port: Optional[int] = None
        self.ready_s: Optional[float] = None

    def wait_ready(self, timeout: float = 120.0) -> int:
        """Block until the child prints its bound address; return the port."""
        deadline = perf_counter() + timeout
        while perf_counter() < deadline:
            with open(self.log_path, encoding="utf-8", errors="replace") as handle:
                match = READY.search(handle.read())
            if match:
                self.port = int(match.group(1))
                self.ready_s = perf_counter() - self.started
                return self.port
            if self.process.poll() is not None:
                break
            sleep(0.01)
        raise RuntimeError(f"{self.name} did not become ready:\n{self.tail()}")

    def tail(self, lines: int = 20) -> str:
        with open(self.log_path, encoding="utf-8", errors="replace") as handle:
            return "".join(handle.readlines()[-lines:])

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(str(self.process.pid))

    def signal(self, graceful: bool) -> None:
        """SIGINT (clean shutdown, spans written) or SIGTERM."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT if graceful else signal.SIGTERM)

    def reap(self, timeout: float = 30.0) -> None:
        """Wait for the child to end, killing it after ``timeout``."""
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self._log.close()


def stop_all(children: List[Child], graceful: bool) -> None:
    """Signal every child, then reap each; empties ``children``."""
    for child in children:
        child.signal(graceful)
    for child in children:
        child.reap()
    children.clear()
