"""The environment record every run writes, and the BLAS pinning guard."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from typing import Dict, Optional

#: Thread settings the benchmark and every server child run under.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def blas_info() -> Dict[str, object]:
    """The BLAS numpy links against, and its live thread count."""
    import numpy as np

    try:
        blas = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (KeyError, TypeError):
        blas = {}
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    threads: Optional[int] = None
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                threads = int(function())
                break
    return {
        "vendor": blas.get("name", "unknown"),
        "version": blas.get("version", "unknown"),
        "threads": threads,
    }


def check_pinned() -> Optional[str]:
    """Why BLAS threads are not pinned to one, or ``None`` when they are."""
    for name, value in PINNED_ENV.items():
        if os.environ.get(name) != value:
            return f"{name}={os.environ.get(name)!r}, expected {value!r}"
    threads = blas_info()["threads"]
    if threads is not None and threads != 1:
        return f"BLAS reports {threads} threads"
    return None


def source_identity(root: str) -> str:
    """The git commit of ``root``, else a digest of its Python sources."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if completed.returncode == 0:
            return completed.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def environment(root: str, workload: str, seed: int) -> Dict[str, object]:
    """The record: cores, BLAS and threads, versions, commit, workload seed."""
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "thread_env": {name: os.environ.get(name) for name in PINNED_ENV},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": source_identity(root),
        "workload": workload,
        "seed": seed,
    }
