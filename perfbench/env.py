"""Pinned process environment and the record of what a run measured on."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

# One BLAS thread per process: on two cores, 256 N=128 SVDs took 0.97 s with
# one thread, 1.44 s with two and 1.75-2.62 s with the default, so unpinned
# numbers would measure the scheduler.
BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pinned_env(root: Path) -> dict:
    """Environment for a workload process: BLAS pinned, otasync from root/src."""
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in _THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    return env


def source_digest(root: Path) -> str:
    """sha256 over src/otasync/*.py: identifies the code when there is no git."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "otasync").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def process_record() -> dict:
    """What the workload process itself sees; call it inside that process."""
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in _THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()
