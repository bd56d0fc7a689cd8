"""Environment record attached to every benchmark result.

``cap_blas_threads`` must run before numpy is first imported: the BLAS
libraries read their thread count from the environment when they load.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    """Processors this process may run on, as the ``nproc`` command counts them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_blas_threads(limit: int) -> None:
    """Cap every BLAS thread-count variable at ``limit``, keeping lower settings."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        value = int(current) if current.isdigit() and int(current) >= 1 else limit
        os.environ[var] = str(min(value, limit))


def _openblas_runtime(np) -> tuple[str | None, int | None]:
    """Configuration string and live thread count of numpy's bundled OpenBLAS."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        config = threads = None
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_config{suffix}", None)
                if fn is not None and config is None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_char_p
                    config = fn().decode()
                fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if fn is not None and threads is None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    threads = int(fn())
        if config is not None or threads is not None:
            return config, threads
    return None, None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def record(root: Path, src: Path, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    config, threads = _openblas_runtime(np)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": config,
        "blas_threads": threads,
        "blas_thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": nproc(),
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(src),
        "seed": seed,
    }
