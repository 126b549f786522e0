"""Run-metadata stamping for ``BENCH_*.json`` artifacts.

Perf numbers are meaningless without the machine they came from: a
speedup measured on a single shared core says nothing about an 8-core
runner and vice versa.  Every benchmark writer calls :func:`bench_meta`
and stores the result under a ``"meta"`` key so artifacts archived from
CI (or pasted into EXPERIMENTS.md) carry their own provenance.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
from conftest import THREAD_ENV


def _blas_vendor() -> str:
    """Best-effort BLAS vendor/library behind this NumPy build."""
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        name = blas.get("name", "")
        version = blas.get("version", "")
        if name:
            return f"{name} {version}".strip()
    except Exception:
        pass
    return "unknown"


def _git_sha() -> str:
    """The repo commit the numbers were measured at (12 hex chars)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=Path(__file__).resolve().parents[1],
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except Exception:
        pass
    return "unknown"


def bench_meta(**extra) -> dict:
    """Provenance block for a benchmark artifact.

    Records the CPU budget, the NumPy/BLAS stack doing the FLOPs and its
    thread settings (pinned by ``conftest.py``), the interpreter, and
    the measured commit.  Keyword arguments (e.g.
    ``workers=2``, ``small=True``) are merged in verbatim so
    each suite can add its own knobs.
    """
    meta = {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_vendor(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "git_sha": _git_sha(),
    }
    meta.update(extra)
    return meta
