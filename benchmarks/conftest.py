"""Shared benchmark fixtures.

Benchmarks run each experiment once (``pedantic`` with a single round —
these are minutes-scale simulations, not microbenchmarks) and assert
the paper's qualitative shape on the result, so a green benchmark run
doubles as a reproduction check.

Before anything imports NumPy, every BLAS/OpenMP pool is pinned to one
thread under the variable names ``surfbench/run.py`` pins: an unpinned
OpenBLAS pool sharing a 2-core host with one busy process stretched a
full ``test_bench_solver.py`` run from 11 s to 289 s.  ``bench_meta``
records the pinned settings.
"""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path


def _surfbench_thread_env() -> tuple:
    """``THREAD_ENV`` of ``surfbench/run.py``, loaded without NumPy."""
    path = Path(__file__).resolve().parents[1] / "surfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("_surfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.THREAD_ENV


THREAD_ENV = _surfbench_thread_env()
for _name in THREAD_ENV:
    os.environ[_name] = "1"


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark an expensive experiment with a single measured round."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
