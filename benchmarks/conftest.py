"""Shared benchmark fixtures.

Benchmarks run each experiment once (``pedantic`` with a single round —
these are minutes-scale simulations, not microbenchmarks) and assert
the paper's qualitative shape on the result, so a green benchmark run
doubles as a reproduction check.
"""

from __future__ import annotations


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark an expensive experiment with a single measured round."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
