"""Worker-pool candidate evaluation, bit-identical to serial.

The value-only optimizers (random search, simulated annealing) spend
their time in :meth:`Objective.value_many` — dense NumPy linear algebra
that releases the GIL — so a thread pool genuinely overlaps the work.

Determinism contract: at a fixed ``chunk``, results are *bit-identical*
regardless of ``parallelism``.  The chunk grid depends only on
``chunk`` (the request pipeline always uses :data:`DEFAULT_EVAL_CHUNK`),
never on the worker count: a candidate batch is split into the same
fixed-size row blocks whether one thread or eight evaluate them, each
block's NumPy reduction runs over the same operands in the same order,
and the per-block results are concatenated in index order (executor
``map`` results are gathered in submission order).  No result ever sums
across a worker boundary.

Bit-identity across *chunk sizes* is not part of the contract.  Every
loss reduction is row-local, so it holds exactly when the BLAS build
gives each GEMM row the same bits at any row count; the OpenBLAS the
project is tested against does for multi-row chunks, and
``tests/orchestrator/test_joint_grouped.py`` pins it.  A one-row chunk
runs as a matrix-vector product and rounds differently.

The default chunk equals RandomSearch's default population, so one
solver iteration's population is one chunk.  A batch of at most one
chunk goes straight to ``objective.value_many`` on the calling thread
(no split, copy or concatenation) and counts as one chunk; the pool
only splits batches wider than one chunk.  Loss packs keep their
buffers per thread, so chunks of one objective evaluate concurrently.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional

import numpy as np

#: Default rows per evaluation chunk.  Equals RandomSearch's default
#: ``population``, so one solver iteration is one ``value_many`` call.
DEFAULT_EVAL_CHUNK = 16


class BatchEvaluator:
    """Evaluates candidate batches in fixed-size chunks, optionally threaded.

    Bind one to an optimizer via
    :meth:`~repro.orchestrator.optimizers.Optimizer.bind_evaluator`;
    the request pipeline always binds one (serial at ``parallelism=1``).
    """

    def __init__(self, parallelism: int = 1, chunk: int = DEFAULT_EVAL_CHUNK):
        if parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        if chunk < 1:
            raise ValueError("chunk must be at least 1")
        self.parallelism = int(parallelism)
        self.chunk = int(chunk)
        self.telemetry = None
        self._closed = False
        self._pool: Optional[ThreadPoolExecutor] = None
        #: Lifetime counters for telemetry / tests.
        self.batches = 0
        self.chunks_evaluated = 0

    def bind_telemetry(self, telemetry) -> None:
        """Attach a telemetry sink and publish the worker count."""
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.gauge("evaluator.parallelism", self.parallelism)

    def _chunks(self, batch: np.ndarray) -> List[np.ndarray]:
        return [
            batch[i : i + self.chunk]
            for i in range(0, batch.shape[0], self.chunk)
        ]

    def _note(self, chunks: int) -> None:
        self.batches += 1
        self.chunks_evaluated += chunks
        if self.telemetry is not None:
            self.telemetry.counter("evaluator.batches", 1)
            self.telemetry.counter("evaluator.chunks", chunks)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                f"{type(self).__name__} is closed; evaluation after close "
                "would silently re-spawn a worker pool nobody shuts down"
            )

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.parallelism,
                thread_name_prefix="surfos-eval",
            )
        return self._pool

    def value_many(self, objective, batch: np.ndarray) -> np.ndarray:
        """Evaluate a ``(N, D)`` candidate batch; returns ``(N,)`` losses."""
        self._check_open()
        if np.ndim(batch) == 2 and len(batch) <= self.chunk:  # one chunk: no split
            self._note(1)
            return objective.value_many(batch)
        batch = np.atleast_2d(np.asarray(batch, dtype=float))
        chunks = self._chunks(batch)
        self._note(len(chunks))
        if self.parallelism == 1 or len(chunks) == 1:
            parts = [np.asarray(objective.value_many(c)) for c in chunks]
        else:
            pool = self._ensure_pool()
            parts = [
                np.asarray(p)
                for p in pool.map(objective.value_many, chunks)
            ]
        return np.concatenate([np.atleast_1d(p) for p in parts])

    def close(self) -> None:
        """Shut the worker pool down (idempotent, terminal).

        A closed evaluator refuses further evaluation instead of
        silently re-spawning a thread pool that nothing owns anymore.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
