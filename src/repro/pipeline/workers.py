"""Worker-pool candidate evaluation, bit-identical to serial.

The value-only optimizers (random search, simulated annealing) spend
their time in :meth:`Objective.value_many` — dense NumPy linear algebra
that releases the GIL — so a thread pool genuinely overlaps the work.

Determinism contract: at a fixed ``chunk``, results are *bit-identical*
regardless of ``parallelism``.  The chunk grid depends only on
``chunk`` (a config constant), never on the worker count: a candidate
batch is split into the same fixed-size row blocks whether one thread
or eight evaluate them, each block's NumPy reduction runs over the same
operands in the same order, and the per-block results are concatenated
in index order (executor ``map`` results are gathered in submission
order).  No result ever sums across a worker boundary.

Bit-identity across *chunk sizes* is not part of the contract.  Every
loss reduction is row-local, so it holds exactly when the BLAS build
gives each GEMM row the same bits at any row count; the OpenBLAS the
project is tested against does for multi-row chunks, and
``tests/orchestrator/test_joint_grouped.py`` pins it.  A one-row chunk
runs as a matrix-vector product and rounds differently.

The default chunk (:data:`~repro.pipeline.config.DEFAULT_EVAL_CHUNK`)
equals RandomSearch's default population, so a lone objective's
population is one chunk, evaluated on the calling thread; the pool
only splits batches wider than one chunk and stacked multi-task
segments.

Cross-task stacking (:meth:`BatchEvaluator.value_many_segments`)
preserves the grid per *task segment*: each task's batch is chunked
exactly as :meth:`BatchEvaluator.value_many` would chunk it, and
same-shaped chunks collapse into one batched GEMM — a batched-matmul
slice runs the same BLAS kernel over the same operands as the
standalone per-chunk call, so grouping membership never changes bits
either.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..orchestrator.objectives import StackedObjective
from .config import DEFAULT_EVAL_CHUNK


def _partition(items: Sequence, runs: int) -> List[List]:
    """Split ``items`` into at most ``runs`` contiguous balanced runs."""
    n = len(items)
    runs = max(1, min(runs, n))
    out: List[List] = []
    base, extra = divmod(n, runs)
    start = 0
    for i in range(runs):
        size = base + (1 if i < extra else 0)
        out.append(list(items[start : start + size]))
        start += size
    return out


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

    def value_many_segments(
        self,
        stacked: StackedObjective,
        batches: Sequence[Optional[np.ndarray]],
    ) -> List[Optional[np.ndarray]]:
        """Evaluate one candidate batch per stacked task (``None`` skips).

        Chunks each task with the :meth:`value_many` grid, then lets
        :meth:`StackedObjective.value_chunks` collapse same-shaped
        chunks across tasks into batched GEMMs.  Bit-identical to the
        per-task serial loop at any parallelism.
        """
        self._check_open()
        if len(batches) != len(stacked.parts):
            raise ValueError(
                f"{len(batches)} batches for {len(stacked.parts)} parts"
            )
        items: List[Tuple[int, np.ndarray]] = []
        for t, batch in enumerate(batches):
            if batch is not None:
                batch = np.atleast_2d(np.asarray(batch, dtype=float))
                items.extend((t, rows) for rows in self._chunks(batch))
        self._note(len(items))
        if self.parallelism == 1 or len(items) <= 1:
            values = stacked.value_chunks(items)
        else:
            pool = self._ensure_pool()
            runs = _partition(items, self.parallelism)
            values = [
                value
                for run_values in pool.map(stacked.value_chunks, runs)
                for value in run_values
            ]
        per_task: Dict[int, List[np.ndarray]] = {}
        for (t, _), value in zip(items, values):
            per_task.setdefault(t, []).append(np.atleast_1d(np.asarray(value)))
        return [
            np.concatenate(per_task[t]) if t in per_task else None
            for t in range(len(batches))
        ]

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
