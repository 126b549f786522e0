"""The JSONL trace reader shared by arrival and mobility replays.

A trace file holds one JSON record per line, each with a ``"t"``
timestamp in seconds; timestamps never decrease.  Blank lines are
skipped.  Every error names the file and, for bad lines, the line
number.
"""

from __future__ import annotations

import json
import math
import os
from typing import Callable, Iterator, Tuple, TypeVar

from .errors import ServiceError

T = TypeVar("T")


def iter_trace(
    path: str, parse: Callable[[dict], T], what: str = "trace"
) -> Iterator[Tuple[float, T]]:
    """Stream ``(t, parse(record))`` for every record of a JSONL trace.

    Validates as it streams, so a million-line trace is never held in
    memory.  ``parse`` extracts the payload from one decoded record;
    a ``ValueError``, ``KeyError`` or ``TypeError`` it raises is
    reported as a bad line.  ``what`` names the timestamps in the
    ordering error (``"arrival"`` → "arrival times must be
    non-decreasing").

    Raises:
        ServiceError: the file is missing, empty, has a bad line, or
            its timestamps decrease.
    """
    if not os.path.exists(path):
        raise ServiceError(f"trace file not found: {path}")
    last = -math.inf
    count = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                t = float(record["t"])
                value = parse(record)
            except (ValueError, KeyError, TypeError) as exc:
                raise ServiceError(
                    f"{path}:{lineno}: bad trace line ({exc})"
                ) from exc
            if t < last:
                raise ServiceError(
                    f"{path}:{lineno}: {what} times must be "
                    f"non-decreasing ({t} after {last})"
                )
            last = t
            count += 1
            yield t, value
    if not count:
        raise ServiceError(f"trace file is empty: {path}")
