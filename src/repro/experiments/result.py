"""One result contract for every experiment the CLI can run.

``pipeline``, ``fleet``, ``faults``, ``mobility``, and ``load`` each used
to hand-roll their own JSON writing and pass/fail plumbing in
:mod:`repro.cli`.  They now share one small contract:

* :class:`ExperimentResult` — the protocol: ``summary()`` (flat,
  JSON-able dict), ``render()`` (human-readable report),
  ``gate_failures()`` (list of human-readable regression-gate
  violations; empty = pass).
* :class:`ExperimentResultBase` — mixin supplying ``to_json()`` and a
  passing ``gate_failures()`` on top of the protocol methods.
* :func:`finish` — the one CLI epilogue: print the rendering, write the
  ``--json`` artifact when asked, print ``FAIL:`` lines to stderr, and
  return the process exit code.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional, Protocol, runtime_checkable


@runtime_checkable
class ExperimentResult(Protocol):
    """What every gateable experiment result can do."""

    def summary(self) -> Dict[str, object]:
        """Flat JSON-able dict of the headline numbers."""
        ...

    def render(self) -> str:
        """Human-readable report (what the CLI prints)."""
        ...

    def gate_failures(self) -> List[str]:
        """Regression-gate violations; empty means the gate passes."""
        ...


class ExperimentResultBase:
    """Mixin: ``to_json()`` derived from the protocol methods.

    Subclasses implement ``summary()`` and ``render()``, and
    ``gate_failures()`` when they have gates; the mixin standardises
    serialization.  :func:`finish` maps the failures to the exit code.
    """

    def gate_failures(self) -> List[str]:
        return []

    def to_json(self) -> str:
        """The summary as deterministic (sorted-key) JSON."""
        return json.dumps(self.summary(), indent=2, sort_keys=True)


def finish(
    result: ExperimentResult,
    json_path: Optional[str] = None,
    artifact_label: str = "results",
) -> int:
    """Shared CLI epilogue: render, export, gate, exit code.

    Prints ``result.render()``, writes the sorted-key JSON summary to
    ``json_path`` when given, reports each gate violation as a
    ``FAIL: ...`` line on stderr, and returns the exit code.
    """
    print(result.render())
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(result.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\n{artifact_label} written to {json_path}")
    failures = result.gate_failures()
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0
