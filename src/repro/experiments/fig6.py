"""Figure 6 — LLM calling surface services from natural language.

Reproduces the paper's demonstration: a language model (here the
deterministic offline :class:`MockLLM`; swap in a hosted model via the
:class:`LLMClient` protocol) receives a system prompt advertising the
SurfOS service APIs plus a user's natural-language demand, and responds
with validated service calls.  The two inputs shown in the paper's
figure are reproduced verbatim, plus additional scenarios covering the
remaining services.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..broker.calls import ServiceCall
from ..llm.client import LLMClient
from ..llm.intent import IntentTranslator
from ..llm.mock import MockLLM

#: The paper's Figure 6 rows: user input → expected calls.
PAPER_CASES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    (
        "I want to start VR gaming in this room.",
        (
            "enhance_link('VR_headset', snr=30.0, latency=10.0)",
            "enable_sensing('room_id', type='tracking', duration=3600)",
            "optimize_coverage('room_id', median_snr=25)",
        ),
    ),
    (
        "I want to have an online meeting while charging my phone.",
        (
            "enhance_link('laptop', snr=20.0, latency=50.0)",
            "init_powering('phone', duration=3600)",
        ),
    ),
)

#: Additional demands exercising the rest of the service surface.
EXTRA_CASES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    (
        "Please track motion in the bedroom.",
        ("enable_sensing('bedroom', type='tracking', duration=3600)",),
    ),
    (
        "I need to send sensitive documents from my laptop.",
        ("protect_link('laptop')",),
    ),
    (
        "The wifi is bad in the office.",
        ("optimize_coverage('office', median_snr=25)",),
    ),
)


@dataclass
class Fig6Case:
    """One translated demand."""

    user_input: str
    expected: Tuple[str, ...]
    produced: List[ServiceCall]

    @property
    def produced_rendered(self) -> List[str]:
        """Calls as Python source lines."""
        return [c.render() for c in self.produced]

    @property
    def matches(self) -> bool:
        """Whether every expected call was produced."""
        produced = set(self.produced_rendered)
        return all(e in produced for e in self.expected)


@dataclass
class Fig6Result:
    """All translated cases."""

    cases: List[Fig6Case]

    @property
    def all_match(self) -> bool:
        """Whether every case produced its expected calls."""
        return all(c.matches for c in self.cases)

    def render(self) -> str:
        """Input/output transcript, Figure-6 style."""
        parts = ["Figure 6: LLM calling surface services", ""]
        for case in self.cases:
            parts.append(f"User Input: {case.user_input}")
            for line in case.produced_rendered:
                parts.append(f"  {line}")
            parts.append(f"  [matches expected: {case.matches}]")
            parts.append("")
        return "\n".join(parts)


def run(
    client: Optional[LLMClient] = None,
    include_extra: bool = True,
) -> Fig6Result:
    """Translate the paper's demands (and extras) to service calls."""
    translator = IntentTranslator(client or MockLLM())
    cases = []
    all_cases = PAPER_CASES + (EXTRA_CASES if include_extra else ())
    for user_input, expected in all_cases:
        produced = translator.translate(user_input)
        cases.append(
            Fig6Case(user_input=user_input, expected=expected, produced=produced)
        )
    return Fig6Result(cases=cases)
