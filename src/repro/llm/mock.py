"""A deterministic, offline stand-in for the paper's GPT-4o.

The paper's Fig. 6 demonstrates an LLM mapping natural-language demands
to SurfOS service calls.  This mock reproduces that behavior with an
explicit rule engine: it reads the *same prompt* the real model would
receive (context + available functions + user input), matches intent
keywords, and emits Python-style call lines restricted to the functions
the prompt actually offered.  Substituting a hosted model is a one-line
change via the :class:`~repro.llm.client.LLMClient` protocol; the
parsing, validation, and dispatch around it are identical either way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class IntentRule:
    """One keyword-triggered translation rule.

    Attributes:
        keywords: any-match triggers (lowercase substrings).
        calls: templates emitted on trigger; ``{device}`` and ``{room}``
            are filled from the user input when extractable.
        description: what the rule represents (for diagnostics).
    """

    keywords: Tuple[str, ...]
    calls: Tuple[str, ...]
    description: str = ""
    device_hint: str = ""


#: The mock's "knowledge": application archetypes → service calls, the
#: same mappings the paper's Fig. 6 shows GPT-4o producing.
DEFAULT_RULES: Tuple[IntentRule, ...] = (
    IntentRule(
        keywords=("vr", "virtual reality", "gaming", "game"),
        calls=(
            "enhance_link('{device}', snr=30.0, latency=10.0)",
            "enable_sensing('{room}', type='tracking', duration=3600)",
            "optimize_coverage('{room}', median_snr=25)",
        ),
        description="VR gaming: high throughput, low latency, tracking",
    ),
    IntentRule(
        keywords=("meeting", "video call", "conference", "zoom"),
        calls=("enhance_link('{device}', snr=20.0, latency=50.0)",),
        description="Online meeting: reliable mid-rate link",
        device_hint="laptop",
    ),
    IntentRule(
        keywords=("charge", "charging", "battery", "power"),
        calls=("init_powering('{device}', duration=3600)",),
        description="Wireless charging",
    ),
    IntentRule(
        keywords=("movie", "stream", "video", "watch"),
        calls=("enhance_link('{device}', snr=22.0, latency=100.0)",),
        description="Video streaming: smooth high-rate link",
    ),
    IntentRule(
        keywords=("track", "motion", "presence", "sensing", "monitor my"),
        calls=("enable_sensing('{room}', type='tracking', duration=3600)",),
        description="Ambient sensing",
    ),
    IntentRule(
        keywords=("secure", "security", "sensitive", "private", "confidential"),
        calls=("protect_link('{device}')",),
        description="Security protection for sensitive transmission",
    ),
    IntentRule(
        keywords=("coverage", "signal", "dead zone", "wifi is bad", "slow internet"),
        calls=("optimize_coverage('{room}', median_snr=25)",),
        description="Coverage complaint",
    ),
)

_DEVICE_WORDS = (
    "vr_headset", "headset", "laptop", "phone", "tablet", "tv",
    "console", "camera", "sensor",
)

_ROOM_WORDS = (
    "living room", "living", "bedroom", "kitchen", "office",
    "meeting_room", "meeting room", "this room", "room",
)

_ROOM_CANONICAL = {
    "living room": "living",
    "this room": "room_id",
    "room": "room_id",
    "meeting room": "meeting_room",
}


@dataclass
class MockLLM:
    """Deterministic rule-based 'language model' for intent translation.

    Also answers datasheet-extraction prompts (see
    :mod:`repro.llm.datasheet`) by echoing structured fields it finds —
    mirroring how PROSPER-style pipelines use LLMs to pull protocol
    specifications out of documents.
    """

    rules: Tuple[IntentRule, ...] = DEFAULT_RULES
    default_device: str = "phone"
    default_room: str = "room_id"

    def complete(self, prompt: str) -> str:
        """Complete an intent-translation or extraction prompt."""
        if "User Input:" in prompt:
            return self._complete_intent(prompt)
        return ""

    # ------------------------------------------------------------------

    def _available_functions(self, prompt: str) -> List[str]:
        """Function names offered in the prompt's tool list."""
        return re.findall(r"- (\w+)\(", prompt)

    def _user_input(self, prompt: str) -> str:
        match = re.search(r"User Input:\s*(.+)", prompt)
        return match.group(1).strip() if match else ""

    def _extract_device(self, text: str) -> str:
        lowered = text.lower()
        if "vr" in lowered and (
            "headset" in lowered or "gaming" in lowered or "game" in lowered
        ):
            return "VR_headset"
        for word in _DEVICE_WORDS:
            if word in lowered:
                return word
        return self.default_device

    def _extract_room(self, text: str) -> str:
        lowered = text.lower()
        for word in _ROOM_WORDS:
            if word in lowered:
                return _ROOM_CANONICAL.get(word, word)
        return self.default_room

    def _complete_intent(self, prompt: str) -> str:
        available = set(self._available_functions(prompt))
        text = self._user_input(prompt)
        lowered = text.lower()
        device = self._extract_device(text)
        room = self._extract_room(text)
        lines: List[str] = []
        for rule in self.rules:
            if not any(k in lowered for k in rule.keywords):
                continue
            # A rule's archetypal device (e.g. meetings happen on
            # laptops) wins unless the user explicitly named one for it
            # ("meeting on my phone").
            rule_device = device
            if rule.device_hint:
                trigger = next(k for k in rule.keywords if k in lowered)
                explicit = re.search(
                    trigger + r"\s+(?:on|with|using)\s+(?:my\s+)?(\w+)",
                    lowered,
                )
                if explicit and explicit.group(1) in _DEVICE_WORDS:
                    rule_device = explicit.group(1)
                else:
                    rule_device = rule.device_hint
            for template in rule.calls:
                call = template.format(device=rule_device, room=room)
                name = call.split("(", 1)[0]
                if available and name not in available:
                    continue
                if call not in lines:
                    lines.append(call)
        return "\n".join(lines)
