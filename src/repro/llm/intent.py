"""User demand translation: natural language → validated service calls.

Reproduces the paper's Fig. 6 workflow: build a system prompt that
presents the SurfOS service APIs as callable Python functions, send the
user's natural-language demand, and parse the completion into
:class:`~repro.broker.calls.ServiceCall` objects.

Parsing is deliberately paranoid — the completion is parsed with
``ast`` (never executed), restricted to the whitelisted function names,
and every argument is type-checked by :class:`ServiceCall` — because a
language model's output is untrusted input to the control plane.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..broker.calls import SERVICE_SIGNATURES, ServiceCall
from ..core.errors import TranslationError
from .client import LLMClient

#: Signatures advertised in the prompt, matching the paper's figure.
_PROMPT_SIGNATURES = {
    "enhance_link": "enhance_link(client_id, snr=..., latency=...)",
    "optimize_coverage": "optimize_coverage(room_id, median_snr=...)",
    "enable_sensing": "enable_sensing(room_id, type=..., duration=...)",
    "init_powering": "init_powering(client_id, duration=...)",
    "protect_link": "protect_link(client_id)",
}

#: Positional-parameter names per function, for parsing Fig. 6 style
#: calls like ``enhance_link('VR_headset', snr=30.0)``.
_POSITIONAL = {
    "enhance_link": ["client_id"],
    "optimize_coverage": ["room_id"],
    "enable_sensing": ["room_id"],
    "init_powering": ["client_id"],
    "protect_link": ["client_id"],
}


def build_prompt(
    user_input: str, functions: Optional[Sequence[str]] = None
) -> str:
    """The Fig. 6 system prompt: context, tool list, user input."""
    names = list(functions) if functions else sorted(_PROMPT_SIGNATURES)
    unknown = set(names) - set(_PROMPT_SIGNATURES)
    if unknown:
        raise TranslationError(f"unknown functions for prompt: {sorted(unknown)}")
    lines = [
        "Context: You are a programmer who writes code to control "
        "metasurfaces to meet user demands. Respond only with python "
        "function calls, one per line. You can call the following "
        "python functions:",
    ]
    lines.extend(f"- {_PROMPT_SIGNATURES[name]}" for name in names)
    lines.append("")
    lines.append(f"User Input: {user_input}")
    return "\n".join(lines)


def _literal(node: ast.expr) -> object:
    try:
        return ast.literal_eval(node)
    except (ValueError, SyntaxError) as exc:
        raise TranslationError(
            f"non-literal argument in generated call: {ast.dump(node)}"
        ) from exc


def parse_calls(completion: str) -> List[ServiceCall]:
    """Parse an LLM completion into validated service calls.

    Unknown function names, non-literal arguments, and signature
    violations all raise :class:`TranslationError`; nothing is executed.
    Non-call lines (explanatory comments) are skipped.
    """
    calls: List[ServiceCall] = []
    for raw_line in completion.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            tree = ast.parse(line, mode="eval")
        except SyntaxError:
            continue  # prose the model added around the calls
        node = tree.body
        if not isinstance(node, ast.Call) or not isinstance(
            node.func, ast.Name
        ):
            continue
        name = node.func.id
        if name not in SERVICE_SIGNATURES:
            raise TranslationError(f"generated call to unknown function {name!r}")
        positional = _POSITIONAL[name]
        if len(node.args) > len(positional):
            raise TranslationError(
                f"{name}: too many positional arguments in generated call"
            )
        arguments: Dict[str, object] = {}
        for param, arg in zip(positional, node.args):
            arguments[param] = _literal(arg)
        for kw in node.keywords:
            if kw.arg is None:
                raise TranslationError(f"{name}: **kwargs not allowed")
            arguments[kw.arg] = _literal(kw.value)
        calls.append(ServiceCall(function=name, arguments=arguments))
    return calls


@dataclass
class IntentTranslator:
    """Translate user demands through any :class:`LLMClient`."""

    client: LLMClient
    functions: Optional[Sequence[str]] = None

    def translate(self, user_input: str) -> List[ServiceCall]:
        """Natural language → validated service calls."""
        if not user_input.strip():
            raise TranslationError("empty user input")
        prompt = build_prompt(user_input, self.functions)
        completion = self.client.complete(prompt)
        return parse_calls(completion)


#: Fallback eavesdropper offset for protect_link calls that name no
#: location: a plausible over-the-shoulder spot near the device.
_DEFAULT_EVE_OFFSET = (1.0, -0.7, 0.0)


def dispatch_calls(
    calls: Sequence[ServiceCall], orchestrator
) -> List[object]:
    """Execute validated calls against a surface orchestrator.

    Returns the created :class:`ServiceTask` objects, in call order.
    """
    tasks = []
    for call in calls:
        args = dict(call.arguments)
        if call.function == "enhance_link":
            tasks.append(
                orchestrator.enhance_link(
                    args["client_id"],
                    snr=args.get("snr"),
                    latency=args.get("latency"),
                    priority=int(args.get("priority", 6)),
                )
            )
        elif call.function == "optimize_coverage":
            tasks.append(
                orchestrator.optimize_coverage(
                    args["room_id"],
                    median_snr=args.get("median_snr"),
                    priority=int(args.get("priority", 4)),
                )
            )
        elif call.function == "enable_sensing":
            # Fig. 6 completions spell the kwarg ``type=`` (kept verbatim
            # from the paper); the orchestrator API takes ``mode=``.
            tasks.append(
                orchestrator.enable_sensing(
                    args["room_id"],
                    mode=args.get("mode", args.get("type", "tracking")),
                    duration=args.get("duration", 3600.0),
                    priority=int(args.get("priority", 5)),
                )
            )
        elif call.function == "init_powering":
            tasks.append(
                orchestrator.init_powering(
                    args["client_id"],
                    duration=args.get("duration", 3600.0),
                    priority=int(args.get("priority", 3)),
                )
            )
        elif call.function == "protect_link":
            eve = args.get("eavesdropper_position")
            if eve is None:
                client = orchestrator.hardware.client(args["client_id"])
                eve = tuple(
                    float(c) + o
                    for c, o in zip(client.position, _DEFAULT_EVE_OFFSET)
                )
            tasks.append(
                orchestrator.protect_link(
                    args["client_id"],
                    eavesdropper_position=eve,
                    priority=int(args.get("priority", 7)),
                    nulling_weight=float(args.get("nulling_weight", 1.0)),
                )
            )
        else:  # pragma: no cover - ServiceCall already validates names
            raise TranslationError(f"unroutable call {call.function!r}")
    return tasks
