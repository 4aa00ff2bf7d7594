"""Chat clients for the annotation pipeline: a protocol and a deterministic
mock that groups consecutive pairs of substeps. ``complete(prompt, parse)``
returns ``parse`` of the reply text; ``_http.HttpChatClient`` is the one
over HTTP."""

from __future__ import annotations

import json
from typing import Callable, Protocol, TypeVar

T = TypeVar("T")

MOCK_WINDOW = 2  # substeps per step in the mock's grouping


class ChatClient(Protocol):
    def complete(self, prompt: str, parse: Callable[[str], T]) -> T: ...


def _find_substep_array(prompt: str) -> list | None:
    """First JSON array of indexed objects embedded anywhere in the text."""
    decoder = json.JSONDecoder()
    pos = prompt.find("[")
    while pos != -1:
        try:
            value, _end = decoder.raw_decode(prompt, pos)
        except json.JSONDecodeError:
            value = None
        if (
            isinstance(value, list) and value
            and all(isinstance(x, dict) and "index" in x for x in value)
        ):
            return value
        pos = prompt.find("[", pos + 1)
    return None


class MockGroupingClient:
    """Groups substeps into consecutive pairs (``MOCK_WINDOW``); an odd
    last substep is a step of its own.

    Reads the substep array embedded in the grouping prompt and replies
    with the JSON contract the parser expects; referentially transparent.
    """

    def complete(self, prompt: str, parse: Callable[[str], T]) -> T:
        substeps = _find_substep_array(prompt)
        if substeps is None:
            raise ValueError("grouping prompt carries no substep array")
        steps = []
        for start in range(0, len(substeps), MOCK_WINDOW):
            chunk = substeps[start: start + MOCK_WINDOW]
            steps.append({
                "substep_indices": [s["index"] for s in chunk],
                "description": f"do: {chunk[0]['description']}",
            })
        reply = {"steps": steps, "goal": f"complete {len(steps)} activities"}
        return parse(json.dumps(reply))
