"""Chat clients for the annotation pipeline: a protocol and a deterministic
mock that groups consecutive pairs of substeps. ``complete(prompt, parse)``
returns ``parse`` of the reply text; ``_http.HttpChatClient`` is the one
over HTTP."""

from __future__ import annotations

import json
from typing import Callable, Protocol, TypeVar

T = TypeVar("T")

MOCK_WINDOW = 2  # substeps per step in the mock's grouping
SUBSTEPS_LINE = "Substeps:\n"  # in grouping.GROUPING_PROMPT, right before the substep array


class ChatClient(Protocol):
    def complete(self, prompt: str, parse: Callable[[str], T]) -> T: ...


class MockGroupingClient:
    """Groups substeps into consecutive pairs (``MOCK_WINDOW``); an odd
    last substep is a step of its own.

    Reads the substep array that follows the grouping prompt's
    ``Substeps:`` line and replies with the JSON contract the parser
    expects; referentially transparent.
    """

    def complete(self, prompt: str, parse: Callable[[str], T]) -> T:
        at = prompt.find(SUBSTEPS_LINE)
        if at == -1:
            raise ValueError("grouping prompt carries no substep array")
        substeps, _ = json.JSONDecoder().raw_decode(prompt, at + len(SUBSTEPS_LINE))
        steps = []
        for start in range(0, len(substeps), MOCK_WINDOW):
            chunk = substeps[start: start + MOCK_WINDOW]
            steps.append({
                "substep_indices": [s["index"] for s in chunk],
                "description": f"do: {chunk[0]['description']}",
            })
        reply = {"steps": steps, "goal": f"complete {len(steps)} activities"}
        return parse(json.dumps(reply))
