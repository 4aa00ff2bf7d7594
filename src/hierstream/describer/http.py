"""Describer backed by an OpenAI-compatible vision chat endpoint: one
``HttpChatClient.complete`` per describe call, so a malformed completion is
retried like a 5xx. The prompt goes out as a text part and each frame
handle, unchanged, as an image URL part; callers with real frames pass a
``frame_handle`` that returns http(s) or ``data:`` URLs.
"""

from __future__ import annotations

from .._http import HttpChatClient
from .responses import DescribeRequest, DescriberResponse, parse_response


class HttpDescriber:
    """The online loop's describe function over one chat client; usable
    wherever the mock is."""

    def __init__(self, client: HttpChatClient):
        self._client = client
        self.stats = client.stats

    def __call__(self, _bundle, request: DescribeRequest) -> DescriberResponse:
        content = [{"type": "text", "text": request.prompt}]
        content += [{"type": "image_url", "image_url": {"url": h}} for h in request.frame_handles]
        return self._client.complete(content, parse_response)
