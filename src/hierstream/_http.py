"""The one JSON-over-HTTP path every remote call takes: one session, the
API key from ``HIERSTREAM_API_KEY``, one retry loop with exponential
backoff, an in-flight cap, and call counters that tests can assert against.
``HttpChatClient`` is the one chat-completions request, for the describer
and the annotation pipeline alike."""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, TypeVar

API_KEY_ENV = "HIERSTREAM_API_KEY"

T = TypeVar("T")


class TransportError(Exception):
    """Endpoint unreachable, kept failing, or answered with a client error."""


class ClientError(TransportError):
    """A 4xx reply: definitive, never retried."""


@dataclass(frozen=True)
class HttpLimits:
    timeout: float = 30.0
    max_retries: int = 3
    backoff_base: float = 0.5
    max_inflight: int = 4

    def __post_init__(self) -> None:  # each check written so that NaN fails it
        if not 0 < self.timeout < math.inf:  # requests rejects 0 on every call
            raise ValueError(f"timeout must be positive and finite, got {self.timeout}")
        if not 0 <= self.backoff_base < math.inf:
            raise ValueError(f"backoff_base must be >= 0 and finite, got {self.backoff_base}")
        if self.max_retries < 0:  # would send no request at all
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.max_inflight < 1:  # a zero cap would block every request forever
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")


@dataclass
class CallStats:
    requests: int = 0
    retries: int = 0


class JsonHttpClient:
    def __init__(self, base_url: str, limits: HttpLimits = HttpLimits()):
        self.base_url = base_url.rstrip("/")
        self.limits = limits
        self.stats = CallStats()
        self._stats_lock = threading.Lock()  # one client serves several threads
        self._headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        import requests  # here, not at the top: that would cost every process ~14 MiB and 0.1 s
        self._session = requests.Session()
        self._retryable = (requests.ConnectionError, requests.Timeout)
        self._inflight = threading.BoundedSemaphore(limits.max_inflight)

    def post_json(self, path: str, payload: dict, parse: Callable[[Any], Any]) -> Any:
        """``parse`` of the JSON reply. Transport failures, 5xx replies, non-JSON
        bodies and replies ``parse`` rejects share one ``max_retries`` budget;
        a 4xx raises :class:`ClientError` at once. When the budget is spent, a
        ``ValueError`` from ``parse`` is raised as itself, anything else as
        :class:`TransportError`."""
        url = f"{self.base_url}{path}"
        last_error: Exception | None = None
        for attempt in range(self.limits.max_retries + 1):
            if attempt > 0:
                time.sleep(self.limits.backoff_base * (2 ** (attempt - 1)))
                with self._stats_lock:
                    self.stats.retries += 1
            try:
                with self._inflight:
                    with self._stats_lock:
                        self.stats.requests += 1
                    resp = self._session.post(
                        url, json=payload, headers=self._headers, timeout=self.limits.timeout
                    )
            except self._retryable as exc:
                last_error = exc
                continue
            if resp.status_code >= 500:
                last_error = TransportError(f"{url} answered {resp.status_code}")
                continue
            if resp.status_code >= 400:
                raise ClientError(f"{url} answered {resp.status_code}: {resp.text[:200]}")
            try:
                reply = resp.json()
            except ValueError:
                last_error = TransportError(f"{url} answered a body that is not JSON")
                continue
            try:
                return parse(reply)
            except (ValueError, LookupError, TypeError) as exc:
                last_error = exc
        if isinstance(last_error, ValueError):
            raise last_error
        raise TransportError(f"{url}: retries exhausted ({last_error!r})")


class HttpChatClient:
    """One user message to an OpenAI-compatible chat endpoint. ``content`` is
    sent as given: a prompt string, or a list of content parts (text and
    image URLs). ``complete`` returns ``parse`` of the reply text; a reply
    ``parse`` rejects is re-asked within the one retry budget."""

    def __init__(self, base_url: str, model: str, limits: HttpLimits = HttpLimits()):
        self.model = model
        self._client = JsonHttpClient(base_url, limits)
        self.stats = self._client.stats

    def complete(self, content: str | list[dict], parse: Callable[[str], T]) -> T:
        return self._client.post_json("/chat/completions", {
            "model": self.model,
            "temperature": 0.0,
            "messages": [{"role": "user", "content": content}],
        }, parse=lambda reply: parse(reply["choices"][0]["message"]["content"]))
