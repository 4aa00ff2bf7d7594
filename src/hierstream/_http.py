"""Shared JSON-over-HTTP plumbing: one session, retries with exponential
backoff on transport failures and 5xx replies, an in-flight cap, and call
counters that tests can assert against."""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass


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


@dataclass
class CallStats:
    requests: int = 0
    retries: int = 0


class JsonHttpClient:
    def __init__(self, base_url: str, api_key: str | None = None,
                 limits: HttpLimits = HttpLimits()):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.limits = limits
        self.stats = CallStats()
        import requests  # here, not at the top: that would cost every process ~14 MiB and 0.1 s
        self._session = requests.Session()
        self._retryable = (requests.ConnectionError, requests.Timeout)
        self._inflight = threading.BoundedSemaphore(limits.max_inflight)

    def post_json(self, path: str, payload: dict) -> dict:
        url = f"{self.base_url}{path}"
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        last_error: Exception | None = None
        for attempt in range(self.limits.max_retries + 1):
            if attempt > 0:
                time.sleep(self.limits.backoff_base * (2 ** (attempt - 1)))
                self.stats.retries += 1
            try:
                with self._inflight:
                    self.stats.requests += 1
                    resp = self._session.post(
                        url, json=payload, headers=headers, timeout=self.limits.timeout
                    )
            except self._retryable as exc:
                last_error = exc
                continue
            if resp.status_code >= 500:
                last_error = TransportError(f"{url} answered {resp.status_code}")
                continue
            if resp.status_code >= 400:
                raise ClientError(f"{url} answered {resp.status_code}: {resp.text[:200]}")
            return resp.json()
        raise TransportError(f"{url}: retries exhausted ({last_error})")
