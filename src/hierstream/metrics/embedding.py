"""Text embedders behind one interface: a deterministic hashed bag-of-words
mock for offline runs and tests, and a client for OpenAI-compatible
``/v1/embeddings`` endpoints. All embedders return unit-norm vectors."""

from __future__ import annotations

import re
import zlib
from typing import Protocol, Sequence

import numpy as np

from .._http import HttpLimits, JsonHttpClient

_TOKEN_RE = re.compile(r"[a-z0-9]+")
HASHED_DIM = 256


class Embedder(Protocol):
    def embed(self, texts: Sequence[str]) -> np.ndarray: ...


class HashedBagOfWordsEmbedder:
    """L2-normalized hashed bag of words over lowercased tokens.

    Deterministic across processes (crc32, not the salted builtin hash).
    Token-free texts map to a reserved coordinate so cosine(v, v) is
    always 1.
    """

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        out = np.zeros((len(texts), HASHED_DIM), dtype=np.float64)
        for row, text in enumerate(texts):
            tokens = _TOKEN_RE.findall(text.lower())
            if not tokens:
                tokens = ["<empty>"]
            for tok in tokens:
                out[row, zlib.crc32(tok.encode("utf-8")) % HASHED_DIM] += 1.0
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        return out / norms


class HttpEmbedder:
    """Embeddings via an OpenAI-compatible endpoint; vectors are normalized
    on arrival."""

    def __init__(self, base_url: str, model: str, limits: HttpLimits = HttpLimits()):
        self.model = model
        self._client = JsonHttpClient(base_url, limits)
        self.stats = self._client.stats

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        def parse(reply) -> np.ndarray:
            rows = sorted(reply["data"], key=lambda d: d["index"])
            vectors = np.array([r["embedding"] for r in rows], dtype=np.float64)
            if vectors.shape[0] != len(texts):
                raise ValueError(
                    f"endpoint returned {vectors.shape[0]} embeddings for {len(texts)} texts"
                )
            return vectors

        vectors = self._client.post_json(
            "/embeddings", {"model": self.model, "input": list(texts)}, parse=parse
        )
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return vectors / norms
