"""Embedding providers: token sequences -> fixed-dimension unit vectors.

Neural models are never run in-process. Pretrained word vectors and
sentence embeddings arrive as files; the hashing provider is a hermetic,
deterministic substitute for tests and smoke runs.

Every provider returns unit-norm vectors, so cosine similarity downstream is
a dot product. That includes the fallback ``e0 = (1, 0, ..., 0)``, returned
for a sequence with no tokens, no in-vocabulary tokens or a zero sum.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import MissingEmbedding, ProviderError
from .textnorm import TokenSeq


def _fallback_vector(dim: int) -> np.ndarray:
    v = np.zeros(dim)
    v[0] = 1.0
    return v


def _l2_normalize(v: np.ndarray, dim: int) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if norm == 0.0 or not np.isfinite(norm):
        return _fallback_vector(dim)
    return v / norm


class WordAveragingProvider:
    """Averages per-token word vectors; out-of-vocabulary tokens are skipped."""

    def __init__(self, vocab: dict[str, np.ndarray], dim: int):
        self.vocab = vocab
        self.dim = dim

    def vector(self, seq: TokenSeq) -> np.ndarray:
        hits = [self.vocab[t] for t in seq.tokens if t in self.vocab]
        if not hits:
            return _fallback_vector(self.dim)
        return _l2_normalize(np.mean(hits, axis=0), self.dim)


def load_word_vectors(path: str | Path) -> WordAveragingProvider:
    """Load a word2vec-text-format file (optional "<count> <dim>" header)."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ProviderError(f"cannot read word vectors from {path}: {exc}") from exc

    vocab: dict[str, np.ndarray] = {}
    dim: int | None = None
    start = 0
    if lines:
        head = lines[0].split()
        if len(head) == 2 and all(p.lstrip("-").isdigit() for p in head):
            dim = int(head[1])
            start = 1
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        parts = line.split()
        token, values = parts[0], parts[1:]
        if dim is None:
            dim = len(values)
        if len(values) != dim:
            raise ProviderError(
                f"{path}:{lineno}: expected {dim} floats, got {len(values)}"
            )
        if token in vocab:  # first occurrence wins
            continue
        try:
            vec = np.array(values, dtype=float)
        except ValueError as exc:
            raise ProviderError(f"{path}:{lineno}: non-numeric value: {exc}") from exc
        vocab[token] = vec
    if dim is None or not vocab:
        raise ProviderError(f"{path}: no word vectors found")
    return WordAveragingProvider(vocab, dim)


class HashingProvider:
    """Signed hashed bag-of-tokens, stable across platforms and processes."""

    MAX_DIM = 4096  # every record keeps its dense vector for the whole run

    def __init__(self, dim: int, seed: int = 0):
        if not 2 <= dim <= self.MAX_DIM:
            raise ProviderError(f"hashing embedder needs 2 <= dim <= {self.MAX_DIM}, not {dim}")
        self.dim = dim
        self.seed = seed

    def _slot(self, token: str) -> tuple[int, float]:
        digest = hashlib.blake2b(
            token.encode("utf-8"), digest_size=9, salt=str(self.seed).encode()[:16]
        ).digest()
        index = int.from_bytes(digest[:8], "big") % self.dim
        sign = 1.0 if digest[8] % 2 == 0 else -1.0
        return index, sign

    def vector(self, seq: TokenSeq) -> np.ndarray:
        if not seq.tokens:
            return _fallback_vector(self.dim)
        v = np.zeros(self.dim)
        for token in seq.tokens:
            index, sign = self._slot(token)
            v[index] += sign
        return _l2_normalize(v, self.dim)


class PrecomputedProvider:
    """Looks vectors up by record id; the route for offline sentence embeddings."""

    def __init__(self, table: dict[str, np.ndarray], dim: int):
        self.table = table
        self.dim = dim

    def vector(self, seq: TokenSeq) -> np.ndarray:
        vec = self.table.get(seq.source_id)
        if vec is None:
            raise MissingEmbedding(seq.source_id)
        return _l2_normalize(vec, self.dim)


def load_precomputed(path: str | Path) -> PrecomputedProvider:
    """Load a JSONL file of {"id": ..., "vector": [...]} entries."""
    path = Path(path)
    table: dict[str, np.ndarray] = {}
    dim: int | None = None
    try:
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                    rid, vec = str(obj["id"]), np.array(obj["vector"], dtype=float)
                except (KeyError, TypeError, ValueError) as exc:  # a JSONDecodeError is a ValueError
                    raise ProviderError(
                        f"{path}:{lineno}: not an object with an id and a vector of numbers: {exc}"
                    ) from exc
                if vec.ndim != 1 or not vec.size or not np.isfinite(vec).all():  # null is NaN
                    raise ProviderError(f"{path}:{lineno}: the vector is not a list of numbers")
                if dim is None:
                    dim = vec.shape[0]
                elif vec.shape[0] != dim:
                    raise ProviderError(
                        f"{path}:{lineno}: vector dimension {vec.shape[0]} != {dim}"
                    )
                table[rid] = vec
    except OSError as exc:
        raise ProviderError(f"cannot read precomputed vectors from {path}: {exc}") from exc
    if dim is None:
        raise ProviderError(f"{path}: no vectors found")
    return PrecomputedProvider(table, dim)


def write_precomputed(path: str | Path, table: dict[str, np.ndarray]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for rid, vec in table.items():
            fh.write(json.dumps({"id": rid, "vector": list(map(float, vec))}) + "\n")
