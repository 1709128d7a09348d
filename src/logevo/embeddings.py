"""Embedding providers: batches of token sequences -> arrays of unit rows.

Neural models are never run in-process. Pretrained word vectors and
sentence embeddings arrive as files; the hashing provider is a hermetic,
deterministic substitute for tests and smoke runs.

Every provider turns a batch of n sequences into one (n, d) array of unit
rows, so cosine similarity downstream is a dot product. A provider's
``_rows`` only sums or looks up; ``_unit_rows`` then scales each row, and is
the one place a zero or non-finite row becomes ``e0 = (1, 0, ..., 0)``: a
sequence with no tokens, no in-vocabulary tokens or a zero sum.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .errors import MissingEmbedding, ProviderError
from .textnorm import TokenSeq


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Scale each row to unit length in place; a zero or non-finite row becomes e0."""
    # sqrt(r @ r) is np.linalg.norm(r) to the bit; norm(rows, axis=1) sums in another order.
    norms = np.sqrt([r @ r for r in rows])
    fallback = (norms == 0.0) | ~np.isfinite(norms)
    rows[fallback] = 0.0
    rows[fallback, 0] = 1.0
    norms[fallback] = 1.0
    rows /= norms[:, None]
    return rows


class _Provider:
    """The shared half of a provider: its ``_rows(seqs)`` gives one unscaled row
    per sequence, and ``embed`` makes them unit rows."""

    def embed(self, seqs: Sequence[TokenSeq]) -> np.ndarray:
        """The batch as one (len(seqs), dim) array of unit rows."""
        return _unit_rows(self._rows(seqs))

    def vector(self, seq: TokenSeq) -> np.ndarray:
        return self.embed([seq])[0]


class WordAveragingProvider(_Provider):
    """Averages per-token word vectors; out-of-vocabulary tokens are skipped.

    ``lines`` maps each word to the number and value text of its line in
    ``path``. A word's values are parsed and checked on its first lookup, and
    the vector is kept, so a run converts only the words its records use.
    """

    def __init__(self, path: Path, lines: dict[str, tuple[int, str]], dim: int):
        self.path = path
        self.lines = lines
        self.dim = dim
        self._vectors: dict[str, np.ndarray] = {}

    def lookup(self, word: str) -> np.ndarray | None:
        """The vector of ``word``, or None for a word not in the file."""
        vec = self._vectors.get(word)
        if vec is not None or word not in self.lines:
            return vec
        lineno, text = self.lines[word]
        values = text.split()
        if len(values) != self.dim:
            raise ProviderError(
                f"{self.path}:{lineno}: expected {self.dim} floats, got {len(values)}"
            )
        try:
            vec = np.array(values, dtype=float)
        except ValueError as exc:
            raise ProviderError(f"{self.path}:{lineno}: non-numeric value: {exc}") from exc
        # A finite squared norm bounds the squared norm of any mean of vectors too.
        with np.errstate(over="ignore"):  # an overflowing squared norm is inf
            finite = np.isfinite(vec @ vec)
        if not finite:
            raise ProviderError(f"{self.path}:{lineno}: the vector of {word!r} is not finite")
        self._vectors[word] = vec
        return vec

    def _rows(self, seqs: Sequence[TokenSeq]) -> np.ndarray:
        # Tokens are looked up in order, so that of two bad lines the one of
        # the word used first is reported.
        rows = np.zeros((len(seqs), self.dim))
        for row, seq in zip(rows, seqs):
            hits = [vec for vec in map(self.lookup, seq.tokens) if vec is not None]
            if hits:
                row[:] = np.mean(hits, axis=0)
        return rows


def load_word_vectors(path: str | Path) -> WordAveragingProvider:
    """Index a word2vec-text-format file (optional "<count> <dim>" header).

    One pass over the file keeps each word's line number and value text; a
    repeated word keeps its first line, unchecked beyond that. Here only the
    file, the header and the first word's dimension are checked: the provider
    checks a word's line when the word is first used.
    """
    path = Path(path)
    lines: dict[str, tuple[int, str]] = {}
    dim: int | None = None
    try:
        with path.open(encoding="utf-8", errors="replace", newline="") as fh:
            # Lines end where str.splitlines ends them: at \f, \x85 or \u2028 too.
            text_lines = (line for raw in fh for line in raw.splitlines())
            for lineno, line in enumerate(text_lines, start=1):
                if lineno == 1:
                    head = line.split()
                    # int() reads each such part; "--3" or "²" (a digit, not a decimal) is a word.
                    if len(head) == 2 and all(p.removeprefix("-").isdecimal() for p in head):
                        dim = int(head[1])
                        if dim < 1:
                            raise ProviderError(
                                f"{path}:1: the header gives dimension {dim}, not at least 1"
                            )
                        continue
                parts = line.split(None, 1)
                if not parts:
                    continue
                word, values = parts[0], parts[1] if len(parts) == 2 else ""
                if dim is None:
                    dim = len(values.split())
                    if not dim:
                        raise ProviderError(f"{path}:{lineno}: the word {word!r} has no vector")
                if word not in lines:
                    lines[word] = (lineno, values)
    except OSError as exc:
        raise ProviderError(f"cannot read word vectors from {path}: {exc}") from exc
    if not lines:
        raise ProviderError(f"{path}: no word vectors found")
    return WordAveragingProvider(path, lines, dim)


class HashingProvider(_Provider):
    """Signed hashed bag-of-tokens, stable across platforms and processes."""

    MAX_DIM = 4096  # every record keeps its dense vector for the whole run

    def __init__(self, dim: int, seed: int = 0):
        if not 2 <= dim <= self.MAX_DIM:
            raise ProviderError(f"hashing embedder needs 2 <= dim <= {self.MAX_DIM}, not {dim}")
        # blake2b takes a salt of at most 16 bytes; cutting it would give two seeds one salt.
        if len(str(seed)) > 16:
            raise ProviderError(f"hashing seed {seed} is longer than the 16 characters of a salt")
        self.dim = dim
        self.seed = seed

    def _slot(self, token: str) -> tuple[int, float]:
        digest = hashlib.blake2b(
            token.encode("utf-8"), digest_size=9, salt=str(self.seed).encode()
        ).digest()
        index = int.from_bytes(digest[:8], "big") % self.dim
        sign = 1.0 if digest[8] % 2 == 0 else -1.0
        return index, sign

    def _rows(self, seqs: Sequence[TokenSeq]) -> np.ndarray:
        # One _slot per distinct token of the batch; the table dies with the batch.
        slots = {t: self._slot(t) for t in {t for seq in seqs for t in seq.tokens}}
        rows = np.zeros((len(seqs), self.dim))
        for row, seq in zip(rows, seqs):
            for token in seq.tokens:
                index, sign = slots[token]
                row[index] += sign
        return rows


class PrecomputedProvider(_Provider):
    """Looks vectors up by record id; the route for offline sentence embeddings."""

    def __init__(self, table: dict[str, np.ndarray], dim: int):
        self.table = table
        self.dim = dim

    def _rows(self, seqs: Sequence[TokenSeq]) -> np.ndarray:
        rows = np.empty((len(seqs), self.dim))
        for row, seq in zip(rows, seqs):
            vec = self.table.get(seq.source_id)
            if vec is None:
                raise MissingEmbedding(f"no precomputed vector for record id {seq.source_id!r}")
            row[:] = vec
        return rows


def load_precomputed(path: str | Path) -> PrecomputedProvider:
    """Load a JSONL file of {"id": ..., "vector": [...]} entries."""
    path = Path(path)
    table: dict[str, np.ndarray] = {}
    dim: int | None = None
    try:
        with path.open(encoding="utf-8", errors="replace") as fh, np.errstate(over="ignore"):
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
                # null is NaN; a squared norm past the float range is inf.
                if vec.ndim != 1 or not vec.size or not np.isfinite(vec @ vec):
                    raise ProviderError(f"{path}:{lineno}: the vector is not a list of numbers")
                if dim is None:
                    dim = vec.shape[0]
                elif vec.shape[0] != dim:
                    raise ProviderError(
                        f"{path}:{lineno}: vector dimension {vec.shape[0]} != {dim}"
                    )
                table.setdefault(rid, vec)  # a repeated id keeps its first vector, as a word does
    except OSError as exc:
        raise ProviderError(f"cannot read precomputed vectors from {path}: {exc}") from exc
    if dim is None:
        raise ProviderError(f"{path}: no vectors found")
    return PrecomputedProvider(table, dim)


def write_precomputed(path: str | Path, table: dict[str, np.ndarray]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for rid, vec in table.items():
            fh.write(json.dumps({"id": rid, "vector": list(map(float, vec))}) + "\n")
