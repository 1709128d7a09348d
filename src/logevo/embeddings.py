"""Embedding providers: batches of token sequences -> arrays of unit rows.

Neural models are never run in-process. Pretrained word vectors and
sentence embeddings arrive as files; the hashing provider is a hermetic,
deterministic substitute for tests and smoke runs. A line of a word-vectors
file ends at "\\n", and a header's dimension must be that of the first word.

Every provider turns a batch of n sequences into one (n, d) array of unit
rows, so cosine similarity downstream is a dot product. A provider's
``_rows`` only sums or looks up; ``_unit_rows`` then scales each row, and is
the one place a zero or non-finite row becomes ``e0 = (1, 0, ..., 0)``: a
sequence with no tokens, no in-vocabulary tokens or a zero sum.
"""

from __future__ import annotations

import hashlib
import json
import os
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

    ``lines`` maps each word to the number of its first line in ``path``, and
    ``offsets[n - 1]`` is the byte offset of line n, with the file's size
    last: a line ends at "\\n" and nowhere else, and the header, if any, gave
    the first word's dimension. A word's line is read back, parsed and checked
    on its first use, and the vector is kept, so a run holds the values of
    only the words its records use. The file must not change while the
    provider is used.
    """

    def __init__(self, path: Path, lines: dict[str, int], offsets: Sequence[int], dim: int):
        self.path = path
        self.lines = lines
        self.offsets = offsets
        self.dim = dim
        self._vectors: dict[str, np.ndarray] = {}

    def _read(self, words: list[str]) -> None:
        """Read, check and keep the vector of each word, in order, with one open."""
        try:
            with open(self.path, "rb", buffering=0) as fh:
                for word in words:
                    self._vectors[word] = self._parse(fh.fileno(), word, self.lines[word])
        except OSError as exc:
            raise ProviderError(f"cannot read word vectors from {self.path}: {exc}") from exc

    def _parse(self, fd: int, word: str, lineno: int) -> np.ndarray:
        """The checked vector on line ``lineno``, which must still start with ``word``."""
        start, end = self.offsets[lineno - 1], self.offsets[lineno]
        data = os.pread(fd, end - start, start)
        fields = data.decode("utf-8", errors="replace").split() if len(data) == end - start else []
        if not fields or fields[0] != word:
            raise ProviderError(f"{self.path}:{lineno}: the file changed since it was indexed")
        values = fields[1:]
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
        return vec

    def _rows(self, seqs: Sequence[TokenSeq]) -> np.ndarray:
        # New words are read in the order of first use, so that of two bad
        # lines the one of the word used first is reported.
        vectors = self._vectors
        new = dict.fromkeys(t for seq in seqs for t in seq.tokens
                            if t not in vectors and t in self.lines)
        if new:
            self._read(list(new))
        rows = np.zeros((len(seqs), self.dim))
        for row, seq in zip(rows, seqs):
            hits = [vectors[t] for t in seq.tokens if t in vectors]
            if hits:
                # np.mean(hits, axis=0) to the bit, the sign of a zero included,
                # without the cost of its Python wrapper.
                row[:] = np.add.reduce(hits, axis=0)
                row /= len(hits)
        return rows


def load_word_vectors(path: str | Path) -> WordAveragingProvider:
    """Index a word2vec-text-format file (optional "<count> <dim>" header).

    One pass over the file keeps each word's first line number and each
    line's byte offset, not its text; a repeated word keeps its first line,
    unchecked beyond that. A line ends at "\\n", and is decoded on its own;
    a "\\r" before the "\\n", and a "\\f", "\\x85", "\\u2028" or lone "\\r"
    within the line, is whitespace between its fields. Here only the file,
    the header and the first word's line are checked: a header's dimension
    must be that of the first word. The provider checks a word's line when
    the word is first used.
    """
    from array import array  # here, not at the top: runs with another provider skip its 0.1 MB

    path = Path(path)
    lines: dict[str, int] = {}
    offsets = array("q")
    offset = 0
    dim: int | None = None
    try:
        with path.open("rb") as fh:
            for lineno, raw in enumerate(fh, start=1):  # the bytes up to a "\n"
                offsets.append(offset)
                offset += len(raw)
                line = raw.decode("utf-8", errors="replace")
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
                word = parts[0]
                if not lines:  # the first word gives the dimension, or must agree with the header
                    got = len(line.split()) - 1
                    if dim is None and not got:
                        raise ProviderError(f"{path}:{lineno}: the word {word!r} has no vector")
                    if dim is not None and got != dim:
                        raise ProviderError(f"{path}:{lineno}: expected {dim} floats, got {got}")
                    dim = got
                if word not in lines:
                    lines[word] = lineno
            offsets.append(offset)
    except OSError as exc:
        raise ProviderError(f"cannot read word vectors from {path}: {exc}") from exc
    if not lines:
        raise ProviderError(f"{path}: no word vectors found")
    return WordAveragingProvider(path, lines, offsets, dim)


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
