"""Text normalization: scrubbed log text -> token sequence ready for embedding."""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .records import TS_TOKEN, URL_TOKEN

# Placeholders survive untouched; everything else splits on any non-alphanumeric
# character, which also breaks identifiers on "_" and ".".
_TOKEN_RE = re.compile(r"<TS>|<URL>|[A-Za-z0-9]+")

_PLACEHOLDERS = {TS_TOKEN, URL_TOKEN}


def stopwords_file(path: str | None = None):
    """The stopword file at ``path``; None is the packaged list."""
    if path is None:
        return resources.files("logevo.data").joinpath("stopwords.txt")
    return Path(path)


@lru_cache(maxsize=None)
def load_stopwords(path: str | None = None) -> frozenset[str]:
    with stopwords_file(path).open(encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


def _undouble(tok: str) -> str:
    # Porter-style: collapse a doubled final consonant, except l/s/z.
    if len(tok) >= 2 and tok[-1] == tok[-2] and tok[-1] not in "aeioulsz":
        return tok[:-1]
    return tok


def _stem_once(tok: str) -> str:
    if tok.endswith("es") and len(tok) - 2 >= 3:
        tok = tok[:-2]
    elif tok.endswith("s") and not tok.endswith("ss") and len(tok) - 1 >= 3:
        tok = tok[:-1]
    if tok.endswith("ing") and len(tok) - 3 >= 3:
        tok = _undouble(tok[:-3])
    elif tok.endswith("ed") and len(tok) - 2 >= 3:
        tok = _undouble(tok[:-2])
    return tok


def stem(tok: str) -> str:
    """Rule-based suffix normalizer, iterated to a fixed point."""
    while True:
        out = _stem_once(tok)
        if out == tok:
            return out
        tok = out


@dataclass(frozen=True)
class TokenSeq:
    tokens: tuple[str, ...]
    source_id: str


def _kept(raw: str, stopwords: frozenset[str]) -> str | None:
    """The token that ``raw`` becomes, or None when it is dropped."""
    if raw in _PLACEHOLDERS:
        return raw
    tok = stem(raw.lower())
    return tok if tok and tok not in stopwords else None


def normalize(
    text: str,
    source_id: str = "",
    stopwords: frozenset[str] | None = None,
    table: dict[str, str | None] | None = None,
) -> TokenSeq:
    """Tokenize, lowercase, suffix-normalize, and drop stopwords.

    Stemming runs before the stopword filter so stems that collapse onto a
    stopword ("others" -> "other") are still removed, which keeps normalize
    idempotent on its own output.

    ``table`` maps each raw token seen so far to its kept token, or to None
    when it is dropped; calls that pass the same dict share that work, so
    they must pass the same ``stopwords`` too.
    """
    if stopwords is None:
        stopwords = load_stopwords()
    if table is None:
        table = {}
    out = []
    for raw in _TOKEN_RE.findall(text):
        if raw not in table:
            table[raw] = _kept(raw, stopwords)
        tok = table[raw]
        if tok is not None:
            out.append(tok)
    return TokenSeq(tuple(out), source_id)
