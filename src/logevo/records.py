"""Log ingestion: line parsing, volatile-substring scrubbing, temporal batching."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from enum import Enum
from pathlib import Path

from .errors import EmptyStream, ParseError


class Level(str, Enum):
    ERROR = "ERROR"
    WARN = "WARN"
    INFO = "INFO"
    DEBUG = "DEBUG"
    OTHER = "OTHER"


_LEVEL_ALIASES = {
    "ERROR": Level.ERROR,
    "ERR": Level.ERROR,
    "FATAL": Level.ERROR,
    "WARN": Level.WARN,
    "WARNING": Level.WARN,
    "INFO": Level.INFO,
    "DEBUG": Level.DEBUG,
    "TRACE": Level.DEBUG,
}


def map_level(token: str | None) -> Level:
    """Total, case-insensitive mapping of a raw level token onto the enum."""
    if token is None:
        return Level.OTHER
    return _LEVEL_ALIASES.get(token.strip().upper(), Level.OTHER)


# URLs are replaced first so timestamps inside query strings vanish with them.
_URL_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.\-]*://\S*")

# Longest alternatives first: a full datetime must not be eaten piecemeal.
_TS_RE = re.compile(
    r"\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}:\d{2}(?:\.\d+)?(?:Z|[+-]\d{2}:?\d{2})?"
    r"|\d{4}-\d{2}-\d{2}"
    r"|\d{2}:\d{2}:\d{2}(?:\.\d+)?"
    r"|(?<!\d)\d{13}(?!\d)"
    r"|(?<!\d)\d{10}(?!\d)"
)

TS_TOKEN = "<TS>"
URL_TOKEN = "<URL>"


def scrub(text: str) -> str:
    """Replace timestamps and URLs with placeholder tokens. Idempotent."""
    text = _URL_RE.sub(URL_TOKEN, text)
    return _TS_RE.sub(TS_TOKEN, text)


@dataclass(frozen=True)
class LogRecord:
    id: str
    timestamp: datetime  # tz-aware UTC, second precision
    level: Level
    raw_text: str
    scrubbed_text: str
    source: str | None = None

    @classmethod
    def build(
        cls,
        id: str,
        timestamp: datetime,
        level: Level,
        raw_text: str,
        source: str | None = None,
    ) -> "LogRecord":
        if timestamp.tzinfo is None:
            timestamp = timestamp.replace(tzinfo=timezone.utc)
        timestamp = timestamp.astimezone(timezone.utc).replace(microsecond=0)
        return cls(id, timestamp, level, raw_text, scrub(raw_text), source)

    def with_appended_text(self, extra: str) -> "LogRecord":
        raw = self.raw_text + "\n" + extra
        return replace(self, raw_text=raw, scrubbed_text=scrub(raw))


@dataclass(frozen=True)
class LineFormat:
    """Regex-based line descriptor.

    ``pattern`` must compile and define named groups ``timestamp`` and ``text``;
    ``level`` and ``source`` are optional. ``timestamp_format`` is a strptime
    pattern. Formats without a year component (syslog-style) set ``default_year``.
    """

    name: str
    pattern: str
    timestamp_format: str
    default_year: int | None = None

    def __post_init__(self):
        try:
            compiled = re.compile(self.pattern)
        except re.error as exc:
            raise ValueError(f"pattern {self.pattern!r} does not compile: {exc}") from exc
        if not {"timestamp", "text"} <= compiled.groupindex.keys():
            raise ValueError(f"pattern {self.pattern!r} lacks a group 'timestamp' or 'text'")
        object.__setattr__(self, "_compiled", compiled)

    @property
    def regex(self) -> re.Pattern:
        return self._compiled


def parse_loghub_line(line: str, fmt: LineFormat, record_id: str = "0") -> LogRecord:
    """Parse one physical log line; raises ParseError when the format misses."""
    m = fmt.regex.match(line.rstrip("\n"))
    if m is None:
        raise ParseError(f"line does not match format {fmt.name!r}: {line[:80]!r}")
    groups = m.groupdict()
    ts_text = groups["timestamp"]
    try:
        ts = datetime.strptime(ts_text, fmt.timestamp_format)
    except ValueError as exc:
        raise ParseError(f"bad timestamp {ts_text!r} for format {fmt.name!r}") from exc
    if fmt.default_year is not None:
        ts = ts.replace(year=fmt.default_year)
    return LogRecord.build(
        id=record_id,
        timestamp=ts,
        level=map_level(groups.get("level")),
        raw_text=groups["text"],
        source=groups.get("source"),
    )


def read_loghub_file(path: str | Path, fmt: LineFormat) -> tuple[list[LogRecord], int]:
    """Read a raw log file.

    Lines that fail the format are appended to the previous record (stack
    traces); before the first record they are counted and skipped. Returns
    (records, skipped_count).
    """
    records: list[LogRecord] = []
    skipped = 0
    path = Path(path)
    with path.open(encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = parse_loghub_line(line, fmt, record_id=f"{path.name}:{lineno}")
            except ParseError:
                if records:
                    records[-1] = records[-1].with_appended_text(line.rstrip("\n"))
                else:
                    skipped += 1
                continue
            records.append(rec)
    return records, skipped


def read_jsonl(path: str | Path) -> list[LogRecord]:
    """Read records from JSONL with fields {id?, timestamp, level, text, source?}.

    Bytes that are not UTF-8 read as U+FFFD, as in ``read_loghub_file``.
    """
    records = []
    path = Path(path)
    with path.open(encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON") from exc
            if not isinstance(obj, dict) or not {"timestamp", "level", "text"} <= obj.keys():
                raise ParseError(f"{path}:{lineno}: not an object with timestamp, level and text")
            ts_raw = obj["timestamp"]
            try:
                if isinstance(ts_raw, (int, float)):
                    ts = datetime.fromtimestamp(ts_raw, tz=timezone.utc)
                else:
                    ts = datetime.fromisoformat(str(ts_raw).replace("Z", "+00:00"))
                    if ts.tzinfo is not None:  # in UTC it may fall outside years 1 to 9999
                        ts = ts.astimezone(timezone.utc)
            except (ValueError, OverflowError, OSError) as exc:
                raise ParseError(f"{path}:{lineno}: bad timestamp: {exc}") from exc
            records.append(
                LogRecord.build(
                    id=str(obj.get("id", f"{path.name}:{lineno}")),
                    timestamp=ts,
                    level=map_level(str(obj["level"])),
                    raw_text=str(obj["text"]),
                    source=obj.get("source"),
                )
            )
    return records


class BatchMode(str, Enum):
    FIXED_WINDOW = "FIXED_WINDOW"
    SNAPSHOT_PLUS_WINDOW = "SNAPSHOT_PLUS_WINDOW"


@dataclass(frozen=True)
class BatchPlan:
    mode: BatchMode
    window: timedelta
    snapshot: timedelta | None = None

    def __post_init__(self):
        if self.window <= timedelta(0):
            raise ValueError("window duration must be positive")
        if self.mode is BatchMode.SNAPSHOT_PLUS_WINDOW:
            if self.snapshot is None or self.snapshot <= timedelta(0):
                raise ValueError("snapshot duration must be positive")

    @staticmethod
    def fixed(window: timedelta) -> "BatchPlan":
        return BatchPlan(BatchMode.FIXED_WINDOW, window)

    @staticmethod
    def snapshot_plus(snapshot: timedelta, window: timedelta) -> "BatchPlan":
        return BatchPlan(BatchMode.SNAPSHOT_PLUS_WINDOW, window, snapshot)


@dataclass(frozen=True)
class Batch:
    index: int
    start: datetime
    end: datetime  # exclusive
    records: tuple[LogRecord, ...] = field(default_factory=tuple)


_END_OF_TIME = datetime.max.replace(tzinfo=timezone.utc)


def _later(t: datetime, span: timedelta) -> datetime:
    """``t + span``, or the last representable time when that lies beyond it."""
    return t + span if span < _END_OF_TIME - t else _END_OF_TIME


def plan_batches(records: list[LogRecord], plan: BatchPlan) -> list[Batch]:
    """Slice a record stream into consecutive temporal batches.

    Windows are anchored at midnight UTC of the first record's day. Empty
    windows are emitted as empty batches; the cluster-count metric needs them.
    A window that would end past the calendar ends at its last representable time.
    """
    if not records:
        raise EmptyStream("cannot batch an empty record stream")
    records = sorted(records, key=lambda r: r.timestamp)  # stable
    first, last = records[0].timestamp, records[-1].timestamp
    anchor = first.replace(hour=0, minute=0, second=0, microsecond=0)

    bounds: list[tuple[datetime, datetime]] = []
    cursor = anchor
    if plan.mode is BatchMode.SNAPSHOT_PLUS_WINDOW:
        bounds.append((cursor, _later(cursor, plan.snapshot)))
        cursor = bounds[-1][1]
    while cursor <= last:
        bounds.append((cursor, _later(cursor, plan.window)))
        cursor = bounds[-1][1]

    batches = []
    i = 0
    for index, (start, end) in enumerate(bounds):
        members = []
        while i < len(records) and records[i].timestamp < end:
            members.append(records[i])
            i += 1
        batches.append(Batch(index, start, end, tuple(members)))
    return batches
