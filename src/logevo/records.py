"""Log ingestion: line parsing, volatile-substring scrubbing, temporal batching."""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from pathlib import Path

from .errors import ConfigError, EmptyStream, ParseError


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
# Every alternative's first character is a digit; the lookahead lets the
# engine pass every other position without trying the alternatives there.
_TS_RE = re.compile(
    r"(?=\d)(?:"
    r"\d{4}-\d{2}-\d{2}(?:[T ]\d{2}:\d{2}:\d{2}(?:\.\d+)?(?:Z|[+-]\d{2}:?\d{2})?)?"
    r"|\d{2}:\d{2}:\d{2}(?:\.\d+)?"
    r"|(?<!\d)\d{13}(?!\d)"
    r"|(?<!\d)\d{10}(?!\d)"
    r")"
)

TS_TOKEN = "<TS>"
URL_TOKEN = "<URL>"


def scrub(text: str) -> str:
    """Replace timestamps and URLs with placeholder tokens. Idempotent."""
    if "://" in text:  # no URL without it
        text = _URL_RE.sub(URL_TOKEN, text)
    return _TS_RE.sub(TS_TOKEN, text)


@dataclass(frozen=True)
class LogRecord:
    id: str
    timestamp: datetime  # tz-aware UTC, second precision
    level: Level
    raw_text: str
    scrubbed_text: str

    @classmethod
    def build(cls, id: str, timestamp: datetime, level: Level, raw_text: str) -> "LogRecord":
        """The one place a record's time is put in UTC; a naive time is read as UTC."""
        return cls(id, _utc(timestamp), level, raw_text, scrub(raw_text))


def _utc(t: datetime) -> datetime:
    """``t`` in UTC to the second; ParseError when that leaves years 1 to 9999."""
    if not t.tzinfo:
        return t.replace(tzinfo=timezone.utc, microsecond=0)
    try:
        utc = t.astimezone(timezone.utc)
    except OverflowError as exc:
        raise ParseError(f"{t.isoformat()} falls outside years 1 to 9999 in UTC") from exc
    return utc.replace(microsecond=0)


_ISO_FORMAT = "%Y-%m-%d %H:%M:%S"
# The times in _ISO_FORMAT that fromisoformat reads as strptime does. ASCII
# digits only: strptime also takes other decimal digits, fromisoformat does
# not. Hours stop at 23 in case a fromisoformat reads 24:00:00 as the next
# midnight, which strptime never does.
_ISO_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2} (?:[01][0-9]|2[0-3]):[0-9]{2}:[0-9]{2}")


@dataclass(frozen=True)
class LineFormat:
    """Regex-based line descriptor.

    ``pattern`` must compile and define named groups ``timestamp`` and ``text``;
    ``level`` is optional and any other group is ignored. ``timestamp_format``
    is a strptime pattern that compiles. Formats without a year component
    (syslog-style) set ``default_year``, 1 to 9999, and each time is read in
    that year.
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
        year, ts_format = self.default_year, self.timestamp_format
        if year is not None:
            if not 1 <= year <= 9999:
                raise ValueError(f"default_year {year} is outside years 1 to 9999")
            # %c and %x read a year too.
            if {"%Y", "%y", "%c", "%x"} & set(re.findall(r"%.", ts_format)):
                raise ValueError(f"default_year goes only with a timestamp_format without a year, "
                                 f"not {ts_format!r}")
            # A year-less time is read in its year, so Feb 29 parses in a leap year.
            ts_format = "%Y " + ts_format
        try:  # strptime compiles the format first, and only then fails to match ""
            datetime.strptime("", ts_format)
        except (ValueError, re.error) as exc:  # a bad, stray or repeated directive
            if not str(exc).startswith("time data"):
                raise ValueError(f"timestamp_format {self.timestamp_format!r}: {exc}") from None
        object.__setattr__(self, "_year", "" if year is None else f"{year:04d} ")
        object.__setattr__(self, "_strptime_format", ts_format)
        object.__setattr__(self, "_compiled", compiled)
        object.__setattr__(self, "_iso", self.timestamp_format == _ISO_FORMAT)


def _first_line(line: str, fmt: LineFormat) -> tuple[datetime, Level, str] | None:
    """Time, level and text of a line that starts a record; else None.

    A line whose ``timestamp`` group took no part in the match starts no
    record; a ``text`` group that took none reads as "".
    """
    m = fmt._compiled.match(line)
    if m is None:
        return None
    groups = m.groupdict()
    stamp = groups["timestamp"]
    if stamp is None:
        return None
    try:
        if fmt._iso and _ISO_RE.fullmatch(stamp):
            ts = datetime.fromisoformat(stamp)
        else:
            ts = datetime.strptime(fmt._year + stamp, fmt._strptime_format)
        # Only an offset can put a time past the calendar in UTC, which makes
        # the line a continuation line; a naive time always converts.
        if ts.tzinfo is not None:
            _utc(ts)
    except (ValueError, ParseError):
        return None
    return ts, map_level(groups.get("level")), groups["text"] or ""


def _record(record_id: str, first: tuple, more: list[str]) -> LogRecord:
    """The record of a first line's fields and its continuation lines."""
    ts, level, text = first
    return LogRecord.build(record_id, ts, level, "\n".join([text, *more]))


def read_loghub_file(path: str | Path, fmt: LineFormat) -> tuple[list[LogRecord], int]:
    """Read a raw log file; returns (records, skipped_count).

    A line that does not start a record continues the one before it (a stack
    trace), or is skipped before the first record. Each record is built once,
    from its first line's fields and its lines joined with newlines.
    """
    records: list[LogRecord] = []
    skipped = 0
    path = Path(path)
    pending = None  # the open record's id, first line's fields and continuation lines
    with path.open(encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            line = line.rstrip("\n")
            first = _first_line(line, fmt)
            if first is not None:
                if pending:
                    records.append(_record(*pending))
                pending = (f"{path.name}:{lineno}", first, [])
            elif pending:
                pending[2].append(line)
            else:
                skipped += 1
    if pending:
        records.append(_record(*pending))
    return records, skipped


def read_jsonl(path: str | Path) -> list[LogRecord]:
    """Read records from JSONL with fields {timestamp, level, text, id?}; any
    other field is ignored.

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
            except ValueError as exc:  # a JSONDecodeError, or an int past Python's digit limit
                raise ParseError(f"{path}:{lineno}: invalid JSON") from exc
            if not isinstance(obj, dict) or not {"timestamp", "level", "text"} <= obj.keys():
                raise ParseError(f"{path}:{lineno}: not an object with timestamp, level and text")
            rid, text = obj.get("id", f"{path.name}:{lineno}"), obj["text"]
            if type(text) is not str:
                raise ParseError(f"{path}:{lineno}: text {json.dumps(text)} is not a string")
            if type(rid) not in (str, int):  # a bool is an int to isinstance
                raise ParseError(
                    f"{path}:{lineno}: id {json.dumps(rid)} is not a string or an integer"
                )
            ts_raw, level = obj["timestamp"], map_level(str(obj["level"]))
            try:
                if isinstance(ts_raw, bool):  # an int to Python, but not a time
                    raise ValueError(f"{json.dumps(ts_raw)} is not a time")
                if isinstance(ts_raw, (int, float)):
                    ts = datetime.fromtimestamp(ts_raw, tz=timezone.utc)
                else:
                    ts = datetime.fromisoformat(str(ts_raw).replace("Z", "+00:00"))
                records.append(LogRecord.build(str(rid), ts, level, text))
            except (ValueError, OverflowError, OSError, ParseError) as exc:
                raise ParseError(f"{path}:{lineno}: bad timestamp: {exc}") from exc
    return records


@dataclass(frozen=True)
class BatchPlan:
    """Consecutive windows of ``window``, after one first batch of ``snapshot`` if given."""

    window: timedelta
    snapshot: timedelta | None = None

    def __post_init__(self):
        for name, span in (("window", self.window), ("snapshot", self.snapshot)):
            if span is not None and span <= timedelta(0):
                raise ValueError(f"{name} duration must be positive")

    @staticmethod
    def fixed(window: timedelta) -> "BatchPlan":
        return BatchPlan(window)

    @staticmethod
    def snapshot_plus(snapshot: timedelta, window: timedelta) -> "BatchPlan":
        return BatchPlan(window, snapshot)


@dataclass(frozen=True)
class Batch:
    index: int
    start: datetime
    end: datetime  # exclusive
    records: tuple[LogRecord, ...] = field(default_factory=tuple)


# Hourly windows over ten years fit; each batch costs time and memory even when empty.
MAX_BATCHES = 100_000

_END_OF_TIME = datetime.max.replace(tzinfo=timezone.utc)


def _later(t: datetime, span: timedelta) -> datetime:
    """``t + span``, or the last representable time when that lies beyond it."""
    return t + span if span < _END_OF_TIME - t else _END_OF_TIME


def plan_batches(records: list[LogRecord], plan: BatchPlan) -> list[Batch]:
    """Slice a record stream into consecutive temporal batches.

    Windows are anchored at midnight UTC of the first record's day. Empty
    windows are emitted as empty batches; the cluster-count metric needs them.
    A window that would end past the calendar ends at its last representable time.
    A plan of more than ``MAX_BATCHES`` windows is refused before any is built.
    """
    if not records:
        raise EmptyStream("cannot batch an empty record stream")
    records = sorted(records, key=lambda r: r.timestamp)  # stable
    times = [r.timestamp for r in records]
    first, last = times[0], times[-1]
    anchor = first.replace(hour=0, minute=0, second=0, microsecond=0)

    # After the snapshot, a window starts at each rest + k * window up to the last record.
    rest = anchor if plan.snapshot is None else _later(anchor, plan.snapshot)
    count = (plan.snapshot is not None) + ((last - rest) // plan.window + 1 if rest <= last else 0)
    if count > MAX_BATCHES:
        raise ConfigError(
            f"batch: windows of {plan.window} cut {first.isoformat()} to {last.isoformat()} "
            f"into {count} batches, more than the {MAX_BATCHES} a run allows"
        )

    batches = []
    start, span, lo = anchor, plan.snapshot or plan.window, 0
    while lo < len(records):
        end = _later(start, span)
        hi = bisect_left(times, end, lo)
        batches.append(Batch(len(batches), start, end, tuple(records[lo:hi])))
        start, span, lo = end, plan.window, hi
    return batches
