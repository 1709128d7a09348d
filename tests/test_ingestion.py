"""Parsing, scrubbing, and temporal batching."""

import json
import re
import sys
from datetime import datetime, timedelta, timezone
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from logevo import records as records_module
from logevo.cli import main
from logevo.errors import ConfigError, EmptyStream, ParseError
from logevo.formats import HDFS_2, LINUX, SIMPLE
from logevo.records import (
    _first_line,
    _utc,
    Batch,
    BatchPlan,
    Level,
    LineFormat,
    map_level,
    plan_batches,
    read_jsonl,
    read_loghub_file,
    scrub,
)

from helpers import T0, plan_batches_reference, record


class TestParse:
    def test_simple_line(self, tmp_path):
        [rec], skipped = TestLoghubFile.read(
            tmp_path, "2017-05-16 00:00:04 ERROR Connection timeout to host db-7\n"
        )
        assert skipped == 0
        assert rec.level is Level.ERROR
        assert rec.raw_text == "Connection timeout to host db-7"
        assert rec.timestamp == datetime(2017, 5, 16, 0, 0, 4, tzinfo=timezone.utc)

    def test_garbage_line_is_skipped(self, tmp_path):
        assert TestLoghubFile.read(tmp_path, "garbage line\n") == ([], 1)

    @pytest.mark.parametrize(
        "pattern, detail",
        [("(", "does not compile"), (r"(?P<ts>\S+) (?P<text>.*)", "lacks a group")],
    )
    def test_line_format_needs_a_pattern_with_timestamp_and_text(self, pattern, detail):
        with pytest.raises(ValueError, match=detail):
            LineFormat(name="custom", pattern=pattern, timestamp_format="%Y")

    def test_linux_sample_hand_parsed(self, tmp_path):
        # Hand-constructed 10-line syslog sample; expectations derived manually.
        lines = [
            ("Jun 14 15:16:01 combo sshd(pam_unix)[19939]: authentication failure", 1),
            ("Jun 14 15:16:02 combo sshd(pam_unix)[19937]: check pass; user unknown", 2),
            ("Jun 14 15:16:02 combo kernel: audit rate limit exceeded", 2),
            ("Jun 14 15:20:16 combo su(pam_unix)[21416]: session opened for user news", 16),
            ("Jun 15 02:04:59 combo ftpd[29504]: connection from 206.196.21.129", 59),
            ("Jun 15 02:04:59 combo ftpd[29508]: connection from 206.196.21.129", 59),
            ("Jun 15 04:06:18 combo su(pam_unix)[31618]: session opened for user cyrus", 18),
            ("Jun 15 04:06:19 combo logrotate: ALERT exited abnormally with [1]", 19),
            ("Jun 15 12:12:34 combo sshd[2546]: Accepted password for root", 34),
            ("Jun 16 04:06:19 combo su(pam_unix)[1234]: session opened for user cyrus", 19),
        ]
        records = [TestLoghubFile.read(tmp_path, line + "\n", LINUX)[0][0] for line, _ in lines]
        timestamps = [r.timestamp for r in records]
        assert timestamps == sorted(timestamps)
        for rec, (_, second) in zip(records, lines):
            assert rec.timestamp.second == second
            assert rec.level is Level.OTHER
        assert records[0].raw_text == "sshd(pam_unix)[19939]: authentication failure"
        assert records[4].timestamp == datetime(2017, 6, 15, 2, 4, 59, tzinfo=timezone.utc)

    @given(st.text(max_size=12))
    def test_level_mapping_total(self, token):
        assert isinstance(map_level(token), Level)

    def test_level_aliases(self):
        assert map_level("fatal") is Level.ERROR
        assert map_level("Err") is Level.ERROR
        assert map_level("WARNING") is Level.WARN
        assert map_level("trace") is Level.DEBUG
        assert map_level("notice") is Level.OTHER

    # Fourteen digits as an HDFS_2 time. Some are not ASCII: strptime reads
    # those, fromisoformat does not.
    @given(st.one_of(
        st.datetimes().map(lambda t: f"{t.year:04}{t.month:02}{t.day:02}"
                                     f"{t.hour:02}{t.minute:02}{t.second:02}"),
        st.text(alphabet="0123456789\u0663\uff12", min_size=14, max_size=14),
    ))
    @example("20170516000004")
    @example("20170230000000")  # Feb 30
    @example("20170516240000")  # hour 24
    @example("20170516000060")  # second 60
    @example("00000101000000")  # year 0000
    @example("\u06630170516000004")
    @example("2017051600000\uff14")
    def test_an_iso_time_reads_as_strptime_reads_it(self, d):
        stamp = f"{d[0:4]}-{d[4:6]}-{d[6:8]} {d[8:10]}:{d[10:12]}:{d[12:14]}"
        try:
            expected = datetime.strptime(stamp, "%Y-%m-%d %H:%M:%S")
        except ValueError:
            expected = None
        first = _first_line(f"{stamp},978 INFO [main] org.apache.Foo: ok", HDFS_2)
        assert (first and first[0]) == expected

    @staticmethod
    def _two_step_utc(t):
        """``_utc`` as it was: the zone, then the microseconds, one ``replace`` each."""
        try:
            utc = t.astimezone(timezone.utc) if t.tzinfo else t.replace(tzinfo=timezone.utc)
        except OverflowError as exc:
            raise ParseError(f"{t.isoformat()} falls outside years 1 to 9999 in UTC") from exc
        return utc.replace(microsecond=0)

    _ZONES = st.none() | st.timedeltas(
        min_value=-timedelta(hours=23, minutes=59), max_value=timedelta(hours=23, minutes=59)
    ).map(timezone)

    @given(st.datetimes(timezones=_ZONES))
    @example(datetime(9999, 12, 31, 23, 0, tzinfo=timezone(timedelta(hours=-5))))
    @example(datetime(1, 1, 1, 1, 0, tzinfo=timezone(timedelta(hours=5))))
    @example(datetime(9999, 12, 31, 23, 59, 59, 999999))
    @example(datetime(1, 1, 1, 0, 0, 0, 1))
    def test_utc_equals_the_two_step_utc(self, t):
        try:
            expected = self._two_step_utc(t)
        except ParseError as exc:
            with pytest.raises(ParseError, match=f"^{re.escape(str(exc))}$"):
                _utc(t)
        else:
            got = _utc(t)
            assert (got.isoformat(), got.tzinfo) == (expected.isoformat(), expected.tzinfo)


# Two lines whose second time, read through %z, is past year 9999 once in UTC.
ISO_OFFSET = LineFormat(
    name="iso_offset",
    pattern=r"(?P<timestamp>\S+) (?P<level>\S+) (?P<text>.*)",
    timestamp_format="%Y-%m-%dT%H:%M:%S%z",
)
PAST_THE_CALENDAR = "2017-05-16T00:00:00+0000 ERROR disk full\n9999-12-31T23:00:00-0500 ERROR disk full\n"


class TestLoghubFile:
    @staticmethod
    def read(tmp_path, text, fmt=SIMPLE):
        path = tmp_path / "raw.log"
        path.write_text(text)
        return read_loghub_file(path, fmt)

    def test_lines_before_the_first_record_are_skipped(self, tmp_path):
        records, skipped = self.read(
            tmp_path, "banner\n\n  \nstill banner\n2017-05-16 00:00:04 ERROR disk full\n"
        )
        assert skipped == 2
        assert [(r.id, r.raw_text) for r in records] == [("raw.log:5", "disk full")]

    def test_continuation_lines_join_with_newlines(self, tmp_path):
        text = (
            "2017-05-16 00:00:04 ERROR IOException in offerService\n"
            "\tat a.B.c(B.java:1)\n"
            "\n"
            "\tat a.B.d(B.java:2)  \n"
            "2017-05-16 00:00:05 WARN slow\n"
        )
        records, skipped = self.read(tmp_path, text)
        assert skipped == 0
        assert [r.raw_text for r in records] == [
            "IOException in offerService\n\tat a.B.c(B.java:1)\n\tat a.B.d(B.java:2)  ",
            "slow",
        ]
        assert records[0].scrubbed_text == scrub(records[0].raw_text)
        assert [r.level for r in records] == [Level.ERROR, Level.WARN]

    def test_a_line_whose_time_does_not_parse_continues_the_record(self, tmp_path):
        # matches the pattern, but month 13 fails strptime
        records, _ = self.read(
            tmp_path, "2017-05-16 00:00:04 ERROR disk full\n2017-13-45 00:00:00 ERROR bad\n"
        )
        assert [r.raw_text for r in records] == ["disk full\n2017-13-45 00:00:00 ERROR bad"]
        assert self.read(tmp_path, "2017-13-45 00:00:00 ERROR bad\n") == ([], 1)

    @pytest.mark.parametrize("year, starts_a_record", [(2020, True), (2017, False)])
    def test_a_year_less_time_is_read_in_the_default_year(self, tmp_path, year, starts_a_record):
        # Feb 29 exists only in a leap year; in another year it is a bad time.
        fmt = LineFormat("syslog", LINUX.pattern, LINUX.timestamp_format, default_year=year)
        text = "Feb 28 10:00:00 combo kernel: a\nFeb 29 10:00:00 combo kernel: b\n"
        records, skipped = self.read(tmp_path, text, fmt)
        assert skipped == 0
        if starts_a_record:
            assert [r.raw_text for r in records] == ["kernel: a", "kernel: b"]
            assert records[1].timestamp == datetime(2020, 2, 29, 10, tzinfo=timezone.utc)
        else:
            assert [r.raw_text for r in records] == ["kernel: a\nFeb 29 10:00:00 combo kernel: b"]
        assert records[0].timestamp == datetime(year, 2, 28, 10, tzinfo=timezone.utc)

    def test_a_line_past_the_calendar_in_utc_continues_the_record(self, tmp_path):
        records, skipped = self.read(tmp_path, PAST_THE_CALENDAR, ISO_OFFSET)
        assert skipped == 0
        assert [r.raw_text for r in records] == [
            "disk full\n9999-12-31T23:00:00-0500 ERROR disk full"
        ]
        assert records[0].timestamp == datetime(2017, 5, 16, tzinfo=timezone.utc)
        alone = "9999-12-31T23:00:00-0500 ERROR disk full\n"
        assert self.read(tmp_path, alone, ISO_OFFSET) == ([], 1)

    @pytest.mark.parametrize(
        "more, code, err",
        # One record alone has no silhouette; two kinds over two days score.
        [("", 1, "METRIC: no batch has a defined silhouette\n"),
         ("".join(f"2017-05-{day}T0{hour}:00:00+0000 ERROR {text}\n" for day in (16, 17)
                  for hour, text in enumerate(("disk full", "connection refused"), start=1)),
          0, "")],
        ids=["alone", "with_more_records"],
    )
    def test_a_run_on_a_line_past_the_calendar(self, tmp_path, capsys, more, code, err):
        (tmp_path / "raw.log").write_text(PAST_THE_CALENDAR + more)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "input": str(tmp_path / "raw.log"),
            "line_format": {"name": ISO_OFFSET.name, "pattern": ISO_OFFSET.pattern,
                            "timestamp_format": ISO_OFFSET.timestamp_format},
            "output_dir": str(tmp_path / "out"),
        }))
        assert main(["run", "--config", str(config_path)]) == code
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize(
        "pattern, odd_line, raw_texts",
        [(r"(?:(?P<timestamp>\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}) )?(?P<level>\w+)? ?(?P<text>.*)",
          "\tat a.B.c(B.java:1)", ["disk full\n\tat a.B.c(B.java:1)"]),
         (r"(?P<timestamp>\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}) (?P<level>\w+)(?: (?P<text>.*))?",
          "2017-05-16 00:00:04 ERROR", ["disk full", ""])],
        ids=["timestamp_group_unmatched", "text_group_unmatched"],
    )
    def test_a_run_on_a_pattern_with_an_optional_group(
        self, tmp_path, capsys, pattern, odd_line, raw_texts
    ):
        # The timestamp group takes no part: a continuation line. The text group: "".
        lines = [f"2017-05-{day} 0{hour}:00:00 ERROR {kind}" for day in (16, 17)
                 for hour, kind in enumerate(("disk full", "connection refused"), start=1)]
        lines.insert(1, odd_line)
        text = "\n".join(lines) + "\n"
        fmt = LineFormat("custom", pattern, "%Y-%m-%d %H:%M:%S")
        records, skipped = self.read(tmp_path, text, fmt)
        assert skipped == 0
        assert [r.raw_text for r in records][:len(raw_texts)] == raw_texts
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "input": str(tmp_path / "raw.log"),
            "line_format": {"name": fmt.name, "pattern": fmt.pattern,
                            "timestamp_format": fmt.timestamp_format},
            "output_dir": str(tmp_path / "out"),
        }))
        assert main(["run", "--config", str(config_path)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("depth", [0, 1, 50])
    def test_each_record_is_scrubbed_once(self, tmp_path, monkeypatch, depth):
        calls = []
        monkeypatch.setattr(records_module, "scrub", lambda text: calls.append(text) or text)
        trace = "".join(f"\tat a.B.c(B.java:{k})\n" for k in range(depth))
        text = "".join(f"2017-05-16 00:00:0{i} ERROR failure {i}\n{trace}" for i in range(3))
        records, _ = self.read(tmp_path, text)
        assert len(records) == 3
        assert calls == [r.raw_text for r in records]
        assert all(r.raw_text.count("\n") == depth for r in records)


# scrub before its URL guard and timestamp lookahead, kept as the reference.
_REFERENCE_URL_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.\-]*://\S*")
_REFERENCE_TS_RE = re.compile(
    r"\d{4}-\d{2}-\d{2}(?:[T ]\d{2}:\d{2}:\d{2}(?:\.\d+)?(?:Z|[+-]\d{2}:?\d{2})?)?"
    r"|\d{2}:\d{2}:\d{2}(?:\.\d+)?"
    r"|(?<!\d)\d{13}(?!\d)"
    r"|(?<!\d)\d{10}(?!\d)"
)


def scrub_reference(text: str) -> str:
    return _REFERENCE_TS_RE.sub("<TS>", _REFERENCE_URL_RE.sub("<URL>", text))


SCRUB_PIECES = [
    *"0123456789", "-", ":", "T", ".", "Z", " ", "+", "://", "http", "x",
    "1684058521", "1684058521123", "\u0663", "\uff12",
]


class TestScrub:
    def test_timestamp_and_url(self):
        assert (
            scrub("failed at 2023-05-14 10:22:01 calling http://svc/a?b=1")
            == "failed at <TS> calling <URL>"
        )

    def test_identity(self):
        assert scrub("no volatile content") == "no volatile content"

    def test_epoch_integers(self):
        assert scrub("ts=1684058521 end") == "ts=<TS> end"
        assert scrub("ts=1684058521123 end") == "ts=<TS> end"
        # 9 and 11 digit runs are not epochs
        assert scrub("id=123456789 end") == "id=123456789 end"
        assert scrub("id=12345678901 end") == "id=12345678901 end"

    def test_iso_variants(self):
        assert scrub("2023-05-14T10:22:01.123Z done") == "<TS> done"
        assert scrub("date 2023-05-14 only") == "date <TS> only"
        assert scrub("time 10:22:01.5 only") == "time <TS> only"

    @given(
        st.lists(
            st.one_of(
                st.text(
                    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20
                ),
                st.just("2023-05-14 10:22:01"),
                st.just("https://example.com/x?q=1"),
                st.just("1684058521"),
            ),
            max_size=8,
        )
    )
    def test_idempotent(self, parts):
        text = " ".join(parts)
        once = scrub(text)
        assert scrub(once) == once

    @given(st.one_of(
        st.text(),
        st.lists(st.one_of(
            st.sampled_from(SCRUB_PIECES), st.text(alphabet=st.characters(), max_size=3)
        ), max_size=30).map("".join),
    ))
    @example("at 2023-05-14T10:22:01.5+02:00, http://a/1684058521123")
    @example("\u0663\u0663:\u0663\u0663:\uff12\uff12 id=\u0663123456789")
    def test_equals_the_two_regex_scrub(self, text):
        assert scrub(text) == scrub_reference(text)

    @given(st.text(max_size=200))
    def test_length_bound(self, text):
        out = scrub(text)
        replacements = out.count("<TS>") + out.count("<URL>")
        assert len(out) <= len(text) + replacements * len("<URL>")


class TestBatching:
    def _days(self, spans):
        """One record per listed day offset."""
        return [
            record(f"r{i}", ts=T0 + timedelta(days=d, hours=3))
            for i, d in enumerate(spans)
        ]

    def test_ten_days_ten_batches(self):
        batches = plan_batches(self._days(range(10)), BatchPlan.fixed(timedelta(days=1)))
        assert len(batches) == 10
        assert all(len(b.records) == 1 for b in batches)

    def test_snapshot_plus_window(self):
        records = self._days(range(60))
        plan = BatchPlan.snapshot_plus(timedelta(days=30), timedelta(days=5))
        batches = plan_batches(records, plan)
        assert len(batches) == 1 + 6
        assert len(batches[0].records) == 30
        assert all(len(b.records) == 5 for b in batches[1:])

    def test_empty_middle_batch(self):
        batches = plan_batches(self._days([1, 3]), BatchPlan.fixed(timedelta(days=1)))
        assert len(batches) == 3
        assert [len(b.records) for b in batches] == [1, 0, 1]

    def test_empty_stream(self):
        with pytest.raises(EmptyStream):
            plan_batches([], BatchPlan.fixed(timedelta(days=1)))

    def test_batch_invariants(self):
        records = self._days([0, 0, 2, 5, 5, 9])
        batches = plan_batches(records, BatchPlan.fixed(timedelta(days=2)))
        # concatenation reproduces input order exactly
        flat = [r for b in batches for r in b.records]
        assert flat == records
        for b in batches:
            assert all(b.start <= r.timestamp < b.end for r in b.records)
        assert [b.index for b in batches] == list(range(len(batches)))
        for prev, cur in zip(batches, batches[1:]):
            assert prev.end == cur.start

    def test_midnight_anchor(self):
        batches = plan_batches(
            [record("a", ts=T0 + timedelta(hours=13))],
            BatchPlan.fixed(timedelta(days=1)),
        )
        assert batches[0].start == T0

    @pytest.mark.parametrize(
        "plan",
        [BatchPlan.fixed(timedelta(days=3_000_000)),
         BatchPlan.snapshot_plus(timedelta(days=3_000_000), timedelta(days=1))],
        ids=["window", "snapshot"],
    )
    def test_window_past_the_calendar_ends_at_its_last_time(self, plan):
        # Either span fits the calendar, but not from 2017 on.
        records = self._days([0, 4])
        batches = plan_batches(records, plan)
        assert [b.records for b in batches] == [tuple(records)]
        assert batches[0].end == datetime.max.replace(tzinfo=timezone.utc)

    @pytest.mark.parametrize(
        "plan, count",
        [(BatchPlan.fixed(timedelta(days=1)), 5),
         (BatchPlan.snapshot_plus(timedelta(days=2), timedelta(days=1)), 4)],
        ids=["window", "snapshot"],
    )
    def test_a_plan_of_more_batches_than_the_cap_is_refused(self, monkeypatch, plan, count):
        records = self._days([0, 4])
        monkeypatch.setattr(records_module, "MAX_BATCHES", count)
        assert len(plan_batches(records, plan)) == count
        monkeypatch.setattr(records_module, "MAX_BATCHES", count - 1)
        with pytest.raises(ConfigError, match=(
            r"^batch: windows of 1 day, 0:00:00 cut 2017-05-16T03:00:00\+00:00 to 2017-05-20T"
            rf"03:00:00\+00:00 into {count} batches, more than the {count - 1} a run allows$"
        )):
            plan_batches(records, plan)

    def test_nonpositive_durations_rejected(self):
        with pytest.raises(ValueError):
            BatchPlan.fixed(timedelta(0))
        with pytest.raises(ValueError):
            BatchPlan.snapshot_plus(timedelta(0), timedelta(days=1))

    def test_a_plan_is_a_window_and_an_optional_snapshot(self):
        day, month = timedelta(days=1), timedelta(days=30)
        assert BatchPlan.fixed(day) == BatchPlan(day)
        assert BatchPlan.snapshot_plus(month, day) == BatchPlan(day, month)
        assert BatchPlan(day).snapshot is None


_SPAN = st.integers(1, 40 * 86400).map(lambda s: timedelta(seconds=s))
_LAST_SECOND = datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_pass_planner_matches_the_two_loop_reference(data):
    window = data.draw(_SPAN, label="window")
    snapshot = data.draw(st.none() | _SPAN, label="snapshot")
    plan = BatchPlan(window, snapshot)
    # Streams in May 2017, and streams in the calendar's last month, whose windows clamp.
    month = data.draw(st.sampled_from([T0, datetime(9999, 12, 1, tzinfo=timezone.utc)]))
    day = month + timedelta(days=data.draw(st.integers(0, 30)))
    first_end = snapshot or window
    horizon = min(_LAST_SECOND - day, first_end + 40 * window) // timedelta(seconds=1)
    ends = [(first_end + k * window) // timedelta(seconds=1) for k in range(41)]
    offsets = data.draw(st.lists(
        st.integers(0, horizon) | st.sampled_from([e for e in ends if e <= horizon] or [0]),
        max_size=30,
    ), label="offsets")
    # A first record on the day itself anchors the windows there.
    first = data.draw(st.integers(0, min(horizon, 86399)), label="first")
    offsets.insert(data.draw(st.integers(0, len(offsets))), first)
    stream = [record(f"r{i}", ts=day + timedelta(seconds=o)) for i, o in enumerate(offsets)]

    def cut(planner):
        return [(b.index, b.start, b.end, [r.id for r in b.records]) for b in planner(stream, plan)]

    expected = cut(plan_batches_reference)
    assert cut(plan_batches) == expected
    with patch.object(records_module, "MAX_BATCHES", len(expected) - 1):
        with pytest.raises(ConfigError, match=rf"^batch: .* into {len(expected)} batches"):
            plan_batches(stream, plan)


class TestJsonl:
    GOOD = {"timestamp": "2017-05-16T00:00:04Z", "level": "ERROR", "text": "disk full"}

    def read_with_second_line(self, tmp_path, second: str):
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps(self.GOOD) + "\n" + second + "\n")
        return path, lambda: read_jsonl(path)

    def test_good_line(self, tmp_path):
        # A blank line is skipped but counted; a field beyond the four is ignored.
        _, read = self.read_with_second_line(
            tmp_path, " \n" + json.dumps(dict(self.GOOD, timestamp=0, source="kernel"))
        )
        first, second = read()
        assert (first.id, second.id) == ("events.jsonl:1", "events.jsonl:3")
        assert first.timestamp == datetime(2017, 5, 16, 0, 0, 4, tzinfo=timezone.utc)
        assert second.timestamp == datetime(1970, 1, 1, tzinfo=timezone.utc)

    def test_line_that_is_not_an_object(self, tmp_path):
        path, read = self.read_with_second_line(tmp_path, "[1, 2]")
        with pytest.raises(ParseError, match=f"^{path}:2: not an object"):
            read()

    @pytest.mark.parametrize("missing", ["timestamp", "level", "text"])
    def test_line_that_lacks_a_field(self, tmp_path, missing):
        line = json.dumps({k: v for k, v in self.GOOD.items() if k != missing})
        path, read = self.read_with_second_line(tmp_path, line)
        with pytest.raises(ParseError, match=f"^{path}:2: not an object with timestamp"):
            read()

    @pytest.mark.parametrize(
        "timestamp",
        ["yesterday", None, 1e20, float("nan"), "9999-12-31T23:00:00-05:00", True, False],
    )
    def test_timestamp_neither_iso_nor_a_number(self, tmp_path, timestamp):
        path, read = self.read_with_second_line(
            tmp_path, json.dumps(dict(self.GOOD, timestamp=timestamp))
        )
        with pytest.raises(ParseError, match=f"^{path}:2: bad timestamp"):
            read()

    @pytest.mark.parametrize(
        "field, value, problem",
        [("text", None, "text null is not a string"),
         ("text", ["disk", "full"], 'text ["disk", "full"] is not a string'),
         ("text", 5, "text 5 is not a string"),
         ("id", None, "id null is not a string or an integer"),
         ("id", True, "id true is not a string or an integer"),
         ("id", 1.5, "id 1.5 is not a string or an integer"),
         ("id", [], "id [] is not a string or an integer")],
        ids=["text_null", "text_list", "text_number", "id_null", "id_true", "id_float", "id_list"],
    )
    def test_a_text_or_an_id_of_another_type(self, tmp_path, field, value, problem):
        path, read = self.read_with_second_line(
            tmp_path, json.dumps(dict(self.GOOD, **{field: value}))
        )
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}:2: {problem}')}$"):
            read()

    def test_an_integer_id_reads_as_its_digits(self, tmp_path):
        _, read = self.read_with_second_line(tmp_path, json.dumps(dict(self.GOOD, id=7)))
        assert [r.id for r in read()] == ["events.jsonl:1", "7"]

    def test_an_integer_past_the_digit_limit_is_invalid_json(self, tmp_path):
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        path, read = self.read_with_second_line(tmp_path, f'{{"id": {digits}}}')
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}:2: invalid JSON')}$"):
            read()

    def test_bytes_that_are_not_utf8(self, tmp_path):
        # a Latin-1 byte inside the text, then a line of stray bytes
        path = tmp_path / "events.jsonl"
        line = b'{"timestamp": 0, "level": "ERROR", "text": "disk \xe9 full"}\n'
        path.write_bytes(line + b"\xff\xfe\n")
        with pytest.raises(ParseError, match=f"^{path}:2: invalid JSON"):
            read_jsonl(path)
        path.write_bytes(line)
        assert [r.raw_text for r in read_jsonl(path)] == ["disk \ufffd full"]
