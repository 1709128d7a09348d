"""Parsing, scrubbing, and temporal batching."""

import json
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from logevo.errors import EmptyStream, ParseError
from logevo.formats import LINUX, SIMPLE
from logevo.records import (
    Batch,
    BatchPlan,
    Level,
    LineFormat,
    map_level,
    parse_loghub_line,
    plan_batches,
    read_jsonl,
    scrub,
)

from helpers import T0, record


class TestParse:
    def test_simple_line(self):
        rec = parse_loghub_line(
            "2017-05-16 00:00:04 ERROR Connection timeout to host db-7", SIMPLE
        )
        assert rec.level is Level.ERROR
        assert rec.raw_text == "Connection timeout to host db-7"
        assert rec.timestamp == datetime(2017, 5, 16, 0, 0, 4, tzinfo=timezone.utc)

    def test_garbage_line_raises(self):
        with pytest.raises(ParseError):
            parse_loghub_line("garbage line", SIMPLE)

    @pytest.mark.parametrize(
        "pattern, detail",
        [("(", "does not compile"), (r"(?P<ts>\S+) (?P<text>.*)", "lacks a group")],
    )
    def test_line_format_needs_a_pattern_with_timestamp_and_text(self, pattern, detail):
        with pytest.raises(ValueError, match=detail):
            LineFormat(name="custom", pattern=pattern, timestamp_format="%Y")

    def test_linux_sample_hand_parsed(self):
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
        records = [
            parse_loghub_line(line, LINUX, record_id=str(i))
            for i, (line, _) in enumerate(lines)
        ]
        timestamps = [r.timestamp for r in records]
        assert timestamps == sorted(timestamps)
        for rec, (_, second) in zip(records, lines):
            assert rec.timestamp.second == second
            assert rec.source == "combo"
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

    def test_nonpositive_durations_rejected(self):
        with pytest.raises(ValueError):
            BatchPlan.fixed(timedelta(0))
        with pytest.raises(ValueError):
            BatchPlan.snapshot_plus(timedelta(0), timedelta(days=1))


class TestJsonl:
    GOOD = {"timestamp": "2017-05-16T00:00:04Z", "level": "ERROR", "text": "disk full"}

    def read_with_second_line(self, tmp_path, second: str):
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps(self.GOOD) + "\n" + second + "\n")
        return path, lambda: read_jsonl(path)

    def test_good_line(self, tmp_path):
        _, read = self.read_with_second_line(tmp_path, json.dumps(dict(self.GOOD, timestamp=0)))
        first, second = read()
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
        "timestamp", ["yesterday", None, 1e20, float("nan"), "9999-12-31T23:00:00-05:00"]
    )
    def test_timestamp_neither_iso_nor_a_number(self, tmp_path, timestamp):
        path, read = self.read_with_second_line(
            tmp_path, json.dumps(dict(self.GOOD, timestamp=timestamp))
        )
        with pytest.raises(ParseError, match=f"^{path}:2: bad timestamp"):
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
