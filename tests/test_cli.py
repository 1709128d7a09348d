"""CLI and pipeline surface."""

import csv
import itertools
import json
import re
import time
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from logevo import pipeline
from logevo.cli import main
from logevo.clustering import ClusterState
from logevo.errors import ConfigError
from logevo.pipeline import RunConfig, run, sweep

from helpers import T0, make_evolution_jsonl, make_loghub_sample


@pytest.fixture
def workspace(tmp_path):
    log_path = tmp_path / "sample.log"
    log_path.write_text(make_loghub_sample("HDFS_2", 600, seed=1))
    config = {
        "input": str(log_path),
        "format": "loghub",
        "line_format": "HDFS_2",
        "level_filter": ["ERROR"],
        "batch": "1d",
        "provider": {"kind": "hashing", "d": 64, "seed": 0},
        "params": {"theta": 0.3},
        "output_dir": str(tmp_path / "out"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return tmp_path, config_path, config


def test_run_happy_path(workspace, capsys):
    tmp_path, config_path, _ = workspace
    assert main(["run", "--config", str(config_path)]) == 0
    out_dir = tmp_path / "out"
    for name in ("report.json", "metrics.csv", "clusters.jsonl", "state.json"):
        assert (out_dir / name).exists(), name
    report = json.loads((out_dir / "report.json").read_text())
    for key in ("S", "R", "C", "lce"):
        assert 0.0 <= report["score"][key] <= 1.0
    assert "lce=" in capsys.readouterr().out


def write_jsonl(path, records):
    with path.open("w") as fh:
        for r in records:
            row = {"id": r.id, "timestamp": r.timestamp.isoformat(), "level": "ERROR",
                   "text": r.raw_text}
            fh.write(json.dumps(row) + "\n")


def test_metrics_csv_is_the_series_report_json_averages(tmp_path):
    input_path = tmp_path / "events.jsonl"
    write_jsonl(input_path, make_evolution_jsonl(days=6, per_kind=4, seed=5))
    out_dir = tmp_path / "out"
    report = run(RunConfig(input=str(input_path), format="jsonl", params={"theta": 0.3},
                           output_dir=str(out_dir)))
    with (out_dir / "metrics.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["batch_index"]) for r in rows] == [b["index"] for b in report["batches"]]
    assert rows[0]["R_term"] == rows[0]["C_term"] == ""
    for column, key in (("S_term", "S"), ("R_term", "R"), ("C_term", "C")):
        defined = [float(r[column]) for r in rows if r[column] != ""]
        assert defined, column
        assert sum(defined) / len(defined) == pytest.approx(report["score"][key], abs=1e-9)


def test_identical_members_run_scores_in_range(tmp_path, capsys):
    # Two templates whose hashed vectors have x.x = 1 + 2**-52: unclipped, each
    # cluster of identical members gave a silhouette of 1.0000000000000002.
    input_path = tmp_path / "two.jsonl"
    with input_path.open("w") as fh:
        for day in range(3):
            for text in ("tok105 tok129 tok52 tok56 tok130",
                         "tok94 tok112 tok80 tok188 tok92 tok191"):
                for k in range(5):
                    ts = T0 + timedelta(days=day, hours=k)
                    fh.write(json.dumps({"timestamp": ts.isoformat(), "level": "ERROR",
                                         "text": text}) + "\n")
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({
        "input": str(input_path), "format": "jsonl", "batch": "1d",
        "provider": {"kind": "hashing", "d": 64, "seed": 0}, "params": {"theta": 0.3},
        "output_dir": str(tmp_path / "out"),
    }))
    assert main(["run", "--config", str(config_path)]) == 0, capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [b["silhouette_raw"] for b in report["batches"]] == [1.0, 1.0, 1.0]
    assert report["score"]["S"] == 1.0


def test_flag_overrides(workspace):
    tmp_path, config_path, _ = workspace
    out2 = tmp_path / "out2"
    assert (
        main(
            [
                "run", "--config", str(config_path),
                "--theta", "0.4", "--alpha", "0.2", "--gamma", "50",
                "--staleness-days", "10", "--weights", "0.5,0.25,0.25",
                "--output-dir", str(out2),
            ]
        )
        == 0
    )
    report = json.loads((out2 / "report.json").read_text())
    assert report["config"]["params"]["theta"] == 0.4
    assert report["config"]["weights"] == [0.5, 0.25, 0.25]


def test_empty_input_is_parse_error(tmp_path, capsys):
    log_path = tmp_path / "empty.log"
    log_path.write_text("")
    config_path = tmp_path / "c.json"
    config_path.write_text(
        json.dumps({"input": str(log_path), "output_dir": str(tmp_path / "o")})
    )
    assert main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("PARSE:")
    assert err.count("\n") == 1  # single-line diagnostic


def test_missing_vectors_file_is_reported_before_the_input_is_read(tmp_path, capsys):
    input_path = tmp_path / "bad.jsonl"
    input_path.write_text("{not json\n")
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({
        "input": str(input_path), "format": "jsonl",
        "provider": {"kind": "word_vectors", "path": str(tmp_path / "missing.vec")},
        "output_dir": str(tmp_path / "out"),
    }))
    assert main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("PROVIDER: ") and err.count("\n") == 1, err


def test_provider_load_time_counts_as_embedding(tmp_path, monkeypatch):
    input_path = tmp_path / "events.jsonl"
    write_jsonl(input_path, make_evolution_jsonl(days=3, per_kind=2, seed=5))
    vectors_path = tmp_path / "words.vec"
    vectors_path.write_text("disk 1 0\nfull 0 1\n")
    load = pipeline.load_word_vectors

    def slow_load(path):
        time.sleep(0.3)
        return load(path)

    monkeypatch.setattr(pipeline, "load_word_vectors", slow_load)
    prep = pipeline.prepare(RunConfig(
        input=str(input_path), format="jsonl",
        provider={"kind": "word_vectors", "path": str(vectors_path)},
    ))
    assert prep.timings["embed_s"] >= 0.3 > prep.timings["ingest_s"]


def test_missing_config_fields_rejected(tmp_path, capsys):
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({"input": "x", "bogus_field": 1}))
    assert main(["run", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith("CONFIG:")


def test_bad_provider_kind(tmp_path, workspace, capsys):
    _, _, config = workspace
    config["provider"] = {"kind": "quantum"}
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith("CONFIG:")


def test_gmm_route(workspace):
    _, config_path, config = workspace
    config = RunConfig.from_file(config_path)
    config.algorithm = "GMM"
    config.gmm = {"K": 3, "seed": 0}
    report = run(config)
    assert 0.0 <= report["score"]["lce"] <= 1.0
    assert all(b["nr_clust"] in (0, 3) for b in report["batches"])


def test_levenshtein_mode(workspace):
    _, config_path, _ = workspace
    config = RunConfig.from_file(config_path)
    config.representative = "LEVENSHTEIN"
    report = run(config)
    assert 0.0 <= report["score"]["lce"] <= 1.0


def clusters_lines(out_dir):
    return [json.loads(line) for line in (out_dir / "clusters.jsonl").read_text().splitlines()]


def test_clusters_jsonl_len_is_size_as_of_batch(tmp_path):
    # three families, each fed every day for ten daily batches
    input_path = tmp_path / "events.jsonl"
    write_jsonl(input_path, make_evolution_jsonl(days=10, per_kind=4, seed=5))
    out_dir = tmp_path / "out"
    run(RunConfig(input=str(input_path), format="jsonl", params={"theta": 0.3},
                  output_dir=str(out_dir)))
    lines = clusters_lines(out_dir)
    sizes: dict[int, list[int]] = {}
    for row in lines:
        sizes.setdefault(row["id"], []).append(row["len"])
        assert set(row) == {"batch_index", "id", "len", "representative", "score"}
        assert -1.0 <= row["score"] <= 1.0 + 1e-12
    final = {c["id"]: c["len"] for c in json.loads((out_dir / "state.json").read_text())["clusters"]}
    fed_daily = [cid for cid, seq in sizes.items() if len(seq) == 10]
    assert len(fed_daily) == 3
    for cid in fed_daily:
        seq = sizes[cid]
        assert all(a < b for a, b in zip(seq, seq[1:])), seq
        assert seq[-1] == final[cid]


# Each family sends five records a day. The quadratic edit-distance medoid gets a
# reservoir of six, so one member from before the cut is still in it after the cut.
@pytest.mark.parametrize("representative, reservoir_cap", [("CENTROID", 512), ("LEVENSHTEIN", 6)])
def test_resumed_run_writes_what_an_uninterrupted_run_writes(tmp_path, representative, reservoir_cap):
    records = make_evolution_jsonl(days=10, per_kind=4, seed=5)
    cut = T0 + timedelta(days=5)
    parts = {"whole": records, "first": [r for r in records if r.timestamp < cut],
             "second": [r for r in records if r.timestamp >= cut]}
    for name, part in parts.items():
        write_jsonl(tmp_path / f"{name}.jsonl", part)
        state = ClusterState.load(tmp_path / "first" / "state.json") if name == "second" else None
        run(RunConfig(input=str(tmp_path / f"{name}.jsonl"), format="jsonl",
                      params={"theta": 0.3, "reservoir_cap": reservoir_cap},
                      representative=representative, output_dir=str(tmp_path / name)), state)
    whole = [row for row in clusters_lines(tmp_path / "whole") if row["batch_index"] >= 5]
    resumed = [dict(row, batch_index=row["batch_index"] + 5)
               for row in clusters_lines(tmp_path / "second")]
    assert resumed == whole
    assert all(row["representative"] for row in whole)
    assert (tmp_path / "second" / "state.json").read_text() == (
        tmp_path / "whole" / "state.json").read_text()


def test_zero_centroid_run(tmp_path, capsys):
    # tok3 and tok10 hash to one slot with opposite signs (d 64, seed 0), so at
    # theta 2 they merge into a cluster whose centroid is exactly zero.
    input_path = tmp_path / "zero.jsonl"
    with input_path.open("w") as fh:
        for day in range(2):
            for hour, text in enumerate(("tok3", "tok10", "disk full", "disk full")):
                ts = T0 + timedelta(days=day, hours=hour)
                fh.write(json.dumps({"timestamp": ts.isoformat(), "level": "ERROR",
                                     "text": text}) + "\n")
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({
        "input": str(input_path), "format": "jsonl", "params": {"theta": 2.0},
        "output_dir": str(tmp_path / "out"),
    }))
    assert main(["run", "--config", str(config_path)]) == 0
    assert capsys.readouterr().err == ""
    zero = [row for row in clusters_lines(tmp_path / "out") if row["id"] == 0]
    assert zero and all(
        (row["representative"], row["score"]) == ("tok3", 0.0) for row in zero
    )


def test_gmm_len_is_the_component_size_in_the_batch(tmp_path):
    input_path = tmp_path / "events.jsonl"
    write_jsonl(input_path, make_evolution_jsonl(days=4, per_kind=4, seed=5))
    out_dir = tmp_path / "out"
    report = run(RunConfig(input=str(input_path), format="jsonl", algorithm="GMM",
                           gmm={"K": 3, "seed": 0}, output_dir=str(out_dir)))
    lines = clusters_lines(out_dir)
    for batch in report["batches"]:
        sizes = [row["len"] for row in lines if row["batch_index"] == batch["index"]]
        assert all(n >= 1 for n in sizes) and sum(sizes) == batch["n_records"]


@pytest.mark.parametrize(
    "silhouettes, cli_class",
    [
        # a constant 1.5 gives S = 1.25, which the score rejects before any write
        ([1.5], "METRIC"),
        # alternating with -1 keeps S in range; only report.json's schema catches it
        ([1.5, -1.0], "INTERNAL"),
    ],
)
def test_report_that_breaks_its_schema_writes_nothing(
    workspace, monkeypatch, capsys, silhouettes, cli_class
):
    tmp_path, config_path, _ = workspace
    values = itertools.cycle(silhouettes)
    monkeypatch.setattr(pipeline, "silhouette_batch", lambda points: next(values))
    assert main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{cli_class}: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def _line_format(pattern):
    return {"name": "custom", "pattern": pattern, "timestamp_format": "%Y"}


# Each is rejected by the config check, so the missing input is never opened.
BAD_CONFIGS = [
    ({"representative": "levenstein"}, [], "representative"),
    ({"params": {"gamma": 2.5}}, [], "params.gamma"),
    ({"params": {"theta": 2.5}}, [], "params"),
    ({"params": {"reservoir_cap": 0}}, [], "params"),
    ({"weights": [0.5, 0.5]}, [], "weights"),
    ({"weights": [0.5, 0.5, 0.5]}, [], "weights"),
    ({"weights": "abc"}, [], "weights"),
    ({"level_filter": ["ERRORR"]}, [], "level_filter"),
    ({"level_filter": "ERROR"}, [], "level_filter"),
    ({"provider": {"kind": "word_vectors"}}, [], "provider"),
    ({"provider": {"kind": "hashing", "d": "x"}}, [], "provider.d"),
    ({"provider": {"kind": "hashing", "d": 64.0}}, [], "provider.d"),
    ({"provider": {"kind": "hashing", "d": 1}}, [], "provider"),
    ({"algorithm": "GMM", "gmm": {"K": "x"}}, [], "gmm.K"),
    ({"line_format": _line_format("(")}, [], "line_format"),
    ({"line_format": _line_format(r"(?P<ts>\S+) (?P<msg>.*)")}, [], "line_format"),
    ({"line_format": "HDFS"}, [], "line_format"),
    ({"batch": "2d"}, [], "batch"),
    ({"batch": {"mode": "FIXED_WINDOW", "window_days": 0}}, [], "batch"),
    ({"algorithm": "GMMM"}, [], "algorithm"),
    ({"format": "csv"}, [], "format"),
    ({"drop_placeholders": True}, [], "drop_placeholders"),
    ({"continuation": False}, [], "continuation"),
    (None, [], "config"),
    ({}, ["--weights", "a,b,c"], "weights"),
    ({"provider": {"kind": "hashing", "d": 4097}}, [], "4096"),
    ({"provider": {"kind": "hashing", "d": 1000000000000}}, [], "4096"),
    ({"params": {"staleness_days": 1e300}}, [], "staleness_days"),
    ({"batch": {"mode": "FIXED_WINDOW", "window_days": 1e300}}, [], "window_days"),
    ({"batch": {"mode": "SNAPSHOT_PLUS_WINDOW", "window_days": 1, "snapshot_days": 1e300}},
     [], "snapshot_days"),
    ({"batch": {"mode": "FIXED_WINDOW", "window_days": 1e8}}, [], "batch: window_days"),
    ({"batch": {"mode": "SNAPSHOT_PLUS_WINDOW", "window_days": 1, "snapshot_days": 1e8}},
     [], "batch: snapshot_days"),
    ({"algorithm": "GMM", "representative": "LEVENSHTEIN"}, [], "representative"),
    ({}, ["--algo", "gmm", "--rep", "levenshtein"], "representative"),
]


@pytest.mark.parametrize("extra, flags, field", BAD_CONFIGS)
def test_bad_config_is_one_config_line_before_input_is_read(
    tmp_path, capsys, extra, flags, field
):
    doc = None if extra is None else {
        "input": str(tmp_path / "missing.log"), "output_dir": str(tmp_path / "out"), **extra
    }
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config_path), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("CONFIG: ") and err.count("\n") == 1, err
    assert field in err
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize(
    "extra",
    [e for e, flags, _ in BAD_CONFIGS
     if e and not flags and set(e) <= set(RunConfig.__dataclass_fields__)],
)
def test_run_and_sweep_check_a_config_object(tmp_path, extra):
    config = RunConfig(input=str(tmp_path / "missing.log"), output_dir=str(tmp_path / "out"))
    for key, value in extra.items():
        setattr(config, key, value)
    with pytest.raises(ConfigError):
        run(config)
    with pytest.raises(ConfigError):
        sweep(config, {"theta": [0.3]})
    assert list(tmp_path.iterdir()) == []


def test_lowercase_algorithm_and_representative_are_folded(workspace):
    tmp_path, _, config = workspace
    config_path = tmp_path / "lower.json"
    config_path.write_text(json.dumps(dict(config, representative="centroid")))
    assert RunConfig.from_file(config_path).representative == "CENTROID"
    report = run(RunConfig(**dict(config, algorithm="gmm", gmm={"K": 3, "seed": 0})))
    assert report["config"]["algorithm"] == "GMM"


_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_FIELD_VALUES = {
    "format": st.sampled_from(["loghub", "jsonl"]),
    "line_format": st.sampled_from(["simple", "HDFS_2", "Linux"])
    | st.builds(_line_format, st.sampled_from([r"(?P<timestamp>\S+) (?P<text>.*)", "(", "x"])),
    "level_filter": st.lists(st.sampled_from(["ERROR", "WARN", "OTHER", "error", "ERRORR"])),
    "batch": st.sampled_from(["1d", "5d", "snapshot30d+5d", "2d"])
    | st.fixed_dictionaries({"mode": st.sampled_from(["FIXED_WINDOW", "HOURLY"]),
                             "window_days": st.floats(-1, 10)}),
    "provider": st.fixed_dictionaries({"kind": st.just("hashing"), "d": st.integers(2, 128)})
    | st.fixed_dictionaries({"kind": st.sampled_from(["word_vectors", "precomputed"]),
                             "path": st.just("missing.vec")}),
    "params": st.fixed_dictionaries({}, optional={
        "theta": st.floats(-1, 3), "alpha": st.floats(0, 1.5), "gamma": st.integers(-1, 200),
        "staleness_days": st.floats(-1, 1e12), "reservoir_cap": st.integers(-1, 600),
    }),
    "algorithm": st.sampled_from(["ONLINE", "GMM", "online", "gmm", "GMMM"]),
    "gmm": st.fixed_dictionaries({}, optional={"K": st.integers(-1, 20), "seed": st.integers(-1, 9)}),
    "weights": st.sampled_from([[1 / 3] * 3, [0.5, 0.25, 0.25], [1, 0, 0], [0.5, 0.5],
                                [0.5, 0.5, 0.5], [1.5, -0.5, 0]]),
    "representative": st.sampled_from(["CENTROID", "LEVENSHTEIN", "levenshtein", "medoid"]),
    "stopwords_path": st.none() | st.just("missing.txt"),
    "output_dir": st.sampled_from(["out", "deep/out"]),
}
# A document of well-typed values, some out of range, with up to two fields or
# unknown keys then set to any JSON value; or a JSON value that is not an object.
_CONFIG_DOCS = st.builds(
    lambda doc, changes: {**doc, **dict(changes)},
    st.fixed_dictionaries({"input": st.just("missing.log")}, optional=_FIELD_VALUES),
    st.lists(st.tuples(st.sampled_from(["input", *_FIELD_VALUES]) | st.text(max_size=6), _ANY_JSON),
             max_size=2),
) | _ANY_JSON


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_CONFIG_DOCS)
def test_fuzzed_config_is_one_line_and_writes_nothing(tmp_path, monkeypatch, capsys, doc):
    # Every document names a missing input: a valid one ends in IO, or in PROVIDER when
    # its vectors file is missing too, since that file is loaded first; any other in CONFIG.
    monkeypatch.chdir(tmp_path)
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.split(": ")[0] in ("CONFIG", "IO", "PROVIDER"), err
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


_GOOD_ROW = st.fixed_dictionaries(
    # Parsed timestamps stay within ten days: an outlier timestamp plans one batch a day up to it.
    {"timestamp": st.integers(0, 10 * 86400 - 1).map(lambda s: (T0 + timedelta(seconds=s)).isoformat()),
     "level": st.sampled_from(["ERROR", "error", "FATAL"]),
     "text": st.sampled_from(["disk full", "disk quota exceeded", "connection reset by peer",
                              "checksum mismatch in segment 7", ""])},
    optional={"id": st.sampled_from(["a", "b", "c"]), "source": _ANY_JSON},
)
_BAD_TIMESTAMPS = st.sampled_from([None, "", "yesterday", "2017-13-45", "Z", [], {},
                                   float("nan"), float("inf"), 1e300, -1e300])
_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), max_size=12)
_BAD_LINE = (
    # a row that lacks a key
    st.tuples(_GOOD_ROW, st.sampled_from(["timestamp", "level", "text"])).map(
        lambda rk: json.dumps({k: v for k, v in rk[0].items() if k != rk[1]}))
    # a row with a value of the wrong type
    | st.tuples(_GOOD_ROW, st.sampled_from(["level", "text", "id"]), _ANY_JSON).map(
        lambda rkv: json.dumps({**rkv[0], rkv[1]: rkv[2]}))
    | st.tuples(_GOOD_ROW, _BAD_TIMESTAMPS).map(lambda rt: json.dumps({**rt[0], "timestamp": rt[1]}))
    # a line that is not an object, or not JSON at all
    | _ANY_JSON.filter(lambda v: not isinstance(v, dict)).map(json.dumps)
    | _TEXT
)
# Good rows with up to two bad lines among them.
_LINES = st.tuples(
    st.lists(_GOOD_ROW.map(json.dumps), min_size=1, max_size=12), st.lists(_BAD_LINE, max_size=2)
).flatmap(lambda good_bad: st.permutations(good_bad[0] + good_bad[1]))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=_LINES, bad_bytes=st.booleans())
def test_fuzzed_input_exits_cleanly(tmp_path, capsys, lines, bad_bytes):
    input_path = tmp_path / "events.jsonl"
    data = "\n".join(lines).encode()
    input_path.write_bytes(data + b"\n\xff\xfe broken\n" if bad_bytes else data)
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({
        "input": str(input_path), "format": "jsonl", "params": {"theta": 0.3},
        "output_dir": str(tmp_path / "out"),
    }))
    code = main(["run", "--config", str(config_path)])
    err = capsys.readouterr().err
    assert code in (0, 1)
    assert err == "" if code == 0 else re.fullmatch(r"[A-Z]+: [^\n]*\n", err), err


class TestSweep:
    def test_singleton_grid_matches_plain_run(self, workspace):
        _, config_path, _ = workspace
        config = RunConfig.from_file(config_path)
        plain = run(config)
        rows = sweep(config, {"theta": [0.3], "alpha": [0.1], "gamma": [100]})
        assert len(rows) == 1
        assert rows[0]["lce"] == pytest.approx(plain["score"]["lce"])

    def test_grid_cardinality_and_sort(self, workspace, tmp_path):
        _, config_path, _ = workspace
        config = RunConfig.from_file(config_path)
        rows = sweep(
            config,
            {"theta": [0.2, 0.4], "alpha": [0.1, 0.3], "gamma": [10, 100]},
        )
        assert len(rows) == 8
        ok = [r for r in rows if r["status"] == "OK"]
        lces = [r["lce"] for r in ok]
        assert lces == sorted(lces, reverse=True)

    def test_sweep_csv_written(self, workspace):
        tmp_dir, config_path, _ = workspace
        config = RunConfig.from_file(config_path)
        sweep(config, {"theta": [0.3]})
        assert (tmp_dir / "out" / "sweep.csv").exists()

    def test_cli_sweep(self, workspace, capsys):
        tmp_dir, config_path, _ = workspace
        grid_path = tmp_dir / "grid.json"
        grid_path.write_text(json.dumps({"theta": [0.2, 0.4]}))
        assert (
            main(["sweep", "--config", str(config_path), "--grid", str(grid_path)]) == 0
        )
        assert "sweep: 2 cells" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "grid, flags, detail",
        [
            ({"theta": [0.3, 3.0]}, [], "theta must be in [0, 2]"),
            ({"theta": [0.3]}, ["--algo", "gmm"], "online clusterer only"),
            ({"thetas": [0.3]}, [], "a sweep grid maps some of"),
            ([0.3], [], "a sweep grid maps some of"),
            ("{theta: [0.3]}", [], "invalid JSON in grid"),
        ],
    )
    def test_bad_sweep_is_config_error_before_input_is_read(
        self, tmp_path, workspace, capsys, grid, flags, detail
    ):
        # The input does not exist, so reading it first would end in "IO: ...".
        _, _, config = workspace
        config_path = tmp_path / "missing_input.json"
        config_path.write_text(json.dumps(dict(config, input=str(tmp_path / "nope.log"))))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(grid if isinstance(grid, str) else json.dumps(grid))
        argv = ["sweep", "--config", str(config_path), "--grid", str(grid_path), *flags]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("CONFIG: ") and err.count("\n") == 1, err
        assert detail in err
