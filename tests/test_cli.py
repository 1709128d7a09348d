"""CLI and pipeline surface."""

import csv
import dataclasses
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from logevo import pipeline
from logevo.cli import main
from logevo.clustering import ClusterState
from logevo.errors import ConfigError, LogevoError
from logevo.pipeline import RunConfig, run, sweep
from logevo.representatives import LEVENSHTEIN_CAP

from helpers import (
    T0, make_evolution_jsonl, make_loghub_sample, record, schema_oracle, write_jsonl,
    write_precomputed,
)


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
    # The four outputs and nothing else: no state.json.tmp is left behind.
    assert sorted(os.listdir(out_dir)) == ["clusters.jsonl", "metrics.csv", "report.json", "state.json"]
    report = json.loads((out_dir / "report.json").read_text())
    for key in ("S", "R", "C", "lce"):
        assert 0.0 <= report["score"][key] <= 1.0
    assert report["levenshtein_window"] is None  # the centroid picks representatives
    assert set(report["timings"]) == {"ingest_s", "embed_s", "cluster_s", "metrics_s", "write_s"}
    assert report["timings"]["write_s"] >= 0
    assert "lce=" in capsys.readouterr().out


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


def test_missing_input_is_one_io_line(tmp_path, capsys):
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({"input": str(tmp_path / "nope.log"),
                                       "output_dir": str(tmp_path / "out")}))
    assert main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("IO: ") and "nope.log" in err and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("vectors", ["3 0\na\nb\nc\n", "a\nb\n"], ids=["header", "first_line"])
def test_word_vectors_of_dimension_zero_are_a_provider_error(tmp_path, capsys, vectors):
    # They used to load, and the first embed ended in an IndexError traceback.
    (tmp_path / "vec.txt").write_text(vectors)
    input_path = tmp_path / "events.jsonl"
    write_jsonl(input_path, make_evolution_jsonl(days=2, per_kind=3))
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({
        "input": str(input_path), "format": "jsonl",
        "provider": {"kind": "word_vectors", "path": str(tmp_path / "vec.txt")},
        "output_dir": str(tmp_path / "out"),
    }))
    assert main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"PROVIDER: {tmp_path / 'vec.txt'}:") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "vectors, err",
    [("database 1 0 0\nfilesystem 0 x 0\nscheduler 0 0 1\n",
      "PROVIDER: {path}:2: non-numeric value: "),
     ("database 1 0 0\nfilesystem 0 1 0\nunused 0 x 0\nscheduler 0 0 1\n", ""),
     ("database 1 0 0\nfilesystem 0 1 0\nscheduler 0 0 1\ndatabase 0 x 0\n", "")],
    ids=["used_word", "unused_word", "later_duplicate"],
)
def test_a_bad_vector_line_is_reported_when_its_word_is_used(tmp_path, capsys, vectors, err):
    # Only a word the records use has its line parsed; the first line of a word is its line.
    path = tmp_path / "vec.txt"
    path.write_text(vectors)
    input_path = tmp_path / "events.jsonl"
    write_jsonl(input_path, make_evolution_jsonl(days=2, per_kind=3))
    config_path = tmp_path / "c.json"
    config = {"input": str(input_path), "format": "jsonl",
              "provider": {"kind": "word_vectors", "path": str(path)},
              "output_dir": str(tmp_path / "out")}
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path)]) == (1 if err else 0)
    out = capsys.readouterr().err
    if err:
        assert out.startswith(err.format(path=path)) and out.count("\n") == 1, out
        assert not (tmp_path / "out").exists()
    else:
        assert out == "" and (tmp_path / "out" / "report.json").exists()
        # A "\r" before a "\n" is whitespace: the file with "\r\n" line ends writes the same.
        path.write_bytes(vectors.replace("\n", "\r\n").encode())
        config_path.write_text(json.dumps(dict(config, output_dir=str(tmp_path / "crlf"))))
        assert main(["run", "--config", str(config_path)]) == 0
        for name in ("metrics.csv", "clusters.jsonl"):
            assert (tmp_path / "crlf" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()


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


# Each side file starts with the bytes of a UTF-16 byte-order mark, which are not
# UTF-8; what follows them, and how the run then ends.
_NOT_UTF8 = {
    "config": (None, "CONFIG: invalid JSON in config"),
    "grid": (b'{"theta": [0.3]}', "CONFIG: invalid JSON in grid"),
    "stopwords_path": (b"\nthe\n", ""),
    "word_vectors": (b" 1 0 0\ndatabase 1 0 0\nfilesystem 0 1 0\nscheduler 0 0 1\n", ""),
    "precomputed": (b'{"id": "r0", "vector": [1, 0]}\n', "PROVIDER: "),
}


@pytest.mark.parametrize("side_file", _NOT_UTF8)
def test_side_file_that_is_not_utf8_reads_with_replacement(tmp_path, capsys, side_file):
    body, outcome = _NOT_UTF8[side_file]
    write_jsonl(tmp_path / "events.jsonl", make_evolution_jsonl(days=3, per_kind=4, seed=5))
    config = {"input": str(tmp_path / "events.jsonl"), "format": "jsonl",
              "params": {"theta": 0.3}, "output_dir": str(tmp_path / "out")}
    side = tmp_path / "side"
    if side_file == "stopwords_path":
        config["stopwords_path"] = str(side)
    elif side_file in ("word_vectors", "precomputed"):
        config["provider"] = {"kind": side_file, "path": str(side)}
    config_path = tmp_path / "c.json"
    argv = ["run", "--config", str(config_path)]
    if side_file == "config":
        config_path.write_bytes(b"\xff\xfe" + json.dumps(config).encode())
    else:
        config_path.write_text(json.dumps(config))
        side.write_bytes(b"\xff\xfe" + body)
    if side_file == "grid":
        argv = ["sweep", "--config", str(config_path), "--grid", str(side)]
    code = main(argv)
    err = capsys.readouterr().err
    if outcome:
        assert code == 1 and err.startswith(outcome) and err.count("\n") == 1, err
    else:
        assert (code, err) == (0, ""), err


@pytest.mark.parametrize("side_file", ["config", "grid"])
def test_an_integer_past_the_digit_limit_is_one_config_line(tmp_path, workspace, capsys, side_file):
    # json.loads rejects an int of more digits than int() reads with a bare
    # ValueError, not a JSONDecodeError.
    _, config_path, config = workspace
    huge = "9" * 5000
    argv = ["run", "--config", str(config_path)]
    if side_file == "config":
        text = json.dumps(dict(config, params={"theta": 0.3, "gamma": 7}))
        config_path.write_text(text.replace('"gamma": 7', f'"gamma": {huge}'))
    else:
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(f'{{"gamma": [{huge}]}}')
        argv = ["sweep", "--config", str(config_path), "--grid", str(grid_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"CONFIG: invalid JSON in {side_file} ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


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
    assert report["levenshtein_window"] == LEVENSHTEIN_CAP == 256


def test_levenshtein_mode_past_256_members_at_default_cap(tmp_path, capsys):
    # One family sends 150 short records a day, so in the second daily batch
    # its reservoir (default cap 512) holds 300; the medoid takes the newest
    # 256. It used to exit with `METRIC: ... reservoir has 300 members`.
    noise = ["alpha", "beta", "delta", "sigma", "kappa"]
    texts = [f"disk quota exceeded on volume seven {noise[k % 5]} {k}" for k in range(150)]
    texts += [f"connection refused by remote host {word}" for word in noise]
    records = [record(f"r{day}-{k}", text, T0 + timedelta(days=day, seconds=k))
               for day in range(2) for k, text in enumerate(texts)]
    input_path = tmp_path / "events.jsonl"
    write_jsonl(input_path, records)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"input": str(input_path), "format": "jsonl",
                                       "params": {"theta": 0.3}, "output_dir": str(tmp_path / "out")}))
    assert main(["run", "--config", str(config_path), "--rep", "levenshtein"]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    state = json.loads((tmp_path / "out" / "state.json").read_text())
    assert max(len(c["reservoir_ids"]) for c in state["clusters"]) == 300
    lines = clusters_lines(tmp_path / "out")
    assert [b["nr_clust"] for b in report["batches"]] == [2, 2]
    for b in report["batches"]:
        ids = [row["id"] for row in lines if row["batch_index"] == b["index"]]
        assert sorted(ids) == [0, 1]


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


@pytest.mark.parametrize(
    "records, flags, covered",
    [
        (lambda: make_evolution_jsonl(days=6, per_kind=4)
         + [record(f"u{day}", "défaut ☃ 磁盘 \"quoted\" 𝄞", T0 + timedelta(days=day, hours=5))
            for day in range(6)],
         [], lambda reports, rows: any("☃" in row["representative"] for row in rows)),
        # Odd days are empty batches, which repeat the last fit's representatives with len 0.
        (lambda: [r for r in make_evolution_jsonl(days=10) if (r.timestamp - T0).days % 2 == 0],
         ["--algo", "gmm"],
         lambda reports, rows: any(r.sizes and set(r.sizes.values()) == {0} for r in reports)),
        (lambda: make_evolution_jsonl(days=6, per_kind=4),
         ["--rep", "levenshtein"], lambda reports, rows: any(row["score"] < 0 for row in rows)),
    ],
    ids=["online_non_ascii", "gmm_empty_batches", "levenshtein"],
)
def test_clusters_jsonl_is_each_row_dumped_with_sorted_keys(
    tmp_path, monkeypatch, records, flags, covered
):
    input_path = tmp_path / "events.jsonl"
    write_jsonl(input_path, records())
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({"input": str(input_path), "format": "jsonl",
                                       "params": {"theta": 0.3}, "gmm": {"K": 4},
                                       "output_dir": str(tmp_path / "out")}))
    # Each batch's report, as the run closes it.
    reports, close_batch = [], pipeline.close_batch
    monkeypatch.setattr(pipeline, "close_batch",
                        lambda report, prev: reports.append(report) or close_batch(report, prev))
    assert main(["run", "--config", str(config_path), *flags]) == 0
    rows = [
        {"batch_index": r.index, "id": cid, "len": r.sizes[cid],
         "representative": rep.text, "score": rep.score}
        for r in reports for cid, rep in sorted(r.reps.items())
    ]
    expected = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    assert (tmp_path / "out" / "clusters.jsonl").read_bytes() == expected.encode("utf-8")
    assert covered(reports, rows)


# Each family sends five records a day. The quadratic edit-distance medoid gets a
# reservoir of six, so one member from before a cut is still in it after the cut.
@pytest.mark.parametrize("representative, reservoir_cap", [("CENTROID", 512), ("LEVENSHTEIN", 6)])
def test_resumed_run_writes_what_an_uninterrupted_run_writes(tmp_path, representative, reservoir_cap):
    # The run is cut at days 3 and 6, so the third part resumes a resume.
    records = make_evolution_jsonl(days=10, per_kind=4, seed=5)

    def run_part(name, part, state):
        write_jsonl(tmp_path / f"{name}.jsonl", part)
        run(RunConfig(input=str(tmp_path / f"{name}.jsonl"), format="jsonl",
                      params={"theta": 0.3, "reservoir_cap": reservoir_cap},
                      representative=representative, output_dir=str(tmp_path / name)), state)
        assert sorted(os.listdir(tmp_path / name)) == [
            "clusters.jsonl", "metrics.csv", "report.json", "state.json"]
        return clusters_lines(tmp_path / name)

    whole = run_part("whole", records, None)
    resumed, state = [], None
    for k, (start, end) in enumerate(itertools.pairwise([0, 3, 6, 10])):
        part = [r for r in records if start <= (r.timestamp - T0).days < end]
        resumed += [dict(row, batch_index=row["batch_index"] + start)
                    for row in run_part(f"part{k}", part, state)]
        state = ClusterState.load(tmp_path / f"part{k}" / "state.json")
    assert resumed == whole
    assert all(row["representative"] for row in whole)
    written = (tmp_path / "part2" / "state.json").read_bytes()
    assert written == (tmp_path / "whole" / "state.json").read_bytes()
    assert written == json.dumps(state.to_snapshot(), separators=(",", ":")).encode("utf-8")


@pytest.mark.parametrize(
    "changes, detail",
    [({"params": {"theta": 0.9, "alpha": 0.5}},
      r"^params: theta 0\.9 is not the snapshot's 0\.3; alpha 0\.5 is not the snapshot's 0\.1$"),
     ({"algorithm": "GMM"}, r"^algorithm: GMM cannot resume")],
    ids=["other_params", "gmm"],
)
def test_resume_needs_the_snapshot_params_and_the_online_clusterer(tmp_path, changes, detail):
    # The input does not exist: the check comes before any input is read.
    config = dict(input=str(tmp_path / "missing.jsonl"), format="jsonl",
                  params={"theta": 0.3}, output_dir=str(tmp_path / "out"))
    state = ClusterState(RunConfig(**config).resolved_params())
    with pytest.raises(ConfigError, match=detail):
        run(RunConfig(**dict(config, **changes)), state)
    assert not (tmp_path / "out").exists()


def embedding_files(tmp_path):
    """Two word-vectors files, a copy of the first under another name, two
    precomputed files for the evolution stream, and a stopword file."""
    records = make_evolution_jsonl(days=3, per_kind=4, seed=5)
    write_jsonl(tmp_path / "events.jsonl", records)
    for name, seed in (("a", 1), ("b", 2)):
        rng = np.random.default_rng(seed)
        with (tmp_path / f"{name}.vec").open("w") as fh:
            for word in ("database", "filesystem", "scheduler"):
                fh.write(" ".join([word, *map(str, rng.normal(size=64))]) + "\n")
        write_precomputed(tmp_path / f"{name}.jsonl", {r.id: rng.normal(size=64) for r in records})
    (tmp_path / "copy.vec").write_bytes((tmp_path / "a.vec").read_bytes())
    (tmp_path / "stop.txt").write_text("pool\n")


_VEC_A = {"provider": {"kind": "word_vectors", "path": "a.vec"}}
_SHA = "[0-9a-f]{64}"


@pytest.mark.parametrize(
    "first, second, detail",
    [({}, {"provider": {"kind": "hashing", "seed": 1}}, "seed 1 is not the snapshot's 0"),
     (_VEC_A, {"provider": {"kind": "word_vectors", "path": "b.vec"}},
      f"sha256 {_SHA} is not the snapshot's {_SHA}"),
     ({"provider": {"kind": "precomputed", "path": "a.jsonl"}},
      {"provider": {"kind": "precomputed", "path": "b.jsonl"}},
      f"sha256 {_SHA} is not the snapshot's {_SHA}"),
     (_VEC_A, {}, "kind hashing is not the snapshot's word_vectors"),
     ({}, {"stopwords_path": "stop.txt"}, f"stopwords_sha256 {_SHA} is not the snapshot's {_SHA}")],
    ids=["hashing_seed", "vectors_file", "precomputed_file", "kind", "stopwords"],
)
def test_resume_needs_the_embedding_the_snapshot_records(tmp_path, monkeypatch, first, second,
                                                         detail):
    monkeypatch.chdir(tmp_path)
    embedding_files(tmp_path)
    config = dict(format="jsonl", params={"theta": 0.3})
    run(RunConfig(input="events.jsonl", output_dir="first", **config, **first))
    state = ClusterState.load(tmp_path / "first" / "state.json")
    # The input does not exist: the check comes before any input is read.
    with pytest.raises(ConfigError, match=f"^provider: {detail}$"):
        run(RunConfig(input="missing.jsonl", output_dir="second", **config, **second), state)
    assert not (tmp_path / "second").exists()


def test_a_snapshot_records_its_embedding_and_resumes_from_a_copy_of_its_file(
    tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    embedding_files(tmp_path)
    config = dict(input="events.jsonl", format="jsonl", params={"theta": 0.3},
                  stopwords_path="stop.txt")
    run(RunConfig(**config, **_VEC_A, output_dir="first"))
    doc = json.loads((tmp_path / "first" / "state.json").read_text())
    assert list(doc) == ["params", "embedding", "next_id", "clusters"]
    assert doc["embedding"] == {
        "kind": "word_vectors", "path": "a.vec",
        "sha256": hashlib.sha256((tmp_path / "a.vec").read_bytes()).hexdigest(),
        "stopwords": "stop.txt", "stopwords_sha256": hashlib.sha256(b"pool\n").hexdigest(),
    }
    # The same bytes under another name are the same embedding; the new path is recorded.
    state = ClusterState.load(tmp_path / "first" / "state.json")
    run(RunConfig(**config, provider={"kind": "word_vectors", "path": "copy.vec"},
                  output_dir="second"), state)
    resumed = json.loads((tmp_path / "second" / "state.json").read_text())["embedding"]
    assert resumed == dict(doc["embedding"], path="copy.vec")


def test_an_older_snapshot_without_an_embedding_resumes_with_the_dimension_check(tmp_path):
    write_jsonl(tmp_path / "events.jsonl", make_evolution_jsonl(days=3, per_kind=4, seed=5))
    config = dict(input=str(tmp_path / "events.jsonl"), format="jsonl", params={"theta": 0.3})
    run(RunConfig(**config, output_dir=str(tmp_path / "first")))
    doc = json.loads((tmp_path / "first" / "state.json").read_text())
    del doc["embedding"]
    with pytest.raises(ConfigError, match=r"^provider: .* dimension 32, .* centroids 64$"):
        run(RunConfig(**config, provider={"kind": "hashing", "d": 32},
                      output_dir=str(tmp_path / "second")), ClusterState.from_snapshot(doc))
    # Nothing tells another seed apart, as before; the resumed snapshot records it.
    run(RunConfig(**config, provider={"kind": "hashing", "seed": 1},
                  output_dir=str(tmp_path / "second")), ClusterState.from_snapshot(doc))
    resumed = json.loads((tmp_path / "second" / "state.json").read_text())["embedding"]
    assert (resumed["kind"], resumed["d"], resumed["seed"]) == ("hashing", 64, 1)


def test_resume_takes_the_params_as_a_snapshot_holds_them(tmp_path):
    # Float seconds lost this staleness's last microsecond; state.json holds whole ones.
    write_jsonl(tmp_path / "events.jsonl", make_evolution_jsonl(days=3, per_kind=4, seed=5))
    config = RunConfig(input=str(tmp_path / "events.jsonl"), format="jsonl",
                       params={"theta": 0.3, "staleness_days": 1e6 / 3},
                       output_dir=str(tmp_path / "out"))
    state = ClusterState.from_snapshot(ClusterState(config.resolved_params()).to_snapshot())
    assert state.params == config.resolved_params()
    run(config, state)
    assert (tmp_path / "out" / "state.json").exists()


def test_resume_needs_vectors_of_the_snapshot_dimension(tmp_path):
    write_jsonl(tmp_path / "events.jsonl", make_evolution_jsonl(days=3, per_kind=4, seed=5))
    config = dict(input=str(tmp_path / "events.jsonl"), format="jsonl", params={"theta": 0.3})
    run(RunConfig(**config, output_dir=str(tmp_path / "first")))  # hashing, d 64
    state = ClusterState.load(tmp_path / "first" / "state.json")
    before = state.to_snapshot()
    with pytest.raises(ConfigError, match=r"^provider: .* dimension 32, .* centroids 64$"):
        run(RunConfig(**config, provider={"kind": "hashing", "d": 32},
                      output_dir=str(tmp_path / "second")), state)
    assert state.to_snapshot() == before  # no batch was clustered
    assert not (tmp_path / "second").exists()


def test_resume_dimension_is_checked_before_the_input_is_read(tmp_path):
    # The input does not exist: the provider loads, and the check follows at once.
    config = dict(input=str(tmp_path / "missing.jsonl"), format="jsonl", params={"theta": 0.3},
                  provider={"kind": "hashing", "d": 32}, output_dir=str(tmp_path / "out"))
    state = ClusterState(RunConfig(**config).resolved_params())
    state.ingest_point(record("p0"), np.eye(64)[0])  # one active centroid of dimension 64
    with pytest.raises(ConfigError, match=r"^provider: .* dimension 32, .* centroids 64$"):
        run(RunConfig(**config), state)
    assert not (tmp_path / "out").exists()


def write_ci_events(path):
    """CI's 18 events: six on each of three mornings, at 00:00 to 05:00, alternating
    two texts that each end in the hour."""
    texts = ["disk quota exceeded on volume seven", "connection refused by host db"]
    with path.open("w") as fh:
        for day, k in itertools.product(range(1, 4), range(6)):
            row = {"timestamp": f"2017-05-0{day}T0{k}:00:00Z", "level": "ERROR",
                   "text": f"{texts[k % 2]} {k}"}
            fh.write(json.dumps(row) + "\n")


def test_a_window_too_short_for_the_stream_is_one_line_and_writes_nothing(tmp_path, capsys):
    # Six events on each of three mornings; 1.728-second windows would cut them
    # into 110,417 batches, nearly all empty.
    write_ci_events(tmp_path / "events.jsonl")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "input": str(tmp_path / "events.jsonl"), "format": "jsonl", "params": {"theta": 0.3},
        "batch": {"mode": "FIXED_WINDOW", "window_days": 2e-05},
        "output_dir": str(tmp_path / "out"),
    }))
    assert main(["run", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == (
        "CONFIG: batch: windows of 0:00:01.728000 cut 2017-05-01T00:00:00+00:00 to "
        "2017-05-03T05:00:00+00:00 into 110417 batches, more than the 100000 a run allows\n"
    )
    assert not (tmp_path / "out").exists()


def test_a_run_that_fails_at_scoring_after_every_batch_closed_writes_nothing(
    tmp_path, monkeypatch, capsys
):
    # At theta 2 every event joins one cluster, so no batch has a silhouette:
    # the score fails after the last batch has closed and its lines are written.
    write_ci_events(tmp_path / "events.jsonl")
    (tmp_path / "config.json").write_text(json.dumps(
        {"input": "events.jsonl", "format": "jsonl", "params": {"theta": 2.0}}
    ))
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    monkeypatch.chdir(tmp_path)
    closed, close_batch = [], pipeline.close_batch
    monkeypatch.setattr(pipeline, "close_batch",
                        lambda report, prev: closed.append(report.index) or close_batch(report, prev))
    assert main(["run", "--config", "config.json"]) == 1
    assert capsys.readouterr().err == "METRIC: no batch has a defined silhouette\n"
    assert closed == [0, 1, 2]
    assert sorted(os.listdir(tmp_path)) == ["config.json", "events.jsonl", "tmp"]
    assert os.listdir(tmp_path / "tmp") == []


@pytest.mark.parametrize(
    "changes, detail",
    [({}, "batch 0: 6 distinct points, fewer than K=11 components"),
     ({"gmm": {"K": 4}, "batch": {"mode": "FIXED_WINDOW", "window_days": 0.125}},
      "batch 0: 3 distinct points, fewer than K=4 components")],
    ids=["default_K", "three_hour_windows"],
)
def test_gmm_with_too_few_distinct_points_is_one_line_and_writes_nothing(
    tmp_path, capsys, changes, detail
):
    write_ci_events(tmp_path / "events.jsonl")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "input": str(tmp_path / "events.jsonl"), "format": "jsonl", "algorithm": "GMM",
        "output_dir": str(tmp_path / "out"), **changes,
    }))
    assert main(["run", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"METRIC: {detail}\n"
    assert not (tmp_path / "out").exists()
    config_path.write_text(json.dumps({**json.loads(config_path.read_text()), "gmm": {"K": 2}}))
    assert main(["run", "--config", str(config_path)]) == 0
    assert sorted(os.listdir(tmp_path / "out")) == ["clusters.jsonl", "metrics.csv", "report.json"]


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
    "keep, shift, batch",
    [(lambda day: day % 2 == 0, timedelta(0), "1d"),
     (lambda day: True, timedelta(hours=7), {"mode": "FIXED_WINDOW", "window_days": 0.25})],
    ids=["even_days", "first_record_at_7h"],
)
def test_gmm_empty_batch_keeps_the_components_with_no_member(tmp_path, capsys, keep, shift, batch):
    input_path = tmp_path / "events.jsonl"
    write_jsonl(input_path, [
        dataclasses.replace(r, timestamp=r.timestamp + shift)
        for r in make_evolution_jsonl(days=10) if keep((r.timestamp - T0).days)
    ])
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({"input": str(input_path), "format": "jsonl", "batch": batch,
                                       "output_dir": str(tmp_path / "out")}))
    assert main(["run", "--config", str(config_path), "--algo", "gmm"]) == 0
    assert capsys.readouterr().err == ""
    batches = json.loads((tmp_path / "out" / "report.json").read_text())["batches"]
    lines = clusters_lines(tmp_path / "out")
    rows = [[row for row in lines if row["batch_index"] == b["index"]] for b in batches]
    fitted = [b["n_records"] > 0 for b in batches]
    assert not all(fitted)
    for i, (b, here) in enumerate(zip(batches, rows)):
        assert b["nr_clust"] == len(here)  # each component with a representative
        if fitted[i]:
            assert sum(row["len"] for row in here) == b["n_records"]
            # a component that had a representative keeps it, with len 0 if it got no member
            assert i == 0 or {row["id"] for row in rows[i - 1]} <= {row["id"] for row in here}
        elif any(fitted[:i]):  # the last fit's representatives, each with no member
            assert here == [{**row, "batch_index": i, "len": 0} for row in rows[i - 1]]
        else:  # before the first fit
            assert (b["nr_clust"], here) == (0, [])
    # Some fitted batch leaves a component that had a representative without a member.
    assert any(f and any(row["len"] == 0 for row in here) for f, here in zip(fitted, rows))
    assert fitted[0] == (shift == timedelta(0))  # 6-hour windows start at midnight, not 07:00


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


def _syslog_format(timestamp_format, default_year):
    return {"name": "custom", "pattern": r"(?P<timestamp>\S+ \S+ \S+) (?P<text>.*)",
            "timestamp_format": timestamp_format, "default_year": default_year}


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
    ({"provider": {"kind": "hashing", "seed": 10**16}}, [], "provider: hashing seed"),
    ({"provider": {"kind": "hashing", "seed": -(10**15)}}, [], "provider: hashing seed"),
    ({"batch": {"mode": "FIXED_WINDOW", "window_days": 1, "snapshot_days": 2}}, [],
     "batch: mode FIXED_WINDOW takes no snapshot_days"),
    ({"batch": {"mode": "SNAPSHOT_PLUS_WINDOW", "window_days": 1}}, [],
     "batch: mode SNAPSHOT_PLUS_WINDOW needs snapshot_days"),
    ({"line_format": _syslog_format("%b %d %H:%M:%S", 0)}, [], "line_format: default_year 0"),
    ({"line_format": _syslog_format("%b %d %H:%M:%S", 10000)}, [], "line_format: default_year"),
    ({"line_format": _syslog_format("%Y %b %d", 2020)}, [], "line_format: default_year goes only"),
    ({"line_format": _syslog_format("%d/%m/%y %H", 2020)}, [], "line_format: default_year goes"),
    ({"line_format": _syslog_format("%c", 2020)}, [], "line_format: default_year goes"),
    # strptime cannot compile either format, so every line would fail to parse
    ({"line_format": _syslog_format("%H %H", None)}, [], "line_format: timestamp_format '%H %H'"),
    ({"line_format": _syslog_format("%Q %H", None)}, [], "line_format: timestamp_format '%Q %H'"),
    # a deque holds at most sys.maxsize members
    ({"params": {"reservoir_cap": 10**20}}, [], "params: gamma must be positive and reservoir_cap"),
    ({"gmm": {"K": 0}}, [], "gmm.K: 0 is less than the minimum of 1"),
    ({"params": {"alpha": 0}}, [], "params: alpha must be in (0, 1]"),
    ({"params": {"staleness_days": 0}}, [], "params: staleness must be positive"),
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


@pytest.mark.parametrize(
    "name, doc, message",
    [("config", {"input": 3}, "input: 3 is not of type 'string'"),
     ("report", {}, "report: 'config' is a required property")],
)
def test_schema_problem_is_the_same_on_a_repeated_call(name, doc, message):
    # Each schema is read once per process and then reused.
    assert [pipeline._schema_problem(name, doc) for _ in range(2)] == [message, message]
    assert pipeline._schema(name) is pipeline._schema(name)


@pytest.mark.parametrize(
    "doc, message",
    [
        # the shallowest problem, however deep the others
        ({"input": "x", "gmm": {"K": "x"}, "format": "csv"},
         "format: 'csv' is not one of ['loghub', 'jsonl']"),
        # among equally shallow ones, the first in the schema's key order, not the document's
        ({"format": "csv", "input": 3}, "input: 3 is not of type 'string'"),
        ({"zz": 1}, "config: 'input' is a required property"),
        ({"input": "x", "x": 1}, "config: Additional properties are not allowed ('x' was unexpected)"),
        ({"input": "x", "zz": 1, "aa": 2},
         "config: Additional properties are not allowed ('aa', 'zz' were unexpected)"),
        ({"input": "x", "provider": {"kind": "word_vectors", "path": 1}},
         "provider.path: 1 is not of type 'string'"),
    ],
)
def test_schema_problem_is_the_shallowest_then_the_first(doc, message):
    assert pipeline._schema_problem("config", doc) == message


@pytest.mark.parametrize(
    "schema",
    [{"oneOf": [{"type": "string"}]},
     {"type": "object", "properties": {"input": {"type": "string", "pattern": "^/"}}},
     {"properties": {"input": False}}],
)
def test_a_schema_keyword_the_checker_does_not_know_is_a_bug(workspace, monkeypatch, capsys, schema):
    tmp_path, config_path, _ = workspace
    monkeypatch.setattr(pipeline, "_schema", lambda name: schema)
    with pytest.raises(LogevoError):
        pipeline._schema_problem("config", {"input": "x"})
    assert main(["run", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith("INTERNAL: the schema checker does not know")
    assert not (tmp_path / "out").exists()


def test_a_run_imports_no_jsonschema(workspace):
    _, config_path, _ = workspace
    code = ("import sys; from logevo.cli import main\n"
            "assert main(['run', '--config', sys.argv[1]]) == 0\n"
            "roots = {name.split('.')[0] for name in sys.modules}\n"
            "print(sorted(roots & {'jsonschema', 'referencing', 'rpds', 'attrs'}))")
    src = str(Path(pipeline.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code, str(config_path)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.splitlines()[-1] == "[]", proc.stdout


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


def _agrees_with_the_oracle(name, doc):
    """The checker and jsonschema accept the same documents; the checker names a
    path where jsonschema finds an error and, when jsonschema finds just one, its words."""
    errors = list(schema_oracle(name).iter_errors(doc))
    problem = pipeline._schema_problem(name, doc)
    assert (problem is None) == (not errors), (problem, [e.message for e in errors])
    where = [f"{'.'.join(map(str, e.absolute_path)) or name}: " for e in errors]
    assert problem is None or any(problem.startswith(w) for w in where), (problem, where)
    if len(errors) == 1:
        expected = where[0] + errors[0].message
        # jsonschema 4.26 sorts several unexpected names; older releases, back to the
        # 4.0 floor, may list them in another order, so there only the characters must agree.
        if errors[0].validator == "additionalProperties" and problem != expected:
            assert sorted(problem) == sorted(expected), (problem, expected)
        else:
            assert problem == expected


@settings(max_examples=500, deadline=None)
@given(doc=_CONFIG_DOCS)
def test_schema_checker_agrees_with_jsonschema_on_configs(doc):
    _agrees_with_the_oracle("config", doc)


@pytest.mark.parametrize(
    "doc",
    [{"input": "x", "weights": [0.25] * 4},
     {"input": "x", "weights": (0.5, 0.25, 0.25)},
     {"input": "x", "weights": [True, 0, 0]},
     {"input": "x", "gmm": {"K": 2.0, "seed": True}},
     {"input": "x", "provider": {"kind": "hashing", "path": "v.txt"}},
     {"input": "x", "provider": {"kind": "precomputed", "d": 8}},
     {"input": "x", "provider": {"kind": "glove"}},
     {"input": "x", "line_format": {"name": "x", "zz": 1, "aa": 2}},
     {"input": "x", "output_dir": None, "format": 1, "batch": {"mode": 1}}],
)
def test_schema_checker_agrees_with_jsonschema_on_chosen_configs(doc):
    _agrees_with_the_oracle("config", doc)


@pytest.fixture(scope="module")
def real_report(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("report")
    input_path = tmp_path / "events.jsonl"
    write_jsonl(input_path, make_evolution_jsonl(days=4, per_kind=4, seed=5))
    return run(RunConfig(input=str(input_path), format="jsonl", params={"theta": 0.3},
                         representative="LEVENSHTEIN", output_dir=str(tmp_path / "out")))


def _paths(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, (*path, key))


def _replaced(doc, path, value):
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return copy


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_schema_checker_agrees_with_jsonschema_on_reports(real_report, data):
    path = data.draw(st.sampled_from(list(_paths(real_report))[1:]), label="path")
    value = data.draw(_ANY_JSON, label="value")
    _agrees_with_the_oracle("report", _replaced(real_report, path, value))


# Most timestamps fall within ten days of T0. About one in twenty falls in year 1 or
# year 9999: a stream that spans centuries plans one daily batch across them, more
# than a run allows, and ends in one CONFIG: batch: line.
_YEAR = timedelta(days=365)
_FAR = st.integers(0, _YEAR // timedelta(seconds=1)).flatmap(lambda s: st.sampled_from(
    [datetime(1, 1, 1, tzinfo=timezone.utc) + timedelta(seconds=s),
     datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc) - timedelta(seconds=s)]))
_NEAR = st.integers(0, 10 * 86400 - 1).map(lambda s: T0 + timedelta(seconds=s))
_STAMP = st.integers(0, 19).flatmap(lambda k: _FAR if k == 0 else _NEAR)
_GOOD_ROW = st.fixed_dictionaries(
    {"timestamp": _STAMP.map(datetime.isoformat),
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
# The good rows' times, and the good rows with up to two bad lines among them.
_LINES = st.tuples(
    st.lists(_GOOD_ROW, min_size=1, max_size=12), st.lists(_BAD_LINE, max_size=2)
).flatmap(lambda good_bad: st.tuples(
    st.just([datetime.fromisoformat(row["timestamp"]) for row in good_bad[0]]),
    st.permutations([json.dumps(row) for row in good_bad[0]] + good_bad[1]),
))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stream=_LINES, bad_bytes=st.booleans())
def test_fuzzed_input_exits_cleanly(tmp_path, capsys, stream, bad_bytes):
    stamps, lines = stream
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
    if len(lines) == len(stamps) and not bad_bytes and max(stamps) - min(stamps) > 1000 * _YEAR:
        assert err.startswith("CONFIG: batch: "), err


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
        # A header, then one row a cell.
        assert len((tmp_dir / "out" / "sweep.csv").read_text().splitlines()) == 3

    def test_a_failing_cell_is_a_failed_row(self, tmp_path, capsys):
        # At theta 1.5 the three families share one cluster, so no batch has a silhouette.
        input_path = tmp_path / "events.jsonl"
        write_jsonl(input_path, make_evolution_jsonl(days=10))
        config_path, grid_path = tmp_path / "c.json", tmp_path / "grid.json"
        config_path.write_text(json.dumps({"input": str(input_path), "format": "jsonl",
                                           "output_dir": str(tmp_path / "out")}))
        grid_path.write_text(json.dumps({"theta": [0.3, 1.5]}))
        assert main(["sweep", "--config", str(config_path), "--grid", str(grid_path)]) == 0
        assert "sweep: 2 cells, 1 ok" in capsys.readouterr().out
        with (tmp_path / "out" / "sweep.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["theta"], r["status"]) for r in rows] == [("0.3", "OK"), ("1.5", "FAILED:METRIC")]
        assert [rows[1][k] for k in ("S", "R", "C", "lce")] == ["", "", "", ""]

    @pytest.mark.parametrize(
        "grid, flags, detail",
        [
            ({"theta": [0.3, 3.0]}, [], "theta must be in [0, 2]"),
            ({"theta": [0.3]}, ["--algo", "gmm"], "online clusterer only"),
            ({"thetas": [0.3]}, [], "a sweep grid maps some of"),
            ([0.3], [], "a sweep grid maps some of"),
            ("{theta: [0.3]}", [], "invalid JSON in grid"),
            # Grid values meet the same check as the config's params.
            ({"gamma": [1.5], "theta": [True]}, [], "CONFIG: params."),
            ({"gamma": [10, 1.5]}, [], "params.gamma: 1.5 is not of type 'integer'"),
            ({"theta": [0.3, True]}, [], "params.theta: True is not of type 'number'"),
            ({"theta": []}, [], "each sweep grid entry must be a nonempty list"),
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
