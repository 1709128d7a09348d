"""Seeded input generators for the three benchmark workloads.

Each generator writes the program's inputs (a log file, and for
``drift_many`` a word2vec-text vector file) plus a run config into a work
directory, and returns a manifest of what it wrote: every level-filtered
record with its id, timestamp and raw text, and the batch plan. The checks
compare the program's outputs against this manifest, so nothing here
imports the program.
"""

from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

T0 = datetime(2017, 5, 16, tzinfo=timezone.utc)
DAY = 86400

# Full sizes, chosen so that one `logevo run` takes a few seconds on one core.
# The smoke sizes keep every mechanism (several batches, several clusters,
# expiry, fallback records) but finish in about a second.
SIZES = {
    "hdfs_few": {"full": {"days": 3, "errors_per_day": 2500},
                 "smoke": {"days": 2, "errors_per_day": 60}},
    "drift_many": {"full": {"families": 360, "vocab": 20000, "dim": 48},
                   "smoke": {"families": 24, "vocab": 600, "dim": 16}},
    "hdfs_levenshtein": {"full": {"days": 4, "per_template": 8, "cap": 6},
                         "smoke": {"days": 2, "per_template": 4, "cap": 3}},
}


# --- HDFS_2 raw text ----------------------------------------------------------

# Every error template has exactly two variable tokens {a} and {b}, fixed in
# width, among a dozen or more constant ones, so its records sit well inside
# theta=0.3 of each other and well outside it from every other template: the
# cluster count, and with it the cost of a run, does not depend on the seed.
# {url}, {stamp} and {epoch13} exercise the scrubber and vanish from the tokens.
_HDFS_ERRORS = [
    ("datanode.DataXceiver", "DataXceiver error processing WRITE_BLOCK operation on volume {a} while writing packet {b} to mirror pipeline"),
    ("datanode.DataNode", "Exception in receiveBlock for block blk_{a} java.io.IOException: Connection reset by peer during transfer {b}"),
    ("datanode.PacketResponder", "PacketResponder {a} for block blk_{b} terminating with exception after interrupted wait on ack queue"),
    ("datanode.BlockSender", "Failed to transfer replica blk_{a} to mirror node {b} got java.net.SocketTimeoutException: millis timeout while waiting for channel"),
    ("namenode.LeaseManager", "Lease recovery failed for file /user/hive/warehouse/part-{a} holder DFSClient_NONMAPREDUCE_{b} because the lease expired"),
    ("datanode.fsdataset.FsVolumeImpl", "Disk error on volume /data/{a}/dfs/dn: No space left on device, {b} bytes requested by block writer"),
    ("datanode.BlockReceiver", "Checksum error in received block blk_{a} at offset {b} mismatch reported to namenode for recovery"),
    ("namenode.TransferFsImage", "Unable to fetch {url} within configured timeout, image transfer {a} aborted by checkpointer thread {b}"),
    ("datanode.BPServiceActor", "Heartbeat to namenode timed out since {stamp}, retry attempt {a} scheduled with exponential backoff {b}"),
    ("blockmanagement.BlockManager", "Block pool BP-{a}-{epoch13} has corrupt replica of blk_{b} on decommissioning datanode rack"),
]

_HDFS_OTHER = [
    ("INFO", "datanode.DataNode", "Receiving block blk_{a} src: /10.251.42.7:40010 dest: /10.251.71.16:50010 packet {b}"),
    ("INFO", "namenode.FSNamesystem", "BLOCK* allocateBlock: /user/hive/warehouse/part-{a} blk_{b}"),
    ("WARN", "datanode.DataNode", "Slow BlockReceiver write packet to mirror took {a}ms for {b}"),
]

# A line that does not match the HDFS_2 layout: the parser appends it to the
# record before it (stack-trace continuation). It follows INFO and WARN lines
# only, so it exercises the parser without changing any ERROR record.
_CONTINUATION = "\tat org.apache.hadoop.hdfs.server.datanode.DataXceiver.run(DataXceiver.java:{a})"


def _hdfs_fill(template: str, rng: np.random.Generator, ts: datetime, pool: int) -> str:
    """Fill a template; {a} and {b} each take one of `pool` eight-digit values."""
    return template.format(
        a=f"{100000 + 7919 * int(rng.integers(pool)):08d}",
        b=f"{200000 + 6007 * int(rng.integers(pool)):08d}",
        url=f"http://namenode-1.example.com:50070/imagetransfer?getimage=1&txid={int(rng.integers(10**6)):06d}",
        stamp=(ts - timedelta(seconds=int(rng.integers(600)))).strftime("%Y-%m-%d %H:%M:%S"),
        epoch13=int(ts.timestamp() * 1000) - int(rng.integers(10**6)),
    )


def _write_hdfs(path: Path, rng: np.random.Generator, day_templates: list[list], per_template: int | None,
                errors_per_day: int, pool: int) -> list[dict]:
    """Write an HDFS_2 file; return the ERROR records as the parser must see them.

    Day d draws its errors from ``day_templates[d]``: ``per_template`` records
    of each when given, else ``errors_per_day`` records of random templates
    plus a third as many INFO and WARN lines, some with a continuation line.
    """
    lines: list[str] = []
    errors: list[dict] = []
    for day, templates in enumerate(day_templates):
        if per_template is not None:
            kinds = [t for t in templates for _ in range(per_template)]
        else:
            kinds = [templates[int(i)] for i in rng.integers(len(templates), size=errors_per_day)]
            kinds += [None] * (errors_per_day // 3)
        order = rng.permutation(len(kinds))
        seconds = np.sort(rng.integers(0, DAY, size=len(kinds)))
        for k, sec in zip(order, seconds):
            ts = T0 + timedelta(days=day, seconds=int(sec))
            stamp = ts.strftime("%Y-%m-%d %H:%M:%S") + f",{int(rng.integers(1000)):03d}"
            if kinds[k] is not None:
                level, (cls, template) = "ERROR", kinds[k]
            else:
                level, cls, template = _HDFS_OTHER[int(rng.integers(len(_HDFS_OTHER)))]
            text = f"org.apache.hadoop.hdfs.server.{cls}: {_hdfs_fill(template, rng, ts, pool)}"
            lines.append(f"{stamp} {level} [main] {text}")
            if level == "ERROR":
                errors.append({"id": f"{path.name}:{len(lines)}", "ts": int(ts.timestamp()), "text": text})
            elif rng.random() < 0.05:
                lines.append(_CONTINUATION.format(a=int(rng.integers(100, 1000))))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return errors


def _hdfs_few(work: Path, rng: np.random.Generator, days: int, errors_per_day: int) -> dict:
    log = work / "hdfs.log"
    # 22 x 22 value pairs per template: about half the token tuples repeat.
    records = _write_hdfs(log, rng, [_HDFS_ERRORS] * days, None, errors_per_day, pool=22)
    config = {
        "input": str(log),
        "format": "loghub",
        "line_format": "HDFS_2",
        "level_filter": ["ERROR"],
        "batch": "1d",
        "provider": {"kind": "hashing", "d": 64, "seed": 0},
        "params": {"theta": 0.3},
    }
    return {"config": config, "records": records, "window_s": DAY, "staleness_s": 30 * DAY,
            "rep": "centroid"}


def _hdfs_levenshtein(work: Path, rng: np.random.Generator, days: int, per_template: int,
                      cap: int) -> dict:
    # Four long templates, one cluster each. Every template sends `per_template`
    # >= cap records on the first day, so every reservoir is full from then on
    # and each medoid costs the same. Each later day leaves one template out, so
    # some active clusters get no record in a batch and their medoid is
    # recomputed unchanged.
    templates = [_HDFS_ERRORS[i] for i in (0, 3, 4, 5)]
    day_templates = [templates] + [
        [t for i, t in enumerate(templates) if i != day % len(templates)] for day in range(1, days)
    ]
    log = work / "hdfs.log"
    records = _write_hdfs(log, rng, day_templates, per_template, 0, pool=10**4)
    config = {
        "input": str(log),
        "format": "loghub",
        "line_format": "HDFS_2",
        "level_filter": ["ERROR"],
        "batch": "1d",
        "provider": {"kind": "hashing", "d": 64, "seed": 0},
        "params": {"theta": 0.3, "reservoir_cap": cap},
        "representative": "LEVENSHTEIN",
    }
    return {"config": config, "records": records, "window_s": DAY, "staleness_s": 30 * DAY,
            "rep": "levenshtein"}


# --- drift_many: JSONL defect families with word vectors -----------------------

_CONS = "bcfhjklmnpqrtvxz"  # no d, g, s, w, y and no e: no suffix rule and no stopword applies
_VOWS = "aiou"


def _vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    """`size` distinct words of five or seven letters that normalize leaves as they are."""
    pools = [_CONS if i % 2 == 0 else _VOWS for i in range(7)]
    words: dict[str, None] = {}
    while len(words) < size:
        n = 5 if rng.random() < 0.5 else 7
        words["".join(pool[int(rng.integers(len(pool)))] for pool in pools[:n])] = None
    return list(words)


def _drift_many(work: Path, rng: np.random.Generator, families: int, vocab: int, dim: int) -> dict:
    days, window_h, staleness_days, life = 30, 6, 2, 2 * DAY
    words = _vocabulary(rng, vocab)
    vectors = rng.standard_normal((vocab, dim))
    vec_path = work / "vectors.txt"
    with vec_path.open("w", encoding="utf-8") as fh:
        fh.write(f"{vocab} {dim}\n")
        for w, row in zip(words, np.round(vectors, 5).tolist()):
            fh.write(w + " " + " ".join(map(str, row)) + "\n")

    # Families are born at evenly spaced times and live two days. Each sends
    # seven records over four word sets (three, two, one and one records), so
    # it opens four clusters and merges three records: the counts of new and
    # merged records, and the number of clusters active at once, do not depend
    # on the seed. A request number makes nearly every token tuple distinct;
    # it is out of vocabulary and does not move the vector.
    events = []  # (timestamp seconds, level, text)
    span = days * DAY
    for f in range(families):
        birth = int(f * (span - life) / families)
        core = [words[int(i)] for i in rng.choice(vocab, size=10, replace=False)]
        variants = [core[6:8], core[6:7] + core[8:9], core[7:9], core[9:10] + core[7:8]]
        for v, sec in zip(rng.permutation([0, 0, 0, 1, 1, 2, 3]), rng.integers(birth, birth + life, size=7)):
            a, b = variants[v]
            text = " ".join(core[:3] + [a] + core[3:6] + [b])
            events.append((int(sec), "ERROR", f"{text} req {int(rng.integers(10**6)):06d}"))
    n_err = len(events)
    n_fallback = n_err // 100
    for k in range(n_fallback):
        # Only out-of-vocabulary tokens: the word-vector provider falls back to e0.
        sec = int((k + rng.random()) * span / n_fallback)
        events.append((sec, "ERROR", f"0x{int(rng.integers(16**6)):06x} {int(rng.integers(10**5)):05d} --"))
    for sec in rng.integers(0, span, size=n_err // 10):
        events.append((int(sec), "WARN", f"retry budget {words[int(rng.integers(vocab))]} low"))
    events.sort(key=lambda e: e[0])

    log = work / "events.jsonl"
    records = []
    with log.open("w", encoding="utf-8") as fh:
        for k, (sec, level, text) in enumerate(events):
            ts = T0 + timedelta(seconds=sec)
            rid = f"e{k}"
            fh.write(json.dumps({"id": rid, "timestamp": ts.strftime("%Y-%m-%dT%H:%M:%SZ"),
                                 "level": level, "text": text}) + "\n")
            if level == "ERROR":
                records.append({"id": rid, "ts": int(ts.timestamp()), "text": text})
    config = {
        "input": str(log),
        "format": "jsonl",
        "level_filter": ["ERROR"],
        "batch": {"mode": "FIXED_WINDOW", "window_days": window_h / 24},
        "provider": {"kind": "word_vectors", "path": str(vec_path)},
        "params": {"theta": 0.05, "staleness_days": staleness_days},
    }
    return {"config": config, "records": records, "window_s": window_h * 3600,
            "staleness_s": staleness_days * DAY, "rep": "centroid"}


_GENERATORS = {"hdfs_few": _hdfs_few, "drift_many": _drift_many, "hdfs_levenshtein": _hdfs_levenshtein}
WORKLOADS = tuple(_GENERATORS)


def generate(name: str, seed: int, work: Path, smoke: bool = False) -> dict:
    """Write the inputs and config of one workload; return its manifest."""
    work.mkdir(parents=True, exist_ok=True)
    # The workload name enters the seed so the three inputs differ for one --seed.
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    manifest = _GENERATORS[name](work, rng, **SIZES[name]["smoke" if smoke else "full"])
    manifest["config"]["output_dir"] = str(work / "out")
    manifest["batch_counts"] = _batch_counts(manifest)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(manifest["config"], indent=1), encoding="utf-8")
    manifest["config_path"] = str(config_path)
    return manifest


def _batch_counts(manifest: dict) -> list[int]:
    """Records per fixed window, anchored at midnight UTC of the first record."""
    stamps = [r["ts"] for r in manifest["records"]]
    anchor = min(stamps) - min(stamps) % DAY
    last = (max(stamps) - anchor) // manifest["window_s"]
    counts = [0] * (last + 1)
    for ts in stamps:
        counts[(ts - anchor) // manifest["window_s"]] += 1
    return counts
