"""Output checks, computed apart from the program.

``Oracle`` replays one workload once per invocation: it reads the records
through the program's parser, embeds them with the program's public
embedding functions, and then replays the published online rule with expiry
in plain Python. ``Oracle.check`` compares one run's output directory with
that replay and with the generator's manifest, and returns what differs.
``digest`` fingerprints a run's outputs, timings excluded, for the
determinism check across runs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

SIL_TOL = 1e-9
SCORE_TOL = 1e-12


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance by the full DP table, row by row."""
    if len(a) < len(b):
        a, b = b, a
    row = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        diag, row[0] = row[0], i
        ca = a[i - 1]
        for j in range(1, len(b) + 1):
            above = row[j]
            row[j] = min(above + 1, row[j - 1] + 1, diag + (ca != b[j - 1]))
            diag = above
    return row[-1]


def silhouette(vectors: np.ndarray, labels: list[int]) -> float | None:
    """Cosine silhouette of unit vectors from per-cluster sums (n x k, not n x n).

    For unit vectors the summed cosine distance from x_i to the members of L
    is |L| - x_i . S_L, with S_L the sum of L's members. Singletons score 0.
    """
    n = len(labels)
    if n < 2 or len(set(labels)) < 2:
        return None
    ids = sorted(set(labels))
    col = {cid: k for k, cid in enumerate(ids)}
    lab = np.array([col[c] for c in labels])
    sums = np.zeros((len(ids), vectors.shape[1]))
    np.add.at(sums, lab, vectors)
    counts = np.bincount(lab, minlength=len(ids)).astype(float)
    dots = vectors @ sums.T  # n x k
    self_dot = np.einsum("ij,ij->i", vectors, vectors)
    total = 0.0
    for i in range(n):
        own = lab[i]
        if counts[own] == 1:
            continue
        a = (counts[own] - 1 - (dots[i, own] - self_dot[i])) / (counts[own] - 1)
        others = [(counts[k] - dots[i, k]) / counts[k] for k in range(len(ids)) if k != own]
        b = min(others)
        denom = max(a, b)
        total += 0.0 if denom == 0 else (b - a) / denom
    return total / n


def digest(out_dir: Path) -> str:
    """Hash of report.json without timings, metrics.csv, clusters.jsonl and state.json."""
    h = hashlib.sha256()
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    report.pop("timings", None)
    h.update(json.dumps(report, sort_keys=True).encode())
    for name in ("metrics.csv", "clusters.jsonl", "state.json"):
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


class Oracle:
    def __init__(self, manifest: dict, src: str):
        sys.path.insert(0, src)
        from logevo.pipeline import RunConfig, embed_records, ingest
        from logevo.textnorm import load_stopwords, normalize

        self.manifest = manifest
        self.problems: list[str] = []
        config = RunConfig.from_file(manifest["config_path"])
        records, _ = ingest(config)
        self.records = records
        self._check_parse(records)

        provider = config.resolved_provider()
        vectors = np.array(embed_records(config, records, provider))
        norms = np.linalg.norm(vectors, axis=1)
        if np.abs(norms - 1.0).max() > 1e-9:
            self.problems.append(f"embedding: a vector has norm {norms[np.argmax(np.abs(norms - 1))]!r}")
        self.vectors = vectors
        stopwords = load_stopwords(config.stopwords_path)
        tokens = [normalize(r.scrubbed_text, stopwords=stopwords).tokens for r in records]
        e0 = np.zeros(vectors.shape[1])
        e0[0] = 1.0
        self.facts = {
            "error_records": len(records),
            "distinct_token_share": round(len(set(tokens)) / len(tokens), 4),
            "fallback_records": int(np.all(vectors == e0, axis=1).sum()),
        }
        params = config.params
        self.theta = float(params.get("theta", 0.05))
        self.alpha = float(params.get("alpha", 0.1))
        self.gamma = int(params.get("gamma", 100))
        self.cap = int(params.get("reservoir_cap", 512))
        self._replay()

    # -- parse --------------------------------------------------------------

    def _check_parse(self, records) -> None:
        expected = self.manifest["records"]
        if len(records) != len(expected):
            self.problems.append(f"parse: {len(records)} records, generator wrote {len(expected)}")
            return
        for rec, exp in zip(records, expected):
            if (rec.id, int(rec.timestamp.timestamp()), rec.raw_text) != (exp["id"], exp["ts"], exp["text"]):
                self.problems.append(f"parse: record {rec.id} differs from generated {exp['id']}")
                return

    # -- replay of the online rule with expiry at each batch start ----------

    def _replay(self) -> None:
        m = self.manifest
        window, staleness = m["window_s"], m["staleness_s"]
        stamps = [r["ts"] for r in m["records"]]
        anchor = min(stamps) - min(stamps) % 86400
        by_batch: list[list[int]] = [[] for _ in m["batch_counts"]]
        for i, ts in enumerate(stamps):
            by_batch[(ts - anchor) // window].append(i)

        cen: list[np.ndarray] = []
        size: list[int] = []
        last: list[int] = []
        active: list[bool] = []
        members: list[list[int]] = []  # newest `cap` record indices per cluster
        self.batches = []
        max_active = 0
        for b, idx in enumerate(by_batch):
            start = anchor + b * window
            expired = [c for c in range(len(cen)) if active[c] and last[c] < start - staleness]
            for c in expired:
                active[c] = False
            labels = []
            for i in idx:
                p = self.vectors[i]
                best, best_dist = None, math.inf
                for c in range(len(cen)):
                    if not active[c]:
                        continue
                    dist = 1.0 - float(np.dot(cen[c], p) / (np.linalg.norm(cen[c]) * np.linalg.norm(p)))
                    if dist < best_dist:
                        best, best_dist = c, dist
                if best is not None and best_dist <= self.theta:
                    n = size[best]
                    if n >= self.gamma:
                        cen[best] = (1.0 - self.alpha) * cen[best] + self.alpha * p
                    else:
                        cen[best] = (n / (n + 1)) * cen[best] + (1.0 / (n + 1)) * p
                    size[best] += 1
                    last[best] = stamps[i]
                    members[best] = (members[best] + [i])[-self.cap:]
                    labels.append(best)
                else:
                    cen.append(np.array(p, dtype=float))
                    size.append(1)
                    last.append(stamps[i])
                    active.append(True)
                    members.append([i])
                    labels.append(len(cen) - 1)
            nr = sum(active)
            max_active = max(max_active, nr)
            self.batches.append({
                "nr_clust": nr,
                "expired": expired,
                "silhouette": silhouette(self.vectors[idx], labels) if idx else None,
            })
        self.sizes, self.active, self.members = size, active, members
        self.facts.update(batches=len(by_batch), clusters_opened=len(cen), active_max=max_active)

    # -- one run's outputs ----------------------------------------------------

    def check(self, out_dir: Path) -> list[str]:
        problems = list(self.problems)
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        state = json.loads((out_dir / "state.json").read_text(encoding="utf-8"))
        m = self.manifest

        if report["parse"]["records"] != len(m["records"]):
            problems.append(f"parse: report counts {report['parse']['records']} records, "
                            f"generator wrote {len(m['records'])}")
        got_counts = [b["n_records"] for b in report["batches"]]
        if got_counts != m["batch_counts"]:
            problems.append(f"parse: batch sizes {got_counts[:8]}... differ from {m['batch_counts'][:8]}...")
            return problems

        for b, (got, want) in enumerate(zip(report["batches"], self.batches)):
            if got["nr_clust"] != want["nr_clust"] or got["expired"] != want["expired"]:
                problems.append(f"census: batch {b} has nr_clust={got['nr_clust']} expired={got['expired'][:5]}, "
                                f"replay {want['nr_clust']} {want['expired'][:5]}")
                break
            s_got, s_want = got["silhouette_raw"], want["silhouette"]
            if (s_got is None) != (s_want is None) or (
                    s_want is not None and abs(s_got - s_want) > SIL_TOL):
                problems.append(f"silhouette: batch {b} reads {s_got}, replay gives {s_want}")
                break
        with (out_dir / "metrics.csv").open(newline="") as fh:
            rows = sum(1 for _ in csv.reader(fh)) - 1
        if rows != len(self.batches):
            problems.append(f"metrics.csv: {rows} rows for {len(self.batches)} batches")
        got_sizes = {c["id"]: c["len"] for c in state["clusters"]}
        want_sizes = dict(enumerate(self.sizes))
        if got_sizes != want_sizes:
            problems.append(f"census: state.json holds {len(got_sizes)} clusters, replay {len(want_sizes)}, "
                            "or their sizes differ")

        problems += self._check_scores(report)
        problems += self._check_representatives(out_dir, state)
        return problems

    def _check_scores(self, report: dict) -> list[str]:
        sils = [b["silhouette_raw"] for b in report["batches"] if b["silhouette_raw"] is not None]
        counts = [b["nr_clust"] for b in report["batches"]]
        S = sum((s + 1.0) / 2.0 for s in sils) / len(sils)
        terms = [0.0 if p == c == 0 else abs(c - p) / max(c, p) for p, c in zip(counts, counts[1:])]
        C = 1.0 - sum(terms) / len(terms)
        score = report["score"]
        wS, wR, wC = score["weights"]
        lce = wS * S + wR * score["R"] + wC * C
        out = []
        for name, want in (("S", S), ("C", C), ("lce", lce)):
            if abs(score[name] - want) > SCORE_TOL:
                out.append(f"scores: {name}={score[name]!r}, re-derived {want!r}")
        for name in ("S", "R", "C", "lce"):
            if not 0.0 <= score[name] <= 1.0:
                out.append(f"scores: {name}={score[name]!r} outside [0, 1]")
        return out

    def _check_representatives(self, out_dir: Path, state: dict) -> list[str]:
        last_index = len(self.manifest["batch_counts"]) - 1
        reps = {}
        with (out_dir / "clusters.jsonl").open(encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                if row["batch_index"] == last_index:
                    reps[row["id"]] = row["representative"]
        want_ids = {c for c, on in enumerate(self.active) if on}
        if set(reps) != want_ids:
            return [f"representatives: last batch has {len(reps)} clusters, replay {len(want_ids)} active"]
        text = {r.id: r.scrubbed_text for r in self.records}
        clusters = {c["id"]: c for c in state["clusters"]}
        out = []
        for cid, rep_text in sorted(reps.items()):
            c = clusters[cid]
            want_members = [self.records[i].id for i in self.members[cid]]
            if c["reservoir_ids"] != want_members:
                out.append(f"representatives: cluster {cid} reservoir differs from the replay")
                continue
            strings = [text[rid] for rid in c["reservoir_ids"]]
            if self.manifest["rep"] == "levenshtein":
                score = [sum(edit_distance(s, t) for t in strings) for s in strings]
                best = min(score)
            else:
                cen = np.array(c["cen"])
                vecs = np.array(c["reservoir_vectors"])
                score = list(vecs @ cen / (np.linalg.norm(vecs, axis=1) * np.linalg.norm(cen)))
                best = max(score)
            if not any(abs(s - best) <= 1e-12 for s, t in zip(score, strings) if t == rep_text):
                out.append(f"representatives: cluster {cid} representative is not the best member")
        return out

