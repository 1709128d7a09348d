"""Traced runs of every workload, written out with their per-layer metrics.

    python3 perfbench/trace.py [--seed 1] [--out DIR]

For every workload, at full size, untraced and traced runs alternate
(three untraced, two traced), the outputs are checked, and DIR/<workload>.json
receives the workload's facts, the end-to-end medians of the untraced runs, the
per-layer medians of the traced runs and every span of the last traced run
as [name, start, end, parent index]. A table of the layer metrics goes to
standard output. The default DIR is perfbench/work/traces.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import SRC, WORK, WORKLOADS, end_to_end, measure, per_layer  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=WORK / "traces")
    args = parser.parse_args(argv)
    if not (SRC / "logevo" / "cli.py").is_file():
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2

    args.out.mkdir(parents=True, exist_ok=True)
    table: dict[str, dict] = {}
    ok = True
    for workload in WORKLOADS:
        m = measure(workload, args.seed, 0.0, trace=True)
        for line in m["problems"] + m["errors"][:1]:
            print(f"{workload}: {line}", file=sys.stderr)
        if not (m["correct"] and m["plain"] and m["traced"]):
            ok = False
            continue
        layers = {k: v["value"] for k, v in per_layer(m).items()}
        layers["clustering.batches"] = m["traced"][-1]["layers"]["clustering.batches"]
        doc = {
            "workload": workload,
            "seed": args.seed,
            "facts": m["facts"],
            "end_to_end": {k: v["value"] for k, v in end_to_end(m).items()},
            "layers": layers,
            "spans": json.loads(m["spans"].read_text(encoding="utf-8")),
        }
        (args.out / f"{workload}.json").write_text(json.dumps(doc), encoding="utf-8")
        table[workload] = dict(doc["end_to_end"], **layers)

    names = list(table)
    print(f"{'metric':40s}" + "".join(f"{n:>18s}" for n in names))
    for key in next(iter(table.values()), {}):
        print(f"{key:40s}" + "".join(f"{table[n][key]:18.4g}" for n in names))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
