"""Benchmark of `logevo run` on three generated workloads.

    python3 perfbench/run.py --workload hdfs_few --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout: the program is imported from
``src/``. Each measured run is a fresh interpreter (child.py) that imports
``logevo.cli`` and calls ``main(["run", "--config", ...])`` on inputs made
from ``--seed``. Runs repeat, one at a time, until ``--seconds`` is used up;
the outputs are then checked against an independent replay (checks.py).

The last line of standard output is one JSON object. With ``--trace 0`` its
metrics are the end-to-end medians over the untraced runs; with ``--trace 1``
untraced and traced runs alternate and the metrics are the per-layer medians
over the traced runs. Every batch of every run is one operation; a run that
exits with an error counts all its batches as failed.

``--smoke`` runs every workload at a tiny size, once untraced and once
traced, with all checks, and exits 0 only if every check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
sys.path.insert(0, str(HERE))

from checks import Oracle, digest  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

CHILD_TIMEOUT_S = 90
MIN_RUNS = 3

# The metric names, units and run length are those of the contract, BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def child_env() -> dict:
    """The measured process: one BLAS thread, fixed hash seed, no inherited PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def run_child(config_path: str, spans_out: Path | None = None) -> tuple[dict | None, str]:
    """One `logevo run` in a fresh interpreter; (result, error text)."""
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), config_path]
    if spans_out is not None:
        cmd.append(str(spans_out))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"run exceeded {CHILD_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr.strip()[-500:]
    result = json.loads(lines[-1])
    if result["rc"] != 0:
        return None, proc.stderr.strip()[-500:]
    return result, ""


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Generate one workload, run it repeatedly for `seconds`, check the outputs."""
    work = WORK / (f"smoke-{workload}" if smoke else workload)
    manifest = generate(workload, seed, work, smoke=smoke)
    config_path = manifest["config_path"]
    out_dir = Path(manifest["config"]["output_dir"])
    n_batches = len(manifest["batch_counts"])
    checked = work / "checked"  # outputs of the first successful run
    shutil.rmtree(checked, ignore_errors=True)

    # Compile the sources to bytecode and warm the file cache before timing.
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import logevo.cli"],
                   env=child_env(), cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)

    plain: list[dict] = []
    traced: list[dict] = []
    digests: set[str] = set()
    errors: list[str] = []
    runs = failed_runs = 0
    wall: list[float] = []
    t_start = time.perf_counter()
    while True:
        plain_turn = not trace or len(plain) <= len(traced)
        enough = len(plain) >= (1 if smoke else MIN_RUNS) and (not trace or len(traced) >= 1)
        est = statistics.median(wall) if wall else 0.0
        if time.perf_counter() - t_start + est > seconds and (enough or failed_runs):
            break
        t0 = time.perf_counter()
        spans = work / "spans.json" if not plain_turn else None
        result, error = run_child(config_path, spans)
        wall.append(time.perf_counter() - t0)
        runs += 1
        if result is None:
            failed_runs += 1
            errors.append(error)
            continue
        (plain if plain_turn else traced).append(result)
        digests.add(digest(out_dir))
        if not checked.exists():  # a later run that fails may leave partial outputs
            shutil.copytree(out_dir, checked)

    problems: list[str] = []
    if plain or traced:
        oracle = Oracle(manifest, str(SRC))
        problems += oracle.check(checked)
        facts = dict(oracle.facts, lines=Path(manifest["config"]["input"]).read_bytes().count(b"\n"))
    else:
        facts = {}
    if len(digests) > 1:
        problems.append(f"determinism: {len(digests)} different outputs over {len(plain) + len(traced)} runs")
    return {
        "workload": workload, "seed": seed, "manifest": manifest, "facts": facts,
        "plain": plain, "traced": traced, "problems": problems, "errors": errors,
        "correct": not problems and bool(plain or traced),
        "attempted": runs * n_batches, "failed": failed_runs * n_batches,
        "spans": work / "spans.json",
    }


def end_to_end(m: dict) -> dict:
    med = {k: statistics.median(r[k] for r in m["plain"]) for k in ("setup_s", "run_s", "peak_rss_mb")}
    med["records_per_s"] = len(m["manifest"]["records"]) / med["run_s"]
    return {k: {"value": med[k], "unit": u} for k, u in END_TO_END_UNITS.items()}


def per_layer(m: dict) -> dict:
    layers = {k: statistics.median(r["layers"][k] for r in m["traced"]) for k in LAYER_UNITS
              if k != "trace.overhead_s"}
    layers["trace.overhead_s"] = (statistics.median(r["run_s"] for r in m["traced"])
                                  - statistics.median(r["run_s"] for r in m["plain"]))
    return {k: {"value": layers[k], "unit": u} for k, u in LAYER_UNITS.items()}


def smoke(seed: int) -> int:
    ok = True
    for workload in WORKLOADS:
        m = measure(workload, seed, 0.0, trace=True, smoke=True)
        layers = per_layer(m) if m["traced"] else {}
        status = "ok" if m["correct"] and not m["failed"] else "FAILED"
        ok &= status == "ok"
        print(f"{workload}: {status} attempted={m['attempted']} failed={m['failed']} "
              f"facts={json.dumps(m['facts'], sort_keys=True)} layers={len(layers)}")
        for line in m["problems"] + [f"run failed: {e}" for e in m["errors"][:1]]:
            print(f"  {line}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, checks only")
    args = parser.parse_args(argv)

    if not (SRC / "logevo" / "cli.py").is_file():
        print(f"no program sources under {SRC}; run from the root of a logevo checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required")

    m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in m["problems"]:
        print(f"check: {problem}", file=sys.stderr)
    for error in m["errors"][:1]:
        print(f"run failed ({len(m['errors'])} of {len(m['errors']) + len(m['plain']) + len(m['traced'])}): "
              f"{error}", file=sys.stderr)
    if not (m["plain"] and (m["traced"] or not args.trace)):
        print("no run succeeded", file=sys.stderr)
        return 1
    print(f"facts: {json.dumps(m['facts'], sort_keys=True)} runs: {len(m['plain'])} plain, "
          f"{len(m['traced'])} traced", file=sys.stderr)
    metrics = per_layer(m) if args.trace else end_to_end(m)
    print(json.dumps({"correct": m["correct"], "attempted": m["attempted"], "failed": m["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
