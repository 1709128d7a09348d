"""Command-line entry point."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, LogevoError
from .pipeline import RunConfig, run, sweep


def _add_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--theta", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--gamma", type=int)
    parser.add_argument("--staleness-days", type=float)
    parser.add_argument("--batch", choices=["1d", "5d", "snapshot30d+5d"])
    parser.add_argument("--weights", help="comma-separated wS,wR,wC")
    parser.add_argument("--algo", choices=["online", "gmm"])
    parser.add_argument("--rep", choices=["centroid", "levenshtein"])
    parser.add_argument("--output-dir")


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    params = dict(config.params)
    for key, dest in (("theta", "theta"), ("alpha", "alpha"), ("gamma", "gamma")):
        value = getattr(args, dest)
        if value is not None:
            params[key] = value
    if args.staleness_days is not None:
        params["staleness_days"] = args.staleness_days
    config.params = params
    if args.batch is not None:
        config.batch = args.batch
    if args.weights is not None:
        config.weights = [float(w) for w in args.weights.split(",")]
    if args.algo is not None:
        config.algorithm = args.algo.upper()
    if args.rep is not None:
        config.representative = args.rep.upper()
    if args.output_dir is not None:
        config.output_dir = args.output_dir
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logevo",
        description="Online semantic clustering of error logs with evolution scoring",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute the full pipeline")
    run_p.add_argument("--config", required=True, help="path to a JSON RunConfig")
    _add_overrides(run_p)

    sweep_p = sub.add_parser("sweep", help="grid-sweep theta/alpha/gamma")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--grid", required=True, help="JSON file of value lists")
    _add_overrides(sweep_p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _apply_overrides(RunConfig.from_file(args.config), args)
        if args.command == "run":
            report = run(config)
            print(
                f"lce={report['score']['lce']:.4f} "
                f"S={report['score']['S']:.4f} "
                f"R={report['score']['R']:.4f} "
                f"C={report['score']['C']:.4f}"
            )
        else:
            try:
                grid = json.loads(Path(args.grid).read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON in grid {args.grid}: {exc}") from exc
            rows = sweep(config, grid)
            ok = [r for r in rows if r["status"] == "OK"]
            print(f"sweep: {len(rows)} cells, {len(ok)} ok; results in sweep.csv")
            if ok:
                best = ok[0]
                print(
                    f"best: theta={best['theta']} alpha={best['alpha']} "
                    f"gamma={best['gamma']} lce={best['lce']:.4f}"
                )
    except LogevoError as exc:
        print(f"{exc.cli_class}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"IO: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
