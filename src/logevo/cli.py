"""Command-line entry point."""

from __future__ import annotations

import argparse
import sys

from .errors import LogevoError
from .pipeline import _BATCH_SHORTHAND, check_config, read_json, run, sweep

_PARAM_FLAGS = ("theta", "alpha", "gamma", "staleness_days")
_CONFIG_FLAGS = ("batch", "weights", "algorithm", "representative", "output_dir")


def _number(text: str) -> float | str:
    try:
        return float(text)
    except ValueError:
        return text  # the config check names it


def _add_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--theta", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--gamma", type=int)
    parser.add_argument("--staleness-days", type=float)
    parser.add_argument("--batch", choices=sorted(_BATCH_SHORTHAND))
    parser.add_argument("--weights", type=lambda text: [_number(w) for w in text.split(",")],
                        help="comma-separated wS,wR,wC")
    parser.add_argument("--algo", dest="algorithm", choices=["online", "gmm"])
    parser.add_argument("--rep", dest="representative", choices=["centroid", "levenshtein"])
    parser.add_argument("--output-dir")


def _apply_overrides(doc, args: argparse.Namespace):
    """Merge the flags that are set into a config document; the check comes after."""
    if not isinstance(doc, dict):
        return doc  # the check rejects it
    flags = {k: v for k, v in vars(args).items() if v is not None}
    doc.update((k, flags[k]) for k in _CONFIG_FLAGS if k in flags)
    params = {k: flags[k] for k in _PARAM_FLAGS if k in flags}
    if params and isinstance(doc.get("params", {}), dict):
        doc["params"] = {**doc.get("params", {}), **params}
    return doc


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
        config = check_config(_apply_overrides(read_json(args.config, "config"), args))
        if args.command == "run":
            report = run(config)
            print(
                f"lce={report['score']['lce']:.4f} "
                f"S={report['score']['S']:.4f} "
                f"R={report['score']['R']:.4f} "
                f"C={report['score']['C']:.4f}"
            )
        else:
            rows = sweep(config, read_json(args.grid, "grid"))
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
