"""One measured `logevo run`, in the fresh interpreter that run.py starts.

    python3 perfbench/child.py SRC_DIR CONFIG [SPANS_OUT]

Times the import of ``logevo.cli`` (set-up) and the call of
``logevo.cli.main(["run", "--config", CONFIG])``, then prints one JSON line:
``setup_s``, ``run_s``, ``rc``, ``peak_rss_mb`` and, when SPANS_OUT is given,
the per-layer metrics of a traced run. SPANS_OUT then receives every span.
"""

import json
import os
import sys
import time


def peak_rss_mb() -> float:
    """High-water resident set of this process since its exec, from VmHWM.

    ru_maxrss is not used: Linux carries it over from the parent at exec, so
    a child of a large parent would report the parent's size.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    src, config = sys.argv[1], sys.argv[2]
    spans_out = sys.argv[3] if len(sys.argv) > 3 else None
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import logevo.cli
    setup_s = time.perf_counter() - t0

    if not os.path.realpath(logevo.cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"logevo imported from {logevo.cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if spans_out:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    t0 = time.perf_counter()
    rc = logevo.cli.main(["run", "--config", config])
    run_s = time.perf_counter() - t0

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "rc": rc,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        with open(config, encoding="utf-8") as fh:
            out_dir = json.load(fh)["output_dir"]
        layers["pipeline.output_bytes"] = sum(
            os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)
        )
        result["layers"] = layers
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
