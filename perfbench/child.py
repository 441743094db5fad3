"""One workload in one fresh process; started by ``perfbench/run.py``.

    python3 -m perfbench.child --workload NAME --seed N --seconds S \
        --mode setup|measure [--trace] --out DIR

Writes JSON lines to stdout: ``{"ready": ...}`` as soon as the first
checked result is in (the parent times set-up up to that line), then,
in ``measure`` mode, ``{"result": ...}`` after the timed phase, and in
``setup`` mode ``{"probe": ...}`` when the workload has a ``probe()``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys


def emit(message) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any worker it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from perfbench.tracing import Tracer

        # Installed before set-up so every caller binds the wrappers
        # (the server captures run_batch at registration); spans are
        # recorded only while the tracer is active.
        tracer = Tracer()
        tracer.install()
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    try:
        setup_ok = bool(workload.setup())
        emit({"ready": True, "setup_ok": setup_ok})
        if args.mode == "setup":
            probe = getattr(workload, "probe", None)
            if probe is not None:
                emit({"probe": probe(), "setup_ok": setup_ok})
            return 0
        if tracer is not None:
            tracer.active = True
        measurement = workload.measure(args.seconds)
        if tracer is not None:
            tracer.active = False
        counts = workload.counts()
        serial_ms = (
            workload.serial_ms()
            if tracer is not None and hasattr(workload, "serial_ms")
            else None
        )
    finally:
        workload.close()

    from perfbench.envinfo import environment

    result = {
        "setup_ok": setup_ok,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "mismatched": measurement.mismatched,
        "e2e": {
            "images_per_s": measurement.images_per_s,
            "latency_p50_ms": measurement.latency_p50_ms,
            "latency_tail_ms": measurement.latency_tail_ms,
            "peak_rss_mb": peak_rss_mb(),
        },
        "detail": measurement.detail,
        "counts": counts,
        "environment": environment(),
    }
    if tracer is not None:
        from perfbench.tracing import PER_LAYER_UNITS, per_layer_metrics, span_table

        detail = measurement.detail
        result["per_layer"] = per_layer_metrics(
            tracer.spans,
            measurement,
            service=detail.get("service_stats"),
            retry=detail.get("retry_stats"),
            serial_ms=serial_ms,
            workers=detail.get("workers", 1),
        )
        result["per_layer_units"] = PER_LAYER_UNITS
        result["spans"] = span_table(tracer.spans, measurement.window)
        result["spans_ops"] = measurement.ops
        result["serial_ms"] = serial_ms
        tracer.write(
            os.path.join(args.out, f"{args.workload}-seed{args.seed}.spans.jsonl")
        )
    emit({"result": result})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
