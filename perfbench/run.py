"""The repository's benchmark: one workload per invocation, fresh processes.

Run from the repository root:

    python3 perfbench/run.py --workload offline_direct_b64 --seed 1 \
        --seconds 10 --trace 0

Workloads (``perfbench/workloads.py``; ``BENCHMARK.json`` lists the
declared ones and why each was chosen):

* ``offline_direct_b64`` -- ``DeployableNetwork.forward``, fp32, direct
  coding, T=2, batch 64, called back to back.
* ``sim_rate_int4`` -- ``HybridSimulator.run`` on the Table II rate arm:
  int4, rate coding, T=12, batch 64, dense core gated off.
* ``serve_open`` -- ``InferenceServer`` (max_batch 8, max_wait 2 ms)
  under an open-loop generator: a fixed 100 rps, then a geometric ladder
  from 200 rps (x1.12 per rung) for capacity.
* ``eval_pooled`` -- ``sharded_forward`` over 256 images in 128-image
  shards on the default worker pool. Not declared: its spread between
  fresh processes exceeds every bound the benchmark may set.

End-to-end metrics (``--trace 0``), all measured with tracing off:

* ``setup_s`` -- fresh process start to the first checked result
  (build, convert, plan lowering, calibration and cost probes, warm-up,
  server or pool start), median over the run's :data:`PROCESSES`.
* ``images_per_s`` -- images per call over the median call time; for
  ``serve_open``, the throughput at full batches (64 requests kept in
  flight for 3 s; one image per request): in each process the median
  over windows of 200 answers, then the mean over the run's
  :data:`PROCESSES`, which all run this phase.
* ``latency_p50_ms`` -- median call time; for ``serve_open``, the median
  request latency at 100 rps, timed from each request's scheduled send.
* ``peak_rss_mb`` -- peak resident memory of the measuring process or
  any worker it reaped.

Printed and recorded, but not in the result line, because their spread
between runs on a shared 2-core host exceeds any bound the benchmark may
set: the tail -- ``call_tail_ms``, the highest percentile with ten
calls beyond it, and for ``serve_open`` ``serve_p99_ms``, the median
over 1000-request windows of each window's p99 at 100 rps -- and
``serve_capacity_rps``, the highest rung of the ladder whose p99 stays
within 50 ms with nothing refused, timed out or failed and the
generator on schedule.

Failures (output mismatches, exceptions, and at the fixed rate refusals
and timeouts) are counted in the result line's ``failed`` against
``attempted``. Every output of every timed call is checked.

``--trace 1`` runs one untraced and one traced measuring process. The
per-layer metrics come from spans recorded around calls into each
layer's public functions (``perfbench/tracing.py``), per timed call (per
request at the fixed rate for ``serve_open``); ``trace.overhead.*`` is
traced minus untraced for each end-to-end metric.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``. The full record -- environment, exact counts (spike
densities, ``LayerCounters`` totals, simulated latency and energy,
server/pool/retry stats), per-call samples, the ladder -- is written to
``.perfbench_out/``. Inputs come from ``--seed``; the model's weights
are fixed. A claim made on the seeds of a comparison must be re-checked on seed
``RECHECK_SEED`` (``perfbench/envinfo.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from statistics import mean, median
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
#: Names of ``perfbench.workloads.WORKLOADS``, repeated here because this
#: parent process never imports the program.
WORKLOADS =("offline_direct_b64", "sim_rate_int4", "serve_open", "eval_pooled")

#: Fresh processes whose set-up is timed in an untraced run. On
#: ``serve_open`` each also measures full-batch throughput, which
#: differs more between processes than within one.
PROCESSES = {"serve_open": 5}
DEFAULT_PROCESSES = 3
#: Wall-clock budget of one invocation, all processes included.
BUDGET_S = 175.0


class ChildFailed(RuntimeError):
    pass


def run_child(
    workload: str, seed: int, seconds: float, mode: str, trace: bool,
    deadline: float,
) -> Tuple[float, dict]:
    """Run one fresh process; returns (set-up seconds, its last message)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Temp files the program makes (shard images, spilled pool state)
    # stay inside the checkout.
    env["TMPDIR"] = os.path.join(OUT, "tmp")
    command = [
        sys.executable, "-m", "perfbench.child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode, "--out", OUT,
    ] + (["--trace"] if trace else [])
    began = time.perf_counter()
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), child.kill)
    watchdog.start()
    setup_s: Optional[float] = None
    last: dict = {}
    try:
        for line in child.stdout:
            if not line.startswith("{"):
                continue  # anything the program itself printed
            message = json.loads(line)
            if "ready" in message and setup_s is None:
                setup_s = time.perf_counter() - began
            last = message
    finally:
        child.stdout.close()
        code = child.wait()
        watchdog.cancel()
    if code != 0 or setup_s is None or (mode == "measure" and "result" not in last):
        raise ChildFailed(f"{workload} {mode} process exited with code {code}")
    return setup_s, last


def declared_metrics() -> Tuple[Dict[str, str], Dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def summary_lines(
    workload: str, seed: int, result: dict, setups: List[float], rates: List[float]
) -> List[str]:
    """Human-readable lines, using the metric names of the issue that
    defined the benchmark where they differ from the result line's.
    ``rates`` are the full-batch throughputs of every process that
    measured one."""
    e2e, detail = result["e2e"], result["detail"]
    lines = [
        f"{workload} seed {seed}: setup_s {median(setups):.3f} s "
        f"(median of {len(setups)}: {', '.join(f'{s:.3f}' for s in setups)})",
        f"  peak_rss_mb {e2e['peak_rss_mb']:.1f} MB",
    ]
    if workload == "serve_open":
        fixed = detail["fixed_rate"]
        lines += [
            f"  serve_p50_ms {e2e['latency_p50_ms']:.3f} ms, serve_p99_ms "
            f"{e2e['latency_tail_ms']:.3f} ms (median of {detail['fixed_rate_windows']} windows) over {fixed['offered']} requests "
            f"at {fixed['rate_rps']:.0f} rps (lag p99 {fixed['lag_p99_ms']:.3f} ms)",
            f"  images_per_s {mean(rates):.2f} at full batches (mean of "
            f"{len(rates)} processes: {', '.join(f'{r:.2f}' for r in rates)})",
            f"  serve_capacity_rps {detail['capacity_rps'] or 0.0:.2f} (rung "
            f"{detail['capacity_rung_rps'] or 0.0:.0f} rps; tries: "
            + ", ".join(
                f"{r['rate_rps']:.0f}:p99={r['p99_ms']:.1f}/ref={r['refused']}"
                for r in detail["ladder"]
            ) + ")",
        ]
    else:
        lines.append(
            f"  images_per_s {e2e['images_per_s']:.2f} img/s, p50 "
            f"{e2e['latency_p50_ms']:.3f} ms, call_tail_ms "
            f"{e2e['latency_tail_ms']:.3f} ms (p{detail['tail_percentile']:.1f} "
            f"of {detail['calls']} calls)"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_metrics()
    deadline = time.monotonic() + BUDGET_S
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)

    def child(mode: str, trace: bool) -> Tuple[float, dict]:
        return run_child(args.workload, args.seed, args.seconds, mode, trace, deadline)

    try:
        if args.trace:
            probed = []
            runs = [child("measure", False), child("measure", True)]
        else:
            processes = PROCESSES.get(args.workload, DEFAULT_PROCESSES)
            probed = [child("setup", False) for _ in range(processes - 1)]
            runs = [child("measure", False)]
        setups = [s for s, _ in probed] + [runs[0][0]]
    except (ChildFailed, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    results = [message["result"] for _, message in runs]
    probes = [message["probe"] for _, message in probed if "probe" in message]
    rates = [p["images_per_s"] for p in probes] + [results[0]["e2e"]["images_per_s"]]
    main_result = results[-1]
    correct = (
        all(r["setup_ok"] and r["mismatched"] == 0 for r in results)
        and all(message["setup_ok"] for _, message in probed)
        and all(p["mismatched"] == 0 for p in probes)
    )
    if args.trace:
        untraced = dict(results[0]["e2e"], setup_s=runs[0][0])
        traced = dict(results[1]["e2e"], setup_s=runs[1][0])
        computed = dict(main_result["per_layer"])
        for name in e2e_units:
            computed[f"trace.overhead.{name}"] = traced[name] - untraced[name]
        units = layer_units
    else:
        computed = dict(
            main_result["e2e"], setup_s=median(setups), images_per_s=mean(rates)
        )
        units = e2e_units
    missing = sorted(set(units) - set(computed))
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_s_samples": setups,
        "probes": probes,
        "computed": computed,
        "results": results,
    }
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for line in summary_lines(args.workload, args.seed, results[0], setups, rates):
        print(line)
    if args.trace:
        for name, value in computed.items():
            unit = units.get(name) or main_result["per_layer_units"].get(name, "")
            print(f"  {name} {value:.6g} {unit}")
    attempted = sum(r["attempted"] for r in results + probes)
    failed = sum(r["failed"] for r in results + probes)
    print(f"  error_rate {failed}/{attempted}")
    print(f"  record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": computed[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
