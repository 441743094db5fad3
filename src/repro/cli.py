"""Command-line interface (``snn-hybrid``).

Subcommands:

* ``info``        -- package, device and preset summary
* ``train``       -- train one (dataset, scheme, coding) model into the cache
* ``evaluate``    -- accuracy + spike statistics of a cached model
* ``simulate``    -- run a cached model on a hardware configuration
* ``partition``   -- derive a balanced NC allocation from measured workloads
* ``experiment``  -- regenerate paper tables/figures (fig1 table1 fig4
                     table2 table3 | all), optionally writing EXPERIMENTS.md
* ``serve``       -- online inference serving with dynamic batching:
                     stand up an InferenceServer on a cached model,
                     replay a synthetic request load against it and
                     report latency percentiles + admission accounting
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.version import __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snn-hybrid",
        description=(
            "Reproduction of the DATE 2025 hybrid SNN event-driven "
            "architecture paper"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def worker_count(value: str) -> int:
        try:
            count = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {value!r}")
        if count < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
        return count

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scale", default="small", help="tiny | small | paper")
        p.add_argument("--workspace", default="artifacts")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--encoder-seed",
            type=int,
            default=None,
            metavar="N",
            help=(
                "base seed of the counter-based stochastic encoding "
                "streams (rate coding); default: derived from --seed. "
                "Every (sample, timestep) draw is a pure function of "
                "(this seed, global sample index, timestep), so results "
                "are identical at any shard/worker geometry"
            ),
        )
        p.add_argument("--quiet", action="store_true")
        p.add_argument(
            "--workers",
            type=worker_count,
            default=None,
            metavar="N",
            help=(
                "worker processes for sharded evaluation and sweep cells "
                "(default: REPRO_WORKERS env var, then cpu count; 1 = serial)"
            ),
        )
        cache = p.add_mutually_exclusive_group()
        cache.add_argument(
            "--eval-cache",
            dest="eval_cache",
            action="store_true",
            default=None,
            help=(
                "persist test-set evaluations as .eval.json entries in the "
                "workspace and reuse them across runs/workers (default: on, "
                "governed by REPRO_EVAL_CACHE)"
            ),
        )
        cache.add_argument(
            "--no-eval-cache",
            dest="eval_cache",
            action="store_false",
            help="disable the disk-backed evaluation cache for this run",
        )
        p.add_argument(
            "--retries",
            type=worker_count,
            default=None,
            metavar="N",
            help=(
                "total attempts per shard before a worker-killing task "
                "is quarantined as poison (self-healing retry; 1 = fail "
                "on the first crash, no retry). Default: "
                "REPRO_RETRY_MAX_ATTEMPTS env var, then 3"
            ),
        )
        p.add_argument(
            "--on-shard-failure",
            choices=["raise", "skip"],
            default=None,
            metavar="MODE",
            help=(
                "what to do when a shard is quarantined as poison after "
                "all retries: raise (default) fails the run; skip "
                "degrades -- surviving shards are merged, the failure "
                "is recorded, and the degraded result is never cached. "
                "Default: REPRO_ON_SHARD_FAILURE env var, then raise"
            ),
        )

    sub.add_parser("info", help="package / device / preset summary")

    train = sub.add_parser("train", help="train one model into the cache")
    add_common(train)
    train.add_argument("dataset", choices=["svhn", "cifar10", "cifar100"])
    train.add_argument("--scheme", default="int4", help="fp32 | int4 | int8")
    train.add_argument("--coding", default="direct", choices=["direct", "rate"])

    evaluate = sub.add_parser("evaluate", help="accuracy + spike stats")
    add_common(evaluate)
    evaluate.add_argument("dataset", choices=["svhn", "cifar10", "cifar100"])
    evaluate.add_argument("--scheme", default="int4")
    evaluate.add_argument("--coding", default="direct", choices=["direct", "rate"])

    simulate = sub.add_parser("simulate", help="hardware simulation")
    add_common(simulate)
    simulate.add_argument("dataset", choices=["svhn", "cifar10", "cifar100"])
    simulate.add_argument("--scheme", default="int4")
    simulate.add_argument("--coding", default="direct", choices=["direct", "rate"])
    simulate.add_argument(
        "--config", default="lw", help="lw | perf2 | perf4"
    )

    partition = sub.add_parser(
        "partition", help="derive a balanced NC allocation"
    )
    add_common(partition)
    partition.add_argument("dataset", choices=["svhn", "cifar10", "cifar100"])
    partition.add_argument("--scheme", default="int4")
    partition.add_argument("--budget", type=int, default=60)

    experiment = sub.add_parser(
        "experiment", help="regenerate paper tables/figures"
    )
    add_common(experiment)
    experiment.add_argument(
        "which",
        choices=["fig1", "table1", "fig4", "table2", "table3", "all"],
    )
    experiment.add_argument(
        "--write-md",
        metavar="PATH",
        default=None,
        help="write EXPERIMENTS.md-style output to PATH (only with 'all')",
    )

    serve = sub.add_parser(
        "serve",
        help="online inference serving with dynamic batching",
        description=(
            "Stand up an InferenceServer on a cached model (training it "
            "first if the cache is cold), replay a synthetic load "
            "against it, then drain gracefully and print latency "
            "percentiles plus admission accounting. Served logits are "
            "byte-identical to offline evaluation of the same samples."
        ),
    )
    add_common(serve)
    serve.add_argument("dataset", choices=["svhn", "cifar10", "cifar100"])
    serve.add_argument("--scheme", default="int4", help="fp32 | int4 | int8")
    serve.add_argument("--coding", default="direct", choices=["direct", "rate"])
    serve.add_argument(
        "--max-batch",
        type=int,
        default=None,
        metavar="N",
        help=(
            "most requests one dynamic batch may coalesce "
            "(default: REPRO_SERVE_MAX_BATCH, then 8)"
        ),
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "longest the batcher holds the oldest request open for "
            "companions (default: REPRO_SERVE_MAX_WAIT_MS, then 2)"
        ),
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        metavar="N",
        help=(
            "bounded per-model queue; admissions beyond it are rejected "
            "(default: REPRO_SERVE_QUEUE_DEPTH, then 64)"
        ),
    )
    serve.add_argument(
        "--timeout-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "per-request deadline from admission; 0 disables "
            "(default: REPRO_SERVE_TIMEOUT_MS, then 1000)"
        ),
    )
    serve.add_argument(
        "--drain-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "graceful-drain budget at shutdown "
            "(default: REPRO_SERVE_DRAIN_MS, then 2000)"
        ),
    )
    serve.add_argument(
        "--mode",
        choices=["open", "closed"],
        default="open",
        help=(
            "load shape: open = fixed arrival rate regardless of server "
            "health (exercises admission control); closed = each client "
            "waits for its previous response"
        ),
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=20.0,
        metavar="RPS",
        help="open-loop offered arrival rate, requests/second",
    )
    serve.add_argument(
        "--requests",
        type=int,
        default=32,
        metavar="N",
        help="total requests to replay",
    )
    serve.add_argument(
        "--clients",
        type=int,
        default=4,
        metavar="N",
        help="closed-loop client count (requests are split across them)",
    )

    lint = sub.add_parser(
        "lint",
        help="static invariant checker (determinism, worker safety, "
        "typed errors, registry drift)",
        description=(
            "AST-based checks that the runtime's invariants hold "
            "statically: no ambient RNG or wall-clock reads outside "
            "blessed modules, no mutable module state reachable from "
            "pool workers, no swallowed or untyped errors in the "
            "resilience layers, and no REPRO_* env var or CLI flag "
            "missing from the configuration registry. See "
            "docs/LINTING.md."
        ),
    )
    from repro.analysis import add_lint_arguments

    add_lint_arguments(lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "info":
        return _cmd_info()
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "evaluate":
        return _cmd_evaluate(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "partition":
        return _cmd_partition(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "lint":
        from repro.analysis import run_lint_from_args

        return run_lint_from_args(args)
    return 1  # pragma: no cover - argparse enforces choices


def _make_context(args):
    import os

    from repro.experiments.context import ExperimentContext
    from repro.experiments.config import EVAL_CACHE_ENV

    if getattr(args, "workers", None) is not None:
        # Process-scoped: every parallel entry point resolves through
        # REPRO_WORKERS (see repro.parallel.config).
        os.environ["REPRO_WORKERS"] = str(args.workers)
    eval_cache = getattr(args, "eval_cache", None)
    if eval_cache is not None:
        # Exported so worker processes (which resolve the env default
        # when a spec carries no explicit setting) agree with the flag.
        os.environ[EVAL_CACHE_ENV] = "1" if eval_cache else "0"
    if getattr(args, "retries", None) is not None:
        # Process-scoped like --workers: sharded_forward resolves its
        # default RetryPolicy from REPRO_RETRY_MAX_ATTEMPTS.
        from repro.parallel.config import RETRY_MAX_ATTEMPTS_ENV

        os.environ[RETRY_MAX_ATTEMPTS_ENV] = str(args.retries)
    if getattr(args, "on_shard_failure", None) is not None:
        from repro.parallel.config import ON_SHARD_FAILURE_ENV

        os.environ[ON_SHARD_FAILURE_ENV] = args.on_shard_failure
    return ExperimentContext(
        scale=args.scale,
        workspace=args.workspace,
        seed=args.seed,
        verbose=not args.quiet,
        eval_cache=eval_cache,
        encoder_seed=getattr(args, "encoder_seed", None),
    )


def _cmd_info() -> int:
    from repro.experiments.presets import PRESETS
    from repro.hw.device import XCVU13P

    print(f"repro {__version__}")
    print(
        f"device {XCVU13P.name}: {XCVU13P.luts} LUT, {XCVU13P.ffs} FF, "
        f"{XCVU13P.bram36} BRAM36, {XCVU13P.uram} URAM"
    )
    for preset in PRESETS.values():
        print(
            f"preset {preset.name}: {preset.image_size}x{preset.image_size}, "
            f"channels x{preset.channel_scale}, {preset.epochs} epochs"
        )
    return 0


def _cmd_train(args) -> int:
    ctx = _make_context(args)
    model = ctx.trained(args.dataset, args.scheme, args.coding)
    print(model.describe())
    print(f"cached at {ctx.model_path(ctx.model_key(args.dataset, args.scheme, args.coding))}")
    return 0


def _cmd_evaluate(args) -> int:
    ctx = _make_context(args)
    result = ctx.evaluate(args.dataset, args.scheme, args.coding)
    print(
        f"{args.dataset} {args.scheme} {args.coding}: "
        f"accuracy {result.accuracy * 100:.2f}%, "
        f"{result.spikes_per_image:.0f} spikes/image over {result.samples} images"
    )
    for layer, spikes in sorted(result.per_layer_spikes.items()):
        print(f"  {layer}: {spikes:.1f} spikes/image")
    return 0


def _cmd_simulate(args) -> int:
    from repro.baselines.rate_coded import rate_coded_config
    from repro.hw.config import lw_config, perf_config
    from repro.hw.simulator import HybridSimulator
    from repro.quant.schemes import scheme_by_name
    from repro.snn import make_encoder

    ctx = _make_context(args)
    scheme = scheme_by_name(args.scheme)
    model = ctx.trained(args.dataset, args.scheme, args.coding)
    if args.config == "lw":
        config = lw_config(args.dataset, scheme=scheme)
    else:
        factor = int(args.config.replace("perf", ""))
        config = perf_config(args.dataset, factor, scheme=scheme)
    if args.coding == "rate":
        config = rate_coded_config(config)
    images, labels = ctx.sim_images(args.dataset)
    encoder_seed = (
        args.encoder_seed if args.encoder_seed is not None else args.seed + 7
    )
    encoder = make_encoder(args.coding, seed=encoder_seed)
    report = HybridSimulator(model, config).run(
        images, ctx.timesteps_for(args.coding), encoder, labels
    )
    print(report.summary())
    return 0


def _cmd_partition(args) -> int:
    from repro.workload.model import workloads_from_network
    from repro.workload.partition import (
        balanced_allocation,
        proportional_allocation,
    )

    ctx = _make_context(args)
    model = ctx.trained(args.dataset, args.scheme)
    evaluation = ctx.evaluate(args.dataset, args.scheme)
    workloads = workloads_from_network(
        model,
        evaluation.input_events_per_image,
        ctx.timesteps_for("direct"),
    )
    lw = proportional_allocation(workloads)
    balanced = balanced_allocation(workloads, args.budget)
    print(f"workloads ({args.dataset}, {args.scheme}):")
    for wl in workloads:
        print(f"  {wl.name:<10s} {wl.kind:<6s} work {wl.work:,.0f}")
    print(f"LW (proportional):   {lw.allocation}  imbalance {lw.imbalance:.2f}")
    print(
        f"balanced (budget {args.budget}): {balanced.allocation}  "
        f"imbalance {balanced.imbalance:.2f}"
    )
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments.runall import RUNNERS, render_experiments_md, run_all

    ctx = _make_context(args)
    if args.which == "all":
        results = run_all(ctx)
        for result in results:
            print(result.render())
            print()
        if args.write_md:
            with open(args.write_md, "w", encoding="utf-8") as handle:
                handle.write(render_experiments_md(results, ctx))
            print(f"wrote {args.write_md}")
    else:
        result = RUNNERS[args.which](ctx)
        print(result.render())
    return 0


def _cmd_serve(args) -> int:
    import os

    from repro.serving import (
        InferenceServer,
        resolve_serve_config,
        run_closed_loop,
        run_open_loop,
    )
    from repro.snn import make_encoder

    ctx = _make_context(args)
    model = ctx.trained(args.dataset, args.scheme, args.coding)
    images, _labels = ctx.sim_images(args.dataset)
    encoder_seed = (
        args.encoder_seed if args.encoder_seed is not None else args.seed + 7
    )
    encoder = make_encoder(args.coding, seed=encoder_seed)
    model_path = ctx.model_path(
        ctx.model_key(args.dataset, args.scheme, args.coding)
    )
    config = resolve_serve_config(
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        queue_depth=args.queue_depth,
        timeout_ms=args.timeout_ms,
        drain_ms=args.drain_ms,
    )
    name = f"{args.dataset}-{args.scheme}-{args.coding}"
    server = InferenceServer(config)
    server.register(
        name,
        model,
        ctx.timesteps_for(args.coding),
        encoder=encoder,
        model_path=model_path if os.path.exists(model_path) else None,
        workers=args.workers,
    )
    if not args.quiet:
        print(
            f"serving {name}: max_batch={config.max_batch} "
            f"max_wait={config.max_wait_ms:g}ms "
            f"queue_depth={config.queue_depth} "
            f"timeout={config.timeout_ms:g}ms"
        )
    try:
        if args.mode == "open":
            report = run_open_loop(
                server, name, images, rate_rps=args.rate, count=args.requests
            )
        else:
            per_client = max(1, args.requests // max(1, args.clients))
            report = run_closed_loop(
                server, name, images,
                clients=args.clients,
                requests_per_client=per_client,
            )
        drained = server.drain()
    finally:
        server.shutdown()
    summary = report.as_dict()
    print(
        f"{name}: offered {summary['offered']} "
        f"({args.mode} loop), completed {summary['completed']}, "
        f"rejected {summary['rejected']}, timed out {summary['timed_out']}"
    )
    print(
        f"latency p50 {summary['p50_ms']:.1f} ms, "
        f"p99 {summary['p99_ms']:.1f} ms, "
        f"throughput {summary['achieved_rps']:.1f} req/s, "
        f"mean batch {summary['mean_batch']:.2f}"
    )
    print(f"drained {'cleanly' if drained else 'with work abandoned'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
