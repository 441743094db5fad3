"""Run every experiment and render an EXPERIMENTS.md document."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.experiments import fig1, fig4, table1, table2, table3
from repro.experiments.base import ExperimentResult
from repro.experiments.context import ExperimentContext
from repro.parallel import effective_workers, run_tasks, workers_override

RUNNERS: Dict[str, Callable[[ExperimentContext], ExperimentResult]] = {
    "fig1": fig1.run,
    "table1": table1.run,
    "fig4": fig4.run,
    "table2": table2.run,
    "table3": table3.run,
}


def _experiment_cell(spec: Dict) -> ExperimentResult:
    """One experiment harness, worker-process entry point.

    Each worker builds its own context against the shared workspace;
    whatever models fig1 already trained are picked up from the disk
    cache, anything extra an experiment needs (e.g. table2's rate-coded
    arm) is trained deterministically in the worker.
    """
    ctx = ExperimentContext(
        scale=spec["scale"],
        workspace=spec["workspace"],
        seed=spec["seed"],
        verbose=spec["verbose"],
        eval_cache=spec.get("eval_cache"),
        encoder_seed=spec.get("encoder_seed"),
    )
    return RUNNERS[spec["which"]](ctx)


def run_all(
    ctx: ExperimentContext, workers: Optional[int] = None
) -> List[ExperimentResult]:
    """All experiments, in paper order (fig1 first trains every model).

    With more than one resolved worker, fig1 runs first (its cells are
    themselves pooled, and it populates the shared model *and*
    evaluation caches -- every ``.eval.json`` its cells write is a
    test-set evaluation the farmed harnesses load instead of redoing),
    then the remaining four independent harnesses are farmed out;
    results always come back in paper order. ``REPRO_WORKERS=1``
    reproduces the sequential shared-context path exactly.
    """
    rest = [name for name in RUNNERS if name != "fig1"]
    if effective_workers(workers, payload_count=len(rest)) <= 1:
        # Pin the whole pass to one worker so the nested entry points
        # (fig1's cells, evaluate's sharding) stay sequential too --
        # run_all(workers=1) means *sequential*, not 'serial here but
        # pooled inside'.
        with workers_override(1):
            return [runner(ctx) for runner in RUNNERS.values()]
    if workers is not None:
        # An explicit cap binds the nested entry points too (fig1's own
        # cell pool, evaluate's sharding), not just the harness fan-out.
        with workers_override(workers):
            first = fig1.run(ctx)
    else:
        first = fig1.run(ctx)
    specs = [
        {
            "which": name,
            "scale": ctx.preset.name,
            "workspace": ctx.workspace,
            "seed": ctx.seed,
            "verbose": ctx.verbose,
            "eval_cache": ctx.eval_cache,
            "encoder_seed": ctx.encoder_seed,
        }
        for name in rest
    ]
    results = run_tasks(_experiment_cell, specs, workers=workers)
    ordered = {"fig1": first}
    ordered.update(dict(zip(rest, results)))
    return [ordered[name] for name in RUNNERS]


def render_experiments_md(
    results: List[ExperimentResult], ctx: ExperimentContext
) -> str:
    """EXPERIMENTS.md body: header + one section per experiment."""
    header = [
        "# EXPERIMENTS -- paper vs measured",
        "",
        "Reproduction of every table and figure of *Exploring the "
        "Sparsity-Quantization Interplay on a Novel Hybrid SNN "
        "Event-Driven Architecture* (DATE 2025).",
        "",
        f"- scale preset: **{ctx.preset.name}** "
        f"({ctx.preset.image_size}x{ctx.preset.image_size} frames, "
        f"channel scale {ctx.preset.channel_scale})",
        f"- master seed: {ctx.seed}",
        "- datasets are deterministic synthetic stand-ins "
        "(see DESIGN.md section 1); hardware numbers come from the "
        "calibrated simulator, not an FPGA",
        "- the reproduction target is the *shape* of each result "
        "(who wins, by roughly what factor); absolute values differ "
        "by construction",
        "",
    ]
    body = [result.render() for result in results]
    return "\n".join(header) + "\n" + "\n\n".join(body) + "\n"
