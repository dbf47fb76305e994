"""§5.2.3 ablation — LLM choice (GPT-4 vs GPT-3.5 vs GPT-4o capability profiles).

Rebuilt on the batched multi-backend protocol: all capability profiles live
in one routed :class:`~repro.llm.BackendPool`, each profile's generator
stamps its routing tag on every request, and the whole profile × driver
matrix is submitted to the evaluation engine as **one** task batch — a
single engine-sharded run (``kernelgpt-repro --experiment ablation_llm
--jobs 4``) instead of one sequential generator run per model.  Results are
aggregated in (profile, driver) submission order, so the rendered table is
byte-identical to the historical sequential implementation at any jobs
level or executor kind.
"""

from __future__ import annotations

from ..core import KernelGPT
from ..core.tasks import GenerationTask, merge_outcome_side_effects, run_generation_task
from ..engine import POOL_PAYLOAD, TaskSpec
from ..fuzzer import average_coverage, run_repeated_campaigns
from ..kernel import TABLE5_DRIVER_NAMES
from ..llm import PROFILE_FACTORIES, BackendPool, backend_for_profile
from .context import EvaluationContext
from .reporting import TableResult

#: The paper's §5.2.3 line-up, in table order.
DEFAULT_PROFILES = ("gpt-4", "gpt-4o", "gpt-3.5")


def build_profile_pool(labels: tuple[str, ...], *, schedule: str = "tagged") -> BackendPool:
    """A pool with one member backend per requested capability profile.

    ``schedule`` picks the untagged-request placement policy (the ablation
    itself tags every request with its profile label, so the scheduler only
    matters for callers that reuse the pool without routing tags).
    """
    members = {label: backend_for_profile(label) for label in labels}
    return BackendPool(members, schedule=schedule)


def run_routed_generation_task(
    generators: dict[str, KernelGPT],
    label: str,
    task: GenerationTask,
    engine=None,
    *,
    collect_side_effects: bool = False,
):
    """One (profile, driver) cell of the ablation matrix.

    Module-level so it pickles by name; ``generators`` arrives as the
    batch's shared payload (one pickle per worker, not per task — all the
    profile generators share the kernel, extractor and pool).
    """
    return run_generation_task(
        generators[label], task, engine, collect_side_effects=collect_side_effects
    )


def run_ablation_llm(
    ctx: EvaluationContext,
    *,
    drivers: tuple[str, ...] | None = None,
) -> TableResult:
    """Same drivers, different analyst capability profiles, one sharded run."""
    config = ctx.config
    labels = tuple(config.llm_backends or DEFAULT_PROFILES)
    names = (drivers or TABLE5_DRIVER_NAMES)[: config.ablation_drivers]
    handlers = [ctx.kernel.record_for_name(name).handler_name for name in names]

    pool = build_profile_pool(labels, schedule=config.pool_schedule)
    generators = {
        label: KernelGPT(ctx.kernel, pool, extractor=ctx.extractor, backend_route=label)
        for label in labels
    }

    engine = ctx.engine
    shared = engine.shares_memory
    pairs = [(label, handler) for label in labels for handler in handlers]
    specs = [
        TaskSpec(
            key=f"{label}:{handler}",
            fn=run_routed_generation_task,
            args=(POOL_PAYLOAD, label, GenerationTask(handler), engine if shared else None),
            kwargs=None if shared else {"collect_side_effects": True},
        )
        for label, handler in pairs
    ]
    outcomes = [
        result.value
        for result in engine.run_tasks("ablation-llm", specs, payload=generators)
    ]
    if not shared:
        # Every generator shares the one pool backend, so all worker-side
        # usage merges into the pool's request-level meter at join.
        merge_outcome_side_effects(pool, outcomes)
    results_by_label: dict[str, list] = {label: [] for label in labels}
    for (label, _handler), outcome in zip(pairs, outcomes):
        results_by_label[label].append(outcome.result)

    table = TableResult(
        title="Ablation: LLM choice",
        headers=["Model", "# Syscalls", "# Types", "Cov"],
    )
    for label in labels:
        total_sys = total_types = 0
        total_cov = 0.0
        for result in results_by_label[label]:
            if result is None or not result.valid or not len(result.suite):
                continue
            total_sys += result.syscall_count
            total_types += result.type_count
            campaigns = run_repeated_campaigns(
                ctx.kernel, result.suite,
                repetitions=1,
                budget_programs=config.per_driver_budget,
                base_seed=config.seed,
            )
            total_cov += average_coverage(campaigns)
        table.add_row(label, total_sys, total_types, round(total_cov))
    table.add_note("paper: GPT-4 143 syscalls / 54,640 cov; GPT-4o 144 / 55,771; "
                   "GPT-3.5 85 syscalls (-40%), coverage -21%")
    return table


__all__ = [
    "run_ablation_llm",
    "run_routed_generation_task",
    "build_profile_pool",
    "PROFILE_FACTORIES",
    "DEFAULT_PROFILES",
]
