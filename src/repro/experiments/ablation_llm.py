"""§5.2.3 ablation — LLM choice (GPT-4 vs GPT-3.5 vs GPT-4o capability profiles).

Rebuilt on the batched multi-backend protocol: all capability profiles live
in one routed :class:`~repro.llm.BackendPool`, and each profile's generator
stamps its routing tag on every request.  The profile × driver matrix runs
in (profile, driver) order on the evaluation context's engine, so its memo
and store serve every cell.
"""

from __future__ import annotations

from ..core import KernelGPT
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


def run_ablation_llm(
    ctx: EvaluationContext,
    *,
    drivers: tuple[str, ...] | None = None,
) -> TableResult:
    """Same drivers, different analyst capability profiles."""
    config = ctx.config
    labels = tuple(config.llm_backends or DEFAULT_PROFILES)
    names = (drivers or TABLE5_DRIVER_NAMES)[: config.ablation_drivers]
    handlers = [ctx.kernel.record_for_name(name).handler_name for name in names]

    pool = build_profile_pool(labels, schedule=config.pool_schedule)
    runs = {
        label: KernelGPT(
            ctx.kernel, pool, extractor=ctx.extractor, engine=ctx.engine, backend_route=label
        ).generate_for_handlers(handlers)
        for label in labels
    }

    table = TableResult(
        title="Ablation: LLM choice",
        headers=["Model", "# Syscalls", "# Types", "Cov"],
    )
    for label in labels:
        total_sys = total_types = 0
        total_cov = 0.0
        for result in runs[label].results.values():
            if not result.valid or not len(result.suite):
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
    "build_profile_pool",
    "PROFILE_FACTORIES",
    "DEFAULT_PROFILES",
]
