"""§5.2.3 ablation — iterative multi-stage prompting vs. all-in-one prompting."""

from __future__ import annotations

from ..fuzzer import average_coverage, run_repeated_campaigns
from ..kernel import TABLE5_DRIVER_NAMES
from .context import EvaluationContext
from .reporting import TableResult


def run_ablation_iterative(ctx: EvaluationContext, *, drivers: tuple[str, ...] | None = None) -> TableResult:
    """Compare the full pipeline against a single all-in-one prompt per handler."""
    config = ctx.config
    names = (drivers or TABLE5_DRIVER_NAMES)[: config.ablation_drivers]
    table = TableResult(
        title="Ablation: iterative multi-stage vs all-in-one prompting",
        headers=["Driver", "Iterative #Sys", "Iterative #Types", "Iterative Cov",
                 "All-in-one #Sys", "All-in-one #Types", "All-in-one Cov"],
    )
    # The ablation drivers are curated, so an extraction or generation
    # error is a configuration error and propagates.
    handlers = [ctx.kernel.record_for_name(name).handler_name for name in names]
    iterative_results = [ctx.kernelgpt.generate_for_handler(h) for h in handlers]
    all_in_one_results = [ctx.kernelgpt.generate_all_in_one(h) for h in handlers]
    totals = [0, 0, 0.0, 0, 0, 0.0]
    for name, iterative, all_in_one in zip(names, iterative_results, all_in_one_results):
        row = [name]
        for offset, result in ((0, iterative), (3, all_in_one)):
            coverage = 0.0
            if result.valid and len(result.suite):
                campaigns = run_repeated_campaigns(
                    ctx.kernel, result.suite,
                    repetitions=1,
                    budget_programs=config.per_driver_budget,
                    base_seed=config.seed,
                )
                coverage = average_coverage(campaigns)
            row.extend([result.syscall_count, result.type_count, round(coverage)])
            totals[offset] += result.syscall_count
            totals[offset + 1] += result.type_count
            totals[offset + 2] += coverage
        table.add_row(*row)
    table.add_row("Total", totals[0], totals[1], round(totals[2]), totals[3], totals[4], round(totals[5]))
    if totals[3]:
        table.add_note(
            f"iterative / all-in-one ratios: syscalls {totals[0] / max(1, totals[3]):.2f}x, "
            f"types {totals[1] / max(1, totals[4]):.2f}x, coverage {totals[2] / max(1.0, totals[5]):.2f}x "
            "(paper: 1.28x syscalls, 2.37x types, 1.39x coverage)"
        )
    return table


__all__ = ["run_ablation_iterative"]
