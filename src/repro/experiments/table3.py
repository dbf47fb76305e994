"""Table 3 — overall fuzzing effectiveness of the combined suites."""

from __future__ import annotations

from ..fuzzer import average_coverage, average_crashes, run_repeated_campaigns, union_coverage
from .context import EvaluationContext
from .reporting import TableResult


def run_table3(ctx: EvaluationContext) -> TableResult:
    """24-hour-campaign analogue: Syzkaller vs +SyzDescribe vs +KernelGPT."""
    config = ctx.config
    suites = {
        "Syzkaller": ctx.syzkaller_corpus.flatten("syzkaller"),
        "Syzkaller + SyzDescribe": ctx.syzkaller_corpus.merge_corpus(
            ctx.syzdescribe_corpus()
        ).flatten("syzkaller+syzdescribe"),
        "Syzkaller + KernelGPT": ctx.syzkaller_corpus.merge_corpus(
            ctx.kernelgpt_corpus()
        ).flatten("syzkaller+kernelgpt"),
    }

    campaigns = {
        label: run_repeated_campaigns(
            ctx.kernel, suite,
            repetitions=config.repetitions,
            budget_programs=config.overall_budget,
            base_seed=config.seed,
            engine=ctx.engine,
        )
        for label, suite in suites.items()
    }

    baseline_blocks = union_coverage(campaigns["Syzkaller"])
    table = TableResult(
        title="Table 3: overall effectiveness (averages over repetitions)",
        headers=["Configuration", "Cov", "Unique Cov vs Syzkaller", "Crash"],
    )
    for label, runs in campaigns.items():
        unique = "-"
        if label != "Syzkaller":
            # Bitmap difference_count: one AND-NOT popcount, no label sets.
            unique = union_coverage(runs).difference_count(baseline_blocks)
        table.add_row(label, round(average_coverage(runs)), unique, round(average_crashes(runs), 1))
    table.add_note("paper: Syzkaller 204,923 / +SyzDescribe 201,634 (14,585 unique) / "
                   "+KernelGPT 209,673 (20,472 unique); crashes 16.0 / 13.7 / 17.7")
    table.add_note(f"budget: {config.overall_budget} programs x {config.repetitions} repetition(s) per configuration")
    return table


__all__ = ["run_table3"]
