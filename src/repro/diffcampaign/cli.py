"""``kernelgpt-repro diff`` — differential campaigns across config cells.

The diff subcommand runs one sub-DAG per named config preset through the
campaign scheduler and prints, in deterministic order, each cell's report
followed by the three cross-config diff reports (coverage, bugs, validity).
stdout is the contract — byte-identical across ``--jobs``/``--executor``
choices and across cold vs warm stores (determinism rule 12); progress and
the run summary go to stderr and the event log.

With ``--store DIR``, the config-invariant prefix (``generate`` →
``validate``) and any unchanged cells are served as ``task_reused`` on a
warm run, so adding a config to ``--configs`` re-executes only the new
cell and the terminal diffs.  The combined diff report is additionally
recorded under a ``diff-report`` store key.  ``config_cell_planned`` /
``config_cell_finished`` events bracket each cell in the event log.
"""

from __future__ import annotations

from ..engine import ExecutionEngine
from ..experiments.flags import build_parser, config_from_args
from ..experiments.runner import print_report
from ..kconfig import config_preset
from ..orchestrator.cli import _progress, exit_status
from ..orchestrator.events import EventLog
from ..orchestrator.plan import CAMPAIGN_SCHEMA
from ..orchestrator.scheduler import CampaignScheduler
from ..store import ArtifactStore
from ..store.keys import StoreKey
from .plan import DIFF_ASPECTS, build_diff_plan, cell_report_id, diff_task_id

# Handler registration for the coordinating process; workers self-register
# via the scheduler's EXTENSION_HANDLER_MODULES table.
from . import tasks as _tasks  # noqa: F401


def diff_report_key(cells: list[str], digests: list[str]) -> StoreKey:
    """Store key of the combined diff report for one cell set."""
    parts = [CAMPAIGN_SCHEMA]
    for cell, digest in zip(cells, digests):
        parts.append(cell)
        parts.append(digest)
    return StoreKey("diff-report", tuple(parts))


def diff_main(argv: list[str] | None = None) -> int:
    args = build_parser("diff").parse_args(argv)
    names = sorted({name.strip() for name in args.configs.split(",") if name.strip()})
    presets = [config_preset(name) for name in names]
    plan = build_diff_plan(
        config_from_args(args), presets, retries=args.retries, fuzz_budget=args.fuzz_budget
    )
    store = ArtifactStore(args.store) if args.store is not None else None
    engine = ExecutionEngine(jobs=args.jobs, kind=args.executor)
    events = EventLog(args.events, mirror=_progress)
    try:
        for preset in presets:
            events.emit(
                "config_cell_planned", cell=preset.name, config_digest=preset.digest()
            )
        result = CampaignScheduler(plan, engine, store=store, events=events).run()
        for preset in presets:
            outcome = result.outcomes.get(cell_report_id(preset.name))
            if outcome is not None:
                events.emit(
                    "config_cell_finished",
                    cell=preset.name,
                    config_digest=preset.digest(),
                    output_digest=outcome.output_digest,
                )
    finally:
        events.close()

    reports = [(f"cell-{name}", cell_report_id(name)) for name in names]
    reports += [(f"diff-{aspect}", diff_task_id(aspect)) for aspect in DIFF_ASPECTS]
    for name, task_id in reports:
        outcome = result.outcomes.get(task_id)
        if outcome is not None:
            print_report({"experiment": name, "text": outcome.output["text"]}, args.output)

    if store is not None and all(
        diff_task_id(aspect) in result.outcomes for aspect in DIFF_ASPECTS
    ):
        combined = {
            "cells": names,
            "config_digests": [preset.digest() for preset in presets],
            "aspects": {
                aspect: result.outcomes[diff_task_id(aspect)].output
                for aspect in DIFF_ASPECTS
            },
        }
        key = diff_report_key(names, combined["config_digests"])
        if key not in store:
            store.save(key, combined)

    return exit_status(result, f"[diff] {len(names)} cell(s), {len(plan)} task(s)", "diff campaign")


__all__ = ["diff_main", "diff_report_key"]
