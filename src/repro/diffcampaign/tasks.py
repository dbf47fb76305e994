"""Task handlers for differential-campaign cells and cross-config diffs.

Importing this module registers three handler kinds into the scheduler's
:data:`~repro.orchestrator.scheduler.TASK_HANDLERS` registry — the
scheduler's ``EXTENSION_HANDLER_MODULES`` table points process-pool workers
here, so a payload of kind ``cell_fuzz`` / ``cell_report`` / ``diff``
self-registers wherever it lands.

Cell outputs are canonical-JSON dicts (sorted label/bug lists, counts,
digests) — the same store/pickle contract as the built-in campaign kinds,
so cells cache, reuse and cross process boundaries byte-identically.  The
terminal diff handlers are pure functions of their upstream cell reports:
no context, no kernel, just set algebra over the recorded labels.
"""

from __future__ import annotations

from ..errors import CampaignPlanError
from ..kconfig import config_preset, prune_coverage_space
from ..kernel.coverage import CoverageBitmap
from ..orchestrator.scheduler import TASK_HANDLERS, TaskPayload
from .plan import cell_fuzz_id


def _loaded_handlers(kernel, preset) -> set[str]:
    """Handler names (fops/proto_ops variables) the cell's config loads."""
    return {
        record.handler_name
        for record in kernel.loaded_records(preset.kernel_config())
    }


def _run_cell_fuzz(payload: TaskPayload) -> dict:
    """Fuzz one config cell: loaded handlers only, config-pruned coverage.

    The merged Syzkaller+KernelGPT corpus is filtered to the handlers the
    cell's config loads, fuzzed with the shared seed/budget, and the
    resulting coverage is re-projected onto the cell's pruned space — so the
    recorded ``space_digest`` pins which config the labels mean, and bitmaps
    rebuilt from two different cells refuse to mix.
    """
    from ..fuzzer import run_campaign
    from ..syzlang import SpecCorpus

    params = payload.params_dict()
    cell = params["cell"]
    preset = config_preset(cell)
    ctx = payload.context()
    kernel = ctx.kernel
    loaded = _loaded_handlers(kernel, preset)
    merged = ctx.syzkaller_corpus.merge_corpus(ctx.kernelgpt_corpus())
    corpus = SpecCorpus(f"cell-{cell}")
    for handler, suite in merged:
        if handler in loaded:
            corpus.add(handler, suite)
    campaign = run_campaign(
        kernel, corpus.flatten(f"cell-{cell}"), ctx.config.seed, params["budget"]
    )
    space = prune_coverage_space(kernel, preset)
    bitmap = CoverageBitmap.from_labels(space, sorted(campaign.coverage.labels()))
    return {
        "cell": cell,
        "config_digest": params["config_digest"],
        "space_digest": space.digest,
        "space_size": space.size,
        "handlers": len(corpus),
        "programs": campaign.executed_programs,
        "calls": campaign.executed_calls,
        "coverage": sorted(bitmap.labels()),
        "extras": sorted(bitmap.extras),
        "bugs": sorted(set(campaign.crash_log.bug_ids())),
    }


def _run_cell_report(payload: TaskPayload) -> dict:
    """Render one cell: fuzz outcome plus the cell's spec-validity slice."""
    params = payload.params_dict()
    cell = params["cell"]
    preset = config_preset(cell)
    ctx = payload.context()
    fuzz = payload.upstream_dict()[cell_fuzz_id(cell)]
    loaded = _loaded_handlers(ctx.kernel, preset)
    run = ctx.generation_run
    targeted = sorted(handler for handler in run.results if handler in loaded)
    valid = sum(1 for handler in targeted if run.results[handler].valid)
    covered = len(fuzz["coverage"])
    lines = [
        f"Config cell {cell} (config {fuzz['config_digest'][:12]})",
        f"  coverage space: {fuzz['space_size']} blocks "
        f"(digest {fuzz['space_digest'][:12]})",
        f"  fuzz: {fuzz['programs']} programs, {fuzz['calls']} calls, "
        f"{covered} blocks covered, {len(fuzz['bugs'])} unique bugs",
        f"  specs: {valid}/{len(targeted)} generated suites valid "
        f"for loaded handlers",
    ]
    return {
        "cell": cell,
        "config_digest": fuzz["config_digest"],
        "space_digest": fuzz["space_digest"],
        "space_size": fuzz["space_size"],
        "coverage": fuzz["coverage"],
        "bugs": fuzz["bugs"],
        "generated": len(targeted),
        "valid": valid,
        "text": "\n".join(lines),
    }


def _percent(valid: int, generated: int) -> float:
    return round(100.0 * valid / generated, 1) if generated else 0.0


def _diff_coverage(cells: list[dict]) -> dict:
    covered = {cell["cell"]: set(cell["coverage"]) for cell in cells}
    shared = set.intersection(*covered.values())
    unique = {
        name: sorted(labels - set.union(*(covered[other] for other in covered if other != name)))
        for name, labels in covered.items()
    }
    lines = [f"Differential coverage over {len(cells)} config cells"]
    lines.append(f"  shared baseline: {len(shared)} blocks covered in every cell")
    for cell in cells:
        name = cell["cell"]
        lines.append(
            f"  {name}: {len(covered[name])} covered in a "
            f"{cell['space_size']}-block space, {len(unique[name])} unique"
        )
    return {
        "shared": len(shared),
        "unique": {name: len(labels) for name, labels in unique.items()},
        "text": "\n".join(lines),
    }


def _diff_bugs(cells: list[dict]) -> dict:
    found = {cell["cell"]: set(cell["bugs"]) for cell in cells}
    shared = sorted(set.intersection(*found.values()))
    unique = {
        name: sorted(bugs - set.union(*(found[other] for other in found if other != name)))
        for name, bugs in found.items()
    }
    lines = [f"Differential bugs over {len(cells)} config cells"]
    lines.append(f"  shared: {', '.join(shared) if shared else '(none)'}")
    for cell in cells:
        name = cell["cell"]
        only = unique[name]
        lines.append(
            f"  {name}: {len(found[name])} bugs, {len(only)} unique"
            + (f" ({', '.join(only)})" if only else "")
        )
    return {
        "shared": shared,
        "unique": unique,
        "text": "\n".join(lines),
    }


def _diff_validity(cells: list[dict]) -> dict:
    rows = []
    baseline = _percent(cells[0]["valid"], cells[0]["generated"])
    lines = [f"Spec validity by config cell (delta vs {cells[0]['cell']})"]
    for cell in cells:
        rate = _percent(cell["valid"], cell["generated"])
        delta = round(rate - baseline, 1)
        rows.append(
            {
                "cell": cell["cell"],
                "valid": cell["valid"],
                "generated": cell["generated"],
                "rate": rate,
                "delta": delta,
            }
        )
        lines.append(
            f"  {cell['cell']}: {cell['valid']}/{cell['generated']} valid "
            f"({rate:.1f}%, {delta:+.1f} pts)"
        )
    return {"rows": rows, "text": "\n".join(lines)}


_DIFF_ASPECTS = {
    "coverage": _diff_coverage,
    "bugs": _diff_bugs,
    "validity": _diff_validity,
}


def _run_diff(payload: TaskPayload) -> dict:
    """One cross-config comparison aspect over every cell report."""
    aspect = payload.params_dict()["aspect"]
    render = _DIFF_ASPECTS.get(aspect)
    if render is None:
        raise CampaignPlanError(
            f"unknown diff aspect {aspect!r}; valid: {sorted(_DIFF_ASPECTS)}"
        )
    cells = sorted(payload.upstream_dict().values(), key=lambda cell: cell["cell"])
    result = render(cells)
    return {"aspect": aspect, "cells": [cell["cell"] for cell in cells], **result}


#: Imported-for-effect registration: the scheduler dispatches these kinds
#: here (see EXTENSION_HANDLER_MODULES).
TASK_HANDLERS.setdefault("cell_fuzz", _run_cell_fuzz)
TASK_HANDLERS.setdefault("cell_report", _run_cell_report)
TASK_HANDLERS.setdefault("diff", _run_diff)


__all__: list[str] = []
