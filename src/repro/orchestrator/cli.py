"""``kernelgpt-repro campaign`` — DAG-scheduled runs of the evaluation.

The campaign subcommand is the orchestrated face of the flat runner: the
same experiments, the same presets and executors, but scheduled as a
dependency DAG with retry budgets, quality gates, and a structured event
log.  Rendered tables print to stdout in the flat runner's deterministic
experiment order and byte-for-byte format, so ``campaign --preset quick``
diffs clean against ``kernelgpt-repro --preset quick`` — stdout stays the
contract; progress, verdicts and the summary go to stderr and the event
log.

With ``--store DIR``, completed tasks are recorded under their canonical
input digests; a second run against the same store re-executes only tasks
whose digests changed (``task_reused`` events name the clean ones).  With
``--events FILE``, the full schema'd JSONL log is appended there for CI to
assert on instead of scraping stdout.
"""

from __future__ import annotations

import sys

from ..engine import ExecutionEngine
from ..errors import CampaignError
from ..experiments.flags import build_parser, config_from_args
from ..store import ArtifactStore
from .events import EventLog
from .plan import build_campaign_plan
from .scheduler import CampaignScheduler


def _progress(record: dict) -> None:
    """One concise stderr line per interesting event."""
    kind = record["type"]
    if kind == "task_started":
        print(f"[campaign] {record['task_id']} started (attempt {record['attempt']})",
              file=sys.stderr)
    elif kind == "task_reused":
        print(f"[campaign] {record['task_id']} reused (digest {record['digest'][:12]})",
              file=sys.stderr)
    elif kind == "task_finished":
        duration = record.get("duration", 0.0)
        print(f"[campaign] {record['task_id']} finished in {duration:.1f}s",
              file=sys.stderr)
    elif kind == "task_retried":
        print(f"[campaign] {record['task_id']} retrying after: {record['error']}",
              file=sys.stderr)
    elif kind in ("task_failed", "task_skipped"):
        detail = record.get("error") or f"blocked on {record.get('blocked_on')}"
        print(f"[campaign] {record['task_id']} {kind.split('_', 1)[1]}: {detail}",
              file=sys.stderr)
    elif kind in ("gate_passed", "gate_failed"):
        verdict = "pass" if kind == "gate_passed" else "FAIL"
        print(f"[campaign] gate {record['gate']}: {verdict} — {record['detail']}",
              file=sys.stderr)


def campaign_main(argv: list[str] | None = None) -> int:
    from ..experiments.runner import EXPERIMENTS, print_report

    args = build_parser("campaign").parse_args(argv)
    wanted = args.experiment or ["all"]
    names = sorted(EXPERIMENTS) if "all" in wanted else sorted(set(wanted))
    plan = build_campaign_plan(
        config_from_args(args),
        experiments=names,
        retries=args.retries,
        gates=not args.no_gates,
        store=str(args.store) if args.store is not None else None,
        bench_dir=str(args.bench) if args.bench is not None else None,
        fuzz_budget=args.fuzz_budget,
    )
    store = ArtifactStore(args.store) if args.store is not None else None
    engine = ExecutionEngine(jobs=args.jobs, kind=args.executor)
    events = EventLog(args.events, mirror=_progress)
    try:
        result = CampaignScheduler(plan, engine, store=store, events=events).run()
    finally:
        events.close()

    for name in names:
        outcome = result.outcomes.get(f"report:{name}")
        if outcome is not None:
            print_report(outcome.output, args.output)

    return exit_status(result, f"[campaign] {len(plan)} task(s)", "campaign")


def exit_status(result, summary: str, label: str) -> int:
    """Print a campaign's run summary to stderr; 1 on a failed task or gate, else 0."""
    print(
        f"{summary}: {result.executed} executed, {result.reused} reused, "
        f"{len(result.failures)} failed, {len(result.skipped)} skipped in {result.wall:.1f}s",
        file=sys.stderr,
    )
    try:
        result.raise_for_status()
    except CampaignError as error:
        print(f"{label} failed: {error}", file=sys.stderr)
        return 1
    return 0


__all__ = ["campaign_main", "exit_status"]
