"""Command-line runner that regenerates every table and figure.

``kernelgpt-repro --preset quick`` (installed by the package) runs every
experiment and prints the rendered tables; ``--experiment table5`` runs a
single one; ``--output DIR`` additionally writes one text file per result.

Every experiment is one :func:`run_report_task` — a module-level function
of ``(name, config, store_spec)`` — and the runner dispatches them as a
single engine batch: ``--jobs N`` fans them out across N workers and
``--executor {serial,thread,process}`` picks the pool flavour, on one
dispatch path.  Each task resolves its evaluation context through the
process-cached ``shared_context``, keyed by the config: thread workers share
one context, so shared artifacts (kernel, generation run, baselines) are
built exactly once, and each process worker builds its own once, because
contexts hold locks and engines that cannot cross a process boundary.
Experiments are pure functions of the configuration, so the rendered tables
are unchanged.  ``--profile`` prints the per-stage wall-time breakdown plus
cache statistics.  Tables print in experiment order when the batch finishes,
through the same printer as ``campaign``, and per-experiment timing lines go
to stderr, so ``--jobs 4 --executor process`` stdout matches ``--jobs 1``
byte for byte.

``kernelgpt-repro campaign`` runs the same experiments as a DAG-scheduled
campaign with quality gates and a structured event log (see
:mod:`repro.orchestrator`); its stdout matches this runner's byte for byte.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

from ..engine import ExecutionEngine, TaskSpec
from ..errors import AdmissionError, CampaignPlanError, ConfigError
from .ablation_iterative import run_ablation_iterative
from .ablation_llm import run_ablation_llm
from .config import ExperimentConfig
from .context import EvaluationContext, shared_context
from .flags import build_parser, config_from_args
from .figure7 import run_figure7
from .reporting import TableResult
from .table1 import run_correctness_audit, run_table1
from .table2 import run_table2
from .table3 import run_table3
from .table4 import run_table4
from .table5 import run_table5
from .table6 import run_table6

EXPERIMENTS = {
    "table1": run_table1,
    "table2": run_table2,
    "figure7": run_figure7,
    "table3": run_table3,
    "table4": run_table4,
    "table5": run_table5,
    "table6": run_table6,
    "ablation_iterative": run_ablation_iterative,
    "ablation_llm": run_ablation_llm,
}


def run_experiment(name: str, ctx: EvaluationContext) -> TableResult:
    """Run one named experiment against a shared context."""
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise SystemExit(f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENTS)}")
    return runner(ctx)


def render_report(name: str, ctx: EvaluationContext) -> dict:
    """One experiment's report output: rendered text, plus table1's audit."""
    output = {"experiment": name, "text": run_experiment(name, ctx).render()}
    if name == "table1":
        # The §5.1.3 correctness audit needs the full generation run, so it
        # rides with table1 instead of rebuilding the pipeline elsewhere.
        output["audit"] = run_correctness_audit(ctx).render()
    return output


def run_report_task(
    name: str, config: ExperimentConfig, store_spec: tuple[str, str | None] | None = None
) -> dict:
    """The report task of the runner and ``campaign``: one experiment, shared context.

    Module-level, with a frozen config and plain strings as arguments, so it
    pickles by name into process workers.  ``shared_context`` is cached per
    process by ``(config, store_spec)``, so a worker running several reports
    builds the kernel and generation artifacts once.
    """
    return render_report(name, shared_context(config, store_spec))


def print_report(output: dict, directory: Path | None) -> None:
    """Print one report output to stdout (and write it under ``directory``).

    The one printer of the flat runner and ``campaign``, which is what keeps
    their stdout byte-identical.
    """
    print(output["text"])
    print()
    if output.get("audit"):
        print("Correctness audit (§5.1.3):", output["audit"], "\n")
    if directory is not None:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{output['experiment']}.txt").write_text(output["text"] + "\n")


#: Subcommand → (module, entry point, typed errors that exit 2, their message).
SUBCOMMANDS = {
    "serve": ("repro.service.cli", "serve_main", AdmissionError, "admission refused"),
    "campaign": ("repro.orchestrator.cli", "campaign_main", CampaignPlanError,
                 "invalid campaign plan"),
    "diff": ("repro.diffcampaign.cli", "diff_main", (CampaignPlanError, ConfigError),
             "invalid diff campaign"),
}


def main(argv: list[str] | None = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if arguments and arguments[0] in SUBCOMMANDS:
        # Imported lazily, so the batch CLI pays nothing for the others.
        module, entry, typed_errors, message = SUBCOMMANDS[arguments[0]]
        try:
            return getattr(importlib.import_module(module), entry)(arguments[1:])
        except typed_errors as error:
            print(f"{message}: {error}", file=sys.stderr)
            return 2
    args = build_parser("runner").parse_args(arguments)
    config = config_from_args(args)
    if (args.freeze or args.frozen) and not args.store:
        raise SystemExit("--freeze/--frozen require --store DIR")
    if args.freeze and args.frozen:
        raise SystemExit("--freeze and --frozen are mutually exclusive "
                         "(record first, then replay)")
    frozen = str(args.frozen) if args.frozen else None
    store_spec = (str(args.store), frozen) if args.store is not None else None
    wanted = args.experiment or ["all"]
    names = sorted(EXPERIMENTS) if "all" in wanted else wanted

    # One batch for every executor; rethrow=False so one failing experiment
    # does not discard the others.  Results land in experiment order.
    engine = ExecutionEngine(jobs=args.jobs, kind=args.executor)
    tasks = [
        TaskSpec(key=name, fn=run_report_task, args=(name, config, store_spec))
        for name in names
    ]
    started = time.perf_counter()
    results = engine.run_tasks("experiments", tasks, rethrow=False)
    total_elapsed = time.perf_counter() - started

    failures = [result for result in results if result.error is not None]
    for result in results:
        if result.error is None:
            print_report(result.value, args.output)
            # Timing goes to stderr so stdout stays byte-diffable across runs.
            print(f"[{result.key}] completed in {result.duration:.1f}s", file=sys.stderr)
    for result in failures:
        print(f"[{result.key}] FAILED: {result.error!r}\n", file=sys.stderr)

    if args.freeze is not None and not failures:
        # Snapshot taken after every experiment (and every process worker's
        # write: they append to the shared on-disk manifest), so the
        # lockfile pins the complete artifact set of this run.
        from ..store import ArtifactStore, FrozenLock

        lock = FrozenLock.freeze(ArtifactStore(args.store))
        lock.write(args.freeze)
        counts = ", ".join(f"{kind}={count}" for kind, count in lock.kind_counts().items())
        print(f"[store] froze {len(lock)} artifact(s) to {args.freeze} ({counts})",
              file=sys.stderr)

    if args.profile:
        profile, caches = engine.profile, engine.cache_stats()
        if engine.shares_memory:
            # The experiments ran in this process, on the shared context.
            context_engine = shared_context(config, store_spec).engine
            profile.merge(context_engine.profile)
            caches = context_engine.cache_stats()
        print(profile.render())
        print("cache statistics")
        print("----------------")
        for cache in caches.values():
            print(f"{cache['name']:8s}  hits={cache['hits']:6d}  misses={cache['misses']:6d}  "
                  f"hit_rate={cache['hit_rate']:.1%}")
        print(f"total wall time: {total_elapsed:.1f}s with jobs={engine.jobs}\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
