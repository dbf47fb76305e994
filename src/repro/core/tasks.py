"""Picklable generation task payloads.

PR 1's ``generate_for_handlers`` fanned out by wrapping *bound methods* of
the owning :class:`~repro.core.generator.KernelGPT` in task specs.  Bound
methods tie a task to the parent's address space, which is fine for thread
pools but rules out process sharding.  This module replaces them with the
shape every executor (serial, thread, process) can run:

* a frozen dataclass argument (:class:`GenerationTask`) naming the unit of
  work — never holding live callables or open resources;
* a module-level function (:func:`run_generation_task`) that process pools
  can pickle by qualified name;
* a mutable outcome (:class:`GenerationOutcome`) that carries worker-side
  side effects — LLM usage, recorded exchanges — back across the process
  boundary so the parent can merge them at join time.

Picklability rules (the contract process sharding rests on, also documented
in DESIGN.md):

1. task functions are module-level, referenced by name, never closures or
   bound methods;
2. task arguments are data (dataclasses of strings/numbers/suites) plus the
   generator itself, whose ``__getstate__`` drops the engine — engines own
   pools and locks and never cross process boundaries;
3. anything a worker mutates that the parent must observe travels back in
   the task's return value; the parent merges outcomes in submission order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import ExtractionError, GenerationError
from ..llm import RecordedExchange, RecordingBackend, UsageMeter

if TYPE_CHECKING:
    from ..engine import ExecutionEngine
    from .generator import GenerationResult, KernelGPT


@dataclass(frozen=True)
class GenerationTask:
    """One handler-generation unit of work, as plain picklable data.

    ``repair_mode`` optionally overrides the generator's repair protocol
    (``"per-query"`` / ``"transactional"``) for this task only.  The
    override travels in the task payload and is resolved per *session*,
    never by mutating the (possibly shared) generator — so one generator
    can serve both repair modes concurrently on any executor.  Repair
    transactions themselves (:class:`repro.core.repair.RepairTransaction`)
    are plain data and pickle across process shards like every other part
    of the payload.
    """

    handler_name: str
    mode: str = "iterative"  # or "all-in-one" (the §5.2.3 ablation path)
    repair_mode: str | None = None


@dataclass
class GenerationOutcome:
    """What one generation task hands back at join time.

    ``result`` is ``None`` when the handler could not be extracted or
    generated (the campaign skips it, exactly like the serial path).  In
    process mode the worker also returns its private backend's usage meter
    and any exchanges its recording backend captured, because those side
    effects happened on pickled copies the parent never sees.  A worker
    error rides back in ``error``, so its usage still merges before the
    parent re-raises it.
    """

    handler_name: str
    result: "GenerationResult | None" = None
    usage: UsageMeter | None = None
    exchanges: list[RecordedExchange] = field(default_factory=list)
    error: Exception | None = None


def run_generation_task(
    generator: "KernelGPT",
    task: GenerationTask,
    engine: "ExecutionEngine | None" = None,
    *,
    collect_side_effects: bool = False,
) -> GenerationOutcome:
    """Run one handler's generation pipeline; the engine's task entry point.

    Module-level so every executor can schedule it.  With
    ``collect_side_effects`` (process mode) the worker's backend is given a
    fresh usage meter up front and the outcome carries that meter plus any
    recorded exchanges — the parent folds both into its own backend when the
    batch joins, restoring the accounting a shared-memory run gets for free.
    The worker's copy serves every task it is dealt, so its budget
    reservations are restored after each task: the budget outcome depends on
    submission order alone, never on which tasks shared a worker.
    """
    backend = generator.backend
    exchanges_start = 0
    if collect_side_effects:
        backend.usage = UsageMeter()
        reserved = backend.reserved_queries()
        if isinstance(backend, RecordingBackend):
            exchanges_start = len(backend.exchanges)

    outcome = GenerationOutcome(handler_name=task.handler_name)
    try:
        if task.mode == "all-in-one":
            outcome.result = generator.generate_all_in_one(
                task.handler_name, engine=engine, repair_mode=task.repair_mode
            )
        else:
            outcome.result = generator.generate_for_handler(
                task.handler_name, engine=engine, repair_mode=task.repair_mode
            )
    except (ExtractionError, GenerationError):
        outcome.result = None
    except Exception as error:
        if not collect_side_effects:
            raise
        outcome.error = error

    if collect_side_effects:
        backend.restore_reserved_queries(reserved)
        outcome.usage = backend.usage
        if isinstance(backend, RecordingBackend):
            outcome.exchanges = backend.take_exchanges(exchanges_start)
    return outcome


def merge_outcome_side_effects(backend, outcomes: "list[GenerationOutcome]") -> None:
    """Fold worker-side usage and exchanges into the parent backend.

    Called once per batch, with outcomes in task-submission order, so the
    merged usage totals and recorded transcript are identical for any
    process schedule.  Worker queries are also charged against the parent's
    query budget: raising at join (after all usage/exchanges merged) gives
    the same user-visible outcome as a shared-memory run raising mid-batch.
    Otherwise the first worker error, in submission order, re-raises here.
    """
    merged_queries = 0
    for outcome in outcomes:
        if outcome.usage is not None:
            merged_queries += outcome.usage.queries
            backend.usage.merge(outcome.usage)
        if outcome.exchanges and isinstance(backend, RecordingBackend):
            backend.merge_exchanges(outcome.exchanges)
    backend.note_external_queries(merged_queries)
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error


__all__ = [
    "GenerationTask",
    "GenerationOutcome",
    "run_generation_task",
    "merge_outcome_side_effects",
]
