"""Deterministic ready-set scheduling of campaign plans onto the engine.

The scheduler walks a validated :class:`~repro.orchestrator.plan.CampaignPlan`
in waves: every task whose dependencies have completed is dispatched — in
topological order with the plan's stable tie-break — as one engine wave
through :meth:`~repro.engine.ExecutionEngine.run_tasks`, so the same
serial/thread/process executors that run the flat experiments run campaigns
too.  Determinism is scheduler-side: events are emitted only from the
coordinating thread, in dispatch order for starts and submission order for
completions, so two equivalent runs produce byte-identical event sequences
(rule 10) no matter how workers interleave.

Task payloads are process-portable by construction: a frozen
:class:`TaskPayload` carrying the plan's :class:`ExperimentConfig` plus plain
strings/tuples, executed by the module-level :func:`execute_campaign_task`,
which resolves the worker-local evaluation context from that config via the
process-cached ``shared_context``.  Report tasks run the flat runner's own
report task, so campaign outputs are byte-identical to it.

With an :class:`~repro.store.ArtifactStore`, each completed cacheable task
is recorded under :func:`~repro.orchestrator.plan.campaign_key` — its id
plus canonical input digest.  On a later run, a task whose input digest
matches is *clean*: its output loads from the store (``task_reused``) and
only the dirty subgraph re-executes.  Gates never reuse; they verify the
present run.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

from ..engine import ExecutionEngine, TaskSpec
from ..errors import (
    BackendError,
    CampaignGateFailed,
    CampaignPlanError,
    CampaignTaskFailed,
    TransientBackendError,
    is_permanent_fault,
)
from ..experiments.config import ExperimentConfig
from .events import EventLog
from .plan import CampaignPlan, campaign_key, output_digest, task_input_digest


@dataclass(frozen=True)
class TaskPayload:
    """Everything one campaign task execution needs, as picklable plain data.

    ``config`` is the plan's config, which workers rebuild their context from.
    ``upstream`` carries dependency outputs as sorted ``(task_id, output)``
    pairs; outputs are canonical-JSON values (dicts of lists/strings/ints),
    identical whether computed fresh or loaded from the store.
    """

    task_id: str
    kind: str
    params: tuple[tuple[str, object], ...]
    config: ExperimentConfig
    attempt: int
    upstream: tuple[tuple[str, dict], ...] = ()
    store_spec: tuple[str, str | None] | None = None

    def params_dict(self) -> dict:
        return dict(self.params)

    def upstream_dict(self) -> dict[str, dict]:
        return dict(self.upstream)

    def context(self):
        """The worker-local evaluation context for this payload's config."""
        from ..experiments.context import shared_context

        return shared_context(self.config, self.store_spec)


def _suite_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run_stage(payload: TaskPayload) -> dict:
    """Pipeline stages: generate, validate (repair outcomes), fuzz."""
    params = payload.params_dict()
    stage = params["stage"]
    ctx = payload.context()
    if stage == "generate":
        run = ctx.generation_run
        texts = [result.suite_text() for result in run.results.values()]
        return {
            "stage": "generate",
            "handlers": len(run.results),
            "valid": sum(1 for result in run.results.values() if result.valid),
            "syscalls": run.total_syscalls(),
            "digest": _suite_digest("\x00".join(texts)),
        }
    if stage == "validate":
        run = ctx.generation_run
        outcomes = [
            [handler, bool(result.valid), bool(result.repaired), result.syscall_count]
            for handler, result in run.results.items()
        ]
        from .plan import canonical_json

        return {
            "stage": "validate",
            "valid": sum(1 for entry in outcomes if entry[1]),
            "repaired": sum(1 for entry in outcomes if entry[2]),
            "digest": _suite_digest(canonical_json(outcomes)),
        }
    if stage == "fuzz":
        from ..fuzzer import run_campaign

        suite = ctx.syzkaller_corpus.merge_corpus(ctx.kernelgpt_corpus()).flatten("campaign")
        campaign = run_campaign(ctx.kernel, suite, ctx.config.seed, params["budget"])
        return {
            "stage": "fuzz",
            "programs": campaign.executed_programs,
            "calls": campaign.executed_calls,
            "coverage": campaign.coverage_count,
            "crashes": campaign.unique_crashes,
        }
    raise CampaignPlanError(f"unknown pipeline stage {stage!r}")


def _run_report(payload: TaskPayload) -> dict:
    """Per-table report tasks: the flat runner's report task, verbatim."""
    from ..experiments.runner import run_report_task

    return run_report_task(payload.params_dict()["experiment"], payload.config, payload.store_spec)


def _run_gate(payload: TaskPayload) -> dict:
    from .verifier import run_gate

    params = payload.params_dict()
    return run_gate(params["gate"], params, payload.config, payload.upstream_dict())


def _run_echo(payload: TaskPayload) -> dict:
    """Test handler: a pure function of its parameters and upstream digests."""
    params = payload.params_dict()
    return {
        "echo": params.get("text", ""),
        "upstream": sorted(payload.upstream_dict()),
    }


def _run_fail_until(payload: TaskPayload) -> dict:
    """Test handler: fails deterministically until attempt ``succeed_at``."""
    succeed_at = payload.params_dict().get("succeed_at", 1)
    if payload.attempt < succeed_at:
        raise RuntimeError(
            f"transient failure on attempt {payload.attempt} (succeeds at {succeed_at})"
        )
    return {"echo": "recovered", "attempt": payload.attempt}


def _run_fault_until(payload: TaskPayload) -> dict:
    """Test handler: raises classified backend faults until ``succeed_at``.

    Unlike :func:`_run_fail_until` (unclassified ``RuntimeError``), the
    raised error carries the resilience taxonomy: ``transient: true``
    (default) raises :class:`TransientBackendError` — retried within the
    task's budget — while ``transient: false`` raises a permanent
    :class:`BackendError`, which the scheduler fails fast regardless of
    remaining retries.
    """
    params = payload.params_dict()
    succeed_at = params.get("succeed_at", 1)
    if payload.attempt < succeed_at:
        message = f"backend fault on attempt {payload.attempt} (succeeds at {succeed_at})"
        if params.get("transient", True):
            raise TransientBackendError(message)
        raise BackendError(message)
    return {"echo": "recovered", "attempt": payload.attempt}


#: Task kind → module-level handler; module-level so payload dispatch
#: pickles by name into process workers.
TASK_HANDLERS = {
    "stage": _run_stage,
    "report": _run_report,
    "gate": _run_gate,
    "echo": _run_echo,
    "fail_until": _run_fail_until,
    "fault_until": _run_fault_until,
}

#: Task kind → module whose import registers the handler into
#: :data:`TASK_HANDLERS`.  The self-registration chokepoint for extension
#: layers (differential campaigns): a process-pool worker that unpickles a
#: payload of an extension kind imports the module lazily instead of
#: requiring the parent to have pre-imported it into every worker.
EXTENSION_HANDLER_MODULES = {
    "cell_fuzz": "repro.diffcampaign.tasks",
    "cell_report": "repro.diffcampaign.tasks",
    "diff": "repro.diffcampaign.tasks",
}


def execute_campaign_task(payload: TaskPayload) -> dict:
    """Run one campaign task; the engine task function for every kind."""
    handler = TASK_HANDLERS.get(payload.kind)
    if handler is None:
        module_name = EXTENSION_HANDLER_MODULES.get(payload.kind)
        if module_name is not None:
            import importlib

            importlib.import_module(module_name)
            handler = TASK_HANDLERS.get(payload.kind)
    if handler is None:
        raise CampaignPlanError(f"unknown task kind {payload.kind!r}")
    return handler(payload)


@dataclass
class TaskOutcome:
    """One completed task: its output plus the digests that identify it."""

    task_id: str
    output: dict
    input_digest: str
    output_digest: str
    reused: bool = False
    attempts: int = 0
    duration: float = 0.0


@dataclass
class CampaignResult:
    """Everything a campaign run produced, keyed for deterministic reads."""

    outcomes: dict[str, TaskOutcome] = field(default_factory=dict)
    failures: dict[str, BaseException] = field(default_factory=dict)
    skipped: dict[str, tuple[str, ...]] = field(default_factory=dict)
    gate_verdicts: dict[str, dict] = field(default_factory=dict)
    wall: float = 0.0

    @property
    def executed(self) -> int:
        return sum(1 for outcome in self.outcomes.values() if not outcome.reused)

    @property
    def reused(self) -> int:
        return sum(1 for outcome in self.outcomes.values() if outcome.reused)

    @property
    def failed_gates(self) -> tuple[str, ...]:
        return tuple(
            sorted(
                task_id
                for task_id, verdict in self.gate_verdicts.items()
                if not verdict.get("passed")
            )
        )

    @property
    def passed(self) -> bool:
        return not self.failures and not self.skipped and not self.failed_gates

    def output(self, task_id: str) -> dict:
        return self.outcomes[task_id].output

    def raise_for_status(self) -> None:
        """Surface the run's failure as the matching typed error, if any."""
        if self.failures:
            task_id = sorted(self.failures)[0]
            cause = self.failures[task_id]
            outcome_attempts = getattr(cause, "attempts", None)
            raise CampaignTaskFailed(
                f"campaign task {task_id!r} failed: {type(cause).__name__}: {cause}",
                task_id=task_id,
                attempts=outcome_attempts if isinstance(outcome_attempts, int) else 0,
                cause=cause,
            )
        if self.failed_gates:
            details = {
                task_id: str(self.gate_verdicts[task_id].get("detail", ""))
                for task_id in self.failed_gates
            }
            raise CampaignGateFailed(
                f"quality gate(s) failed: {', '.join(self.failed_gates)}",
                gates=self.failed_gates,
                details=details,
            )


class CampaignScheduler:
    """Runs one campaign plan to completion on an execution engine."""

    def __init__(
        self,
        plan: CampaignPlan,
        engine: ExecutionEngine | None = None,
        *,
        store=None,
        events: EventLog | None = None,
    ):
        self.plan = plan
        self.engine = engine if engine is not None else ExecutionEngine(jobs=1)
        self.store = store
        self.events = events if events is not None else EventLog()
        self._store_spec = (str(store.root), None) if store is not None else None

    def run(self) -> CampaignResult:
        """Execute every reachable task; returns the full result record.

        The loop is wave-structured: compute the ready set in topological
        order, serve clean tasks from the store, dispatch the rest as one
        engine wave, then fold completions (and retries) back in.  All event
        emission happens here, on the coordinating thread, in deterministic
        order.
        """
        plan, events = self.plan, self.events
        order = plan.topological_order()
        cfg_digest = plan.config_digest()
        result = CampaignResult()
        attempts: dict[str, int] = {}
        input_digests: dict[str, str] = {}
        announced: set[str] = set()
        started = time.perf_counter()
        events.emit(
            "campaign_started",
            campaign=plan.name,
            config_digest=cfg_digest,
            tasks=len(order),
            jobs=self.engine.jobs,
            executor=self.engine.executor.name,
        )
        while True:
            progressed = False
            for task in order:
                done = (
                    task.task_id in result.outcomes
                    or task.task_id in result.failures
                    or task.task_id in result.skipped
                )
                if done:
                    continue
                blocked_on = tuple(
                    sorted(
                        dep
                        for dep in task.depends_on
                        if dep in result.failures or dep in result.skipped
                    )
                )
                if blocked_on:
                    result.skipped[task.task_id] = blocked_on
                    events.emit("task_skipped", task_id=task.task_id, blocked_on=list(blocked_on))
                    progressed = True
            ready = [
                task
                for task in order
                if task.task_id not in result.outcomes
                and task.task_id not in result.failures
                and task.task_id not in result.skipped
                and all(dep in result.outcomes for dep in task.depends_on)
            ]
            if not ready:
                break
            wave: list = []
            for task in ready:
                digest = input_digests.get(task.task_id)
                if digest is None:
                    digest = task_input_digest(
                        task,
                        cfg_digest,
                        {
                            dep: result.outcomes[dep].output_digest
                            for dep in task.depends_on
                        },
                    )
                    input_digests[task.task_id] = digest
                if task.task_id not in announced:
                    announced.add(task.task_id)
                    events.emit("task_scheduled", task_id=task.task_id, digest=digest)
                if (
                    self.store is not None
                    and task.cacheable
                    and attempts.get(task.task_id, 0) == 0
                ):
                    key = campaign_key(task.task_id, digest)
                    try:
                        stored = self.store.load(key)
                    except KeyError:
                        stored = None
                    if stored is not None:
                        out_digest = output_digest(stored)
                        result.outcomes[task.task_id] = TaskOutcome(
                            task.task_id, stored, digest, out_digest, reused=True
                        )
                        events.emit(
                            "task_reused",
                            task_id=task.task_id,
                            digest=digest,
                            output_digest=out_digest,
                        )
                        progressed = True
                        continue
                wave.append((task, digest))
            if not wave:
                if progressed:
                    continue
                break
            specs = []
            for task, digest in wave:
                attempts[task.task_id] = attempts.get(task.task_id, 0) + 1
                events.emit(
                    "task_started",
                    task_id=task.task_id,
                    digest=digest,
                    attempt=attempts[task.task_id],
                )
                payload = TaskPayload(
                    task_id=task.task_id,
                    kind=task.kind,
                    params=task.params,
                    config=plan.config,
                    attempt=attempts[task.task_id],
                    upstream=tuple(
                        sorted(
                            (dep, result.outcomes[dep].output) for dep in task.depends_on
                        )
                    ),
                    store_spec=self._store_spec,
                )
                specs.append(
                    TaskSpec(key=task.task_id, fn=execute_campaign_task, args=(payload,))
                )
            for (task, digest), task_result in zip(
                wave, self.engine.run_tasks("campaign", specs, rethrow=False)
            ):
                used = attempts[task.task_id]
                if task_result.error is not None:
                    error_text = f"{type(task_result.error).__name__}: {task_result.error}"
                    if used <= task.retries and not is_permanent_fault(task_result.error):
                        events.emit(
                            "task_retried",
                            task_id=task.task_id,
                            digest=digest,
                            attempt=used,
                            error=error_text,
                        )
                    else:
                        failure = task_result.error
                        failure.attempts = used
                        result.failures[task.task_id] = failure
                        events.emit(
                            "task_failed",
                            task_id=task.task_id,
                            digest=digest,
                            attempt=used,
                            error=error_text,
                        )
                    continue
                value = task_result.value
                out_digest = output_digest(value)
                result.outcomes[task.task_id] = TaskOutcome(
                    task.task_id,
                    value,
                    digest,
                    out_digest,
                    attempts=used,
                    duration=task_result.duration,
                )
                events.emit(
                    "task_finished",
                    task_id=task.task_id,
                    digest=digest,
                    output_digest=out_digest,
                    attempt=used,
                    duration=round(task_result.duration, 6),
                )
                if task.kind == "gate":
                    result.gate_verdicts[task.task_id] = value
                    events.emit(
                        "gate_passed" if value.get("passed") else "gate_failed",
                        task_id=task.task_id,
                        gate=str(value.get("gate", "")),
                        detail=str(value.get("detail", "")),
                    )
                if self.store is not None and task.cacheable:
                    key = campaign_key(task.task_id, digest)
                    if key not in self.store:
                        self.store.save(key, value)
        result.wall = time.perf_counter() - started
        events.emit(
            "campaign_finished",
            passed=result.passed,
            executed=result.executed,
            reused=result.reused,
            failed=len(result.failures),
            gates_failed=len(result.failed_gates),
            wall=round(result.wall, 6),
        )
        return result


def run_campaign_plan(
    plan: CampaignPlan,
    *,
    engine: ExecutionEngine | None = None,
    store=None,
    events: EventLog | None = None,
) -> CampaignResult:
    """Convenience wrapper: schedule ``plan`` and return its result."""
    scheduler = CampaignScheduler(plan, engine, store=store, events=events)
    return scheduler.run()


__all__ = [
    "EXTENSION_HANDLER_MODULES",
    "TASK_HANDLERS",
    "CampaignResult",
    "CampaignScheduler",
    "TaskOutcome",
    "TaskPayload",
    "execute_campaign_task",
    "run_campaign_plan",
]
