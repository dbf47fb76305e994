"""The queue-driven job service: admission, workers, coalesced LLM traffic.

:class:`JobService` is the long-running front door over the existing
engine.  It owns one shared :class:`~repro.experiments.EvaluationContext`
(kernel, extractor, corpus built once and shared read-only), one backend —
typically the context's analyst pool — and one
:class:`~repro.llm.BatchCoalescer` in front of it.  Every submitted
:class:`~repro.service.jobs.Job` runs on a service worker thread; each
job's LLM traffic goes through a per-job
:class:`~repro.llm.CoalescingBackend` handle stamped with the job's tenant
(budget accounting) and job id (statistics), so concurrent jobs' wavefronts
merge into single ``complete_batch`` calls per pool member while per-job
and per-tenant accounting stay exact.

Admission is explicit and typed: the service starts its ``workers``
serving threads at construction, a full queue refuses with
:class:`~repro.errors.ServiceSaturated`, and tenant exhaustion surfaces as
:class:`~repro.errors.TenantBudgetExceeded` from the job that overran.

A generation job runs its handlers as concurrent sessions on a job-scoped
thread pool, so their round trips share coalesced flushes; the text and the
streamed events keep handler order.

Determinism (rule 8, DESIGN.md): with one job in flight the service flips
the coalescer eager, so each submission flushes inline — a job with one
submitting thread gives the backend exactly the CLI path's batch sequence,
and its output is byte-identical to the CLI run.  A multi-handler job's
sessions and many jobs in flight change round-trip counts only, never
completions (backends are pure functions of the prompt), so every job's
text and query count *still* equal its solo run's — coalescing is a
throughput optimization, not a semantic one.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from ..engine import ExecutionEngine
from ..errors import ServiceSaturated, TransientBackendError
from ..experiments.config import ExperimentConfig
from ..experiments.context import EvaluationContext
from ..kernel import KernelCodebase
from ..llm import BatchCoalescer, CoalescingBackend, LLMBackend
from .jobs import Job, JobEvent, JobHandle, JobResult


class JobService:
    """Runs many concurrent pipeline jobs over one shared, coalesced backend."""

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        *,
        workers: int = 2,
        max_pending: int | None = None,
        coalesce: bool = True,
        window: float = 0.01,
        max_batch: int = 64,
        tenant_budgets: dict[str, int] | None = None,
        backend: LLMBackend | None = None,
        kernel: KernelCodebase | None = None,
        store: "object | None" = None,
        job_retries: int = 0,
        events: "object | None" = None,
    ):
        #: Persistent artifact store (a path or an ArtifactStore): the
        #: service-restart warm cache.  The shared context engine and every
        #: per-job engine get their *own* StoreBinding over the one store,
        #: so JobResult hit rates are attributable per job while artifacts
        #: written by one job (or a previous service process) hydrate the
        #: next.
        self._store = None
        context_engine = None
        if store is not None:
            from ..store import ArtifactStore, StoreBinding

            self._store = store if isinstance(store, ArtifactStore) else ArtifactStore(store)
            context_engine = ExecutionEngine(jobs=1, store=StoreBinding(self._store))
        self.context = EvaluationContext(config, kernel, engine=context_engine)
        inner = backend if backend is not None else self.context.build_analysis_backend()
        # Experiments run inside jobs must share the service's front door,
        # not build private analysts.
        self.context.analysis_backend = inner
        self.backend = inner
        #: Default transient-fault retry budget for jobs that leave
        #: ``Job.retries`` unset; permanent faults always fail fast.
        self.job_retries = max(0, job_retries)
        #: Optional :class:`~repro.orchestrator.events.EventLog`: backend
        #: retries, breaker transitions, job retries and observer failures
        #: are emitted here (the serve CLI passes its ``--events`` log).
        self.events = events
        if events is not None:
            from ..llm import wire_resilience_events

            wire_resilience_events(
                inner, lambda event_type, fields: events.emit(event_type, **fields)
            )
        #: ``coalesce=False`` still routes through a coalescer — in drain
        #: mode, where every submission flushes inline and alone.  That
        #: keeps tenant budgets, admission errors and statistics identical
        #: between the two modes; only the merging (and hence the backend
        #: round-trip count) differs, which is exactly what the benchmark
        #: wants to isolate.
        self.coalescer = BatchCoalescer(
            inner, window=window, max_batch=max_batch, drain=not coalesce
        )
        if events is not None:
            # A broken flush observer is degraded serving, not a silent
            # no-op: it lands in the event log as an observer_error record.
            self.coalescer.on_observer_error = lambda error: events.emit(
                "observer_error", error=f"{type(error).__name__}: {error}"
            )
        for tenant, limit in (tenant_budgets or {}).items():
            self.coalescer.set_tenant_budget(tenant, limit)
        self.max_pending = max_pending
        # Serving threads spend their lives blocked on coalescer events, so
        # their count is not capped at the CPU count.
        self.workers = max(1, workers)
        self._queue: queue.Queue[tuple[str, Job, JobHandle] | None] = queue.Queue()
        self._lock = threading.Lock()
        self._pending = 0
        self._running = 0
        self._submitted = 0
        self._closed = False
        self._terminated = False
        self._threads = [
            threading.Thread(target=self._worker_loop, name=f"job-worker-{index}", daemon=True)
            for index in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()
        self._sync_load()

    # -------------------------------------------------------------- admission
    def submit(self, job: Job) -> JobHandle:
        """Admit one job; returns its handle immediately.

        Raises :class:`~repro.errors.ServiceSaturated` when the service is
        closed or ``max_pending`` jobs are already queued or running.
        """
        with self._lock:
            if self._closed:
                raise ServiceSaturated("job service is closed")
            if self.max_pending is not None and self._pending >= self.max_pending:
                raise ServiceSaturated(
                    f"job queue full: {self._pending} jobs pending, limit {self.max_pending}",
                    limit=self.max_pending,
                    pending=self._pending,
                )
            self._submitted += 1
            self._pending += 1
            job_id = f"job-{self._submitted:04d}"
        handle = JobHandle(job_id, job)
        self._queue.put((job_id, job, handle))
        return handle

    def submit_all(self, jobs: "list[Job]") -> "list[JobHandle]":
        """Admit several jobs in order (all-or-nothing is NOT implied)."""
        return [self.submit(job) for job in jobs]

    def _sync_load(self) -> None:
        """Propagate the in-flight job count to the coalescer's heuristics.

        With ≤1 job running the coalescer goes eager (inline, solo flushes:
        the CLI-identical schedule); with more, the running count becomes
        the expected-clients hint so lock-stepped wavefronts flush as soon
        as every active job has submitted, not after the full window.
        """
        with self._lock:
            running = self._running
        self.coalescer.set_expected(running)
        self.coalescer.set_eager(running <= 1)

    # ---------------------------------------------------------------- workers
    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            self._serve(*item)
            # An idle worker must not pin its last job: once the job has
            # finished, a handle its caller released is collectable.
            del item

    def _serve(self, job_id: str, job: Job, handle: JobHandle) -> None:
        """Run one admitted job to completion and deliver its result."""
        with self._lock:
            self._running += 1
        self._sync_load()
        started = time.perf_counter()
        job_backend = CoalescingBackend(self.coalescer, tenant=job.tenant, client=job_id)
        result = JobResult(job_id=job_id, label=job.describe(), kind=job.kind, tenant=job.tenant)

        def emit(stage: str, detail: str) -> None:
            event = JobEvent(job_id, stage, detail, time.perf_counter() - started)
            result.events.append(event)
            handle._emit(event)

        # Transient faults that escape the backend-level retry layer
        # may retry the *job*; permanent faults and unclassified
        # errors fail it on first occurrence.  Each attempt gets a
        # fresh engine (clean memo caches) but shares the job backend,
        # whose converging fault schedule and budget accounting span
        # attempts.
        retry_budget = job.retries if job.retries is not None else self.job_retries
        attempt = 0
        while True:
            attempt += 1
            job_store = None
            if self._store is not None:
                from ..store import StoreBinding

                job_store = StoreBinding(self._store)
            job_engine = ExecutionEngine(store=job_store)
            try:
                result.text = self._run_job(job, job_backend, job_engine, emit)
                result.error = None
                break
            except TransientBackendError as error:
                result.error = error
                if attempt > retry_budget:
                    break
                emit("retry", f"attempt {attempt} hit a transient fault: {error}")
                if self.events is not None:
                    self.events.emit(
                        "job_retried",
                        job_id=job_id,
                        attempt=attempt,
                        error=f"{type(error).__name__}: {error}",
                    )
            except BaseException as error:  # noqa: BLE001 - delivered via the handle
                result.error = error
                break
        result.attempts = attempt
        result.duration = time.perf_counter() - started
        result.queries = job_backend.usage.queries
        result.cache = job_engine.cache_stats()
        result.coalescing = {
            **self.coalescer.release_client(job_id),
            "by_kind": self.coalescer.stats()["by_kind"],
        }
        with self._lock:
            self._running -= 1
            self._pending -= 1
        self._sync_load()
        handle._finish(result)

    def _run_job(self, job: Job, backend: LLMBackend, engine: ExecutionEngine, emit) -> str:
        """Dispatch one job to its pipeline; returns the rendered text."""
        if job.kind in ("generation", "repair"):
            return self._run_generation(job, backend, engine, emit)
        if job.kind == "fuzz":
            return self._run_fuzz(job, backend, engine, emit)
        return self._run_experiment(job, backend, engine, emit)

    def _run_generation(self, job: Job, backend, engine, emit) -> str:
        # Repair jobs are generation jobs that lean on the repair stage:
        # they default to the transactional protocol (one routed batch per
        # round) unless the job pins a mode.
        repair_mode = job.repair_mode or ("transactional" if job.kind == "repair" else None)
        gpt = self.context.kernelgpt.clone(backend=backend, engine=engine)
        handlers = job.handlers or tuple(self.context.selection.all_handlers)
        # Every handler runs at once as its own session over the job's
        # engine (whose single-flight memo they share) and backend handle,
        # so each coalesced flush carries every session's next round and
        # the job costs its longest handler chain, not the sum.  A flush
        # carries at most max_batch requests, so more sessions could not
        # share a round trip.  The threads wait on round trips rather than
        # compute, so they are not capped at the CPU count.
        sessions = ThreadPoolExecutor(
            max_workers=min(len(handlers), self.coalescer.max_batch),
            thread_name_prefix="job-session",
        )
        blocks: list[str] = []
        try:
            futures = [
                sessions.submit(
                    gpt.generate_for_handler, handler, engine=engine, repair_mode=repair_mode
                )
                for handler in handlers
            ]
            # Reading in handler order keeps the serial loop's output: each
            # event goes out once its handler and every earlier one are
            # done, and the first failing handler's error raises after the
            # events before it.  Later sessions' outcomes are then dropped,
            # as the serial loop would never have run them.
            for handler, future in zip(handlers, futures):
                generated = future.result()
                emit(
                    "handler",
                    f"{handler} valid={generated.valid} syscalls={generated.syscall_count} "
                    f"repaired={generated.repaired}",
                )
                header = (
                    f"== {handler} (valid={generated.valid}, "
                    f"syscalls={generated.syscall_count}, repaired={generated.repaired})"
                )
                if job.kind == "repair":
                    header += (
                        f" [mode={generated.repair_mode} rounds={generated.repair_rounds_used}"
                        f" repair_queries={generated.repair_queries}"
                        f" repair_llm_calls={generated.repair_llm_calls}]"
                    )
                blocks.append(f"{header}\n{generated.suite_text()}")
        finally:
            # No session of a failed attempt outlives it: unstarted ones
            # are cancelled and running ones joined, so a retry starts clean.
            sessions.shutdown(wait=True, cancel_futures=True)
        return "\n".join(blocks)

    def _run_fuzz(self, job: Job, backend, engine, emit) -> str:
        from ..fuzzer import run_campaign

        if job.suite == "syzkaller":
            suite = self.context.syzkaller_corpus.flatten()
        else:
            # Through the job's clone, like generation jobs: the suite's
            # queries are charged to the tenant and coalesced.
            gpt = self.context.kernelgpt.clone(backend=backend, engine=engine)
            suite = gpt.generate_for_handler(job.suite).suite
        emit("suite", f"{suite.name} syscalls={len(suite)}")
        campaign = run_campaign(self.context.kernel, suite, job.seed, job.budget_programs)
        emit("campaign", f"programs={campaign.executed_programs}")
        return (
            f"fuzz {suite.name} seed={job.seed} programs={campaign.executed_programs} "
            f"coverage={campaign.coverage_count} crashes={campaign.unique_crashes} "
            f"corpus={campaign.corpus_size}\n"
        )

    def _run_experiment(self, job: Job, backend, engine, emit) -> str:
        from ..experiments.runner import run_experiment

        if not job.experiment:
            raise ValueError("experiment jobs need Job.experiment set")
        # A fresh context per experiment job, sharing the service kernel but
        # carrying the job's backend/engine: experiment artifacts (the
        # generation run, baselines) are then attributed to the job's tenant
        # and coalesced with other jobs' traffic.
        ctx = EvaluationContext(
            self.context.config,
            self.context.kernel,
            engine=engine,
            analysis_backend=backend,
        )
        table = run_experiment(job.experiment, ctx)
        emit("experiment", job.experiment)
        # The CLI writes ``render() + "\n"`` per experiment file; matching
        # it exactly is what lets CI diff service output against CLI output.
        return table.render() + "\n"

    # --------------------------------------------------------------- lifecycle
    def stats(self) -> dict:
        """Service-level accounting: load, coalescer, tenants."""
        with self._lock:
            load = {
                "workers": self.workers,
                "pending": self._pending,
                "running": self._running,
                "submitted": self._submitted,
            }
        return {
            **load,
            "coalescer": self.coalescer.stats(),
            "tenants": self.coalescer.tenant_usage(),
        }

    def drain(self, timeout: float | None = 30.0) -> bool:
        """Graceful shutdown, phase one: refuse new jobs, finish in-flight ones.

        Marks the service closed (submissions raise
        :class:`~repro.errors.ServiceSaturated` immediately) and waits for
        every queued and running job to deliver its result.  Returns True
        once the service is idle, False if ``timeout`` elapsed first — the
        caller decides whether to :meth:`close` anyway.  Idempotent, and
        :meth:`close` after a successful drain is instantaneous.
        """
        with self._lock:
            self._closed = True
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                if self._pending == 0:
                    return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.005)

    def close(self) -> None:
        """Stop accepting work and drain the workers."""
        with self._lock:
            if self._terminated:
                return
            self._terminated = True
            self._closed = True
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=30.0)
        self.coalescer.close()

    def __enter__(self) -> "JobService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["JobService"]
