"""Cross-session LLM batch coalescing: the serving layer's merge point.

One run of the pipeline already batches well: PR 3's wavefronts submit each
stage's prompts as one ``complete_batch``, with in-batch dedupe and atomic
budget reservation.  A *service* runs many pipelines at once, and their
wavefronts land on the shared backend pool as many small batches — one
round-trip each.  :class:`BatchCoalescer` closes that gap: concurrent
submissions from different sessions (and different tenants) accumulate in a
short admission window and flush as **one** merged ``complete_batch`` call,
so the expensive shared resource — the backend pool — sees maximally
coalesced work.  The pool's member routing and each member's in-batch
dedupe/budget semantics apply to the merged batch unchanged, which is how
cross-tenant duplicate prompts collapse to a single computed completion.

Flush triggers, checked by a dedicated flusher thread:

* the admission **window** elapses (measured from the first pending
  submission);
* the pending request count reaches **max_batch**;
* every **expected client** has a submission pending (the job service keeps
  this hint at its jobs-in-flight count, so lock-stepped wavefronts flush
  the moment the last job arrives instead of waiting out the window);
* an explicit :meth:`flush` (tests, shutdown).

Determinism: merged batches concatenate submissions in **admission order**
(rule 8 in DESIGN.md), and in *drain* mode (``drain=True``, or
:meth:`set_eager` while one job is in flight) every submission flushes
inline.  With one submitting thread each flush carries one submission —
the backend then sees exactly the batch sequence the CLI path would have
issued, so single-job service output is byte-identical to the CLI run;
submissions that arrive while a flush is on the wire ride the next one
together.  Coalescing never changes completions either way (they are pure
functions of the prompt); it changes only how many round-trips carry them.

Tenant budgets are enforced here, at the coalescing boundary: a tenant is
charged for the distinct requests *it* submits — cross-tenant dedupe inside
the merged batch never leaks one tenant's traffic into another's accounting
— and exhaustion mirrors the backend-budget contract: the in-budget prefix
is still served, then :class:`~repro.errors.TenantBudgetExceeded` raises
naming the first unfunded request's position.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Sequence

from ..errors import BackendError, ServiceSaturated, TenantBudgetExceeded
from .backend import Completion, LLMBackend, LLMRequest, Prompt

#: One client's (job's) coalescing counters (:meth:`BatchCoalescer.client_stats`).
_CLIENT_FIELDS = ("submissions", "requests", "queries_saved_by_coalescing", "flushes_joined")


class _Submission:
    """One caller's pending batch: requests in, completions (or an error) out."""

    __slots__ = ("requests", "client", "tenant", "event", "results", "error")

    def __init__(self, requests: list[LLMRequest], client: str | None, tenant: str | None):
        self.requests = requests
        self.client = client
        self.tenant = tenant
        self.event = threading.Event()
        self.results: list[Completion] | None = None
        self.error: BaseException | None = None


class BatchCoalescer:
    """Window/size-triggered accumulator merging requests across sessions."""

    def __init__(
        self,
        backend: LLMBackend,
        *,
        window: float = 0.01,
        max_batch: int = 64,
        drain: bool = False,
    ):
        self.backend = backend
        self.window = max(0.0, window)
        self.max_batch = max(1, max_batch)
        #: Drain mode: no flusher thread; every submission (outside a
        #: :meth:`hold` block) flushes inline, alone, in admission order.
        self.drain = drain
        self._cond = threading.Condition()
        # Serializes actual serving so flush order equals admission order
        # even when several threads race to flush.
        self._flush_lock = threading.Lock()
        self._pending: list[_Submission] = []
        self._pending_requests = 0
        self._first_at: float | None = None
        self._held = 0
        self._eager = drain
        self._expected = 0
        self._closed = False
        #: Optional callable fed one summary dict per non-empty flush
        #: (submissions/requests/distinct counts) — the serving layer's
        #: event-log hook.  Called outside the admission lock, after the
        #: flush's waiters are released.  A raising observer can never kill
        #: the flusher thread, but it is not silently dropped either: the
        #: failure is counted in ``stats()["observer_errors"]`` and routed
        #: to :attr:`on_observer_error` (the serving layer turns it into an
        #: ``observer_error`` event-log record).
        self.observer = None
        #: Optional callable fed each exception a broken :attr:`observer`
        #: raised; its own exceptions are dropped (there is no fourth
        #: level of error routing to escalate to).
        self.on_observer_error = None
        self._stats_lock = threading.Lock()
        self._stats = {
            "flushes": 0,
            "merged_flushes": 0,
            "submissions": 0,
            "requests": 0,
            "distinct_requests": 0,
            "queries_saved_by_coalescing": 0,
            "max_merged_batch": 0,
            "errors": 0,
            "isolated_flushes": 0,
            "tenant_faults": 0,
            "observer_errors": 0,
        }
        self._by_kind: dict[str, dict] = {}
        self._clients: dict[str, dict] = {}
        self._tenants: dict[str, dict] = {}
        self._thread: threading.Thread | None = None
        if not drain:
            self._thread = threading.Thread(
                target=self._flush_loop, name="llm-coalescer", daemon=True
            )
            self._thread.start()

    # ---------------------------------------------------------------- tenants
    def set_tenant_budget(self, tenant: str, limit: int) -> None:
        """Cap ``tenant`` at ``limit`` distinct backend-bound queries.

        Budgets meter post-memoization traffic (what actually reaches the
        coalescer), exactly like backend member budgets meter what reaches
        the member.  Unregistered tenants are unmetered.
        """
        with self._stats_lock:
            self._tenants[tenant] = {"limit": max(0, limit), "used": 0}

    def tenant_usage(self) -> dict[str, dict]:
        """Per-tenant budget accounting: limit, used, remaining."""
        with self._stats_lock:
            return {
                tenant: {**entry, "remaining": max(0, entry["limit"] - entry["used"])}
                for tenant, entry in self._tenants.items()
            }

    def _reserve_tenant(self, tenant: str | None, distinct: int) -> int:
        """Atomically reserve up to ``distinct`` slots; returns the grant."""
        if tenant is None:
            return distinct
        with self._stats_lock:
            entry = self._tenants.get(tenant)
            if entry is None:
                return distinct
            available = max(0, entry["limit"] - entry["used"])
            granted = min(distinct, available)
            entry["used"] += granted
            return granted

    # ------------------------------------------------------------- submission
    def submit(
        self,
        requests: "Sequence[LLMRequest | Prompt]",
        *,
        tenant: str | None = None,
        client: str | None = None,
    ) -> list[Completion]:
        """Enqueue a batch and block until its completions arrive.

        Returns completions in request order.  Raises whatever the merged
        backend call raised, or :class:`~repro.errors.TenantBudgetExceeded`
        after serving the tenant-fundable prefix (see the module docstring
        for the exact semantics).
        """
        normalized = [LLMRequest.of(item) for item in requests]
        if not normalized:
            return []
        distinct_positions: list[int] = []
        seen: set[tuple] = set()
        for position, request in enumerate(normalized):
            key = request.batch_key()
            if key not in seen:
                seen.add(key)
                distinct_positions.append(position)
        granted = self._reserve_tenant(tenant, len(distinct_positions))
        over: TenantBudgetExceeded | None = None
        funded = normalized
        if granted < len(distinct_positions):
            limit = self._tenants[tenant]["limit"]
            over = TenantBudgetExceeded(
                tenant,
                limit=limit,
                requested=len(distinct_positions),
                request_index=distinct_positions[granted],
            )
            funded_keys = {
                normalized[position].batch_key()
                for position in distinct_positions[:granted]
            }
            funded = [request for request in normalized if request.batch_key() in funded_keys]
        self._note_client(client, submissions=1, requests=len(normalized))
        if not funded:
            raise over
        submission = _Submission(funded, client, tenant)
        with self._cond:
            if self._closed:
                raise ServiceSaturated("coalescer is closed; no further submissions admitted")
            self._pending.append(submission)
            self._pending_requests += len(funded)
            if self._first_at is None:
                self._first_at = time.monotonic()
            inline = self._eager and self._held == 0
            self._cond.notify_all()
        with self._stats_lock:
            self._stats["submissions"] += 1
        if inline:
            self.flush()
        submission.event.wait()
        if submission.error is not None:
            raise submission.error
        if over is not None:
            raise over
        assert submission.results is not None
        return submission.results

    # ---------------------------------------------------------------- flushing
    def flush(self) -> int:
        """Serve everything pending as one merged backend batch.

        Returns the number of submissions served (0 when nothing was
        pending — an empty flush is a no-op, never a backend call).  A
        failing backend call delivers its exception to every waiting
        submission instead of propagating here, so a flusher-thread failure
        can never strand waiters.
        """
        with self._flush_lock:
            with self._cond:
                batch = self._pending
                self._pending = []
                self._pending_requests = 0
                self._first_at = None
            if not batch:
                return 0
            merged = [request for submission in batch for request in submission.requests]
            self._note_flush(batch, merged)
            try:
                completions = self.backend.complete_batch(merged)
            except BackendError:
                # Tenant fault isolation: a backend fault inside a merged
                # flush must not fail every rider.  Re-serve each
                # submission individually, in admission order, so only the
                # submissions whose own requests fault see an error.
                with self._stats_lock:
                    self._stats["errors"] += 1
                    self._stats["isolated_flushes"] += 1
                self._serve_isolated(batch)
                self._notify_observer(batch, merged, ok=False)
                return len(batch)
            except BaseException as exc:  # noqa: BLE001 - delivered to waiters
                with self._stats_lock:
                    self._stats["errors"] += 1
                for submission in batch:
                    submission.error = exc
                    submission.event.set()
                self._notify_observer(batch, merged, ok=False)
                return len(batch)
            offset = 0
            for submission in batch:
                count = len(submission.requests)
                submission.results = list(completions[offset : offset + count])
                offset += count
                submission.event.set()
            self._notify_observer(batch, merged, ok=True)
            return len(batch)

    def _serve_isolated(self, batch: "list[_Submission]") -> None:
        """Degraded re-serve after a merged-flush fault: one call per rider.

        Runs under the flush lock, in admission order, so the fallback is
        as deterministic as the merge it replaces.  Submissions whose own
        requests still fault get *their* error; everyone else gets served —
        one tenant's faults never take down a neighbour.  (The backend's
        own dedupe/memoization keeps the re-serve from recomputing what a
        retry layer below already converged on.)
        """
        for submission in batch:
            try:
                submission.results = list(self.backend.complete_batch(submission.requests))
            except BaseException as exc:  # noqa: BLE001 - delivered to the one waiter
                submission.error = exc
                with self._stats_lock:
                    self._stats["tenant_faults"] += 1
            submission.event.set()

    def _flush_loop(self) -> None:
        """The flusher thread: window / size / expected-clients triggers."""
        while True:
            with self._cond:
                while not self._closed and not self._pending:
                    self._cond.wait()
                if self._closed and not self._pending:
                    return
                deadline = (self._first_at or time.monotonic()) + self.window
                while not self._closed and self._pending:
                    if self._pending_requests >= self.max_batch:
                        break
                    if 2 <= self._expected <= len(self._pending):
                        break
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(timeout=remaining)
            self.flush()

    @contextmanager
    def hold(self):
        """Suspend eager/inline flushing while the block runs (tests).

        Submissions made (from other threads) inside a ``hold`` accumulate;
        the exit of the outermost hold flushes them as one merged batch in
        admission order.
        """
        with self._cond:
            self._held += 1
        try:
            yield self
        finally:
            with self._cond:
                self._held -= 1
                release = self._held == 0
            if release:
                self.flush()

    def set_eager(self, eager: bool) -> None:
        """Toggle inline flushing (used by the service at ≤1 job in flight).

        Eager submissions flush themselves synchronously, so a lone job's
        backend batch sequence is exactly the CLI path's.  Drain-mode
        coalescers are permanently eager.
        """
        with self._cond:
            self._eager = bool(eager) or self.drain
            flush_now = self._eager and self._held == 0 and bool(self._pending)
            self._cond.notify_all()
        if flush_now:
            self.flush()

    def set_expected(self, clients: int) -> None:
        """Hint how many clients are actively submitting (jobs in flight)."""
        with self._cond:
            self._expected = max(0, clients)
            self._cond.notify_all()

    def wait_for_pending(self, count: int, timeout: float = 5.0) -> bool:
        """Block until ``count`` submissions are pending (test helper)."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while len(self._pending) < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(timeout=remaining)
            return True

    def close(self) -> None:
        """Refuse new submissions, stop the flusher, flush what is pending."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.flush()

    # ------------------------------------------------------------- statistics
    def _note_client(self, client: str | None, **deltas: int) -> None:
        if client is None:
            return
        with self._stats_lock:
            entry = self._clients.setdefault(client, dict.fromkeys(_CLIENT_FIELDS, 0))
            for key, delta in deltas.items():
                entry[key] += delta

    def _notify_observer(self, batch: list[_Submission], merged: list[LLMRequest], *, ok: bool) -> None:
        observer = self.observer
        if observer is None:
            return
        try:
            observer(
                {
                    "submissions": len(batch),
                    "requests": len(merged),
                    "distinct": len({request.batch_key() for request in merged}),
                    "ok": ok,
                }
            )
        except Exception as error:  # noqa: BLE001 - observers must not break serving
            with self._stats_lock:
                self._stats["observer_errors"] += 1
            handler = self.on_observer_error
            if handler is not None:
                try:
                    handler(error)
                except Exception:  # noqa: BLE001 - nowhere left to report to
                    pass

    def _note_flush(self, batch: list[_Submission], merged: list[LLMRequest]) -> None:
        """Record one flush: merge/dedupe accounting plus per-kind batch sizes.

        ``queries_saved_by_coalescing`` counts requests whose batch key
        already appeared earlier in the merged batch under a *different*
        submission — the round-trips-worth of work the merge absorbed —
        credited to the submission that got the free ride.
        """
        seen_owner: dict[tuple, _Submission] = {}
        kind_counts: dict[str, int] = {}
        saved_total = 0
        saved_by_client: dict[str, int] = {}
        for submission in batch:
            for request in submission.requests:
                key = request.batch_key()
                owner = seen_owner.get(key)
                if owner is None:
                    seen_owner[key] = submission
                elif owner is not submission:
                    saved_total += 1
                    if submission.client is not None:
                        saved_by_client[submission.client] = (
                            saved_by_client.get(submission.client, 0) + 1
                        )
                kind = request.prompt.kind
                kind_counts[kind] = kind_counts.get(kind, 0) + 1
        with self._stats_lock:
            self._stats["flushes"] += 1
            if len(batch) > 1:
                self._stats["merged_flushes"] += 1
            self._stats["requests"] += len(merged)
            self._stats["distinct_requests"] += len(seen_owner)
            self._stats["queries_saved_by_coalescing"] += saved_total
            self._stats["max_merged_batch"] = max(self._stats["max_merged_batch"], len(merged))
            for kind, count in kind_counts.items():
                entry = self._by_kind.setdefault(
                    kind, {"batches": 0, "requests": 0, "max_batch": 0}
                )
                entry["batches"] += 1
                entry["requests"] += count
                entry["max_batch"] = max(entry["max_batch"], count)
            for submission in batch:
                if submission.client is None:
                    continue
                entry = self._clients.get(submission.client)
                if entry is not None:
                    entry["flushes_joined"] += 1
                    entry["queries_saved_by_coalescing"] += saved_by_client.get(
                        submission.client, 0
                    )

    def stats(self) -> dict:
        """Coalescer-wide counters plus the per-kind batch-size breakdown."""
        with self._stats_lock:
            return {
                **self._stats,
                "by_kind": {kind: dict(entry) for kind, entry in self._by_kind.items()},
            }

    def client_stats(self, client: str) -> dict:
        """One client's (job's) coalescing accounting; zeros when unknown."""
        with self._stats_lock:
            return dict(self._clients.get(client) or dict.fromkeys(_CLIENT_FIELDS, 0))

    def release_client(self, client: str) -> dict:
        """:meth:`client_stats` for a client that is done, which is then forgotten.

        The job service calls it once per job, at job end, so the coalescer
        keeps no per-job entry for the life of the service.
        """
        with self._stats_lock:
            return self._clients.pop(client, None) or dict.fromkeys(_CLIENT_FIELDS, 0)


class CoalescingBackend(LLMBackend):
    """A per-session handle onto a shared :class:`BatchCoalescer`.

    One instance per job: it stamps every batch with the job's tenant (for
    budget accounting) and client id (for per-job statistics), and its own
    usage meter records the job's view of the traffic — so per-job usage is
    attributable even though the backend round-trips are shared.

    Picklability: a process-pool worker cannot reach the parent's coalescer,
    so pickling drops it and the unpickled copy is a transparent pass-through
    to its own copy of ``inner`` — worker-side traffic is served locally, at
    worker-batch granularity, exactly like every other pickled backend.
    """

    def __init__(
        self,
        coalescer: BatchCoalescer | None,
        *,
        inner: LLMBackend | None = None,
        tenant: str | None = None,
        client: str | None = None,
    ):
        resolved = inner if inner is not None else (coalescer.backend if coalescer else None)
        if resolved is None:
            raise ValueError("CoalescingBackend needs a coalescer or an inner backend")
        super().__init__(model=f"coalesced({resolved.model})")
        self.coalescer = coalescer
        self.inner = resolved
        self.tenant = tenant
        self.client = client

    def store_profile(self) -> str:
        """Delegate to the wrapped backend: coalescing never changes completions.

        This is what lets a ``serve --store`` warm cache interoperate with
        the batch CLI's: both derive keys from the underlying analyst, so
        artifacts recorded by one are hits for the other.
        """
        return self.inner.store_profile()

    def complete_batch(self, requests: "Sequence[LLMRequest | Prompt]") -> list[Completion]:
        normalized = [LLMRequest.of(item) for item in requests]
        if not normalized:
            return []
        if self.coalescer is None:
            completions = self.inner.complete_batch(normalized)
        else:
            completions = self.coalescer.submit(
                normalized, tenant=self.tenant, client=self.client
            )
        self.usage.record_batch(
            (request.prompt, completion)
            for request, completion in zip(normalized, completions)
        )
        return completions

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["coalescer"] = None
        return state


__all__ = ["BatchCoalescer", "CoalescingBackend"]
