"""The deterministic task-execution engine.

:class:`ExecutionEngine` is the one scheduler the front doors fan work
through: the experiment runner fans out whole tables, ``campaign`` and
``diff`` fan out DAG waves, and the fuzzer fans out per-seed campaigns.
Spec generation runs its handlers in a plain loop and uses the engine for
memoization and profiling only.  It bundles

* an :class:`~repro.engine.executors.Executor` chosen by the ``jobs`` knob
  (serial, thread pool or process pool);
* two single-flight memo caches — ``extract_cache`` for extractor lookups
  and ``llm_cache`` for LLM queries — plus a ``result_cache`` for whole
  generation sessions, all with hit/miss statistics;
* an :class:`~repro.engine.profile.EngineProfile` collecting per-stage wall
  times.

The engine is deliberately agnostic about *what* runs: tasks are plain
callables, and results always come back in submission order so callers can
rebuild deterministic aggregates no matter how the schedule interleaved.
"""

from __future__ import annotations

import threading
from typing import Sequence

from ..llm import LLMRequest
from .cache import MemoCache
from .executors import Executor, create_executor
from .profile import EngineProfile
from .tasks import TaskResult, TaskSpec


class ExecutionEngine:
    """Deterministic scheduler + memoization + instrumentation."""

    def __init__(
        self,
        *,
        jobs: int = 1,
        kind: str = "thread",
        executor: Executor | None = None,
        store: "object | None" = None,
    ):
        self.jobs = max(1, jobs)
        self.executor = executor or create_executor(self.jobs, kind)
        #: Optional :class:`~repro.store.StoreBinding`: the persistent
        #: complement to the memo caches.  The caches stay the first line
        #: (in-memory, single-flight); the store is consulted *inside* their
        #: compute callbacks — a memo miss hydrates from disk before paying
        #: for recomputation, and fresh computations are written through.
        self.store = store
        self.extract_cache = MemoCache("extract")
        self.llm_cache = MemoCache("llm")
        #: Whole generation sessions, keyed by (generator, mode, handler) —
        #: regenerating a handler the run already produced (table 5/6, the
        #: ablations) is a cache hit, and two workers asking for the same
        #: handler concurrently collapse into one session (single-flight).
        self.result_cache = MemoCache("session")
        self.profile = EngineProfile()
        # Identity tokens for cache-key participants (backends, extractors).
        # Keying by the object pins a strong reference, so — unlike raw
        # ``id()`` — a token can never be reused after garbage collection.
        self._token_lock = threading.Lock()
        self._participant_tokens: dict[object, int] = {}

    @property
    def shares_memory(self) -> bool:
        """Whether tasks run in the caller's address space (see Executor)."""
        return self.executor.shares_memory

    # ------------------------------------------------------------- scheduling
    def run_tasks(
        self,
        stage: str,
        tasks: Sequence[TaskSpec],
        *,
        rethrow: bool = True,
    ) -> list[TaskResult]:
        """Run a batch of tasks, returning results in submission order.

        With ``rethrow=True`` (the default) the first failed task's exception
        is re-raised after the whole batch finished; ``rethrow=False`` leaves
        failures in ``TaskResult.error`` for the caller to triage.
        """
        with self.profile.measure(stage):
            results = self.executor.run(tasks)
        for result in results:
            self.profile.record(f"{stage}/task", result.duration)
        if rethrow:
            for result in results:
                if result.error is not None:
                    raise result.error
        return results

    # ------------------------------------------------------------ memoization
    def token(self, participant: object) -> int:
        """A stable per-object token for composing cache keys."""
        with self._token_lock:
            token = self._participant_tokens.get(participant)
            if token is None:
                token = len(self._participant_tokens)
                self._participant_tokens[participant] = token
            return token

    def _llm_key(self, backend, request) -> tuple:
        """The LLM memo key: backend identity token + route + full prompt.

        Two backends with the same model string but different error profiles
        never serve each other's completions, and — because the route is
        part of the key — neither do two routes through the same
        :class:`~repro.llm.BackendPool` (same prompt, different member).
        """
        prompt = request.prompt
        return ("llm", self.token(backend), request.route, prompt.kind, prompt.subject, prompt.text)

    def cached_query(self, backend, prompt, *, route: str | None = None):
        """Memoized single LLM query (a one-element :meth:`cached_query_batch`).

        Single-flight computation keeps the backend's usage meter at exactly
        one recorded query per distinct prompt, independent of ``jobs``.
        """
        return self.cached_query_batch(backend, (LLMRequest(prompt=prompt, route=route),))[0]

    def cached_query_batch(self, backend, requests):
        """Memoized ``backend.complete_batch(requests)``, results in request order.

        Single-flight **per distinct prompt across concurrent batches**: of
        all in-flight batches asking for the same (backend, route, prompt),
        exactly one computes it and the rest wait for that completion.  The
        misses this batch owns are forwarded to the backend as one
        ``complete_batch`` call, so batch granularity — the backend's atomic
        budget reservation and per-batch metering — survives memoization.
        With a store bound, owned misses first hydrate from disk and only
        the remainder reaches the backend (still as one batch).
        """
        normalized = [LLMRequest.of(item) for item in requests]
        keys = [self._llm_key(backend, request) for request in normalized]

        def compute_many(owned_positions: list[int]):
            owned = [normalized[position] for position in owned_positions]
            if self.store is None:
                return backend.complete_batch(owned)
            return self.store.complete_batch_through(backend, owned)

        return self.llm_cache.get_or_compute_many(keys, compute_many)

    def cached_extract(self, extractor, identifier: str) -> str:
        """Memoized ``extractor.extract_code(identifier)``."""
        key = (self.token(extractor), identifier)
        if self.store is None:
            return self.extract_cache.get_or_compute(
                key, lambda: extractor.extract_code(identifier)
            )
        return self.extract_cache.get_or_compute(
            key, lambda: self.store.extract_through(extractor, identifier)
        )

    def cached_session(self, generator, flavor: str, mode: str, handler_name: str, compute):
        """Memoized whole generation session (single-flight, store-hydrated).

        The result-cache key stays engine-local (participant token), so two
        generators sharing one engine keep separate memo namespaces; the
        store key underneath is cross-run canonical
        (:func:`repro.store.session_key`), so a warm engine hydrates
        sessions recorded by an earlier process — the service-restart and
        frozen-replay path.
        """
        key = (self.token(generator), flavor, mode, handler_name)
        if self.store is None:
            return self.result_cache.get_or_compute(key, compute)
        return self.result_cache.get_or_compute(
            key,
            lambda: self.store.session_through(generator, flavor, mode, handler_name, compute),
        )

    # --------------------------------------------------------------- reporting
    def cache_stats(self) -> dict[str, dict]:
        stats = {
            "extract": self.extract_cache.stats.as_dict(),
            "llm": self.llm_cache.stats.as_dict(),
            "session": self.result_cache.stats.as_dict(),
        }
        if self.store is not None:
            # ``store:<kind>`` rows share the CacheStats dict shape, so the
            # --profile renderers (runner and serve) print them unchanged.
            stats.update(self.store.stats())
        return stats


__all__ = ["ExecutionEngine"]
