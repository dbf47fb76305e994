"""Retry policies, circuit breakers and the resilient backend wrapper.

The recovery half of the resilience layer (:mod:`repro.llm.faults` is the
failure half).  Three pieces:

* :class:`RetryPolicy` — capped exponential backoff whose jitter is a
  seeded hash of ``(key, attempt)``, not a wall-clock RNG, so two runs of
  the same workload back off identically and determinism rule 11 extends
  to the retry schedule itself;
* :class:`ResilientBackend` — wraps any backend with **batch-aware partial
  retry**: a failing ``complete_batch`` that attached batch state
  (:meth:`~repro.errors.BackendError.attach_batch_state`) has only its
  failed sub-requests re-sent, so served requests are never re-charged and
  budgets still charge distinct queries exactly once.  Permanent faults
  fail fast; transient faults retry until the policy's attempt cap, then
  re-raise the last error stamped with ``attempts``;
* :class:`CircuitBreaker` — a count-based closed → open → half-open state
  machine (no wall clocks: deterministic under any scheduler).  The
  :class:`~repro.llm.pool.BackendPool` keeps one per member and fails
  routed requests over to healthy members in declaration order.

Like every transparent wrapper, ``ResilientBackend`` delegates
``store_profile`` and *shares* the inner usage meter: retries change how
many round-trips carry a completion, never which completion — or how much
usage — a request produces.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..errors import BackendError, RateLimited
from .backend import Completion, LLMBackend, LLMRequest, Prompt
from .faults import request_digest


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with seeded deterministic jitter."""

    max_attempts: int = 4
    base_delay: float = 0.0
    max_delay: float = 0.25
    multiplier: float = 2.0
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    @classmethod
    def parse(cls, spec: str) -> "RetryPolicy":
        """Build a policy from a ``--retry`` CLI spec.

        Comma-separated ``key=value`` fields: ``attempts``, ``base`` and
        ``max`` (seconds), ``multiplier``, ``seed``.  A bare number is
        shorthand for ``attempts=N``.
        """
        fields: dict[str, object] = {}
        names = {
            "attempts": ("max_attempts", int),
            "base": ("base_delay", float),
            "max": ("max_delay", float),
            "multiplier": ("multiplier", float),
            "seed": ("jitter_seed", int),
        }
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, separator, value = part.partition("=")
            if not separator:
                key, value = "attempts", key
            key, value = key.strip(), value.strip()
            if key not in names:
                raise ValueError(f"bad retry spec {spec!r}: unknown field {key!r}")
            attr, cast = names[key]
            try:
                fields[attr] = cast(value)
            except ValueError:
                raise ValueError(f"bad retry spec {spec!r}: {key}={value!r}") from None
        return cls(**fields)  # type: ignore[arg-type]

    def describe(self) -> str:
        return (
            f"attempts={self.max_attempts},base={self.base_delay},"
            f"max={self.max_delay},seed={self.jitter_seed}"
        )

    def delay_for(self, attempt: int, key: str, *, retry_after: float = 0.0) -> float:
        """Backoff before retry number ``attempt`` (1 = first retry).

        The exponential base is jittered into ``[0.5, 1.0)`` of itself by a
        hash of ``(jitter_seed, key, attempt)`` — herd-thinning like random
        jitter, reproducible like everything else here.  ``retry_after``
        (a rate-limited backend's explicit ask) is a lower bound.
        """
        base = min(self.max_delay, self.base_delay * (self.multiplier ** max(0, attempt - 1)))
        payload = f"retry-jitter-v1\x00{self.jitter_seed}\x00{key}\x00{attempt}"
        draw = hashlib.sha256(payload.encode("utf-8")).digest()
        factor = 0.5 + (int.from_bytes(draw[:8], "big") / 2**64) * 0.5
        return max(base * factor, max(0.0, retry_after))


#: Circuit-breaker states.
BREAKER_CLOSED, BREAKER_OPEN, BREAKER_HALF_OPEN = "closed", "open", "half-open"


class CircuitBreaker:
    """Count-based breaker: open after N consecutive failures, probe, close.

    All transitions are driven by call counts, never wall clocks, so a
    breaker's behaviour is a pure function of its event sequence:

    * **closed** — requests flow; ``threshold`` consecutive failures open it;
    * **open** — requests are denied; every ``probe_interval``-th denial
      admits one **half-open** probe instead;
    * **half-open** — the probe is in flight; its success closes the
      breaker, its failure re-opens it (denial count reset).

    ``on_transition`` (if set) is called as ``(old_state, new_state)``
    under the breaker lock — keep it cheap and non-reentrant.
    """

    def __init__(self, threshold: int = 3, *, probe_interval: int = 4):
        if threshold < 1:
            raise ValueError(f"breaker threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.probe_interval = max(1, probe_interval)
        self.on_transition: Callable[[str, str], None] | None = None
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._denied_since_open = 0
        self._transitions = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _move(self, new_state: str) -> None:
        old_state, self._state = self._state, new_state
        self._transitions += 1
        if self.on_transition is not None:
            self.on_transition(old_state, new_state)

    def allow(self) -> bool:
        """Whether the next request may go to the guarded backend."""
        with self._lock:
            if self._state == BREAKER_CLOSED:
                return True
            if self._state == BREAKER_OPEN:
                self._denied_since_open += 1
                if self._denied_since_open % self.probe_interval == 0:
                    self._move(BREAKER_HALF_OPEN)
                    return True
                return False
            # Half-open: exactly one probe in flight; hold everything else.
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            if self._state != BREAKER_CLOSED:
                self._denied_since_open = 0
                self._move(BREAKER_CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if self._state == BREAKER_HALF_OPEN:
                self._denied_since_open = 0
                self._move(BREAKER_OPEN)
            elif self._state == BREAKER_CLOSED and (
                self._consecutive_failures >= self.threshold
            ):
                self._denied_since_open = 0
                self._move(BREAKER_OPEN)

    def stats(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "transitions": self._transitions,
            }

    # Breakers ride inside pickled pools; the lock is recreated and the
    # observer dropped (it closes over parent-process state).
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_lock", None)
        state["on_transition"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


@dataclass
class RetryStats:
    """Worker-local retry accounting for one :class:`ResilientBackend`."""

    batches: int = 0
    retries: int = 0
    recovered_requests: int = 0
    exhausted: int = 0
    failed_fast: int = 0
    slept: float = 0.0
    by_error: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "batches": self.batches,
            "retries": self.retries,
            "recovered_requests": self.recovered_requests,
            "exhausted": self.exhausted,
            "failed_fast": self.failed_fast,
            "slept": round(self.slept, 6),
            "by_error": dict(self.by_error),
        }


class ResilientBackend(LLMBackend):
    """Batch-aware retry wrapper over any backend.

    ``on_retry`` (if set) receives one dict per scheduled retry —
    ``{"attempt", "failed", "error", "delay"}`` — the serving layer's
    event-log hook.  ``sleep`` is injectable for tests and defaults to
    :func:`time.sleep`; with the default zero ``base_delay`` the policy
    sleeps only when a rate-limited fault asks for ``retry_after``.
    """

    def __init__(
        self,
        inner: LLMBackend,
        policy: RetryPolicy | None = None,
        *,
        sleep: Callable[[float], None] = time.sleep,
        on_retry: "Callable[[dict], None] | None" = None,
    ):
        super().__init__(model=f"resilient({inner.model})")
        self.inner = inner
        self.policy = policy or RetryPolicy()
        self.on_retry = on_retry
        self.stats = RetryStats()
        self._sleep = sleep
        self._stats_lock = threading.Lock()

        # Transparent metering: the inner backend charges each distinct
        # request exactly once (on the attempt that serves it), and this
        # wrapper adds nothing on top.
        self.usage = inner.usage

    def store_profile(self) -> str:
        """Delegate: retries never change which completion a prompt yields."""
        return self.inner.store_profile()

    def remaining_budget(self) -> int | None:
        return self.inner.remaining_budget()

    def complete_batch(self, requests: "Sequence[LLMRequest | Prompt]") -> list[Completion]:
        normalized = [LLMRequest.of(item) for item in requests]
        if not normalized:
            return []
        with self._stats_lock:
            self.stats.batches += 1
        results: list[Completion | None] = [None] * len(normalized)
        pending = list(range(len(normalized)))
        attempt = 1
        while True:
            sub = [normalized[position] for position in pending]
            try:
                completions = self.inner.complete_batch(sub)
            except BackendError as error:
                pending, retry_after = self._absorb_failure(
                    error, sub, pending, results, attempt
                )
                key = request_digest(normalized[pending[0]])
                delay = self.policy.delay_for(attempt, key, retry_after=retry_after)
                self._note_retry(attempt, error, pending, delay)
                if delay > 0.0:
                    self._sleep(delay)
                attempt += 1
                continue
            for position, completion in zip(pending, completions):
                results[position] = completion
            if attempt > 1:
                with self._stats_lock:
                    self.stats.recovered_requests += len(pending)
            return results  # type: ignore[return-value]

    def _absorb_failure(
        self,
        error: BackendError,
        sub: list[LLMRequest],
        pending: list[int],
        results: "list[Completion | None]",
        attempt: int,
    ) -> tuple[list[int], float]:
        """Fold one failed attempt's partial outcome into ``results``.

        Returns the still-failed positions (into the original batch) and
        the largest ``retry_after`` any rate-limited sub-request asked for.
        Re-raises immediately — stamped with ``attempts`` — on permanent
        faults and on policy exhaustion.
        """
        served = error.served if error.served is not None else {}
        for relative, completion in served.items():
            results[pending[relative]] = completion
        failures = list(error.failed) if error.failed else []
        # Every unserved position must be accounted for: a raiser that
        # reported neither success nor failure for a position (no batch
        # state at all, or a gap) gets it retried, never silently dropped.
        covered = set(served) | {relative for relative, _ in failures}
        failures.extend(
            (relative, error) for relative in range(len(sub)) if relative not in covered
        )
        failures.sort(key=lambda entry: entry[0])
        if not failures:
            failures = [(0, error)]
        # Re-raises carry batch state re-mapped to *this* call's request
        # frame (the attach contract), covering everything served across
        # all attempts so far — an upstream retry/failover layer re-sends
        # only what is still missing.
        full_served = {
            position: completion
            for position, completion in enumerate(results)
            if completion is not None
        }
        full_failed = tuple((pending[relative], exc) for relative, exc in failures)
        permanent = [entry for entry in failures if not getattr(entry[1], "is_transient", False)]
        if permanent:
            with self._stats_lock:
                self.stats.failed_fast += 1
            fatal = permanent[0][1]
            fatal.attempts = attempt
            fatal.attach_batch_state(full_served, full_failed)
            raise fatal
        if attempt >= self.policy.max_attempts:
            with self._stats_lock:
                self.stats.exhausted += 1
            error.attempts = attempt
            error.attach_batch_state(full_served, full_failed)
            raise error
        retry_after = max(
            (getattr(entry[1], "retry_after", 0.0) for entry in failures),
            default=0.0,
        )
        if isinstance(error, RateLimited):
            retry_after = max(retry_after, error.retry_after)
        return [pending[relative] for relative, _ in failures], retry_after

    def _note_retry(
        self, attempt: int, error: BackendError, pending: list[int], delay: float
    ) -> None:
        with self._stats_lock:
            self.stats.retries += 1
            self.stats.slept += delay
            name = type(error).__name__
            self.stats.by_error[name] = self.stats.by_error.get(name, 0) + 1
        hook = self.on_retry
        if hook is not None:
            try:
                hook(
                    {
                        "attempt": attempt,
                        "failed": len(pending),
                        "error": f"{type(error).__name__}: {error}",
                        "delay": round(delay, 6),
                    }
                )
            except Exception:  # noqa: BLE001 - observers must not break serving
                pass

    # The sleep callable and retry hook close over parent-process state;
    # worker copies fall back to the defaults, counters start fresh.
    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state.pop("_stats_lock", None)
        state.pop("_sleep", None)
        state["on_retry"] = None
        state["stats"] = RetryStats()
        return state

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self._stats_lock = threading.Lock()
        self._sleep = time.sleep


def resilient_analyst(
    backend: LLMBackend,
    *,
    fault_plan: str | None = None,
    retry_spec: str | None = None,
) -> LLMBackend:
    """Apply the configured fault/retry wrappers around an analyst backend.

    ``fault_plan`` and ``retry_spec`` are the raw ``--fault-plan`` /
    ``--retry`` CLI strings (hashable config fields).  Injecting faults
    without a retry policy would make runs fail by design, so a fault plan
    implies the default :class:`RetryPolicy` unless ``retry_spec`` is
    ``"off"`` (targeted failure tests).
    """
    from .faults import FaultPlan, FaultyBackend

    if fault_plan:
        backend = FaultyBackend(backend, FaultPlan.parse(fault_plan))
    if retry_spec == "off":
        return backend
    if retry_spec or fault_plan:
        policy = RetryPolicy.parse(retry_spec) if retry_spec else RetryPolicy()
        backend = ResilientBackend(backend, policy)
    return backend


def wire_resilience_events(backend: LLMBackend, emit: "Callable[[str, dict], None]") -> None:
    """Attach event-log hooks down a wrapper chain (serve ``--events``).

    Walks ``inner`` links from the outermost backend: every
    :class:`ResilientBackend` gets an ``on_retry`` hook and every pool
    member breaker an ``on_transition`` hook, each forwarding to
    ``emit(event_type, fields)``.
    """
    from .pool import BackendPool

    seen: set[int] = set()
    node: LLMBackend | None = backend
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        if isinstance(node, ResilientBackend):
            node.on_retry = lambda info: emit("backend_retry", dict(info))
        if isinstance(node, BackendPool):
            for name, breaker in getattr(node, "breakers", {}).items():
                def observer(old: str, new: str, member: str = name) -> None:
                    emit("breaker_transition", {"member": member, "from": old, "to": new})

                breaker.on_transition = observer
        node = getattr(node, "inner", None)


__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "ResilientBackend",
    "RetryPolicy",
    "RetryStats",
    "resilient_analyst",
    "wire_resilience_events",
]
