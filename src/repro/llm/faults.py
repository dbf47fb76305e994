"""Deterministic fault injection for the LLM serving stack.

Resilience code that is only ever exercised by real outages is dead code
until the worst moment; this module makes faults a first-class, *seeded*
input instead.  A :class:`FaultPlan` is a pure function from
``(route, prompt digest, occurrence)`` to "inject this fault kind or
nothing", derived from a seed the same way the engine derives per-task
seeds — so a chaos run is exactly as reproducible as a fault-free one, and
determinism rule 11 (DESIGN.md) can demand byte-identical final outputs
across jobs × executor × fault rate.

:class:`FaultyBackend` applies a plan in front of any backend.  Faults are
raised *before* the inner backend sees the request, so a faulted request is
never metered or budget-charged until the attempt that actually serves it —
which is what keeps usage totals identical to the fault-free run once a
retry layer converges.  The non-faulted remainder of a batch is still
served (one inner ``complete_batch``), and the raised error carries that
partial outcome (:meth:`~repro.errors.BackendError.attach_batch_state`) so
retry layers re-send only what failed.

Occurrence counters belong to one backend object, the same contract as the
replay backend: a pickled copy starts them at zero, so every copy sees a
self-consistent fault schedule starting at occurrence zero.  Keys are
per ``(route, digest)``, so concurrent batches cannot interleave their way
into different fault decisions for the same request.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Sequence

from ..errors import (
    BackendError,
    BackendTimeout,
    MalformedReply,
    RateLimited,
    TransientBackendError,
)
from .backend import Completion, LLMBackend, LLMRequest, Prompt

#: Injectable fault kinds, in schedule-draw order (the order is part of the
#: plan's determinism contract — reordering changes which fault a draw maps
#: to).  "permanent" is available for targeted tests but excluded from the
#: default rotation: a default chaos run must converge under retries.
FAULT_KINDS = ("transient", "timeout", "rate-limit", "malformed", "permanent")

_DEFAULT_KINDS = ("transient", "timeout", "rate-limit", "malformed")


def request_digest(request: "LLMRequest | Prompt") -> str:
    """The per-request fault key: a digest over the full batch key.

    Covers route + prompt kind/subject/text — the same identity the batch
    dedupe uses — so two requests that could dedupe to one completion also
    share one fault schedule.
    """
    request = LLMRequest.of(request)
    route, kind, subject, text = request.batch_key()
    payload = f"{route or ''}\x00{kind}\x00{subject}\x00{text}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class FaultPlan:
    """A picklable, seed-derived fault schedule.

    ``fault_for`` draws from a hash of ``(seed, route, digest, occurrence)``
    — no mutable RNG state — so any two plan instances with equal fields
    agree on every decision, across threads, processes and interpreter
    runs.  ``max_faults_per_key`` caps consecutive injections per request
    key: with the default cap of 2 (below any sane retry budget) every
    request is guaranteed to succeed by its third attempt, which is what
    makes chaos runs converge to the fault-free output.
    """

    rate: float = 0.0
    seed: int = 0
    kinds: tuple[str, ...] = _DEFAULT_KINDS
    max_faults_per_key: int = 2
    retry_after: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        for kind in self.kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r}; choose from {', '.join(FAULT_KINDS)}"
                )
        if not self.kinds:
            raise ValueError("a FaultPlan needs at least one fault kind")

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a ``--fault-plan`` CLI spec.

        Comma-separated ``key=value`` fields: ``rate`` (required),
        ``seed``, ``max`` (faults per key), ``retry-after`` (seconds), and
        ``kinds`` as a ``+``-joined list, e.g.
        ``rate=0.2,seed=11,kinds=timeout+rate-limit``.  A bare number is
        shorthand for ``rate=N``.
        """
        fields: dict[str, object] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, separator, value = part.partition("=")
            if not separator:
                key, value = "rate", key
            key, value = key.strip(), value.strip()
            try:
                if key == "rate":
                    fields["rate"] = float(value)
                elif key == "seed":
                    fields["seed"] = int(value)
                elif key == "max":
                    fields["max_faults_per_key"] = int(value)
                elif key == "retry-after":
                    fields["retry_after"] = float(value)
                elif key == "kinds":
                    fields["kinds"] = tuple(
                        kind.strip() for kind in value.split("+") if kind.strip()
                    )
                else:
                    raise ValueError(f"unknown fault-plan field {key!r}")
            except ValueError as error:
                raise ValueError(f"bad fault-plan spec {spec!r}: {error}") from None
        if "rate" not in fields:
            raise ValueError(f"fault-plan spec {spec!r} needs rate=N")
        return cls(**fields)  # type: ignore[arg-type]

    def describe(self) -> str:
        """A stable one-line summary (CLI/event-log diagnostics)."""
        return (
            f"rate={self.rate},seed={self.seed},max={self.max_faults_per_key},"
            f"kinds={'+'.join(self.kinds)}"
        )

    def fault_for(self, route: str | None, digest: str, occurrence: int) -> str | None:
        """The fault to inject for this attempt, or ``None`` to serve it.

        Pure and stateless: one SHA-256 draw decides both whether to fault
        (first 8 bytes as a uniform draw against ``rate``) and which kind
        (next 4 bytes mod ``len(kinds)``).
        """
        if self.rate <= 0.0 or occurrence >= self.max_faults_per_key:
            return None
        payload = f"fault-plan-v1\x00{self.seed}\x00{route or ''}\x00{digest}\x00{occurrence}"
        draw = hashlib.sha256(payload.encode("utf-8")).digest()
        if int.from_bytes(draw[:8], "big") / 2**64 >= self.rate:
            return None
        return self.kinds[int.from_bytes(draw[8:12], "big") % len(self.kinds)]

    def error_for(
        self, kind: str, request: LLMRequest, occurrence: int
    ) -> BackendError:
        """Construct the typed error for one injected fault."""
        subject = request.prompt.subject
        route = request.route
        where = f"{request.prompt.kind}/{subject}" + (f" via {route}" if route else "")
        detail = f"injected {kind} fault (occurrence {occurrence}) for {where}"
        if kind == "timeout":
            return BackendTimeout(detail, timeout=30.0, route=route, subject=subject)
        if kind == "rate-limit":
            return RateLimited(
                detail, retry_after=self.retry_after, route=route, subject=subject
            )
        if kind == "malformed":
            return MalformedReply(detail, excerpt="<truncated reply>", route=route, subject=subject)
        if kind == "permanent":
            return BackendError(detail, route=route, subject=subject)
        return TransientBackendError(detail, route=route, subject=subject)


@dataclass
class FaultStats:
    """Per-backend injection accounting (worker-local, like the counters)."""

    attempts: int = 0
    faults_injected: int = 0
    by_kind: dict = field(default_factory=dict)

    def note(self, kind: str) -> None:
        self.faults_injected += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1

    def summary(self) -> dict:
        return {
            "attempts": self.attempts,
            "faults_injected": self.faults_injected,
            "by_kind": dict(self.by_kind),
        }


class FaultyBackend(LLMBackend):
    """Injects a :class:`FaultPlan` in front of any backend.

    Transparent when no fault fires: the inner backend serves the batch and
    owns all metering/budget accounting (``self.usage`` *is* the inner
    meter), so layers above — and persistent-store keys, via the delegated
    :meth:`store_profile` — cannot tell the wrapper is there.  When faults
    fire, the non-faulted remainder is still served in one inner call and
    the first faulted position's error raises with the batch state
    attached.
    """

    def __init__(self, inner: LLMBackend, plan: FaultPlan):
        super().__init__(model=f"faulty({inner.model})")
        self.inner = inner
        self.plan = plan
        # Share the inner meter: a faulted request is charged only by the
        # attempt that serves it, so converged totals match fault-free runs.
        self.usage = inner.usage
        self.stats = FaultStats()
        self._counter_lock = threading.Lock()
        self._occurrences: dict[tuple, int] = {}

    def store_profile(self) -> str:
        """Delegate: injected faults never change a *served* completion."""
        return self.inner.store_profile()

    def remaining_budget(self) -> int | None:
        return self.inner.remaining_budget()

    def complete_batch(self, requests: "Sequence[LLMRequest | Prompt]") -> list[Completion]:
        normalized = [LLMRequest.of(item) for item in requests]
        if not normalized:
            return []
        # Distinct keys in first-appearance order; one fault decision per
        # distinct request per attempt, applied at every duplicate position.
        decisions: dict[tuple, tuple[str | None, int]] = {}
        with self._counter_lock:
            for request in normalized:
                key = request.batch_key()
                if key in decisions:
                    continue
                occurrence = self._occurrences.get(key, 0)
                self._occurrences[key] = occurrence + 1
                fault = self.plan.fault_for(request.route, request_digest(request), occurrence)
                decisions[key] = (fault, occurrence)
                self.stats.attempts += 1
        clean_positions = [
            index for index, request in enumerate(normalized)
            if decisions[request.batch_key()][0] is None
        ]
        if len(clean_positions) == len(normalized):
            return self.inner.complete_batch(normalized)
        served: dict[int, Completion] = {}
        if clean_positions:
            completions = self.inner.complete_batch(
                [normalized[index] for index in clean_positions]
            )
            served = dict(zip(clean_positions, completions))
        failed: list[tuple[int, BaseException]] = []
        primary: BackendError | None = None
        for index, request in enumerate(normalized):
            fault, occurrence = decisions[request.batch_key()]
            if fault is None:
                continue
            error = self.plan.error_for(fault, request, occurrence)
            failed.append((index, error))
            if primary is None:
                primary = error
                self.stats.note(fault)
        assert primary is not None
        primary.attach_batch_state(served, tuple(failed))
        raise primary

    # Worker-local occurrence counters: a pickled copy starts its schedule
    # at occurrence zero, the same contract as the replay backend's cursor.
    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state.pop("_counter_lock", None)
        state["_occurrences"] = {}
        state["stats"] = FaultStats()
        return state

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self._counter_lock = threading.Lock()


__all__ = ["FAULT_KINDS", "FaultPlan", "FaultStats", "FaultyBackend", "request_digest"]
