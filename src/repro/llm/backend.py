"""The analysis-LLM interface: prompts, completions, budgets, capability profiles.

KernelGPT is model-agnostic (§4 "Analysis LLM"); the pipeline only needs a
backend that accepts a textual prompt and returns a textual completion in the
structured reply format described in :mod:`repro.llm.prompts`.  This module
defines that interface plus:

* :class:`UsageMeter` — token/query accounting (the paper reports ~5.56M
  input tokens, 400K output tokens, $34 for the full generation run);
* :class:`CapabilityProfile` — the knob set that distinguishes a GPT-4-class
  analyst from weaker models in the LLM-choice ablation (§5.2.3);
* :class:`LLMRequest` — one routable unit of a batched query;
* :class:`LLMBackend` — the abstract base class all backends implement.

The query surface is **batched**: :meth:`LLMBackend.complete_batch` is the
primitive every backend implements, and :meth:`LLMBackend.query` is a thin
one-element shim over it.  Real providers amortize per-call overhead across
batched requests (the paper's ~$34 / 5.56M-input-token cost story assumes
as much), so budget reservation, usage metering and in-batch deduplication
all live at batch granularity — see :meth:`LLMBackend._serve_batch` for the
exact contract.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..errors import BackendError, LLMBudgetExceeded


@dataclass(frozen=True)
class Prompt:
    """One prompt sent to the analysis LLM.

    ``kind`` identifies the pipeline stage (``identifier``, ``type``,
    ``dependency``, ``repair``, ``all-in-one``); ``subject`` the handler or
    definition under analysis; ``text`` the full rendered prompt.
    """

    kind: str
    subject: str
    text: str

    def approximate_tokens(self) -> int:
        """Cheap token estimate (4 characters per token, the usual rule of thumb)."""
        return max(1, len(self.text) // 4)


@dataclass(frozen=True)
class Completion:
    """A completion returned by a backend."""

    text: str
    model: str

    def approximate_tokens(self) -> int:
        return max(1, len(self.text) // 4)


@dataclass(frozen=True)
class LLMRequest:
    """One unit of a batched query: a prompt plus routing metadata.

    ``route`` is an opaque routing tag — a capability-profile name, a stage
    kind, anything a :class:`~repro.llm.pool.BackendPool` maps to a member
    backend.  Plain backends ignore it (their completion is a pure function
    of the prompt), but it still participates in cache keys so that routed
    and unrouted asks of the same prompt never serve each other's
    completions.  ``request_id`` is an optional caller-chosen label carried
    through for attribution; it never affects the completion.
    """

    prompt: Prompt
    route: str | None = None
    request_id: str | None = None

    @classmethod
    def of(cls, item: "LLMRequest | Prompt") -> "LLMRequest":
        """Normalize a bare prompt into an unrouted request."""
        return item if isinstance(item, LLMRequest) else cls(prompt=item)

    def batch_key(self) -> tuple:
        """The in-batch dedupe key: full prompt content plus the route."""
        return (self.route, self.prompt.kind, self.prompt.subject, self.prompt.text)


@dataclass
class UsageMeter:
    """Accumulates query/token usage across a generation run.

    Recording is guarded by a lock: one backend may serve many concurrent
    generation sessions (a service job's handler sessions), and lost updates
    would make usage totals schedule-dependent.

    Meters are picklable (the lock is dropped and recreated), along with
    the backends that own them.
    """

    queries: int = 0
    input_tokens: int = 0
    output_tokens: int = 0
    by_kind: dict = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def record(self, prompt: Prompt, completion: Completion) -> None:
        self.record_batch(((prompt, completion),))

    def record_batch(self, pairs: Iterable[tuple[Prompt, Completion]]) -> None:
        """Record many prompt/completion pairs under one lock acquisition.

        Metering moved to batch granularity with the batched query protocol:
        a backend serving an N-request batch updates the meter once, not N
        times, so contention on the meter lock does not grow with batch size.
        """
        with self._lock:
            for prompt, completion in pairs:
                self.queries += 1
                self.input_tokens += prompt.approximate_tokens()
                self.output_tokens += completion.approximate_tokens()
                kind_stats = self.by_kind.setdefault(prompt.kind, {"queries": 0, "input": 0, "output": 0})
                kind_stats["queries"] += 1
                kind_stats["input"] += prompt.approximate_tokens()
                kind_stats["output"] += completion.approximate_tokens()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def estimated_cost_usd(self, *, input_per_million: float = 5.0, output_per_million: float = 15.0) -> float:
        """Rough dollar cost at GPT-4-class pricing."""
        return (
            self.input_tokens / 1_000_000 * input_per_million
            + self.output_tokens / 1_000_000 * output_per_million
        )

    def summary(self) -> dict:
        return {
            "queries": self.queries,
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
            "avg_input_per_query": self.input_tokens // max(1, self.queries),
            "avg_output_per_query": self.output_tokens // max(1, self.queries),
            "estimated_cost_usd": round(self.estimated_cost_usd(), 2),
        }

    def kind_summary(self) -> dict:
        """Per-prompt-kind usage breakdown, in first-recorded order.

        The attribution behind kind-routed pools: with ``--route
        repair=gpt-3.5`` the cheap member's breakdown shows exactly which
        stage kinds (``repair``) landed on it, and the expensive member's
        shows what stayed.
        """
        with self._lock:
            return {kind: dict(stats) for kind, stats in self.by_kind.items()}


@dataclass(frozen=True)
class CapabilityProfile:
    """How capable a simulated analyst is.

    Probabilities are per-opportunity and drawn from a deterministic
    per-handler stream, so the same kernel + profile always produces the same
    specification corpus.  The default profile models the GPT-4 analyst of
    the paper, calibrated against the §5.1.3 manual audit (3 drivers out of
    45 with missed syscalls, 0.9% wrong identifier values, 9 syscalls with
    wrong types) plus an initial-validation-error rate consistent with the
    Table 1 repair counts.
    """

    name: str = "gpt-4"
    follow_unknown_probability: float = 1.0     # chance to keep following delegation chains
    max_delegation_depth: int = 5
    identifier_error_rate: float = 0.01         # wrong identifier value (uses the rewritten value)
    miss_op_rate: float = 0.015                 # silently drop an operation
    wrong_type_rate: float = 0.03               # wrong/imprecise field type in a struct
    len_relation_rate: float = 0.95             # chance to express count/array len[] semantics
    bad_constant_rate: float = 0.18             # emit a misspelled macro (validation error, repairable)
    undefined_type_rate: float = 0.12           # reference a helper type without defining it (repairable)
    unrepairable_rate: float = 0.08             # handler-level chance that repair cannot converge
    dependency_discovery: bool = True           # follow anon_inode_getfd secondary handlers
    socket_support: bool = True
    readable_names: bool = True

    def degraded(self, **overrides) -> "CapabilityProfile":
        """Return a copy with some knobs overridden (used by ablation profiles)."""
        from dataclasses import replace

        return replace(self, **overrides)


#: The default analyst: GPT-4 as configured in the paper (temperature 0.1).
GPT4_PROFILE = CapabilityProfile()

#: GPT-4o performs on par with GPT-4 in the paper's ablation.
GPT4O_PROFILE = CapabilityProfile(
    name="gpt-4o",
    identifier_error_rate=0.012,
    miss_op_rate=0.02,
    wrong_type_rate=0.035,
    bad_constant_rate=0.2,
)

#: GPT-3.5 misses roughly 40% of syscalls and loses most semantic relations.
GPT35_PROFILE = CapabilityProfile(
    name="gpt-3.5",
    follow_unknown_probability=0.55,
    max_delegation_depth=2,
    identifier_error_rate=0.08,
    miss_op_rate=0.3,
    wrong_type_rate=0.25,
    len_relation_rate=0.2,
    bad_constant_rate=0.3,
    undefined_type_rate=0.2,
    unrepairable_rate=0.25,
    dependency_discovery=False,
    readable_names=False,
)


class LLMBackend(abc.ABC):
    """Abstract base class of every analysis backend.

    :meth:`complete_batch` is the primitive — every backend implements it,
    usually by delegating to the :meth:`_serve_batch` template, which owns
    the batch-granularity semantics (dedupe, budget reservation, metering)
    and calls back into the per-prompt :meth:`complete` hook.  External
    callers may keep using :meth:`query`; it is a one-element batch.
    """

    def __init__(self, *, model: str = "analysis-llm", query_budget: int | None = None):
        self.model = model
        self.usage = UsageMeter()
        self._query_budget = query_budget
        # Budget slots are reserved atomically before completions run, so
        # the budget raises at exactly the same query index whether one or
        # many threads share the backend (a check on usage.queries alone
        # would let concurrent callers race past the limit).
        self._budget_lock = threading.Lock()
        self._reserved_slots = 0

    def query(self, prompt: Prompt) -> Completion:
        """Send one prompt: a thin one-element shim over :meth:`complete_batch`."""
        return self.complete_batch((LLMRequest.of(prompt),))[0]

    def store_profile(self) -> str:
        """A stable identity string for persistent cache keys (repro.store).

        Unlike the engine's in-memory participant tokens — which are
        process-local by design — the store profile must identify "the same
        backend" across interpreter runs: two runs constructing an
        equivalently-configured backend derive the same profile, and two
        backends that could ever answer the same prompt differently derive
        different ones.  The base implementation uses the model string;
        backends whose completions depend on more configuration than the
        model name (the oracle's capability profile, a pool's routing
        table, replay scripts) override this, and transparent wrappers
        (recording, coalescing, frozen) delegate to the backend they wrap
        so the wrapper never splits the key space.
        """
        return self.model

    @abc.abstractmethod
    def complete_batch(self, requests: "Sequence[LLMRequest | Prompt]") -> list[Completion]:
        """Serve a batch of requests, returning completions in request order.

        The primitive of the protocol.  Implementations must honour the
        batch contract (most do so by delegating to :meth:`_serve_batch`):

        * results come back **in request order** — the determinism contract
          callers rebuild their aggregates from;
        * identical requests within one batch (same prompt content and
          route) are **deduped**: computed once, the shared completion
          returned at every duplicate position;
        * the query budget is reserved **atomically for the whole batch**
          (one slot per distinct request) before completions run, and the
          usage meter is updated once per batch.
        """

    def complete(self, prompt: Prompt) -> Completion:
        """Per-prompt completion hook used by the :meth:`_serve_batch` default.

        Backends whose completions are a pure function of one prompt
        implement this and inherit the whole batch contract from
        :meth:`_serve_batch`; backends that forward batches elsewhere (the
        recording wrapper, the pool) override :meth:`complete_batch` itself.
        """
        raise NotImplementedError(f"{type(self).__name__} serves batches only")

    def _serve_batch(
        self,
        requests: "Sequence[LLMRequest | Prompt]",
        *,
        complete_many: "Callable[[list[LLMRequest]], list[Completion]] | None" = None,
    ) -> list[Completion]:
        """The batch template: dedupe, reserve budget, complete, meter.

        Distinct requests are computed in first-appearance order, by default
        one :meth:`complete` call each; ``complete_many`` overrides the
        computation for backends that forward the whole distinct sub-batch
        elsewhere (recording wrapper → inner backend).

        Budget semantics are serial-equivalent on the backend's own state:
        slots for the batch are reserved atomically up front, but when the
        batch needs more slots than remain, the in-budget prefix still
        completes and records usage before :class:`LLMBudgetExceeded`
        raises — the meter totals and remaining budget are exactly what a
        loop of single queries leaves behind, so the budget raises at the
        same query index whether callers batch or not.  The batch *result*
        is all-or-nothing, though: a failed batch delivers no completions
        (there is no partial return through an exception), so layers that
        key off delivery — the engine's memo cache, the recording
        wrapper's transcript — see nothing from the served prefix.  That
        is deliberate: after ``LLMBudgetExceeded`` the run is aborted
        anyway, and an aborted batch must not leave half its results
        behind as if it had succeeded.
        """
        normalized = [LLMRequest.of(item) for item in requests]
        if not normalized:
            return []
        # In-batch dedupe, first-appearance order: positions per distinct key.
        positions_by_key: dict[tuple, list[int]] = {}
        distinct: list[LLMRequest] = []
        for index, request in enumerate(normalized):
            positions = positions_by_key.setdefault(request.batch_key(), [])
            if not positions:
                distinct.append(request)
            positions.append(index)

        granted = len(distinct)
        over_budget = False
        if self._query_budget is not None:
            with self._budget_lock:
                available = max(0, self._query_budget - self._reserved_slots)
                granted = min(len(distinct), available)
                self._reserved_slots += granted
            over_budget = granted < len(distinct)

        served: list[tuple[LLMRequest, Completion]] = []
        try:
            if complete_many is not None:
                completions = complete_many(distinct[:granted])
                served = list(zip(distinct[:granted], completions))
            else:
                for request in distinct[:granted]:
                    served.append((request, self.complete(request.prompt)))
        except BackendError as fault:
            # A typed serving fault: settle the books exactly like the
            # generic path below, then enrich the error with the batch
            # state — which positions (in the caller's request frame)
            # completed and which failed — so a retry layer re-sends only
            # the failed remainder and budgets charge each distinct query
            # once across attempts.
            self._settle_failed_batch(granted, served)
            served_positions: dict[int, Completion] = {}
            failed_entries: list[tuple[int, BaseException]] = []
            if fault.served is not None or fault.failed is not None:
                # An inner backend (complete_many path) attached state
                # relative to the distinct sub-batch; re-map into this
                # caller's request frame, duplicates included.
                sub = distinct[:granted]
                inner_served = fault.served or {}
                inner_failed = dict(fault.failed or ())
                for relative, completion in inner_served.items():
                    for index in positions_by_key[sub[relative].batch_key()]:
                        served_positions[index] = completion
                for relative, request in enumerate(sub):
                    if relative in inner_served:
                        continue
                    exc = inner_failed.get(relative, fault)
                    for index in positions_by_key[request.batch_key()]:
                        failed_entries.append((index, exc))
            else:
                served_keys = {request.batch_key() for request, _ in served}
                for request, completion in served:
                    for index in positions_by_key[request.batch_key()]:
                        served_positions[index] = completion
                failed_entries = [
                    (index, fault)
                    for index, request in enumerate(normalized)
                    if request.batch_key() not in served_keys
                ]
            fault.attach_batch_state(
                served_positions, tuple(sorted(failed_entries, key=lambda entry: entry[0]))
            )
            raise
        except Exception:
            # Unclassified failure (a bug, an interrupt): release the
            # reserved-but-unserved slots; what completed stays reserved
            # and metered, matching a serial loop that failed at the same
            # point.
            self._settle_failed_batch(granted, served)
            raise
        self.usage.record_batch(
            (request.prompt, completion) for request, completion in served
        )
        if over_budget:
            raise LLMBudgetExceeded(
                f"backend {self.model!r} exceeded its query budget of {self._query_budget}"
            )
        results: list[Completion | None] = [None] * len(normalized)
        for request, completion in served:
            for index in positions_by_key[request.batch_key()]:
                results[index] = completion
        return results

    def _settle_failed_batch(
        self, granted: int, served: "list[tuple[LLMRequest, Completion]]"
    ) -> None:
        """Book-keeping for a batch that raised mid-serve.

        Releases the reserved-but-unserved budget slots and meters the
        served prefix, matching a serial loop that failed at the same
        point.
        """
        if self._query_budget is not None:
            with self._budget_lock:
                self._reserved_slots -= granted - len(served)
        if served:
            self.usage.record_batch(
                (request.prompt, completion) for request, completion in served
            )

    def remaining_budget(self) -> int | None:
        """Unreserved query slots, or ``None`` when the backend is unmetered.

        A point-in-time snapshot under the budget lock — schedulers (the
        pool's round-robin member picker) use it to skip exhausted members,
        not to reserve; reservation stays atomic inside ``_serve_batch``.
        """
        if self._query_budget is None:
            return None
        with self._budget_lock:
            return max(0, self._query_budget - self._reserved_slots)

    # Backends are picklable; locks are recreated on unpickle.  A copy
    # meters and records independently of the original.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_budget_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._budget_lock = threading.Lock()


__all__ = [
    "Prompt",
    "Completion",
    "LLMRequest",
    "UsageMeter",
    "CapabilityProfile",
    "GPT4_PROFILE",
    "GPT4O_PROFILE",
    "GPT35_PROFILE",
    "LLMBackend",
]
