"""A routed multi-backend frontend: one pool, many capability profiles.

The LLM-choice ablation (§5.2.3) runs the same drivers against GPT-4,
GPT-4o and GPT-3.5 analysts.  Before the batched protocol that meant three
sequential generator runs, one per backend; :class:`BackendPool` turns it
into a single run that routes every request to the right member backend by
its routing tag, so one generator per profile shares the pool and the
context's engine.

Routing rules (first match wins):

1. an explicit ``LLMRequest.route`` tag that is a key of ``routes`` maps to
   the member ``routes`` names;
2. a ``route`` tag that is itself a member name selects that member;
3. the same two lookups are then tried with the prompt's ``kind`` (so a
   pool can send e.g. every ``repair`` prompt to a cheaper profile);
4. otherwise the request is **untagged** and the pool's scheduler places it:

   * ``schedule="tagged"`` (the default) sends every untagged request to
     the ``default`` member — routing tags are the only placement signal;
   * ``schedule="round-robin"`` load-balances untagged requests across the
     members in declaration order, skipping members whose query budget is
     exhausted (:meth:`~repro.llm.backend.LLMBackend.remaining_budget`);
     when every member is exhausted the default member serves the request
     (and raises its budget error exactly like a direct call would).
     Placement is per *request position* in batch order under one lock, so
     a given **batch sequence** always lands on the same members.  The
     cursor is pool-global and advances in batch *arrival* order: with
     concurrent untagged batches through one shared pool (concurrent service
     sessions), arrival order — and therefore placement — depends on thread
     scheduling.  Callers that need byte-identical runs must either tag
     their requests (tags never consult the scheduler) or funnel untagged
     batches through a single submission point; the evaluation pipeline
     tags everything, so the default experiments are unaffected.

Each member keeps its own budget and usage meter (its ``complete_batch``
serves the sub-batch routed to it, with its normal dedupe/budget/metering
semantics); the pool's own meter records every request it routes, so
``pool.usage`` is the merged caller-side summary and
:meth:`BackendPool.usage_by_member` the per-profile breakdown.
"""

from __future__ import annotations

import threading
from typing import Mapping, Sequence

from ..errors import BackendError
from .backend import Completion, LLMBackend, LLMRequest, Prompt
from .resilience import CircuitBreaker

#: Valid scheduler names for untagged-request placement.
POOL_SCHEDULES = ("tagged", "round-robin")


class BackendPool(LLMBackend):
    """Routes batched requests to member backends by routing tag.

    With ``breaker_threshold`` set, every member gets a
    :class:`~repro.llm.resilience.CircuitBreaker` and the pool fails routed
    requests over: a member whose sub-batch raises a
    :class:`~repro.errors.BackendError` (or whose breaker is open) hands
    its still-unserved requests to the next healthy member in declaration
    order — deterministic, like everything else about placement.  Each
    serving member meters its own sub-batch, so per-member usage
    attribution stays exact under failover.  Without a threshold the pool
    behaves exactly as before (no breakers, errors propagate directly).
    """

    def __init__(
        self,
        members: Mapping[str, LLMBackend],
        *,
        default: str | None = None,
        routes: Mapping[str, str] | None = None,
        schedule: str = "tagged",
        breaker_threshold: int | None = None,
        breaker_probe_interval: int = 4,
    ):
        if not members:
            raise ValueError("a BackendPool needs at least one member backend")
        if schedule not in POOL_SCHEDULES:
            raise ValueError(
                f"unknown pool schedule {schedule!r}; choose from {', '.join(POOL_SCHEDULES)}"
            )
        super().__init__(model=f"pool({','.join(members)})")
        self.members: dict[str, LLMBackend] = dict(members)
        self.routes: dict[str, str] = dict(routes or {})
        for tag, member in self.routes.items():
            if member not in self.members:
                raise ValueError(f"route {tag!r} targets unknown member {member!r}")
        self.default = default if default is not None else next(iter(self.members))
        if self.default not in self.members:
            raise ValueError(f"default member {self.default!r} is not in the pool")
        self.schedule = schedule
        self.breaker_threshold = breaker_threshold
        self.breakers: dict[str, CircuitBreaker] = (
            {
                name: CircuitBreaker(breaker_threshold, probe_interval=breaker_probe_interval)
                for name in self.members
            }
            if breaker_threshold is not None
            else {}
        )
        self._failover_stats = {"failovers": 0, "denied_by_breaker": 0}
        self._member_names = tuple(self.members)
        self._rr_cursor = 0
        self._schedule_lock = threading.Lock()

    # ---------------------------------------------------------------- routing
    def store_profile(self) -> str:
        """Identity for persistent cache keys: the full routing configuration.

        Covers each member's own store profile plus the route table, default
        member and schedule — everything that decides *which* member (and
        therefore which completion) a routed request reaches.  Two pools
        with the same member names but different capability knobs, or the
        same members but different routes, never share artifacts.
        """
        member_parts = ",".join(
            f"{name}={self.members[name].store_profile()}" for name in sorted(self.members)
        )
        route_parts = ",".join(f"{tag}->{member}" for tag, member in sorted(self.routes.items()))
        # Breaker-enabled pools can legitimately serve a request from a
        # failover member, so their artifacts must not share keys with a
        # breaker-less pool's; breaker-less pools keep the historical
        # profile string so existing stores stay warm.
        breaker_part = (
            f";breaker={self.breaker_threshold}" if self.breaker_threshold is not None else ""
        )
        return (
            f"pool({member_parts};routes={route_parts};"
            f"default={self.default};schedule={self.schedule}{breaker_part})"
        )

    def tagged_member(self, request: "LLMRequest | Prompt") -> str | None:
        """The member a routing tag selects, or ``None`` for untagged requests."""
        request = LLMRequest.of(request)
        for tag in (request.route, request.prompt.kind):
            if tag is None:
                continue
            if tag in self.routes:
                return self.routes[tag]
            if tag in self.members:
                return tag
        return None

    def resolve_member(self, request: "LLMRequest | Prompt") -> str:
        """The member that serves ``request`` under tagged routing.

        Untagged requests resolve to the default member here; under the
        round-robin schedule their actual placement happens per batch
        position inside :meth:`complete_batch` (a stateful decision this
        pure lookup cannot make).
        """
        return self.tagged_member(request) or self.default

    def _schedule_untagged(self, count: int) -> list[str]:
        """Round-robin placements for ``count`` untagged requests.

        One lock acquisition per batch: the cursor advances once per placed
        request, members in declaration order, skipping members with an
        exhausted budget.  If every member is exhausted the default member
        takes the request — its budget error is the right failure.
        """
        placements: list[str] = []
        names = self._member_names
        with self._schedule_lock:
            # Snapshot member budgets once, then decrement locally per
            # placement, so a batch never schedules more requests onto a
            # member than it has slots left (a conservative hint — the
            # member's own atomic reservation still owns correctness).
            remaining = {name: self.members[name].remaining_budget() for name in names}
            for _ in range(count):
                placed = None
                for _attempt in range(len(names)):
                    name = names[self._rr_cursor % len(names)]
                    self._rr_cursor += 1
                    slots = remaining[name]
                    if slots is None:
                        placed = name
                        break
                    if slots > 0:
                        remaining[name] = slots - 1
                        placed = name
                        break
                placements.append(placed if placed is not None else self.default)
        return placements

    # ------------------------------------------------------------- completion
    def complete_batch(self, requests: "Sequence[LLMRequest | Prompt]") -> list[Completion]:
        """Split the batch by member, forward sub-batches, reassemble in order.

        Sub-batches are dispatched in member declaration order (stable for
        any request order), and every member receives exactly one
        ``complete_batch`` call, preserving batch granularity end to end.
        The pool has no budget of its own — member budgets raise from
        inside their sub-batch and propagate.
        """
        normalized = [LLMRequest.of(item) for item in requests]
        if not normalized:
            return []
        members: list[str | None] = [self.tagged_member(request) for request in normalized]
        untagged = [index for index, member in enumerate(members) if member is None]
        if untagged:
            if self.schedule == "round-robin":
                for index, name in zip(untagged, self._schedule_untagged(len(untagged))):
                    members[index] = name
            else:
                for index in untagged:
                    members[index] = self.default
        positions_by_member: dict[str, list[int]] = {}
        for index, member in enumerate(members):
            positions_by_member.setdefault(member, []).append(index)
        results: list[Completion | None] = [None] * len(normalized)
        if not self.breakers:
            for name in self.members:
                positions = positions_by_member.get(name)
                if not positions:
                    continue
                completions = self.members[name].complete_batch(
                    [normalized[index] for index in positions]
                )
                for index, completion in zip(positions, completions):
                    results[index] = completion
        else:
            unserved: list[tuple[int, BaseException]] = []
            for name in self.members:
                positions = positions_by_member.get(name)
                if not positions:
                    continue
                unserved.extend(self._serve_member(name, positions, normalized, results))
            if unserved:
                unserved.sort(key=lambda entry: entry[0])
                primary = unserved[0][1]
                if not isinstance(primary, BackendError):
                    raise primary
                primary.attach_batch_state(
                    {
                        index: completion
                        for index, completion in enumerate(results)
                        if completion is not None
                    },
                    tuple(unserved),
                )
                raise primary
        # The pool-level meter records per *request* (the caller's view);
        # member meters record per distinct completion served.
        self.usage.record_batch(
            (request.prompt, completion)
            for request, completion in zip(normalized, results)
        )
        return results

    def _serve_member(
        self,
        name: str,
        positions: list[int],
        normalized: list[LLMRequest],
        results: "list[Completion | None]",
    ) -> list[tuple[int, BaseException]]:
        """Serve one member's routed positions, failing over on faults.

        Candidates are tried in declaration order starting at the routed
        member; an open breaker skips a candidate, a ``BackendError``
        records a breaker failure, absorbs the partial outcome and passes
        the still-failed positions on.  Returns ``(position, error)`` pairs
        for requests no healthy member could serve.
        """
        order = list(self._member_names)
        chain = [name] + [member for member in order if member != name]
        pending = list(positions)
        last_error: BaseException | None = None
        for candidate in chain:
            if not pending:
                break
            breaker = self.breakers[candidate]
            if not breaker.allow():
                with self._schedule_lock:
                    self._failover_stats["denied_by_breaker"] += len(pending)
                continue
            sub = [normalized[index] for index in pending]
            try:
                completions = self.members[candidate].complete_batch(sub)
            except BackendError as error:
                breaker.record_failure()
                last_error = error
                served = error.served or {}
                for relative, completion in served.items():
                    results[pending[relative]] = completion
                if error.failed:
                    still_failed = [
                        (pending[relative], exc) for relative, exc in error.failed
                    ]
                else:
                    still_failed = [
                        (pending[relative], error)
                        for relative in range(len(sub))
                        if relative not in served
                    ]
                pending = [index for index, _ in still_failed]
                last_failed = still_failed
                continue
            breaker.record_success()
            if candidate != name:
                with self._schedule_lock:
                    self._failover_stats["failovers"] += len(pending)
            for index, completion in zip(pending, completions):
                results[index] = completion
            pending = []
        if not pending:
            return []
        if last_error is None:
            # Every candidate's breaker was open: no attempt was even made.
            from ..errors import TransientBackendError

            denial = TransientBackendError(
                f"all pool members denied by open breakers "
                f"({len(pending)} request(s) routed to {name!r})"
            )
            return [(index, denial) for index in pending]
        return last_failed

    # -------------------------------------------------------------- reporting
    def breaker_stats(self) -> dict:
        """Per-member breaker state plus pool-level failover counters."""
        return {
            "members": {name: breaker.stats() for name, breaker in self.breakers.items()},
            **{key: value for key, value in self._failover_stats.items()},
        }

    def usage_by_member(self) -> dict[str, dict]:
        """Per-member usage summaries keyed by member name.

        Each summary carries a ``by_kind`` breakdown, so kind-routed pools
        (``routes={"repair": "gpt-3.5"}``) show which prompt kinds each
        capability profile actually served.
        """
        return {
            name: {**backend.usage.summary(), "by_kind": backend.usage.kind_summary()}
            for name, backend in self.members.items()
        }

    def usage_summary(self) -> dict:
        """Merged caller-side summary plus the per-member breakdown."""
        return {"merged": self.usage.summary(), "by_member": self.usage_by_member()}

    # -------------------------------------------------------------- pickling
    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state.pop("_schedule_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self._schedule_lock = threading.Lock()


__all__ = ["BackendPool", "POOL_SCHEDULES"]
