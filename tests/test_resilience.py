"""The resilience layer: deterministic faults, retries, breakers, degradation.

The contract under test (DESIGN.md "Resilience layer", determinism rule 11):

* a :class:`FaultPlan` is a pure, picklable function of
  ``(seed, route, prompt digest, occurrence)`` — chaos runs are exactly as
  reproducible as fault-free ones;
* :class:`FaultyBackend` raises *before* the inner backend meters, serves
  the non-faulted remainder, and attaches batch state to the raised error;
* :class:`ResilientBackend` re-sends only failed sub-requests, charges each
  distinct query once across attempts, fails fast on permanent faults and
  re-raises with ``attempts`` stamped on exhaustion;
* :class:`CircuitBreaker` is a count-based closed/open/half-open machine and
  :class:`BackendPool` fails routed requests over to healthy members with
  exact per-member usage attribution;
* the coalescer isolates tenant faults (a poisoned submission never fails
  its riders) and the job service retries jobs on transient faults only;
* rule 11: under any fixed fault plan, generation output is identical to
  the fault-free run byte for byte, on the serial loop and on concurrent
  sessions alike.
"""

import pickle
import threading

import pytest

from repro.engine import ExecutionEngine
from repro.errors import (
    BackendError,
    BackendTimeout,
    MalformedReply,
    RateLimited,
    TransientBackendError,
    is_permanent_fault,
    is_transient_fault,
)
from repro.llm import (
    BackendPool,
    BatchCoalescer,
    FaultPlan,
    FaultyBackend,
    LLMBackend,
    LLMRequest,
    OracleBackend,
    Prompt,
    ReplayBackend,
    ResilientBackend,
    RetryPolicy,
    request_digest,
    resilient_analyst,
)
from repro.llm.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    wire_resilience_events,
)


def _prompt(index: int, kind: str = "identifier") -> Prompt:
    return Prompt(kind=kind, subject=f"subject-{index}", text=f"## Registration\nprobe {index}\n")


def _prompts(count: int) -> list[Prompt]:
    return [_prompt(index) for index in range(count)]


# ------------------------------------------------------------ error taxonomy
class TestErrorTaxonomy:
    def test_transient_hierarchy(self):
        for error in (
            TransientBackendError("x"),
            BackendTimeout("x", timeout=1.0),
            RateLimited("x", retry_after=0.5),
            MalformedReply("x", excerpt="?"),
        ):
            assert error.is_transient
            assert is_transient_fault(error)
            assert not is_permanent_fault(error)

    def test_permanent_is_backend_error_but_not_transient(self):
        error = BackendError("dead key", route="gpt-4", subject="h0")
        assert not error.is_transient
        assert is_permanent_fault(error)
        assert error.route == "gpt-4" and error.subject == "h0"

    def test_unclassified_errors_are_neither(self):
        # RuntimeError keeps its historical retry semantics everywhere: it
        # is not a classified backend fault, so it is *not* permanent.
        assert not is_transient_fault(RuntimeError("boom"))
        assert not is_permanent_fault(RuntimeError("boom"))

    def test_attach_batch_state_is_one_shot_metadata(self):
        error = TransientBackendError("partial")
        assert error.served is None and error.failed is None
        error.attach_batch_state({0: "c"}, ((1, error),))
        assert error.served == {0: "c"}
        assert error.failed == ((1, error),)


# ---------------------------------------------------------------- fault plans
class TestFaultPlan:
    def test_parse_fields_and_shorthand(self):
        plan = FaultPlan.parse("rate=0.2,seed=11,max=3,retry-after=0.5,kinds=timeout+rate-limit")
        assert plan.rate == 0.2 and plan.seed == 11
        assert plan.max_faults_per_key == 3 and plan.retry_after == 0.5
        assert plan.kinds == ("timeout", "rate-limit")
        assert FaultPlan.parse("0.3").rate == 0.3

    def test_parse_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("rate=2.0")
        with pytest.raises(ValueError):
            FaultPlan.parse("nope=1")
        with pytest.raises(ValueError):
            FaultPlan.parse("seed=3")  # no rate
        with pytest.raises(ValueError):
            FaultPlan(rate=0.1, kinds=("bogus",))

    def test_fault_for_is_pure_and_seed_sensitive(self):
        plan_a = FaultPlan(rate=0.5, seed=7)
        plan_b = FaultPlan(rate=0.5, seed=7)
        plan_c = FaultPlan(rate=0.5, seed=8)
        digests = [request_digest(_prompt(index)) for index in range(64)]
        draws_a = [plan_a.fault_for(None, digest, 0) for digest in digests]
        draws_b = [plan_b.fault_for(None, digest, 0) for digest in digests]
        draws_c = [plan_c.fault_for(None, digest, 0) for digest in digests]
        assert draws_a == draws_b          # same fields → same schedule
        assert draws_a != draws_c          # the seed matters
        assert any(draws_a) and not all(draws_a)  # a genuine mix at rate 0.5

    def test_rate_zero_and_occurrence_cap_never_fault(self):
        plan = FaultPlan(rate=1.0, max_faults_per_key=2)
        digest = request_digest(_prompt(0))
        assert FaultPlan(rate=0.0).fault_for(None, digest, 0) is None
        assert plan.fault_for(None, digest, 0) is not None
        assert plan.fault_for(None, digest, 1) is not None
        assert plan.fault_for(None, digest, 2) is None  # converges by attempt 3

    def test_pickled_plan_agrees_on_every_decision(self):
        plan = FaultPlan(rate=0.4, seed=3)
        clone = pickle.loads(pickle.dumps(plan))
        for index in range(32):
            digest = request_digest(_prompt(index))
            for occurrence in range(3):
                assert plan.fault_for("gpt-4", digest, occurrence) == clone.fault_for(
                    "gpt-4", digest, occurrence
                )

    def test_error_for_builds_the_typed_hierarchy(self):
        plan = FaultPlan(rate=1.0, retry_after=0.25)
        request = LLMRequest.of(_prompt(0))
        assert isinstance(plan.error_for("timeout", request, 0), BackendTimeout)
        limited = plan.error_for("rate-limit", request, 0)
        assert isinstance(limited, RateLimited) and limited.retry_after == 0.25
        assert isinstance(plan.error_for("malformed", request, 0), MalformedReply)
        permanent = plan.error_for("permanent", request, 0)
        assert is_permanent_fault(permanent)
        assert isinstance(plan.error_for("transient", request, 0), TransientBackendError)

    def test_request_digest_covers_the_full_batch_key(self):
        base = request_digest(_prompt(0))
        assert request_digest(_prompt(0)) == base
        assert request_digest(_prompt(1)) != base
        assert request_digest(_prompt(0, kind="repair")) != base
        assert request_digest(LLMRequest(prompt=_prompt(0), route="gpt-3.5")) != base


# -------------------------------------------------------------- FaultyBackend
def _mixed_fault_seed(prompts: list[Prompt], rate: float = 0.5) -> int:
    """A seed whose occurrence-0 draws fault some but not all of ``prompts``."""
    for seed in range(200):
        plan = FaultPlan(rate=rate, seed=seed)
        draws = [plan.fault_for(None, request_digest(p), 0) for p in prompts]
        if any(draws) and not all(draws):
            return seed
    raise AssertionError("no mixed seed found")


class TestFaultyBackend:
    def test_serves_clean_remainder_and_attaches_batch_state(self):
        prompts = _prompts(6)
        seed = _mixed_fault_seed(prompts)
        plan = FaultPlan(rate=0.5, seed=seed)
        backend = FaultyBackend(OracleBackend(), plan)
        faulted = {
            index
            for index, prompt in enumerate(prompts)
            if plan.fault_for(None, request_digest(prompt), 0) is not None
        }
        with pytest.raises(TransientBackendError) as excinfo:
            backend.complete_batch(prompts)
        error = excinfo.value
        assert set(error.served) == set(range(len(prompts))) - faulted
        assert {position for position, _ in error.failed} == faulted
        # The primary is the lowest faulted position's error.
        assert error is min(error.failed)[1]
        # Only the clean remainder was metered (shared meter with inner).
        assert backend.usage.queries == len(prompts) - len(faulted)
        assert backend.usage is backend.inner.usage

    def test_occurrences_advance_until_the_cap_converges(self):
        plan = FaultPlan(rate=1.0, seed=1, max_faults_per_key=2, kinds=("transient",))
        backend = FaultyBackend(OracleBackend(), plan)
        prompt = _prompt(0)
        for _ in range(2):
            with pytest.raises(TransientBackendError):
                backend.complete_batch([prompt])
        # Occurrence 2 exceeds the cap: the third attempt serves.
        assert backend.complete_batch([prompt])[0].text
        assert backend.usage.queries == 1  # charged once, on the serving attempt
        assert backend.stats.faults_injected == 2

    def test_duplicates_share_one_fault_decision(self):
        plan = FaultPlan(rate=1.0, seed=1, max_faults_per_key=1, kinds=("transient",))
        backend = FaultyBackend(OracleBackend(), plan)
        prompt = _prompt(0)
        with pytest.raises(TransientBackendError) as excinfo:
            backend.complete_batch([prompt, prompt, prompt])
        # One occurrence consumed, every duplicate position listed as failed.
        assert {position for position, _ in excinfo.value.failed} == {0, 1, 2}
        assert backend.complete_batch([prompt, prompt])[0].text  # occurrence 1 ≥ max

    def test_pickling_resets_worker_local_counters(self):
        plan = FaultPlan(rate=1.0, seed=1, max_faults_per_key=1, kinds=("transient",))
        backend = FaultyBackend(OracleBackend(), plan)
        prompt = _prompt(0)
        with pytest.raises(TransientBackendError):
            backend.complete_batch([prompt])
        assert backend.complete_batch([prompt])  # parent converged
        clone = pickle.loads(pickle.dumps(backend))
        # The clone's schedule restarts at occurrence zero: it faults again.
        with pytest.raises(TransientBackendError):
            clone.complete_batch([prompt])
        assert clone.stats.faults_injected == 1
        assert clone.usage is clone.inner.usage  # meter-sharing survives pickling

    def test_transparent_at_rate_zero(self):
        backend = FaultyBackend(OracleBackend(), FaultPlan(rate=0.0))
        baseline = OracleBackend()
        prompts = _prompts(4)
        assert [c.text for c in backend.complete_batch(prompts)] == [
            c.text for c in baseline.complete_batch(prompts)
        ]
        assert backend.store_profile() == baseline.store_profile()


# ---------------------------------------------------------------- retry policy
class TestRetryPolicy:
    def test_parse_fields_and_shorthand(self):
        policy = RetryPolicy.parse("attempts=6,base=0.1,max=2.0,multiplier=3,seed=5")
        assert policy.max_attempts == 6 and policy.base_delay == 0.1
        assert policy.max_delay == 2.0 and policy.multiplier == 3.0
        assert policy.jitter_seed == 5
        assert RetryPolicy.parse("7").max_attempts == 7
        with pytest.raises(ValueError):
            RetryPolicy.parse("bogus=1")
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_delay_is_deterministic_jittered_and_capped(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.3, multiplier=2.0, jitter_seed=9)
        first = policy.delay_for(1, "key")
        assert first == policy.delay_for(1, "key")          # reproducible
        assert 0.05 <= first < 0.1                          # jitter ∈ [0.5, 1.0)
        assert policy.delay_for(1, "other-key") != first    # key-sensitive
        assert policy.delay_for(9, "key") <= 0.3            # capped

    def test_retry_after_is_a_lower_bound(self):
        policy = RetryPolicy(base_delay=0.0)
        assert policy.delay_for(1, "key") == 0.0
        assert policy.delay_for(1, "key", retry_after=0.4) == 0.4


# ------------------------------------------------------------ ResilientBackend
class _InnermostCounter(LLMBackend):
    """Counts how many times each distinct prompt is actually computed."""

    def __init__(self):
        super().__init__(model="counter")
        self.computed: dict[str, int] = {}

    def complete_batch(self, requests):
        normalized = [LLMRequest.of(item) for item in requests]
        return self._serve_batch(normalized)

    def complete(self, prompt):
        self.computed[prompt.subject] = self.computed.get(prompt.subject, 0) + 1
        from repro.llm import Completion

        return Completion(text=f"reply:{prompt.subject}", model=self.model)


class TestResilientBackend:
    def test_converges_to_fault_free_bytes_and_usage(self):
        prompts = _prompts(8)
        baseline = OracleBackend()
        expected = [c.text for c in baseline.complete_batch(prompts)]
        backend = ResilientBackend(
            FaultyBackend(OracleBackend(), FaultPlan(rate=0.5, seed=_mixed_fault_seed(prompts)))
        )
        observed = [c.text for c in backend.complete_batch(prompts)]
        assert observed == expected
        # Each distinct query charged exactly once across all attempts.
        assert backend.usage.queries == len(prompts)
        assert backend.usage is backend.inner.usage

    def test_only_failed_requests_are_resent(self):
        prompts = _prompts(8)
        seed = _mixed_fault_seed(prompts)
        counter = _InnermostCounter()
        backend = ResilientBackend(
            FaultyBackend(counter, FaultPlan(rate=0.5, seed=seed, kinds=("transient",)))
        )
        backend.complete_batch(prompts)
        # The innermost backend computed every distinct prompt exactly once:
        # served requests were never re-sent by the retry loop.
        assert counter.computed == {p.subject: 1 for p in prompts}
        assert backend.stats.retries >= 1
        assert backend.stats.recovered_requests >= 1

    def test_exhaustion_reraises_with_attempts_and_state(self):
        plan = FaultPlan(rate=1.0, seed=1, max_faults_per_key=99, kinds=("transient",))
        backend = ResilientBackend(
            FaultyBackend(OracleBackend(), plan), RetryPolicy(max_attempts=3)
        )
        with pytest.raises(TransientBackendError) as excinfo:
            backend.complete_batch([_prompt(0)])
        assert excinfo.value.attempts == 3
        assert backend.stats.exhausted == 1
        # Batch state is relative to the caller's frame.
        assert {position for position, _ in excinfo.value.failed} == {0}

    def test_permanent_faults_fail_fast(self):
        plan = FaultPlan(rate=1.0, seed=1, max_faults_per_key=99, kinds=("permanent",))
        backend = ResilientBackend(FaultyBackend(OracleBackend(), plan))
        with pytest.raises(BackendError) as excinfo:
            backend.complete_batch([_prompt(0)])
        assert is_permanent_fault(excinfo.value)
        assert excinfo.value.attempts == 1
        assert backend.stats.failed_fast == 1 and backend.stats.retries == 0

    def test_rate_limit_retry_after_drives_the_sleep(self):
        sleeps: list[float] = []
        plan = FaultPlan(
            rate=1.0, seed=1, max_faults_per_key=1, kinds=("rate-limit",), retry_after=0.05
        )
        backend = ResilientBackend(
            FaultyBackend(OracleBackend(), plan), sleep=sleeps.append
        )
        backend.complete_batch([_prompt(0)])
        assert sleeps and sleeps[0] >= 0.05
        assert backend.stats.slept >= 0.05

    def test_retry_schedule_is_reproducible(self):
        def run() -> list[float]:
            sleeps: list[float] = []
            plan = FaultPlan(rate=1.0, seed=2, max_faults_per_key=2, kinds=("transient",))
            backend = ResilientBackend(
                FaultyBackend(OracleBackend(), plan),
                RetryPolicy(base_delay=0.01, jitter_seed=4),
                sleep=sleeps.append,
            )
            backend.complete_batch(_prompts(4))
            return sleeps

        assert run() == run()

    def test_on_retry_hook_failures_never_break_serving(self):
        def broken_hook(info):
            raise RuntimeError("observer crashed")

        plan = FaultPlan(rate=1.0, seed=1, max_faults_per_key=1, kinds=("transient",))
        backend = ResilientBackend(
            FaultyBackend(OracleBackend(), plan), on_retry=broken_hook
        )
        assert backend.complete_batch([_prompt(0)])[0].text

    def test_pickled_chain_serves_identically(self):
        prompts = _prompts(6)
        plan = FaultPlan(rate=0.5, seed=_mixed_fault_seed(prompts))
        backend = ResilientBackend(FaultyBackend(OracleBackend(), plan))
        expected = [c.text for c in backend.complete_batch(prompts)]
        clone = pickle.loads(pickle.dumps(backend))
        assert [c.text for c in clone.complete_batch(prompts)] == expected
        assert clone.usage is clone.inner.usage is clone.inner.inner.usage

    def test_resilient_analyst_wiring(self):
        plain = resilient_analyst(OracleBackend())
        assert isinstance(plain, OracleBackend)
        chaos = resilient_analyst(OracleBackend(), fault_plan="rate=0.2,seed=7")
        assert isinstance(chaos, ResilientBackend)
        assert isinstance(chaos.inner, FaultyBackend)
        bare = resilient_analyst(OracleBackend(), fault_plan="rate=0.2", retry_spec="off")
        assert isinstance(bare, FaultyBackend)
        tuned = resilient_analyst(OracleBackend(), retry_spec="attempts=6")
        assert isinstance(tuned, ResilientBackend)
        assert tuned.policy.max_attempts == 6


# ------------------------------------------------------- _serve_batch contract
class _FlakyOracle(OracleBackend):
    """Oracle whose poisoned prompts fail transiently ``fail_times`` times."""

    def __init__(self, fail_times: int = 1):
        super().__init__()
        self.fail_times = fail_times
        self._failures: dict[str, int] = {}

    def complete(self, prompt):
        if "poison" in prompt.text:
            count = self._failures.get(prompt.subject, 0)
            if count < self.fail_times:
                self._failures[prompt.subject] = count + 1
                raise TransientBackendError(f"flaky {prompt.subject}", subject=prompt.subject)
        return super().complete(prompt)


class TestServeBatchEnrichment:
    def test_typed_fault_carries_served_prefix_and_failed_positions(self):
        backend = _FlakyOracle(fail_times=99)
        good = _prompt(0)
        poison = Prompt(kind="identifier", subject="bad", text="## Registration\npoison\n")
        with pytest.raises(TransientBackendError) as excinfo:
            # Duplicate of ``good`` rides along: both positions served.
            backend.complete_batch([good, poison, good])
        error = excinfo.value
        assert set(error.served) == {0, 2}
        assert [position for position, _ in error.failed] == [1]
        # The served prefix was metered (serial-equivalent accounting).
        assert backend.usage.queries == 1

    def test_budget_slots_released_for_unserved_requests(self):
        backend = _FlakyOracle(fail_times=1)
        backend._query_budget = 4  # noqa: SLF001 - exercising the reservation path
        poison = Prompt(kind="identifier", subject="bad", text="## Registration\npoison\n")
        with pytest.raises(TransientBackendError):
            backend.complete_batch([_prompt(0), poison])
        # One slot consumed (the served prompt); the poisoned slot released.
        assert backend.remaining_budget() == 3

    def test_retry_layer_over_serve_batch_converges(self):
        backend = ResilientBackend(_FlakyOracle(fail_times=2))
        poison = Prompt(kind="identifier", subject="bad", text="## Registration\npoison\n")
        completions = backend.complete_batch([_prompt(0), poison, _prompt(1)])
        assert len(completions) == 3 and all(c.text for c in completions)
        assert backend.usage.queries == 3  # each distinct charged exactly once
        assert backend.stats.retries == 2


# ------------------------------------------------------------ circuit breakers
class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_success()  # resets the streak
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == BREAKER_OPEN

    def test_open_denies_and_probes_every_interval(self):
        breaker = CircuitBreaker(threshold=1, probe_interval=3)
        breaker.record_failure()
        decisions = [breaker.allow() for _ in range(3)]
        assert decisions == [False, False, True]  # third denial becomes the probe
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.allow()  # only one probe in flight

    def test_probe_success_closes_probe_failure_reopens(self):
        breaker = CircuitBreaker(threshold=1, probe_interval=1)
        breaker.record_failure()
        assert breaker.allow()  # immediate probe at interval 1
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_transition_observer_sequence(self):
        breaker = CircuitBreaker(threshold=1, probe_interval=1)
        seen: list[tuple[str, str]] = []
        breaker.on_transition = lambda old, new: seen.append((old, new))
        breaker.record_failure()
        breaker.allow()
        breaker.record_success()
        assert seen == [
            (BREAKER_CLOSED, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
            (BREAKER_HALF_OPEN, BREAKER_CLOSED),
        ]

    def test_pickling_drops_the_observer(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.on_transition = lambda old, new: None
        breaker.record_failure()
        clone = pickle.loads(pickle.dumps(breaker))
        assert clone.on_transition is None
        assert clone.stats()["consecutive_failures"] == 1
        clone.record_failure()
        assert clone.state == BREAKER_OPEN


class _DownBackend(LLMBackend):
    """A member that is simply down: every batch raises a transient fault."""

    def __init__(self):
        super().__init__(model="down")
        self.calls = 0

    def complete_batch(self, requests):
        self.calls += 1
        raise TransientBackendError("member down")

    def complete(self, prompt):
        raise NotImplementedError


class TestPoolFailover:
    def _pool(self, threshold: int = 2) -> BackendPool:
        return BackendPool(
            {"primary": _DownBackend(), "backup": ReplayBackend(default="saved")},
            breaker_threshold=threshold,
        )

    def test_failover_serves_from_the_healthy_member(self):
        pool = self._pool()
        completions = pool.complete_batch(_prompts(3))
        assert [c.text for c in completions] == ["saved"] * 3
        stats = pool.breaker_stats()
        assert stats["failovers"] == 3
        assert stats["members"]["primary"]["consecutive_failures"] == 1
        # Usage attribution: the serving member metered the requests, the
        # down member metered nothing, the pool metered the caller's view.
        assert pool.members["backup"].usage.queries == 3
        assert pool.members["primary"].usage.queries == 0
        assert pool.usage.queries == 3

    def test_breaker_opens_and_skips_the_down_member(self):
        pool = self._pool(threshold=2)
        down = pool.members["primary"]
        pool.complete_batch([_prompt(0)])
        pool.complete_batch([_prompt(1)])
        assert pool.breakers["primary"].state == BREAKER_OPEN
        calls_when_opened = down.calls
        pool.complete_batch([_prompt(2)])
        # The open breaker denied the member without calling it.
        assert down.calls == calls_when_opened
        assert pool.breaker_stats()["denied_by_breaker"] >= 1

    def test_all_members_down_raises_with_batch_state(self):
        pool = BackendPool(
            {"a": _DownBackend(), "b": _DownBackend()}, breaker_threshold=3
        )
        with pytest.raises(TransientBackendError) as excinfo:
            pool.complete_batch(_prompts(2))
        assert {position for position, _ in excinfo.value.failed} == {0, 1}

    def test_without_threshold_errors_propagate_directly(self):
        pool = BackendPool({"a": _DownBackend(), "b": ReplayBackend(default="x")})
        assert pool.breakers == {}
        with pytest.raises(TransientBackendError):
            pool.complete_batch([_prompt(0)])

    def test_store_profile_only_changes_when_breakers_are_armed(self):
        plain = BackendPool({"a": ReplayBackend(default="x")})
        armed = BackendPool({"a": ReplayBackend(default="x")}, breaker_threshold=5)
        assert "breaker" not in plain.store_profile()
        assert ";breaker=5" in armed.store_profile()

    def test_wire_resilience_events_reaches_pool_breakers(self):
        events: list[tuple[str, dict]] = []
        pool = self._pool(threshold=1)
        backend = ResilientBackend(pool)
        wire_resilience_events(backend, lambda kind, fields: events.append((kind, fields)))
        pool.complete_batch([_prompt(0)])
        kinds = [kind for kind, _ in events]
        assert "breaker_transition" in kinds
        transition = next(fields for kind, fields in events if kind == "breaker_transition")
        assert transition == {"member": "primary", "from": "closed", "to": "open"}


# --------------------------------------------------- coalescer fault isolation
class _PoisonBackend(LLMBackend):
    """Serves everything except prompts whose text mentions ``poison``."""

    def __init__(self):
        super().__init__(model="poison")

    def complete_batch(self, requests):
        normalized = [LLMRequest.of(item) for item in requests]
        return self._serve_batch(normalized)

    def complete(self, prompt):
        if "poison" in prompt.text:
            raise TransientBackendError(f"poisoned {prompt.subject}")
        from repro.llm import Completion

        return Completion(text=f"reply:{prompt.text}", model=self.model)


def _svc_prompt(text: str) -> Prompt:
    return Prompt(kind="usage", subject="svc", text=text)


class TestCoalescerFaultIsolation:
    def test_poisoned_submission_never_fails_its_riders(self):
        coalescer = BatchCoalescer(_PoisonBackend(), drain=True)
        outcomes: dict[str, object] = {}

        def submit(name: str, text: str) -> None:
            try:
                outcomes[name] = [c.text for c in coalescer.submit([_svc_prompt(text)])]
            except BaseException as error:  # noqa: BLE001 - recorded for assertions
                outcomes[name] = error

        threads = []
        with coalescer.hold():
            for index, (name, text) in enumerate(
                (("good", "fine"), ("bad", "poison pill"), ("also-good", "ok"))
            ):
                thread = threading.Thread(target=submit, args=(name, text))
                thread.start()
                threads.append(thread)
                assert coalescer.wait_for_pending(index + 1)
        for thread in threads:
            thread.join()
        assert outcomes["good"] == ["reply:fine"]
        assert outcomes["also-good"] == ["reply:ok"]
        assert isinstance(outcomes["bad"], TransientBackendError)
        stats = coalescer.stats()
        assert stats["isolated_flushes"] == 1
        assert stats["tenant_faults"] == 1

    def test_observer_errors_are_counted_and_routed(self):
        coalescer = BatchCoalescer(_PoisonBackend(), drain=True)
        routed: list[BaseException] = []
        coalescer.observer = lambda info: (_ for _ in ()).throw(RuntimeError("bad observer"))
        coalescer.on_observer_error = routed.append
        assert [c.text for c in coalescer.submit([_svc_prompt("hello")])] == ["reply:hello"]
        assert coalescer.stats()["observer_errors"] == 1
        assert len(routed) == 1 and isinstance(routed[0], RuntimeError)


# -------------------------------------------------------- job service retries
class _FailFirstBackend(LLMBackend):
    """Raises a classified fault for the first ``failures`` batches."""

    def __init__(self, failures: int, error_type=TransientBackendError):
        super().__init__(model="fail-first")
        self.inner = OracleBackend()
        self.usage = self.inner.usage
        self.remaining = failures
        self.error_type = error_type
        self._lock = threading.Lock()

    def complete_batch(self, requests):
        with self._lock:
            if self.remaining > 0:
                self.remaining -= 1
                raise self.error_type("backend warming up")
        return self.inner.complete_batch(requests)

    def complete(self, prompt):
        raise NotImplementedError


@pytest.fixture(scope="module")
def service_kernel():
    from repro.kernel import build_default_kernel

    return build_default_kernel("small")


class TestJobServiceRetries:
    def _run(self, backend, *, job_retries=0, job_kwargs=None, kernel=None, events=None):
        from repro.experiments.config import quick
        from repro.service import Job, JobService

        with JobService(
            quick(),
            workers=1,
            kernel=kernel,
            backend=backend,
            job_retries=job_retries,
            events=events,
        ) as service:
            handle = service.submit(
                Job(kind="generation", handlers=("dm_ctl_fops",), **(job_kwargs or {}))
            )
            return handle.wait(timeout=120)

    def test_transient_fault_retries_within_budget(self, service_kernel):
        # The merged flush and the isolated re-serve each consume one
        # failure, so two failures fail exactly one job attempt.
        result = self._run(
            _FailFirstBackend(failures=2), job_retries=1, kernel=service_kernel
        )
        assert result.ok, result.error
        assert result.attempts == 2
        assert any(event.stage == "retry" for event in result.events)

    def test_retried_multi_handler_job_matches_a_clean_run(self, service_kernel):
        # The job's concurrent sessions fail together on one attempt; the
        # retry starts from a fresh engine and renders the clean text.
        from repro.experiments.config import quick
        from repro.service import Job, JobService

        handlers = ("dm_ctl_fops", "kvm_fops", "timer_fops")
        texts = []
        for failures in (0, 2):
            with JobService(
                quick(),
                workers=1,
                kernel=service_kernel,
                backend=_FailFirstBackend(failures=failures),
                job_retries=1,
            ) as service:
                job = Job(kind="generation", handlers=handlers)
                result = service.submit(job).wait(timeout=120)
            assert result.ok, result.error
            assert result.attempts == (2 if failures else 1)
            texts.append(result.text)
        assert texts[0] == texts[1]

    def test_transient_fault_exhausts_budget(self, service_kernel):
        result = self._run(
            _FailFirstBackend(failures=99), job_retries=1, kernel=service_kernel
        )
        assert not result.ok
        assert isinstance(result.error, TransientBackendError)
        assert result.attempts == 2

    def test_permanent_fault_fails_fast_despite_budget(self, service_kernel):
        result = self._run(
            _FailFirstBackend(failures=99, error_type=BackendError),
            job_retries=5,
            kernel=service_kernel,
        )
        assert not result.ok
        assert is_permanent_fault(result.error)
        assert result.attempts == 1  # the budget was never consulted

    def test_job_level_budget_overrides_the_service_default(self, service_kernel):
        result = self._run(
            _FailFirstBackend(failures=2),
            job_retries=0,
            job_kwargs={"retries": 1},
            kernel=service_kernel,
        )
        assert result.ok, result.error
        assert result.attempts == 2

    def test_job_retries_land_in_the_event_log(self, service_kernel):
        from repro.orchestrator.events import EventLog

        log = EventLog()
        result = self._run(
            _FailFirstBackend(failures=2), job_retries=1, kernel=service_kernel,
            events=log,
        )
        assert result.ok, result.error
        retried = [event for event in log.events if event["type"] == "job_retried"]
        assert len(retried) == 1
        assert retried[0]["attempt"] == 1


# ------------------------------------------------------ orchestrator taxonomy
class TestCampaignFaultClassification:
    def test_transient_faults_consume_the_retry_budget(self):
        from repro.experiments.config import quick
        from repro.orchestrator import CampaignPlan, CampaignTask, EventLog, run_campaign_plan

        tasks = [
            CampaignTask.make("flaky", "fault_until", {"succeed_at": 2}, retries=2)
        ]
        log = EventLog()
        result = run_campaign_plan(CampaignPlan(tasks, quick()), events=log)
        assert result.passed
        assert result.outcomes["flaky"].attempts == 2
        assert [e["type"] for e in log.events].count("task_retried") == 1

    def test_permanent_faults_fail_fast_despite_retries(self):
        from repro.experiments.config import quick
        from repro.orchestrator import CampaignPlan, CampaignTask, EventLog, run_campaign_plan

        tasks = [
            CampaignTask.make(
                "dead", "fault_until", {"succeed_at": 99, "transient": False}, retries=5
            )
        ]
        log = EventLog()
        result = run_campaign_plan(CampaignPlan(tasks, quick()), events=log)
        assert not result.passed
        types = [event["type"] for event in log.events]
        assert types.count("task_retried") == 0  # no retry for a permanent fault
        assert types.count("task_failed") == 1

    def test_unclassified_errors_keep_their_retry_semantics(self):
        from repro.experiments.config import quick
        from repro.orchestrator import CampaignPlan, CampaignTask, EventLog, run_campaign_plan

        # RuntimeError (fail_until) retried exactly as before PR 9.
        tasks = [CampaignTask.make("flaky", "fail_until", {"succeed_at": 2}, retries=2)]
        log = EventLog()
        result = run_campaign_plan(CampaignPlan(tasks, quick()), events=log)
        assert result.passed
        assert [e["type"] for e in log.events].count("task_retried") == 1


# ---------------------------------------------------------- rule 11: the matrix
HANDLERS = ["dm_ctl_fops", "cec_devnode_fops", "rds_proto_ops", "udmabuf_fops"]


def _chaos_backend(rate: float, seed: int = 7) -> LLMBackend:
    return ResilientBackend(FaultyBackend(OracleBackend(), FaultPlan(rate=rate, seed=seed)))


@pytest.fixture(scope="module")
def chaos_baseline(small_kernel, extractor):
    """The fault-free serial run every chaos cell must reproduce."""
    from repro.core import KernelGPT

    generator = KernelGPT(small_kernel, OracleBackend(), extractor=extractor)
    run = generator.generate_for_handlers(HANDLERS)
    suites = {handler: result.suite_text() for handler, result in run.results.items()}
    queries = {handler: result.queries for handler, result in run.results.items()}
    return suites, queries, run.usage_summary()


@pytest.mark.parametrize("kind,jobs", (("serial", 1), ("thread", len(HANDLERS))))
def test_chaos_generation_matrix_is_byte_identical(
    small_kernel, extractor, chaos_baseline, generate_on_schedule, kind, jobs
):
    """Rule 11 at 20% faults: a memoized run on either generation schedule
    reproduces the fault-free engine-less baseline byte for byte, with
    identical query counts and session-attributed usage — retries are
    invisible in the output."""
    from repro.core import KernelGPT

    baseline_suites, baseline_queries, baseline_usage = chaos_baseline
    generator = KernelGPT(
        small_kernel, _chaos_backend(rate=0.2), extractor=extractor, engine=ExecutionEngine()
    )
    run = generate_on_schedule(generator, HANDLERS, kind, jobs)
    assert {h: r.suite_text() for h, r in run.results.items()} == baseline_suites
    assert {h: r.queries for h, r in run.results.items()} == baseline_queries
    assert run.usage_summary() == baseline_usage


@pytest.mark.parametrize("rate", (0.0, 0.05))
def test_chaos_rate_axis_matches_baseline(small_kernel, extractor, chaos_baseline, rate):
    """The rate axis: 0% (wrapper transparency) and 5% chaos both converge."""
    from repro.core import KernelGPT

    baseline_suites, baseline_queries, _ = chaos_baseline
    generator = KernelGPT(
        small_kernel, _chaos_backend(rate=rate), extractor=extractor, engine=ExecutionEngine()
    )
    run = generator.generate_for_handlers(HANDLERS)
    assert {h: r.suite_text() for h, r in run.results.items()} == baseline_suites
    assert {h: r.queries for h, r in run.results.items()} == baseline_queries


def test_chaos_fuzz_campaign_matches_fault_free(small_kernel, extractor):
    """A fuzz campaign over chaos-generated specs equals the fault-free one:
    converged generation feeds identical corpora into the fuzzer."""
    from repro.core import KernelGPT
    from repro.fuzzer import run_campaign

    def campaign(backend):
        generator = KernelGPT(small_kernel, backend, extractor=extractor)
        generated = generator.generate_for_handler("dm_ctl_fops")
        result = run_campaign(small_kernel, generated.suite, seed=13, budget_programs=120)
        return (
            generated.suite_text(),
            sorted(result.coverage),
            sorted(result.crash_log.bug_ids()),
            result.executed_programs,
        )

    assert campaign(_chaos_backend(rate=0.2)) == campaign(OracleBackend())


def test_chaos_table1_render_is_byte_identical(small_kernel):
    """Rule 11 end to end: a config-driven chaos table1 render equals the
    fault-free render (the CI chaos-smoke job's in-process twin)."""
    from repro.experiments.config import quick
    from repro.experiments.context import EvaluationContext
    from repro.experiments.table1 import run_table1

    def render(**overrides) -> str:
        config = quick().with_overrides(**overrides)
        return run_table1(EvaluationContext(config, small_kernel)).render()

    assert render(fault_plan="rate=0.2,seed=7") == render()
