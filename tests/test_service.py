"""The serving layer: batch coalescing, tenant budgets, job service.

Covers the coalescer edge cases the serving layer's correctness rests on —
empty flush, window timeout with a single request, cross-tenant dedupe
without budget leakage, mid-batch budget exhaustion raising at the right
request, deterministic drain ordering — plus the service-level contracts:
admission control, result streaming, a job's concurrent handler sessions,
and the rule-8 guarantee that a single-job service run is byte-identical to
the CLI path.
"""

import gc
import sys
import threading
import time
import weakref

import pytest

from repro.core import KernelGPT
from repro.errors import ExtractionError, ServiceSaturated, TenantBudgetExceeded
from repro.llm import BatchCoalescer, CoalescingBackend, Completion, LLMBackend, Prompt
from repro.service import Job, JobService
from repro.experiments.config import quick


class EchoBackend(LLMBackend):
    """Deterministic test backend recording every batch it serves."""

    def __init__(self):
        super().__init__(model="echo")
        self.batches: list[list[str]] = []

    def complete_batch(self, requests):
        from repro.llm import LLMRequest

        normalized = [LLMRequest.of(item) for item in requests]
        self.batches.append([request.prompt.text for request in normalized])
        return super()._serve_batch(normalized)

    def complete(self, prompt):
        return Completion(text=f"reply:{prompt.text}", model=self.model)


def prompt(text: str, kind: str = "usage") -> Prompt:
    return Prompt(kind=kind, subject="svc", text=text)


# ------------------------------------------------------------- coalescer core
class TestCoalescer:
    def test_empty_flush_is_a_noop(self):
        backend = EchoBackend()
        coalescer = BatchCoalescer(backend, drain=True)
        assert coalescer.flush() == 0
        assert backend.batches == []
        assert coalescer.stats()["flushes"] == 0

    def test_empty_submission_returns_empty(self):
        coalescer = BatchCoalescer(EchoBackend(), drain=True)
        assert coalescer.submit([]) == []

    def test_drain_mode_flushes_inline_in_admission_order(self):
        backend = EchoBackend()
        coalescer = BatchCoalescer(backend, drain=True)
        first = coalescer.submit([prompt("a"), prompt("b")])
        second = coalescer.submit([prompt("c")])
        assert [completion.text for completion in first] == ["reply:a", "reply:b"]
        assert [completion.text for completion in second] == ["reply:c"]
        # Drain: each submission is its own backend batch, in order.
        assert backend.batches == [["a", "b"], ["c"]]

    def test_window_timeout_flushes_a_single_request(self):
        backend = EchoBackend()
        coalescer = BatchCoalescer(backend, window=0.01)
        try:
            result = coalescer.submit([prompt("lonely")])
            assert [completion.text for completion in result] == ["reply:lonely"]
            assert backend.batches == [["lonely"]]
        finally:
            coalescer.close()

    def test_hold_merges_concurrent_submissions_in_admission_order(self):
        backend = EchoBackend()
        coalescer = BatchCoalescer(backend, drain=True)
        outputs: dict[str, list[str]] = {}

        def submit(text: str) -> None:
            outputs[text] = [c.text for c in coalescer.submit([prompt(text)])]

        threads = []
        with coalescer.hold():
            for index, text in enumerate(("one", "two", "three")):
                thread = threading.Thread(target=submit, args=(text,))
                thread.start()
                threads.append(thread)
                # Admission order is only deterministic if we let each
                # submission land before starting the next.
                assert coalescer.wait_for_pending(index + 1)
        for thread in threads:
            thread.join()
        assert backend.batches == [["one", "two", "three"]]
        assert outputs["two"] == ["reply:two"]
        stats = coalescer.stats()
        assert stats["merged_flushes"] == 1
        assert stats["max_merged_batch"] == 3

    def test_max_batch_triggers_early_flush(self):
        backend = EchoBackend()
        coalescer = BatchCoalescer(backend, window=30.0, max_batch=2)
        try:
            outputs = []
            threads = [
                threading.Thread(
                    target=lambda t: outputs.append(coalescer.submit([prompt(t)])),
                    args=(text,),
                )
                for text in ("x", "y")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                # Well under the 30s window: only the size trigger can
                # have flushed.
                thread.join(timeout=5.0)
                assert not thread.is_alive()
            assert len(backend.batches) == 1
            assert sorted(backend.batches[0]) == ["x", "y"]
        finally:
            coalescer.close()

    def test_backend_failure_reaches_every_waiter(self):
        class FailingBackend(EchoBackend):
            def complete_batch(self, requests):
                raise RuntimeError("backend down")

        coalescer = BatchCoalescer(FailingBackend(), drain=True)
        with pytest.raises(RuntimeError, match="backend down"):
            coalescer.submit([prompt("doomed")])
        assert coalescer.stats()["errors"] == 1

    def test_closed_coalescer_refuses_submissions(self):
        coalescer = BatchCoalescer(EchoBackend(), window=0.01)
        coalescer.close()
        with pytest.raises(ServiceSaturated):
            coalescer.submit([prompt("late")])


# ---------------------------------------------------------------- tenant rules
class TestTenantBudgets:
    def test_same_prompt_from_two_tenants_dedupes_without_leaking_accounting(self):
        backend = EchoBackend()
        coalescer = BatchCoalescer(backend, drain=True)
        coalescer.set_tenant_budget("alpha", 1)
        coalescer.set_tenant_budget("beta", 1)
        replies: dict[str, list[str]] = {}

        def submit(tenant: str) -> None:
            replies[tenant] = [
                c.text
                for c in coalescer.submit([prompt("shared")], tenant=tenant, client=tenant)
            ]

        threads = []
        with coalescer.hold():
            for index, tenant in enumerate(("alpha", "beta")):
                thread = threading.Thread(target=submit, args=(tenant,))
                thread.start()
                threads.append(thread)
                assert coalescer.wait_for_pending(index + 1)
        for thread in threads:
            thread.join()
        # One merged batch; the member-level dedupe computes "shared" once...
        assert backend.batches == [["shared", "shared"]]
        assert backend.usage.queries == 1
        assert replies["alpha"] == replies["beta"] == ["reply:shared"]
        # ...but each tenant is charged for the distinct query *it* submitted:
        # the dedupe saving belongs to the service, not to either budget.
        usage = coalescer.tenant_usage()
        assert usage["alpha"]["used"] == 1
        assert usage["beta"]["used"] == 1
        # The free ride is credited to the second-admitted client's stats.
        total_saved = sum(
            coalescer.client_stats(tenant)["queries_saved_by_coalescing"]
            for tenant in ("alpha", "beta")
        )
        assert total_saved == 1

    def test_exhaustion_mid_batch_serves_prefix_and_names_the_request(self):
        backend = EchoBackend()
        coalescer = BatchCoalescer(backend, drain=True)
        coalescer.set_tenant_budget("tight", 2)
        with pytest.raises(TenantBudgetExceeded) as excinfo:
            coalescer.submit(
                [prompt("p0"), prompt("p1"), prompt("p2")], tenant="tight"
            )
        error = excinfo.value
        assert error.tenant == "tight"
        assert error.limit == 2
        assert error.requested == 3
        # The first unfundable request is position 2; the funded prefix was
        # still served (and charged) before the raise.
        assert error.request_index == 2
        assert backend.batches == [["p0", "p1"]]
        assert coalescer.tenant_usage()["tight"]["used"] == 2
        # A fully-exhausted tenant fails at its very first request.
        with pytest.raises(TenantBudgetExceeded) as excinfo:
            coalescer.submit([prompt("p3")], tenant="tight")
        assert excinfo.value.request_index == 0
        assert backend.batches == [["p0", "p1"]]

    def test_duplicates_within_a_batch_are_charged_once(self):
        coalescer = BatchCoalescer(EchoBackend(), drain=True)
        coalescer.set_tenant_budget("dup", 1)
        result = coalescer.submit([prompt("same"), prompt("same")], tenant="dup")
        assert [c.text for c in result] == ["reply:same", "reply:same"]
        assert coalescer.tenant_usage()["dup"]["used"] == 1


# ------------------------------------------------------------ pickling + admit
class TestPicklingAndAdmission:
    def test_pickled_coalescing_backend_proxies_its_inner_copy(self):
        import pickle

        inner = EchoBackend()
        coalescer = BatchCoalescer(inner, drain=True)
        backend = CoalescingBackend(coalescer, tenant="t", client="c")
        clone = pickle.loads(pickle.dumps(backend))
        assert clone.coalescer is None
        replies = clone.complete_batch([prompt("worker-side")])
        assert [c.text for c in replies] == ["reply:worker-side"]
        # Served by the clone's own inner copy, not the parent's coalescer.
        assert inner.batches == []


# ---------------------------------------------------------------- job service
@pytest.fixture(scope="module")
def service_kernel():
    from repro.kernel import build_default_kernel

    return build_default_kernel("small")


HANDLERS = ("dm_ctl_fops", "kvm_fops")
#: Multi-handler jobs from different tenants that share handlers.  Two
#: name a handler twice, whose sessions the job's memo must collapse.
SHARED_JOBS = (
    ("alpha", ("dm_ctl_fops", "kvm_fops", "timer_fops")),
    ("beta", ("kvm_fops", "dm_ctl_fops", "kvm_fops")),
    ("gamma", ("timer_fops", "ppp_fops", "dm_ctl_fops")),
    ("delta", ("ppp_fops", "timer_fops", "ppp_fops")),
)


def session_threads() -> list[threading.Thread]:
    return [thread for thread in threading.enumerate() if thread.name.startswith("job-session")]


class TestJobService:
    def test_single_job_matches_the_cli_path_bytes(self, service_kernel):
        from repro.experiments.context import EvaluationContext

        ctx = EvaluationContext(quick(), service_kernel)
        direct = ctx.kernelgpt.generate_for_handler("dm_ctl_fops")
        expected = (
            f"== dm_ctl_fops (valid={direct.valid}, "
            f"syscalls={direct.syscall_count}, repaired={direct.repaired})\n"
            f"{direct.suite_text()}"
        )
        texts = {}
        for coalesce in (False, True):
            with JobService(
                quick(), workers=2, kernel=service_kernel, coalesce=coalesce
            ) as service:
                handle = service.submit(Job(kind="generation", handlers=("dm_ctl_fops",)))
                result = handle.wait(timeout=120)
            assert result.ok, result.error
            texts[coalesce] = result.text
        # Rule 8: single-job service output is byte-identical to the CLI
        # path, with coalescing on or off.
        assert texts[True] == texts[False] == expected

    def test_concurrent_identical_jobs_coalesce_and_stay_identical(self, service_kernel):
        results = {}
        calls = {}
        for coalesce in (False, True):
            from repro.llm import OracleBackend

            class Counting(LLMBackend):
                def __init__(self):
                    super().__init__(model="count")
                    self.inner = OracleBackend()
                    self.calls = 0

                def complete_batch(self, requests):
                    self.calls += 1
                    return self.inner.complete_batch(requests)

                def complete(self, prompt):
                    raise NotImplementedError

            backend = Counting()
            with JobService(
                quick(),
                workers=3,
                kernel=service_kernel,
                backend=backend,
                coalesce=coalesce,
                window=0.02,
            ) as service:
                handles = [
                    service.submit(
                        Job(kind="generation", tenant=f"tenant-{i}", handlers=HANDLERS)
                    )
                    for i in range(3)
                ]
                outcomes = [handle.wait(timeout=180) for handle in handles]
                stats = service.stats()["coalescer"]
            assert all(outcome.ok for outcome in outcomes), [o.error for o in outcomes]
            results[coalesce] = [outcome.text for outcome in outcomes]
            calls[coalesce] = backend.calls
            if coalesce:
                assert stats["merged_flushes"] >= 1
                assert stats["queries_saved_by_coalescing"] > 0
                saved = sum(
                    o.coalescing["queries_saved_by_coalescing"] for o in outcomes
                )
                assert saved > 0
        # Coalescing reduces round trips and never changes bytes.
        assert calls[True] < calls[False]
        assert results[True] == results[False]
        assert len(set(results[True])) == 1  # identical jobs, identical text

    def test_events_stream_in_handler_order(self, service_kernel, monkeypatch):
        first, second, last = handlers = ("dm_ctl_fops", "kvm_fops", "timer_fops")
        second_done, two_seen = threading.Event(), threading.Event()
        waited: dict[str, bool] = {}
        generate = KernelGPT.generate_for_handler

        def gated(self, handler_name, **kwargs):
            # The first handler finishes after the second, and the last one
            # only once the client has seen two events: events must follow
            # handler order and stream before the job ends.
            if handler_name == first:
                waited[first] = second_done.wait(timeout=10)
            if handler_name == last:
                waited[last] = two_seen.wait(timeout=10)
            generated = generate(self, handler_name, **kwargs)
            if handler_name == second:
                second_done.set()
            return generated

        monkeypatch.setattr(KernelGPT, "generate_for_handler", gated)
        with JobService(quick(), workers=1, kernel=service_kernel) as service:
            handle = service.submit(Job(kind="generation", handlers=handlers))
            streamed = []
            for event in handle.events():
                streamed.append(event.detail.split()[0])
                if len(streamed) == 2:
                    two_seen.set()
            result = handle.wait(timeout=120)
        assert result.ok, result.error
        assert waited == {first: True, last: True}
        assert streamed == list(handlers)
        assert [e.stage for e in result.events] == ["handler"] * 3

    def test_first_failing_handler_fails_the_job_after_earlier_events(self, service_kernel):
        handlers = ("dm_ctl_fops", "no_such_fops", "kvm_fops", "also_missing_fops")
        with JobService(quick(), workers=1, kernel=service_kernel) as service:
            handle = service.submit(Job(kind="generation", handlers=handlers))
            streamed = [event.detail.split()[0] for event in handle.events()]
            result = handle.wait(timeout=120)
            # No session of the failed job outlives it.
            assert session_threads() == []
        assert isinstance(result.error, ExtractionError)
        assert "no_such_fops" in str(result.error)
        assert streamed == ["dm_ctl_fops"]
        assert [event.detail.split()[0] for event in result.events] == ["dm_ctl_fops"]

    def test_all_handler_job_runs_at_most_max_batch_sessions(self, service_kernel, monkeypatch):
        lock = threading.Lock()
        live = [0, 0]  # current, peak
        generate = KernelGPT.generate_for_handler

        def counted(self, handler_name, **kwargs):
            with lock:
                live[0] += 1
                live[1] = max(live)
            try:
                time.sleep(0.005)
                return generate(self, handler_name, **kwargs)
            finally:
                with lock:
                    live[0] -= 1

        monkeypatch.setattr(KernelGPT, "generate_for_handler", counted)
        with JobService(quick(), workers=1, kernel=service_kernel, max_batch=4) as service:
            result = service.submit(Job(kind="generation")).wait(timeout=120)
            handlers = service.context.selection.all_handlers
        assert result.ok, result.error
        assert len(result.events) == len(handlers) > 4
        assert 1 < live[1] <= 4

    def test_concurrent_multi_handler_jobs_match_their_solo_runs(self, service_kernel):
        jobs = [
            Job(kind="generation", tenant=f"{tenant}-{copy}", handlers=handlers)
            for copy in range(2)
            for tenant, handlers in SHARED_JOBS
        ]
        solo = {}
        # max_batch=1 runs a job's sessions one at a time: the serial reference.
        with JobService(quick(), workers=1, kernel=service_kernel, max_batch=1) as service:
            for tenant, handlers in SHARED_JOBS:
                alone = service.submit(Job(kind="generation", handlers=handlers)).wait(120)
                assert alone.ok, alone.error
                solo[handlers] = (alone.text, alone.queries)
        # More job and session threads than cores, switching as often as the
        # interpreter allows: a double compute or a lost memo update in a
        # job's shared engine would change its query count.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with JobService(
                quick(), workers=len(SHARED_JOBS), kernel=service_kernel
            ) as service:
                results = [handle.wait(timeout=120) for handle in service.submit_all(jobs)]
        finally:
            sys.setswitchinterval(interval)
        for job, result in zip(jobs, results):
            assert result.ok, result.error
            assert (result.text, result.queries) == solo[job.handlers], job

    def test_released_handles_are_collectable_and_clients_dropped(self, service_kernel):
        with JobService(quick(), workers=2, kernel=service_kernel) as service:
            handles = service.submit_all(
                [Job(kind="generation", tenant=tenant, handlers=h) for tenant, h in SHARED_JOBS]
            )
            assert all(handle.wait(timeout=120).ok for handle in handles)
            assert service.coalescer._clients == {}
            refs = [weakref.ref(handle) for handle in handles]
            del handles
            deadline = time.monotonic() + 10
            while any(ref() is not None for ref in refs) and time.monotonic() < deadline:
                gc.collect()
                time.sleep(0.01)
            assert [ref() for ref in refs] == [None] * len(refs)

    def test_max_pending_saturates(self, service_kernel):
        service = JobService(
            quick(), workers=1, max_pending=1, kernel=service_kernel
        )
        try:
            service.submit(Job(kind="generation", handlers=HANDLERS))
            with pytest.raises(ServiceSaturated) as excinfo:
                service.submit(Job(kind="generation", handlers=HANDLERS))
            assert excinfo.value.limit == 1
        finally:
            service.close()
        with pytest.raises(ServiceSaturated):
            service.submit(Job(kind="generation", handlers=HANDLERS))

    def test_tenant_budget_fails_the_job_with_a_typed_error(self, service_kernel):
        with JobService(
            quick(),
            workers=1,
            kernel=service_kernel,
            tenant_budgets={"capped": 3},
        ) as service:
            handle = service.submit(
                Job(kind="generation", tenant="capped", handlers=("dm_ctl_fops",))
            )
            result = handle.wait(timeout=120)
        assert not result.ok
        assert isinstance(result.error, TenantBudgetExceeded)
        assert result.error.tenant == "capped"

    def test_fuzz_job_generates_its_suite_on_the_tenant_budget(self, service_kernel):
        from repro.experiments.context import EvaluationContext
        from repro.fuzzer import run_campaign

        ctx = EvaluationContext(quick(), service_kernel)
        suite = ctx.kernelgpt.generate_for_handler("dm_ctl_fops").suite
        campaign = run_campaign(service_kernel, suite, 0, 50)
        expected = (
            f"fuzz {suite.name} seed=0 programs={campaign.executed_programs} "
            f"coverage={campaign.coverage_count} crashes={campaign.unique_crashes} "
            f"corpus={campaign.corpus_size}\n"
        )
        with JobService(
            quick(), workers=1, kernel=service_kernel, tenant_budgets={"capped": 3}
        ) as service:
            capped, free = [
                service.submit(
                    Job(kind="fuzz", tenant=tenant, suite="dm_ctl_fops", budget_programs=50)
                ).wait(timeout=120)
                for tenant in ("capped", "free")
            ]
        assert isinstance(capped.error, TenantBudgetExceeded)
        assert capped.error.tenant == "capped"
        assert free.ok, free.error
        assert free.text == expected
        assert free.queries > 0

    def test_fuzz_job_smoke(self, service_kernel):
        with JobService(quick(), workers=1, kernel=service_kernel) as service:
            handle = service.submit(Job(kind="fuzz", suite="syzkaller", budget_programs=50))
            result = handle.wait(timeout=120)
        assert result.ok, result.error
        assert "programs=50" in result.text
        assert [e.stage for e in result.events] == ["suite", "campaign"]

    def test_repair_job_reports_repair_stats(self, service_kernel):
        with JobService(quick(), workers=1, kernel=service_kernel) as service:
            handle = service.submit(Job(kind="repair", handlers=("dm_ctl_fops",)))
            result = handle.wait(timeout=120)
        assert result.ok, result.error
        assert "mode=transactional" in result.text
