"""The execution engine: determinism, caching, scheduling, instrumentation.

The contract under test: memoized and engine-less generation produce
byte-identical suites, any ``jobs`` level produces identical campaign
coverage/crash sets, and the memo caches are single-flight.
"""

import concurrent.futures
import os
import threading

import pytest

from repro.core import KernelGPT
from repro.engine import (
    ExecutionEngine,
    MemoCache,
    ProcessPoolExecutor,
    SerialExecutor,
    TaskSpec,
    ThreadPoolExecutor,
    create_executor,
    derive_seed,
)
from repro.fuzzer import merge_campaigns, run_repeated_campaigns
from repro.llm import OracleBackend

#: A determinism-sensitive handler mix: secondary-handler chains (kvm, whose
#: VM/VCPU handlers are also generated standalone, so sessions share prompts),
#: repairable error injection (cec), sockets, and a plain driver.
HANDLERS = [
    "kvm_fops",
    "kvm_vm_fops",
    "kvm_vcpu_fops",
    "dm_ctl_fops",
    "cec_devnode_fops",
    "rds_proto_ops",
    "udmabuf_fops",
]


# --------------------------------------------------------------------- tasks
def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)
    assert derive_seed(7, "a", 1) != derive_seed(7, "a", 2)
    assert derive_seed(7, "a") != derive_seed(8, "a")
    assert 0 <= derive_seed(2025, "table5", "kvm") < 2**31


def test_executors_preserve_submission_order():
    tasks = [TaskSpec(key=str(i), fn=lambda i=i: i * i) for i in range(20)]
    for executor in (SerialExecutor(), ThreadPoolExecutor(4)):
        results = executor.run(tasks)
        assert [r.key for r in results] == [str(i) for i in range(20)]
        assert [r.value for r in results] == [i * i for i in range(20)]


def test_executor_captures_errors_without_aborting_siblings():
    def boom():
        raise ValueError("boom")

    tasks = [TaskSpec(key="ok", fn=lambda: 1), TaskSpec(key="bad", fn=boom)]
    results = ThreadPoolExecutor(2).run(tasks)
    assert results[0].ok and results[0].value == 1
    assert not results[1].ok and isinstance(results[1].error, ValueError)

    engine = ExecutionEngine(jobs=2)
    with pytest.raises(ValueError):
        engine.run_tasks("batch", tasks)
    kept = engine.run_tasks("batch", tasks, rethrow=False)
    assert [r.ok for r in kept] == [True, False]


def test_create_executor_kinds():
    assert create_executor(1).name == "serial"
    assert create_executor(4, "serial").name == "serial"
    assert create_executor(4).name == "thread"
    assert create_executor(4, "process").name == "process"
    with pytest.raises(ValueError):
        create_executor(4, "quantum")


def test_executor_memory_sharing_flags():
    assert SerialExecutor().shares_memory
    assert ThreadPoolExecutor(2).shares_memory
    assert not ProcessPoolExecutor(2).shares_memory
    assert ExecutionEngine(jobs=2, executor=ProcessPoolExecutor(2)).shares_memory is False


# ----------------------------------------------------------------- pool size
def test_pool_size_is_capped_by_cpus_and_batch(monkeypatch):
    """A pool gets min(jobs, cpu_count) workers; a batch at most one per task."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for kind in ("thread", "process"):
        assert create_executor(8, kind).jobs == 2
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    for kind in ("thread", "process"):
        assert create_executor(2, kind).jobs == 2

    sizes, observed = [], set()

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    def probe(i):
        observed.add(threading.current_thread().name)
        return i

    pool = ThreadPoolExecutor(8)
    pool.pool_factory = RecordingPool
    results = pool.run([TaskSpec(key=str(i), fn=probe, args=(i,)) for i in range(3)])
    assert [r.value for r in results] == [0, 1, 2]
    assert sizes == [3]
    assert len(observed) <= 3


# ------------------------------------------------------------------ pickling
def test_generator_and_backends_are_picklable(small_kernel, extractor):
    import pickle

    from repro.llm import RecordingBackend, ReplayBackend

    engine = ExecutionEngine(jobs=2)
    generator = KernelGPT(small_kernel, OracleBackend(), extractor=extractor, engine=engine)
    clone = pickle.loads(pickle.dumps(generator))
    assert clone.engine is None           # engines never cross process bounds
    assert clone.backend.usage.queries == 0

    recording = RecordingBackend(ReplayBackend(default="## UNKNOWN\n(none)\n"))
    restored = pickle.loads(pickle.dumps(recording))
    from repro.llm import Prompt

    completion = restored.query(Prompt(kind="identifier", subject="s", text="t"))
    assert "(none)" in completion.text
    assert len(restored.exchanges) == 1


# --------------------------------------------------------------------- cache
def test_memo_cache_hit_miss_accounting():
    cache = MemoCache("t")
    calls = []
    for _ in range(3):
        assert cache.get_or_compute("k", lambda: calls.append(1) or 42) == 42
    assert len(calls) == 1
    assert cache.stats.misses == 1 and cache.stats.hits == 2
    assert cache.stats.calls == 3 and cache.stats.hit_rate == pytest.approx(2 / 3)
    assert "k" in cache and len(cache) == 1


def test_memo_cache_single_flight_under_concurrency():
    cache = MemoCache("t")
    computed = []
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait()
        return cache.get_or_compute("key", lambda: computed.append(1) or "value")

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert computed == [1]          # exactly one compute, whatever the schedule
    assert cache.stats.misses == 1 and cache.stats.hits == 7


def test_memo_cache_error_does_not_poison_key():
    cache = MemoCache("t")

    def fail():
        raise RuntimeError("transient")

    with pytest.raises(RuntimeError):
        cache.get_or_compute("k", fail)
    assert cache.stats.errors == 1 and cache.stats.misses == 0
    assert cache.get_or_compute("k", lambda: 7) == 7
    assert cache.stats.misses == 1


def test_query_budget_is_exact_under_concurrency():
    from repro.errors import LLMBudgetExceeded
    from repro.llm import Prompt

    backend = OracleBackend(query_budget=10)
    prompt = Prompt(kind="identifier", subject="x", text="## REGISTRATION\n\n")
    errors = []
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait()
        for _ in range(4):
            try:
                backend.query(prompt)
            except LLMBudgetExceeded:
                errors.append(1)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Budget slots are reserved atomically: exactly 10 queries recorded,
    # every other attempt rejected — same as a serial schedule.
    assert backend.usage.queries == 10
    assert len(errors) == 8 * 4 - 10


# --------------------------------------------------- generation determinism
def _suites_and_queries(run):
    return (
        {h: r.suite_text() for h, r in run.results.items()},
        {h: r.queries for h, r in run.results.items()},
    )


def test_memoized_generation_matches_engineless(small_kernel, extractor):
    plain = KernelGPT(small_kernel, OracleBackend(), extractor=extractor)
    plain_run = plain.generate_for_handlers(HANDLERS)

    engine = ExecutionEngine()
    memoized = KernelGPT(small_kernel, OracleBackend(), extractor=extractor, engine=engine)
    memoized_run = memoized.generate_for_handlers(HANDLERS)

    plain_texts, plain_queries = _suites_and_queries(plain_run)
    memo_texts, memo_queries = _suites_and_queries(memoized_run)
    assert list(memo_texts) == list(plain_texts)   # handler order preserved
    assert memo_texts == plain_texts               # byte-identical suites
    assert memo_queries == plain_queries           # session-level query attribution


def test_generation_cache_accounting_is_single_flight(small_kernel, extractor):
    engine = ExecutionEngine()
    generator = KernelGPT(small_kernel, OracleBackend(), extractor=extractor, engine=engine)
    run = generator.generate_for_handlers(HANDLERS, engine=engine)
    assert run.results

    llm = engine.llm_cache.stats
    # Single-flight: the backend records exactly one query per distinct prompt.
    assert generator.backend.usage.queries == llm.misses
    # Every session-issued query went through the cache.
    assert sum(r.queries for r in run.results.values()) == llm.calls
    # The handler mix shares prompts: kvm's secondary-handler analysis issues
    # the same prompts as the standalone kvm_vm/vcpu sessions.
    assert llm.hits > 0
    assert engine.extract_cache.stats.hits > 0

    # Regenerating a handler is pure cache traffic: no new backend queries.
    misses_before = llm.misses
    repeat = generator.generate_for_handler(HANDLERS[0])
    assert repeat.queries == run.results[HANDLERS[0]].queries
    assert llm.misses == misses_before


def test_fanout_engine_reaches_sessions_on_engineless_generator(small_kernel, extractor):
    """An explicit engine on a generator built without one must still memoize.

    The caller's engine is threaded into each session, so the single-flight
    LLM cache applies (one backend query per distinct prompt) even though
    generator.engine is None.
    """
    backend = OracleBackend()
    generator = KernelGPT(small_kernel, backend, extractor=extractor)
    engine = ExecutionEngine(jobs=4, executor=ThreadPoolExecutor(4))
    run = generator.generate_for_handlers(HANDLERS, engine=engine)
    assert run.results
    assert engine.llm_cache.stats.calls > 0
    assert backend.usage.queries == engine.llm_cache.stats.misses
    assert engine.extract_cache.stats.calls > 0


def test_engine_profile_records_generation_stages(small_kernel, extractor):
    engine = ExecutionEngine(jobs=2, executor=ThreadPoolExecutor(2))
    generator = KernelGPT(small_kernel, OracleBackend(), extractor=extractor, engine=engine)
    generator.generate_for_handlers(HANDLERS[:2], engine=engine)
    report = engine.profile.report()
    for stage in ("generation", "generation/identifier", "generation/type", "generation/repair"):
        assert stage in report and report[stage]["total_seconds"] >= 0.0
    assert report["generation/identifier"]["calls"] >= 2
    assert "generation" in engine.profile.render()


# ----------------------------------------------------- campaign determinism
@pytest.fixture(scope="module")
def campaign_suite(small_kernel, syzkaller_corpus):
    return syzkaller_corpus.flatten("syzkaller")


def test_parallel_campaigns_match_serial(small_kernel, campaign_suite):
    serial = run_repeated_campaigns(
        small_kernel, campaign_suite, repetitions=3, budget_programs=150, base_seed=11
    )
    parallel = run_repeated_campaigns(
        small_kernel, campaign_suite, repetitions=3, budget_programs=150, base_seed=11,
        engine=ExecutionEngine(jobs=3, executor=ThreadPoolExecutor(3)),
    )
    assert [c.seed for c in parallel] == [c.seed for c in serial]
    for serial_campaign, parallel_campaign in zip(serial, parallel):
        assert parallel_campaign.coverage == serial_campaign.coverage
        assert parallel_campaign.crash_log.bug_ids() == serial_campaign.crash_log.bug_ids()
        assert parallel_campaign.executed_programs == serial_campaign.executed_programs


def test_merge_campaigns_aggregates(small_kernel, campaign_suite):
    campaigns = run_repeated_campaigns(
        small_kernel, campaign_suite, repetitions=2, budget_programs=100, base_seed=3
    )
    merged = merge_campaigns(campaigns)
    assert merged.coverage == campaigns[0].coverage | campaigns[1].coverage
    assert merged.executed_programs == sum(c.executed_programs for c in campaigns)
    assert set(merged.crash_log.bug_ids()) == set(
        campaigns[0].crash_log.bug_ids() + campaigns[1].crash_log.bug_ids()
    )
