"""Cross-jobs determinism matrix: jobs x executor must never change output.

The acceptance contract for process sharding: for every combination of
``jobs ∈ {1, 2, 4}`` and ``executor ∈ {serial, thread, process}``, a
generation campaign produces byte-identical suites with identical
session-attributed query counts, and a fuzz campaign produces identical
coverage/crash results — all compared against a plain engine-less serial
run.  The repair-mode axis additionally pins the transactional repair
protocol: byte-identical to its own serial baseline at every cell, and
valid-or-exhausted equivalent to the per-query loop (see
``test_transactional_repair_matrix``).  Executors are constructed
explicitly (not via ``create_executor``) so
the matrix exercises real thread/process pools even on a single-core CI
host, where ``create_executor`` would cap them at one worker.
"""

import pytest

from repro.core import KernelGPT
from repro.engine import (
    ExecutionEngine,
    ProcessPoolExecutor,
    SerialExecutor,
    ThreadPoolExecutor,
)
from repro.fuzzer import run_repeated_campaigns
from repro.llm import OracleBackend, Prompt, RecordingBackend, ReplayBackend

#: Small but representative: a repair-heavy driver (cec), a delegating
#: driver (dm), a socket handler (rds) and a plain driver (udmabuf).
HANDLERS = ["dm_ctl_fops", "cec_devnode_fops", "rds_proto_ops", "udmabuf_fops"]

JOBS_LEVELS = (1, 2, 4)
EXECUTOR_KINDS = ("serial", "thread", "process")


def _engine(kind: str, jobs: int) -> ExecutionEngine:
    if kind == "serial" or jobs <= 1:
        executor = SerialExecutor()
    elif kind == "thread":
        executor = ThreadPoolExecutor(jobs)
    else:
        executor = ProcessPoolExecutor(jobs)
    return ExecutionEngine(jobs=jobs, executor=executor)


# ------------------------------------------------------------- generation
@pytest.fixture(scope="module")
def generation_baseline(small_kernel, extractor):
    """The engine-less serial run every matrix cell must reproduce.

    Built with ``batch_queries=False`` — the strictly per-query schedule of
    the pre-batching pipeline — so the batched cells prove the batched
    protocol changes nothing, not merely that it agrees with itself.
    """
    generator = KernelGPT(small_kernel, OracleBackend(), extractor=extractor, batch_queries=False)
    run = generator.generate_for_handlers(HANDLERS)
    suites = {handler: result.suite_text() for handler, result in run.results.items()}
    queries = {handler: result.queries for handler, result in run.results.items()}
    flags = {handler: (result.valid, result.repaired) for handler, result in run.results.items()}
    return suites, queries, run.usage_summary(), flags


@pytest.mark.parametrize("batched", (True, False), ids=("batched", "per-query"))
@pytest.mark.parametrize("jobs", JOBS_LEVELS)
@pytest.mark.parametrize("kind", EXECUTOR_KINDS)
def test_generation_matrix_is_byte_identical(
    small_kernel, extractor, generation_baseline, kind, jobs, batched
):
    """Every (jobs, executor, batched) cell reproduces the serial baseline.

    The ``batched`` axis pins the batched-session contract: submitting each
    stage's prompts as one ``complete_batch`` (the default) and the
    per-query path must produce the same bytes, query counts and usage as
    each other and as the engine-less serial baseline.
    """
    baseline_suites, baseline_queries, baseline_usage, _ = generation_baseline
    engine = _engine(kind, jobs)
    generator = KernelGPT(
        small_kernel, OracleBackend(), extractor=extractor, engine=engine,
        batch_queries=batched,
    )
    run = generator.generate_for_handlers(HANDLERS, engine=engine)

    suites = {handler: result.suite_text() for handler, result in run.results.items()}
    queries = {handler: result.queries for handler, result in run.results.items()}
    assert list(suites) == list(baseline_suites)      # handler order preserved
    assert suites == baseline_suites                  # byte-identical suites
    assert queries == baseline_queries                # identical query counts
    assert run.usage_summary() == baseline_usage      # derived usage identical


# ----------------------------------------------------- repair-mode axis
@pytest.fixture(scope="module")
def transactional_baseline(small_kernel, extractor):
    """The engine-less serial transactional run every repair-mode cell
    must reproduce byte for byte."""
    generator = KernelGPT(
        small_kernel, OracleBackend(), extractor=extractor, repair_mode="transactional"
    )
    run = generator.generate_for_handlers(HANDLERS)
    suites = {handler: result.suite_text() for handler, result in run.results.items()}
    queries = {handler: result.queries for handler, result in run.results.items()}
    flags = {handler: (result.valid, result.repaired) for handler, result in run.results.items()}
    return suites, queries, flags


@pytest.mark.parametrize("jobs", JOBS_LEVELS)
@pytest.mark.parametrize("kind", EXECUTOR_KINDS)
def test_transactional_repair_matrix(
    small_kernel, extractor, transactional_baseline, generation_baseline, kind, jobs
):
    """The repair-mode axis of the matrix, both halves of its contract:

    * **determinism** — a transactional run is byte-identical to the
      engine-less serial transactional baseline at every (jobs, executor)
      cell (snapshot prompts and the rule-7 commit order make the round a
      pure function of the round-start suite, so scheduling cannot leak);
    * **equivalence** — its valid-or-exhausted outcome and ``repaired``
      flags match the per-query baseline on the replay corpus, which is
      what keeps the per-query loop an oracle rather than a second mode
      with different results.
    """
    baseline_suites, baseline_queries, baseline_flags = transactional_baseline
    _, _, _, per_query_flags = generation_baseline
    engine = _engine(kind, jobs)
    generator = KernelGPT(
        small_kernel, OracleBackend(), extractor=extractor, engine=engine,
        repair_mode="transactional",
    )
    run = generator.generate_for_handlers(HANDLERS, engine=engine)
    assert {h: r.suite_text() for h, r in run.results.items()} == baseline_suites
    assert {h: r.queries for h, r in run.results.items()} == baseline_queries
    flags = {h: (r.valid, r.repaired) for h, r in run.results.items()}
    assert flags == baseline_flags
    assert flags == per_query_flags


def test_process_generation_enforces_query_budget_at_join(small_kernel, extractor):
    """A blown query budget fails the batch in process mode too.

    Worker copies enforce the budget per shard during the batch; the join
    charges the merged total against the parent's reservations, so the run
    still ends in LLMBudgetExceeded exactly like a shared-memory run.
    """
    from repro.errors import LLMBudgetExceeded

    # HANDLERS need ~100 queries total but no single handler needs more
    # than ~35, so a budget of 60 passes every per-shard check and the
    # violation is only detectable at the merge — which must raise.
    backend = OracleBackend(query_budget=60)
    generator = KernelGPT(small_kernel, backend, extractor=extractor)
    with pytest.raises(LLMBudgetExceeded):
        generator.generate_for_handlers(HANDLERS, engine=_engine("process", 2))
    # Usage/exchange merging still happened before the raise.
    assert backend.usage.queries > 60


def test_process_budget_outcome_ignores_which_worker_runs_what(small_kernel, extractor):
    """The worst-case schedule: one process worker is dealt every handler.

    Its backend copy serves all four tasks, yet each task must start from
    the fan-out reservations: no task trips the budget on its own, and the
    merged total fails at the join with every task's usage accounted.
    """
    from repro.errors import LLMBudgetExceeded

    backend = OracleBackend(query_budget=60)
    generator = KernelGPT(small_kernel, backend, extractor=extractor)
    engine = ExecutionEngine(jobs=1, executor=ProcessPoolExecutor(1))
    with pytest.raises(LLMBudgetExceeded, match="across process shards"):
        generator.generate_for_handlers(HANDLERS, engine=engine)
    assert backend.usage.queries > 60


def test_process_task_error_still_returns_its_usage(small_kernel, extractor):
    """A task that blows the budget inside its worker still reports usage."""
    from repro.errors import LLMBudgetExceeded

    backend = OracleBackend(query_budget=20)
    generator = KernelGPT(small_kernel, backend, extractor=extractor)
    engine = ExecutionEngine(jobs=1, executor=ProcessPoolExecutor(1))
    with pytest.raises(LLMBudgetExceeded):
        generator.generate_for_handlers(["cec_devnode_fops"], engine=engine)
    assert backend.usage.queries == 20


def test_pickled_recording_backend_starts_with_empty_transcript(small_kernel, extractor):
    """Task payloads must not ship the parent's accumulated exchanges."""
    import pickle

    backend = RecordingBackend(OracleBackend())
    backend.query(Prompt(kind="identifier", subject="x", text="## Registration\nnothing\n"))
    assert len(backend.exchanges) == 1
    clone = pickle.loads(pickle.dumps(backend))
    assert clone.exchanges == []


@pytest.mark.parametrize("kind", EXECUTOR_KINDS)
def test_pool_routed_generation_matrix(small_kernel, extractor, generation_baseline, kind):
    """A BackendPool member routed by tag reproduces the direct-backend run.

    The multi-backend frontend must be invisible to determinism: a
    generator whose requests route through a pool to the same capability
    profile produces the baseline bytes on every executor kind.
    """
    from repro.llm import BackendPool, DegradedBackend

    baseline_suites, baseline_queries, _, _ = generation_baseline
    pool = BackendPool({"gpt-4": DegradedBackend.gpt4(), "gpt-3.5": DegradedBackend.gpt35()})
    engine = _engine(kind, 2)
    generator = KernelGPT(
        small_kernel, pool, extractor=extractor, engine=engine, backend_route="gpt-4"
    )
    run = generator.generate_for_handlers(HANDLERS, engine=engine)
    assert {h: r.suite_text() for h, r in run.results.items()} == baseline_suites
    assert {h: r.queries for h, r in run.results.items()} == baseline_queries


def test_process_generation_merges_worker_side_effects(small_kernel, extractor):
    """Process workers' usage and exchanges come back to the parent backend."""
    backend = RecordingBackend(OracleBackend())
    engine = _engine("process", 2)
    generator = KernelGPT(small_kernel, backend, extractor=extractor)
    run = generator.generate_for_handlers(HANDLERS, engine=engine)
    assert set(run.results) == set(HANDLERS)
    # Workers run engine-less (no memo cache), so merged usage equals the
    # session-attributed totals exactly.
    assert backend.usage.queries == sum(r.queries for r in run.results.values())
    assert len(backend.exchanges) == backend.usage.queries
    # The merged transcript is in task-submission order: every handler's
    # prompts appear, grouped per task.
    subjects = {exchange.prompt.subject for exchange in backend.exchanges}
    assert subjects.issuperset({"dm_ctl_fops", "rds_proto_ops"})


# ---------------------------------------------------------- fuzz campaigns
@pytest.fixture(scope="module")
def campaign_inputs(small_kernel, syzkaller_corpus):
    return small_kernel, syzkaller_corpus.flatten("syzkaller")


@pytest.fixture(scope="module")
def campaign_baseline(campaign_inputs):
    kernel, suite = campaign_inputs
    campaigns = run_repeated_campaigns(kernel, suite, repetitions=2, budget_programs=120, base_seed=13)
    return [
        (c.seed, sorted(c.coverage), sorted(c.crash_log.bug_ids()), c.executed_programs)
        for c in campaigns
    ]


@pytest.mark.parametrize("jobs", JOBS_LEVELS)
@pytest.mark.parametrize("kind", EXECUTOR_KINDS)
def test_campaign_matrix_is_identical(campaign_inputs, campaign_baseline, kind, jobs):
    kernel, suite = campaign_inputs
    campaigns = run_repeated_campaigns(
        kernel, suite, repetitions=2, budget_programs=120, base_seed=13,
        engine=_engine(kind, jobs),
    )
    observed = [
        (c.seed, sorted(c.coverage), sorted(c.crash_log.bug_ids()), c.executed_programs)
        for c in campaigns
    ]
    assert observed == campaign_baseline


# ------------------------------------------------------------- replay path
def _scripted_backend() -> ReplayBackend:
    backend = ReplayBackend(default="## IDENTIFIERS\n(none)\n## UNKNOWN\n(none)\n")
    backend.script(
        Prompt(kind="identifier", subject="h0", text="probe-0"),
        "## IDENTIFIERS\n- IDENT: CMD_ZERO | SYSCALL: ioctl\n## UNKNOWN\n(none)\n",
    )
    return backend


@pytest.mark.parametrize("jobs", JOBS_LEVELS)
@pytest.mark.parametrize("kind", EXECUTOR_KINDS)
def test_replay_backend_is_engine_safe(kind, jobs):
    """Content-keyed replay serves the same reply at any jobs level."""
    from repro.engine import TaskSpec

    backend = _scripted_backend()
    engine = _engine(kind, jobs)
    prompts = [Prompt(kind="identifier", subject=f"h{i}", text=f"probe-{i}") for i in range(8)]
    tasks = [TaskSpec(key=p.subject, fn=backend.query, args=(p,)) for p in prompts]
    if not engine.shares_memory:
        # Process workers get pickled backend copies; replies are pure
        # functions of prompt content, so the kind of pool changes nothing.
        tasks = [TaskSpec(key=p.subject, fn=_query_scripted, args=(p,)) for p in prompts]
    results = engine.run_tasks("replay", tasks)
    texts = [r.value.text for r in results]
    assert "CMD_ZERO" in texts[0]
    assert all("(none)" in text for text in texts[1:])


def _query_scripted(prompt: Prompt):
    """Module-level so process pools can pickle the replay task."""
    return _scripted_backend().query(prompt)


# ------------------------------------------------------------ store axis
def test_table1_store_matrix(small_kernel, tmp_path):
    """The persistence axis of the matrix: cold vs warm vs frozen.

    One table1 render per store state — cold (empty store, every artifact
    computed and written through), warm (fresh process-equivalent context
    over the populated store, hydrating instead of recomputing) and frozen
    (loads pinned by a lockfile, the analyst replaced by a backend whose
    every ``complete_batch`` raises) — must produce byte-identical text.
    That is determinism rule 9: store state may change *where* a value
    comes from and how many round-trips happen, never the output bytes.
    The frozen cell completing at all proves zero live backend traffic.
    """
    from repro.experiments.config import quick
    from repro.experiments.context import EvaluationContext
    from repro.experiments.table1 import run_table1
    from repro.llm import OracleBackend
    from repro.store import ArtifactStore, FrozenBackend, FrozenLock, StoreBinding

    config = quick().with_overrides(kernel_scale="small")
    store = ArtifactStore(tmp_path / "store")

    def render(binding, analysis_backend=None) -> str:
        engine = ExecutionEngine(jobs=1, store=binding)
        ctx = EvaluationContext(
            config, small_kernel, engine=engine, analysis_backend=analysis_backend
        )
        return run_table1(ctx).render()

    cold_binding = StoreBinding(store)
    cold = render(cold_binding)
    assert cold_binding.stats()["store:session"]["misses"] > 0
    assert cold_binding.stats()["store:session"]["hits"] == 0

    lock = FrozenLock.freeze(store)
    assert len(lock) > 0

    warm_binding = StoreBinding(store)
    warm = render(warm_binding)
    assert warm_binding.stats()["store:session"]["hits"] > 0
    assert warm_binding.stats()["store:session"]["misses"] == 0

    frozen_binding = StoreBinding(store, frozen=lock)
    frozen = render(frozen_binding, analysis_backend=FrozenBackend(OracleBackend()))
    assert frozen_binding.stats()["store:session"]["hits"] > 0

    assert cold == warm == frozen
