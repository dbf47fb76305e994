"""Determinism matrix: no axis may change output.

Generation's axes are its schedule (the serial loop of
``generate_for_handlers``, or every handler as a concurrent session, as a
service generation job runs them), the query mode (batched or
per-query), the repair mode and the backend frontend: a memoized run
produces byte-identical suites with identical session-attributed query
counts, compared against a plain engine-less run.  The repair-mode axis additionally pins the transactional repair
protocol: byte-identical to its own engine-less baseline, and
valid-or-exhausted equivalent to the per-query loop (see
``test_transactional_repair_matrix``).  Fuzz campaigns and replay keep the
``jobs ∈ {1, 2, 4}`` × ``executor ∈ {serial, thread, process}`` axes.
Executors are constructed explicitly (not via ``create_executor``) so the
matrix exercises real thread/process pools even on a single-core CI host,
where ``create_executor`` would cap them at one worker.
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

#: Generation's two schedules as (kind, sessions in flight); see the
#: ``generate_on_schedule`` fixture.
SCHEDULES = (("serial", 1), ("thread", len(HANDLERS)))


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
@pytest.mark.parametrize("kind,jobs", SCHEDULES)
def test_generation_matrix_is_byte_identical(
    small_kernel, extractor, generation_baseline, generate_on_schedule, kind, jobs, batched
):
    """Both query modes reproduce the engine-less baseline on a memoized run,
    on both schedules.

    The ``batched`` axis pins the batched-session contract: submitting each
    stage's prompts as one ``complete_batch`` (the default) and the
    per-query path must produce the same bytes, query counts and usage as
    each other and as the engine-less baseline.
    """
    baseline_suites, baseline_queries, baseline_usage, _ = generation_baseline
    generator = KernelGPT(
        small_kernel, OracleBackend(), extractor=extractor, engine=ExecutionEngine(),
        batch_queries=batched,
    )
    run = generate_on_schedule(generator, HANDLERS, kind, jobs)

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


@pytest.mark.parametrize("kind,jobs", SCHEDULES)
def test_transactional_repair_matrix(
    small_kernel, extractor, transactional_baseline, generation_baseline,
    generate_on_schedule, kind, jobs,
):
    """The repair-mode axis of the matrix, both halves of its contract:

    * **determinism** — a memoized transactional run is byte-identical to
      the engine-less transactional baseline on both schedules (snapshot
      prompts and the rule-7 commit order make the round a pure function
      of the round-start suite, so concurrent sessions cannot leak);
    * **equivalence** — its valid-or-exhausted outcome and ``repaired``
      flags match the per-query baseline on the replay corpus, which is
      what keeps the per-query loop an oracle rather than a second mode
      with different results.
    """
    baseline_suites, baseline_queries, baseline_flags = transactional_baseline
    _, _, _, per_query_flags = generation_baseline
    generator = KernelGPT(
        small_kernel, OracleBackend(), extractor=extractor, engine=ExecutionEngine(),
        repair_mode="transactional",
    )
    run = generate_on_schedule(generator, HANDLERS, kind, jobs)
    assert {h: r.suite_text() for h, r in run.results.items()} == baseline_suites
    assert {h: r.queries for h, r in run.results.items()} == baseline_queries
    flags = {h: (r.valid, r.repaired) for h, r in run.results.items()}
    assert flags == baseline_flags
    assert flags == per_query_flags


def test_pickled_recording_backend_starts_with_empty_transcript(small_kernel, extractor):
    """A pickled copy must not carry the accumulated exchanges."""
    import pickle

    backend = RecordingBackend(OracleBackend())
    backend.query(Prompt(kind="identifier", subject="x", text="## Registration\nnothing\n"))
    assert len(backend.exchanges) == 1
    clone = pickle.loads(pickle.dumps(backend))
    assert clone.exchanges == []


@pytest.mark.parametrize("kind", ("serial", "thread"))
def test_pool_routed_generation_matrix(
    small_kernel, extractor, generation_baseline, generate_on_schedule, kind
):
    """A BackendPool member routed by tag reproduces the direct-backend run.

    The multi-backend frontend must be invisible to determinism: a
    generator whose requests route through a pool to the same capability
    profile produces the baseline bytes on both schedules.
    """
    from repro.llm import BackendPool, DegradedBackend

    baseline_suites, baseline_queries, _, _ = generation_baseline
    pool = BackendPool({"gpt-4": DegradedBackend.gpt4(), "gpt-3.5": DegradedBackend.gpt35()})
    generator = KernelGPT(
        small_kernel, pool, extractor=extractor, engine=ExecutionEngine(), backend_route="gpt-4"
    )
    run = generate_on_schedule(generator, HANDLERS, kind, len(HANDLERS))
    assert {h: r.suite_text() for h, r in run.results.items()} == baseline_suites
    assert {h: r.queries for h, r in run.results.items()} == baseline_queries


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
