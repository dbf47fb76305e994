"""Benchmark: serial baseline vs the engine-backed memoized run.

The workload mirrors what the evaluation actually does — the full generation
run over the incomplete handlers, table5-style per-driver regeneration, and
repeated fuzz campaigns — executed two ways:

* **serial**: no engine; every handler regenerated from scratch, campaigns
  back-to-back (the pre-engine behaviour);
* **engine (jobs=4)**: handlers still run one after another, but LLM and
  extractor lookups hit the single-flight memo cache (so the regeneration
  stage is pure cache traffic) and each suite's repeated campaigns run as
  one thread-pool batch.

Run with ``pytest benchmarks/bench_engine_parallel.py --benchmark-only -s``;
pytest-benchmark prints the rows in one comparison group.  The last test
asserts both paths produce identical suites and campaign coverage, and that
the engine path is measurably faster than the serial baseline on this
workload.
"""

import time

import pytest

from repro.core import KernelGPT
from repro.engine import ExecutionEngine
from repro.fuzzer import run_repeated_campaigns
from repro.kernel import TABLE5_DRIVER_NAMES
from repro.llm import OracleBackend

#: Campaign settings: small enough for CI, large enough to dominate noise.
REPETITIONS = 3
BUDGET_PROGRAMS = 600
#: The quick-preset runner regenerates the table-5 drivers three times after
#: the full generation run (table5, ablation_iterative, ablation_llm-style
#: passes); the workload mirrors that redundancy.
REGEN_ROUNDS = 3


def _workload(ctx, engine):
    """Generation run + per-driver regeneration rounds + repeated campaigns."""
    generator = KernelGPT(
        ctx.kernel, OracleBackend(), extractor=ctx.extractor, engine=engine
    )
    run = generator.generate_for_handlers(list(ctx.selection.all_handlers), engine=engine)
    regenerated = {}
    for _ in range(REGEN_ROUNDS):
        for name in TABLE5_DRIVER_NAMES:
            handler = ctx.kernel.record_for_name(name).handler_name
            regenerated[handler] = generator.generate_for_handler(handler)
    suites = {
        "syzkaller": ctx.syzkaller_corpus.flatten("syzkaller"),
        "kernelgpt": run.merged_suite(),
    }
    campaigns = {
        label: run_repeated_campaigns(
            ctx.kernel, suite,
            repetitions=REPETITIONS,
            budget_programs=BUDGET_PROGRAMS,
            base_seed=7,
            engine=engine,
        )
        for label, suite in suites.items()
    }
    return run, regenerated, campaigns


def _warm(ctx):
    """Build the shared substrates outside the measured region."""
    ctx.kernel, ctx.extractor, ctx.selection, ctx.syzkaller_corpus


@pytest.mark.benchmark(group="engine-parallel")
def test_engine_serial(benchmark, ctx):
    _warm(ctx)
    run, _, _ = benchmark.pedantic(_workload, args=(ctx, None), rounds=1, iterations=1)
    assert run.valid_results()


@pytest.mark.benchmark(group="engine-parallel")
def test_engine_parallel_jobs4(benchmark, ctx):
    _warm(ctx)
    engine = ExecutionEngine(jobs=4)
    run, _, _ = benchmark.pedantic(_workload, args=(ctx, engine), rounds=1, iterations=1)
    assert run.valid_results()
    stats = engine.cache_stats()
    print()
    print(f"llm cache: {stats['llm']['hits']} hits / {stats['llm']['misses']} misses "
          f"({stats['llm']['hit_rate']:.1%}); "
          f"extract cache: {stats['extract']['hits']} hits / {stats['extract']['misses']} misses; "
          f"session cache: {stats['session']['hits']} hits / {stats['session']['misses']} misses")


def test_batched_vs_per_query_rows(ctx):
    """Batched stage submission vs per-query submission, identical outputs.

    The two rows compare the batched protocol (each stage's prompts as one
    ``complete_batch``, the type stage as a wavefront) against the strictly
    per-query schedule on the full generation run.  With the in-process
    oracle the win is bounded (no network round-trips to amortize) — the
    rows exist to pin the overhead at ~zero and the outputs at
    byte-identical; against a real provider the batched path is the one
    that amortizes per-call cost.  CI uploads these rows as an artifact.
    """
    _warm(ctx)
    rows = {}
    for label, batched in (("per-query", False), ("batched", True)):
        engine = ExecutionEngine(jobs=1)
        generator = KernelGPT(
            ctx.kernel, OracleBackend(), extractor=ctx.extractor,
            engine=engine, batch_queries=batched,
        )
        started = time.perf_counter()
        run = generator.generate_for_handlers(list(ctx.selection.all_handlers), engine=engine)
        seconds = time.perf_counter() - started
        stats = engine.cache_stats()["llm"]
        rows[label] = (seconds, run, stats)
    per_query_suites = {h: r.suite_text() for h, r in rows["per-query"][1].results.items()}
    batched_suites = {h: r.suite_text() for h, r in rows["batched"][1].results.items()}
    assert batched_suites == per_query_suites
    print()
    for label, (seconds, run, stats) in rows.items():
        print(f"{label:9s} {seconds:.2f}s  handlers={len(run.results)}  "
              f"llm-cache {stats['hits']} hits / {stats['misses']} misses")
    ratio = rows["per-query"][0] / max(rows["batched"][0], 1e-9)
    print(f"batched vs per-query: {ratio:.2f}x (byte-identical suites)")


def test_repair_mode_rows(ctx):
    """Batched transactional repair vs the per-query loop, equal outcomes.

    The batched-repair row: the same table1 handler set generated under an
    error-prone analyst (every handler needs repair, none is unrepairable —
    the configuration that makes the repair phase the dominant LLM cost),
    once with the historical per-query loop and once transactionally.  The
    row reports total repair LLM round-trips and the queries saved per
    repaired handler; the assertion pins the acceptance floor — at
    ``repair_rounds=3`` the transactional protocol must cost at least 2x
    fewer round-trips — and the valid/repaired outcome of every handler
    must match the per-query oracle.  CI uploads these rows as an artifact.
    """
    from repro.llm import DegradedBackend

    _warm(ctx)
    handlers = list(ctx.selection.all_handlers)
    rows = {}
    for mode in ("per-query", "transactional"):
        backend = DegradedBackend.gpt4(
            bad_constant_rate=0.9, undefined_type_rate=0.5, unrepairable_rate=0.0
        )
        generator = KernelGPT(
            ctx.kernel, backend, extractor=ctx.extractor,
            repair_rounds=3, repair_mode=mode,
        )
        started = time.perf_counter()
        run = generator.generate_for_handlers(handlers)
        rows[mode] = (time.perf_counter() - started, run)
    per_query_run, transactional_run = rows["per-query"][1], rows["transactional"][1]
    assert {h: (r.valid, r.repaired) for h, r in transactional_run.results.items()} == \
           {h: (r.valid, r.repaired) for h, r in per_query_run.results.items()}

    print()
    for mode, (seconds, run) in rows.items():
        trips = sum(r.repair_llm_calls for r in run.results.values())
        prompts = sum(r.repair_queries for r in run.results.values())
        repaired = sum(1 for r in run.results.values() if r.repaired)
        print(f"repair[{mode:13s}] {seconds:.2f}s  {prompts} repair prompts in "
              f"{trips} LLM round-trips, {repaired} repaired handlers "
              f"({trips / max(repaired, 1):.2f} trips/repaired handler)")
    per_query_trips = sum(r.repair_llm_calls for r in per_query_run.results.values())
    transactional_trips = sum(r.repair_llm_calls for r in transactional_run.results.values())
    repaired = sum(1 for r in transactional_run.results.values() if r.repaired)
    saved = (per_query_trips - transactional_trips) / max(repaired, 1)
    ratio = per_query_trips / max(transactional_trips, 1)
    print(f"batched repair: {ratio:.2f}x fewer LLM round-trips "
          f"({saved:.2f} queries saved per repaired handler)")
    assert ratio >= 2.0, f"transactional repair saves only {ratio:.2f}x round-trips"


def test_parallel_is_deterministic_and_faster(ctx):
    """jobs=4 reproduces the serial results bit-for-bit, in less wall time."""
    _warm(ctx)

    started = time.perf_counter()
    serial_run, serial_regen, serial_campaigns = _workload(ctx, None)
    serial_seconds = time.perf_counter() - started

    engine = ExecutionEngine(jobs=4)
    started = time.perf_counter()
    parallel_run, parallel_regen, parallel_campaigns = _workload(ctx, engine)
    parallel_seconds = time.perf_counter() - started

    # Determinism: identical suites, regenerations and campaign coverage.
    assert {h: r.suite_text() for h, r in parallel_run.results.items()} == \
           {h: r.suite_text() for h, r in serial_run.results.items()}
    assert {h: r.suite_text() for h, r in parallel_regen.items()} == \
           {h: r.suite_text() for h, r in serial_regen.items()}
    for label in serial_campaigns:
        assert [c.coverage for c in parallel_campaigns[label]] == \
               [c.coverage for c in serial_campaigns[label]]

    speedup = serial_seconds / max(parallel_seconds, 1e-9)
    print()
    print(f"serial {serial_seconds:.2f}s vs engine(jobs=4) {parallel_seconds:.2f}s "
          f"-> {speedup:.2f}x")
    # The engine path must win: memoization removes the redundant oracle
    # analyses (regeneration, shared secondary handlers) even on one core.  The 1.05 floor
    # keeps the assertion robust to timer noise while still catching a
    # regression that makes the engine path slower than the baseline.
    assert speedup > 1.05, f"engine path not faster: {speedup:.2f}x"
