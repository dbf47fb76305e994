"""Benchmark: string-set fuzz loop baseline vs the interned bitmap hot loop.

The workload is the experiment-representative suite mix — the existing
Syzkaller corpus plus KernelGPT-generated driver/socket suites (a delegating
driver, a secondary-handler-heavy driver, a socket) — fuzzed at budgets 500
and 2000 through both implementations:

* **string-set**: the pre-bitmap implementation preserved verbatim in
  ``repro.fuzzer.reference`` (ladder generator, f-string labels, linear
  ``_match_ioctl`` scans, string-set unions);
* **bitmap**: the compiled hot loop (``repro.fuzzer``) — value plans,
  dict dispatch, interned indices, ``CoverageBitmap`` folding.

Every cell asserts the bitmap campaign's ``labels()``, crash ids, corpus
size and call counts equal the string-set run before timing is reported, so
a speedup is only ever printed for a byte-identical result.  ``--jobs``
additionally times the engine fan-out of repeated bitmap campaigns (serial
vs a 4-worker process pool), the path whose task results shrank from
thousands of pickled label strings to one integer per campaign.  The
fan-out row separates fixed pool **setup** (spawn + payload pickling,
measured by a tiny probe run) from **steady-state** campaign time and
derives the ``crossover_budget`` where fan-out starts to pay — see
:func:`measure_jobs`.

CI usage (the fuzz-hotloop smoke job)::

    python benchmarks/bench_fuzzer_hotloop.py --check benchmarks/BENCH_fuzzer.json \
        --json BENCH_fuzzer.json

``--check`` exits non-zero when the measured budget-2000 speedup falls below
the recorded trajectory's ``check_floor`` (the recorded ratio with a noise
margin); ``--json`` writes the measured row for the artifact upload.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.baselines import build_syzkaller_corpus  # noqa: E402
from repro.core import KernelGPT  # noqa: E402
from repro.engine import ExecutionEngine  # noqa: E402
from repro.extractor import KernelExtractor  # noqa: E402
from repro.fuzzer import run_campaign, run_repeated_campaigns  # noqa: E402
from repro.fuzzer.reference import run_reference_campaign  # noqa: E402
from repro.kernel import build_default_kernel  # noqa: E402
from repro.llm import OracleBackend  # noqa: E402

#: Benchmark seeds/budgets: small enough for CI, large enough to dominate noise.
SEED = 13
BUDGETS = (500, 2000)
ROUNDS = 3  # best-of rounds per cell


def build_suites():
    """The representative mix: existing corpus + generated driver/socket suites."""
    kernel = build_default_kernel("small")
    extractor = KernelExtractor(kernel)
    generator = KernelGPT(kernel, OracleBackend(), extractor=extractor)
    suites = {"syzkaller": build_syzkaller_corpus(kernel).flatten("syzkaller")}
    for label, handler in (("dm", "dm_ctl_fops"), ("kvm", "kvm_fops"), ("rds", "rds_proto_ops")):
        result = generator.generate_for_handler(handler)
        if result.valid:
            suites[label] = result.suite
    return kernel, suites


def assert_equivalent(bitmap_campaign, reference_campaign) -> None:
    """A speedup only counts for a byte-identical campaign."""
    assert bitmap_campaign.coverage.labels() == reference_campaign.coverage, \
        "bitmap coverage labels diverge from the string-set baseline"
    assert sorted(bitmap_campaign.crash_log.bug_ids()) == sorted(reference_campaign.crash_log.bug_ids())
    assert bitmap_campaign.crash_log.observations == reference_campaign.crash_log.observations
    assert bitmap_campaign.corpus_size == reference_campaign.corpus_size
    assert bitmap_campaign.executed_calls == reference_campaign.executed_calls


def measure_budget(kernel, suites, budget: int) -> dict:
    """Best-of-ROUNDS aggregate times over the suite mix at one budget."""
    best_reference = best_bitmap = float("inf")
    for _ in range(ROUNDS):
        reference_seconds = bitmap_seconds = 0.0
        for suite in suites.values():
            started = time.perf_counter()
            reference = run_reference_campaign(kernel, suite, SEED, budget)
            reference_seconds += time.perf_counter() - started
            started = time.perf_counter()
            bitmap = run_campaign(kernel, suite, SEED, budget)
            bitmap_seconds += time.perf_counter() - started
            assert_equivalent(bitmap, reference)
        best_reference = min(best_reference, reference_seconds)
        best_bitmap = min(best_bitmap, bitmap_seconds)
    return {
        "stringset_s": round(best_reference, 4),
        "bitmap_s": round(best_bitmap, 4),
        "speedup": round(best_reference / best_bitmap, 2),
    }


#: Budget for the process-pool setup probe: small enough that the campaigns
#: themselves are negligible, so the probe's wall time is almost entirely
#: pool startup + payload pickling.
SETUP_PROBE_BUDGET = 1


def measure_jobs(kernel, suites, budget: int, jobs: int) -> dict:
    """Serial vs process-pool engine fan-out, with setup and steady state split.

    A process pool pays a fixed cost per run — interpreter spawn, imports,
    pickling the kernel/suite payload into each worker — before any campaign
    executes.  Folding that into one wall-clock number made the recorded
    fan-out row look like a hot-loop regression (process slower than serial)
    when the hot loop was fine and the budget was simply too small to
    amortize startup.  So the row now separates the two regimes:

    * ``process_setup_s`` — wall time of a probe run at ``SETUP_PROBE_BUDGET``
      (campaign work ≈ 0, so this is the fixed overhead);
    * ``process_steady_s`` — the full run minus the probe: the actual
      campaign execution time once workers are up;
    * ``crossover_budget`` — the per-campaign program budget above which the
      process pool beats serial: setup is amortized when
      ``jobs * budget * (serial_rate - steady_rate) > setup_s``.  ``None``
      when steady-state process throughput never beats serial (e.g. a
      single-core host, where the pool degrades to one worker and only adds
      overhead) — there is no budget at which fan-out pays off there.

    A future hot-loop regression now shows up in ``process_steady_s``
    (or the budget cells) specifically, not blurred into startup noise.
    """
    suite = suites["syzkaller"]
    started = time.perf_counter()
    serial = run_repeated_campaigns(kernel, suite, repetitions=jobs, budget_programs=budget)
    serial_seconds = time.perf_counter() - started
    started = time.perf_counter()
    run_repeated_campaigns(
        kernel, suite, repetitions=jobs, budget_programs=SETUP_PROBE_BUDGET,
        engine=ExecutionEngine(jobs=jobs, kind="process"),
    )
    setup_seconds = time.perf_counter() - started
    started = time.perf_counter()
    sharded = run_repeated_campaigns(
        kernel, suite, repetitions=jobs, budget_programs=budget,
        engine=ExecutionEngine(jobs=jobs, kind="process"),
    )
    total_seconds = time.perf_counter() - started
    steady_seconds = max(total_seconds - setup_seconds, 0.0)
    assert [c.coverage for c in sharded] == [c.coverage for c in serial], \
        "process-sharded campaigns diverge from serial"
    total_programs = jobs * budget
    serial_rate = serial_seconds / total_programs
    steady_rate = steady_seconds / total_programs
    if serial_rate > steady_rate:
        crossover = int(setup_seconds / (jobs * (serial_rate - steady_rate))) + 1
    else:
        crossover = None
    return {
        "repetitions": jobs,
        "serial_s": round(serial_seconds, 4),
        "process_total_s": round(total_seconds, 4),
        "process_setup_s": round(setup_seconds, 4),
        "process_steady_s": round(steady_seconds, 4),
        "crossover_budget": crossover,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Fuzz hot-loop benchmark: string-set vs bitmap")
    parser.add_argument("--budgets", default=",".join(str(b) for b in BUDGETS),
                        help="comma-separated program budgets (default: 500,2000)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="workers for the engine fan-out row (0 disables; default: 4)")
    parser.add_argument("--json", type=Path, default=None,
                        help="write the measured trajectory row to this JSON file")
    parser.add_argument("--check", type=Path, default=None,
                        help="fail if the budget-2000 speedup drops below the recorded "
                             "trajectory's check_floor in this JSON file")
    args = parser.parse_args(argv)
    budgets = [int(part) for part in args.budgets.split(",") if part.strip()]

    kernel, suites = build_suites()
    # Warm the per-kernel plan/space caches outside the measured region.
    run_campaign(kernel, suites["syzkaller"], 1, 50)
    run_reference_campaign(kernel, suites["syzkaller"], 1, 50)

    row: dict = {"suites": sorted(suites), "seed": SEED, "budgets": {}}
    for budget in budgets:
        cell = measure_budget(kernel, suites, budget)
        row["budgets"][str(budget)] = cell
        print(f"budget {budget:5d}: stringset {cell['stringset_s']:.3f}s  "
              f"bitmap {cell['bitmap_s']:.3f}s  speedup {cell['speedup']:.2f}x "
              f"({len(suites)} suites, byte-identical)")
    if args.jobs:
        fanout = measure_jobs(kernel, suites, max(budgets), args.jobs)
        row["fanout"] = fanout
        crossover = fanout["crossover_budget"]
        crossover_note = (
            f"crossover at budget ~{crossover}" if crossover is not None
            else "no crossover (steady-state not faster than serial on this host)"
        )
        print(f"engine fan-out ({fanout['repetitions']} campaigns, budget {max(budgets)}): "
              f"serial {fanout['serial_s']:.3f}s  process --jobs {args.jobs} "
              f"{fanout['process_total_s']:.3f}s "
              f"(setup {fanout['process_setup_s']:.3f}s + steady "
              f"{fanout['process_steady_s']:.3f}s; {crossover_note}; identical coverage)")

    exit_code = 0
    headline = row["budgets"].get("2000") or row["budgets"][str(max(budgets))]
    if args.check is not None:
        if "2000" not in row["budgets"]:
            # The recorded floor is derived from the budget-2000 cell;
            # comparing a different budget against it would gate on the
            # wrong workload.
            print("FAIL: --check requires budget 2000 to be measured "
                  "(pass --budgets including 2000)", file=sys.stderr)
            return 1
        recorded = json.loads(args.check.read_text())
        reference_row = recorded["rows"][-1]
        floor = reference_row.get("check_floor", 1.0)
        recorded_cell = reference_row.get("budgets", {}).get("2000")
        recorded_note = f" (recorded speedup {recorded_cell['speedup']:.2f}x)" if recorded_cell else ""
        measured = headline["speedup"]
        if measured < floor:
            print(f"FAIL: measured speedup {measured:.2f}x is below the recorded "
                  f"floor {floor:.2f}x{recorded_note}", file=sys.stderr)
            exit_code = 1
        else:
            print(f"check ok: {measured:.2f}x >= floor {floor:.2f}x")
    if args.json is not None:
        # The floor for future --check runs: the measured ratio with a noise
        # margin, never below break-even.
        row["check_floor"] = max(1.2, round(headline["speedup"] * 0.6, 2))
        payload = {"benchmark": "fuzzer-hotloop", "rows": [row]}
        if args.json.exists():
            try:
                existing = json.loads(args.json.read_text())
                payload["rows"] = existing.get("rows", []) + payload["rows"]
            except (ValueError, KeyError):
                pass
        args.json.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote trajectory row to {args.json}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
