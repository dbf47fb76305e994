"""The coverage-guided fuzzing loop and campaign driver.

The loop mirrors Syzkaller's manager at program granularity: generate or
mutate a program, execute it in a (simulated) VM, and keep programs that
discover new coverage in the corpus as future mutation seeds.  A
:class:`FuzzCampaign` aggregates the results of one run — coverage as a
:class:`~repro.kernel.coverage.CoverageBitmap` over the kernel's interned
block space, deduplicated crashes, programs executed — and supports the
comparisons the paper's tables make (total coverage, unique coverage versus
a baseline, average crashes across repetitions).  The hot loop works purely
on integer indices; label strings only materialise on demand through
``campaign.coverage.labels()``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..kernel import KernelCodebase
from ..kernel.coverage import CoverageBitmap, CoverageSpace
from ..syzlang import ConstantTable, SpecSuite
from .crash import CrashLog
from .executor import ExecutionResult, KernelExecutor
from .generation import ProgramGenerator
from .program import Program
from .vm import VMPool


@dataclass
class FuzzCampaign:
    """The outcome of one fuzzing campaign.

    ``coverage`` is a :class:`CoverageBitmap`: one big integer plus the
    space digest, so a campaign pickles back from a worker process in a few
    kilobytes instead of shipping thousands of label strings.
    """

    suite_name: str
    seed: int
    coverage: CoverageBitmap = field(default_factory=CoverageBitmap)
    crash_log: CrashLog = field(default_factory=CrashLog)
    executed_programs: int = 0
    executed_calls: int = 0
    corpus_size: int = 0

    @property
    def coverage_count(self) -> int:
        return len(self.coverage)

    @property
    def unique_crashes(self) -> int:
        return self.crash_log.unique_crashes()

    def unique_coverage_vs(self, other: "FuzzCampaign | CoverageBitmap | set[str]") -> int:
        baseline = other.coverage if isinstance(other, FuzzCampaign) else other
        if isinstance(baseline, CoverageBitmap):
            return self.coverage.difference_count(baseline)
        # Plain label-string baselines (legacy callers, tests) compare via
        # the lazily-materialised label set.
        return len(self.coverage.labels() - set(baseline))


class Fuzzer:
    """One fuzzing session over a specification suite."""

    def __init__(
        self,
        kernel: KernelCodebase,
        suite: SpecSuite,
        *,
        seed: int = 0,
        constants: ConstantTable | None = None,
        executor: KernelExecutor | None = None,
        vm_pool: VMPool | None = None,
        mutation_bias: float = 0.6,
    ):
        self.kernel = kernel
        self.suite = suite
        self.seed = seed
        self.rng = random.Random(seed)
        self.constants = constants or kernel.constants
        self.executor = executor or KernelExecutor(kernel)
        self.vm_pool = vm_pool or VMPool()
        self.generator = ProgramGenerator(suite, self.constants, seed=seed)
        self.mutation_bias = mutation_bias
        self._corpus: list[Program] = []

    def run(self, budget_programs: int = 2000) -> FuzzCampaign:
        """Run the campaign for a fixed number of executed programs."""
        space = self.executor.space
        campaign = FuzzCampaign(suite_name=self.suite.name, seed=self.seed)
        if not self.generator.has_programs:
            campaign.coverage = CoverageBitmap(space)
            return campaign
        # Every program executes directly into one campaign-wide accumulator
        # (an int set plus the rare overflow labels): new-coverage detection
        # is a before/after size comparison, so the hot loop allocates no
        # per-program sets and never walks coverage twice.
        scratch = ExecutionResult(space=space)
        covered = scratch.coverage
        extra_labels = scratch.extras
        crashes = scratch.crashes
        crash_log = campaign.crash_log
        executor = self.executor
        vm_pool = self.vm_pool
        executed_calls = 0
        for _ in range(budget_programs):
            program = self._next_program()
            vm = vm_pool.acquire()
            known_blocks = len(covered) + len(extra_labels)
            crashes.clear()
            executed_calls += executor.execute_into(program, scratch)
            vm_pool.release(vm, crashed=bool(crashes))
            if len(covered) + len(extra_labels) != known_blocks:
                self._corpus.append(program)
            for crash in crashes:
                crash_log.record(crash)
        campaign.executed_programs = budget_programs
        campaign.executed_calls = executed_calls
        campaign.corpus_size = len(self._corpus)
        campaign.coverage = CoverageBitmap.from_indices(space, covered, extra_labels)
        return campaign

    def _next_program(self) -> Program:
        if self._corpus and self.rng.random() < self.mutation_bias:
            return self.generator.mutate(self.rng.choice(self._corpus))
        return self.generator.generate()


def run_campaign(
    kernel: KernelCodebase,
    suite: SpecSuite,
    seed: int,
    budget_programs: int,
    mutation_bias: float = 0.6,
) -> FuzzCampaign:
    """Run one seeded campaign with a private :class:`Fuzzer`/:class:`VMPool`.

    A module-level pure function of its arguments, so it can run as an engine
    task on any executor — including a process pool, since every argument and
    the returned :class:`FuzzCampaign` are picklable (the campaign's coverage
    bitmap travels as one integer plus the space digest).
    """
    fuzzer = Fuzzer(kernel, suite, seed=seed, mutation_bias=mutation_bias)
    return fuzzer.run(budget_programs)


def run_repeated_campaigns(
    kernel: KernelCodebase,
    suite: SpecSuite,
    *,
    repetitions: int = 3,
    budget_programs: int = 2000,
    base_seed: int = 0,
    engine: "ExecutionEngine | None" = None,
) -> list[FuzzCampaign]:
    """Run the same campaign with different seeds (the paper uses 3 repetitions).

    With an ``engine`` the repetitions fan out across its workers, each
    with its own :class:`Fuzzer` and :class:`VMPool`.  Campaign tasks are
    pure module-level functions of picklable arguments, so the process pool
    needs no extra plumbing.  Seeds depend only on the repetition index and
    results are returned in repetition order, so the campaign list is
    identical for any ``jobs`` and executor kind.
    """
    from ..engine import TaskSpec

    # Register the kernel's coverage space in this process before any
    # fan-out: worker campaigns pickle their bitmaps by space digest, and
    # the parent must hold the space for the results to re-bind on join.
    CoverageSpace.for_kernel(kernel)

    seeds = [base_seed + repetition * 1009 for repetition in range(repetitions)]
    if engine is None:
        return [run_campaign(kernel, suite, seed, budget_programs) for seed in seeds]

    tasks = [
        TaskSpec(
            key=f"{suite.name}@{seed}",
            fn=run_campaign,
            args=(kernel, suite, seed, budget_programs),
            seed=seed,
        )
        for seed in seeds
    ]
    return [result.value for result in engine.run_tasks("fuzz-campaigns", tasks)]


def merge_campaigns(campaigns: list[FuzzCampaign], *, suite_name: str | None = None) -> FuzzCampaign:
    """Fold a list of campaigns into one aggregate :class:`FuzzCampaign`.

    Coverage becomes the bitmap union, crash logs merge with summed
    observation counts, and program/call counters sum — the aggregate view
    the paper's union-coverage comparisons use.
    """
    merged = FuzzCampaign(
        suite_name=suite_name or (campaigns[0].suite_name if campaigns else "merged"),
        seed=campaigns[0].seed if campaigns else 0,
    )
    for campaign in campaigns:
        merged.coverage = merged.coverage | campaign.coverage
        merged.crash_log.merge(campaign.crash_log)
        merged.executed_programs += campaign.executed_programs
        merged.executed_calls += campaign.executed_calls
        merged.corpus_size += campaign.corpus_size
    return merged


def average_coverage(campaigns: list[FuzzCampaign]) -> float:
    if not campaigns:
        return 0.0
    return sum(campaign.coverage_count for campaign in campaigns) / len(campaigns)


def average_crashes(campaigns: list[FuzzCampaign]) -> float:
    if not campaigns:
        return 0.0
    return sum(campaign.unique_crashes for campaign in campaigns) / len(campaigns)


def union_coverage(campaigns: list[FuzzCampaign]) -> CoverageBitmap:
    """The union of every campaign's coverage as one :class:`CoverageBitmap`."""
    blocks = CoverageBitmap()
    for campaign in campaigns:
        blocks = blocks | campaign.coverage
    return blocks


__all__ = [
    "Fuzzer",
    "FuzzCampaign",
    "run_campaign",
    "run_repeated_campaigns",
    "merge_campaigns",
    "average_coverage",
    "average_crashes",
    "union_coverage",
]
