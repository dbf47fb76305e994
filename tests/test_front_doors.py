"""One config, one payload and one flag set across the four front doors.

The flat runner, ``campaign``, ``diff`` and ``serve`` carry a run's
configuration as one frozen ExperimentConfig: their parsers fold the same
flags into the same config, campaign workers build their context from the
plan's config, every process builds one evaluation context per config, and
the determinism gate recomputes on a context of its own.
"""

import importlib
import re
import sys
import threading
import time

import pytest

from repro.engine import ExecutionEngine, ThreadPoolExecutor
from repro.experiments import EvaluationContext, paper, quick, shared_context
from repro.orchestrator import build_campaign_plan, run_campaign_plan

#: The quick budgets on the small test kernel: the cheap config with a
#: kernel scale the preset name alone cannot reproduce.
SMALL = quick().with_overrides(kernel_scale="small")


@pytest.fixture
def built_contexts(monkeypatch):
    """Every EvaluationContext constructed during the test, in build order."""
    built = []
    original = EvaluationContext.__init__

    def counting_init(self, *args, **kwargs):
        # A slow constructor widens the window in which racing
        # shared_context misses would each build a context.
        time.sleep(0.05)
        original(self, *args, **kwargs)
        built.append(self)

    shared_context.cache_clear()
    monkeypatch.setattr(EvaluationContext, "__init__", counting_init)
    yield built
    shared_context.cache_clear()


# ------------------------------------------------------- context per config
def test_campaign_generates_from_the_plan_config(built_contexts):
    plan = build_campaign_plan(SMALL, experiments=[], gates=False)
    generated = run_campaign_plan(plan).output("generate")
    run = EvaluationContext(SMALL).generation_run
    assert generated["handlers"] == len(run.results) == 36
    assert generated["valid"] == sum(result.valid for result in run.results.values())
    assert generated["syscalls"] == run.total_syscalls()


def test_in_process_campaign_builds_one_context(built_contexts):
    plan = build_campaign_plan(SMALL, experiments=["table1", "table2"], gates=False)
    engine = ExecutionEngine(jobs=2, executor=ThreadPoolExecutor(2))
    assert run_campaign_plan(plan, engine=engine).passed
    assert built_contexts == [shared_context(SMALL)]


def test_concurrent_misses_share_one_context(built_contexts):
    barrier = threading.Barrier(8)
    contexts = []

    def miss():
        barrier.wait(timeout=30)
        contexts.append(shared_context(SMALL))

    threads = [threading.Thread(target=miss) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(contexts) == 8 and len(built_contexts) == 1
    assert all(context is built_contexts[0] for context in contexts)


def test_thread_flat_run_builds_one_context(built_contexts, monkeypatch, capsys):
    from repro.experiments import runner
    from repro.experiments.reporting import TableResult

    def probe(ctx):
        return TableResult(title=f"probe over {ctx.config.name}", headers=["config"])

    for name in ("probe-a", "probe-b"):
        monkeypatch.setitem(runner.EXPERIMENTS, name, probe)
    code = runner.main(["-e", "probe-a", "-e", "probe-b", "--jobs", "2", "--executor", "thread"])
    assert code == 0
    assert len(built_contexts) == 1
    assert capsys.readouterr().out.count("probe over quick") == 2


def test_determinism_gate_recomputes_on_a_fresh_context(built_contexts, tmp_path):
    plan = build_campaign_plan(SMALL, experiments=["table2"], bench_dir=str(tmp_path))
    result = run_campaign_plan(plan)
    assert result.gate_verdicts["gate:determinism"]["passed"]
    reports_context, gate_context = built_contexts
    assert reports_context is shared_context(SMALL)
    assert gate_context is not reports_context
    assert gate_context._generation_run is not None


# ------------------------------------------------------------ one flag set
CONFIG_ARGV = [
    "--preset", "paper", "--backends", "gpt-4,gpt-3.5", "--pool-schedule", "round-robin",
    "--repair-mode", "transactional", "--route", "repair=gpt-3.5",
    "--fault-plan", "rate=0.2,seed=7", "--retry", "attempts=6", "--breaker-threshold", "3",
]

#: Front door → (the module whose main folds the flags, its argv prefix).
FRONT_DOORS = {
    "runner": ("repro.experiments.runner", []),
    "campaign": ("repro.orchestrator.cli", ["campaign"]),
    "diff": ("repro.diffcampaign.cli", ["diff", "--configs", "netlink,usb-hotplug"]),
    "serve": ("repro.service.cli", ["serve", "--job", "table1"]),
}


class _Folded(Exception):
    """Stops a front door right after it folded its flags into a config."""


def _config_through(door: str, argv: list[str], monkeypatch):
    """The ExperimentConfig the real front door ``door`` builds from ``argv``."""
    from repro.experiments import flags, runner

    module_name, prefix = FRONT_DOORS[door]

    def fold(args):
        raise _Folded(flags.config_from_args(args))

    monkeypatch.setattr(importlib.import_module(module_name), "config_from_args", fold)
    with pytest.raises(_Folded) as folded:
        runner.main(prefix + argv)
    return folded.value.args[0]


@pytest.mark.parametrize("door", sorted(FRONT_DOORS))
def test_front_doors_fold_config_flags_alike(door, monkeypatch):
    assert _config_through(door, CONFIG_ARGV, monkeypatch) == paper().with_overrides(
        llm_backends=("gpt-4", "gpt-3.5"),
        pool_schedule="round-robin",
        repair_mode="transactional",
        route_table=(("repair", "gpt-3.5"),),
        fault_plan="rate=0.2,seed=7",
        retry_spec="attempts=6",
        breaker_threshold=3,
    )
    assert _config_through(door, [], monkeypatch) == quick()


@pytest.mark.parametrize(
    "argv",
    [["--route", "repair"], ["--route", "repair=no-such-model"],
     ["--route", "repair=gpt-4", "--route", "repair=gpt-3.5"],
     ["--fault-plan", "rate=lots"], ["--retry", "attempts=many"]],
)
def test_config_flags_are_validated_at_the_front_door(argv):
    from repro.experiments import runner

    with pytest.raises(SystemExit, match="--route|invalid resilience spec"):
        runner.main(["campaign"] + argv)


@pytest.mark.parametrize(
    "entry",
    ["fuzz:syzkaller@abc", "generation:", "bogus:dm_ctl_fops", "=generation:dm_ctl_fops",
     "nope", "experiment:nope"],
)
def test_malformed_job_specs_are_rejected_at_the_front_door(entry):
    from repro.service.cli import serve_main

    with pytest.raises(SystemExit, match=re.escape(repr(entry))):
        serve_main(["--job", entry])


@pytest.mark.parametrize("door", sorted(FRONT_DOORS))
def test_output_that_is_a_file_is_refused_before_any_work(
    door, tmp_path, built_contexts, capsys
):
    from repro.experiments import runner

    existing = tmp_path / "taken.txt"
    existing.write_text("not a directory\n")
    with pytest.raises(SystemExit) as refused:
        runner.main(FRONT_DOORS[door][1] + ["--output", str(existing)])
    assert refused.value.code == 2
    assert "--output" in capsys.readouterr().err
    assert built_contexts == []
