"""Differential campaigns: config model validation, digest stability,
plan shape, scheduler determinism and warm-store reuse.

The determinism anchor (DESIGN.md rule 12): a diff campaign's rendered
reports and rule-10 event view are identical across jobs/executor choices,
and a warm store serves the whole config-invariant prefix as
``task_reused`` while only the config-dependent cone re-executes when the
cell set changes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.diffcampaign import DIFF_ASPECTS, build_diff_plan, cell_fuzz_id, cell_report_id, diff_task_id
from repro.engine import ExecutionEngine
from repro.errors import CampaignPlanError, ConfigError
from repro.experiments.config import quick
from repro.kconfig import (
    CONFIG_PRESETS,
    ConfigAxis,
    ConfigPreset,
    config_preset,
    kernel_config_digest,
)
from repro.orchestrator.events import EventLog, deterministic_view
from repro.orchestrator.scheduler import CampaignScheduler
from repro.store import ArtifactStore

CELLS = ["fs-ioctl", "netlink"]
BUDGET = 40


# ----------------------------------------------------------- config model
def test_axis_validation():
    with pytest.raises(ConfigError):
        ConfigAxis(name="Bad Name", options=("CONFIG_X",))
    with pytest.raises(ConfigError):
        ConfigAxis(name="empty", options=())
    with pytest.raises(ConfigError):
        ConfigAxis(name="pattern", options=("not-a-config",))
    with pytest.raises(ConfigError):
        ConfigAxis(name="dupes", options=("CONFIG_X", "CONFIG_X"))


def test_preset_validation():
    axis = ConfigAxis(name="one", options=("CONFIG_X",))
    with pytest.raises(ConfigError):
        ConfigPreset(name="both", axes=(axis,), enable_all=True)
    with pytest.raises(ConfigError):
        ConfigPreset(name="neither")
    with pytest.raises(ConfigError):
        ConfigPreset(name="dupes", axes=(axis, axis))
    with pytest.raises(ConfigError):
        ConfigPreset(name="Bad Name", axes=(axis,))


def test_unknown_preset_is_a_typed_error():
    with pytest.raises(ConfigError) as excinfo:
        config_preset("no-such-preset")
    assert "baseline" in str(excinfo.value)


def test_shipped_presets_have_distinct_digests():
    digests = {preset.digest() for preset in CONFIG_PRESETS.values()}
    assert len(digests) == len(CONFIG_PRESETS)
    for digest in digests:
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")


def test_digest_covers_every_flag():
    base = CONFIG_PRESETS["netlink"]
    flipped = ConfigPreset(
        name=base.name, axes=base.axes, include_guards=False
    )
    assert flipped.digest() != base.digest()
    assert kernel_config_digest(base.kernel_config()) != kernel_config_digest(
        flipped.kernel_config(), flipped.kernel_config()
    )


def test_config_digests_stable_across_hash_seeds():
    """Digests are pure content: two interpreters with different
    PYTHONHASHSEED values print identical digests for every preset."""
    script = (
        "from repro.kconfig import CONFIG_PRESETS, kernel_config_digest\n"
        "from repro.kernel import build_default_kernel\n"
        "for name in sorted(CONFIG_PRESETS):\n"
        "    print(name, CONFIG_PRESETS[name].digest())\n"
        "kernel = build_default_kernel('small')\n"
        "print('kernel', kernel_config_digest(kernel.scan_config(), kernel.fuzz_config()))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == len(CONFIG_PRESETS) + 1


# ------------------------------------------------------------- plan shape
def test_diff_plan_requires_two_distinct_cells():
    config = quick()
    with pytest.raises(CampaignPlanError):
        build_diff_plan(config, [CONFIG_PRESETS["netlink"]])
    with pytest.raises(CampaignPlanError):
        build_diff_plan(config, [CONFIG_PRESETS["netlink"], CONFIG_PRESETS["netlink"]])


def test_diff_plan_layout():
    presets = [CONFIG_PRESETS[name] for name in CELLS]
    plan = build_diff_plan(quick(), presets, fuzz_budget=BUDGET)
    assert "generate" in plan and "validate" in plan
    report_ids = []
    for name in sorted(CELLS):
        fuzz = plan.task(cell_fuzz_id(name))
        assert fuzz.depends_on == ("validate",)
        assert fuzz.params_dict()["config_digest"] == CONFIG_PRESETS[name].digest()
        report = plan.task(cell_report_id(name))
        assert report.depends_on == (cell_fuzz_id(name),)
        report_ids.append(cell_report_id(name))
    for aspect in DIFF_ASPECTS:
        diff = plan.task(diff_task_id(aspect))
        assert diff.depends_on == tuple(report_ids)
    # Shared prefix is byte-identical to the standard campaign plan's.
    from repro.orchestrator.plan import build_campaign_plan

    campaign = build_campaign_plan(quick(), experiments=["table2"])
    for task_id in ("generate", "validate"):
        assert plan.task(task_id) == campaign.task(task_id)


# ------------------------------------------------- determinism and reuse
def _run(engine=None, store=None):
    presets = [CONFIG_PRESETS[name] for name in CELLS]
    plan = build_diff_plan(quick(), presets, fuzz_budget=BUDGET)
    events = EventLog()
    scheduler = CampaignScheduler(plan, engine, store=store, events=events)
    result = scheduler.run()
    result.raise_for_status()
    texts = [
        result.output(cell_report_id(name))["text"] for name in sorted(CELLS)
    ] + [result.output(diff_task_id(aspect))["text"] for aspect in DIFF_ASPECTS]
    return result, texts, [deterministic_view(record) for record in events.events]


@pytest.mark.parametrize(
    "jobs,executor", [(1, "serial"), (4, "thread"), (4, "process")]
)
def test_diff_campaign_is_deterministic_across_executors(jobs, executor):
    baseline_result, baseline_texts, baseline_events = _run()
    result, texts, events = _run(ExecutionEngine(jobs=jobs, kind=executor))
    assert texts == baseline_texts
    assert events == baseline_events
    assert {
        task_id: outcome.output_digest
        for task_id, outcome in result.outcomes.items()
    } == {
        task_id: outcome.output_digest
        for task_id, outcome in baseline_result.outcomes.items()
    }


def test_diff_campaign_warm_store_reuses_everything(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    cold, cold_texts, _ = _run(store=store)
    assert cold.reused == 0
    warm, warm_texts, _ = _run(store=store)
    assert warm_texts == cold_texts
    assert warm.executed == 0
    assert warm.reused == len(cold.outcomes)


def test_new_cell_reexecutes_only_its_cone(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    _run(store=store)
    presets = [CONFIG_PRESETS[name] for name in CELLS + ["usb-hotplug"]]
    plan = build_diff_plan(quick(), presets, fuzz_budget=BUDGET)
    result = CampaignScheduler(plan, store=store).run()
    result.raise_for_status()
    reused = {t for t, o in result.outcomes.items() if o.reused}
    executed = {t for t, o in result.outcomes.items() if not o.reused}
    # Config-invariant prefix and unchanged cells come from the store...
    assert {"generate", "validate"} <= reused
    for name in CELLS:
        assert cell_fuzz_id(name) in reused and cell_report_id(name) in reused
    # ...and only the new cell plus the terminal diffs re-execute.
    assert executed == {
        cell_fuzz_id("usb-hotplug"),
        cell_report_id("usb-hotplug"),
    } | {diff_task_id(aspect) for aspect in DIFF_ASPECTS}


def test_cell_outputs_pin_their_config(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    result, _, _ = _run(store=store)
    for name in CELLS:
        fuzz = result.output(cell_fuzz_id(name))
        assert fuzz["config_digest"] == CONFIG_PRESETS[name].digest()
        assert fuzz["space_digest"] != ""
        assert fuzz["extras"] == []          # covered labels stay in-space
        assert fuzz["coverage"] == sorted(fuzz["coverage"])
    left = result.output(cell_fuzz_id(CELLS[0]))
    right = result.output(cell_fuzz_id(CELLS[1]))
    assert left["space_digest"] != right["space_digest"]
